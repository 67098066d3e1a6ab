"""Continual learning with flow-based pseudo-rehearsal and embedding
regularization, plus the rehearsal/regularization baselines and the full
evaluation protocol, at desk scale.

Import from the submodules (``prer.runner``, ``prer.flow``, ...).
"""

__version__ = "0.1.0"
