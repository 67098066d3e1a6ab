"""Result-matrix metrics, set-coverage and generation-quality scores,
and memory-footprint accounting.

The result matrix R is (M, M) with R[i-1, j-1] the percent accuracy on
task j after training task i; entries above the diagonal may stay NaN.
"""

import numpy as np

from .nn import row_cosine_similarity


def accuracy(r: np.ndarray) -> float:
    """Mean accuracy over the last row of the result matrix."""
    return float(r[-1].mean())


def bwt(r: np.ndarray) -> float:
    """Average change of past-task accuracy relative to the accuracy each
    task had right after its own training; it needs two tasks or more."""
    m = len(r)
    total = 0.0
    for i in range(1, m):
        for j in range(i):
            total += r[i, j] - r[j, j]
    return float(total / (m * (m - 1) / 2))


# ---------------------------------------------------------------------------
# set coverage


# Row chunks of every pairwise-distance computation and of the coverage
# pool are sized so that one chunk's largest intermediate holds at most
# this many float64s (2 MB), and so are the batches of exact pairs behind
# a Hausdorff chunk's screen. The k-NN vote holds one chunk's product and
# finishes it in place in row sub-blocks of an eighth of this budget.
# Larger budgets measured no faster: a small chunk stays in cache.
# Elementwise work and reductions give each row the same bits under any
# chunking, and the Hausdorff screen only picks pairs (its bits never
# reach the result); matmul row blocks that feed a result need not. Under
# OpenBLAS 0.3.31 (Haswell kernels), flow samples generated in a tail
# chunk of 1-48 rows differed from a one-shot call in the last bits (up
# to 1e-14 on a 100-dim flow), and 49 rows or more matched. Balanced
# slices keep every chunk at least half a step long whenever more than
# one is needed, so no short tail is left over.
CHUNK_FLOATS = 2 ** 18


def _row_chunks(n, floats_per_row):
    """ceil(n / step) near-equal slices covering range(n) in order, with
    step = CHUNK_FLOATS // floats_per_row rows (at least one)."""
    step = max(1, CHUNK_FLOATS // max(floats_per_row, 1))
    count = -(-n // step)
    for i in range(count):
        yield slice(i * n // count, (i + 1) * n // count)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets (Euclidean).

    Every distance that can be a row's or a column's minimum is computed
    in the difference form, sqrt(((a_i - b_j) ** 2).sum()), on C-ordered
    rows, so numpy sums each pair in its pairwise order whatever the
    caller's layout and d(a, b) == d(b, a) bitwise. A matmul screen picks
    those pairs (after Taha & Hanbury, TPAMI 2015)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    dim = a.shape[1]
    sq_a, sq_b = (a ** 2).sum(axis=1), (b ** 2).sum(axis=1)
    # The screen s = |a|^2 + |b|^2 - 2ab of a pair and its difference-form
    # sum S (before the sqrt) both approximate D = |a_i - b_j|^2 <= 2N,
    # N = |a_i|^2 + |b_j|^2. With u = eps / 2 and g_k = k u / (1 - k u)
    # (Higham, ch. 3), the two norms carry g_d N, the doubled dot product
    # g_d N and the two additions that form s at most 4 u N, so
    # |s - D| <= (2 g_d + 4 u) N; the difference, the square and d - 1
    # additions give |S - D| <= g_(d+2) D <= 2 g_(d+2) N. So s_x > s_y +
    # slack with slack >= 2 (2 g_d + 4 u + 2 g_(d+2)) N ~ (4 d + 8) eps N
    # implies S_x > S_y, and a rounded sqrt keeps that order: pair x is
    # no nearer than pair y. slack = 8 (d + 2) eps N, N over the largest
    # norms, covers this twice; d * tiny covers the absolute error of
    # products that underflow. A pair is dropped only against a row's or
    # a column's smallest s so far, whose own pair always survives, so
    # every row and column minimum is computed. The 4 N inside overflows
    # to inf before any term of s can, and a NaN or inf input makes slack
    # NaN or inf: the test ~(s > best + slack) then keeps every pair, so
    # non-finite sets give the difference form's result.
    slack = 2 * (dim + 2) * np.finfo(float).eps * (4.0 * (sq_a.max() + sq_b.max()))
    slack += dim * np.finfo(float).tiny
    min_ab = np.empty(len(a))
    min_ba = np.full(len(b), np.inf)
    best_b = np.full(len(b), np.inf)
    for rows in _row_chunks(len(a), len(b)):
        ac = a[rows]
        d2 = ac @ b.T
        d2 *= -2.0
        d2 += sq_a[rows, None]
        d2 += sq_b
        best_b = np.minimum(best_b, d2.min(axis=0))
        far = d2 > (d2.min(axis=1) + slack)[:, None]
        far &= d2 > best_b + slack
        pairs = np.flatnonzero(~far)
        del far
        # the screen's buffer now holds the exact distances, inf elsewhere;
        # a pair in flight holds two gathered rows, their difference and
        # four scalars
        d2.fill(np.inf)
        flat = d2.reshape(-1)
        for part in _row_chunks(len(pairs), 3 * dim + 4):
            i, j = np.divmod(pairs[part], len(b))
            flat[pairs[part]] = np.sqrt(((ac[i] - b[j]) ** 2).sum(axis=1))
        min_ab[rows] = d2.min(axis=1)
        min_ba = np.minimum(min_ba, d2.min(axis=0))
        del d2, flat, pairs  # before the next chunk allocates its own
    return float(max(min_ab.max(), min_ba.max()))


def coverage_hausdorff(real_by_class: dict, generated_by_class: dict) -> float:
    """Class-averaged Hausdorff distance between real and generated
    embedding sets. Both dicts must share keys and non-empty per-class counts."""
    values = [hausdorff_distance(real_by_class[c], generated_by_class[c])
              for c in sorted(real_by_class)]
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# generation quality


def generation_quality(memory, model) -> float:
    """Mean cosine similarity (x100) between the embeddings stored with
    generated images and the embeddings the current model assigns them."""
    z_now = model.encode_classify(memory.images)
    sims = row_cosine_similarity(z_now, memory.embeddings)
    return float(100.0 * sims.mean())


# ---------------------------------------------------------------------------
# memory accounting


def memory_footprint(strategy, num_tasks: int, samples_per_task: int,
                     image_floats: int, embedding_floats: int = 0,
                     model_params: int = 0, probe_rows: int = 0) -> float:
    """Float count of the extra storage a strategy carries; ``strategy``
    is a ``pipeline.Strategy``. A flow strategy stores its generative
    model, and one that also replays keeps the ``probe_rows`` real rows
    its label probe reads; one that replays or penalizes without a flow
    stores real rows (with their embeddings for a penalty), any other
    stores nothing."""
    if strategy.flow:
        return float(model_params + (probe_rows * image_floats if strategy.replay else 0))
    if strategy.replay or strategy.penalty:
        row = image_floats + (embedding_floats if strategy.penalty else 0)
        return float(num_tasks * samples_per_task * row)
    return 0.0


# ---------------------------------------------------------------------------
# probes and task evaluation


class KnnProbe:
    """k-nearest-neighbour class assigner, fitted on a non-empty set of real
    embeddings and their classes, which are >= 0; ``predict`` needs a fit.
    It labels prer_r's generated replay rows in every conditioning mode,
    and the sample pool of an unconditioned flow's coverage."""

    k = 5

    def fit(self, x, y):
        self._x, self._y = x, y
        self._sq_x = np.empty(len(x))
        for rows in _row_chunks(len(x), x.shape[1]):
            self._sq_x[rows] = (x[rows] ** 2).sum(axis=1)
        return self

    def predict(self, x) -> np.ndarray:
        """The majority label of each row's k nearest fitted points; a tied
        vote goes to the smallest label."""
        k = min(self.k, len(self._x))
        num_labels = self._y.max() + 1
        out = np.empty(len(x), dtype=int)
        for rows in _row_chunks(len(x), len(self._x)):
            xc = x[rows]
            # |x - y|^2 = (|x|^2 + |y|^2) - 2xy from one (chunk, m) product,
            # finished in place a few rows at a time (see CHUNK_FLOATS)
            d2 = 2.0 * xc @ self._x.T
            for sub in _row_chunks(len(xc), 8 * len(self._x)):
                part = d2[sub]
                np.subtract((xc[sub] ** 2).sum(axis=1)[:, None] + self._sq_x, part, out=part)
                nearest = self._y[np.argpartition(part, k - 1, axis=1)[:, :k]]
                votes = np.zeros((len(part), num_labels), dtype=np.intp)
                row = np.arange(len(part))
                for j in range(k):
                    votes[row, nearest[:, j]] += 1
                out[rows][sub] = votes.argmax(axis=1)
            del d2, part  # before the next chunk allocates its own
        return out


def right_rows(model, task, idx) -> int:
    """How many of the task's rows at positions ``idx`` its own head
    classifies right, classified a row chunk at a time."""
    right = 0
    for chunk in _row_chunks(len(idx), model.input_dim):
        rows = idx[chunk]
        pred = model.classify(task.rows(rows), task.index).argmax(axis=1)
        right += int((pred == task.y_task[rows]).sum())
    return right


def task_accuracy(model, task) -> float:
    """Percent accuracy of the task's own head on the task's data."""
    return 100.0 * (right_rows(model, task, np.arange(len(task))) / len(task))
