"""Tests for the metric suite: accuracy/BWT over the result matrix,
Hausdorff coverage, generation quality and memory accounting."""

import tracemalloc

import numpy as np
import pytest

from prer import metrics
from prer.exceptions import ConfigurationError
from prer.metrics import (
    KnnProbe,
    accuracy,
    bwt,
    coverage_hausdorff,
    generation_quality,
    hausdorff_distance,
    memory_footprint,
)
from prer.model import build_mlp_model
from prer.pipeline import Memory
from prer.rng import Rng


def full_matrix(values):
    return np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# accuracy / bwt


def test_accuracy_all_hundred():
    assert accuracy(np.full((3, 3), 100.0)) == 100.0


def test_accuracy_hand_mean():
    r = full_matrix([[80.0, np.nan], [80.0, 90.0]])
    assert accuracy(r) == 85.0


def test_accuracy_incomplete_row_rejected():
    r = full_matrix([[80.0, np.nan], [np.nan, 90.0]])
    with pytest.raises(ConfigurationError):
        accuracy(r)


def test_bwt_perfect_retention_is_zero():
    r = full_matrix([[90.0, np.nan, np.nan],
                     [90.0, 80.0, np.nan],
                     [90.0, 80.0, 70.0]])
    assert bwt(r) == 0.0


def test_bwt_hand_computed():
    r = full_matrix([[90.0, np.nan], [80.0, 95.0]])
    assert bwt(r) == -10.0


def test_bwt_needs_two_tasks():
    with pytest.raises(ConfigurationError):
        bwt(np.array([[99.0]]))


def test_bwt_translation_covariant():
    rng = Rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        r = np.full((m, m), np.nan)
        for i in range(m):
            for j in range(i + 1):
                r[i, j] = rng.uniform(0.0, 100.0)
        shifted = r + 7.25
        assert bwt(shifted) == pytest.approx(bwt(r), abs=1e-12)


# ---------------------------------------------------------------------------
# Hausdorff


def test_hausdorff_identical_sets():
    a = Rng(2).normal(size=(10, 3))
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_singletons():
    assert hausdorff_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_hausdorff_asymmetric_example():
    a, b = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0]])
    assert hausdorff_distance(a, b) == 1.0


def test_hausdorff_same_bits_under_any_chunk_budget(monkeypatch):
    rng = Rng(5)
    a, b = rng.normal(size=(37, 4)), rng.normal(size=(23, 4))
    values = set()
    for budget in (1, 4 * 23, 50 * 23 * 4, 10**9):
        monkeypatch.setattr(metrics, "CHUNK_FLOATS", budget)
        values.add((hausdorff_distance(a, b), hausdorff_distance(b, a)))
    assert len(values) == 1
    (ab, ba), = values
    assert ab == ba


@pytest.mark.parametrize("n,floats_per_row", [
    (0, 10), (1, 10), (7, 1), (100, 2 ** 18), (9000, 200), (9001, 3000), (5, 10 ** 9),
])
def test_row_chunks_cover_rows_once_in_balanced_order(n, floats_per_row):
    step = max(1, metrics.CHUNK_FLOATS // floats_per_row)
    chunks = [range(n)[rows] for rows in metrics._row_chunks(n, floats_per_row)]
    assert [i for chunk in chunks for i in chunk] == list(range(n))
    assert len(chunks) == -(-n // step)
    lengths = [len(chunk) for chunk in chunks]
    assert all(0 < length <= step for length in lengths)
    if lengths:
        assert max(lengths) - min(lengths) <= 1


def test_hausdorff_symmetry_and_triangle():
    rng = Rng(3)
    for _ in range(20):
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        c = rng.normal(size=(6, 4))
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
        assert hausdorff_distance(a, c) <= (
            hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12
        )


def test_coverage_mean_over_classes():
    real = {0: np.array([[0.0, 0.0]]), 1: np.array([[0.0, 0.0]])}
    gen = {0: np.array([[3.0, 4.0]]), 1: np.array([[0.0, 1.0]])}
    assert coverage_hausdorff(real, gen) == pytest.approx(3.0)


def test_coverage_validation():
    with pytest.raises(ConfigurationError):
        coverage_hausdorff({0: [[0.0]]}, {1: [[0.0]]})
    with pytest.raises(ConfigurationError):
        coverage_hausdorff({0: [[0.0], [1.0]]}, {0: [[0.0]]})
    with pytest.raises(ConfigurationError):
        coverage_hausdorff({}, {})


# ---------------------------------------------------------------------------
# generation quality


def quality_fixture():
    model = build_mlp_model((5,), 4, Rng(4), embedding_dim=6, encoder_hidden=(8,))
    images = Rng(5).normal(size=(20, 5))
    embeddings = model.encode_classify(images)
    return model, images, embeddings


def test_quality_recomputation_identity():
    model, images, embeddings = quality_fixture()
    memory = Memory(images, embeddings, None)
    assert generation_quality(memory, model) == pytest.approx(100.0, abs=1e-9)


def test_quality_antipodal():
    model, images, embeddings = quality_fixture()
    memory = Memory(images, -embeddings, None)
    assert generation_quality(memory, model) == pytest.approx(-100.0, abs=1e-9)


def test_quality_empty_memory_rejected():
    model, _, _ = quality_fixture()
    empty = Memory(np.empty((0, 5)), np.empty((0, 6)), None)
    with pytest.raises(ConfigurationError):
        generation_quality(empty, model)


# ---------------------------------------------------------------------------
# memory accounting


def test_footprint_er_cifar_number():
    assert memory_footprint("er", 5, 200, 3072, 200) == 3_272_000


def test_footprint_replay_cifar_number():
    assert memory_footprint("replay", 5, 2000, 3072) == 30_720_000


def test_footprint_zero_samples():
    assert memory_footprint("replay", 5, 0, 3072) == 0.0
    assert memory_footprint("er", 5, 0, 3072, 100) == 0.0


def test_footprint_prer_counts_model_params():
    assert memory_footprint("prer", 5, 200, 784, 100, model_params=250_000) == 250_000


def test_footprint_mnist_formula_vs_paper_figure():
    # with 28x28 images the formula gives 884k floats for ER at 200/task;
    # the reference 676k figure implies a 576-float image and is documented
    # as a known inconsistency, so the formula is asserted, not the figure
    assert memory_footprint("er", 5, 200, 784, 100) == 884_000


def test_footprint_unknown_method():
    with pytest.raises(ConfigurationError):
        memory_footprint("nope", 1, 1, 1)


# ---------------------------------------------------------------------------
# probe


def test_knn_probe_majority_vote():
    x = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
    y = np.array([0, 0, 0, 1, 1, 1])
    probe = KnnProbe(k=3).fit(x, y)
    assert np.array_equal(probe.predict(np.array([[0.05], [5.05]])), [0, 1])


def test_knn_probe_unfit_rejected():
    with pytest.raises(ConfigurationError):
        KnnProbe().predict([[0.0]])


def one_shot_knn(fit_x, fit_y, x, k):
    """The probe without chunks: one dense distance matrix, then a
    bincount vote per row. Returns the labels and the vote counts."""
    d2 = ((x ** 2).sum(axis=1)[:, None] + (fit_x ** 2).sum(axis=1)[None, :]
          - 2.0 * x @ fit_x.T)
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    votes = [np.bincount(fit_y[idx]) for idx in nearest]
    return np.array([v.argmax() for v in votes]), votes


@pytest.mark.parametrize("k", [2, 4, 5])
def test_knn_probe_chunks_match_one_shot_vote(monkeypatch, k):
    rng = Rng(12)
    # 60 points on a 3 x 3 grid repeat, so distances tie; four classes
    # among k neighbours make tied votes as well
    fit_x = rng.integers(0, 3, size=(60, 2)).astype(float)
    fit_y = rng.integers(0, 4, size=60)
    x = np.concatenate([fit_x[:25], rng.integers(0, 3, size=(45, 2)).astype(float)])
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", 7 * len(fit_x))  # 7-row chunks
    expected, votes = one_shot_knn(fit_x, fit_y, x, k)
    assert any((v == v.max()).sum() > 1 for v in votes), "no tied vote exercised"
    assert np.array_equal(KnnProbe(k=k).fit(fit_x, fit_y).predict(x), expected)


def test_knn_probe_memory_stays_within_its_budget():
    rng = Rng(13)
    probe = KnnProbe(k=5).fit(rng.normal(size=(3000, 100)), rng.integers(0, 10, size=3000))
    x = rng.normal(size=(9000, 100))
    tracemalloc.start()
    try:
        probe.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (9000, 3000) distance matrix alone is 216 MB
    assert peak < 4 * 8 * metrics.CHUNK_FLOATS


def test_knn_probe_rejects_negative_labels():
    with pytest.raises(ConfigurationError, match="non-negative"):
        KnnProbe().fit(np.array([[0.0], [1.0]]), np.array([0, -1]))
