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
from prer.pipeline import STRATEGIES, Memory
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


def difference_form_hausdorff(a, b):
    """The Hausdorff distance as it was computed before the matmul screen:
    every pair in the difference form, at once, on C-ordered copies."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def varied_sets(rng):
    for n, m, d in ((1, 1, 1), (37, 23, 4), (64, 90, 8), (120, 90, 120), (5, 150, 17)):
        yield rng.normal(size=(n, d)), rng.normal(size=(m, d))


def duplicate_and_tied_sets(rng):
    # integer grid points repeat within and across the sets, so many
    # pairs tie at the row and column minima, zero included
    for n, m, d in ((40, 30, 2), (60, 80, 9), (25, 25, 33)):
        a = rng.integers(0, 3, size=(n, d)).astype(float)
        b = np.concatenate([a[: m // 3], rng.integers(0, 3, size=(m - m // 3, d)).astype(float)])
        yield a, b[rng.permutation(m)]


def far_cluster_sets(rng):
    # |a|^2 + |b|^2 - 2ab cancels about 12 of its 16 digits here
    for n, m, d in ((50, 40, 3), (70, 60, 64)):
        yield 1e6 + rng.normal(size=(n, d)), 1e6 + rng.normal(size=(m, d))
    # a near tie the screen cannot rank: a[0] has b[0] and b[1] at
    # distances 1 and 1 + 1e-6, far below the screen's rounding at 1e6,
    # and a[1], a[2] lie 0.5 from b[0], b[1], so the result is the
    # distance from a[0] to b[0], which only a[0]'s row can keep
    for _ in range(8):
        u = rng.normal(size=(4, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        center = 1e6 + rng.normal(size=4)
        b = center + np.array([1.0, 1.0 + 1e-6])[:, None] * u[:2]
        yield np.concatenate([center[None], b + 0.5 * u[2:]]), b


def layout_sets(rng):
    a, b = rng.normal(size=(45, 20)), rng.normal(size=(35, 20))
    yield np.asfortranarray(a), b
    yield a, np.asfortranarray(b)
    wide = rng.normal(size=(90, 40))
    yield wide[::2, ::2], wide[1::2, 1::2]
    # a permutation's column gather, as a flow's last layer returns it
    yield a, b[:, rng.permutation(20)]


def nonfinite_sets(rng):
    a, b = rng.normal(size=(30, 12)), rng.normal(size=(25, 12))
    for value in (np.nan, np.inf, -np.inf):
        bad = a.copy()
        bad[7] = value
        yield bad, b
        yield a, np.concatenate([b, bad[7:8]])
        one = b.copy()
        one[3, 5] = value
        yield a, one
    both = a.copy()
    both[0, 0] = np.inf
    yield both, np.concatenate([b, both[:1]])  # inf - inf in one pair


def same_float(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


@pytest.mark.parametrize("sets", [varied_sets, duplicate_and_tied_sets, far_cluster_sets,
                                  layout_sets, nonfinite_sets])
@pytest.mark.parametrize("budget", [1, 97, 4096, 10 ** 9])
def test_hausdorff_equals_the_difference_form_bitwise(monkeypatch, sets, budget):
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", budget)
    for a, b in sets(Rng(21)):
        with np.errstate(invalid="ignore"):  # inf - inf in the nonfinite sets
            expected = difference_form_hausdorff(a, b)
            assert same_float(hausdorff_distance(a, b), expected)
            assert same_float(hausdorff_distance(b, a), expected)


def test_hausdorff_sums_every_layout_in_one_order():
    rng = Rng(22)
    a, b = rng.normal(size=(40, 64)), rng.normal(size=(30, 64))
    wide = np.zeros((30, 128))
    wide[:, ::2] = b
    values = {hausdorff_distance(x, y) for x in (a, np.asfortranarray(a))
              for y in (b, np.asfortranarray(b), wide[:, ::2])}
    assert values == {difference_form_hausdorff(a, b)}


@pytest.mark.parametrize("equal", [False, True], ids=["random", "all-equal"])
def test_hausdorff_memory_stays_within_its_budget(equal):
    rng = Rng(23)
    a, b = rng.normal(size=(1200, 100)), rng.normal(size=(900, 100))
    if equal:
        # every pair ties at distance 0, so every pair passes the screen
        a, b = np.ones_like(a), np.ones_like(b)
    tracemalloc.start()
    try:
        value = hausdorff_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (value == 0.0) == equal
    # the (1200, 900, 100) difference tensor alone would be 864 MB; a
    # chunk holds its screen, the surviving pair ids and a batch of pairs
    assert peak < 3 * 8 * metrics.CHUNK_FLOATS


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
    assert memory_footprint(STRATEGIES["er"], 5, 200, 3072, 200) == 3_272_000


def test_footprint_replay_cifar_number():
    assert memory_footprint(STRATEGIES["replay"], 5, 2000, 3072) == 30_720_000


def test_footprint_zero_samples():
    assert memory_footprint(STRATEGIES["replay"], 5, 0, 3072) == 0.0
    assert memory_footprint(STRATEGIES["er"], 5, 0, 3072, 100) == 0.0


def test_footprint_prer_counts_model_params():
    assert memory_footprint(STRATEGIES["prer"], 5, 200, 784, 100,
                            model_params=250_000) == 250_000


def test_footprint_mnist_formula_vs_paper_figure():
    # with 28x28 images the formula gives 884k floats for ER at 200/task;
    # the reference 676k figure implies a 576-float image and is documented
    # as a known inconsistency, so the formula is asserted, not the figure
    assert memory_footprint(STRATEGIES["er"], 5, 200, 784, 100) == 884_000


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


def tied_grid():
    """60 fitted points on a 3 x 3 grid repeat, so distances tie; four
    classes among k neighbours make tied votes as well. 70 queries."""
    rng = Rng(12)
    fit_x = rng.integers(0, 3, size=(60, 2)).astype(float)
    fit_y = rng.integers(0, 4, size=60)
    x = np.concatenate([fit_x[:25], rng.integers(0, 3, size=(45, 2)).astype(float)])
    return fit_x, fit_y, x


@pytest.mark.parametrize("k", [2, 4, 5])
def test_knn_probe_chunks_match_one_shot_vote(monkeypatch, k):
    fit_x, fit_y, x = tied_grid()
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", 7 * len(fit_x))  # 7-row chunks
    expected, votes = one_shot_knn(fit_x, fit_y, x, k)
    assert any((v == v.max()).sum() > 1 for v in votes), "no tied vote exercised"
    assert np.array_equal(KnnProbe(k=k).fit(fit_x, fit_y).predict(x), expected)


@pytest.mark.parametrize("k", [2, 4, 5])
def test_knn_probe_sub_blocks_match_one_shot_vote(monkeypatch, k):
    fit_x, fit_y, x = tied_grid()
    # chunks of 23, 23 and 24 rows, each finished in sub-blocks of 2 and 3
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", 24 * len(fit_x))
    subs = [s.stop - s.start for c in metrics._row_chunks(len(x), len(fit_x))
            for s in metrics._row_chunks(c.stop - c.start, 8 * len(fit_x))]
    assert set(subs) == {2, 3}
    expected, _ = one_shot_knn(fit_x, fit_y, x, k)
    assert np.array_equal(KnnProbe(k=k).fit(fit_x, fit_y).predict(x), expected)


def test_knn_probe_memory_stays_within_its_budget():
    rng = Rng(13)
    fit_x = rng.normal(size=(3000, 100))  # two chunks of the fit's norms
    probe = KnnProbe(k=5).fit(fit_x, rng.integers(0, 10, size=3000))
    assert np.array_equal(probe._sq_x, (fit_x ** 2).sum(axis=1))
    x = rng.normal(size=(9000, 100))
    tracemalloc.start()
    try:
        probe.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (9000, 3000) distance matrix alone is 216 MB
    assert peak < 4 * 8 * metrics.CHUNK_FLOATS


@pytest.mark.parametrize("fitted, dim, queries", [(1200, 2, 3600), (6400, 100, 200)])
def test_knn_probe_vote_holds_one_chunk(fitted, dim, queries):
    rng = Rng(14)
    probe = KnnProbe(k=5).fit(rng.normal(size=(fitted, dim)), rng.integers(0, 10, size=fitted))
    x = rng.normal(size=(queries, dim))
    tracemalloc.start()
    try:
        probe.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's product, plus an eighth of a chunk for a sub-block's
    # sums and then its argpartition indices; a second chunk-sized
    # buffer would reach two chunks
    assert peak < 1.5 * 8 * metrics.CHUNK_FLOATS


def test_knn_probe_rejects_negative_labels():
    with pytest.raises(ConfigurationError, match="non-negative"):
        KnnProbe().fit(np.array([[0.0], [1.0]]), np.array([0, -1]))
