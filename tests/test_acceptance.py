"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -s` to see the lines.

The long MNIST reproduction is opt-in: point PRER_MNIST_DIR at a
directory containing the IDX files to enable it.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from _helpers import check_network_gradients, random_layer_instance, rel_err
from prer import nn
from prer.config import ExperimentConfig
from prer.data import build_task_stream, split_train_test, synth_blobs
from prer.flow import build_flow, nll_loss_and_backward
from prer.metrics import (
    accuracy,
    bwt,
    coverage_hausdorff,
    generation_quality,
    hausdorff_distance,
    memory_footprint,
)
from prer.model import build_model
from prer.pipeline import (
    STRATEGIES,
    RunState,
    class_schedule,
    generate_memory,
    strategy_train_task,
)
from prer.rng import Rng
from prer.runner import run_experiment


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def blob_config(strategy="prer", conditioning="decoder"):
    """The desk-scale stream every run-level criterion uses: 5 tasks of 2
    classes, 20-dimensional blobs whose pair directions share a rank-3
    subspace, and a 2-wide embedding so tasks compete for it."""
    return ExperimentConfig(
        dataset="blobs:classes=10,dim=20,sep=5,per_class=150,span=3",
        c_m=2,
        strategy=strategy,
        seeds=(1, 2, 3, 4, 5),
        conditioning=conditioning,
        embedding_dim=2,
        encoder_hidden=(32,),
        head_hidden=(16,),
        classifier_epochs=30,
        batch_size=64,
        memory_size=200,
        ae_max_epochs=150,
        flow_max_epochs=150,
        flow_levels=1,
        flow_blocks=5,
        coverage_cap=200,
    ).validate()


@pytest.fixture(scope="module")
def naive_records():
    cfg = blob_config("naive")
    return [run_experiment(cfg, seed) for seed in cfg.seeds]


@pytest.fixture(scope="module")
def prer_records():
    cfg = blob_config("prer")
    return [run_experiment(cfg, seed) for seed in cfg.seeds]


# ---------------------------------------------------------------------------
# 1. flow correctness


def test_c1_flow_correctness():
    start = time.time()
    with criterion(1, "flow bijectivity and exact log-determinants"):
        checked = 0
        for i in range(50):
            rng = Rng(1000 + i)
            dim = int(rng.choice([4, 6], size=1)[0])
            levels = int(rng.integers(1, 4))
            blocks = int(rng.integers(1, 6))
            cond_width = int(rng.integers(0, 4)) if rng.random() < 0.4 else 0
            cfg = ExperimentConfig(embedding_dim=dim, flow_levels=levels, flow_blocks=blocks,
                                   conditioning="flow" if cond_width else "none")
            stack = build_flow(cfg, cond_width, rng)
            for p, _ in stack.parameters():
                p[...] = rng.uniform(-0.5, 0.5, p.shape)
            init_cond = rng.integers(0, cond_width, size=64) if cond_width else None
            stack.normalize(rng.normal(size=(64, dim)), cond=init_cond, train=True)

            z = rng.normal(size=(8, dim))
            cond = rng.integers(0, cond_width, size=8) if cond_width else None
            u, logdet = stack.normalize(z, cond=cond)
            back = stack.generate(u, cond=cond)
            assert np.abs(back - z).max() < 1e-6

            z0 = z[:1]
            cond0 = cond[:1] if cond is not None else None
            h = 1e-6
            jac = np.zeros((dim, dim))
            for j in range(dim):
                zp, zm = z0.copy(), z0.copy()
                zp[0, j] += h
                zm[0, j] -= h
                up, _ = stack.normalize(zp, cond=cond0)
                um, _ = stack.normalize(zm, cond=cond0)
                jac[:, j] = (up[0] - um[0]) / (2 * h)
            sign, numeric = np.linalg.slogdet(jac)
            assert sign != 0
            assert abs(logdet[0] - numeric) < 1e-5
            checked += 1
        assert checked == 50
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_c2_gradient_suite():
    start = time.time()
    with criterion(2, "finite-difference gradients for all layers and losses"):
        worst = 0.0
        for seed in range(105):
            net, x, kwargs = random_layer_instance(seed)
            worst = max(worst, check_network_gradients(net, x, **kwargs))
        assert worst < 1e-4, f"worst layer gradient error {worst}"

        rng = Rng(7)
        h = 1e-6
        for _ in range(50):
            logits = rng.normal(size=(5, 4))
            labels = rng.integers(0, 4, size=5)
            _, g = nn.cross_entropy(logits, labels)
            idx = (int(rng.integers(0, 5)), int(rng.integers(0, 4)))
            orig = logits[idx]
            logits[idx] = orig + h
            lp, _ = nn.cross_entropy(logits, labels)
            logits[idx] = orig - h
            lm, _ = nn.cross_entropy(logits, labels)
            logits[idx] = orig
            assert rel_err(g[idx], (lp - lm) / (2 * h)) < 1e-4

            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            _, g = nn.mse(a, b)
            idx = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            orig = a[idx]
            a[idx] = orig + h
            lp, _ = nn.mse(a, b)
            a[idx] = orig - h
            lm, _ = nn.mse(a, b)
            a[idx] = orig
            assert rel_err(g[idx], (lp - lm) / (2 * h)) < 1e-4
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 3. density-estimation sanity


def test_c3_density_estimation_sanity():
    start = time.time()
    with criterion(3, "flow fits a 2D Gaussian mixture to near-entropy NLL"):
        centers = np.array([(-2.0, 0.0), (2.0, 0.0)])

        def mixture_logpdf(x):
            d0 = ((x - centers[0]) ** 2).sum(axis=1)
            d1 = ((x - centers[1]) ** 2).sum(axis=1)
            return np.logaddexp(np.log(0.5) - 0.5 * d0,
                                np.log(0.5) - 0.5 * d1) - np.log(2 * np.pi)

        rng = Rng(31)
        comps = rng.choice(2, size=4096)
        data = centers[comps] + rng.normal(size=(4096, 2))

        ent_rng = Rng(99)
        ent_sample = centers[ent_rng.choice(2, size=200_000)] \
            + ent_rng.normal(size=(200_000, 2))
        entropy = float(-mixture_logpdf(ent_sample).mean())

        stack = build_flow(ExperimentConfig(embedding_dim=2, flow_levels=1, flow_blocks=5),
                           2, Rng(32))
        adam = nn.Adam(stack.parameters())
        for step in range(8000):
            if step == 6000:
                adam.lr = 2e-4
            idx = rng.choice(len(data), size=128, replace=False)
            stack.grads[...] = 0.0
            nll_loss_and_backward(stack, data[idx])
            adam.step()

        eval_rng = Rng(77)
        eval_data = centers[eval_rng.choice(2, size=20_000)] \
            + eval_rng.normal(size=(20_000, 2))
        model_nll = float(-stack.log_prob(eval_data).mean())
        assert model_nll <= entropy + 0.15, (
            f"NLL {model_nll:.4f} vs entropy {entropy:.4f}"
        )
        assert model_nll >= entropy - 0.05  # cannot beat the true entropy

        samples = stack.sample(20_000, Rng(55))
        assigned_left = (np.linalg.norm(samples - centers[0], axis=1)
                         < np.linalg.norm(samples - centers[1], axis=1))
        proportion = assigned_left.mean()
        assert abs(proportion - 0.5) <= 0.05, f"component proportion {proportion:.3f}"
        assert time.time() - start < 120.0


# ---------------------------------------------------------------------------
# 4. metric unit checks


def test_c4_metric_examples_exact():
    with criterion(4, "accuracy/BWT/Hausdorff reproduce hand-derived values"):
        assert accuracy(np.full((3, 3), 100.0)) == 100.0
        assert accuracy(np.array([[80.0, np.nan], [80.0, 90.0]])) == 85.0
        r = np.array([[90.0, np.nan], [80.0, 95.0]])
        assert bwt(r) == -10.0
        retained = np.array([[90.0, np.nan], [90.0, 70.0]])
        assert bwt(retained) == 0.0

        rng = Rng(4)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            mat = np.full((m, m), np.nan)
            for i in range(m):
                for j in range(i + 1):
                    mat[i, j] = rng.uniform(0, 100)
            assert bwt(mat + 13.5) == pytest.approx(bwt(mat), abs=1e-12)

        origin, p34 = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        assert hausdorff_distance(origin, p34) == 5.0
        assert hausdorff_distance(np.array([[0.0, 0.0], [1.0, 0.0]]), origin) == 1.0
        a = Rng(5).normal(size=(12, 4))
        assert hausdorff_distance(a, a) == 0.0
        assert coverage_hausdorff({0: origin, 1: origin},
                                  {0: p34, 1: np.array([[0.0, 1.0]])}) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# 5. memory accounting


def test_c5_memory_accounting():
    with criterion(5, "memory footprints reproduce the reference CIFAR counts"):
        assert memory_footprint(STRATEGIES["er"], 5, 200, 3072, 200) == 3_272_000
        assert memory_footprint(STRATEGIES["replay"], 5, 2000, 3072) == 30_720_000
        # the reference MNIST count (676k) is inconsistent with 784-float
        # images; the formula is the contract and gives 884k
        assert memory_footprint(STRATEGIES["er"], 5, 200, 784, 100) == 884_000
        assert memory_footprint(STRATEGIES["er"], 5, 200, 784, 100) != 676_000


# ---------------------------------------------------------------------------
# 6. forgetting reproduction


def test_c6_forgetting_reproduction(naive_records, prer_records):
    start = time.time()
    with criterion(6, "naive forgets, the rehearsal pipeline recovers"):
        naive_bwt = float(np.mean([r.bwt for r in naive_records]))
        naive_acc = float(np.mean([r.accuracy for r in naive_records]))
        prer_bwt = float(np.mean([r.bwt for r in prer_records]))
        prer_acc = float(np.mean([r.accuracy for r in prer_records]))
        print(f"  naive: acc {naive_acc:.2f} bwt {naive_bwt:+.2f} | "
              f"prer: acc {prer_acc:.2f} bwt {prer_bwt:+.2f}")
        assert naive_bwt <= -5.0, f"naive BWT {naive_bwt:+.2f} not <= -5"
        assert prer_bwt >= naive_bwt + 3.0, (
            f"prer BWT {prer_bwt:+.2f} vs naive {naive_bwt:+.2f}"
        )
        assert prer_acc >= naive_acc + 3.0, (
            f"prer accuracy {prer_acc:.2f} vs naive {naive_acc:.2f}"
        )
        assert time.time() - start < 600.0


def test_paired_seed_comparison(naive_records, prer_records):
    # per-seed comparison of the full runner output: the rehearsal
    # pipeline should win both metrics on at least 4 of 5 seeds
    acc_wins = sum(p.accuracy > n.accuracy
                   for n, p in zip(naive_records, prer_records))
    bwt_wins = sum(p.bwt > n.bwt for n, p in zip(naive_records, prer_records))
    assert acc_wins >= 4, f"accuracy wins {acc_wins}/5"
    assert bwt_wins >= 4, f"bwt wins {bwt_wins}/5"


# ---------------------------------------------------------------------------
# 7. optional MNIST reproduction


MNIST_DIR = os.environ.get("PRER_MNIST_DIR", "")


def mnist_files_present():
    if not MNIST_DIR:
        return False
    base = Path(MNIST_DIR)
    return any((base / f"train-images-idx3-ubyte{suffix}").exists()
               for suffix in ("", ".gz"))


@pytest.mark.skipif(not mnist_files_present(),
                    reason="set PRER_MNIST_DIR to a directory with the MNIST IDX files")
def test_c7_mnist_reproduction():
    with criterion(7, "split-MNIST reproduction with an MLP encoder"):
        cfg = ExperimentConfig(
            dataset=f"mnist:dir={MNIST_DIR}",
            c_m=2,
            strategy="prer",
            seeds=(1, 2, 3),
            conditioning="decoder",
            embedding_dim=100,
            encoder_hidden=(256,),
            head_hidden=(64, 32),
            classifier_epochs=5,
            batch_size=64,
            memory_size=200,
            ae_max_epochs=30,
            flow_max_epochs=30,
            flow_levels=2,
            flow_blocks=5,
            coverage_cap=300,
        ).validate()
        prer = [run_experiment(cfg, seed) for seed in cfg.seeds]
        naive_cfg = blob_config("naive")
        naive_cfg.dataset = cfg.dataset
        naive_cfg.embedding_dim = cfg.embedding_dim
        naive_cfg.encoder_hidden = cfg.encoder_hidden
        naive_cfg.head_hidden = cfg.head_hidden
        naive_cfg.classifier_epochs = cfg.classifier_epochs
        naive = [run_experiment(naive_cfg, seed) for seed in cfg.seeds]
        prer_acc = float(np.mean([r.accuracy for r in prer]))
        prer_bwt = float(np.mean([r.bwt for r in prer]))
        print(f"  mnist prer: acc {prer_acc:.2f} bwt {prer_bwt:+.2f}")
        assert prer_acc >= 98.0
        assert prer_bwt >= -1.0
        for n_rec, p_rec in zip(naive, prer):
            assert n_rec.bwt < p_rec.bwt


# ---------------------------------------------------------------------------
# 8. conditioning ablation ordering


def test_c8_conditioning_ablation_ordering(prer_records):
    with criterion(8, "decoder-only conditioning beats flow-only conditioning"):
        flow_cfg = blob_config("prer", conditioning="flow")
        flow_records = [run_experiment(flow_cfg, seed) for seed in flow_cfg.seeds]
        decoder_acc = float(np.mean([r.accuracy for r in prer_records]))
        flow_acc = float(np.mean([r.accuracy for r in flow_records]))
        print(f"  decoder-conditioned acc {decoder_acc:.2f} vs "
              f"flow-conditioned {flow_acc:.2f}")
        assert decoder_acc >= flow_acc - 1e-9


# ---------------------------------------------------------------------------
# 9. generation quality


def test_c9_generation_quality(prer_records):
    with criterion(9, "memory quality: exact at creation, retained after a task"):
        # recomputation identity on a freshly generated memory
        cfg = blob_config("prer")
        from prer.data import parse_dataset_spec
        dataset = parse_dataset_spec(cfg.dataset, 1)
        train_ids, _ = split_train_test(dataset, 1)
        stream = build_task_stream(dataset, train_ids, 2, 1)
        rng = Rng(1)
        model = build_model(
            ExperimentConfig(embedding_dim=2, encoder_hidden=(32,), head_hidden=(16,),
                             conditioning="decoder"), 20, 10, rng.fork("model-init"))
        flow = build_flow(cfg, 10, rng.fork("flow-init"))
        state = RunState(model=model, flow=flow, stream=stream,
                         cfg=cfg, rng=rng)
        strategy_train_task(state)
        schedule = class_schedule([0, 1], 100, rng.fork("schedule"))
        memory = generate_memory(flow, model, 100, schedule, rng.fork("gen"))
        q_now = generation_quality(memory, model)
        assert q_now == pytest.approx(100.0, abs=1e-9), f"Q at creation {q_now}"

        # quality of the task-2 memory after task 2 finished, per seed
        q2 = [r.q_t["2"] for r in prer_records]
        print(f"  Q after one subsequent task: {[f'{q:.2f}' for q in q2]}")
        assert all(q >= 95.0 for q in q2), q2
