import os

import numpy as np
import pytest

import diffguide as dg
from diffguide.nn import init_mlp, train

# One shared setup for everything heavy: the default 2-D benchmark, the
# 400-step schedule, both trained classifier personas, and the denoiser.
# Training is deterministic, so every test sees identical models.

N_TRAIN = 4000
N_VAL = 2000


@pytest.fixture(scope="session")
def spec2():
    return dg.two_class_benchmark()


@pytest.fixture(scope="session")
def schedule400():
    return dg.linear_schedule(400, 1e-4, 0.02)


@pytest.fixture(scope="session")
def denoiser(spec2, schedule400):
    return dg.AnalyticDenoiser(spec2, schedule400)


@pytest.fixture(scope="session")
def train_ds(spec2):
    return dg.sample_dataset(spec2, N_TRAIN, 100)


@pytest.fixture(scope="session")
def val_ds(spec2):
    return dg.sample_dataset(spec2, N_VAL, 101)


@pytest.fixture(scope="session")
def model_nonrobust(train_ds):
    result = train(
        init_mlp([2, 64, 64, 2], seed=1), train_ds.points, train_ds.labels, epochs=40, seed=2
    )
    return result.model


@pytest.fixture(scope="session")
def model_robust(train_ds, schedule400):
    result = train(
        init_mlp([2, 64, 64, 2], seed=3),
        train_ds.points,
        train_ds.labels,
        schedule=schedule400,
        epochs=40,
        seed=4,
    )
    return result.model


@pytest.fixture(scope="session")
def h_nonrobust(model_nonrobust):
    return dg.non_robust(model_nonrobust)


@pytest.fixture(scope="session")
def h_robust(model_robust):
    return dg.robust(model_robust)


@pytest.fixture(scope="session")
def h_oracle(spec2):
    return dg.bayes_oracle(spec2)


@pytest.fixture(scope="session")
def small_schedule():
    """Short axis for fast end-to-end chain tests."""
    return dg.linear_schedule(60, 1e-4, 0.05)


@pytest.fixture(scope="session")
def small_denoiser(spec2, small_schedule):
    return dg.AnalyticDenoiser(spec2, small_schedule)


@pytest.fixture()
def cpus(monkeypatch):
    """Force the shard count of guidance._run_shards, which runs the chain
    loop and the sensitivity walk: k allowed CPUs, one row per shard at least."""

    def force(k):
        monkeypatch.setattr(dg.guidance, "_MIN_SHARD", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return force


@pytest.fixture()
def forks(monkeypatch):
    """The shards handed to a child, recorded as each one forks."""
    counted, made = [], []
    shards, fork_shard = dg.guidance._shards, dg.guidance._fork_shard

    def sharding(items):
        made[:] = shards(items)
        return made

    def counting(run, k):
        counted.append(made[k])
        return fork_shard(run, k)

    monkeypatch.setattr(dg.guidance, "_shards", sharding)
    monkeypatch.setattr(dg.guidance, "_fork_shard", counting)
    return counted


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped ({f'pid {pid}, exited' if pid else 'still running'})")
