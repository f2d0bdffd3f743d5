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


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * np.sqrt(p * (1.0 - p) / n)
