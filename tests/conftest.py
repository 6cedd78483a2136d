"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's code paths: kernel values
come from pure-Python loops over ``math.exp``, and the reference kernel ridge
solver uses ``scipy.spatial.distance.cdist`` plus ``numpy.linalg.solve``
instead of the blocked Gram assembly and Cholesky route under test.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import distreg
from distreg import Bag, BagDataset


def random_dataset(
    rng: np.random.Generator,
    n_bags: int,
    max_instances: int = 6,
    dim: int = 3,
    singleton: bool = False,
    prefix: str = "b",
) -> BagDataset:
    """Small random dataset with standard-normal instances and targets."""
    bags = []
    for i in range(n_bags):
        n = 1 if singleton else int(rng.integers(1, max_instances + 1))
        bags.append(Bag(f"{prefix}{i}", rng.standard_normal((n, dim))))
    return BagDataset(tuple(bags), rng.standard_normal(n_bags))


# One hyperparameter point per model kind, for tests of model behaviour.
HYPERS = {
    "lr": {"lam": 1e-4},
    "kr": {"lam": 1e-3, "sigma": 1.2},
    "kdr": {"lam": 1e-3, "sigma": 1.2},
    "rdr": {"lam": 1e-3, "sigma": 1.2, "n_features": 16, "rff_seed": 0},
    "mdr": {"lam": 1e-3, "sigmas": [1.2, 0.9]},
    "stacked-lr": {"lam": 1e-4},
    "stacked-kr": {"lam": 1e-3, "sigma": 1.2},
    "stacked-kdr": {"lam": 1e-3, "sigma": 1.2},
    "stacked-rdr": {"lam": 1e-3, "sigma": 1.2, "n_features": 16, "rff_seed": 0},
}


def with_workers(workers: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a fresh worker pool of ``workers`` threads
    (possibly more than the CPUs), which switch every microsecond."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distreg, "_WORKERS", workers)
        mp.setattr(distreg, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)
            if distreg._pool is not None:
                distreg._pool.shutdown()


# ---------------------------------------------------------------------------
# Pure-Python nested-loop oracles


def oracle_rbf(x, y, sigma: float) -> float:
    s = 0.0
    for a, b in zip(x, y):
        d = float(a) - float(b)
        s += d * d
    return math.exp(-s / (2.0 * sigma * sigma))


def oracle_mean_entry(a, b, sigma: float) -> float:
    total = 0.0
    for row_a in a:
        for row_b in b:
            total += oracle_rbf(row_a, row_b, sigma)
    return total / (len(a) * len(b))


def oracle_bag_gram(data: BagDataset, sigma: float) -> np.ndarray:
    n = data.n_bags
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = oracle_mean_entry(
                data.bags[i].instances, data.bags[j].instances, sigma
            )
    return out


def oracle_cross_bag_gram(test: BagDataset, train: BagDataset, sigma: float) -> np.ndarray:
    out = np.empty((test.n_bags, train.n_bags))
    for i in range(test.n_bags):
        for j in range(train.n_bags):
            out[i, j] = oracle_mean_entry(
                test.bags[i].instances, train.bags[j].instances, sigma
            )
    return out


# ---------------------------------------------------------------------------
# Independent instance-level kernel ridge regression (cdist + dense solve)


def oracle_krr(x_train, y_train, x_test, sigma: float, lam: float) -> np.ndarray:
    """Plain KRR on instance vectors with target centering."""
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_train = np.exp(-gamma * cdist(x_train, x_train, "sqeuclidean"))
    y_bar = y_train.mean()
    alpha = np.linalg.solve(k_train + lam * np.eye(len(x_train)), y_train - y_bar)
    k_test = np.exp(-gamma * cdist(x_test, x_train, "sqeuclidean"))
    return k_test @ alpha + y_bar
