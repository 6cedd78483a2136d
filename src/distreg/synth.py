"""Seeded synthetic dataset generators used for tests, demos, and the CLI.

The variance task is the canonical case where bag means carry no signal:
targets are the per-bag spread of zero-mean instances, so any summary-mean
regressor is blind by construction while distribution regressors are not.
"""

from __future__ import annotations

import numpy as np

from .data import Bag, BagDataset, MultiSourceDataset

__all__ = [
    "GALLERY_SCENARIOS",
    "make_mean_task",
    "make_multisource_task",
    "make_two_sample_pair",
    "make_variance_task",
]

GALLERY_SCENARIOS = ("a", "b", "c", "d")


def _bag_ids(n_bags: int) -> list[str]:
    width = len(str(n_bags))
    return [f"bag{i:0{width}d}" for i in range(1, n_bags + 1)]


def make_variance_task(
    n_bags: int = 120, bag_size: int = 50, dim: int = 3, seed: int = 0
) -> BagDataset:
    """Bags of N(0, s_b^2 I) instances with target y_b = s_b.

    Every bag's instance distribution has mean zero, so the empirical bag
    mean is pure noise with respect to the target.
    """
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.5, 2.0, n_bags)
    bags = tuple(
        Bag(bid, spread[i] * rng.standard_normal((bag_size, dim)))
        for i, bid in enumerate(_bag_ids(n_bags))
    )
    return BagDataset(bags, spread.copy())


def make_mean_task(
    n_bags: int = 80,
    bag_size: int = 30,
    dim: int = 4,
    noise: float = 0.0,
    seed: int = 0,
) -> BagDataset:
    """Exactly-linear sanity world: y_b = a . (empirical bag mean) + c + noise."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(dim)
    intercept = 3.0
    bags = []
    targets = np.empty(n_bags)
    for i, bid in enumerate(_bag_ids(n_bags)):
        center = rng.standard_normal(dim)
        inst = center + 0.5 * rng.standard_normal((bag_size, dim))
        bags.append(Bag(bid, inst))
        targets[i] = inst.mean(axis=0) @ coef + intercept
    if noise > 0:
        with np.errstate(over="ignore"):
            targets = targets + noise * rng.standard_normal(n_bags)
        if not np.isfinite(targets).all():
            raise ValueError(f"noise {noise!r} makes the targets overflow")
    return BagDataset(tuple(bags), targets)


def make_multisource_task(
    n_bags: int = 120,
    dim_first: int = 3,
    dim_second: int = 2,
    seed: int = 0,
) -> MultiSourceDataset:
    """Two aligned sources whose target needs statistics of both.

    Source 1 carries a location signal (instances scatter around a per-bag
    center), source 2 a spread signal (zero-mean instances with per-bag
    standard deviation); y_b combines the two. Sources differ in feature
    dimension and per-bag instance counts.
    """
    rng = np.random.default_rng(seed)
    ids = _bag_ids(n_bags)
    centers = rng.standard_normal((n_bags, dim_first))
    spread = rng.uniform(0.5, 2.0, n_bags)
    coef = rng.standard_normal(dim_first)
    coef /= np.linalg.norm(coef)
    targets = centers @ coef + 3.0 * spread
    bags_one = []
    bags_two = []
    for i, bid in enumerate(ids):
        n1 = int(rng.integers(20, 41))
        n2 = int(rng.integers(10, 31))
        bags_one.append(Bag(bid, centers[i] + rng.standard_normal((n1, dim_first))))
        bags_two.append(Bag(bid, spread[i] * rng.standard_normal((n2, dim_second))))
    return MultiSourceDataset(
        (
            BagDataset(tuple(bags_one), targets),
            BagDataset(tuple(bags_two), targets),
        )
    )


def make_two_sample_pair(
    scenario: str,
    n_samples: int = 2000,
    seed: int = 0,
    shift: float = 1.0,
    scale_ratio: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One of the four two-sample scenarios, as (n x 1) sample matrices.

    a: Gaussians with shifted means (detectable from first moments).
    b: Gaussians with equal means, variances differing by ``scale_ratio``^2.
    c: Gaussian vs. Laplace matched in mean and variance (detectable only
       beyond the first two moments).
    d: the scenario-b samples mapped through x -> x^2; since the mean of x^2
       is the variance, the second-order feature turns the variance gap into
       a plain mean gap.
    """
    if scenario not in GALLERY_SCENARIOS:
        raise ValueError(f"scenario must be one of {GALLERY_SCENARIOS}, got {scenario!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, 1))
    if scenario == "a":
        y = shift + rng.standard_normal((n_samples, 1))
    elif scenario in ("b", "d"):
        y = scale_ratio * rng.standard_normal((n_samples, 1))
        if scenario == "d":
            x = x**2
            y = y**2
    else:
        # Laplace with scale 1/sqrt(2) has variance 1, matching the Gaussian.
        y = rng.laplace(0.0, 1.0 / np.sqrt(2.0), (n_samples, 1))
    return x, y
