"""Random Fourier features: explicit trigonometric approximation of the RBF kernel.

For frequencies w_i drawn i.i.d. from N(0, sigma^-2 I), the map

    z(x) = (1 / sqrt(D)) [cos(w_1.x), sin(w_1.x), ..., cos(w_D.x), sin(w_D.x)]

satisfies E[z(x).z(x')] = exp(-||x - x'||^2 / (2 sigma^2)) and the Monte-Carlo
error decays like O(D^-1/2). The cos/sin pairs keep everything real and give
||z(x)|| = 1 exactly, so dot products are directly comparable to RBF kernel
values. One basis is shared by all bags.

``bag_feature_sweep`` shares a dataset's bags out among the worker threads
(``DISTREG_THREADS``), because numpy releases the interpreter lock inside the
matmul and the cos/sin. Every bag goes through the same arithmetic in
whichever share it lands and writes only its own column, so the result is
bitwise independent of the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _run_parts
from .data import Bag, BagDataset, _check, canonical_rows

__all__ = [
    "FourierBasis",
    "bag_feature_matrix",
    "bag_feature_sweep",
    "bag_mean_features",
    "feature_map",
    "feature_matrix",
    "sample_basis",
]

# Rows of the feature matrix computed per batch when averaging large bags.
_ROW_CHUNK = 1024


@dataclass(frozen=True)
class FourierBasis:
    """Sampled random projection matrix; columns are frequency vectors.

    Reconstructible bit-exactly from (seed, dim, n_components, sigma), which
    is how fitted models persist it.
    """

    weights: np.ndarray  # (dim, n_components)
    sigma: float
    seed: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"weights must be a non-empty 2-D matrix, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]

    @property
    def feature_dim(self) -> int:
        """Length of the mapped vectors: one cos and one sin per component."""
        return 2 * self.weights.shape[1]


def sample_basis(dim: int, n_components: int, sigma: float, seed: int) -> FourierBasis:
    """Draw a basis of ``n_components`` frequencies from N(0, sigma^-2 I).

    Uses a counter-based generator (Philox) with ziggurat Gaussian sampling,
    so the same seed yields the same basis regardless of how the surrounding
    code is parallelized.
    """
    dim, n_components = _check("int>=1", dim, "dim"), _check("int>=1", n_components, "n_components")
    sigma, seed = _check("real>0", sigma, "sigma"), _check("int>=0", seed, "seed")
    rng = np.random.Generator(np.random.Philox(seed))
    weights = rng.standard_normal((dim, n_components)) / sigma
    return FourierBasis(weights=weights, sigma=sigma, seed=seed)


def _check_input(x: np.ndarray, basis: FourierBasis) -> None:
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if x.shape[1] != basis.dim:
        raise ValueError(
            f"feature dimension mismatch: basis has d={basis.dim}, input has d={x.shape[1]}"
        )


def _scratch(rows: int, basis: FourierBasis) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for ``_features`` of up to ``rows`` rows: projections, features."""
    return np.empty((rows, basis.n_components)), np.empty((rows, basis.feature_dim))


def _features(x: np.ndarray, basis: FourierBasis, proj: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``feature_matrix`` of checked rows, written into ``out`` (n x 2D)
    through ``proj`` (n x D); returns ``out``."""
    np.matmul(x, basis.weights, out=proj)
    np.cos(proj, out=out[:, 0::2])
    np.sin(proj, out=out[:, 1::2])
    out *= 1.0 / np.sqrt(basis.n_components)
    return out


def feature_matrix(x: np.ndarray, basis: FourierBasis) -> np.ndarray:
    """Map rows of ``x`` (n x d) to interleaved [cos, sin] features (n x 2D)."""
    x = np.asarray(x, dtype=float)
    _check_input(x, basis)
    return _features(x, basis, *_scratch(x.shape[0], basis))


def feature_map(x: np.ndarray, basis: FourierBasis) -> np.ndarray:
    """Feature vector of a single input; unit norm by the cos^2+sin^2 identity."""
    x = np.asarray(x, dtype=float).ravel()
    return feature_matrix(x[None, :], basis)[0]


def _sweep_means(
    x: np.ndarray, basis: FourierBasis, n_halvings: int, proj: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Mean feature rows of one bag at sigma / 2^k for k = 0..n_halvings.

    ``x`` holds the bag's rows in canonical order, which makes the means
    exactly permutation-invariant. Halving sigma doubles every projection
    t, and the interleaved [cos t, sin t] pairs read as complex numbers
    e^{it} square to e^{2it} (cos 2t = cos^2 t - sin^2 t,
    sin 2t = 2 sin t cos t), so only level 0 evaluates trig. Rows go
    through in batches of ``len(proj)`` at every level, inside the scratch
    ``proj`` (rows x D) and ``f`` (rows x 2D), bounding memory for large
    bags.
    """
    _check_input(x, basis)
    n, rows = x.shape[0], proj.shape[0]
    root_d = np.sqrt(basis.n_components)
    sums = np.zeros((n_halvings + 1, basis.feature_dim))
    pairs = sums.view(complex)
    for i0 in range(0, n, rows):
        xc = x[i0 : i0 + rows]
        fc = _features(xc, basis, proj[: len(xc)], f[: len(xc)])
        sums[0] += fc.sum(axis=0)
        if n_halvings:
            fc *= root_d
            z = fc.view(complex)
            for k in range(1, n_halvings + 1):
                np.square(z, out=z)
                pairs[k] += z.sum(axis=0)
    sums[0] /= n
    sums[1:] /= n * root_d
    return sums


def bag_mean_features(bag: Bag, basis: FourierBasis) -> np.ndarray:
    """Mean feature vector of a bag; its norm is at most 1.

    Dot products between bag mean features approximate the mean-embedding
    dot products computed by the exact kernel path. It is the row of
    ``bag_feature_matrix`` on a dataset of this one bag.
    """
    return bag_feature_matrix(BagDataset((bag,), [0.0]), basis)[0]


def bag_feature_sweep(data: BagDataset, basis: FourierBasis, n_halvings: int) -> np.ndarray:
    """Bag mean-feature matrices at sigma, sigma/2, ..., sigma/2^n_halvings.

    Returns shape (n_halvings + 1, n_bags, 2D). ``sample_basis`` divides one
    Gaussian draw by sigma, so the basis at sigma/2^k has exactly 2^k times
    the weights of ``basis`` and slice k holds its features. Slice 0 is
    bit-for-bit ``bag_feature_matrix(data, basis)``; slice k comes from k
    double-angle steps instead of trig and agrees with direct evaluation to
    a few ulps times 2^k. One trig pass per bag thus serves the whole sweep.
    """
    n_halvings = _check("int>=0", n_halvings, "n_halvings")
    out = np.empty((n_halvings + 1, data.n_bags, basis.feature_dim))
    # sorted here, so that the workers call no public function: the spans of
    # perfbench/tracer.py, which wraps those, sit on one stack for all threads
    xs = [canonical_rows(bag.instances) for bag in data.bags]
    sizes = [x.shape[0] for x in xs]

    def sweep(i: int, scratch: tuple[np.ndarray, np.ndarray]) -> None:
        out[:, i] = _sweep_means(xs[i], basis, n_halvings, *scratch)

    _run_parts(sweep, sizes, lambda: _scratch(min(_ROW_CHUNK, max(sizes)), basis))
    return out


def bag_feature_matrix(data: BagDataset, basis: FourierBasis) -> np.ndarray:
    """Stack of bag mean-feature rows, shape (n_bags, 2D)."""
    return bag_feature_sweep(data, basis, 0)[0]
