"""RBF kernels, bag mean-embedding Gram matrices, and maximum mean discrepancy.

The kernel throughout is the Gaussian RBF

    k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)),

so entries always lie in (0, 1]. A bag's distribution is represented by the
mean of its kernel feature maps; the dot product between two such mean
embeddings never needs the feature maps explicitly, because

    <mu_b, mu_b'> = (1 / (n_b n_b')) sum_i sum_j k(x_i^b, x_j^b').

Gram assembly is blocked: no kernel block larger than TILE x TILE is ever
materialized, so bags with thousands of instances stay within a fixed memory
budget. Each tile's squared distances are computed once and serve every
sigma asked for in the same call (the private ``_bag_grams`` and
``_cross_bag_grams``, which cross-validation uses to get all sigmas of a fold
in one pass); only the scaling, ``exp`` and per-bag sums run per sigma.
``bag_gram`` and ``cross_bag_gram`` are their one-sigma case. The MMD
permutation test never holds the pooled (n+m) x (n+m) kernel matrix either:
it builds it one block of TILE rows at a time, once per batch of up to TILE
permutations, so its memory is O(TILE (n+m)). Entry sums rely
on numpy's pairwise summation, which keeps the double-sum accurate enough for
1e-12 comparisons against naive loops. All functions are pure and
deterministic; a non-finite value in an input matrix or bag raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Bag, BagDataset, MultiSourceDataset, canonical_rows, pooled_instances

__all__ = [
    "BagGram",
    "MmdTestResult",
    "RbfParams",
    "bag_gram",
    "bag_mean_kernel_entry",
    "cross_bag_gram",
    "cross_gram",
    "median_heuristic",
    "median_heuristic_bags",
    "mmd_permutation_test",
    "mmd_squared",
    "multisource_bag_gram",
    "rbf_kernel",
]

# Max rows/cols of any materialized kernel block.
TILE = 1024


@dataclass(frozen=True)
class RbfParams:
    """Gaussian RBF length-scale; k(x, x') = exp(-||x - x'||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self) -> None:
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not 2.0 * sigma * sigma > 1.0 / np.finfo(float).max:
            raise ValueError(f"sigma {sigma!r} is too small: 1 / (2 sigma^2) overflows")
        object.__setattr__(self, "sigma", sigma)

    @property
    def gamma(self) -> float:
        """Exponential coefficient: gamma = 1 / (2 sigma^2)."""
        return 1.0 / (2.0 * self.sigma * self.sigma)


@dataclass(frozen=True)
class BagGram:
    """Symmetric matrix of mean-embedding dot products between bags."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"bag Gram must be square, got shape {v.shape}")
        asym = float(np.max(np.abs(v - v.T))) if v.size else 0.0
        if asym > 1e-12:
            raise ValueError(f"bag Gram is not symmetric (max asymmetry {asym:g})")
        object.__setattr__(self, "values", v)

    @property
    def n_bags(self) -> int:
        return self.values.shape[0]


def _check_matrix(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D matrix, got shape {x.shape}")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{name} holds a non-finite value {float(x[i, j])!r} at row {i}, column {j}")
    return x


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )


def rbf_kernel(x: np.ndarray, x_prime: np.ndarray, params: RbfParams) -> float:
    """Kernel value for a single pair of vectors."""
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape != x_prime.shape:
        raise ValueError(f"vector length mismatch: {x.shape[0]} vs {x_prime.shape[0]}")
    diff = x - x_prime
    return float(np.exp(-params.gamma * np.dot(diff, diff)))


def _sq_distances(
    a: np.ndarray, b: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances between two row sets, via the expanded form, plus a
    scratch buffer of the same shape (the product term, no longer needed)."""
    d2 = np.add.outer(a_sq, b_sq)
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    np.maximum(d2, 0.0, out=d2)  # guard tiny negatives from cancellation
    return d2, ab


def _kernel_tiles(
    a: np.ndarray, b: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray, gammas: Sequence[float]
):
    """Kernel block for two row sets at each gamma in turn, from one distance
    pass. Every block is yielded in the same buffer, which the next one
    overwrites."""
    d2, buf = _sq_distances(a, b, a_sq, b_sq)
    for gamma in gammas:
        np.multiply(d2, -gamma, out=buf)
        yield np.exp(buf, out=buf)


def cross_gram(a: np.ndarray, b: np.ndarray, params: RbfParams) -> np.ndarray:
    """Full kernel matrix between the rows of ``a`` (n x d) and ``b`` (m x d)."""
    a = _check_matrix(a, "a")
    b = _check_matrix(b, "b")
    _check_same_dim(a, b)
    gamma = params.gamma
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i0 in range(0, a.shape[0], TILE):
        i1 = min(i0 + TILE, a.shape[0])
        for j0 in range(0, b.shape[0], TILE):
            j1 = min(j0 + TILE, b.shape[0])
            (out[i0:i1, j0:j1],) = _kernel_tiles(
                a[i0:i1], b[j0:j1], a_sq[i0:i1], b_sq[j0:j1], (gamma,)
            )
    return out


def _pair_sum(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """Sum of k(a_i, b_j) over all row pairs, streamed one tile at a time."""
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    parts = []
    for i0 in range(0, a.shape[0], TILE):
        i1 = min(i0 + TILE, a.shape[0])
        for j0 in range(0, b.shape[0], TILE):
            j1 = min(j0 + TILE, b.shape[0])
            (tile,) = _kernel_tiles(a[i0:i1], b[j0:j1], a_sq[i0:i1], b_sq[j0:j1], (gamma,))
            parts.append(tile.sum())
    return float(np.sum(parts))


def bag_mean_kernel_entry(bag_b: Bag, bag_bp: Bag, params: RbfParams) -> float:
    """Mean-embedding dot product between two bags.

    Returns (1 / (n_b n_b')) sum_i sum_j k(x_i, x_j').
    """
    if bag_b.dim != bag_bp.dim:
        raise ValueError(
            f"feature dimension mismatch: {bag_b.dim} vs {bag_bp.dim}"
        )
    total = _pair_sum(
        canonical_rows(bag_b.instances), canonical_rows(bag_bp.instances), params.gamma
    )
    return total / (bag_b.n_instances * bag_bp.n_instances)


def _sorted_instances(data: BagDataset) -> list[np.ndarray]:
    # Canonical row order makes bag sums exactly permutation-invariant.
    return [canonical_rows(b.instances) for b in data.bags]


def _chunk_arrays(arrays: Sequence[np.ndarray]) -> list[tuple[int, int, bool]]:
    """Group consecutive bags into chunks of pooled rows <= TILE.

    Returns (first bag index, one-past-last bag index, oversized) triples.
    A single bag larger than TILE forms its own oversized chunk and is later
    handled by the streaming pair-sum path.
    """
    chunks = []
    start = 0
    rows = 0
    for i, arr in enumerate(arrays):
        n = arr.shape[0]
        if n > TILE:
            if rows > 0:
                chunks.append((start, i, False))
            chunks.append((i, i + 1, True))
            start, rows = i + 1, 0
        elif rows + n > TILE:
            chunks.append((start, i, False))
            start, rows = i, n
        else:
            rows += n
    if rows > 0:
        chunks.append((start, len(arrays), False))
    return chunks


def _chunk_block_sums(
    arrays_a: Sequence[np.ndarray],
    arrays_b: Sequence[np.ndarray],
    ca: tuple[int, int, bool],
    cb: tuple[int, int, bool],
    gammas: Sequence[float],
) -> list[np.ndarray]:
    """Matrices of per-bag-pair kernel sums for one chunk pair, one per gamma.

    The pooled rows of both chunks go through one squared-distance pass that
    every gamma reuses; an oversized bag is streamed pair by pair, per gamma.
    """
    a0, a1, big_a = ca
    b0, b1, big_b = cb
    if big_a or big_b:
        out = np.empty((len(gammas), a1 - a0, b1 - b0))
        for s, gamma in enumerate(gammas):
            for i in range(a0, a1):
                for j in range(b0, b1):
                    out[s, i - a0, j - b0] = _pair_sum(arrays_a[i], arrays_b[j], gamma)
        return list(out)
    xa = np.concatenate(arrays_a[a0:a1], axis=0)
    xb = np.concatenate(arrays_b[b0:b1], axis=0)
    starts_a = np.cumsum([0] + [arr.shape[0] for arr in arrays_a[a0 : a1 - 1]])
    starts_b = np.cumsum([0] + [arr.shape[0] for arr in arrays_b[b0 : b1 - 1]])
    a_sq = np.einsum("ij,ij->i", xa, xa)
    b_sq = np.einsum("ij,ij->i", xb, xb)
    return [
        np.add.reduceat(np.add.reduceat(tile, starts_a, axis=0), starts_b, axis=1)
        for tile in _kernel_tiles(xa, xb, a_sq, b_sq, gammas)
    ]


def _bag_grams(data: BagDataset, gammas: Sequence[float]) -> list[np.ndarray]:
    """Bag Gram values of ``data`` at each gamma, from one distance pass per
    chunk pair."""
    arrays = _sorted_instances(data)
    counts = np.array([arr.shape[0] for arr in arrays], dtype=float)
    sums = np.empty((len(gammas), len(arrays), len(arrays)))
    chunks = _chunk_arrays(arrays)
    for ia, ca in enumerate(chunks):
        for cb in chunks[ia:]:
            blocks = _chunk_block_sums(arrays, arrays, ca, cb, gammas)
            for total, block in zip(sums, blocks):
                if ca is cb:
                    # canonicalize on the upper triangle for exact symmetry
                    block = np.triu(block) + np.triu(block, 1).T
                    total[ca[0] : ca[1], ca[0] : ca[1]] = block
                else:
                    total[ca[0] : ca[1], cb[0] : cb[1]] = block
                    total[cb[0] : cb[1], ca[0] : ca[1]] = block.T
    scale = np.outer(counts, counts)
    return [total / scale for total in sums]


def _cross_bag_grams(
    test: BagDataset, train: BagDataset, gammas: Sequence[float]
) -> list[np.ndarray]:
    """Cross bag Gram values of ``test`` against ``train`` at each gamma, from
    one distance pass per chunk pair."""
    if test.dim != train.dim:
        raise ValueError(
            f"feature dimension mismatch: test d={test.dim}, train d={train.dim}"
        )
    arrays_a, arrays_b = _sorted_instances(test), _sorted_instances(train)
    sums = np.empty((len(gammas), len(arrays_a), len(arrays_b)))
    for ca in _chunk_arrays(arrays_a):
        for cb in _chunk_arrays(arrays_b):
            blocks = _chunk_block_sums(arrays_a, arrays_b, ca, cb, gammas)
            sums[:, ca[0] : ca[1], cb[0] : cb[1]] = blocks
    m = np.array([b.n_instances for b in test.bags], dtype=float)
    n = np.array([b.n_instances for b in train.bags], dtype=float)
    scale = np.outer(m, n)
    return [total / scale for total in sums]


def bag_gram(data: BagDataset, params: RbfParams) -> BagGram:
    """B x B matrix of mean-embedding dot products between all bag pairs.

    Exactly symmetric by construction (the upper triangle is computed and
    mirrored), with entries in (0, 1] and positive semidefinite up to
    round-off.
    """
    return BagGram(_bag_grams(data, (params.gamma,))[0])


def cross_bag_gram(
    test: BagDataset, train: BagDataset, params: RbfParams
) -> np.ndarray:
    """Mean-embedding dot products between every test bag and every train bag.

    Entry (t, b) is (1 / (m_t n_b)) sum_l sum_i k(x_l^t, x_i^b); predictions of
    a dual model are this matrix times its coefficient vector.
    """
    return _cross_bag_grams(test, train, (params.gamma,))[0]


def multisource_bag_gram(
    data: MultiSourceDataset, params: Sequence[RbfParams]
) -> BagGram:
    """Sum of per-source bag Gram matrices (direct-sum composite kernel)."""
    if len(params) != data.n_sources:
        raise ValueError(
            f"need one RbfParams per source: got {len(params)} for "
            f"{data.n_sources} sources"
        )
    total = bag_gram(data.sources[0], params[0]).values.copy()
    for src, p in zip(data.sources[1:], params[1:]):
        total += bag_gram(src, p).values
    return BagGram(total)


def mmd_squared(
    sample_x: np.ndarray, sample_y: np.ndarray, params: RbfParams
) -> float:
    """Squared maximum mean discrepancy between two samples (biased V-statistic).

    Computes ||mu_x - mu_y||^2 in the kernel feature space as
    Kxx_mean + Kyy_mean - 2 Kxy_mean over all instance pairs, including
    diagonal terms. Tiny negative round-off (within -1e-12) is clamped to 0.
    """
    x = _check_matrix(sample_x, "sample_x")
    y = _check_matrix(sample_y, "sample_y")
    _check_same_dim(x, y)
    gamma = params.gamma
    n, m = x.shape[0], y.shape[0]
    kxx = _pair_sum(x, x, gamma) / (n * n)
    kyy = _pair_sum(y, y, gamma) / (m * m)
    kxy = _pair_sum(x, y, gamma) / (n * m)
    value = kxx + kyy - 2.0 * kxy
    if -1e-12 <= value < 0.0:
        return 0.0
    return value


@dataclass(frozen=True)
class MmdTestResult:
    """Permutation two-sample test summary."""

    statistic: float
    p_value: float
    null_q95: float
    null_q99: float
    n_permutations: int


def mmd_permutation_test(
    sample_x: np.ndarray,
    sample_y: np.ndarray,
    params: RbfParams,
    n_permutations: int = 200,
    seed: int = 0,
) -> MmdTestResult:
    """Two-sample test: compare the observed MMD^2 against a permutation null.

    The pooled (n+m) x (n+m) kernel matrix is never held whole. The observed
    split and the permutations are taken in batches of up to TILE; for each
    batch, the pooled rows are swept in blocks of TILE rows, and each block of
    the kernel matrix serves one matrix-vector product per split of the batch.
    Memory is O(TILE (n+m)) whatever P is, and time is
    O((n+m)^2 (d ceil((P+1) / TILE) + P)). The p-value uses the standard
    add-one convention (1 + #{null >= observed}) / (1 + P).
    """
    x = _check_matrix(sample_x, "sample_x")
    y = _check_matrix(sample_y, "sample_y")
    _check_same_dim(x, y)
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    n, m = x.shape[0], y.shape[0]
    pooled = np.concatenate([x, y], axis=0)
    rng = np.random.default_rng(seed)
    row_sums = np.empty(n + m)  # filled by the first batch's sweep
    # split 0 is the observed one, split s > 0 the s-th permutation
    stats = np.empty(n_permutations + 1)
    for s0 in range(0, n_permutations + 1, TILE):
        s1 = min(s0 + TILE, n_permutations + 1)
        ax = np.zeros((s1 - s0, n + m))  # 0/1 membership in sample x, one row per split
        for s in range(s0, s1):
            ax[s - s0, rng.permutation(n + m)[:n] if s else slice(0, n)] = 1.0
        gx = np.empty_like(ax)
        for i0 in range(0, n + m, TILE):
            i1 = min(i0 + TILE, n + m)
            block = cross_gram(pooled[i0:i1], pooled, params)
            if s0 == 0:
                row_sums[i0:i1] = block.sum(axis=1)
            # one product per split: a batched one rounds differently
            for a, g in zip(ax, gx):
                g[i0:i1] = block @ a
            del block  # before the next block is allocated
        total = float(row_sums.sum())
        for s, (a, g) in enumerate(zip(ax, gx), start=s0):
            sxx = float(a @ g)
            sxy = float(a @ row_sums) - sxx
            syy = total - sxx - 2.0 * sxy
            value = sxx / (n * n) + syy / (m * m) - 2.0 * sxy / (n * m)
            stats[s] = 0.0 if -1e-12 <= value < 0.0 else value
        del ax, gx  # before the next batch is allocated

    observed, null = float(stats[0]), stats[1:]
    p_value = (1.0 + float(np.sum(null >= observed))) / (1.0 + n_permutations)
    return MmdTestResult(
        statistic=observed,
        p_value=p_value,
        null_q95=float(np.percentile(null, 95)),
        null_q99=float(np.percentile(null, 99)),
        n_permutations=n_permutations,
    )


def median_heuristic(
    instances: np.ndarray, max_points: int = 2000, seed: int = 0
) -> float:
    """Median pairwise distance over (a subsample of) the given instances.

    The usual default length-scale for the RBF kernel. Falls back to 1.0 when
    the median is zero (all points identical) or undefined (a single point).
    Memory is O(max_points^2): the k x k inner-product matrix of the k points
    used, and the k (k-1) / 2 squared distances of its upper triangle, which
    the median then partitions in place.
    """
    x = _check_matrix(instances, "instances")
    if x.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(x.shape[0], max_points, replace=False)
        x = x[np.sort(idx)]
    k = x.shape[0]
    if k < 2:
        return 1.0
    sq = np.einsum("ij,ij->i", x, x)
    gram = x @ x.T  # one symmetric product; row blocks of it would round differently
    upper = np.empty(k * (k - 1) // 2)
    start = 0
    for i in range(k - 1):
        stop = start + k - 1 - i
        upper[start:stop] = sq[i] + sq[i + 1 :] - 2.0 * gram[i, i + 1 :]
        start = stop
    del gram
    np.maximum(upper, 0.0, out=upper)
    med = float(np.sqrt(np.median(upper, overwrite_input=True)))
    return med if med > 0 else 1.0


def median_heuristic_bags(data: BagDataset, max_points: int = 2000, seed: int = 0) -> float:
    """Median heuristic over all instances pooled across a dataset's bags."""
    return median_heuristic(pooled_instances(data), max_points=max_points, seed=seed)
