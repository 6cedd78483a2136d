"""RBF kernels, bag mean-embedding Gram matrices, and maximum mean discrepancy.

The kernel throughout is the Gaussian RBF

    k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)),

so entries always lie in (0, 1]. A bag's distribution is represented by the
mean of its kernel feature maps; the dot product between two such mean
embeddings never needs the feature maps explicitly, because

    <mu_b, mu_b'> = (1 / (n_b n_b')) sum_i sum_j k(x_i^b, x_j^b').

Every such sum goes through one tile engine, ``_bag_grams`` and
``_cross_bag_grams``; ``bag_gram``, ``cross_bag_gram``,
``bag_mean_kernel_entry``, ``multisource_bag_gram`` and ``mmd_squared`` are
its one-sigma calls. Bags are taken in canonical row order, a bag of more
than TILE rows is cut into TILE-row pieces, and the pieces are packed into
chunks of at most TILE pooled rows. So no kernel block larger than TILE x TILE
is ever materialized, and one squared-distance pass per chunk pair serves
every sigma of a call (cross-validation gets all sigmas of a fold this way):
only the scaling, ``exp`` and per-bag sums run per sigma, one bag row block
at a time in a small reused buffer. A chunk paired with itself computes only
the bag blocks on and above its diagonal, which are all that the symmetric
Gram reads. These sums are bitwise those of whole-tile passes, because
``np.add.reduceat`` sums each segment independently of the others. The MMD
permutation test never holds the pooled (n+m) x (n+m) kernel matrix either:
it builds it one block of TILE rows at a time, once per batch of up to TILE
permutations, so its memory is O(TILE (n+m)). Each block's matrix-vector
products, one per split, run over cache-sized row slices of the block, split
across the package's worker threads (``DISTREG_THREADS``); the slices start
at multiples of 16 rows, so the products are bitwise those of the whole
block, whatever the worker count. Entry sums rely on numpy's
pairwise summation, which keeps the double-sum accurate enough for 1e-12
comparisons against naive loops. All functions are pure and deterministic; a
non-finite value in an input matrix or bag raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _parts, _run_parts
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

# Kernel entries in one row slice of an MMD block (1 MB): small enough to stay
# in L2 while the split products of a whole batch read it.
_SLICE = 2**17


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
    scratch buffer of the same shape: the product term, no longer needed, in
    which callers scale and exponentiate the distances."""
    d2 = np.add.outer(a_sq, b_sq)
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    np.maximum(d2, 0.0, out=d2)  # guard tiny negatives from cancellation
    return d2, ab


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
            d2, buf = _sq_distances(a[i0:i1], b[j0:j1], a_sq[i0:i1], b_sq[j0:j1])
            np.multiply(d2, -gamma, out=buf)
            out[i0:i1, j0:j1] = np.exp(buf, out=buf)
            del d2, buf  # before the next tile is allocated
    return out


@dataclass(frozen=True)
class _Chunk:
    """Consecutive bag pieces whose pooled rows fit in one tile."""

    bags: slice  # the bags the pieces belong to
    starts: np.ndarray  # first row of each piece in ``rows``
    rows: np.ndarray
    sq: np.ndarray  # squared norm of each row


def _chunks(data: BagDataset) -> list[_Chunk]:
    """The bags of ``data`` packed into chunks of at most TILE pooled rows.

    Each bag is taken in canonical row order, which makes its sums exactly
    invariant to instance order. A bag of more than TILE rows is cut into
    consecutive TILE-row pieces; every other bag is one piece. Consecutive
    pieces are packed greedily. Every piece but a bag's last fills a tile, so
    no chunk holds two pieces of one bag and its per-piece sums are per-bag.
    """
    groups, n_rows = [[]], 0
    for i, bag in enumerate(data.bags):
        rows = canonical_rows(bag.instances)
        for r in range(0, rows.shape[0], TILE):
            piece = rows[r : r + TILE]
            if n_rows + piece.shape[0] > TILE:
                groups.append([])
                n_rows = 0
            groups[-1].append((i, piece))
            n_rows += piece.shape[0]
    chunks = []
    for group in groups:
        rows = np.concatenate([piece for _, piece in group], axis=0)
        chunks.append(_Chunk(
            bags=slice(group[0][0], group[-1][0] + 1),
            starts=np.cumsum([0] + [piece.shape[0] for _, piece in group[:-1]]),
            rows=rows,
            sq=np.einsum("ij,ij->i", rows, rows),
        ))
    return chunks


def _block_sums(ca: _Chunk, cb: _Chunk, gammas: Sequence[float]):
    """Per-bag-pair kernel sums between two chunks, one matrix per gamma, from
    one distance pass.

    Scaling, ``exp`` and the row sum run one bag row block at a time in a
    small reused buffer. On a diagonal chunk pair only the bag blocks on and
    above the diagonal are computed; the rest of each matrix stays zero.
    """
    # numpy sends a @ a.T on one array to syrk, which rounds differently from
    # the gemm of every other chunk pair
    b_rows = cb.rows.copy() if cb is ca else cb.rows
    d2, buf = _sq_distances(ca.rows, b_rows, ca.sq, cb.sq)
    ends = np.append(ca.starts[1:], ca.rows.shape[0])
    col_sums = np.zeros((len(gammas), len(ca.starts), cb.rows.shape[0]))
    for i, (r0, r1) in enumerate(zip(ca.starts, ends)):
        c0 = cb.starts[i] if cb is ca else 0
        block = d2[r0:r1, c0:]
        scratch = buf.reshape(-1)[: block.size].reshape(block.shape)
        for g, gamma in enumerate(gammas):
            np.multiply(block, -gamma, out=scratch)
            np.exp(scratch, out=scratch)
            # a one-segment reduceat rounds as the whole-tile one does;
            # sum(axis=0) does not
            col_sums[g, i, c0:] = np.add.reduceat(scratch, [0], axis=0)
    for sums in col_sums:
        yield np.add.reduceat(sums, cb.starts, axis=1)


def _bag_sizes(data: BagDataset) -> np.ndarray:
    return np.array([b.n_instances for b in data.bags], dtype=float)


def _bag_grams(data: BagDataset, gammas: Sequence[float]) -> list[np.ndarray]:
    """Bag Gram values of ``data`` at each gamma, from one distance pass per
    chunk pair."""
    chunks = _chunks(data)
    sums = np.zeros((len(gammas), len(data.bags), len(data.bags)))
    for ia, ca in enumerate(chunks):
        for cb in chunks[ia:]:
            for total, block in zip(sums, _block_sums(ca, cb, gammas)):
                total[ca.bags, cb.bags] += block
                if cb is not ca:
                    total[cb.bags, ca.bags] += block.T
    scale = np.outer(_bag_sizes(data), _bag_sizes(data))
    # the upper triangle holds every sum (a diagonal chunk pair leaves its
    # lower bag blocks zero); mirror it for exact symmetry
    return [(np.triu(total) + np.triu(total, 1).T) / scale for total in sums]


def _cross_bag_grams(
    test: BagDataset, train: BagDataset, gammas: Sequence[float]
) -> list[np.ndarray]:
    """Cross bag Gram values of ``test`` against ``train`` at each gamma, from
    one distance pass per chunk pair."""
    if test.dim != train.dim:
        raise ValueError(
            f"feature dimension mismatch: test d={test.dim}, train d={train.dim}"
        )
    chunks_b = _chunks(train)
    sums = np.zeros((len(gammas), len(test.bags), len(train.bags)))
    for ca in _chunks(test):
        for cb in chunks_b:
            for total, block in zip(sums, _block_sums(ca, cb, gammas)):
                total[ca.bags, cb.bags] += block
    scale = np.outer(_bag_sizes(test), _bag_sizes(train))
    return [total / scale for total in sums]


def _one_bag(bag: Bag) -> BagDataset:
    return BagDataset((bag,), [0.0])


def bag_mean_kernel_entry(bag_b: Bag, bag_bp: Bag, params: RbfParams) -> float:
    """Mean-embedding dot product between two bags.

    Returns (1 / (n_b n_b')) sum_i sum_j k(x_i, x_j').
    """
    (entry,) = _cross_bag_grams(_one_bag(bag_b), _one_bag(bag_bp), (params.gamma,))
    return float(entry[0, 0])


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
    return BagGram(sum(_bag_grams(src, (p.gamma,))[0] for src, p in zip(data.sources, params)))


def mmd_squared(
    sample_x: np.ndarray, sample_y: np.ndarray, params: RbfParams
) -> float:
    """Squared maximum mean discrepancy between two samples (biased V-statistic).

    Computes ||mu_x - mu_y||^2 in the kernel feature space as
    Kxx_mean + Kyy_mean - 2 Kxy_mean over all instance pairs, including
    diagonal terms. Tiny negative round-off (within -1e-12) is clamped to 0.
    Rows are summed in canonical order, so the value is exactly invariant to
    the row order of either sample, and ``mmd_squared(x, x)`` is exactly 0.
    """
    x = _check_matrix(sample_x, "sample_x")
    y = _check_matrix(sample_y, "sample_y")
    _check_same_dim(x, y)
    x, y = _one_bag(Bag("sample_x", x)), _one_bag(Bag("sample_y", y))
    (kxx,), (kyy,), (kxy,) = (
        _cross_bag_grams(a, b, (params.gamma,)) for a, b in ((x, x), (y, y), (x, y))
    )
    value = float(kxx[0, 0] + kyy[0, 0] - 2.0 * kxy[0, 0])
    return 0.0 if -1e-12 <= value < 0.0 else value


@dataclass(frozen=True)
class MmdTestResult:
    """Permutation two-sample test summary."""

    statistic: float
    p_value: float
    null_q95: float
    null_q99: float
    n_permutations: int


def _row_slices(rows: int, cols: int) -> list[tuple[int, int]]:
    """Row slices [r0, r1) of a rows x cols kernel block, of about ``_SLICE``
    entries each, whose matrix-vector products are bitwise those of the
    whole block.

    OpenBLAS's dgemv_t takes rows in groups of 4 from the start of its matrix
    and rounds a pair of rows left over at its end differently from a group
    (measured, OpenBLAS 0.3.31). So every slice but the last is a multiple of
    16 rows, and the last ends where the block does; a one-row last slice,
    which numpy computes as a dot product instead, joins the one before it.
    Up to 460800 entries OpenBLAS uses one thread, so the slices give the
    one-thread product of the block, which is also the block's own product
    at any BLAS thread count that cuts it at multiples of 4 rows.
    """
    height = max(16, _SLICE // cols // 16 * 16)
    cuts = list(range(height, rows, height))
    if cuts and rows - cuts[-1] == 1:
        cuts.pop()
    return list(zip([0, *cuts], [*cuts, rows]))


def _split_products(block: np.ndarray, ax: np.ndarray, gx: np.ndarray) -> None:
    """``gx[s] = block @ ax[s]`` for every split s, bitwise, one row slice at
    a time: each slice serves every split while it is in cache. Contiguous
    runs of slices go to the worker pool; ``np.dot`` releases the
    interpreter lock (``@`` does not at these sizes). One product per split
    and slice: a batched one rounds differently."""
    slices = _row_slices(*block.shape)

    def products(lo: int, hi: int) -> None:
        for r0, r1 in slices[lo:hi]:
            part = block[r0:r1]
            for a, g in zip(ax, gx):
                np.dot(part, a, out=g[r0:r1])

    _run_parts(products, _parts([r1 - r0 for r0, r1 in slices]))


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
    The products read the block in row slices of about 1 MB, each used by
    every split while it is in cache, and the slices are shared out among the
    worker threads; the result is bitwise that of whole-block products at one
    BLAS thread, whatever the worker count. Memory is O(TILE (n+m)) whatever
    P is, and time is
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
            _split_products(block, ax, gx[:, i0:i1])
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
    Memory is 8 k^2 bytes for the k points used: their k x k inner-product
    matrix, whose buffer then holds the k (k-1) / 2 squared distances of its
    upper triangle, which the median partitions in place.
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
    # Row i's upper distances go to the flat buffer's front, compacted: they
    # end no later than row i does, so only rows already read are overwritten.
    flat = gram.reshape(-1)
    start = 0
    for i in range(k - 1):
        stop = start + k - 1 - i
        flat[start:stop] = sq[i] + sq[i + 1 :] - 2.0 * gram[i, i + 1 :]
        start = stop
    upper = flat[:start]
    np.maximum(upper, 0.0, out=upper)
    med = float(np.sqrt(np.median(upper, overwrite_input=True)))
    return med if med > 0 else 1.0


def median_heuristic_bags(data: BagDataset, max_points: int = 2000, seed: int = 0) -> float:
    """Median heuristic over all instances pooled across a dataset's bags."""
    return median_heuristic(pooled_instances(data), max_points=max_points, seed=seed)
