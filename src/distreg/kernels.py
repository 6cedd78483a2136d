"""RBF kernels, bag mean-embedding Gram matrices, and maximum mean discrepancy.

The kernel throughout is the Gaussian RBF

    k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)),

so entries always lie in (0, 1]. A bag's distribution is represented by the
mean of its kernel feature maps; the dot product between two such mean
embeddings never needs the feature maps explicitly, because

    <mu_b, mu_b'> = (1 / (n_b n_b')) sum_i sum_j k(x_i^b, x_j^b').

Every such sum goes through one tile engine, ``_grams``, which takes a
list of Gram jobs; ``bag_gram``, ``cross_bag_gram``, ``bag_mean_kernel_entry``,
``multisource_bag_gram`` and ``mmd_squared`` are its one-sigma calls, and a
batch of model states gets every source's Gram and cross Gram from one call.
Bags are taken in canonical row order, a bag of more than TILE rows is cut
into TILE-row pieces, and the pieces are packed into chunks of at most TILE
pooled rows. So no kernel block larger than TILE x TILE is ever
materialized, and one squared-distance pass per chunk pair serves every
sigma of a job (cross-validation gets all sigmas of a fold this way): only
the scaling, ``exp`` and per-bag sums run per sigma.

Every pair of chunk groups of every job is one item of one queue of
``_run_parts``, which runs them on the calling thread and the threads it
starts (at most ``DISTREG_THREADS``), largest first. A chunk group
is a run of consecutive chunks joined by a bag cut across them, and any
other chunk is a group of its own, so where no bag is cut an item is one
chunk pair. The thread that pulls an item takes its chunk pairs in
chunk-pair order. Each computes its row products in one gemm, into the
thread's product tile; then its bag row blocks, in runs of consecutive
blocks of about 1 MB of entries, one run after the other: each builds its
squared distances in the thread's distance band, then scales,
exponentiates and sums them at each sigma in its rows of the product tile,
whose products it has used up, and adds its per-bag sums straight into the
outputs. A chunk paired with itself computes only the bag blocks on and
above its diagonal, which are all that the symmetric Gram reads (there each
block is a run of its own); the upper triangle is then mirrored in place.
No two items add into one output entry. So a call holds its S x B x B'
outputs plus one product tile and one band per thread, sized by the largest
chunk pair, whatever the sigma count S and the job count, and its sums are
bitwise those of whole-tile passes in chunk-pair order at every worker
count: the gemm keeps its shape, the rest is elementwise, and
``np.add.reduceat`` sums each segment independently of the others. The
price is that the chunk pairs of one item never run at once: a single
entry of two large bags runs on one thread, which is why ``mmd_squared``
queues its three entries together.

``cross_gram`` and the MMD permutation test build kernel values a block of
TILE rows at a time in one function, ``_kernel_rows``, on the worker
threads; for the MMD test, each cache-sized row slice also serves one
matrix-vector product per split, so that test never holds the pooled
(n+m) x (n+m) kernel matrix. One step, ``_sq_distances``, turns row products
into squared distances there, in the engine and in ``median_heuristic``;
each forms its own products (syrk or gemm), which set its bits. The median
heuristic builds its distances inside its product's own buffer and selects
the median in one partition, bitwise ``np.median``. Entry sums rely on
numpy's pairwise summation, which keeps the double-sum accurate enough for
1e-12 comparisons against naive loops. All functions are pure and
deterministic; a non-finite value in an input matrix or bag raises, and so
do rows whose squared distances overflow, on every path. A kernel value
whose exponent overflows to -inf (a tiny sigma against ordinary distances)
is exp(-inf) = 0, without a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _run_parts
from .data import Bag, BagDataset, MultiSourceDataset, _check, canonical_rows, pooled_instances

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

# Kernel entries in one row slice of a block (1 MB): small enough to stay in
# L2 while the split products of an MMD batch, or the sigmas of a bag Gram,
# read it.
_SLICE = 2**17


def _length_scale(value, name: str) -> float:
    """``value`` as a sigma (``_check`` domain ``real>0``) whose
    1 / (2 sigma^2) is finite; ValueError naming ``name`` otherwise."""
    sigma = _check("real>0", value, name)
    if not 2.0 * sigma * sigma > 1.0 / np.finfo(float).max:
        raise ValueError(f"{name} {sigma!r} is too small: 1 / (2 sigma^2) overflows")
    return sigma


@dataclass(frozen=True)
class RbfParams:
    """Gaussian RBF length-scale; k(x, x') = exp(-||x - x'||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _length_scale(self.sigma, "sigma"))

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


def _check_pair(a: np.ndarray, b: np.ndarray, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Two matrices, each checked by ``_check_matrix``, of the same width."""
    a, b = _check_matrix(a, names[0]), _check_matrix(b, names[1])
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


def _row_norms(x: np.ndarray, name: str) -> np.ndarray:
    """Squared norms of the rows of ``x``. Raises ValueError where a squared
    distance between two rows could overflow: it is at most twice the sum of
    their squared norms, so four times the largest must be finite."""
    sq = np.einsum("ij,ij->i", x, x)
    if not sq.max() <= np.finfo(float).max / 4:
        raise ValueError(
            f"{name} are too large: their squared distances overflow "
            f"(largest squared row norm {float(sq.max())!r})"
        )
    return sq


def rbf_kernel(x: np.ndarray, x_prime: np.ndarray, params: RbfParams) -> float:
    """Kernel value for a single pair of vectors."""
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape != x_prime.shape:
        raise ValueError(f"vector length mismatch: {x.shape[0]} vs {x_prime.shape[0]}")
    pair = _check_matrix(np.stack([x, x_prime]), "the pair x, x_prime")
    _row_norms(pair, "x and x_prime")
    diff = x - x_prime
    with np.errstate(over="ignore"):  # -inf, whose exp is 0
        return float(np.exp(-params.gamma * np.dot(diff, diff)))


def _sq_distances(a_sq: np.ndarray, b_sq: np.ndarray, ab: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances ``a_sq[i] + b_sq[j] - 2 ab[i, j]`` of two row sets,
    clamped at 0, into ``out``, which must not overlap the row products
    ``ab`` (doubled in place). The norm sum is copied, then added:
    ``np.add.outer`` with ``out`` buffers, which is slower and takes memory."""
    out[...] = a_sq[:, None]
    out += b_sq
    ab *= 2.0
    out -= ab
    np.maximum(out, 0.0, out=out)  # guard tiny negatives from cancellation
    return out


def cross_gram(a: np.ndarray, b: np.ndarray, params: RbfParams) -> np.ndarray:
    """Full kernel matrix between the rows of ``a`` (n x d) and ``b`` (m x d),
    built a block of TILE rows at a time (``_kernel_rows``)."""
    a, b = _check_pair(a, b, ("a", "b"))
    a_sq, b_sq = _row_norms(a, "the rows of a"), _row_norms(b, "the rows of b")
    out = np.empty((a.shape[0], b.shape[0]))
    for i0 in range(0, a.shape[0], TILE):
        _kernel_rows(out[i0 : i0 + TILE], a[i0 : i0 + TILE], b, a_sq[i0 : i0 + TILE], b_sq, params.gamma)
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
            sq=_row_norms(rows, "instances"),
        ))
    return chunks


def _chunk_groups(chunks: list[_Chunk]) -> list[range]:
    """The runs of consecutive chunks joined by a bag cut across them; a
    chunk with no cut bag is a group of its own. No two groups share a bag."""
    firsts = [k for k, c in enumerate(chunks) if k == 0 or c.bags.start != chunks[k - 1].bags.stop - 1]
    return [range(k, end) for k, end in zip(firsts, firsts[1:] + [len(chunks)])]


def _pair_product(ca: _Chunk, cb: _Chunk, tile: np.ndarray) -> np.ndarray:
    """``ca.rows @ cb.rows.T`` from one gemm, in the front of the flat
    ``tile``."""
    # numpy sends a @ a.T on one array to syrk, which rounds differently from
    # the gemm of every other chunk pair
    b_rows = cb.rows.copy() if cb is ca else cb.rows
    shape = (ca.rows.shape[0], cb.rows.shape[0])
    return np.matmul(ca.rows, b_rows.T, out=tile[: shape[0] * shape[1]].reshape(shape))


def _band(tile: np.ndarray, r0: int, r1: int, cols: int) -> np.ndarray:
    """A contiguous (r1 - r0) x cols array in rows [r0, r1) of a C-contiguous
    tile at least ``cols`` wide."""
    return tile[r0:r1].reshape(-1)[: (r1 - r0) * cols].reshape(r1 - r0, cols)


def _run_limit() -> int:
    """Entries of a run of bag row blocks: ``_SLICE``, and at most an eighth
    of a tile, so a thread's distance band adds at most that to its product
    tile (the two agree at the default TILE)."""
    return min(_SLICE, TILE * TILE // 8)


def _runs(ca: _Chunk, cb: _Chunk, diagonal: bool) -> list[tuple[int, int, int]]:
    """The runs of bag row blocks of a chunk pair: (lo, hi, j0) for the row
    blocks [lo, hi) against the bag columns from j0 on, of at most
    ``_run_limit()`` entries or one block. On a ``diagonal`` pair, a chunk
    paired with itself in a symmetric Gram, each block from the diagonal on
    is a run of its own."""
    width, limit = cb.rows.shape[0], _run_limit()
    ends = np.append(ca.starts[1:], ca.rows.shape[0])
    runs, lo = [], 0
    for hi in range(1, len(ends) + 1):
        if diagonal or hi == len(ends) or (ends[hi] - ca.starts[lo]) * width > limit:
            runs.append((lo, hi, lo if diagonal else 0))
            lo = hi
    return runs


def _add_pair_sums(
    out: np.ndarray, ca: _Chunk, cb: _Chunk, gammas: Sequence[float], diagonal: bool, mirror: bool,
    tile: np.ndarray, band: np.ndarray,
) -> None:
    """Add the per-bag-pair kernel sums between two chunks into
    ``out[g, ca.bags, cb.bags]`` for each gamma g, from one distance pass:
    the gemm into ``tile``, then the pair's ``_runs`` in turn, each building
    its squared distances in ``band`` and scaling, exponentiating and
    summing them in its rows of the tile, whose products it has used up.

    ``mirror`` marks an off-diagonal chunk pair of a symmetric Gram: a bag
    cut across both chunks adds its cross-piece sum to its diagonal entry
    twice, once for each orientation.
    """
    prod = _pair_product(ca, cb, tile)
    width = prod.shape[1]
    ends = np.append(ca.starts[1:], ca.rows.shape[0])
    # numpy's error state is per thread, so each item sets its own: a
    # distance times -gamma may overflow to -inf, whose exp is 0
    with np.errstate(over="ignore"):
        for lo, hi, j0 in _runs(ca, cb, diagonal):
            r0, r1, c0 = ca.starts[lo], ends[hi - 1], cb.starts[j0]
            d2 = band[: (r1 - r0) * (width - c0)].reshape(r1 - r0, width - c0)
            d2 = _sq_distances(ca.sq[r0:r1], cb.sq[c0:], prod[r0:r1, c0:], d2)
            scratch = _band(prod, r0, r1, width - c0)  # its products are used up
            rows = slice(ca.bags.start + lo, ca.bags.start + hi)
            own = out[:, rows, cb.bags.start + j0 : cb.bags.stop]
            corner = mirror and rows.stop - 1 == cb.bags.start
            for g, gamma in enumerate(gammas):
                np.multiply(d2, -gamma, out=scratch)
                np.exp(scratch, out=scratch)
                # reduceat sums each segment on its own, so a run gets the
                # bits of a whole tile; sum(axis=0) would round differently
                block = np.add.reduceat(scratch, ca.starts[lo:hi] - r0, axis=0)
                block = np.add.reduceat(block, cb.starts[j0:] - c0, axis=1)
                own[g] += block
                if corner:
                    own[g, -1, 0] += block[-1, 0]


def _bag_sizes(data: BagDataset) -> np.ndarray:
    return np.array([b.n_instances for b in data.bags], dtype=float)


def _chunk_pairs(group_a: range, group_b: range, symmetric: bool):
    """The chunk pairs (ia, ib) of a pair of chunk groups, in chunk-pair
    order; in a symmetric Gram only those with ib >= ia."""
    for ia in group_a:
        yield from ((ia, ib) for ib in range(max(ia, group_b.start) if symmetric else group_b.start, group_b.stop))


def _grams(jobs: Sequence[tuple[BagDataset, BagDataset | None, Sequence[float]]]) -> list[np.ndarray]:
    """For each job ``(a, b, gammas)``, the bag Gram values of ``a`` against
    ``b``, or against itself when ``b`` is None, at each gamma: one (gammas,
    bags of a, bags of b) array, from one distance pass per chunk pair.

    Each dataset is cut into chunks once per call. Every pair of chunk
    groups of every job is one item of one ``_run_parts`` queue, largest
    first, and its thread runs the group pair's chunk pairs in chunk-pair
    order. No other item adds into its output entries, so each entry gets
    its sums in that order at every worker count. Beside the outputs, the
    scratch is one product tile and one distance band per thread, sized by
    the largest chunk pair, whatever the number of gammas and of jobs.
    """
    chunked: dict[int, list[_Chunk]] = {}
    items, sizes, outs, largest = [], [], [], 0
    for a, b, gammas in jobs:
        symmetric, b = b is None, a if b is None else b
        if a.dim != b.dim:
            raise ValueError(f"feature dimension mismatch: test d={a.dim}, train d={b.dim}")
        for data in (a, b):
            if id(data) not in chunked:
                chunked[id(data)] = _chunks(data)
        chunks_a, chunks_b = chunked[id(a)], chunked[id(b)]
        outs.append(np.zeros((len(gammas), a.n_bags, b.n_bags)))
        height_a, height_b = [c.rows.shape[0] for c in chunks_a], [c.rows.shape[0] for c in chunks_b]
        largest = max(largest, max(height_a) * max(height_b))
        groups_b = _chunk_groups(chunks_b)
        for ga, group_a in enumerate(_chunk_groups(chunks_a)):
            for group_b in groups_b[ga:] if symmetric else groups_b:
                items.append((outs[-1], chunks_a, group_a, chunks_b, group_b, gammas, symmetric))
                sizes.append(sum(height_a[ia] * height_b[ib] for ia, ib in _chunk_pairs(group_a, group_b, symmetric)))
    # a run is at most _run_limit() entries, or one bag block where that is larger
    tallest = min(TILE, max(bag.n_instances for a, _, _ in jobs for bag in a.bags))
    band = min(largest, max(_run_limit(), tallest * TILE))

    def item(i: int, scratch: tuple[np.ndarray, np.ndarray]) -> None:
        out, chunks_a, group_a, chunks_b, group_b, gammas, symmetric = items[i]
        for ia, ib in _chunk_pairs(group_a, group_b, symmetric):
            diagonal = symmetric and ia == ib
            _add_pair_sums(out, chunks_a[ia], chunks_b[ib], gammas, diagonal, symmetric and not diagonal, *scratch)

    def scratch() -> tuple[np.ndarray, np.ndarray]:
        # Freed below the buffers, an eighth of a tile takes the small blocks
        # numpy allocates while they are in use. Carved from the heap above
        # them, those would keep the buffers' memory from going back to the
        # top of the heap, where a later large buffer such as the median
        # heuristic's reuses it (18 MB more peak RSS on multisource).
        below = np.empty(largest // 8)
        buffers = np.empty(largest), np.empty(band)
        del below
        return buffers

    _run_parts(item, sizes, scratch)
    for (a, b, _), out in zip(jobs, outs):
        # row by row and sigma by sigma: one row of scratch, never a B x B one
        symmetric, sizes_b = b is None, _bag_sizes(a if b is None else b)
        for i, n_i in enumerate(_bag_sizes(a)):
            scale = n_i * sizes_b  # row i of np.outer(sizes_a, sizes_b)
            for total in out:
                if symmetric:
                    # the upper triangle holds every sum; mirror it for exact symmetry
                    total[i + 1 :, i] = total[i, i + 1 :]
                total[i] /= scale
    return outs


def bag_mean_kernel_entry(bag_b: Bag, bag_bp: Bag, params: RbfParams) -> float:
    """Mean-embedding dot product between two bags.

    Returns (1 / (n_b n_b')) sum_i sum_j k(x_i, x_j').
    """
    (entry,) = _grams([(BagDataset((bag_b,), [0.0]), BagDataset((bag_bp,), [0.0]), (params.gamma,))])
    return float(entry[0, 0, 0])


def bag_gram(data: BagDataset, params: RbfParams) -> BagGram:
    """B x B matrix of mean-embedding dot products between all bag pairs.

    Exactly symmetric by construction (the upper triangle is computed and
    mirrored), with entries in (0, 1] and positive semidefinite up to
    round-off.
    """
    return BagGram(_grams([(data, None, (params.gamma,))])[0][0])


def cross_bag_gram(
    test: BagDataset, train: BagDataset, params: RbfParams
) -> np.ndarray:
    """Mean-embedding dot products between every test bag and every train bag.

    Entry (t, b) is (1 / (m_t n_b)) sum_l sum_i k(x_l^t, x_i^b); predictions of
    a dual model are this matrix times its coefficient vector.
    """
    return _grams([(test, train, (params.gamma,))])[0][0]


def multisource_bag_gram(
    data: MultiSourceDataset, params: Sequence[RbfParams]
) -> BagGram:
    """Sum of per-source bag Gram matrices (direct-sum composite kernel)."""
    if len(params) != data.n_sources:
        raise ValueError(
            f"need one RbfParams per source: got {len(params)} for "
            f"{data.n_sources} sources"
        )
    grams = _grams([(src, None, (p.gamma,)) for src, p in zip(data.sources, params)])
    return BagGram(sum(gram[0] for gram in grams))


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
    x, y = _check_pair(sample_x, sample_y, ("sample_x", "sample_y"))
    x, y = (BagDataset((Bag(name, s),), [0.0]) for name, s in (("sample_x", x), ("sample_y", y)))
    g = (params.gamma,)
    # the three entries share one queue
    kxx, kyy, kxy = (float(k[0, 0, 0]) for k in _grams([(x, x, g), (y, y, g), (x, y, g)]))
    value = kxx + kyy - 2.0 * kxy
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
    BLAS runs on one thread, so the slices give the block's own product.
    """
    height = max(16, _SLICE // cols // 16 * 16)
    cuts = list(range(height, rows, height))
    if cuts and rows - cuts[-1] == 1:
        cuts.pop()
    return list(zip([0, *cuts], [*cuts, rows]))


def _kernel_rows(
    block: np.ndarray, a: np.ndarray, b: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray, gamma: float,
    splits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write the kernel values between the rows of ``a`` (at most TILE, of
    squared norms ``a_sq``) and of ``b`` (``b_sq``) into ``block``; given
    ``splits = (ax, gx, row_sums)``, also ``gx[s] = block @ ax[s]`` for every
    split s and the block's ``row_sums``.

    The calling thread and the threads that ``_run_parts`` starts form the
    row products, a TILE-column tile per item (syrk on a diagonal tile of one
    array, gemm elsewhere), then turn them into kernel values, a row slice
    per item, a band at a time through the pulling thread's scratch of at
    most one tile; the slice serves every split while in cache.
    All but the products is elementwise or a per-row sum, so the bits do not
    depend on the worker count. A slice's split products come from one
    ``np.matmul`` call, which makes the BLAS gemv calls ``np.dot`` would make
    for each split; one gemm over all splits would round differently."""
    tiles = range(0, b.shape[0], TILE)

    def products(t: int) -> None:
        cols = slice(tiles[t], tiles[t] + TILE)
        np.matmul(a, b[cols].T, out=block[:, cols])

    _run_parts(products, [min(TILE, b.shape[0] - j0) for j0 in tiles])
    slices, cols = _row_slices(*block.shape), block.shape[1]
    band = max(1, min(slices[0][1], TILE * TILE // cols))

    def kernel(s: int, scratch: np.ndarray) -> None:
        r0, r1 = slices[s]
        with np.errstate(over="ignore"):  # per thread, as in _add_pair_sums
            for b0 in range(r0, r1, band):
                b1 = min(b0 + band, r1)
                d2 = _sq_distances(a_sq[b0:b1], b_sq, block[b0:b1], scratch[: b1 - b0])
                np.multiply(d2, -gamma, out=block[b0:b1])
        part = np.exp(block[r0:r1], out=block[r0:r1])
        if splits is not None:
            ax, gx, row_sums = splits
            row_sums[r0:r1] = part.sum(axis=1)
            np.matmul(part, ax[:, :, None], out=gx[:, r0:r1, None])

    _run_parts(kernel, [r1 - r0 for r0, r1 in slices], lambda: np.empty((band, cols)))


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
    batch, the pooled rows are swept in blocks of TILE rows by ``cross_gram``'s
    ``_kernel_rows``, which also computes one matrix-vector product per split
    of the batch while each row slice is in cache. The results do not depend
    on the worker count. Memory is O(TILE (n+m)) whatever P is, and time is
    O((n+m)^2 (d ceil((P+1) / TILE) + P)). The p-value uses the standard
    add-one convention (1 + #{null >= observed}) / (1 + P). Raises ValueError
    where the squared distances of the pooled rows overflow.
    """
    x, y = _check_pair(sample_x, sample_y, ("sample_x", "sample_y"))
    n_permutations = _check("int>=1", n_permutations, "n_permutations")
    seed = _check("int>=0", seed, "seed")
    n, m = x.shape[0], y.shape[0]
    pooled = np.concatenate([x, y], axis=0)
    sq = _row_norms(pooled, "samples")
    rng = np.random.default_rng(seed)
    row_sums = np.empty(n + m)
    # split 0 is the observed one, split s > 0 the s-th permutation
    stats = np.empty(n_permutations + 1)
    block = np.empty((min(TILE, n + m), n + m))
    for s0 in range(0, n_permutations + 1, TILE):
        s1 = min(s0 + TILE, n_permutations + 1)
        ax = np.zeros((s1 - s0, n + m))  # 0/1 membership in sample x, one row per split
        for s in range(s0, s1):
            ax[s - s0, rng.permutation(n + m)[:n] if s else slice(0, n)] = 1.0
        gx = np.empty_like(ax)
        for i0 in range(0, n + m, TILE):
            rows = slice(i0, min(i0 + TILE, n + m))
            splits = (ax, gx[:, rows], row_sums[rows])
            _kernel_rows(block[: rows.stop - i0], pooled[rows], pooled, sq[rows], sq, params.gamma, splits)
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
    Raises ValueError where the squared distances overflow. Memory is 8 k^2
    bytes for the k points used: their k x k inner-product matrix, whose
    buffer then holds the k (k-1) / 2 squared distances of its upper
    triangle, which one selection partitions in place. The value is bitwise
    ``np.median`` of those distances.
    """
    x = _check_matrix(instances, "instances")
    max_points, seed = _check("int>=2", max_points, "max_points"), _check("int>=0", seed, "seed")
    if x.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(x.shape[0], max_points, replace=False)
        x = x[np.sort(idx)]
    k = x.shape[0]
    if k < 2:
        return 1.0
    sq = _row_norms(x, "instances")
    gram = x @ x.T  # one symmetric product; row blocks of it would round differently
    # Bands of rows go from the bottom up. A band's distances are built in
    # the rows below it, whose products are used up, and its rows' upper
    # distances are packed at the back of the buffer, in front of those of
    # the rows below. A band of at most sqrt((k + 2) / 4) rows ends before
    # its packed distances begin, so nothing still to be read is overwritten.
    flat = gram.reshape(-1)
    height = max(1, min(_SLICE // k, math.isqrt((k + 2) // 4)))
    end = k * k
    for r0 in reversed(range(0, k - 1, height)):
        r1 = min(r0 + height, k - 1)
        band = flat[r1 * k : r1 * k + (r1 - r0) * (k - 1 - r0)].reshape(r1 - r0, k - 1 - r0)
        _sq_distances(sq[r0:r1], sq[r0 + 1 :], gram[r0:r1, r0 + 1 :], band)
        for i in reversed(range(r0, r1)):
            flat[end - (k - 1 - i) : end] = band[i - r0, i - r0 :]
            end -= k - 1 - i
    # np.median's value from one selection: the upper middle, and for an even
    # count the mean with the largest value below it
    dist = flat[end:]
    mid = dist.size // 2
    dist.partition(mid)
    med2 = dist[mid] if dist.size % 2 else (dist[:mid].max() + dist[mid]) / 2.0
    med = float(np.sqrt(med2))
    return med if med > 0 else 1.0


def median_heuristic_bags(data: BagDataset, max_points: int = 2000, seed: int = 0) -> float:
    """Median heuristic over all instances pooled across a dataset's bags."""
    return median_heuristic(pooled_instances(data), max_points=max_points, seed=seed)
