"""Independent numpy references for the outputs the benchmark checks.

Nothing here calls the library's kernel, feature or ridge code: bag Grams
are direct per-bag sums of exp(-gamma * ||x - y||^2) with the distances
taken coordinate by coordinate, ridge systems go through LU
(``numpy.linalg.solve``) instead of Cholesky, and normalization is plain
pooled mean/std. The only library call is ``sample_basis`` for ``rdr``,
because the Fourier basis is a model parameter, not something to re-derive.

Every function works on per-bag lists of float arrays, so peak memory stays
at one bag against one pooled row set.
"""

from __future__ import annotations

import numpy as np

TEST_FRACTION = 0.33
LR_LAMBDA_FLOOR = 1e-8  # the library's documented floor for lr


def split(n_bags: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The protocol's bag-level train/test split for one trial seed."""
    n_test = min(max(int(round(n_bags * test_fraction)), 1), n_bags - 1)
    perm = np.random.default_rng(seed).permutation(n_bags)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def normalizer(bags: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Population mean/std over pooled instances; constant features keep scale 1."""
    pooled = np.concatenate(bags, axis=0)
    constant = pooled.max(axis=0) == pooled.min(axis=0)
    mean = np.where(constant, pooled[0], pooled.mean(axis=0))
    std = pooled.std(axis=0)
    return mean, np.where(constant | (std == 0.0), 1.0, std)


def normalize(bags: list[np.ndarray], stats) -> list[np.ndarray]:
    mean, scale = stats
    return [(b - mean) / scale for b in bags]


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d2 += (a[:, j, None] - b[None, :, j]) ** 2
    return d2


def mean_kernel(a_bags: list[np.ndarray], b_bags: list[np.ndarray], sigma: float) -> np.ndarray:
    """Matrix of mean-embedding dot products (1/(n m)) sum k(x, y) between bags."""
    gamma = 1.0 / (2.0 * sigma * sigma)
    pooled = np.concatenate(b_bags, axis=0)
    starts = np.cumsum([0] + [b.shape[0] for b in b_bags[:-1]])
    sizes = np.array([b.shape[0] for b in b_bags], dtype=float)
    out = np.empty((len(a_bags), len(b_bags)))
    for i, a in enumerate(a_bags):
        col = np.exp(-gamma * _sq_dist(a, pooled)).sum(axis=0)
        out[i] = np.add.reduceat(col, starts) / (a.shape[0] * sizes)
    return out


def median_heuristic(x: np.ndarray, max_points: int = 2000, seed: int = 0) -> float:
    """Median pairwise distance over a seeded subsample (the library's default sigma)."""
    if x.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(x.shape[0], max_points, replace=False)
        x = x[np.sort(idx)]
    d2 = _sq_dist(x, x)
    med = float(np.sqrt(np.median(d2[np.triu_indices(x.shape[0], k=1)])))
    return med if med > 0 else 1.0


def _dual_predict(gram: np.ndarray, cross: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    ybar = y.mean()
    alpha = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), y - ybar)
    return cross @ alpha + ybar


def _rff_means(bags: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    scale = 1.0 / np.sqrt(weights.shape[1])
    rows = []
    for b in bags:
        proj = b @ weights
        rows.append(np.concatenate([np.cos(proj).mean(axis=0), np.sin(proj).mean(axis=0)]) * scale)
    return np.array(rows)


def _stack(sources: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Instance stacking: each source's rows completed with the other sources' bag means."""
    out = []
    for per_source in zip(*sources):
        means = [inst.mean(axis=0) for inst in per_source]
        full = np.concatenate(means)
        offsets = np.cumsum([0] + [m.shape[0] for m in means])
        parts = []
        for f, inst in enumerate(per_source):
            block = np.tile(full, (inst.shape[0], 1))
            block[:, offsets[f] : offsets[f + 1]] = inst
            parts.append(block)
        out.append(np.concatenate(parts, axis=0))
    return out


def predict(kind: str, train, y_train: np.ndarray, test, hyper: dict, basis_weights=None) -> np.ndarray:
    """Held-out predictions of ``kind`` refit at ``hyper`` on raw per-bag arrays.

    ``train``/``test`` are lists of bag arrays, or for multisource kinds lists
    of such lists (one per source). Normalization is fitted on ``train``.
    ``basis_weights`` (dim x D) is required for ``rdr``.
    """
    lam = float(hyper["lam"])
    if kind in ("lr", "kr", "kdr", "rdr"):
        stats = normalizer(train)
        tr, te = normalize(train, stats), normalize(test, stats)
    else:
        stats = [normalizer(src) for src in train]
        tr = [normalize(src, s) for src, s in zip(train, stats)]
        te = [normalize(src, s) for src, s in zip(test, stats)]
    if kind == "lr":
        m_tr = np.array([b.mean(axis=0) for b in tr])
        m_te = np.array([b.mean(axis=0) for b in te])
        centre = m_tr.mean(axis=0)
        c = m_tr - centre
        ybar = y_train.mean()
        w = np.linalg.solve(c.T @ c + max(lam, LR_LAMBDA_FLOOR) * np.eye(c.shape[1]), c.T @ (y_train - ybar))
        return (m_te - centre) @ w + ybar
    if kind == "kr":
        m_tr = [b.mean(axis=0)[None, :] for b in tr]
        m_te = [b.mean(axis=0)[None, :] for b in te]
        sigma = float(hyper["sigma"])
        return _dual_predict(mean_kernel(m_tr, m_tr, sigma), mean_kernel(m_te, m_tr, sigma), y_train, lam)
    if kind == "kdr":
        sigma = float(hyper["sigma"])
        return _dual_predict(mean_kernel(tr, tr, sigma), mean_kernel(te, tr, sigma), y_train, lam)
    if kind == "rdr":
        z_tr, z_te = _rff_means(tr, basis_weights), _rff_means(te, basis_weights)
        return _dual_predict(z_tr @ z_tr.T, z_te @ z_tr.T, y_train, lam)
    if kind == "mdr":
        gram = sum(mean_kernel(a, a, s) for a, s in zip(tr, hyper["sigmas"]))
        cross = sum(mean_kernel(b, a, s) for a, b, s in zip(tr, te, hyper["sigmas"]))
        return _dual_predict(gram, cross, y_train, lam)
    if kind == "stacked-kdr":
        s_tr, s_te = _stack(tr), _stack(te)
        sigma = float(hyper["sigma"])
        return _dual_predict(mean_kernel(s_tr, s_tr, sigma), mean_kernel(s_te, s_tr, sigma), y_train, lam)
    raise ValueError(f"no oracle for model kind {kind!r}")


def metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    err = y_pred - y_true
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    return {
        "me": float(err.mean()),
        "rmse": float(np.sqrt(np.mean(err**2))),
        "r2": 1.0 - float(np.sum(err**2)) / ss_tot if ss_tot > 0 else float("nan"),
    }


def mmd2(x: np.ndarray, y: np.ndarray, sigma: float, block: int = 500) -> float:
    """Biased MMD^2 by blocked direct sums (memory: block x (n+m) entries)."""
    gamma = 1.0 / (2.0 * sigma * sigma)

    def mean_k(a, b):
        total = 0.0
        for i0 in range(0, a.shape[0], block):
            total += float(np.exp(-gamma * _sq_dist(a[i0 : i0 + block], b)).sum())
        return total / (a.shape[0] * b.shape[0])

    return mean_k(x, x) + mean_k(y, y) - 2.0 * mean_k(x, y)


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    """|a - b| <= atol + rtol * max(|a|, |b|); two NaNs count as equal."""
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
