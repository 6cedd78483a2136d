"""Bag-structured datasets: reading every input file (CSV and JSON), the one
domain table that checks every value a user gives (``_DOMAINS``, ``_check``),
replacing each output file whole, feature normalization, multisource alignment.

A *bag* is a group of instance feature vectors that share one scalar target
(all pixels in a county, all readings at a site, ...). Supervision lives at
the bag level, so datasets here are collections of bags plus one target per
bag. All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "Bag",
    "BagDataset",
    "DataFormatError",
    "MultiSourceDataset",
    "Normalizer",
    "align_sources",
    "apply_normalizer",
    "canonical_rows",
    "fit_normalizer",
    "load_bags",
    "load_sample",
    "pooled_instances",
    "save_bags",
]


class DataFormatError(ValueError):
    """An input file violates the bag CSV schema (message carries file/line/bag)."""


@dataclass(frozen=True)
class Bag:
    """One group of instances sharing a single target.

    ``instances`` is an (n, d) float matrix; rows are instance feature vectors.
    """

    id: str
    instances: np.ndarray

    def __post_init__(self) -> None:
        inst = np.asarray(self.instances, dtype=float)
        if inst.ndim != 2 or inst.shape[0] < 1 or inst.shape[1] < 1:
            raise ValueError(
                f"bag {self.id!r}: instances must be a non-empty 2-D matrix, "
                f"got shape {np.shape(self.instances)}"
            )
        if not np.all(np.isfinite(inst)):
            raise ValueError(f"bag {self.id!r}: instances contain non-finite values")
        object.__setattr__(self, "instances", inst)

    @property
    def n_instances(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class Normalizer:
    """Per-feature affine transform: x -> (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        scale = np.asarray(self.scale, dtype=float).ravel()
        if mean.shape != scale.shape:
            raise ValueError("normalizer mean and scale must have the same length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
            raise ValueError("normalizer parameters must be finite")
        if np.any(scale <= 0):
            raise ValueError("normalizer scales must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class BagDataset:
    """Ordered collection of bags with aligned scalar targets."""

    bags: tuple[Bag, ...]
    targets: np.ndarray

    def __post_init__(self) -> None:
        bags = tuple(self.bags)
        targets = np.asarray(self.targets, dtype=float).ravel()
        if len(bags) == 0:
            raise ValueError("a dataset needs at least one bag")
        if len(bags) != targets.shape[0]:
            raise ValueError(
                f"bag/target count mismatch: {len(bags)} bags, {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        dims = {b.dim for b in bags}
        if len(dims) != 1:
            raise ValueError(f"all bags must share one feature dimension, got {sorted(dims)}")
        ids = [b.id for b in bags]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bag ids in dataset")
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "targets", targets)

    @property
    def n_bags(self) -> int:
        return len(self.bags)

    @property
    def dim(self) -> int:
        return self.bags[0].dim

    @property
    def bag_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.bags)

    def subset(self, indices: Sequence[int]) -> "BagDataset":
        """New dataset holding the given bags, in the given index order."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("subset needs a non-empty 1-D index sequence")
        bags = tuple(self.bags[i] for i in idx)
        return BagDataset(bags, self.targets[idx])


@dataclass(frozen=True)
class MultiSourceDataset:
    """Aligned per-source views of the same bags, sharing one target vector.

    Every source holds the same bag ids in the same order; a bag may have a
    different instance count and feature dimension in each source.
    """

    sources: tuple[BagDataset, ...]

    def __post_init__(self) -> None:
        sources = tuple(self.sources)
        if len(sources) == 0:
            raise ValueError("a multisource dataset needs at least one source")
        first = sources[0]
        for f, src in enumerate(sources[1:], start=1):
            if src.bag_ids != first.bag_ids:
                raise ValueError(f"source {f} bag ids disagree with source 0")
            if not np.array_equal(src.targets, first.targets):
                raise ValueError(f"source {f} targets disagree with source 0")
        object.__setattr__(self, "sources", sources)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_bags(self) -> int:
        return self.sources[0].n_bags

    @property
    def bag_ids(self) -> tuple[str, ...]:
        return self.sources[0].bag_ids

    @property
    def targets(self) -> np.ndarray:
        return self.sources[0].targets

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sources)

    @property
    def alignment(self) -> dict[str, int]:
        """Bag id -> bag index, identical across sources by construction."""
        return {bid: i for i, bid in enumerate(self.bag_ids)}

    def subset(self, indices: Sequence[int]) -> "MultiSourceDataset":
        return MultiSourceDataset(tuple(s.subset(indices) for s in self.sources))


def pooled_instances(data: BagDataset) -> np.ndarray:
    """All instances of all bags stacked into one (sum n_b, d) matrix."""
    return np.concatenate([b.instances for b in data.bags], axis=0)


def canonical_rows(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` in lexicographic order.

    A bag's instances are an unordered multiset; fixing one summation order
    before any reduction makes every downstream quantity exactly invariant to
    instance permutations instead of merely invariant up to round-off.
    """
    if x.shape[0] < 2:
        return x
    return x[np.lexsort(x.T[::-1])]


def fit_normalizer(train: BagDataset) -> Normalizer:
    """Per-feature mean/std over all instances pooled across the training bags.

    Uses the population standard deviation (divide by N). Features whose
    values are all identical get scale 1 and keep their exact constant as the
    mean, so they normalize to exactly 0. Statistics are accumulated in
    canonical row order, so they are exactly invariant to instance order.
    A feature whose mean or standard deviation overflows raises a
    ``ValueError`` naming its column (``f1`` for the first).
    """
    pooled = canonical_rows(pooled_instances(train))
    constant = pooled.max(axis=0) == pooled.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.where(constant, pooled[0], pooled.mean(axis=0))
        std = pooled.std(axis=0)
    scale = np.where(constant | (std == 0.0), 1.0, std)
    overflowed = ~(np.isfinite(mean) & np.isfinite(scale))
    if overflowed.any():
        raise ValueError(f"feature f{np.argmax(overflowed) + 1}: values too large to normalize")
    return Normalizer(mean=mean, scale=scale)


def apply_normalizer(data: BagDataset, transform: Normalizer) -> BagDataset:
    """Normalized copy of ``data``: (x - mean) / scale per feature.

    Targets are unchanged.
    """
    if transform.dim != data.dim:
        raise ValueError(
            f"normalizer dimension mismatch: transform has d={transform.dim}, "
            f"data has d={data.dim}"
        )
    bags = tuple(
        Bag(b.id, (b.instances - transform.mean) / transform.scale) for b in data.bags
    )
    return BagDataset(bags, data.targets)


def align_sources(per_source: Sequence[BagDataset]) -> MultiSourceDataset:
    """Keep only bag ids present in every source, in the first source's order.

    Targets for a shared bag id must agree exactly across sources; any
    mismatch is a data error, not something to average away.
    """
    if len(per_source) == 0:
        raise ValueError("align_sources needs at least one source dataset")
    first = per_source[0]
    index_maps = [{bid: i for i, bid in enumerate(src.bag_ids)} for src in per_source]
    common = [bid for bid in first.bag_ids if all(bid in m for m in index_maps)]
    if not common:
        raise ValueError("no bag ids are shared by all sources (empty intersection)")
    for bid in common:
        ys = [src.targets[index_maps[f][bid]] for f, src in enumerate(per_source)]
        if any(y != ys[0] for y in ys[1:]):
            raise ValueError(
                f"conflicting targets for bag {bid!r} across sources: {ys}"
            )
    views = tuple(
        src.subset([index_maps[f][bid] for bid in common])
        for f, src in enumerate(per_source)
    )
    return MultiSourceDataset(views)


def _parse_float(value: str, path: str | Path, line: int, bag: str | None) -> float:
    """``value`` as a finite float, in the one number grammar of every input
    file: surrounding whitespace, then ASCII text that Python's ``float``
    reads and that holds no ``_`` (a sign, digits, a decimal point and an
    exponent; ``nan`` and ``inf`` spellings parse and are then rejected as
    non-finite). Errors name the file, the line and, when given, the bag."""
    text = value.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        number = float(text)
    except ValueError:
        raise DataFormatError(f"{path}:{line}: non-numeric value {value!r}{_of(bag)}") from None
    if not math.isfinite(number):
        raise DataFormatError(f"{path}:{line}: non-finite value {value!r}{_of(bag)}")
    return number


def _of(bag: str | None) -> str:
    return "" if bag is None else f" for bag {bag!r}"


def _domain(kinds, convert=lambda value: value, ok=lambda value: True):
    """Check-and-convert of the values of ``kinds`` (a type, an ABC or a
    tuple of them; bools are never numbers) for which ``ok`` holds once
    ``convert`` has converted them."""

    def check(value):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError
        value = convert(value)  # float() raises OverflowError on an int beyond its range
        if not ok(value):
            raise ValueError
        return value

    return check


_LISTS = (list, tuple, np.ndarray)
_positive = _domain(numbers.Real, float, lambda x: 0 < x < math.inf)
# Every value a user gives (config key, flag, hyperparameter or library
# argument) is in one of these domains: name -> (what it must be, its
# check-and-convert). numpy's integers and reals count as numbers.
_DOMAINS = {
    "real>0": ("positive and finite", _positive),
    "reals>0": ("a list of positive and finite reals, one per source",
                _domain(_LISTS, lambda v: tuple(map(_positive, v)))),
    "real(0,1)": ("a real in (0, 1)", _domain(numbers.Real, float, lambda x: 0 < x < 1)),
    "real>=0": ("a finite real ≥ 0", _domain(numbers.Real, float, lambda x: 0 <= x < math.inf)),
    "int>=0": ("an integer ≥ 0", _domain(numbers.Integral, int, lambda n: n >= 0)),
    "int>=1": ("an integer ≥ 1", _domain(numbers.Integral, int, lambda n: n >= 1)),
    "int>=2": ("an integer ≥ 2", _domain(numbers.Integral, int, lambda n: n >= 2)),
    "str": ("a string", _domain(str)),
    # a lone string is a list of one
    "strs": ("a non-empty list of strings", _domain((str, list), lambda v: [v] if isinstance(v, str) else v,
                                                    lambda v: v and all(isinstance(s, str) for s in v))),
    "object": ("an object or null", _domain((dict, type(None)))),
}


def _check(domain: str, value, name: str):
    """``value`` checked against ``domain`` (a key of ``_DOMAINS``) and
    converted; outside it, ValueError ``<name> must be <what>, got <value>``."""
    what, convert = _DOMAINS[domain]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {what}, got {value!r}") from None


def _not_utf8(path: str | Path) -> DataFormatError:
    """The error for a file that does not decode as UTF-8, naming the line of
    its first bad byte."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        bad = raw[exc.start : exc.end]
        return DataFormatError(f"{path}:{line}: not valid UTF-8: can't decode {bad!r}: {exc.reason}")
    return DataFormatError(f"{path}: not valid UTF-8")  # changed since it was read


def _read_json(path: str | Path):
    """The JSON document in the file at ``path`` (UTF-8 after an optional byte
    order mark, as RFC 8259 allows); bytes that are not UTF-8 and text that is
    not JSON raise DataFormatError naming the line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg} (column {exc.colno})") from None
    except RecursionError:
        raise DataFormatError(f"{path}: not valid JSON: nested too deeply") from None


def _csv_records(lines, path: str | Path):
    """``(line, record)`` for each CSV record in ``lines``, the lines of a file
    opened with ``newline=""`` and ``encoding="utf-8-sig"`` (UTF-8 after an
    optional byte order mark), where ``line`` is the line the record starts
    on: a quoted field may hold line breaks. Bytes that are not UTF-8 and
    malformed CSV (such as a field over the csv module's size limit, or a
    quote still open at the end of the file) raise DataFormatError naming
    the line; a malformed record is named by the line it starts on."""
    reader = csv.reader(lines, strict=True)
    start = 1
    try:
        for record in reader:
            yield start, record
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{start}: malformed CSV: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _rows(path: str | Path, header: str | None):
    """``(line, bag, values)`` for each record of the CSV input file at
    ``path``, its numbers parsed by ``_parse_float``; lines that are empty or
    hold only whitespace are skipped.

    With a ``header`` (``'bag_id,y'``, or ``'bag_id,f1,...,fd'`` for any d)
    the file must start with a header of that shape, ``bag`` is each record's
    first field and ``values`` the rest. Without one the file is a headerless
    sample, ``bag`` is None and ``#`` starts a comment that runs to the end of
    its line. Every record has as many fields as the header, or for a sample
    as its first record.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _csv_records(fh if header else (line.partition("#")[0] for line in fh), path)
        width = None
        if header:
            _, names = next(records, (1, None))
            width = len(names or ())
            if width < 2 or names[0] != "bag_id" or ("..." not in header and width != header.count(",") + 1):
                raise DataFormatError(f"{path}:1: expected header {header!r}, got {names!r}")
        for line, record in records:
            if len(record) < 2 and not "".join(record).strip():
                continue
            width = width or len(record)
            bag = record[0] if header else None
            if len(record) != width:
                raise DataFormatError(f"{path}:{line}: expected {width} fields, got {len(record)}{_of(bag)}")
            yield line, bag, [_parse_float(v, path, line, bag) for v in record[1 if header else 0 :]]


def load_bags(instances_path: str | Path, targets_path: str | Path | None = None) -> BagDataset:
    """Load a dataset from an instances CSV plus a targets CSV.

    Instances CSV: header ``bag_id,f1,...,fd``, one row per instance. Rows of
    one bag need not be contiguous; bag order follows the first appearance of
    each bag id. Targets CSV: header ``bag_id,y``, exactly one row per bag id
    appearing in the instances file (extra target rows are ignored).

    When ``targets_path`` is None (prediction-only workloads) every target is
    set to 0.0.
    """
    inst_path = Path(instances_path)
    rows: defaultdict[str, array] = defaultdict(lambda: array("d"))  # each bag's numbers, row after row
    for _, bag_id, values in _rows(inst_path, "bag_id,f1,...,fd"):
        rows[bag_id].extend(values)
    if not rows:
        raise DataFormatError(f"{inst_path}: no bags (file has no instance rows)")

    if targets_path is None:
        targets = dict.fromkeys(rows, 0.0)
    else:
        targets = {}
        for line, bag_id, (y,) in _rows(Path(targets_path), "bag_id,y"):
            if bag_id in targets:
                raise DataFormatError(f"{targets_path}:{line}: duplicate target for bag {bag_id!r}")
            targets[bag_id] = y
        for bid in rows:
            if bid not in targets:
                raise DataFormatError(f"{targets_path}: missing target for bag {bid!r}")

    ids, d = list(rows), len(values)  # every record has the header's width
    # each bag's numbers are freed once its array is made: the peak is about the arrays
    bags = tuple(Bag(bid, np.frombuffer(rows.pop(bid)).reshape(-1, d).copy()) for bid in ids)
    return BagDataset(bags, np.asarray([targets[bid] for bid in ids], dtype=float))


def load_sample(path: str | Path) -> np.ndarray:
    """The (n, d) sample in a headerless numeric CSV, as ``distreg mmd``
    reads it: one instance per line; ``#`` comments and blank lines are skipped."""
    values = array("d")
    for _, _, row in _rows(path, None):
        values.extend(row)
    if not values:
        raise DataFormatError(f"{path}: empty sample")
    return np.frombuffer(values).reshape(-1, len(row))  # a view: a copy would double the peak


@contextlib.contextmanager
def _atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file whose content replaces the file at ``path`` when the
    block ends: it is a new file in the same directory, which ``os.replace``
    then moves into place (``rename(2)``, atomic on POSIX). Where the block
    or a write fails, that file is removed and ``path`` keeps its bytes, or
    stays absent."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", newline=newline, encoding="utf-8")
    except OSError as exc:  # named by the file it stands in for
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_bags(
    data: BagDataset, instances_path: str | Path, targets_path: str | Path
) -> None:
    """Write a dataset back to the instances/targets CSV pair.

    Floats are written with ``repr`` so a load/save round trip reproduces the
    exact same values. Each file replaces its old version only once it is
    whole (``_atomic_write``).
    """
    with _atomic_write(instances_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id"] + [f"f{j + 1}" for j in range(data.dim)])
        for bag in data.bags:
            for row in bag.instances:
                writer.writerow([bag.id] + [repr(float(v)) for v in row])
    with _atomic_write(targets_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "y"])
        for bag, y in zip(data.bags, data.targets):
            writer.writerow([bag.id, repr(float(y))])
