"""Write the golden CLI outputs of distreg and print their SHA-256 sums.

    PYTHONPATH=src python scripts/golden.py OUT

writes 105 files under OUT and prints one ``sha256  path`` line per file,
with paths relative to OUT, sorted, after a first line that names what the
bytes also depend on: the numpy and scipy versions, numpy's BLAS library and
version, the LAPACK library and version that the ridge solves call (the one
scipy links), and the SIMD target numpy dispatches float64 ``exp`` to. They
do not depend on ``DISTREG_THREADS`` or on import order, because distreg
runs BLAS on one thread. A refactor that must not change any output shows the same
lines before and after, and a comparison across BLAS builds or CPUs shows up
as a diff of the first line:

    PYTHONPATH=<parent checkout>/src python scripts/golden.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/golden.py /tmp/b > b.txt
    diff a.txt b.txt

``scripts/golden.sha256`` holds the output, and ``tests/test_golden.py``
compares a fresh run against it. A deliberate change of outputs is
re-recorded, as one visible diff of that file, with

    PYTHONPATH=src python scripts/golden.py /tmp/g > scripts/golden.sha256

The set:
- ``distreg run`` (report_*.json, table.csv, table.txt) on a 30-bag
  variance task for lr, kr, rdr, kdr and on a 24-bag multisource task for
  mdr and the stacked kinds, each with the default grid and with a small
  grid override, and once more on the variance task with its grid config
  and every ``run`` flag (``--model`` kdr and lr, ``--trials``,
  ``--folds``, ``--seed``, ``--test-fraction``, ``--out``) set to a value
  the config does not hold;
- ``distreg fit`` -> ``distreg predict`` (model file and predictions) for
  all nine kinds, with default and with explicit hyperparameters, and for
  ``kdr`` (150 bags of 8 rows) and ``mdr`` (60 two-source bags) on data
  whose pooled rows exceed one tile (``distreg.kernels.TILE``), so that
  their Grams span several chunks, for ``kdr`` on 6 bags of 1500 rows,
  each larger than one tile and so cut into tile-row pieces, and for ``kdr``
  and ``mdr`` on 10 bags, two of 2200 rows (cut into three pieces, the last
  of which shares its chunk with the small bags after it) and eight of 40;
- the ``grid_search_cv`` table of each of the nine kinds (params, mean and
  fold RMSEs as ``repr``, error text, and the best point) on the 30-bag
  variance or the 24-bag multisource task, and of ``kdr`` on those 10 bags,
  over the kind's default grid plus one point that fails its check, so that
  a change in the last digit of any cell shows;
- ``distreg mmd`` stdout for the four two-sample gallery scenarios (300
  samples each side), with the median-heuristic sigma and with ``--sigma``,
  and for scenario ``c`` at 700 samples each side with 1100 permutations,
  so that the pooled rows and the permutations both exceed one tile
  (``distreg.kernels.TILE``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from distreg.cli import main
from distreg.data import align_sources, load_bags
from distreg.evaluate import default_grid, grid_search_cv
from distreg.models import MULTISOURCE_KINDS, SINGLE_SOURCE_KINDS
from distreg.synth import GALLERY_SCENARIOS

GRID = {"lams": [1e-4, 1e-2], "sigma_scales": [1.0], "n_features": [32]}
EXPLICIT = [
    "--lam", "1e-2", "--sigma", "1.2", "--sigmas", "1.2,0.9", "--n-features", "64", "--seed", "1",
]


def _cli(*argv) -> str:
    """Run ``distreg`` with ``argv``; returns its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"distreg {' '.join(map(str, argv))} exited with {rc}")
    return stdout.getvalue()


def _cv_table(path: Path, data, kind: str) -> None:
    """Write the CV table of ``kind`` on ``data`` to ``path``: every cell of
    its default grid, and of one point whose negative lambda fails its check,
    with floats as ``repr``."""
    grid = default_grid(kind, data, seed=3)
    result = grid_search_cv(data, kind, [*grid, {**grid[0], "lam": -1.0}], k=3, seed=3)
    table = [
        {
            "params": cell.params,
            "mean_rmse": repr(cell.mean_rmse),
            "fold_rmse": None if cell.fold_rmse is None else [repr(v) for v in cell.fold_rmse],
            "error": cell.error,
        }
        for cell in result.table
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"best": result.best, "table": table}, indent=1) + "\n", encoding="utf-8")


def _interleaved(out: Path, big: Path, small: Path) -> None:
    """Write the bags of two ``synth`` outputs as one set under ``out``: each
    bag of ``big`` (its id prefixed ``big``), then an equal share of the bags
    of ``small`` (prefixed ``small``), in ``instances.csv`` and ``targets.csv``."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("instances.csv", "targets.csv"):
        groups = []
        for prefix, path in (("big", big), ("small", small)):
            header, *lines = (path / name).read_text(encoding="utf-8").splitlines()
            bags: dict[str, list[str]] = {}
            for line in lines:
                bags.setdefault(line.split(",", 1)[0], []).append(prefix + line)
            groups.append(list(bags.values()))
        bigs, smalls = groups
        share = len(smalls) // len(bigs)
        rows = [
            line
            for i, bag in enumerate(bigs)
            for part in (bag, *smalls[i * share : (i + 1) * share])
            for line in part
        ]
        (out / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def write_golden(out: Path) -> list[Path]:
    """Write the golden set under ``out``; returns the paths of its files."""
    variance, multi = out / "data" / "variance", out / "data" / "multisource"
    _cli("synth", "--kind", "variance-task", "--out", variance,
         "--bags", 30, "--bag-size", 8, "--dim", 2, "--seed", 5)
    _cli("synth", "--kind", "multisource-task", "--out", multi, "--bags", 24)
    tasks = {
        "variance": ([variance / "instances.csv"], variance / "targets.csv", SINGLE_SOURCE_KINDS),
        "multisource": (
            [multi / "source1_instances.csv", multi / "source2_instances.csv"],
            multi / "targets.csv",
            MULTISOURCE_KINDS,
        ),
    }
    files = []
    for task, (instances, targets, kinds) in tasks.items():
        for name, grid in (("default", None), ("grid", GRID)):
            run_dir = out / "run" / f"{task}-{name}"
            config = {
                "instances": [str(p) for p in instances],
                "targets": str(targets),
                "models": list(kinds),
                "test_fraction": 0.25,
                "trials": 2,
                "folds": 3,
                "seed": 3,
                "out": str(run_dir),
                **({"grid": grid} if grid else {}),
            }
            config_path = out / "config" / f"{task}-{name}.json"
            config_path.parent.mkdir(parents=True, exist_ok=True)
            config_path.write_text(json.dumps(config), encoding="utf-8")
            _cli("run", "--config", config_path)
            files += [run_dir / f"report_{kind}.json" for kind in kinds]
            files += [run_dir / "table.csv", run_dir / "table.txt"]
        sources = [arg for path in instances for arg in ("--instances", path)]
        for kind in kinds:
            for name, extra in (("default", []), ("explicit", EXPLICIT)):
                model = out / "fit" / f"{kind}-{name}.model.json"
                preds = out / "fit" / f"{kind}-{name}.predictions.csv"
                model.parent.mkdir(parents=True, exist_ok=True)
                _cli("fit", "--model", kind, *sources, "--targets", targets, "--out", model, *extra)
                _cli("predict", "--model-file", model, *sources, "--out", preds)
                files += [model, preds]
        datasets = [load_bags(path, targets) for path in instances]
        data = align_sources(datasets) if len(datasets) > 1 else datasets[0]
        for kind in kinds:
            path = out / "cv" / f"{kind}.json"
            _cv_table(path, data, kind)
            files.append(path)
    # every `run` flag overrides its config key with a value of its own
    run_dir = out / "run" / "variance-flags"
    _cli("run", "--config", out / "config" / "variance-grid.json", "--model", "kdr", "--model", "lr",
         "--trials", 1, "--folds", 2, "--seed", 4, "--test-fraction", 0.3, "--out", run_dir)
    files += [run_dir / name for name in ("report_kdr.json", "report_lr.json", "table.csv", "table.txt")]
    # pooled rows above one tile (distreg.kernels.TILE): the Grams span
    # several chunks; bags above one tile: they are cut into pieces
    large_variance, large_multi = out / "data" / "variance-large", out / "data" / "multisource-large"
    large_bags = out / "data" / "variance-large-bags"
    _cli("synth", "--kind", "variance-task", "--out", large_variance,
         "--bags", 150, "--bag-size", 8, "--dim", 2, "--seed", 6)
    _cli("synth", "--kind", "multisource-task", "--out", large_multi, "--bags", 60, "--seed", 6)
    _cli("synth", "--kind", "variance-task", "--out", large_bags,
         "--bags", 6, "--bag-size", 1500, "--dim", 2, "--seed", 9)
    # two sources of bags above two tiles, each followed by small bags
    cut = []
    for source, dim in ((1, 2), (2, 1)):
        parts = [out / "data" / f"cut-bags-{source}-{size}" for size in ("big", "small")]
        _cli("synth", "--kind", "variance-task", "--out", parts[0],
             "--bags", 2, "--bag-size", 2200, "--dim", dim, "--seed", 10 + source)
        _cli("synth", "--kind", "variance-task", "--out", parts[1],
             "--bags", 8, "--bag-size", 40, "--dim", dim, "--seed", 20 + source)
        cut.append(out / "data" / f"cut-bags-{source}")
        _interleaved(cut[-1], *parts)
    for label, kind, instances, targets in (
        ("kdr", "kdr", [large_variance / "instances.csv"], large_variance / "targets.csv"),
        ("mdr", "mdr", [large_multi / "source1_instances.csv", large_multi / "source2_instances.csv"],
         large_multi / "targets.csv"),
        ("kdr-large-bags", "kdr", [large_bags / "instances.csv"], large_bags / "targets.csv"),
        ("kdr-cut-bags", "kdr", [cut[0] / "instances.csv"], cut[0] / "targets.csv"),
        ("mdr-cut-bags", "mdr", [c / "instances.csv" for c in cut], cut[0] / "targets.csv"),
    ):
        sources = [arg for path in instances for arg in ("--instances", path)]
        for name, extra in (("default", []), ("explicit", EXPLICIT)):
            model = out / "fit-large" / f"{label}-{name}.model.json"
            preds = out / "fit-large" / f"{label}-{name}.predictions.csv"
            model.parent.mkdir(parents=True, exist_ok=True)
            _cli("fit", "--model", kind, *sources, "--targets", targets, "--out", model, *extra)
            _cli("predict", "--model-file", model, *sources, "--out", preds)
            files += [model, preds]
    path = out / "cv" / "kdr-cut-bags.json"
    _cv_table(path, load_bags(cut[0] / "instances.csv", cut[0] / "targets.csv"), "kdr")
    files.append(path)
    gallery = out / "data" / "gallery"
    _cli("synth", "--kind", "two-sample-gallery", "--out", gallery, "--samples", 300, "--seed", 7)
    (out / "mmd").mkdir(parents=True, exist_ok=True)
    for scenario in GALLERY_SCENARIOS:
        for name, extra in (("median", []), ("sigma", ["--sigma", "0.8"])):
            path = out / "mmd" / f"{scenario}-{name}.txt"
            sample_x, sample_y = (gallery / f"gallery_{scenario}_{side}.csv" for side in "xy")
            path.write_text(
                _cli("mmd", sample_x, sample_y, "--permutations", 100, "--seed", 2, *extra),
                encoding="utf-8",
            )
            files.append(path)
    large = out / "data" / "gallery-large"
    _cli("synth", "--kind", "two-sample-gallery", "--out", large, "--samples", 700, "--seed", 8)
    path = out / "mmd" / "c-above-tile.txt"
    path.write_text(
        _cli("mmd", large / "gallery_c_x.csv", large / "gallery_c_y.csv",
             "--permutations", 1100, "--seed", 2),
        encoding="utf-8",
    )
    files.append(path)
    return files


def fingerprint() -> str:
    """The first output line: the numeric libraries (numpy's BLAS, and the
    LAPACK behind ``scipy.linalg`` that the ridge solves call) and the SIMD
    target of numpy's float64 ``exp``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        exp = "(unknown)"
    else:
        (loop,) = opt_func_info(func_name="^exp$", signature="float64")["exp"].values()
        exp = loop["current"]
    return (
        f"# numpy {np.__version__} scipy {scipy.__version__} "
        f"BLAS {blas.get('name')} {blas.get('version')} "
        f"LAPACK {lapack.get('name')} {lapack.get('version')} exp {exp}"
    )


def main_golden(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/golden.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    print(fingerprint())
    for path in sorted(write_golden(out)):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_golden(sys.argv[1:]))
