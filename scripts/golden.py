"""Write the golden CLI outputs of distreg and print their SHA-256 sums.

    PYTHONPATH=src python scripts/golden.py OUT

writes 87 files under OUT and prints one ``sha256  path`` line per file,
with paths relative to OUT, sorted, after a first line that names what the
bytes also depend on: ``DISTREG_THREADS`` (the BLAS thread count moves the
last digits of large exact solves), the numpy and scipy versions, and the
BLAS library and version. A refactor that must not change any output shows
the same lines before and after, and a comparison across thread settings or
BLAS builds shows up as a diff of the first line:

    PYTHONPATH=<parent checkout>/src python scripts/golden.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/golden.py /tmp/b > b.txt
    diff a.txt b.txt

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
  their Grams span several chunks, and for ``kdr`` on 6 bags of 1500 rows,
  each larger than one tile and so cut into tile-row pieces;
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
import os
import sys
from pathlib import Path

from distreg.cli import main
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
    for label, kind, instances, targets in (
        ("kdr", "kdr", [large_variance / "instances.csv"], large_variance / "targets.csv"),
        ("mdr", "mdr", [large_multi / "source1_instances.csv", large_multi / "source2_instances.csv"],
         large_multi / "targets.csv"),
        ("kdr-large-bags", "kdr", [large_bags / "instances.csv"], large_bags / "targets.csv"),
    ):
        sources = [arg for path in instances for arg in ("--instances", path)]
        for name, extra in (("default", []), ("explicit", EXPLICIT)):
            model = out / "fit-large" / f"{label}-{name}.model.json"
            preds = out / "fit-large" / f"{label}-{name}.predictions.csv"
            model.parent.mkdir(parents=True, exist_ok=True)
            _cli("fit", "--model", kind, *sources, "--targets", targets, "--out", model, *extra)
            _cli("predict", "--model-file", model, *sources, "--out", preds)
            files += [model, preds]
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
    """The first output line: the thread setting and the numeric libraries."""
    # imported here: distreg must read DISTREG_THREADS before numpy loads
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("DISTREG_THREADS") or "(unset)"
    return (
        f"# DISTREG_THREADS={threads} numpy {np.__version__} scipy {scipy.__version__} "
        f"BLAS {blas.get('name')} {blas.get('version')}"
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
