"""Command-line front end: experiments, synthetic data, MMD tests, fit/predict.

Subcommands: ``run``, ``synth``, ``mmd``, ``fit``, ``predict``. Outputs that
are machine-readable (report JSON, CSV tables, predictions, model files) are
byte-identical across reruns with the same inputs and seed; timings only ever
go to the log.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _workers
from .data import _DOMAINS, _atomic_write, _check, _read_json, align_sources, load_bags, load_sample, save_bags
from .evaluate import render_table, report_to_dict, reports_to_csv, run_protocol
from .kernels import RbfParams, _length_scale, median_heuristic, mmd_permutation_test
from .models import (
    _AXES,
    HYPER_AXES,
    MODEL_KINDS,
    MULTISOURCE_KINDS,
    _grid_values,
    _SourceError,
    _centred,
    _fit,
    _median_sigmas,
    _normalize,
    _spec,
    load_model,
    predict_model,
    save_model,
)
from .synth import (
    GALLERY_SCENARIOS,
    make_mean_task,
    make_multisource_task,
    make_two_sample_pair,
    make_variance_task,
)

logger = logging.getLogger("distreg.cli")

SYNTH_KINDS = ("variance-task", "mean-task", "multisource-task", "two-sample-gallery")


_REQUIRED = object()
# Each key of a ``run`` config: (its domain in ``_DOMAINS``, its default or
# _REQUIRED). A key with a scalar default is also a ``run`` flag that
# overrides it. A config plus its data files reproduces a run byte-for-byte.
_RUN_KEYS = {
    "instances": ("strs", _REQUIRED),
    "targets": ("str", _REQUIRED),
    "models": ("strs", _REQUIRED),
    "test_fraction": ("real(0,1)", 0.25),
    "trials": ("int>=1", 10),
    "folds": ("int>=2", 5),
    "seed": ("int>=0", 0),
    "out": ("str", "results"),
    "grid": ("object", None),
}


def _load_config(path) -> dict:
    """The ``run`` config at ``path``, each key checked against its domain
    (and each grid key's values against their axis), every key it omits at
    its default."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_RUN_KEYS)
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    missing = [key for key, (_, default) in _RUN_KEYS.items() if default is _REQUIRED and key not in raw]
    if missing:
        raise ValueError(f"config {path}: missing required key {missing[0]!r}")
    config = {
        key: _check(domain, raw[key], f"config {path}: key {key!r}") if key in raw else default
        for key, (domain, default) in _RUN_KEYS.items()
    }
    try:
        config["grid"] = {key: _grid_values(key, values) for key, values in (config["grid"] or {}).items()}
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return config


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_write(path) as fh:
        fh.write(text)


def _csv_field(value: str) -> str:
    """``value`` as one CSV field: quoted when it holds a comma, a quote or a
    line break (csv.writer with a "\n" line end leaves "\r" bare)."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _load_dataset(instance_paths: list[str], targets_path: str | None, multi: bool):
    datasets = [load_bags(p, targets_path) for p in instance_paths]
    try:  # targets that no fit can centre
        _centred(datasets[0].targets)
    except ValueError as exc:
        raise ValueError(f"{targets_path}: {exc}") from None
    return align_sources(datasets) if multi else datasets[0]


@contextlib.contextmanager
def _naming_sources(instance_paths: list[str]):
    """Prefix a data error in one source with that source's instances file."""
    try:
        yield
    except _SourceError as exc:
        raise ValueError(f"{instance_paths[exc.source]}: {exc}") from None


def _check_source_count(owner: str, n_files: int, n_sources: int | None) -> None:
    """Reject a number of instance files that does not match the sources a
    model reads: exactly ``n_sources``, or at least two when it is None (a
    multisource kind before fitting)."""
    if n_files == n_sources or (n_sources is None and n_files > 1):
        return
    need = {None: "at least 2 sources", 1: "exactly one source"}.get(n_sources, f"exactly {n_sources} sources")
    raise ValueError(f"{owner} needs {need}, got {n_files} instance file(s)")


def _check_kind(kind: str, n_files: int) -> None:
    _spec(kind)  # rejects unknown kinds
    _check_source_count(f"model kind {kind!r}", n_files, None if kind in MULTISOURCE_KINDS else 1)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    config.update((key, value) for key, value in vars(args).items() if key in _RUN_KEYS and value is not None)
    for kind in config["models"]:
        _check_kind(kind, len(config["instances"]))
    data = _load_dataset(config["instances"], config["targets"], len(config["instances"]) > 1)

    reports = []
    for kind in config["models"]:
        logger.info("running protocol for %s", kind)
        with _naming_sources(config["instances"]):
            reports.append(run_protocol(data, kind, test_fraction=config["test_fraction"], trials=config["trials"],
                                        k=config["folds"], seed=config["seed"], grid_options=config["grid"] or None))
    # moved into place once every kind has run and every file is whole: a failed run leaves --out as it was
    out_dir, table = Path(config["out"]), render_table(reports)
    texts = {f"report_{r.kind}.json": json.dumps(report_to_dict(r), sort_keys=True, separators=(",", ":")) + "\n"
             for r in reports} | {"table.txt": table + "\n", "table.csv": reports_to_csv(reports)}
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as files:
        for name, text in texts.items():
            files.enter_context(_atomic_write(out_dir / name)).write(text)
    print(table)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # the data (or its first part) is generated before --out is created
    out_dir = Path(args.out)
    if args.kind == "variance-task":
        data = make_variance_task(args.bags, args.bag_size, args.dim, args.seed)
    elif args.kind == "mean-task":
        try:
            data = make_mean_task(args.bags, args.bag_size, args.dim, args.noise, args.seed)
        except ValueError as exc:  # the noise that makes the targets overflow
            raise ValueError(f"--{exc}") from None
    elif args.kind == "multisource-task":
        data = make_multisource_task(args.bags, seed=args.seed)
    else:  # one pair at a time: the first before --out is created
        pair = make_two_sample_pair(GALLERY_SCENARIOS[0], args.samples, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind in ("variance-task", "mean-task"):
        save_bags(data, out_dir / "instances.csv", out_dir / "targets.csv")
        print(f"wrote {out_dir / 'instances.csv'} and {out_dir / 'targets.csv'}")
    elif args.kind == "multisource-task":
        save_bags(data.sources[0], out_dir / "source1_instances.csv", out_dir / "targets.csv")
        save_bags(data.sources[1], out_dir / "source2_instances.csv", out_dir / "targets.csv")
        print(
            f"wrote {out_dir / 'source1_instances.csv'}, "
            f"{out_dir / 'source2_instances.csv'} and {out_dir / 'targets.csv'}"
        )
    else:
        for scenario in GALLERY_SCENARIOS:
            if scenario != GALLERY_SCENARIOS[0]:
                pair = make_two_sample_pair(scenario, args.samples, args.seed)
            for name, sample in zip("xy", pair):
                text = "\n".join(",".join(repr(float(v)) for v in row) for row in sample) + "\n"
                _write_text(out_dir / f"gallery_{scenario}_{name}.csv", text)
        print(f"wrote gallery_[{'|'.join(GALLERY_SCENARIOS)}]_[x|y].csv under {out_dir}")
    return 0


def cmd_mmd(args: argparse.Namespace) -> int:
    params = None if args.sigma is None else RbfParams(_length_scale(args.sigma, "--sigma"))
    x = load_sample(args.sample_x)
    y = load_sample(args.sample_y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {args.sample_x} has d={x.shape[1]}, "
            f"{args.sample_y} has d={y.shape[1]}"
        )
    try:  # samples whose squared distances overflow
        if params is None:
            params = RbfParams(median_heuristic(np.vstack([x, y])))
        result = mmd_permutation_test(x, y, params, n_permutations=args.permutations, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"{args.sample_x}, {args.sample_y}: {exc}") from None
    print(f"sigma: {params.sigma!r}")
    print(f"mmd2: {result.statistic!r}")
    print(f"null_q95: {result.null_q95!r}")
    print(f"null_q99: {result.null_q99!r}")
    print(f"p_value: {result.p_value!r}")
    print(f"permutations: {result.n_permutations}")
    return 0


def _hyper_from_args(args: argparse.Namespace, kind: str) -> dict:
    """The hyperparameters of ``kind`` from their ``fit`` flags, checked
    against their axes (errors name the flag), else the flags' defaults; one
    whose default is the median heuristic is left out. A flag of an axis
    ``kind`` does not have is ignored with a warning."""
    keys = ("lam",) + HYPER_AXES[kind]
    hyper = {}
    for key, axis in _AXES.items():
        value = getattr(args, key)
        if value is None:
            if key in keys and axis.default is not None:
                hyper[key] = axis.default
        elif key not in keys:
            logger.warning("%s is not a hyperparameter of model kind %r; ignored", axis.flag, kind)
        else:
            hyper[key] = axis.check(value, axis.flag, len(args.instances))
    return hyper


def cmd_fit(args: argparse.Namespace) -> int:
    kind = args.model
    _check_kind(kind, len(args.instances))
    hyper = _hyper_from_args(args, kind)
    data = _load_dataset(args.instances, args.targets, kind in MULTISOURCE_KINDS)
    with _naming_sources(args.instances):
        # normalized once: the median heuristic and the fit read the same data
        normalized, normalizers = _normalize(data)
        if any(key not in hyper for key in HYPER_AXES[kind]):
            hyper = {**_median_sigmas(kind, normalized), **hyper}
        model = replace(_fit(kind, normalized, hyper), normalizers=normalizers)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model_file)
    _check_source_count(
        f"model file {args.model_file} (kind {model.kind!r})", len(args.instances), model.n_sources
    )
    data = _load_dataset(args.instances, None, model.kind in MULTISOURCE_KINDS)
    predictions = predict_model(model, data)
    lines = ["bag_id,y_pred"]
    for bag_id, value in zip(data.bag_ids, predictions):
        lines.append(f"{_csv_field(bag_id)},{float(value)!r}")
    _write_text(Path(args.out), "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def _flag(parser: argparse.ArgumentParser, flag: str, domain: str, help: str, **kwargs) -> None:
    """Add ``flag`` to ``parser``: a value of ``domain``, whose text is read
    as the int or float, or for one value per source the comma-separated
    floats, that the domain holds (text that does not read stays text).
    ``main`` checks it (``_check``, naming the flag) before the command
    runs, and its help opens with the domain's text."""
    number = int if domain.startswith("int") else float

    def read(text: str):
        try:
            return [number(part) for part in text.split(",")] if domain == "reals>0" else number(text)
        except ValueError:
            return text

    action = parser.add_argument(flag, type=str if domain == "str" else read,
                                 help=f"{_DOMAINS[domain][0]}; {help}", **kwargs)
    parser.set_defaults(checks={**(parser.get_default("checks") or {}), action.dest: (flag, domain)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Distribution regression over bags of feature vectors.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the evaluation protocol from a config file")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    for key, (domain, default) in _RUN_KEYS.items():
        if isinstance(default, (int, float, str)):
            _flag(p_run, "--" + key.replace("_", "-"), domain, f"overrides the config's {key!r} (default: {default})",
                  dest=key)
    p_run.add_argument("--model", dest="models", action="append", metavar="KIND",
                       help=f"model kind to run (repeatable); one of {', '.join(MODEL_KINDS)}")
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate synthetic datasets")
    p_synth.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p_synth.add_argument("--out", required=True, help="output directory")
    _flag(p_synth, "--seed", "int>=0", "default: 0", default=0)
    _flag(p_synth, "--bags", "int>=1", "default: 120", default=120)
    _flag(p_synth, "--bag-size", "int>=1", "default: 50", default=50)
    _flag(p_synth, "--dim", "int>=1", "default: 3", default=3)
    _flag(p_synth, "--noise", "real>=0", "default: 0.0", default=0.0)
    _flag(p_synth, "--samples", "int>=1", "two-sample gallery size (default: 2000)", default=2000)
    p_synth.set_defaults(func=cmd_synth)

    p_mmd = sub.add_parser("mmd", help="two-sample permutation test on instance CSVs")
    p_mmd.add_argument("sample_x", help="headerless CSV of instances")
    p_mmd.add_argument("sample_y", help="headerless CSV of instances")
    _flag(p_mmd, "--sigma", "real>0", "RBF length-scale (default: median heuristic)")
    _flag(p_mmd, "--permutations", "int>=1", "default: 200", default=200)
    _flag(p_mmd, "--seed", "int>=0", "default: 0", default=0)
    p_mmd.set_defaults(func=cmd_mmd)

    p_fit = sub.add_parser("fit", help="fit one model and save it")
    p_fit.add_argument("--model", required=True, metavar="KIND")
    p_fit.add_argument("--instances", action="append", required=True, help="instances CSV (repeat per source)")
    p_fit.add_argument("--targets", required=True)
    p_fit.add_argument("--out", required=True, help="model file to write")
    for key, axis in _AXES.items():
        note = ", comma-separated" if axis.domain == "reals>0" else ""
        default = "median heuristic" if axis.default is None else axis.default
        _flag(p_fit, axis.flag, axis.domain, f"hyperparameter {key!r}{note} (default: {default})", dest=key)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict with a saved model")
    p_pred.add_argument("--model-file", required=True)
    p_pred.add_argument("--instances", action="append", required=True, help="instances CSV (repeat per source)")
    p_pred.add_argument("--out", required=True, help="predictions CSV to write")
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    _workers()  # a DISTREG_THREADS that is not a count is named in the common form
    try:
        for dest, (flag, domain) in getattr(args, "checks", {}).items():
            if getattr(args, dest) is not None:
                setattr(args, dest, _check(domain, getattr(args, dest), flag))
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, the shell's convention


if __name__ == "__main__":
    sys.exit(main())
