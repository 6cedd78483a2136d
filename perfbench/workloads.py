"""The benchmark's workloads: seeded inputs, the timed operations, their checks.

A workload is a list of parts; one *operation* runs every part once. A
protocol part runs one ``run_protocol`` trial per model kind; a CLI part runs
``fit`` -> ``predict`` -> ``mmd`` through ``distreg.cli.main``. The library
only ever receives the generated datasets or CSV files; the workload seed
picks the data and the protocol's base seed.

Every sub-operation yields a *record* of what the user would see: values
that must match exactly (``exact``), values that must match within a
tolerance (``close``) and hashes of files whose byte-identity is counted but
never failed (``bytes``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import oracle

# Distinct protocol trials per run: operation i runs trial i % CYCLE, so a run
# longer than CYCLE operations repeats trials and checks them for identity.
CYCLE = 4
TEST_FRACTION = oracle.TEST_FRACTION
MICRO_GRID = {"lams": [1e-3, 1e-1], "sigma_scales": [1.0], "n_features": [16]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ProtocolPart:
    """One protocol trial per kind on one dataset (5-fold CV by default)."""

    def __init__(self, kinds, make, k=5, grid_options=None):
        self.kinds = tuple(kinds)
        self.make = make
        self.k = k
        self.grid_options = grid_options
        self.cycle = CYCLE

    def labels(self) -> list[str]:
        return [f"{kind}/t{t}" for t in range(self.cycle) for kind in self.kinds]

    def setup(self, dr, seed: int, workdir: Path) -> None:
        self.dr = dr
        self.seed = seed
        self.data = self.make(dr, seed)

    def warmup(self) -> None:
        micro = self.make(self.dr, self.seed, micro=True)
        for kind in self.kinds:
            self.dr.run_protocol(micro, kind, trials=1, k=2, seed=self.seed, grid_options=MICRO_GRID)

    def run(self, index: int, scope):
        t = index % self.cycle
        for kind in self.kinds:
            label = f"{kind}/t{t}"
            scope(label)
            t0 = time.perf_counter()
            try:
                report = self.dr.run_protocol(
                    self.data, kind, trials=1, k=self.k, seed=self.seed + t,
                    test_fraction=TEST_FRACTION, grid_options=self.grid_options,
                )
            except Exception as exc:  # an operation failure is counted, not fatal
                yield label, exc, None
                continue
            seconds = time.perf_counter() - t0
            trial = report.trials[0]
            text = json.dumps(self.dr.report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"
            yield label, seconds, {
                "exact": {"chosen": trial.chosen},
                "close": {"me": trial.metrics.me, "rmse": trial.metrics.rmse, "r2": trial.metrics.r2},
                "bytes": {"report_json": _sha(text.encode())},
            }

    def sanity(self, label: str, record: dict) -> list[str]:
        """Output invariants that hold for any seed."""
        close = record["close"]
        if not (np.isfinite(close["rmse"]) and close["rmse"] >= 0 and np.isfinite(close["me"])):
            return [f"{label}: held-out metrics are not finite: {close}"]
        return []

    def oracle(self, label: str, record: dict) -> dict:
        """Oracle values for the record's ``close`` fields: refit + held-out predict."""
        kind, t = label.split("/t")
        data = self.data
        train_idx, test_idx = oracle.split(data.n_bags, TEST_FRACTION, self.seed + int(t))
        chosen = record["exact"]["chosen"]
        weights = None
        if kind in ("lr", "kr", "kdr", "rdr"):
            bags = [b.instances for b in data.bags]
            train, test = [bags[i] for i in train_idx], [bags[i] for i in test_idx]
            if kind == "rdr":
                weights = self.dr.sample_basis(
                    data.dim, int(chosen["n_features"]), float(chosen["sigma"]), int(chosen["rff_seed"])
                ).weights
        else:
            sources = [[b.instances for b in src.bags] for src in data.sources]
            train = [[s[i] for i in train_idx] for s in sources]
            test = [[s[i] for i in test_idx] for s in sources]
        y = data.targets
        pred = oracle.predict(kind, train, y[train_idx], test, chosen, weights)
        return oracle.metrics(y[test_idx], pred)


class CliPart:
    """``fit --model kdr`` -> ``predict`` -> ``mmd`` on CSVs written at set-up."""

    def __init__(self, n_bags=120, bag_size=50, dim=3, samples=2000, permutations=200):
        self.shape = (n_bags, bag_size, dim)
        self.samples = samples
        self.permutations = permutations
        self.cycle = 1

    def labels(self) -> list[str]:
        return ["fit", "predict", "mmd"]

    def _write(self, dr, seed, workdir, shape, samples):
        workdir.mkdir(parents=True, exist_ok=True)
        data = dr.make_variance_task(*shape, seed)
        paths = {name: str(workdir / name) for name in
                 ("instances.csv", "targets.csv", "model.json", "preds.csv", "x.csv", "y.csv")}
        dr.save_bags(data, paths["instances.csv"], paths["targets.csv"])
        x, y = dr.make_two_sample_pair("c", samples, seed)
        for name, sample in (("x.csv", x), ("y.csv", y)):
            Path(paths[name]).write_text(
                "\n".join(",".join(repr(float(v)) for v in row) for row in sample) + "\n", encoding="utf-8"
            )
        return data, (x, y), paths

    def setup(self, dr, seed: int, workdir: Path) -> None:
        import distreg.cli

        self.dr, self.main = dr, distreg.cli.main
        self.data, self.pair, self.paths = self._write(dr, seed, workdir / "cli", self.shape, self.samples)
        self.micro_paths = self._write(dr, seed, workdir / "cli-micro", (6, 5, 3), 30)[2]

    def _commands(self, p, permutations):
        return (
            ("fit", ["fit", "--model", "kdr", "--instances", p["instances.csv"],
                     "--targets", p["targets.csv"], "--out", p["model.json"]]),
            ("predict", ["predict", "--model-file", p["model.json"],
                         "--instances", p["instances.csv"], "--out", p["preds.csv"]]),
            ("mmd", ["mmd", p["x.csv"], p["y.csv"], "--permutations", str(permutations)]),
        )

    def warmup(self) -> None:
        for _, argv in self._commands(self.micro_paths, 5):
            with contextlib.redirect_stdout(io.StringIO()):
                self.main(argv)

    def run(self, index: int, scope):
        for label, argv in self._commands(self.paths, self.permutations):
            scope(label)
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = self.main(argv)
            except Exception as exc:  # the CLI should never raise; count it
                yield label, exc, None
                continue
            seconds = time.perf_counter() - t0
            if rc != 0:
                yield label, RuntimeError(f"distreg {label} exited with {rc}"), None
                continue
            yield label, seconds, self._record(label, out.getvalue())

    def _record(self, label: str, stdout: str) -> dict:
        if label == "fit":
            model = json.loads(Path(self.paths["model.json"]).read_text(encoding="utf-8"))
            return {"exact": {"kind": model["kind"]},
                    "close": {"sigma": model["kernel_params"][0], "lam": model["solution"]["lam"]},
                    "bytes": {}}
        if label == "predict":
            raw = Path(self.paths["preds.csv"]).read_bytes()
            rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
            return {"exact": {"bag_ids": [r[0] for r in rows]},
                    "close": {"predictions": [float(r[1]) for r in rows]},
                    "bytes": {"predictions_csv": _sha(raw)}}
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        return {"exact": {"p_value": float(fields["p_value"]), "permutations": int(fields["permutations"])},
                "close": {"statistic": float(fields["mmd2"]), "sigma": float(fields["sigma"])},
                "bytes": {}}

    def oracle(self, label: str, record: dict) -> dict:
        x, y = self.pair
        if label == "mmd":
            sigma = oracle.median_heuristic(np.vstack([x, y]))
            return {"sigma": sigma, "statistic": oracle.mmd2(x, y, sigma)}
        bags = [b.instances for b in self.data.bags]
        sigma = oracle.median_heuristic(np.concatenate(oracle.normalize(bags, oracle.normalizer(bags))))
        if label == "fit":
            return {"sigma": sigma, "lam": 1e-3}
        pred = oracle.predict("kdr", bags, self.data.targets, bags, {"sigma": sigma, "lam": 1e-3})
        return {"predictions": pred.tolist()}

    def sanity(self, label: str, record: dict) -> list[str]:
        """Output invariants that hold for any seed."""
        if label == "mmd":
            p, n = record["exact"]["p_value"], record["exact"]["permutations"]
            k = p * (n + 1)
            if n != self.permutations or abs(k - round(k)) > 1e-9 or not 1 <= round(k) <= n + 1:
                return [f"mmd p-value {p!r} is not j/(P+1) with P={self.permutations}"]
        if label == "predict" and record["exact"]["bag_ids"] != list(self.data.bag_ids):
            return ["predict: bag ids differ from the instances file"]
        return []


def _variance(dr, seed, micro=False):
    return dr.make_variance_task(*((12, 10, 3) if micro else (120, 50, 3)), seed)


def _multisource(dr, seed, micro=False):
    return dr.make_multisource_task(12 if micro else 120, seed=seed)


def _micro_variance(dr, seed, micro=True):
    return _variance(dr, seed, micro=True)


def _micro_multisource(dr, seed, micro=True):
    return _multisource(dr, seed, micro=True)


# name -> factory of the workload's parts; why each exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "variance-exact": lambda: [ProtocolPart(("lr", "kr", "kdr"), _variance)],
    "variance-rff": lambda: [ProtocolPart(("rdr",), _variance)],
    "multisource": lambda: [ProtocolPart(("mdr", "stacked-kdr"), _multisource)],
    "cli-io": lambda: [CliPart()],
    # harness smoke test only: every layer, tiny sizes, 2 folds, 2-point grids
    "micro": lambda: [
        ProtocolPart(("lr", "kr", "kdr", "rdr"), _micro_variance, k=2, grid_options=MICRO_GRID),
        ProtocolPart(("mdr", "stacked-kdr"), _micro_multisource, k=2, grid_options=MICRO_GRID),
        CliPart(n_bags=12, bag_size=10, samples=100, permutations=20),
    ],
}
