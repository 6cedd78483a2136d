"""distreg benchmark: seeded workloads, end-to-end timings, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload variance-exact --seed 0 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload, a table
    python3 perfbench/run.py --record-references              # at a trusted commit only

Each workload runs in its own worker process (``worker.py``), started one
at a time with BLAS threads fixed by DISTREG_THREADS (default: 2, never more
than the CPUs this process may use). Set-up time is measured by starting the
worker several times and timing each start up to its READY line. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Everything else, with the machine
fingerprint, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE_SEEDS = (0, 1)
SETUP_STARTS = 4  # worker starts per untraced run whose set-up time is timed
RUN_TIMEOUT_S = 170  # wall limit for one worker


def _threads() -> str:
    cpus = len(os.sched_getaffinity(0))
    raw = os.environ.get("DISTREG_THREADS", "").strip()
    wanted = int(raw) if raw.isdigit() and raw != "0" else 2
    return str(max(1, min(wanted, cpus)))


def _worker_env(threads: str) -> dict:
    env = dict(os.environ, DISTREG_THREADS=threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)  # the worker imports distreg from this checkout's src/ only
    return env


def _start_worker(argv: list[str], env: dict, deadline: float):
    """Start a worker; return (process, seconds from start to its READY line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *argv],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, ready


def _stop(proc, deadline: float) -> int:
    """Wait for a worker, draining its stdout; kill it at the deadline."""
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded its time limit and was killed")
    return proc.returncode


def run_workload(name: str, seed: int, seconds: float, trace: int, record: Path | None = None) -> dict:
    """Run one workload in worker processes and return its result document."""
    OUT.mkdir(exist_ok=True)
    threads = _threads()
    env = _worker_env(threads)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_STARTS - 1 if not (trace or record) else 0):
        proc, ready = _start_worker(common + ["--setup-only"], env, deadline)
        if _stop(proc, deadline) != 0:
            raise RuntimeError(f"{name}: set-up-only worker failed")
        setups.append(ready)
    tag = f"{name}-seed{seed}-trace{trace}"
    result_path = OUT / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    extra = ["--result", str(result_path), "--trace-file", str(OUT / f"trace-{tag}.json")]
    if record:
        extra += ["--record", str(record)]
    proc, ready = _start_worker(common + extra, env, deadline)
    setups.append(ready)
    code = _stop(proc, deadline)
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"{name}: worker exited with code {code}")
    result = json.loads(result_path.read_text())
    result["samples"]["setup_s"] = setups
    result["metrics"] = _end_to_end(result) if not trace else result.pop("layers")
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def _end_to_end(result: dict) -> dict:
    return {
        "trial_s": {"value": statistics.median(result["samples"]["trial_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(result["samples"]["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def tail(samples: list[float]):
    """Highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def describe(result: dict) -> list[str]:
    """Human-readable lines: every sample set as median, count and tail percentile."""
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"error_rate={result['failed'] / max(1, result['attempted']):.4g}"]
    for name, samples in result["samples"].items():
        t = tail(samples)
        extra = f" p{t[0]:g}={t[1]:.4f}" if t else ""
        lines.append(f"#   {name:<16} median={statistics.median(samples):.4f} s n={len(samples)}{extra}")
    lines.append(f"#   {'peak_rss_mb':<16} {result['peak_rss_mb']:.1f} MB n=1")
    lines.append(f"#   checks {json.dumps(result['checks'])}")
    lines.append(f"#   fingerprint {json.dumps(result['fingerprint'])}")
    for message in result["messages"]:
        lines.append(f"#   FAILED {message}")
    return lines


def _workload_names() -> list[str]:
    return [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]


def run_all(seed: int, seconds: float, trace: int, out: Path | None) -> int:
    """Every workload, one after another; prints one table and writes a BENCH file."""
    results = {}
    for name in _workload_names():
        results[name] = run_workload(name, seed, seconds, trace)
        print("\n".join(describe(results[name])), flush=True)
    print(f"\n{'workload':<16} {'metric':<36} {'median':>14} {'unit':<6} {'n':>3}  tail")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            samples = result["samples"].get(metric, [])
            t = tail(samples)
            print(f"{name:<16} {metric:<36} {m['value']:>14.6g} {m['unit']:<6} {len(samples) or '-':>3}  "
                  + (f"p{t[0]:g}={t[1]:.4f}" if t else "-"))
        rate = result["failed"] / max(1, result["attempted"])
        print(f"{name:<16} {'error_rate':<36} {rate:>14.6g} {'ratio':<6} {result['attempted']:>3}  -")
    doc = {"seed": seed, "seconds": seconds, "trace": trace, "results": results}
    path = out or OUT / f"BENCH_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def record_references() -> int:
    """Record reference outputs for REFERENCE_SEEDS; run only at a trusted commit."""
    ref_dir = HERE / "references"
    ref_dir.mkdir(exist_ok=True)
    for name in _workload_names():
        doc = {}
        for seed in REFERENCE_SEEDS:
            tmp = OUT / f"record-{name}-{seed}.json"
            run_workload(name, seed, 0, 0, record=tmp)
            doc[str(seed)] = json.loads(tmp.read_text())
            tmp.unlink()
        (ref_dir / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"recorded {name} for seeds {list(REFERENCE_SEEDS)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="distreg benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, 'micro' (smoke test) or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="BENCH file written by --workload all")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "distreg" / "__init__.py").is_file():
        print(f"error: no distreg sources under {ROOT / 'src'}; run from a distreg checkout", file=sys.stderr)
        return 2
    try:
        if args.record_references:
            return record_references()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace, args.out)
        if args.workload not in _workload_names() + ["micro"]:
            ap.error(f"unknown workload {args.workload!r}")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
