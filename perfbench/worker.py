"""One workload in its own process: set up, say READY, measure, check, report.

Started by ``run.py``; not meant to be run by hand. The parent times the
interval from process start to the READY line as set-up time. The result
(and, when tracing, the span file) is written to the paths the parent gives.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle

# Tolerances fixed by the benchmark. A recorded reference or an earlier
# repeat of the same trial must agree to REF_*; the independent numpy oracle,
# whose arithmetic differs (LU vs Cholesky, summation order), to ORACLE_*.
REF_RTOL, REF_ATOL = 1e-7, 1e-10
ORACLE_RTOL, ORACLE_ATOL = 1e-6, 1e-9
MAX_MESSAGES = 20


def _fingerprint(root: Path, dr, threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "distreg_threads": threads,
        "tile": dr.kernels.TILE,
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _match(a, b, rtol, atol) -> bool:
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_match(x, y, rtol, atol) for x, y in zip(a, b))
    return oracle.close(float(a), float(b), rtol, atol)


class Checker:
    """Correctness of every sub-operation's record.

    Fails on: sanity invariants; departure from the seed's recorded reference
    (exact fields equal, close fields within REF_*); the first occurrence of
    a label departing from the oracle (ORACLE_*); a repeat departing from the
    first occurrence (REF_*). Byte-identity is only counted.
    """

    def __init__(self, parts, references: dict):
        self.parts = {label: part for part in parts for label in part.labels()}
        self.references = references
        self.first: dict[str, dict] = {}
        self.counts = {"reference_checked": 0, "oracle_checked": 0, "repeat_checked": 0,
                       "byte_compared": 0, "byte_identical": 0}

    def _compare(self, what, label, got, want, rtol, atol) -> list[str]:
        errors = []
        for key, value in want.get("exact", {}).items():
            if json.dumps(got["exact"][key], sort_keys=True) != json.dumps(value, sort_keys=True):
                errors.append(f"{label}: {key} {got['exact'][key]!r} != {what} {value!r}")
        for key, value in want.get("close", {}).items():
            if not _match(got["close"][key], value, rtol, atol):
                shown = value if not isinstance(value, list) else "[...]"
                errors.append(f"{label}: {key} departs from {what} ({shown!r}) beyond rtol={rtol:g}")
        for key, value in want.get("bytes", {}).items():
            self.counts["byte_compared"] += 1
            self.counts["byte_identical"] += got["bytes"][key] == value
        return errors

    def check(self, label: str, record: dict) -> list[str]:
        part = self.parts[label]
        errors = part.sanity(label, record)
        if label in self.references:
            self.counts["reference_checked"] += 1
            errors += self._compare("reference", label, record, self.references[label], REF_RTOL, REF_ATOL)
        if label in self.first:
            self.counts["repeat_checked"] += 1
            errors += self._compare("first run", label, record, self.first[label], REF_RTOL, REF_ATOL)
        else:
            self.first[label] = record
            self.counts["oracle_checked"] += 1
            expected = {"close": part.oracle(label, record)}
            errors += self._compare("oracle", label, record, expected, ORACLE_RTOL, ORACLE_ATOL)
        return errors


def measure(parts, seconds: float, trace, checker, min_ops: int) -> dict:
    """Run operations until the next one would end past ``seconds``.

    With ``trace``, operations alternate untraced / traced, starting untraced;
    end-to-end samples come only from untraced operations.
    """
    untraced, traced, op_wall = [], [], []
    sub_samples: dict[str, list[float]] = {}
    attempted = failed = 0
    messages: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= min_ops and elapsed + statistics.median(op_wall) > seconds:
            break
        traced_op = trace is not None and index % 2 == 1
        root = trace.begin_op(f"op{index}") if traced_op else None
        scope = trace.scope if traced_op else (lambda label: None)
        w0 = time.perf_counter()
        total, ok, results = 0.0, True, []
        try:
            for part in parts:
                for label, outcome, record in part.run(index // (2 if trace else 1), scope):
                    attempted += 1
                    if isinstance(outcome, BaseException):
                        failed += 1
                        ok = False
                        messages.append(f"{label}: {type(outcome).__name__}: {outcome}")
                        traceback.print_exception(outcome, file=sys.stderr)
                        continue
                    total += outcome
                    results.append((label, outcome, record))
        finally:
            if traced_op:
                trace.end_op(root)
        # a wrong output fails the operation but its timing still stands
        for label, seconds_taken, record in results:
            errors = checker.check(label, record)
            if errors:
                failed += 1
                messages.extend(errors)
            if not traced_op:
                sub_samples.setdefault(label.split("/")[0], []).append(seconds_taken)
        if ok:
            (traced if traced_op else untraced).append(total)
        op_wall.append(time.perf_counter() - w0)
        index += 1
    return {"untraced": untraced, "traced": traced, "sub_samples": sub_samples,
            "attempted": attempted, "failed": failed, "messages": messages[:MAX_MESSAGES],
            "measured_s": time.perf_counter() - start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout root holding src/distreg")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", help="JSON result file to write")
    ap.add_argument("--trace-file", help="span file to write when tracing")
    ap.add_argument("--record", help="write this run's first records as references here")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import distreg as dr
    import distreg.cli  # noqa: F401  (part of set-up: the CLI workloads import it)

    if not Path(dr.__file__).resolve().is_relative_to(root / "src"):
        print(f"distreg was imported from {dr.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parts = WORKLOADS[args.workload]()
    workdir = root / "perfbench" / "out" / f"work-{os.getpid()}"
    try:
        for part in parts:
            part.setup(dr, args.seed, workdir)
        for part in parts:
            part.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return _measure_and_report(args, root, dr, parts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_and_report(args, root, dr, parts) -> int:
    ref_path = root / "perfbench" / "references" / f"{args.workload}.json"
    references = {}
    if ref_path.exists() and args.record is None:
        references = json.loads(ref_path.read_text()).get(str(args.seed), {})
    checker = Checker(parts, references)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.workload)
    cycle = max(part.cycle for part in parts)
    min_ops = cycle if args.record else (2 if tracer else 1)
    seconds = 0.0 if args.record else args.seconds

    run = measure(parts, seconds, tracer, checker, min_ops)
    samples = run["untraced"]
    if not samples or (tracer and not run["traced"]):
        for message in run["messages"]:
            print(f"failed: {message}", file=sys.stderr)
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1
    if args.record:
        if run["failed"]:
            print("refusing to record references from a run with failures", file=sys.stderr)
            return 1
        Path(args.record).write_text(json.dumps(checker.first, sort_keys=True, indent=1) + "\n")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": _fingerprint(root, dr, os.environ.get("DISTREG_THREADS", "")),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "messages": run["messages"],
        "checks": checker.counts,
        "measured_s": run["measured_s"],
        "samples": {"trial_s": samples, **run["sub_samples"]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["traced_samples"] = run["traced"]
        result["layers"] = tracer.layer_metrics(statistics.median(samples), statistics.median(run["traced"]))
        if args.trace_file:
            tracer.write(args.trace_file, result["layers"], {"seed": args.seed,
                                                              "fingerprint": result["fingerprint"]})
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
