"""End-to-end command-line behavior: run, synth, mmd, fit, predict."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import distreg.cli as cli
import distreg.kernels as kernels
from conftest import with_workers
from distreg import load_bags
from distreg.cli import build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def variance_files(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--kind", "variance-task", "--out", out,
                   "--bags", "30", "--bag-size", "8", "--dim", "2", "--seed", "5") == 0
    return out / "instances.csv", out / "targets.csv"


@pytest.fixture
def run_config(tmp_path, variance_files):
    inst, tgt = variance_files
    config = {
        "instances": [str(inst)],
        "targets": str(tgt),
        "models": ["lr", "kr", "rdr", "kdr"],
        "test_fraction": 0.25,
        "trials": 2,
        "folds": 3,
        "seed": 1,
        "out": str(tmp_path / "results"),
        "grid": {"lams": [1e-4, 1e-2], "sigma_scales": [1.0], "n_features": [32]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, Path(config["out"])


# Every flag that ``main`` checks against a domain, and a command line that
# reaches the check without any input file.
_CHECKED_FLAGS = {
    "run": ({"--test-fraction", "--trials", "--folds", "--seed", "--out"}, ["--config", "missing.json"]),
    "fit": ({"--lam", "--sigma", "--sigmas", "--n-features", "--seed"},
            ["--model", "rdr", "--instances", "missing.csv", "--targets", "missing.csv", "--out", "m.json"]),
    "synth": ({"--seed", "--bags", "--bag-size", "--dim", "--noise", "--samples"},
              ["--kind", "mean-task", "--out", "missing/out"]),
    "mmd": ({"--sigma", "--permutations", "--seed"}, ["missing.csv", "missing.csv"]),
}


def test_help_shows_each_checked_flag_domain(tmp_path, capsys, monkeypatch):
    # help and check both come from the domain table: the help names the
    # domain whose text the check's message gives
    from distreg.data import _DOMAINS

    monkeypatch.chdir(tmp_path)
    (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    for command, (flags, argv) in _CHECKED_FLAGS.items():
        checks = commands[command].get_default("checks")
        assert {flag for flag, _ in checks.values()} == flags
        for action in commands[command]._actions:
            if action.dest in checks:
                flag, domain = checks[action.dest]
                what = _DOMAINS[domain][0]
                assert action.help.startswith(what + "; "), (command, flag, action.help)
                if domain != "str":
                    assert run_cli(command, *argv, f"{flag}=x") == 1
                    assert capsys.readouterr().err == f"error: {flag} must be {what}, got 'x'\n"
    folds = [a for a in commands["run"]._actions if a.dest == "folds"]
    assert folds[0].help.startswith("an integer ≥ 2; ")
    assert not (tmp_path / "missing").exists()


def test_import_leaves_scipy_unloaded():
    # importing scipy would cost more than numpy itself; only the ridge solve
    # needs scipy, and it opens scipy's LAPACK without importing a module
    code = "import distreg.cli, sys; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_package_exports_every_module_name():
    # each module's __all__ is the one list of the package's public names
    import importlib

    import distreg

    for name in ("data", "kernels", "rff", "models", "evaluate", "synth"):
        module = importlib.import_module(f"distreg.{name}")
        for public in module.__all__:
            assert getattr(distreg, public, None) is getattr(module, public), f"distreg.{public}"


@pytest.mark.parametrize("value", ["abc", "-3", "²", None, "", "0", "1", "4096"])
def test_thread_setting_that_is_not_a_count_is_named(value):
    # a value that is not a count still gets every usable CPU, with one
    # warning when the count is first read; unset, empty and 0 do silently,
    # and a count is capped
    env = {k: v for k, v in os.environ.items() if k != "DISTREG_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if value is not None:
        env["DISTREG_THREADS"] = value
    run = subprocess.run([sys.executable, "-c", "import distreg; print(distreg._workers())"],
                         capture_output=True, text=True, env=env, check=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert int(run.stdout) == (1 if value == "1" else cpus)
    if value in ("abc", "-3", "²"):
        assert run.stderr == (
            f"DISTREG_THREADS={value!r} is not a thread count; using {cpus} worker threads\n"
        )
    else:
        assert run.stderr == ""


def test_thread_setting_that_is_not_a_count_is_named_once_by_the_cli(tmp_path):
    # the CLI configures logging before the worker count is first read, so
    # the warning comes once, in the form of every other CLI warning
    env = {**os.environ, "DISTREG_THREADS": "abc"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["synth", "--kind", "mean-task", "--bags", "2", "--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-m", "distreg.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert run.stderr == (
        f"WARNING distreg: DISTREG_THREADS='abc' is not a thread count; using {cpus} worker threads\n"
    )


@pytest.mark.parametrize("command", ["fit", "mmd"])
def test_interrupt_is_one_error_line(tmp_path, variance_files, capsys, monkeypatch, command):
    # Ctrl-C on a worker thread of the tile engine (fit) or of the MMD's
    # pooled block work (mmd) ends the command with one line and code 130
    inst, tgt = variance_files
    if command == "fit":
        argv = ["fit", "--model", "kdr", "--instances", inst, "--targets", tgt, "--sigma", "1",
                "--out", tmp_path / "model.json"]
        monkeypatch.setattr(kernels, "TILE", 64)  # 240 rows in 4 chunks: 10 chunk pairs
    else:
        x = np.random.default_rng(3).standard_normal((40, 2))
        np.savetxt(tmp_path / "x.csv", x[:20], delimiter=",")
        np.savetxt(tmp_path / "y.csv", x[20:], delimiter=",")
        argv = ["mmd", tmp_path / "x.csv", tmp_path / "y.csv", "--sigma", "1"]
        monkeypatch.setattr(kernels, "_SLICE", 16 * 40)  # row slices of 16 rows
    calls, sq_distances, pool_in = [], kernels._sq_distances, threading.Event()

    def interrupted_on_a_worker(*args):
        # the calling thread pulls items too: it computes as it would once a
        # pool thread has pulled one, so that the interrupt comes from a pool
        # thread every time
        calls.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            assert pool_in.wait(10)
            return sq_distances(*args)
        pool_in.set()
        raise KeyboardInterrupt

    monkeypatch.setattr(kernels, "_sq_distances", interrupted_on_a_worker)
    capsys.readouterr()
    assert with_workers(2, run_cli, *argv) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and captured.out == ""
    assert any(name.startswith("distreg") for name in calls), calls
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["fit", "run", "mmd", "synth"])
def test_allocation_failure_is_one_error_line(tmp_path, variance_files, capsys, command):
    # sizes in PiB exceed any address space, so the allocation fails whatever
    # the overcommit setting, before any memory is used
    inst, tgt = variance_files
    if command == "fit":
        argv = ["fit", "--model", "rdr", "--instances", inst, "--targets", tgt,
                "--out", tmp_path / "model.json", "--n-features", 10**14]
    elif command == "run":
        config = {"instances": [str(inst)], "targets": str(tgt), "models": ["rdr"], "trials": 1,
                  "folds": 2, "out": str(tmp_path / "results"), "grid": {"n_features": [10**14]}}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", tmp_path / "config.json"]
    elif command == "mmd":
        for name in ("x.csv", "y.csv"):
            (tmp_path / name).write_text("0.0,1.0\n1.0,0.5\n2.0,0.0\n", encoding="utf-8")
        argv = ["mmd", tmp_path / "x.csv", tmp_path / "y.csv", "--permutations", 10**15]
    else:
        argv = ["synth", "--kind", "two-sample-gallery", "--out", tmp_path / "gallery", "--samples", 10**15]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "results").exists()
    assert not (tmp_path / "gallery").exists()  # synth creates --out after generating


@pytest.mark.parametrize("command", ["fit", "predict", "synth"])
def test_failed_write_keeps_the_old_file(tmp_path, variance_files, capsys, command):
    # a file size limit makes each output write fail partway through, with
    # EFBIG (SIGXFSZ ignored): the model (save_model), the predictions
    # (_write_text) and the synthetic CSVs (save_bags) keep their old bytes,
    # and no other file is left beside them
    resource = pytest.importorskip("resource")
    import signal

    inst, tgt = variance_files
    out = tmp_path / "out"
    out.mkdir()
    if command == "fit":
        names = ["model.json"]
        argv = ["fit", "--model", "kdr", "--instances", inst, "--targets", tgt, "--sigma", "1",
                "--out", out / names[0]]
    elif command == "predict":
        names = ["predictions.csv"]
        model = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt, "--out", model) == 0
        argv = ["predict", "--model-file", model, "--instances", inst, "--out", out / names[0]]
    else:
        names = ["instances.csv", "targets.csv"]
        argv = ["synth", "--kind", "variance-task", "--out", out, "--bags", "30", "--bag-size", "8"]
    for name in names:
        (out / name).write_bytes(b"old bytes\n")
    capsys.readouterr()
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (256, limits[1]))
    try:
        code = run_cli(*argv)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        signal.signal(signal.SIGXFSZ, handler)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: [Errno 27] ") and captured.err.count("\n") == 1, captured.err
    assert sorted(os.listdir(out)) == names
    assert all((out / name).read_bytes() == b"old bytes\n" for name in names)


def test_sigint_to_run_is_one_error_line(tmp_path):
    # a real SIGINT once the run is working: exit 130, one error line, no
    # traceback, and every file already in --out keeps its bytes
    data, out = tmp_path / "data", tmp_path / "out"
    assert run_cli("synth", "--kind", "variance-task", "--out", data) == 0
    out.mkdir()
    old = {name: f"old {name}\n".encode() for name in ("report_kdr.json", "table.txt", "notes.txt")}
    for name, content in old.items():
        (out / name).write_bytes(content)
    config = {"instances": [str(data / "instances.csv")], "targets": str(data / "targets.csv"),
              "models": ["kdr", "rdr"], "trials": 5, "out": str(out)}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    # Python turns SIGINT into KeyboardInterrupt only where its parent left
    # SIGINT handled, which a shell's background job does not
    code = "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); " \
           "from distreg.cli import main; sys.exit(main())"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-c", code, "-v", "run", "--config", str(tmp_path / "config.json")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        lines = []
        for line in proc.stderr:  # the -v log: its first trial has ended
            lines.append(line)
            if line.startswith("INFO distreg.evaluate: kdr trial 0:"):
                break
        proc.send_signal(signal.SIGINT)
        try:
            err = "".join(lines) + proc.communicate(timeout=120)[1]
        finally:
            proc.kill()
    assert proc.returncode == 130, err
    assert err.splitlines()[-1] == "error: interrupted" and "Traceback" not in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


def test_out_that_is_a_directory_named(tmp_path, variance_files, capsys):
    # the failed move into place names --out, not the temporary file beside it
    inst, tgt = variance_files
    out = tmp_path / "adir"
    (out / "x").mkdir(parents=True)
    assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt, "--out", out) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out}'\n"
    assert os.listdir(out) == ["x"] and sorted(os.listdir(tmp_path)) == ["adir", "data"]


@pytest.mark.parametrize("command", ["fit", "run"])
def test_targets_whose_mean_overflows_named(tmp_path, capsys, command):
    # finite targets near ±1.2e308, whose mean overflows: one line naming
    # the targets file, and no numpy warning (the suite makes it an error)
    data = tmp_path / "data"
    assert run_cli("synth", "--kind", "mean-task", "--noise", "1e308", "--bags", "4", "--bag-size", "3",
                   "--out", data) == 0
    inst, tgt = data / "instances.csv", data / "targets.csv"
    if command == "fit":
        argv = ["fit", "--model", "kdr", "--instances", inst, "--targets", tgt, "--out", tmp_path / "model.json"]
    else:
        config = {"instances": [str(inst)], "targets": str(tgt), "models": ["kdr"], "trials": 1, "folds": 2,
                  "out": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", tmp_path / "config.json"]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {tgt}: targets too large: their mean overflows\n"
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "results").exists()


def test_run_whose_squared_errors_overflow_is_one_error_line(tmp_path, capsys):
    # finite targets near ±1e200, whose mean and centred values are finite
    # but whose squared prediction errors overflow: every CV cell fails with
    # that reason, the run ends with one error line, and --out keeps its files
    data, out = tmp_path / "data", tmp_path / "results"
    out.mkdir()
    (out / "table.txt").write_bytes(b"old table\n")
    config = {"instances": [str(data / "instances.csv")], "targets": str(data / "targets.csv"),
              "models": ["lr", "kdr"], "trials": 1, "folds": 2, "out": str(out),
              "grid": {"lams": [1e-3, 1.0], "sigma_scales": [1.0], "n_features": [8]}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("synth", "--kind", "mean-task", "--noise", "1e200", "--bags", "20", "--bag-size", "3",
                       "--out", data) == 0
        capsys.readouterr()
        assert run_cli("run", "--config", tmp_path / "config.json") == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: all 2 grid points failed cross-validation; first failure: "
        "fold 0: prediction errors too large: their squares overflow"
    ] == err[-1:]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {"table.txt": b"old table\n"}


def test_model_file_in_missing_directory_named(tmp_path, variance_files, capsys):
    inst, tgt = variance_files
    out = tmp_path / "missing" / "model.json"
    assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt, "--out", out) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not out.parent.exists()


def test_fit_leaves_scipy_linalg_unloaded(tmp_path, variance_files):
    # the ridge solves call scipy's LAPACK Cholesky through ctypes
    inst, tgt = variance_files
    argv = ["fit", "--model", "kdr", "--instances", str(inst), "--targets", str(tgt),
            "--out", str(tmp_path / "model.json")]
    code = (
        f"import sys; from distreg.cli import main; assert main({argv!r}) == 0; "
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'); "
        "assert 'scipy.linalg' not in loaded, loaded"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "model.json").exists()


def test_lapack_without_cholesky_named(tmp_path, variance_files, capsys, monkeypatch):
    from distreg import models

    inst, tgt = variance_files
    models._lapack.cache_clear()
    monkeypatch.setattr(models, "_blas_symbols", lambda library, *names: (None, False))
    assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                   "--out", tmp_path / "model.json", "--lam", "1e-3") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    path, _, rest = err.removeprefix("error: ").partition(": ")
    assert os.path.isfile(path) and os.path.basename(path).startswith("_flapack"), err
    assert "dpotrf" in rest
    assert not (tmp_path / "model.json").exists()


class TestSynth:
    def test_noise_that_makes_the_targets_overflow_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("synth", "--kind", "mean-task", "--noise", "1e308", "--out", out) == 1
        assert capsys.readouterr().err == "error: --noise 1e+308 makes the targets overflow\n"
        assert not out.exists()

    def test_variance_files_load(self, variance_files):
        data = load_bags(*variance_files)
        assert data.n_bags == 30
        assert data.dim == 2

    def test_deterministic_bytes(self, tmp_path):
        for name in ("one", "two"):
            assert run_cli("synth", "--kind", "mean-task", "--out", tmp_path / name,
                           "--bags", "10", "--bag-size", "4", "--dim", "2", "--seed", "9") == 0
        a = (tmp_path / "one" / "instances.csv").read_bytes()
        b = (tmp_path / "two" / "instances.csv").read_bytes()
        assert a == b

    def test_multisource_files(self, tmp_path):
        out = tmp_path / "ms"
        assert run_cli("synth", "--kind", "multisource-task", "--out", out,
                       "--bags", "12", "--seed", "3") == 0
        one = load_bags(out / "source1_instances.csv", out / "targets.csv")
        two = load_bags(out / "source2_instances.csv", out / "targets.csv")
        assert one.bag_ids == two.bag_ids
        np.testing.assert_array_equal(one.targets, two.targets)

    def test_gallery_files(self, tmp_path):
        out = tmp_path / "gallery"
        assert run_cli("synth", "--kind", "two-sample-gallery", "--out", out,
                       "--samples", "40", "--seed", "2") == 0
        for scenario in "abcd":
            for side in "xy":
                sample = np.loadtxt(out / f"gallery_{scenario}_{side}.csv", delimiter=",", ndmin=2)
                assert sample.shape == (40, 1)

    @pytest.mark.parametrize(
        "kind,flags,message",
        [
            ("variance-task", ["--bags", "0"], "--bags must be an integer ≥ 1, got 0"),
            ("variance-task", ["--bag-size", "0"], "--bag-size must be an integer ≥ 1, got 0"),
            ("variance-task", ["--dim", "-1"], "--dim must be an integer ≥ 1, got -1"),
            ("two-sample-gallery", ["--samples", "0"], "--samples must be an integer ≥ 1, got 0"),
            ("mean-task", ["--noise", "-1"], "--noise must be a finite real ≥ 0, got -1.0"),
            ("mean-task", ["--seed", "-2"], "--seed must be an integer ≥ 0, got -2"),
        ],
        ids=["bags", "bag-size", "dim", "samples", "noise", "seed"],
    )
    def test_invalid_count_named(self, tmp_path, capsys, kind, flags, message):
        assert run_cli("synth", "--kind", kind, "--out", tmp_path / "out", *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("out/*"))


class TestRun:
    def test_four_model_comparison(self, run_config, capsys):
        config, out_dir = run_config
        assert run_cli("run", "--config", config) == 0
        table = (out_dir / "table.txt").read_text(encoding="utf-8")
        for kind in ("lr", "kr", "rdr", "kdr"):
            assert f"\n{kind} " in table or table.startswith(f"{kind} ")
            report = json.loads((out_dir / f"report_{kind}.json").read_text(encoding="utf-8"))
            assert len(report["trials"]) == 2
            assert "rmse_mean" in report["aggregate"]
        csv_rows = (out_dir / "table.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(csv_rows) == 5  # header + one row per kind
        assert capsys.readouterr().out.count("±") >= 12

    def test_rerun_is_byte_identical(self, run_config, tmp_path):
        config, out_dir = run_config
        assert run_cli("run", "--config", config) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert run_cli("run", "--config", config, "--out", tmp_path / "again") == 0
        second = {p.name: p.read_bytes() for p in (tmp_path / "again").iterdir()}
        assert first == second

    def test_missing_file_names_path(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instances": [str(tmp_path / "nope.csv")],
            "targets": str(tmp_path / "nope_y.csv"),
            "models": ["lr"],
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) != 0
        err = capsys.readouterr().err
        assert "nope.csv" in err

    def test_model_flag_overrides_config(self, run_config):
        config, out_dir = run_config
        assert run_cli("run", "--config", config, "--model", "lr") == 0
        assert (out_dir / "report_lr.json").exists()
        assert not (out_dir / "report_kdr.json").exists()

    def test_failed_run_leaves_out_as_it_was(self, run_config, monkeypatch, capsys):
        # the reports and tables are written once every kind has run
        config, out_dir = run_config
        assert run_cli("run", "--config", config, "--model", "lr", "--model", "kr") == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        real = cli.run_protocol

        def second_kind_fails(data, kind, **options):
            if kind == "kr":
                raise ValueError("kr failed")
            return real(data, kind, **options)

        monkeypatch.setattr(cli, "run_protocol", second_kind_fails)
        capsys.readouterr()
        assert run_cli("run", "--config", config, "--model", "lr", "--model", "kr", "--seed", "2") == 1
        assert capsys.readouterr().err == "error: kr failed\n"
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "flag,value",
        [("--trials", 1), ("--folds", 2), ("--seed", 4), ("--test-fraction", 0.4), ("--out", "elsewhere"),
         ("--model", "kr")],
        ids=["trials", "folds", "seed", "test-fraction", "out", "model"],
    )
    def test_each_flag_overrides_its_config_key(self, run_config, tmp_path, flag, value):
        # every value differs from the fixture's config, so a dropped flag shows
        config, config_out = run_config
        out_dir = tmp_path / value if flag == "--out" else config_out
        kind = value if flag == "--model" else "lr"
        flags = [flag, out_dir if flag == "--out" else value] + ([] if flag == "--model" else ["--model", "lr"])
        assert run_cli("run", "--config", config, *flags) == 0
        assert sorted(p.name for p in out_dir.glob("report_*.json")) == [f"report_{kind}.json"]
        assert (flag == "--out") != config_out.exists()
        report = json.loads((out_dir / f"report_{kind}.json").read_text(encoding="utf-8"))
        want = {"trials": 2, "n_folds": 3, "seed": 1, "test_fraction": 0.25}
        key = {"--trials": "trials", "--folds": "n_folds", "--seed": "seed", "--test-fraction": "test_fraction"}
        want.update({key[flag]: value} if flag in key else {})
        got = {"trials": len(report["trials"]), **{k: report[k] for k in ("n_folds", "seed", "test_fraction")}}
        assert got == want
        rows = (out_dir / "table.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [kind]

    def test_single_source_kind_with_two_sources_fails(self, tmp_path, capsys):
        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "12")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instances": [str(out / "source1_instances.csv"), str(out / "source2_instances.csv")],
            "targets": str(out / "targets.csv"),
            "models": ["kdr"],
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) != 0
        assert "exactly one source" in capsys.readouterr().err

    def test_noiseless_linear_task_end_to_end(self, tmp_path):
        data_dir = tmp_path / "lin"
        assert run_cli("synth", "--kind", "mean-task", "--out", data_dir,
                       "--bags", "40", "--bag-size", "10", "--dim", "3",
                       "--noise", "0", "--seed", "8") == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instances": [str(data_dir / "instances.csv")],
            "targets": str(data_dir / "targets.csv"),
            "models": ["lr"],
            "test_fraction": 0.25,
            "trials": 2,
            "folds": 3,
            "seed": 0,
            "out": str(tmp_path / "lin_results"),
            "grid": {"lams": [1e-8, 1e-4]},
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 0
        report = json.loads(
            (tmp_path / "lin_results" / "report_lr.json").read_text(encoding="utf-8")
        )
        assert abs(report["aggregate"]["r2_mean"] - 1.0) <= 1e-8

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instances": ["x.csv"], "targets": "y.csv", "models": ["lr"],
            "typo_key": 1,
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) != 0
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("trials", "2"),
            ("folds", True),
            ("seed", 1.5),
            ("test_fraction", "0.3"),
            ("targets", 5),
            ("out", ["results"]),
            ("instances", [1]),
            ("models", {"kind": "kdr"}),
            ("grid", {"lams": 5}),
            ("grid", {"sigma_scales": ["1.0"]}),
            ("grid", {"n_features": [32, False]}),
            ("grid", {"n_features": [1.5]}),
            ("grid", {"lams": [1e-3, -1.0]}),
            ("grid", {"sigma_scales": []}),
            ("models", []),
        ],
        ids=["trials", "folds", "seed", "test_fraction", "targets", "out", "instances", "models",
             "grid-lams", "grid-sigma_scales", "grid-n_features", "grid-n_features-fraction",
             "grid-lams-negative", "grid-sigma_scales-empty", "models-empty"],
    )
    def test_wrong_config_type_named(self, run_config, capsys, key, value):
        config, _ = run_config
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw[key] = value
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert run_cli("run", "--config", config) == 1
        err = capsys.readouterr().err
        named = next(iter(value)) if key == "grid" else key
        assert err.startswith("error: ")
        assert str(config) in err and repr(named) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--test-fraction", "1e308"], "error: --test-fraction must be a real in (0, 1), got 1e+308"),
            (["--test-fraction", "nan"], "error: --test-fraction must be a real in (0, 1), got nan"),
            (["--seed", "-1"], "error: --seed must be an integer ≥ 0, got -1"),
        ],
        ids=["huge-test-fraction", "nan-test-fraction", "negative-seed"],
    )
    def test_out_of_domain_option_named(self, run_config, capsys, flags, message):
        config, _ = run_config
        assert run_cli("run", "--config", config, *flags) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_invalid_utf8_config_named(self, run_config, capsys):
        config, _ = run_config
        config.write_bytes(b'{\n"trials": 2,\n"out": "r\xff"\n}\n')
        assert run_cli("run", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:3: not valid UTF-8: can't decode b'\\xff'")
        assert "Traceback" not in err

    def test_byte_order_mark_config_runs(self, run_config, tmp_path):
        # RFC 8259 lets a parser ignore a leading BOM, as the CSV inputs do
        config, out_dir = run_config
        assert run_cli("run", "--config", config) == 0
        plain = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert run_cli("run", "--config", bom, "--out", tmp_path / "bom") == 0
        assert {p.name: p.read_bytes() for p in (tmp_path / "bom").iterdir()} == plain

    def test_malformed_config_named_by_line(self, run_config, capsys):
        config, _ = run_config
        config.write_text('{\n"trials": 2,\n"seed": 1,,\n}\n', encoding="utf-8")
        assert run_cli("run", "--config", config) == 1
        assert capsys.readouterr().err == (
            f"error: {config}:3: not valid JSON: Expecting property name enclosed in double quotes (column 11)\n"
        )

    def test_lone_model_string_accepted(self, run_config):
        config, out_dir = run_config
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["models"] = "lr"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert run_cli("run", "--config", config) == 0
        assert [p.name for p in out_dir.glob("report_*.json")] == ["report_lr.json"]


class TestMmd:
    @pytest.mark.parametrize("sigma", [None, "1.0"])
    def test_overflowing_samples_named(self, tmp_path, capsys, sigma):
        # squared distances of values around 1e200 overflow: one error line
        # naming both files, no numpy warning, and no mmd2 of nan
        rng = np.random.default_rng(8)
        for name in ("x.csv", "y.csv"):
            np.savetxt(tmp_path / name, 1e200 * rng.standard_normal((50, 2)), delimiter=",")
        argv = ["mmd", tmp_path / "x.csv", tmp_path / "y.csv"] + (["--sigma", sigma] if sigma else [])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {tmp_path / 'x.csv'}, {tmp_path / 'y.csv'}: "
        ) and captured.err.count("\n") == 1, captured.err
        assert "are too large: their squared distances overflow (largest squared row norm inf)" in captured.err

    def test_tiny_sigma_prints_only_the_result(self, tmp_path, capsys):
        # distances times 1 / (2 sigma^2) overflow to -inf, whose exp is 0:
        # the kernel values are right, and numpy must not warn about them
        rng = np.random.default_rng(9)
        for name, shift in (("x.csv", 0), ("y.csv", 2)):
            np.savetxt(tmp_path / name, 1e5 * (rng.standard_normal((600, 2)) + shift), delimiter=",")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("mmd", tmp_path / "x.csv", tmp_path / "y.csv", "--sigma", "1e-150",
                           "--permutations", "20") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("sigma: 1e-150\nmmd2: ")

    def test_negative_seed_named(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 1)), delimiter=",")
        assert run_cli("mmd", path, path, "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: --seed must be an integer ≥ 0, got -1\n"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_permutations_named(self, tmp_path, capsys, value):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 1)), delimiter=",")
        assert run_cli("mmd", path, path, "--permutations", value) == 1
        assert capsys.readouterr().err == f"error: --permutations must be an integer ≥ 1, got {value}\n"

    @pytest.mark.parametrize(
        "value,message",
        [
            ("0", "sigma must be positive and finite, got 0.0"),
            ("-1.5", "sigma must be positive and finite, got -1.5"),
            ("inf", "sigma must be positive and finite, got inf"),
            ("1e-200", "sigma 1e-200 is too small: 1 / (2 sigma^2) overflows"),
        ],
    )
    def test_bad_sigma_named(self, tmp_path, capsys, value, message):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 1)), delimiter=",")
        assert run_cli("mmd", path, path, "--sigma", value) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --{message}\n"  # the flag's name leads the message
        assert captured.out == ""

    def test_identical_samples(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sample = rng.standard_normal((60, 2))
        path = tmp_path / "x.csv"
        np.savetxt(path, sample, delimiter=",")
        assert run_cli("mmd", path, path, "--permutations", "50") == 0
        out = capsys.readouterr().out
        stat = float(out.split("mmd2: ")[1].split("\n")[0])
        p = float(out.split("p_value: ")[1].split("\n")[0])
        assert abs(stat) <= 1e-12
        assert p > 0.9

    def test_gaussian_vs_laplace_rejects(self, tmp_path, capsys):
        out = tmp_path / "gallery"
        run_cli("synth", "--kind", "two-sample-gallery", "--out", out,
                "--samples", "1000", "--seed", "4")
        assert run_cli("mmd", out / "gallery_c_x.csv", out / "gallery_c_y.csv",
                       "--permutations", "100", "--seed", "1") == 0
        text = capsys.readouterr().out
        p = float(text.split("p_value: ")[1].split("\n")[0])
        assert p < 0.01

    def test_shifted_means_beats_variance_gap(self, tmp_path, capsys):
        out = tmp_path / "gallery"
        run_cli("synth", "--kind", "two-sample-gallery", "--out", out,
                "--samples", "500", "--seed", "5")
        stats = {}
        for scenario in "ab":
            assert run_cli("mmd", out / f"gallery_{scenario}_x.csv",
                           out / f"gallery_{scenario}_y.csv",
                           "--permutations", "100", "--seed", "2") == 0
            text = capsys.readouterr().out
            stats[scenario] = float(text.split("mmd2: ")[1].split("\n")[0])
            p = float(text.split("p_value: ")[1].split("\n")[0])
            assert p < 0.01, scenario
        assert stats["a"] > stats["b"]

    def test_dimension_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((5, 2)), delimiter=",")
        np.savetxt(b, np.zeros((5, 3)), delimiter=",")
        assert run_cli("mmd", a, b) != 0
        assert "dimension mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, tmp_path, capsys, bad):
        # a nan once gave exit 0 with mmd2 nan and the smallest p-value
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((5, 2)), delimiter=",")
        b.write_text(f"0.5,1.0\n# comment\n\n1.5,{bad}\n2.0,0.0\n", encoding="utf-8")
        assert run_cli("mmd", a, b) == 1
        captured = capsys.readouterr()
        assert f"error: {b}:4: non-finite value '{bad}'" in captured.err
        assert "Traceback" not in captured.err
        assert "p_value" not in captured.out


    @pytest.mark.parametrize(
        "line,message",
        [
            ("1.5,x", "non-numeric value 'x'"),
            ("1.5,", "non-numeric value ''"),
            ("1.5,2.0,3.0", "expected 2 fields, got 3"),
            ("1.5", "expected 2 fields, got 1"),
        ],
        ids=["non-numeric", "empty-field", "extra-field", "missing-field"],
    )
    def test_bad_row_named_by_line(self, tmp_path, capsys, line, message):
        # the comment and the blank line are skipped but counted: the bad row is line 5
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((5, 2)), delimiter=",")
        b.write_text(f"0.5,1.0\n# comment\n\n2.0,0.0\n{line}\n2.0,0.0\n", encoding="utf-8")
        assert run_cli("mmd", a, b) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {b}:5: {message}\n"
        assert "p_value" not in captured.out

    def test_invalid_utf8_named(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((5, 2)), delimiter=",")
        b.write_bytes(b"0.5,1.0\n# comment\n1.5,\xff2\n")
        assert run_cli("mmd", a, b) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {b}:3: not valid UTF-8: ")
        assert "Traceback" not in err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        out = tmp_path / "gallery"
        run_cli("synth", "--kind", "two-sample-gallery", "--out", out, "--samples", "150")
        capsys.readouterr()
        files = [out / "gallery_d_x.csv", out / "gallery_d_y.csv"]
        for path in files:
            (tmp_path / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        stdout = []
        for x, y in (files, [tmp_path / path.name for path in files]):
            assert run_cli("mmd", x, y, "--permutations", "50") == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]


    def test_quoted_numbers_load(self, tmp_path, capsys):
        # the sample reader is the instances' CSV reader: RFC 4180 quotes are
        # taken off before the number is read
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        rows = np.random.default_rng(3).standard_normal((20, 2))
        plain.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows), encoding="utf-8")
        quoted.write_text("".join(f'"{float(a)!r}",{float(b)!r}\n' for a, b in rows), encoding="utf-8")
        stdout = []
        for path in (plain, quoted):
            assert run_cli("mmd", path, plain, "--permutations", "20") == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    @pytest.mark.parametrize("text", ["1_000", "\u0661"])
    def test_number_grammar_is_the_instances_one(self, tmp_path, capsys, text):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((5, 2)), delimiter=",")
        b.write_text(f"0.5,1.0\n2.0,{text}\n", encoding="utf-8")
        assert run_cli("mmd", a, b) == 1
        assert capsys.readouterr().err == f"error: {b}:2: non-numeric value {text!r}\n"


class TestFitPredict:
    def test_round_trip_matches_in_process(self, tmp_path, variance_files):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                       "--out", model_path, "--lam", "1e-3") == 0
        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--model-file", model_path, "--instances", inst,
                       "--out", pred_path) == 0
        from distreg import load_model, predict_model

        data = load_bags(inst, tgt)
        want = predict_model(load_model(model_path), data)
        rows = pred_path.read_text(encoding="utf-8").strip().split("\n")
        assert rows[0] == "bag_id,y_pred"
        got = np.array([float(r.split(",")[1]) for r in rows[1:]])
        ids = [r.split(",")[0] for r in rows[1:]]
        assert tuple(ids) == data.bag_ids
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize(
        "kind,flags,message",
        [
            ("mdr", ["--sigmas=1,"], "--sigmas must be a list of positive and finite reals, one per source, "
             "got '1,'"),
            ("mdr", ["--sigmas=1,,2"], "--sigmas must be a list of positive and finite reals, one per source, "
             "got '1,,2'"),
            ("mdr", ["--sigmas=a"], "--sigmas must be a list of positive and finite reals, one per source, "
             "got 'a'"),
            ("mdr", ["--sigmas=1"], "--sigmas needs one RbfParams per source: got 1 for 2 sources"),
            ("mdr", ["--sigmas=1,-2"], "--sigmas must be a list of positive and finite reals, one per source, "
             "got [1.0, -2.0]"),
            ("kdr", ["--sigma=1e-200"], "--sigma 1e-200 is too small: 1 / (2 sigma^2) overflows"),
            ("kdr", ["--lam=0"], "--lam must be positive and finite, got 0.0"),
            ("kdr", ["--lam=x"], "--lam must be positive and finite, got 'x'"),
            ("rdr", ["--n-features=1.5"], "--n-features must be an integer ≥ 1, got '1.5'"),
            ("rdr", ["--seed=-1"], "--seed must be an integer ≥ 0, got -1"),
        ],
        ids=["sigmas-trailing-comma", "sigmas-empty-field", "sigmas-word", "sigmas-count",
             "sigmas-negative", "sigma-underflowing", "lam-zero", "lam-word",
             "n-features-fraction", "seed-negative"],
    )
    def test_invalid_hyperparameter_flag_named(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "8")
        sources = [out / "source1_instances.csv", out / "source2_instances.csv"]
        sources = sources if kind == "mdr" else sources[:1]
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", kind, *[a for src in sources for a in ("--instances", src)],
                       "--targets", out / "targets.csv", "--out", model_path, *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "kind,flag", [("mdr", "--sigma"), ("kdr", "--sigmas"), ("lr", "--n-features"), ("kdr", "--seed")]
    )
    def test_flag_of_other_kind_warns(self, tmp_path, caplog, kind, flag):
        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "8")
        sources = [out / "source1_instances.csv", out / "source2_instances.csv"]
        sources = sources if kind == "mdr" else sources[:1]
        value = {"--sigma": "0.5", "--sigmas": "0.5,0.7", "--n-features": "8", "--seed": "3"}[flag]
        fit = ["fit", "--model", kind, *[a for src in sources for a in ("--instances", src)],
               "--targets", out / "targets.csv"]
        assert run_cli(*fit, "--out", tmp_path / "with.json", flag, value) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"{flag} is not a hyperparameter of model kind {kind!r}; ignored"]
        assert run_cli(*fit, "--out", tmp_path / "without.json") == 0
        assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()

    @pytest.mark.parametrize("kind", ["kdr", "mdr"])
    def test_fit_normalizes_each_source_once(self, tmp_path, monkeypatch, kind):
        # the median heuristic and the fit share one normalization
        from distreg import models

        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "8")
        sources = [out / "source1_instances.csv", out / "source2_instances.csv"]
        sources = sources if kind == "mdr" else sources[:1]
        fitted = []
        real = models.fit_normalizer
        monkeypatch.setattr(models, "fit_normalizer", lambda data: fitted.append(data.dim) or real(data))
        assert run_cli("fit", "--model", kind, *[a for src in sources for a in ("--instances", src)],
                       "--targets", out / "targets.csv", "--out", tmp_path / "model.json") == 0
        assert len(fitted) == len(sources)

    def test_predictions_read_back_with_input_ids(self, tmp_path, capsys):
        import csv

        ids = ["a,1", 'q"x', "p\rq", "n\nl", "plain"]
        inst, tgt = tmp_path / "inst.csv", tmp_path / "tgt.csv"
        with open(inst, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bag_id", "f1"])
            writer.writerows([bag_id, 0.25 * i + j] for i, bag_id in enumerate(ids) for j in (0, 1))
        with open(tgt, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["bag_id", "y"], *([bag_id, i] for i, bag_id in enumerate(ids))])
        model_path, pred_path = tmp_path / "model.json", tmp_path / "pred.csv"
        assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                       "--out", model_path) == 0
        assert run_cli("predict", "--model-file", model_path, "--instances", inst,
                       "--out", pred_path) == 0
        with open(pred_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bag_id", "y_pred"]
        assert [r[0] for r in rows[1:]] == ids
        assert all(len(r) == 2 and np.isfinite(float(r[1])) for r in rows[1:])
        # ids that need no quoting are written as they are
        assert pred_path.read_text(encoding="utf-8").splitlines()[-1].startswith("plain,")

    @pytest.mark.parametrize("which", ["instances", "targets"])
    def test_oversized_csv_field_named(self, tmp_path, variance_files, capsys, which):
        inst, tgt = variance_files
        path = {"instances": inst, "targets": tgt}[which]
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "b," + "1" * 131073  # over the csv module's field size limit
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                       "--out", tmp_path / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: malformed CSV: field larger than field limit")
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("which", ["instances", "targets"])
    def test_invalid_utf8_named(self, tmp_path, variance_files, capsys, which):
        inst, tgt = variance_files
        path = {"instances": inst, "targets": tgt}[which]
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"b," + b"\xff" + lines[3].split(b",", 1)[1]
        path.write_bytes(b"\n".join(lines))
        assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                       "--out", tmp_path / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: not valid UTF-8: ")
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("which", ["instances", "targets"])
    def test_unterminated_quote_rejected(self, tmp_path, variance_files, capsys, which):
        # once read as the value '3\n', and the model was written
        inst, tgt = variance_files
        path = {"instances": inst, "targets": tgt}[which]
        lines = path.read_text(encoding="utf-8").splitlines()
        bag = lines[1].split(",")[0] if which == "instances" else "extra"
        path.write_text("\n".join(lines) + f'\n{bag},"3\n', encoding="utf-8")
        assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                       "--out", tmp_path / "model.json") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:{len(lines) + 1}: malformed CSV: unexpected end of data\n"
        assert not (tmp_path / "model.json").exists()

    def test_byte_order_mark_accepted(self, tmp_path, variance_files):
        # as spreadsheet exports write it; it was read into the header
        inst, tgt = variance_files
        bom = {}
        for path in (inst, tgt):
            bom[path] = tmp_path / f"bom-{path.name}"
            bom[path].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for files, out in (((inst, tgt), "plain"), ((bom[inst], bom[tgt]), "bom")):
            assert run_cli("fit", "--model", "kdr", "--instances", files[0], "--targets", files[1],
                           "--out", tmp_path / f"{out}.json") == 0
            assert run_cli("predict", "--model-file", tmp_path / f"{out}.json",
                           "--instances", files[0], "--out", tmp_path / f"{out}.csv") == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_predict_twice_identical_bytes(self, tmp_path, variance_files):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                "--out", model_path)
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        run_cli("predict", "--model-file", model_path, "--instances", inst, "--out", p1)
        run_cli("predict", "--model-file", model_path, "--instances", inst, "--out", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_dimension_named_in_error(self, tmp_path, variance_files, capsys):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                "--out", model_path)
        other = tmp_path / "other"
        run_cli("synth", "--kind", "variance-task", "--out", other,
                "--bags", "5", "--bag-size", "3", "--dim", "3")
        assert run_cli("predict", "--model-file", model_path,
                       "--instances", other / "instances.csv",
                       "--out", tmp_path / "p.csv") != 0
        err = capsys.readouterr().err
        assert "d=2" in err and "d=3" in err

    def test_overflowing_feature_named(self, tmp_path, capsys, recwarn):
        # finite values whose spread overflows the normalizer's variance
        inst, tgt = tmp_path / "i.csv", tmp_path / "t.csv"
        inst.write_text("bag_id,f1\na,1e300\na,-1e300\nb,2\nc,3\n", encoding="utf-8")
        tgt.write_text("bag_id,y\na,1\nb,2\nc,3\n", encoding="utf-8")
        assert run_cli("fit", "--model", "lr", "--instances", inst, "--targets", tgt,
                       "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == f"error: {inst}: feature f1: values too large to normalize\n"
        # a multisource kind names the source's own file, here the second
        other = tmp_path / "o.csv"
        other.write_text("bag_id,g1,g2\na,1,2\nb,2,1\nc,3,0\n", encoding="utf-8")
        for kind in ("mdr", "stacked-lr"):
            assert run_cli("fit", "--model", kind, "--instances", other, "--instances", inst,
                           "--targets", tgt, "--out", tmp_path / "m.json") == 1
            assert capsys.readouterr().err == f"error: {inst}: feature f1: values too large to normalize\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_multisource_fit_predict(self, tmp_path):
        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "15", "--seed", "6")
        model_path = tmp_path / "mdr.json"
        assert run_cli("fit", "--model", "mdr",
                       "--instances", out / "source1_instances.csv",
                       "--instances", out / "source2_instances.csv",
                       "--targets", out / "targets.csv",
                       "--out", model_path, "--lam", "1e-2") == 0
        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--model-file", model_path,
                       "--instances", out / "source1_instances.csv",
                       "--instances", out / "source2_instances.csv",
                       "--out", pred_path) == 0
        rows = pred_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(rows) == 16

    @pytest.mark.parametrize("kind,files", [("kdr", 2), ("mdr", 1)])
    def test_source_count_mismatch_named(self, tmp_path, capsys, kind, files):
        out = tmp_path / "ms"
        run_cli("synth", "--kind", "multisource-task", "--out", out, "--bags", "12", "--seed", "6")
        sources = [out / "source1_instances.csv", out / "source2_instances.csv"]
        fit_sources = sources[:1] if kind == "kdr" else sources
        model_path = tmp_path / "model.json"
        fit_args = [a for src in fit_sources for a in ("--instances", src)]
        assert run_cli("fit", "--model", kind, *fit_args, "--targets", out / "targets.csv",
                       "--out", model_path) == 0
        capsys.readouterr()
        predict_args = [a for src in sources[:files] for a in ("--instances", src)]
        assert run_cli("predict", "--model-file", model_path, *predict_args,
                       "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"model file {model_path} (kind {kind!r})" in err
        assert f"needs exactly {'one source' if kind == 'kdr' else '2 sources'}, got {files} " in err
        assert "Traceback" not in err

    def test_corrupt_model_file(self, tmp_path, variance_files, capsys):
        inst, _ = variance_files
        bad = tmp_path / "bad.json"
        bad.write_text("definitely not json", encoding="utf-8")
        assert run_cli("predict", "--model-file", bad, "--instances", inst,
                       "--out", tmp_path / "p.csv") == 1
        assert capsys.readouterr().err == f"error: {bad}:1: not valid JSON: Expecting value (column 1)\n"

    def test_malformed_model_file_named_by_line(self, tmp_path, variance_files, capsys):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                       "--out", model_path) == 0
        capsys.readouterr()
        model_path.write_text(model_path.read_text(encoding="utf-8").replace(",", ",\n", 2)[:-3],
                              encoding="utf-8")
        assert run_cli("predict", "--model-file", model_path, "--instances", inst,
                       "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}:3: not valid JSON: ")
        assert err.endswith(")\n") and "Traceback" not in err

    def test_byte_order_mark_model_file_loads(self, tmp_path, variance_files):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                       "--out", model_path) == 0
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + model_path.read_bytes())
        for path, out in ((model_path, "p.csv"), (bom, "bom.csv")):
            assert run_cli("predict", "--model-file", path, "--instances", inst,
                           "--out", tmp_path / out) == 0
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "bom.csv").read_bytes()

    def test_invalid_utf8_model_file_named(self, tmp_path, variance_files, capsys):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                       "--out", model_path) == 0
        text = model_path.read_bytes()
        model_path.write_bytes(text[:40] + b"\n\xff" + text[40:])
        assert run_cli("predict", "--model-file", model_path, "--instances", inst,
                       "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        line = text[:40].count(b"\n") + 2
        assert err.startswith(f"error: {model_path}:{line}: not valid UTF-8: can't decode b'\\xff'")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: doc.pop("solution"), "missing field 'solution'"),
            (lambda doc: doc.update(kind="xyz"), "field 'kind' is 'xyz'"),
        ],
    )
    def test_invalid_model_file_named(self, tmp_path, variance_files, capsys, edit, message):
        inst, tgt = variance_files
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--model", "kdr", "--instances", inst, "--targets", tgt,
                       "--out", model_path) == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        edit(doc)
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("predict", "--model-file", model_path, "--instances", inst,
                       "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"model file {model_path}: {message}" in err
        assert "Traceback" not in err
