"""Property tests on small random ragged datasets.

Bag Grams: hypothesis draws the bags (1-6 bags of 1-5 instances, d = 1-3)
and up to four sigmas; every Gram of one call comes from the same
squared-distance tiles (``kernels._grams``).
Models: the predictions of every kind are invariant to instance order,
instance duplication and per-feature affine maps of the input, and follow
the order of the bags. CLI: ``distreg.cli.main`` on generated configs, grid
overrides, ``fit`` flags and CSV rows exits 0 or reports an ``error:`` line,
never an uncaught exception; a config value or flag outside its domain is
named before any input file is read; on input files with generated bytes
spliced in it prints the error of the file's reader, which names the file.
Number texts load alike in instance files and ``mmd`` samples. Runs are
derandomized so the suite stays reproducible.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from distreg import (
    MODEL_KINDS,
    MULTISOURCE_KINDS,
    Bag,
    BagDataset,
    DataFormatError,
    MultiSourceDataset,
    RbfParams,
    fit_model,
    load_bags,
    load_model,
    load_sample,
    predict_model,
)
import distreg.cli as distreg_cli
import distreg.models as distreg_models
import distreg.rff as distreg_rff
from distreg.cli import _load_config, main as cli_main
from distreg.kernels import _grams
from distreg.models import _normalize, _spec, _transform
from conftest import HYPERS, oracle_bag_gram, oracle_cross_bag_gram

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

_values = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def ragged_pair(draw):
    """A training and a test dataset of the same dimension."""
    dim = draw(st.integers(1, 3))

    def dataset(prefix):
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        bags = tuple(
            Bag(f"{prefix}{i}", draw(arrays(np.float64, (n, dim), elements=_values)))
            for i, n in enumerate(sizes)
        )
        return BagDataset(bags, np.zeros(len(sizes)))

    return dataset("b"), dataset("t")


_sigmas = st.lists(st.floats(0.2, 5.0), min_size=1, max_size=4, unique=True)


def _gammas(sigmas):
    return [RbfParams(s).gamma for s in sigmas]


def _reorder(data, order, rows=None):
    """``data`` with its bags in ``order`` and, when given, each bag's rows
    in ``rows[i]``."""
    bags = []
    for i in order:
        inst = data.bags[i].instances
        bags.append(Bag(data.bags[i].id, inst if rows is None else inst[rows[i]]))
    return BagDataset(tuple(bags), data.targets[list(order)])


@PROPERTY
@given(ragged_pair(), _sigmas, st.data())
def test_invariant_to_instance_order(pair, sigmas, data):
    train, test = pair
    shuffled = []
    for ds in (train, test):
        rows = [data.draw(st.permutations(range(b.n_instances))) for b in ds.bags]
        shuffled.append(_reorder(ds, range(ds.n_bags), rows))
    gammas = _gammas(sigmas)
    for want, got in zip(_grams([(train, None, gammas)])[0], _grams([(shuffled[0], None, gammas)])[0]):
        assert np.array_equal(want, got)
    for want, got in zip(
        _grams([(test, train, gammas)])[0], _grams([(shuffled[1], shuffled[0], gammas)])[0]
    ):
        assert np.array_equal(want, got)


@PROPERTY
@given(ragged_pair(), _sigmas, st.data())
def test_permutes_with_bag_order(pair, sigmas, data):
    # An entry whose two bags keep their relative order is summed in the same
    # orientation and moves exactly; a pair whose order flips is summed as
    # the transpose (columns before rows), which can move its last bits.
    train, test = pair
    p = np.array(data.draw(st.permutations(range(train.n_bags))))
    q = np.array(data.draw(st.permutations(range(test.n_bags))))
    gammas = _gammas(sigmas)
    # new entry (i, j) is old entry (p[i], p[j])
    idx = np.arange(len(p))
    kept = (np.subtract.outer(idx, idx) >= 0) == (np.subtract.outer(p, p) >= 0)
    moved_train = _reorder(train, p)
    for want, got in zip(_grams([(train, None, gammas)])[0], _grams([(moved_train, None, gammas)])[0]):
        want = want[np.ix_(p, p)]
        assert np.array_equal(want[kept], got[kept])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
    for want, got in zip(
        _grams([(test, train, gammas)])[0],
        _grams([(_reorder(test, q), moved_train, gammas)])[0],
    ):
        assert np.array_equal(want[np.ix_(q, p)], got)


@PROPERTY
@given(ragged_pair(), _sigmas)
def test_matches_loop_oracle(pair, sigmas):
    train, test = pair
    gammas = _gammas(sigmas)
    for sigma, gram, cross in zip(
        sigmas, *_grams([(train, None, gammas), (test, train, gammas)])
    ):
        assert np.max(np.abs(gram - oracle_bag_gram(train, sigma))) <= 1e-12
        assert np.max(np.abs(cross - oracle_cross_bag_gram(test, train, sigma))) <= 1e-12


# ---------------------------------------------------------------------------
# Model level: predictions of every kind on small ragged data. Hypothesis
# draws the shapes, a seed for the instance values and the maps applied;
# the values are standard normal, so every training feature is non-constant
# (a constant feature gets scale 1 and is not affine invariant).

MODEL_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)


@st.composite
def model_task(draw, kind):
    """Training (4-8 bags) and test (1-3 bags) data for ``kind``: bags of
    1-4 instances, one source of d = 1-3 or, for multisource kinds, two."""
    n_sources = 2 if kind in MULTISOURCE_KINDS else 1
    dims = [draw(st.integers(1, 3)) for _ in range(n_sources)]
    n_train, n_test = draw(st.integers(4, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def dataset(prefix, n_bags, targets):
        sources = tuple(
            BagDataset(
                tuple(
                    Bag(f"{prefix}{i}", rng.standard_normal((int(rng.integers(1, 5)), d)))
                    for i in range(n_bags)
                ),
                targets,
            )
            for d in dims
        )
        return MultiSourceDataset(sources) if n_sources > 1 else sources[0]

    return dataset("b", n_train, rng.standard_normal(n_train)), dataset("t", n_test, np.zeros(n_test))


def _map_bags(data, fn):
    """``data`` with each source's bags replaced by ``fn(source index, bag)``."""
    if isinstance(data, MultiSourceDataset):
        return MultiSourceDataset(
            tuple(_map_bags(src, lambda _, b, f=f: fn(f, b)) for f, src in enumerate(data.sources))
        )
    return BagDataset(tuple(Bag(b.id, fn(0, b)) for b in data.bags), data.targets)


def _fit_predict(kind, train, test):
    return predict_model(fit_model(kind, train, HYPERS[kind]), test)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@MODEL_PROPERTY
@given(st.data())
def test_predictions_invariant_to_instance_order(kind, data):
    train, test = data.draw(model_task(kind))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def shuffle(_, bag):
        return bag.instances[rng.permutation(bag.n_instances)]

    want = _fit_predict(kind, train, test)
    assert np.array_equal(_fit_predict(kind, _map_bags(train, shuffle), _map_bags(test, shuffle)), want)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@MODEL_PROPERTY
@given(st.data())
def test_predictions_invariant_to_instance_duplication(kind, data):
    train, test = data.draw(model_task(kind))
    model = fit_model(kind, train, HYPERS[kind])
    doubled = _map_bags(test, lambda _, bag: np.vstack([bag.instances, bag.instances]))
    want = predict_model(model, test)
    assert np.max(np.abs(predict_model(model, doubled) - want)) <= 1e-12


@pytest.mark.parametrize("kind", MODEL_KINDS)
@MODEL_PROPERTY
@given(st.data())
def test_predictions_invariant_to_feature_affine_maps(kind, data):
    train, test = data.draw(model_task(kind))
    dims = train.dims if isinstance(train, MultiSourceDataset) else (train.dim,)
    scales = [np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))) for d in dims]
    shifts = [np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d))) for d in dims]

    def affine(f, bag):
        return bag.instances * scales[f] + shifts[f]

    want = _fit_predict(kind, train, test)
    got = _fit_predict(kind, _map_bags(train, affine), _map_bags(test, affine))
    assert np.max(np.abs(got - want)) <= 1e-10


def _permute_bags(data, order):
    if isinstance(data, MultiSourceDataset):
        return MultiSourceDataset(tuple(_reorder(src, order) for src in data.sources))
    return _reorder(data, order)


# Worst relative movement under a training-bag permutation: 3.1e-12 over
# these examples, 7.9e-12 over 300 per kind (stacked-lr, whose solve on a
# few stacked means is the worst conditioned).
TRAIN_ORDER_BOUND = 2e-11


@pytest.mark.parametrize("kind", MODEL_KINDS)
@MODEL_PROPERTY
@given(st.data())
def test_predictions_follow_bag_order(kind, data):
    # The test matrix of permuted test bags is the permuted matrix, bitwise.
    # The prediction is its product with the coefficients, a BLAS gemv whose
    # accumulation order depends on the row's position, so predictions
    # permute within the rounding bound of a dot product. Permuting the
    # training bags reorders sums (normalizer statistics, Gram entries
    # summed transposed, the solve), which moves predictions by rounding.
    train, test = data.draw(model_task(kind))
    p = data.draw(st.permutations(range(train.n_bags)))
    q = data.draw(st.permutations(range(test.n_bags)))
    model = fit_model(kind, train, HYPERS[kind])
    matrices = [
        _spec(kind).matrices([model], None, _transform(kind, _normalize(t, model.normalizers)[0]))[0][1]
        for t in (test, _permute_bags(test, q))
    ]
    assert np.array_equal(matrices[0][q], matrices[1])
    want = predict_model(model, test)
    coef = model.solution.coefficients
    dot_bound = coef.size * np.finfo(float).eps * (np.abs(matrices[0]) @ np.abs(coef))
    assert np.all(np.abs(predict_model(model, _permute_bags(test, q)) - want[q]) <= dot_bound[q])
    moved = _fit_predict(kind, _permute_bags(train, p), test)
    assert np.max(np.abs(moved - want)) <= TRAIN_ORDER_BOUND * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# CLI fuzz: every generated run exits 0, or exits non-zero with a line that
# starts with "error:" on stderr; any other exception escaping ``main`` would
# reach the user as a traceback. Inputs stay small: 8 bags of 1-3 instances
# and, wherever a count is drawn, integers of at most 3.

CLI_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats()
    | st.text(alphabet="ab1.-,e", max_size=4)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=6,
)
_GRID_KEYS = ("lams", "sigma_scales", "n_features", "nfeatures")
_FLAG_TEXTS = (
    st.sampled_from(["1,", ",", "1,,2", "a", "", "nan", "-inf", "-1", "0", "1e-200", "1e400", "1.5",
                     " 2", "0.5,0.7", "0.5,0.7,0.9"])
    | st.floats().map(repr)
    | st.integers(-2, 12).map(str)
)


def _run_main(*argv) -> tuple[int, str]:
    """``distreg.cli.main(argv)``: its exit status and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli_main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects a malformed command line
            rc = exc.code
    return rc, err.getvalue()


def _assert_clean_exit(*argv) -> int:
    rc, err = _run_main(*argv)
    assert "Traceback" not in err
    assert rc == 0 or any(line.startswith("error:") for line in err.splitlines()), (argv, rc, err)
    return rc


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    """A variance task (8 bags of 1-3 instances, d = 2) and a two-source
    task of the same bags."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    ids = [f"b{i}" for i in range(8)]
    paths = {}
    for name, dim in (("one", 2), ("two", 1)):
        rows = [
            ",".join([bid] + [repr(float(v)) for v in rng.standard_normal(dim)])
            for bid in ids for _ in range(int(rng.integers(1, 4)))
        ]
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(f"bag_id,{','.join(f'f{j}' for j in range(dim))}\n" + "\n".join(rows) + "\n")
    paths["targets"] = root / "targets.csv"
    paths["targets"].write_text(
        "bag_id,y\n" + "".join(f"{bid},{repr(float(y))}\n" for bid, y in zip(ids, rng.standard_normal(8)))
    )
    return paths


_GRID_VALUES = st.lists(st.floats(1e-3, 10.0) | st.integers(1, 3), min_size=1, max_size=2) | _JSON


@CLI_PROPERTY
@given(
    st.dictionaries(
        st.sampled_from(["instances", "targets", "models", "test_fraction", "trials", "folds", "seed",
                         "grid", "typo"]),
        _JSON,
        max_size=1,
    ),
    st.dictionaries(st.sampled_from(_GRID_KEYS), _GRID_VALUES, max_size=2),
    st.lists(st.sampled_from(list(MODEL_KINDS) + ["xdr"]), min_size=1, max_size=2).filter(
        lambda kinds: all(k in ("lr", "kr", "kdr", "rdr") for k in kinds) or len(kinds) == 1
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "--seed": st.integers(-2, 3),
            "--test-fraction": st.floats(),
            "--trials": st.integers(-1, 2),
            "--folds": st.integers(-1, 3),
        },
    ),
)
@example({"test_fraction": 1e308}, {}, ["lr"], {})
@example({}, {"n_features": [1.5]}, ["rdr"], {"--seed": -1})
@example({"models": []}, {}, ["lr"], {"--test-fraction": float("nan")})
def test_cli_run_never_raises(cli_data, overrides, grid, models, flags):
    with tempfile.TemporaryDirectory() as tmp:
        config = {
            "instances": [str(cli_data["one"])],
            "targets": str(cli_data["targets"]),
            "models": models,
            "test_fraction": 0.25,
            "trials": 1,
            "folds": 2,
            "seed": 0,
            "out": str(Path(tmp) / "out"),
            "grid": {"lams": [1e-3], "sigma_scales": [1.0], "n_features": [8], **grid},
            **overrides,
        }
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        _assert_clean_exit("run", "--config", path, *[f"{flag}={value!r}" for flag, value in flags.items()])


# An internal step of ``distreg run`` (its module and name) and the exit
# status of each error it may raise.
_STEPS = {"_grams": (distreg_models, "_grams"), "_features": (distreg_rff, "_features"),
          "_solve_spd": (distreg_models, "_solve_spd"), "write": (distreg_cli, "_atomic_write")}
_EXIT = {KeyboardInterrupt: 130, MemoryError: 1, ValueError: 1}


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_STEPS)), st.sampled_from(list(_EXIT)), st.integers(1, 3))
@example("write", ValueError, 3)  # the first two files are whole by then
@example("_features", KeyboardInterrupt, 2)  # on a worker thread
@example("_solve_spd", MemoryError, 3)  # the last fit of kdr
def test_failing_step_is_one_error_line_and_keeps_out(cli_data, step, error, n):
    # the n-th call of the step raises: one error line, the error's exit
    # status, and every file already in --out keeps its bytes
    module, name = _STEPS[step]
    real, calls, lock = getattr(module, name), [], threading.Lock()

    def failing(*args, **kwargs):
        with lock:  # _features runs on the worker threads
            calls.append(len(calls) + 1)
            if calls[-1] == n:
                raise error("injected")
        return real(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp) / "out"
        out.mkdir()
        old = {f: f"old {f}\n".encode() for f in ("report_kdr.json", "report_rdr.json", "table.txt", "notes.txt")}
        for f, content in old.items():
            (out / f).write_bytes(content)
        config = {"instances": [str(cli_data["one"])], "targets": str(cli_data["targets"]), "models": ["kdr", "rdr"],
                  "test_fraction": 0.25, "trials": 1, "folds": 2, "out": str(out),
                  "grid": {"lams": [1e-3], "sigma_scales": [1.0], "n_features": [8]}}
        (Path(tmp) / "config.json").write_text(json.dumps(config), encoding="utf-8")
        mp.setattr(module, name, failing)
        rc, err = _run_main("run", "--config", Path(tmp) / "config.json")
        assert len(calls) >= n and rc == _EXIT[error], (rc, err)
        assert "Traceback" not in err and [line for line in err.splitlines() if line.startswith("error:")] == [
            err.splitlines()[-1]
        ], err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old


@CLI_PROPERTY
@given(
    st.sampled_from(MODEL_KINDS),
    st.integers(1, 2),
    st.dictionaries(st.sampled_from(["--lam", "--sigma", "--sigmas", "--n-features", "--seed"]), _FLAG_TEXTS),
)
@example("mdr", 2, {"--sigmas": "1,"})
@example("rdr", 1, {"--n-features": "1.5", "--seed": "-1"})
@example("kdr", 1, {"--sigma": "1e-200"})
def test_cli_fit_flags_never_raise(cli_data, kind, n_sources, flags):
    sources = [cli_data["one"], cli_data["two"]][:n_sources]
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        rc = _assert_clean_exit(
            "fit", "--model", kind, *[a for src in sources for a in ("--instances", src)],
            "--targets", cli_data["targets"], "--out", model,
            *[f"{flag}={text}" for flag, text in flags.items()],
        )
        if rc == 0:
            instances = [a for src in sources for a in ("--instances", src)]
            assert _assert_clean_exit("predict", "--model-file", model, *instances,
                                      "--out", Path(tmp) / "p.csv") == 0


# ---------------------------------------------------------------------------
# Values outside their domain: each ``run`` config key and each flag of
# ``run``, ``synth``, ``mmd`` and ``fit`` is checked before any input file is
# read. ``main`` then exits 1 with one ``error:`` line that names the key, with
# the config's path, or the flag, and the line is the same when the input
# files exist. A value inside its domain gets as far as the missing input
# file. The domains are restated here, apart from the library's table.


def _reads(text, kind):
    try:
        return kind(text)
    except ValueError:
        return None


def _strings(v):
    return isinstance(v, str) or (isinstance(v, list) and v != [] and all(isinstance(s, str) for s in v))


def _integer_text(low):
    return lambda text: _reads(text, int) is not None and _reads(text, int) >= low


def _sigma(x):
    # a length-scale: finite, > 0, and 1 / (2 sigma^2) finite
    return x is not None and 0 < x < math.inf and 2.0 * x * x > 1.0 / sys.float_info.max


# config key -> whether a JSON value is in its domain (bools are not numbers)
_KEY_DOMAINS = {
    "instances": _strings,
    "targets": lambda v: isinstance(v, str),
    "models": _strings,
    "test_fraction": lambda v: type(v) in (int, float) and 0 < v < 1,
    "trials": lambda v: type(v) is int and v >= 1,
    "folds": lambda v: type(v) is int and v >= 2,
    "seed": lambda v: type(v) is int and v >= 0,
    "out": lambda v: isinstance(v, str),
    "grid": lambda v: v is None or isinstance(v, dict),
}
# (command, flag) -> whether its text is in its domain
_FLAG_DOMAINS = {
    ("run", "--test-fraction"): lambda t: _reads(t, float) is not None and 0 < _reads(t, float) < 1,
    ("run", "--trials"): _integer_text(1),
    ("run", "--folds"): _integer_text(2),
    ("run", "--seed"): _integer_text(0),
    ("run", "--out"): lambda t: True,
    ("synth", "--seed"): _integer_text(0),
    ("synth", "--bags"): _integer_text(1),
    ("synth", "--bag-size"): _integer_text(1),
    ("synth", "--dim"): _integer_text(1),
    ("synth", "--noise"): lambda t: _reads(t, float) is not None and 0 <= _reads(t, float) < math.inf,
    ("synth", "--samples"): _integer_text(1),
    ("mmd", "--sigma"): lambda t: _sigma(_reads(t, float)),
    ("mmd", "--permutations"): _integer_text(1),
    ("mmd", "--seed"): _integer_text(0),
    ("fit", "--lam"): lambda t: _reads(t, float) is not None and 0 < _reads(t, float) < math.inf,
    ("fit", "--sigma"): lambda t: _sigma(_reads(t, float)),
    ("fit", "--sigmas"): lambda t: len(t.split(",")) == 2 and all(_sigma(_reads(p, float)) for p in t.split(",")),
    ("fit", "--n-features"): _integer_text(1),
    ("fit", "--seed"): _integer_text(0),
}
_BASE_CONFIG = {"targets": "t.csv", "models": ["lr"], "test_fraction": 0.25, "trials": 1, "folds": 2, "seed": 0,
                "out": "out", "grid": {"lams": [1e-3]}}


def _command(command, flag, text, instances):
    """The argv of ``command`` with ``flag`` set to ``text``, reading the
    instances files ``instances`` (``synth`` reads none: its output directory
    cannot be created)."""
    if command == "run":
        Path("c.json").write_text(json.dumps({**_BASE_CONFIG, "instances": instances[:1]}), encoding="utf-8")
        argv = ["run", "--config", "c.json"]
    elif command == "synth":
        argv = ["synth", "--kind", "two-sample-gallery" if flag == "--samples" else "mean-task", "--out", "t.csv/x"]
    elif command == "mmd":
        argv = ["mmd", instances[2], instances[2]]
    else:
        sources = instances[:2] if flag == "--sigmas" else instances[:1]
        argv = ["fit", "--model", "mdr" if flag == "--sigmas" else "rdr", "--targets", "t.csv", "--out", "m.json",
                *[a for src in sources for a in ("--instances", src)]]
    return argv + [f"{flag}={text}"]


@pytest.fixture(scope="module")
def domain_dir(cli_data, tmp_path_factory):
    """A directory holding the targets (``t.csv``) and an ``mmd`` sample
    (``s.csv``), and the instances files of both sources and that sample."""
    root = tmp_path_factory.mktemp("domains")
    (root / "t.csv").write_bytes(cli_data["targets"].read_bytes())
    (root / "s.csv").write_text("0.5,1.0\n-1.0,2.0\n0.0,0.3\n", encoding="utf-8")
    return root, [str(cli_data["one"]), str(cli_data["two"]), "s.csv"]


DOMAIN_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("key", sorted(_KEY_DOMAINS))
@DOMAIN_PROPERTY
@given(_JSON | st.integers(-2, 12) | st.floats(0.0, 1.0) | st.lists(st.text("ab.", max_size=2), max_size=2))
@example(0)
@example(1)
@example(True)
@example([])
def test_config_value_outside_its_domain_named_before_reading(domain_dir, key, value):
    root, inputs = domain_dir
    with contextlib.chdir(root):
        _check_config_value(key, value, root / "c.json", inputs)


def _check_config_value(key, value, path, inputs):
    path.write_text(json.dumps({**_BASE_CONFIG, "instances": ["missing.csv"], key: value}), encoding="utf-8")
    rc, err = _run_main("run", "--config", path)
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    if _KEY_DOMAINS[key](value):
        assert f"key {key!r}" not in err
        return
    assert err.startswith(f"error: config {path}: key {key!r} must be "), err
    if key != "instances":
        path.write_text(json.dumps({**_BASE_CONFIG, "instances": inputs[:1], key: value}), encoding="utf-8")
        assert _run_main("run", "--config", path) == (rc, err)


@pytest.mark.parametrize("command,flag", sorted(_FLAG_DOMAINS))
@DOMAIN_PROPERTY
@given(_FLAG_TEXTS | st.sampled_from(["0.3", "1", "2", "1e-3", "x", ""]))
@example("0")
@example("1")
@example("1.5")
@example("1e-200")
def test_flag_outside_its_domain_named_before_reading(domain_dir, command, flag, text):
    root, inputs = domain_dir
    with contextlib.chdir(root):
        _check_flag_text(command, flag, text, inputs)


def _check_flag_text(command, flag, text, inputs):
    rc, err = _run_main(*_command(command, flag, text, ["missing.csv", "missing.csv", "missing.csv"]))
    assert rc == 1 and "Traceback" not in err, err
    if _FLAG_DOMAINS[command, flag](text):
        assert flag not in err
        return
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err
    assert _run_main(*_command(command, flag, text, inputs)) == (rc, err)


_CSV_FIELDS = st.floats(-5.0, 5.0).map(repr) | st.sampled_from(["", "x", "nan", "1e400", " 3", "b1"])
_VALID_ROWS = st.lists(
    st.tuples(st.sampled_from(["b1", "b2", "b3"]), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    min_size=1,
    max_size=8,
).map(lambda rows: [[bid, repr(a), repr(b)] for bid, a, b in rows])
# at most one row replaced by generated fields (an index past the end appends it)
_BAD_ROW = st.none() | st.tuples(st.integers(0, 8), st.lists(_CSV_FIELDS, max_size=4))


def _csv(header, rows, bad):
    rows = list(rows)
    if bad is not None:
        rows[bad[0]:bad[0] + 1] = [bad[1]]
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@CLI_PROPERTY
@given(
    st.sampled_from(["bag_id,f1,f2", "bag_id,f1,f2", "bag_id,f1,f2", "bag_id,f1", "bag_id", "id,f1", ""]),
    _VALID_ROWS,
    _BAD_ROW,
    st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
    _BAD_ROW,
    st.sampled_from(["lr", "kdr", "rdr"]),
)
def test_cli_csv_rows_never_raise(cli_data, header, rows, bad_row, targets, bad_target, kind):
    # fit on generated instance rows with valid targets, then on valid
    # instances with generated target rows (one per bag of ``cli_data``)
    with tempfile.TemporaryDirectory() as tmp:
        instances, targets_path = Path(tmp) / "x.csv", Path(tmp) / "y.csv"
        instances.write_text(_csv(header, rows, bad_row), encoding="utf-8")
        target_rows = [[f"b{i}", repr(y)] for i, y in enumerate(targets)]
        targets_path.write_text(_csv("bag_id,y", target_rows, bad_target), encoding="utf-8")
        model = Path(tmp) / "model.json"
        fit = ["fit", "--model", kind, "--out", model, "--n-features", "8"]
        if _assert_clean_exit(*fit, "--instances", instances, "--targets", cli_data["targets"]) == 0:
            _assert_clean_exit("predict", "--model-file", model, "--instances", instances,
                               "--out", Path(tmp) / "p.csv")
        if _assert_clean_exit(*fit, "--instances", cli_data["one"], "--targets", targets_path) == 0:
            _assert_clean_exit("predict", "--model-file", model, "--instances", instances,
                               "--out", Path(tmp) / "p.csv")


# ---------------------------------------------------------------------------
# Input bytes: each input file of the CLI (instances, targets, mmd sample,
# config, model) is a valid file with generated bytes spliced in. ``main``
# exits 0, or exits 1 with an ``error:`` line; when the file's reader rejects
# the file, that line is exactly the reader's error, and the error names the
# file. Every run works in a fresh directory and names only files in it.

INPUT_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_TEMPLATES = {
    "i.csv": "bag_id,f1,f2\n" + "".join(f"b{i % 8},{0.5 * i - 3:g},{(i * 7) % 5 - 1.5:g}\n" for i in range(16)),
    "t.csv": "bag_id,y\n" + "".join(f"b{i},{0.25 * i - 1:g}\n" for i in range(8)),
    "s.csv": "# x,y\n" + "".join(f"{0.3 * i:g},{(i * 5) % 7 - 3:g}\n" for i in range(12)),
    "s0.csv": "".join(f"{0.2 * i - 1:g},{(i * 3) % 4:g}\n" for i in range(12)),
    "c.json": json.dumps({"instances": "i.csv", "targets": "t.csv", "models": ["lr"], "trials": 1, "folds": 2,
                          "seed": 0, "out": "out", "grid": {"lams": [0.001]}}, indent=1),
}
_FIT = ("fit", "--model", "lr", "--instances", "i.csv", "--targets", "t.csv", "--out", "m.json")
# role -> (the file it splices, the command, the file's reader, the files the reader reads)
_ROLES = {
    "instances": ("i.csv", _FIT, lambda p: load_bags(p, "t.csv"), ("i.csv", "t.csv")),
    "targets": ("t.csv", _FIT, lambda p: load_bags("i.csv", p), ("i.csv", "t.csv")),
    "sample": ("s.csv", ("mmd", "s.csv", "s0.csv", "--permutations", "5"), load_sample, ("s.csv",)),
    "config": ("c.json", ("run", "--config", "c.json"), _load_config, ("c.json",)),
    "model": ("m.json", ("predict", "--model-file", "m.json", "--instances", "i.csv", "--out", "p.csv"),
              load_model, ("m.json",)),
}
_FRAGMENTS = st.sampled_from(
    [b"\x00", b"\xff", b"\xc3", b'"', b"\r", b"\n", b"\xef\xbb\xbf", b"_", "\u0661".encode(), "\u00a0".encode(),
     b",", b"#", b" ", b"\r\n", b"", b"e", b"-", b".", b"nan", b"x" * 140_000, b"[" * 5000, b"{", b"}"]
) | st.binary(max_size=3)
# (where, bytes cut, fragment): no fragment holds a "/" or a digit, so a
# spliced config names only files in its own directory and asks for at most
# a few trials
_SPLICES = st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 3), _FRAGMENTS.map(lambda b: bytes(c for c in b if c not in b"/0123456789"))),
    min_size=1,
    max_size=3,
)


def _splice(data: bytes, splices) -> bytes:
    for where, cut, fragment in splices:
        i = int(where * len(data))
        data = data[:i] + fragment + data[i + cut:]
    return data


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The template input files, with the model file ``_FIT`` writes."""
    root = tmp_path_factory.mktemp("inputs")
    files = {name: text.encode() for name, text in _TEMPLATES.items()}
    with contextlib.chdir(root):
        for name, data in files.items():
            Path(name).write_bytes(data)
        assert _run_main(*_FIT)[0] == 0
        files["m.json"] = Path("m.json").read_bytes()
    return files


@pytest.mark.parametrize("role", sorted(_ROLES))
@INPUT_PROPERTY
@given(_SPLICES)
@example([(0.0, 0, b"\xef\xbb\xbf")])
@example([(0.0, 1, b"[" * 5000)])
@example([(0.5, 0, b"x" * 140_000)])
@example([(0.5, 0, b"\x00")])
@example([(0.7, 1, b"\xff")])
@example([(0.9, 1, b"_")])
@example([(0.9, 1, "\u0661".encode())])
@example([(0.3, 0, b'"'), (0.6, 0, b"\r")])
def test_spliced_input_bytes_fail_cleanly(input_files, role, splices):
    name, argv, read, read_names = _ROLES[role]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for file, data in input_files.items():
            Path(file).write_bytes(_splice(data, splices) if file == name else data)
        try:
            read(name)
            rejected = None
        except (OSError, ValueError) as exc:
            rejected = exc
        rc, err = _run_main(*argv)
    assert "Traceback" not in err
    if rejected is None:
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (role, splices, err)
    else:
        assert (rc, err) == (1, f"error: {rejected}\n")
        assert any(file in str(rejected) for file in read_names), err


_NUMBER_TEXTS = st.lists(
    st.sampled_from(list("0123456789+-.eE_ \t\"x") + ["inf", "nan", "Infinity", "\u0661", "\u00b2", "\u00a0",
                                                     "\u2003", "\x1c", "\x00", "\ufeff"]),
    min_size=1,
    max_size=8,
).map("".join).filter(str.strip)  # a blank line is no number, and a sample skips it


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_NUMBER_TEXTS)
@example("1_000")
@example("\u0661")
@example("1\u00a0")
@example('"1.5"')
@example(" -2E3\t")
def test_number_texts_load_alike_in_instances_and_samples(text):
    # one field on its own line, so "," line breaks and "#" comments, which
    # are the file formats' syntax, are not drawn
    with tempfile.TemporaryDirectory() as tmp:
        inst, sample = Path(tmp, "i.csv"), Path(tmp, "s.csv")
        inst.write_text(f"bag_id,f1\na,{text}\n", encoding="utf-8")
        sample.write_text(f"0\n{text}\n", encoding="utf-8")
        loaded = []
        for read in (lambda: load_bags(inst).bags[0].instances[0, 0], lambda: load_sample(sample)[1, 0]):
            try:
                loaded.append(repr(float(read())))
            except DataFormatError:
                loaded.append(None)
    assert loaded[0] == loaded[1], (text, loaded)
