"""Property tests on small random ragged datasets.

Bag Grams: hypothesis draws the bags (1-6 bags of 1-5 instances, d = 1-3)
and up to four sigmas; every Gram of one call comes from the same
squared-distance tiles (``kernels._bag_grams`` / ``_cross_bag_grams``).
Models: the predictions of every kind are invariant to instance order,
instance duplication and per-feature affine maps of the input. Runs are
derandomized so the suite stays reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from distreg import (
    MODEL_KINDS,
    MULTISOURCE_KINDS,
    Bag,
    BagDataset,
    MultiSourceDataset,
    RbfParams,
    fit_model,
    predict_model,
)
from distreg.kernels import _bag_grams, _cross_bag_grams
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
    for want, got in zip(_bag_grams(train, gammas), _bag_grams(shuffled[0], gammas)):
        assert np.array_equal(want, got)
    for want, got in zip(
        _cross_bag_grams(test, train, gammas), _cross_bag_grams(shuffled[1], shuffled[0], gammas)
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
    for want, got in zip(_bag_grams(train, gammas), _bag_grams(moved_train, gammas)):
        want = want[np.ix_(p, p)]
        assert np.array_equal(want[kept], got[kept])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
    for want, got in zip(
        _cross_bag_grams(test, train, gammas),
        _cross_bag_grams(_reorder(test, q), moved_train, gammas),
    ):
        assert np.array_equal(want[np.ix_(q, p)], got)


@PROPERTY
@given(ragged_pair(), _sigmas)
def test_matches_loop_oracle(pair, sigmas):
    train, test = pair
    gammas = _gammas(sigmas)
    for sigma, gram, cross in zip(
        sigmas, _bag_grams(train, gammas), _cross_bag_grams(test, train, gammas)
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
