"""Property tests of the swept bag Grams on small random ragged datasets.

Hypothesis draws the bags (1-6 bags of 1-5 instances, d = 1-3) and up to
four sigmas; every Gram of one call comes from the same squared-distance
tiles (``kernels._bag_grams`` / ``_cross_bag_grams``). Runs are derandomized
so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from distreg import Bag, BagDataset, RbfParams
from distreg.kernels import _bag_grams, _cross_bag_grams
from conftest import oracle_bag_gram, oracle_cross_bag_gram

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
