"""The package's one entry point for parallel work, ``distreg._run_parts``:
the calling thread and the threads that the call starts pull the items from
one queue, largest first; after a failing item or an interrupt of the
calling thread, no thread starts another item, and the call returns only
once it has joined every thread it started. And the tile engine's one queue
of pairs of chunk groups (``kernels._grams``) gives the same bytes whichever
thread pulls which item, in whichever order."""

import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distreg
from conftest import with_workers
from distreg import Bag, BagDataset, kernels


@pytest.fixture
def stopped(monkeypatch):
    """An event that the stop event of every ``_run_parts`` call sets as it
    is set, so that an item can wait until its thread has been told to stop."""
    stopped = threading.Event()

    class Stop(threading.Event):
        def set(self):
            super().set()
            stopped.set()

    namespace = types.SimpleNamespace(Event=Stop, Lock=threading.Lock, Thread=threading.Thread)
    monkeypatch.setattr(distreg, "_threading", namespace)
    return stopped


def test_failing_item_stops_every_thread(stopped):
    # 6 items at 3 workers, pulled in index order: items 0 and 1 hold their
    # threads until the stop, so the third thread pulls item 2, which fails
    # once both are running
    error = ValueError("item 2 failed")
    started, entered, waited = [], {0: threading.Event(), 1: threading.Event()}, []

    def item(i):
        started.append(i)
        if i in entered:
            entered[i].set()
            waited.append(stopped.wait(10))
        elif i == 2:
            assert all(event.wait(10) for event in entered.values())
            raise error

    with pytest.raises(ValueError) as caught:
        with_workers(3, distreg._run_parts, item, [1] * 6)
    assert caught.value is error
    assert sorted(started) == [0, 1, 2] and waited == [True, True]


def test_interrupt_of_the_caller_waits_for_the_pool(stopped):
    # 4 items at 2 workers: the calling thread is interrupted in its first
    # item once the started thread is in one of its own
    log, pool_in = [], threading.Event()

    def item(i):
        caller = threading.current_thread() is threading.main_thread()
        log.append(("start", caller))
        if caller:
            assert pool_in.wait(10)
            raise KeyboardInterrupt
        pool_in.set()
        assert stopped.wait(10)
        log.append(("end", caller))

    def interrupted_then_again():
        with pytest.raises(KeyboardInterrupt):
            distreg._run_parts(item, [1] * 4)
        # the started thread's item had ended before the interrupt came
        # back, and no thread had started an item after the stop
        assert sorted(log) == [("end", False), ("start", False), ("start", True)]
        # the next call starts at once: its two items meet, so they run on
        # the calling thread and a started thread at the same time
        meeting, threads = threading.Barrier(2, timeout=10), []

        def meet(i):
            threads.append(threading.current_thread())
            meeting.wait()

        distreg._run_parts(meet, [1, 1])
        return threads

    threads = with_workers(2, interrupted_then_again)
    assert threading.main_thread() in threads and len(set(threads)) == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("end", ["return", "failing item", "interrupted caller"])
def test_no_thread_outlives_the_call(workers, end):
    # the first `workers` items meet, one on each thread, so that every
    # thread has started; then the call returns, or those items fail on the
    # started threads (on the calling thread at 1 worker), or the calling
    # thread is interrupted in its own
    meeting, ran, raised = threading.Barrier(workers, timeout=10), set(), []

    def item(i):
        ran.add(threading.current_thread().name)
        if i < workers:
            meeting.wait()
            caller = threading.current_thread() is threading.main_thread()
            if end == "failing item" and caller == (workers == 1):
                raise ValueError(f"item {i} failed")
            if end == "interrupted caller" and caller:
                raise KeyboardInterrupt

    def call():
        try:
            distreg._run_parts(item, [1] * (2 * workers))
        except (ValueError, KeyboardInterrupt) as error:
            raised.append(type(error))
        return [thread.name for thread in threading.enumerate() if thread.name.startswith("distreg")]

    assert with_workers(workers, call) == []
    assert len(ran) == workers
    assert raised == {"return": [], "failing item": [ValueError], "interrupted caller": [KeyboardInterrupt]}[end]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_item_runs_exactly_once(workers):
    # more threads than CPUs, switching every microsecond: an item pulled
    # twice or lost would show
    sizes = [int(n) for n in np.random.default_rng(5).integers(1, 10, 300)]
    ran = []
    with_workers(workers, distreg._run_parts, ran.append, sizes)
    assert sorted(ran) == list(range(len(sizes)))
    if workers == 1:  # largest first, equal sizes in index order
        assert ran == sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))


@pytest.mark.parametrize("n_items", [1, 2, 3, 5])
def test_one_scratch_per_pulling_thread(n_items):
    # at 3 workers, fewer items than workers make only that many scratches,
    # all on the calling thread, and each item gets its thread's own
    made = []

    def scratch():
        made.append((threading.current_thread(), []))
        return made[-1][1]

    def item(i, buffer):
        buffer.append((i, threading.current_thread()))

    with_workers(3, distreg._run_parts, item, [1] * n_items, scratch)
    assert len(made) == min(3, n_items)
    assert all(thread is threading.main_thread() for thread, _ in made)
    assert sorted(i for _, buffer in made for i, _ in buffer) == list(range(n_items))
    for _, buffer in made:
        assert len({thread for _, thread in buffer}) <= 1


def reversed_pulls(item, sizes, scratch=None):
    """``_run_parts`` on the calling thread with the items in reverse index
    order: the pairs of chunk groups of a ``_grams`` queue last first."""
    buffers = () if scratch is None else (scratch(),)
    for i in reversed(range(len(sizes))):
        item(i, *buffers)


@st.composite
def cut_bag_sets(draw):
    """A TILE and the bag sizes of a training and a test set: ragged bags
    of up to four TILE-row pieces each."""
    tile = draw(st.sampled_from([4, 64]))
    size = st.integers(1, 4 * tile)
    return tile, draw(st.lists(size, min_size=1, max_size=8)), draw(st.lists(size, min_size=1, max_size=5))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sets=cut_bag_sets(), n_sigmas=st.integers(1, 3), dim=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_grams_same_bytes_whichever_thread_pulls_which_pair(sets, n_sigmas, dim, seed):
    # the sums of a bag cut across chunks are added in chunk-pair order
    # whichever thread computed them: at 1 and 2 workers, and with the
    # items of the one queue of both Grams pulled last first
    tile, sizes, test_sizes = sets
    rng = np.random.default_rng(seed)

    def bags(sizes, prefix):
        return BagDataset(
            tuple(Bag(f"{prefix}{i}", rng.standard_normal((n, dim))) for i, n in enumerate(sizes)),
            np.zeros(len(sizes)),
        )

    train, test = bags(sizes, "b"), bags(test_sizes, "t")
    jobs = [(train, None, list(np.geomspace(0.05, 3.0, n_sigmas))), (test, train, [0.7])]

    def grams():
        return [gram.tobytes() for gram in kernels._grams(jobs)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TILE", tile)
        want = with_workers(1, grams)
        assert with_workers(2, grams) == want
        mp.setattr(kernels, "_run_parts", reversed_pulls)
        assert grams() == want
