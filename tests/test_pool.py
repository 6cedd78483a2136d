"""The worker pool's one entry point, ``distreg._run_parts``: after a failing
item or an interrupt of the calling thread, every share stops before its next
item, and the call returns only once they all have."""

import threading
import types

import pytest

import distreg
from conftest import with_workers


@pytest.fixture
def stopped(monkeypatch):
    """An event that the stop event of every ``_run_parts`` call sets as it
    is set, so that an item can wait until its share has been told to stop."""
    stopped = threading.Event()

    class Stop(threading.Event):
        def set(self):
            super().set()
            stopped.set()

    monkeypatch.setattr(distreg, "_threading", types.SimpleNamespace(Event=Stop, Lock=threading.Lock))
    return stopped


def test_failing_item_stops_every_share(stopped):
    # 6 items at 3 workers: shares [0, 2), [2, 4) and [4, 6); item 2 fails
    # once items 0 and 4 are running, and these end only after the stop
    error = ValueError("item 2 failed")
    started, entered, waited = [], {0: threading.Event(), 4: threading.Event()}, []

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
    assert sorted(started) == [0, 2, 4] and waited == [True, True]


def test_interrupt_of_the_caller_waits_for_the_pool(stopped):
    # 4 items at 2 workers: the calling thread works [0, 2), the pool [2, 4)
    log, pool_in = [], threading.Event()

    def item(i):
        log.append(("start", i))
        if threading.current_thread() is threading.main_thread():
            assert pool_in.wait(10)
            raise KeyboardInterrupt
        pool_in.set()
        assert stopped.wait(10)
        log.append(("end", i))

    def interrupted_then_again():
        with pytest.raises(KeyboardInterrupt):
            distreg._run_parts(item, [1] * 4)
        # the pool share had ended before the interrupt came back, and had
        # started no item after the stop
        assert sorted(log) == [("end", 2), ("start", 0), ("start", 2)]
        threads = []
        distreg._run_parts(lambda i: threads.append(threading.current_thread()), [1, 1])
        return threads

    threads = with_workers(2, interrupted_then_again)
    assert threads[0] is threading.main_thread() or threads[1] is threading.main_thread()
    assert len(set(threads)) == 2
