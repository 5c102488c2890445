"""Work queue: take/put-back semantics, priority discipline, exactly-once."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsph.runtime import WorkQueue


def check_priority_discipline(trace):
    """No counter index may be delivered while a put-back is pending: every
    take must consume a prefix of the high-priority list, and may touch the
    counter only after consuming all of it."""
    for op, returned, high_before in trace:
        if op != "take":
            continue
        hp = list(high_before)
        consumed = returned[:len(hp)]
        assert list(consumed) == hp[:len(consumed)]
        counter_part = returned[len(consumed):]
        if counter_part:
            assert len(consumed) == len(hp), (
                "counter index delivered while high-priority work pending")
            assert list(counter_part) == sorted(counter_part)


def check_exactly_once(trace, n):
    takes: dict[int, int] = {}
    put_backs: dict[int, int] = {}
    for op, indices, _ in trace:
        book = takes if op == "take" else put_backs
        for i in indices:
            book[i] = book.get(i, 0) + 1
    for i in range(n):
        assert takes.get(i, 0) - put_backs.get(i, 0) == 1, f"index {i}"


class TestTakeSemantics:
    def test_counter_take(self):
        q = WorkQueue(10)
        assert q.take(3) == [0, 1, 2]
        assert q.take(3) == [3, 4, 5]

    def test_high_priority_served_first_then_counter(self):
        q = WorkQueue(10)
        for _ in range(3):
            q.take(3)
        q.put_back([7, 8])
        assert q.take(3) == [7, 8, 9]

    def test_exhausted_returns_empty(self):
        q = WorkQueue(4)
        q.take(4)
        assert q.take(5) == []

    def test_put_back_then_take(self):
        q = WorkQueue(10)
        q.take(6)
        q.put_back([4, 5])
        assert q.take(2) == [4, 5]

    def test_put_back_empty_is_noop(self):
        trace = []
        q = WorkQueue(3, trace=trace)
        q.put_back([])
        assert trace == []

    def test_take_requires_positive_k(self):
        q = WorkQueue(3)
        with pytest.raises(ValueError):
            q.take(0)

    def test_empty_means_no_high_and_counter_done(self):
        q = WorkQueue(2)
        taken = q.take(2)
        assert q.take(1) == []
        # a put-back after the counter is done makes the queue non-empty
        q.put_back(taken)
        assert q.take(3) == taken
        assert q.take(1) == []


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 99)),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_single_threaded_random_schedules(script):
    n = 30
    trace = []
    q = WorkQueue(n, trace=trace)
    rng = random.Random(1234)
    outstanding: list[int] = []
    for k, decision in script:
        got = q.take(k)
        if not got and not outstanding:
            break
        # process some, put back some (at most once per holding)
        for idx in got:
            if decision % 3 == 0:
                outstanding.append(idx)
            # else: processed
        if decision % 5 == 0 and outstanding:
            q.put_back(outstanding)
            outstanding = []
    if outstanding:
        q.put_back(outstanding)
    while q.take(7):
        pass
    check_exactly_once(trace, n)
    check_priority_discipline(trace)


def _stress_trial(n_items: int, takers: int, seed: int):
    trace = []
    q = WorkQueue(n_items, trace=trace)
    processed = [0] * n_items
    lock = threading.Lock()

    def taker(tid: int):
        rng = random.Random(seed * 1000 + tid)
        held: list[int] = []
        while True:
            got = q.take(rng.randint(1, 4))
            if not got:
                if held:
                    q.put_back(held)
                    held = []
                    continue
                return
            for idx in got:
                if rng.random() < 0.1 and len(held) < 8:
                    held.append(idx)  # hoarded, put back later
                else:
                    with lock:
                        processed[idx] += 1
            if held and rng.random() < 0.5:
                q.put_back(held)
                held = []

    threads = [threading.Thread(target=taker, args=(t,)) for t in range(takers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # a final single-threaded drain catches anything put back after other
    # takers saw an empty queue
    while True:
        got = q.take(8)
        if not got:
            break
        for idx in got:
            processed[idx] += 1
    return trace, processed


def test_concurrent_takers_exactly_once_small():
    for seed in range(10):
        trace, processed = _stress_trial(400, takers=8, seed=seed)
        assert processed == [1] * 400
        check_exactly_once(trace, 400)
        check_priority_discipline(trace)


def test_abort_stops_delivery_observers():
    q = WorkQueue(100)
    q.take(10)
    q.abort()
    assert q.aborted
