"""Event-order property of the bucketed kernel.

A random schedule — absolute and relative times, handlers that schedule
same-cycle and later events, ``stop()`` from inside a handler (on its
own, or once a run has executed a set number of events) and cycle
budgets, each followed by a resumed ``run()`` —
must execute in exactly the order of a reference ``(cycle, seq)``
min-heap (the kernel the buckets replaced), with equal return value,
``now``, ``pending`` and ``events_processed`` at every return.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.tflex import EventQueue


class ReferenceQueue:
    """One heap entry per event, ordered by (cycle, insertion)."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap = []
        self._seq = 0
        self._stopped = False

    def at(self, cycle, fn):
        assert cycle >= self.now
        heapq.heappush(self._heap, (cycle, self._seq, fn))
        self._seq += 1

    def after(self, delay, fn):
        self.at(self.now + delay, fn)

    def stop(self):
        self._stopped = True

    def run(self, max_cycles=10_000_000):
        self._stopped = False
        while self._heap:
            if self._stopped:
                return True
            if self._heap[0][0] > max_cycles:
                return False
            self.now, __, fn = heapq.heappop(self._heap)
            self.events_processed += 1
            fn()
        return True


#: An event is ``(stops, children)``; a child is ``(relative, delay,
#: event)`` — scheduled from inside its parent with ``after(delay)`` or
#: ``at(now + delay)``; delay 0 lands in the cycle being run.
events = st.recursive(
    st.tuples(st.booleans(), st.just(())),
    lambda inner: st.tuples(
        st.sampled_from([False, False, False, True]),
        st.lists(st.tuples(st.booleans(), st.integers(0, 4), inner),
                 max_size=4).map(tuple)),
    max_leaves=25)

#: One ``run()`` call: the handler that completes ``stop_after`` further
#: events calls ``stop()`` (None: no such stop), and/or a budget
#: ``budget`` cycles past now.
runs = st.lists(st.tuples(st.none() | st.integers(1, 6),
                          st.none() | st.integers(0, 8)), max_size=8)


def pending(queue):
    """Events scheduled and not yet run."""
    if isinstance(queue, ReferenceQueue):
        return len(queue._heap)
    return sum(map(len, queue._buckets.values()))


def play(queue, roots, plan):
    """Drive ``queue`` through the schedule; returns the event order
    and the observable state after every ``run()``."""
    order = []
    names = iter(range(10**6))
    target = None            # stop once len(order) reaches it

    def handler(event):
        name = next(names)
        stops, children = event

        def fn():
            order.append((name, queue.now))
            for relative, delay, child in children:
                if relative:
                    queue.after(delay, handler(child))
                else:
                    queue.at(queue.now + delay, handler(child))
            if stops or len(order) == target:
                queue.stop()
        return fn

    for cycle, event in roots:
        queue.at(cycle, handler(event))
    states = []
    plan = list(plan)
    while plan or pending(queue):
        # Past the plan, plain runs (each makes progress) drain the rest.
        stop_after, budget = plan.pop(0) if plan else (None, None)
        target = None if stop_after is None else len(order) + stop_after
        returned = queue.run(
            max_cycles=10_000_000 if budget is None else queue.now + budget)
        states.append((returned, queue.now, pending(queue),
                       queue.events_processed, len(order)))
    return order, states


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), events), max_size=8), runs)
def test_bucketed_kernel_matches_reference_heap(roots, plan):
    order, states = play(EventQueue(), roots, plan)
    ref_order, ref_states = play(ReferenceQueue(), roots, plan)
    assert order == ref_order
    assert states == ref_states
    if states:                           # drained: nothing was dropped
        assert states[-1][2] == 0 and states[-1][3] == len(order)


def test_stop_mid_cycle_keeps_tail_ahead_of_new_same_cycle_events():
    queue = EventQueue()
    order = []

    def first():
        order.append("first")
        queue.at(queue.now, lambda: order.append("scheduled-by-first"))
        queue.stop()

    queue.at(3, first)
    queue.at(3, lambda: order.append("second"))
    assert queue.run() is True
    assert order == ["first"] and pending(queue) == 2 and queue.now == 3
    assert queue.run() is True
    assert order == ["first", "second", "scheduled-by-first"]
    assert queue.events_processed == 3
