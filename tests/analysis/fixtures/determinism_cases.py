"""Fixture: determinism pass (REP201-REP204) violations and safe idioms.

Nothing here executes — the linter only parses it.
"""

import time


def wall_clock_read():
    return time.time()                       # REP201


def entropy_read():
    import os

    return os.urandom(8)                     # REP202


def process_hash(value):
    return hash(value)                       # REP203


def identity_order(items):
    return id(items)                         # REP203


def set_for_statement(cores: set):
    total = 0
    for core in cores:                       # REP204 (for over a set)
        total += core * total
    return total


def set_comprehension():
    live = {1, 2, 3}
    return [c * 2 for c in live]             # REP204 (ordered output)


def set_into_tuple(store_ids: frozenset, limit):
    return tuple(s for s in store_ids if s < limit)   # REP204


def inferred_set_local(a, b):
    shared = set(a) | set(b)
    out = []
    for item in shared:                      # REP204 (inferred set type)
        out.append(item)
    return out


def sorted_iteration_is_fine(cores: set):
    return [c for c in sorted(cores)]        # ok: sorted imposes order


def reducers_are_fine(cores: set):
    return sum(c for c in cores), any(c > 2 for c in cores), len(cores)


def membership_is_fine(cores: set, core):
    return core in cores and not (set(cores) & {core})
