"""What a warm structure holds, in a form tests can compare.

Warm state moves only by ``swap_state`` (:mod:`repro.warm`), so tests
that ask "do these two hold the same warm state?" read the declared
``WARM`` fields through :func:`fields`: every ``WarmState`` reachable
from a structure (a leaf, a ``PredictorBank``, a ``ShadowUarch``), by
path, with a cache's untouched sets dropped (an absent set and an empty
one are the same state), its lines as ``(ctx, line_addr, state)`` in
LRU order, and lists copied, so a later change to the structure leaves
an earlier reading as it was.
"""

from repro.sample.shadow import ShadowUarch
from repro.warm import WarmState


def warm_parts(obj, path=()):
    """Every ``WarmState`` reachable from ``obj`` through ``vars()`` of
    repro objects and through lists, with the path that reaches it."""
    if isinstance(obj, WarmState):
        yield path, obj
    elif isinstance(obj, list):
        for index, item in enumerate(obj):
            yield from warm_parts(item, path + (index,))
    elif type(obj).__module__.startswith("repro.") \
            and hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            yield from warm_parts(value, path + (name,))


def plain(value):
    if isinstance(value, dict):                 # a cache bank's sets
        return {index: list(cache_set.items())
                for index, cache_set in sorted(value.items()) if cache_set}
    if isinstance(value, list):
        return list(value)
    return value


def fields(structure) -> dict:
    """Path of each reachable warm part -> its declared fields, plain."""
    if isinstance(structure, ShadowUarch):
        structure.settle()
    return {path: {name: plain(getattr(part, name)) for name in part.WARM}
            for path, part in warm_parts(structure)}
