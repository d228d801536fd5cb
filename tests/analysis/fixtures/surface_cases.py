"""Fixture: transfer-surface pass (REP101) good/bad classes.

Nothing here executes — the linter only parses it.
"""


class GoodBank:
    """Every mutable attribute is read by the surface."""

    def __init__(self, entries):
        self.entries = entries            # config scalar: not state
        self._table = [0] * entries       # mutable, covered below
        self._hist = {}                   # mutable, covered below

    def train(self, key, value):
        self._table[key % self.entries] = value
        self._hist[key] = value

    def state_dict(self):
        return {"table": list(self._table), "hist": dict(self._hist)}

    def load_state(self, state):
        self._table = list(state["table"])
        self._hist = dict(state["hist"])


class BadBank:
    """``history`` is warm state the surface never reads -> REP101."""

    def __init__(self, entries):
        self.entries = entries
        self._table = [0] * entries
        self.history = []                 # mutable, never in state_dict

    def train(self, key, value):
        self._table[key % self.entries] = value
        self.history.append(key)

    def state_dict(self):
        return {"table": list(self._table)}


class LateBinder:
    """``_cursor`` is assigned outside __init__ -> state -> REP101."""

    def __init__(self):
        self._stack = []

    def push(self, value):
        self._stack.append(value)
        self._cursor = len(self._stack)

    def swap_state(self, other):
        self._stack, other._stack = other._stack, self._stack


class AllowedBank:
    """Same shape as BadBank but explicitly allow-listed."""

    def __init__(self, entries):
        self._table = [0] * entries
        self.trace = []  # lint: ok(REP101) debug trace, not warm state

    def train(self, key, value):
        self._table[key % len(self._table)] = value
        self.trace.append(key)

    def state_dict(self):
        return {"table": list(self._table)}


class GoodWarm:
    """Field-list owner: every mutable attribute is named in ``WARM``
    (coverage is the declaration, not a read inside some method)."""

    WARM = (("_table", list, list), ("_top", int, int))

    def __init__(self, entries):
        self.entries = entries            # config scalar: not state
        self._table = [0] * entries
        self._top = 0

    def push(self, value):
        self._table[self._top % self.entries] = value
        self._top += 1


class BadWarm:
    """``_hist`` is warm state missing from ``WARM`` -> REP101."""

    WARM = (("_table", list, list),)

    def __init__(self, entries):
        self._table = [0] * entries
        self._hist = {}                   # mutable, not declared

    def train(self, key, value):
        self._table[key % len(self._table)] = value
        self._hist[key] = value


class GhostWarm:
    """``WARM`` names ``_ghost``, which ``__init__`` never assigns ->
    REP101 (the derived ``state_dict`` would raise at run time)."""

    WARM = (("_table", list, list), ("_ghost", list, list))

    def __init__(self, entries):
        self._table = [0] * entries

    def train(self, key, value):
        self._table[key % len(self._table)] = value


class NoSurface:
    """No surface methods -> the pass ignores it entirely."""

    def __init__(self):
        self.anything = []

    def poke(self):
        self.anything.append(1)
