"""Warm state declared once: the field list every transfer derives from.

TFlex shares no physical structures, so whenever a composition changes
under a running program — the sampled engine's shadow <-> window
hand-off, recomposition after a core failure — predictor tables, the
RAS and cache banks are re-homed structure by structure.  A structure
that owns such state lists it once::

    class DistributedRas(WarmState):
        WARM = (("_stack", list, list), ("_top", int, int))

Each entry is ``(attribute, encode, decode)``: ``encode`` turns the live
value into JSON-safe data, ``decode`` rebuilds a fresh live value from
it.  The snapshot, the load and the O(1) exchange below are derived
from that list, so an attribute is either declared (and moves in all
three) or stays with its owner (stats, config, memo tables) — there is
no per-method copy of the list to fall out of step.  The contract is
``tests/test_warm.py``: every subclass and both composites must
round-trip there, so a field left off the list, or a name on it that
``__init__`` never assigns, fails by behaviour.
"""

from __future__ import annotations


def _sizes(values) -> tuple:
    return tuple(len(value) for value in values if hasattr(value, "__len__"))


def stage_all(parts):
    """Stage every ``(structure, snapshot)`` pair, then return the call
    that commits them all: a composite's ``load_state`` refuses a bad
    part before any part has moved."""
    commits = [part.stage_state(snapshot) for part, snapshot in parts]

    def commit() -> None:
        for assign in commits:
            assign()
    return commit


class WarmState:
    """Mixin deriving ``state_dict``/``load_state``/``swap_state`` from
    the class's ``WARM`` declaration."""

    #: ((attribute, encode, decode), ...) — see the module docstring.
    WARM: tuple = ()

    def warm_geometry(self) -> tuple:
        """What two instances must agree on to exchange state: by
        default the length of every sized declared field."""
        return _sizes(getattr(self, name) for name, __, __ in self.WARM)

    def check_warm(self, values: dict) -> None:
        """Raise ``ValueError`` unless the decoded ``values`` (attribute
        -> live value) fit this instance; nothing is assigned before
        this returns."""
        if _sizes(values.values()) != _sizes(getattr(self, name)
                                             for name in values):
            raise ValueError(
                f"{type(self).__name__}: snapshot geometry mismatch")

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the declared fields, keyed by attribute
        name without the leading underscore."""
        return {name.lstrip("_"): encode(getattr(self, name))
                for name, encode, __ in self.WARM}

    def stage_state(self, state: dict):
        """Decode a :meth:`state_dict` snapshot and check that it fits;
        returns the call that assigns it.  A snapshot that does not fit
        raises here, and nothing changes before the returned call — so
        a composite stages every part, then commits (:func:`stage_all`)."""
        values = {name: decode(state[name.lstrip("_")])
                  for name, __, decode in self.WARM}
        self.check_warm(values)

        def commit() -> None:
            for name, value in values.items():
                setattr(self, name, value)
        return commit

    def load_state(self, state: dict) -> None:
        """Replace the declared fields with a :meth:`state_dict`
        snapshot; one that does not fit raises and changes nothing."""
        self.stage_state(state)()

    def swap_state(self, other: "WarmState") -> None:
        """Exchange the declared fields with a same-geometry instance by
        reference, in O(1): observably a ``state_dict``/``load_state``
        round trip in each direction (container order included) that
        allocates nothing."""
        if self.warm_geometry() != other.warm_geometry():
            raise ValueError(f"{type(self).__name__}: swap geometry mismatch")
        for name, __, __ in self.WARM:
            mine = getattr(self, name)
            setattr(self, name, getattr(other, name))
            setattr(other, name, mine)
