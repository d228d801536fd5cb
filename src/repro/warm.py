"""Warm state declared once: the field list every transfer derives from.

TFlex shares no physical structures, so whenever a composition changes
under a running program — the sampled engine's shadow <-> window
hand-off, recomposition after a core failure — predictor tables, the
RAS and cache banks are re-homed structure by structure.  A structure
that owns such state lists it once::

    class DistributedRas(WarmState):
        WARM = ("_stack", "_top")

Each entry names one attribute.  The geometry check and the O(1)
exchange below are derived from that list, so an attribute is either
declared (and moves on every swap) or stays with its owner (stats,
config, memo tables) — there is no per-method copy of the list to fall
out of step.  The contract is ``tests/test_warm.py``: every subclass
and ``PredictorBank`` swap there against a deep copy of each side taken
before the swap, and the sampled engine's window load must move every
warm part the shadow holds, so a field left off the list, a name on it
that ``__init__`` never assigns, or a part left out of a pairing fails
by behaviour.
"""

from __future__ import annotations


class WarmState:
    """Mixin deriving ``warm_geometry``/``swap_state`` from the class's
    ``WARM`` declaration."""

    #: (attribute, ...) — see the module docstring.
    WARM: tuple = ()

    def warm_geometry(self) -> tuple:
        """What two instances must agree on to exchange state: by
        default the length of every sized declared field."""
        values = [getattr(self, name) for name in self.WARM]
        return tuple(len(value) for value in values
                     if hasattr(value, "__len__"))

    def swap_state(self, other: "WarmState") -> None:
        """Exchange the declared fields with a same-geometry instance by
        reference, in O(1): each side ends with exactly the contents
        (container order included) the other held, and nothing is
        allocated."""
        if self.warm_geometry() != other.warm_geometry():
            raise ValueError(f"{type(self).__name__}: swap geometry mismatch")
        for name in self.WARM:
            mine = getattr(self, name)
            setattr(self, name, getattr(other, name))
            setattr(other, name, mine)
