"""Deterministic, seeded fault models for resilience experiments.

A :class:`FaultSchedule` is a pure value describing every fault a run
will experience:

* ``core_dead`` — the core is defective at boot and never joins a
  composition (manufacturing fault / field failure before the run);
* ``core_kill`` — the core dies at an exact simulated cycle while the
  system is running (transient field failure);
* ``link_slow`` — one directed mesh link survives in a degraded mode
  and costs extra cycles per traversal (marginal wire/router).

Schedules round-trip through JSON exactly and normalise to a canonical
event order, so two logically equal schedules compare, serialise, and
— via :meth:`FaultSchedule.spec_items` — *content-hash* equal inside a
:class:`repro.exec.JobSpec`.  Seeded generators (:meth:`boot_dead`)
derive fault sites from the workload :class:`~repro.workloads.data.Lcg`
so campaigns are reproducible across machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.workloads.data import Lcg

#: Recognised fault kinds, in canonical sort order.
KINDS = ("core_dead", "link_slow", "core_kill")

#: Networks a ``link_slow`` fault may degrade.
NETS = ("opn", "control", "both")


@dataclass(frozen=True)
class FaultEvent:
    """One fault: kind plus the fields that kind uses.

    ``core_dead`` uses ``core``; ``core_kill`` uses ``core`` and
    ``cycle``; ``link_slow`` uses ``link``, ``extra`` and ``net``.
    """

    kind: str
    core: Optional[int] = None
    cycle: Optional[int] = None
    link: Optional[tuple[int, int]] = None
    extra: int = 0
    net: str = "both"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {', '.join(KINDS)})")
        if self.kind in ("core_dead", "core_kill"):
            if self.core is None or self.core < 0:
                raise ValueError(f"{self.kind} needs a core index >= 0")
            if self.link is not None:
                raise ValueError(f"{self.kind} takes no link")
        if self.kind == "core_dead" and self.cycle is not None:
            raise ValueError("core_dead is a boot fault and takes no cycle "
                             "(use core_kill for a mid-run death)")
        if self.kind == "core_kill" and (self.cycle is None or self.cycle < 1):
            raise ValueError("core_kill needs a cycle >= 1 "
                             "(use core_dead for a boot fault)")
        if self.kind == "link_slow":
            if (self.link is None or len(self.link) != 2
                    or self.link[0] == self.link[1]):
                raise ValueError("link_slow needs a (src, dst) pair of "
                                 "distinct cores")
            object.__setattr__(self, "link", tuple(int(n) for n in self.link))
            if self.extra < 1:
                raise ValueError("link_slow needs extra latency >= 1")
            if self.net not in NETS:
                raise ValueError(f"unknown network {self.net!r} "
                                 f"(expected one of {', '.join(NETS)})")

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form carrying only the fields this kind uses."""
        data: dict = {"kind": self.kind}
        if self.kind == "core_dead":
            data["core"] = self.core
        elif self.kind == "core_kill":
            data["core"] = self.core
            data["cycle"] = self.cycle
        else:
            data["link"] = list(self.link)
            data["extra"] = self.extra
            data["net"] = self.net
        return data

    def canonical_json(self) -> str:
        """Deterministic single-line JSON — the ``JobSpec`` encoding."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict) -> "FaultEvent":
        link = data.get("link")
        return FaultEvent(
            kind=data["kind"], core=data.get("core"),
            cycle=data.get("cycle"),
            link=tuple(link) if link is not None else None,
            extra=data.get("extra", 0), net=data.get("net", "both"))

    def sort_key(self) -> tuple:
        """Canonical schedule order: boot faults first (dead cores,
        then degraded links), then kills by cycle; ties by site."""
        return (KINDS.index(self.kind), self.cycle or 0, self.core or -1,
                self.link or (-1, -1), self.net, self.extra)


@dataclass(frozen=True)
class FaultSchedule:
    """A normalised, hashable set of faults for one run."""

    events: tuple = ()

    def __post_init__(self) -> None:
        ordered = sorted(self.events, key=FaultEvent.sort_key)
        # Duplicate core faults are idempotent — drop them so equal
        # schedules hash equal.  Duplicate link degradations stack
        # (each adds latency) and are kept.
        seen: set = set()
        normalised = []
        for event in ordered:
            if event.kind in ("core_dead", "core_kill"):
                if event in seen:
                    continue
                seen.add(event)
            normalised.append(event)
        object.__setattr__(self, "events", tuple(normalised))

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- views ---------------------------------------------------------

    def boot_dead_cores(self) -> list[int]:
        return [e.core for e in self.events if e.kind == "core_dead"]

    def kill_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == "core_kill"]

    def link_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == "link_slow"]

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.events]}

    def spec_items(self) -> tuple[str, ...]:
        """The ``JobSpec.faults`` encoding: one canonical JSON string
        per event, in canonical order — logically equal schedules
        therefore produce byte-equal spec fields and equal content
        hashes."""
        return tuple(e.canonical_json() for e in self.events)

    @staticmethod
    def from_spec_items(items: Sequence[str]) -> "FaultSchedule":
        return FaultSchedule(tuple(FaultEvent.from_dict(json.loads(item))
                                   for item in items))

    # -- validation ----------------------------------------------------

    def validate(self, cfg, max_cycles: Optional[int] = None) -> None:
        """Check the schedule against a chip configuration.

        Raises ``ValueError`` with an actionable message when a fault
        references a core outside the chip, degrades a non-adjacent
        link, kills every core, or fires beyond the cycle budget.
        """
        num_cores = cfg.num_cores
        for event in self.events:
            if event.core is not None and event.core >= num_cores:
                raise ValueError(
                    f"fault targets core {event.core} but the chip has "
                    f"cores 0..{num_cores - 1}")
            if event.kind == "link_slow":
                src, dst = event.link
                if src >= num_cores or dst >= num_cores:
                    raise ValueError(
                        f"link ({src},{dst}) outside the {num_cores}-core "
                        f"chip")
                sx, sy = src % cfg.mesh_width, src // cfg.mesh_width
                dx, dy = dst % cfg.mesh_width, dst // cfg.mesh_width
                if abs(sx - dx) + abs(sy - dy) != 1:
                    raise ValueError(
                        f"({src},{dst}) is not a mesh link: cores are not "
                        f"adjacent on the {cfg.mesh_width}x{cfg.mesh_height} "
                        f"grid")
            if (event.kind == "core_kill" and max_cycles is not None
                    and event.cycle > max_cycles):
                raise ValueError(
                    f"core_kill at cycle {event.cycle} is beyond the "
                    f"{max_cycles}-cycle run budget and would never fire")
        dead = set(self.boot_dead_cores())
        if len(dead) >= num_cores:
            raise ValueError(
                f"{len(dead)} dead cores leave no survivor on a "
                f"{num_cores}-core chip")

    # -- seeded generators ---------------------------------------------

    @staticmethod
    def boot_dead(count: int, num_cores: int, seed: int) -> "FaultSchedule":
        """``count`` distinct cores dead at boot, drawn from a seeded
        permutation — the dead set for ``count + 1`` is a superset of
        the set for ``count``, so degradation sweeps shrink capacity
        monotonically."""
        if not 0 <= count < num_cores:
            raise ValueError(f"dead-core count {count} must be in "
                             f"[0, {num_cores - 1}]")
        order = _permutation(num_cores, seed)
        return FaultSchedule(tuple(FaultEvent("core_dead", core=c)
                                   for c in order[:count]))


def _permutation(n: int, seed: int) -> list[int]:
    """Seeded Fisher-Yates shuffle of ``range(n)`` using the workload
    LCG (no dependence on Python's ``random`` module state)."""
    rng = Lcg(seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def parse_inject(text: str) -> FaultEvent:
    """Parse one ``--inject`` CLI argument into a fault event.

    Grammar::

        dead:CORE              core dead at boot
        kill:CORE@CYCLE        core dies at the given cycle
        link:SRC-DST:EXTRA[:NET]   directed link degraded by EXTRA cycles
                                   (NET one of opn/control/both; default both)
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"{text!r} is not a fault spec — expected dead:CORE, "
            f"kill:CORE@CYCLE, or link:SRC-DST:EXTRA[:NET]")
    try:
        if kind == "dead":
            return FaultEvent("core_dead", core=int(rest))
        if kind == "kill":
            core_text, sep, cycle_text = rest.partition("@")
            if not sep:
                raise ValueError(
                    f"{text!r} is missing '@CYCLE' — a transient core "
                    f"death needs a cycle, e.g. kill:{core_text or 'N'}@5000 "
                    f"(use dead:{core_text or 'N'} for a boot fault)")
            return FaultEvent("core_kill", core=int(core_text),
                              cycle=int(cycle_text))
        if kind == "link":
            parts = rest.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{text!r} — expected link:SRC-DST:EXTRA[:NET], "
                    f"e.g. link:2-3:2 or link:2-3:2:opn")
            src_text, sep, dst_text = parts[0].partition("-")
            if not sep:
                raise ValueError(
                    f"{text!r} — the link endpoint pair must be "
                    f"SRC-DST, e.g. link:2-3:2")
            net = parts[2] if len(parts) == 3 else "both"
            return FaultEvent("link_slow",
                              link=(int(src_text), int(dst_text)),
                              extra=int(parts[1]), net=net)
    except ValueError as exc:
        # Re-raise int() failures with the full spec for context; our
        # own messages already carry it.
        if text in str(exc):
            raise
        raise ValueError(f"{text!r}: {exc}") from None
    raise ValueError(
        f"unknown fault kind {kind!r} in {text!r} — expected dead:, "
        f"kill:, or link:")
