"""Applies a :class:`FaultSchedule` to a live :class:`TFlexSystem`.

The injector touches the simulator only through three narrow seams, so
fault-free runs stay bit-identical to a system that never imported this
module:

* boot-dead cores set :attr:`Core.faulty` (cold code — the flag is only
  read at composition time);
* degraded links install :meth:`Network.degrade_link`, which rebinds
  the delay walk on that network instance only;
* mid-run kills are ordinary events on the system's
  :class:`~repro.tflex.events.EventQueue` — an empty schedule schedules
  nothing.

On a kill the injector marks the core faulty, emits ``fault.inject``,
and hands control to the :class:`~repro.resil.recompose.\
RecompositionEngine` to rebuild the victim composition.
"""

from __future__ import annotations

from repro.resil.faults import FaultEvent, FaultSchedule


class FaultInjector:
    """Arms one schedule against one system (single use)."""

    def __init__(self, system, schedule: FaultSchedule, engine) -> None:
        self.system = system
        self.schedule = schedule
        #: Recomposition engine notified on each core kill.
        self.engine = engine
        #: Events actually applied (kills on already-faulty cores are
        #: skipped and not recorded).
        self.injected: list[FaultEvent] = []

    # -- boot faults ---------------------------------------------------

    def apply_boot_faults(self) -> None:
        """Mark dead cores and degrade links before composition."""
        for core_id in self.schedule.boot_dead_cores():
            self.system.cores[core_id].faulty = True
            self._note(FaultEvent("core_dead", core=core_id))
        for event in self.schedule.link_events():
            for net in self._nets(event.net):
                net.degrade_link(event.link, event.extra)
            self._note(event)

    def _nets(self, which: str) -> list:
        if which == "opn":
            return [self.system.opn]
        if which == "control":
            return [self.system.control]
        return [self.system.opn, self.system.control]

    # -- mid-run kills -------------------------------------------------

    def arm(self) -> None:
        """Schedule every ``core_kill`` on the event queue."""
        for event in self.schedule.kill_events():
            self.system.queue.at(event.cycle,
                                 lambda e=event: self._fire_kill(e))

    def _fire_kill(self, event: FaultEvent) -> None:
        core = self.system.cores[event.core]
        if core.faulty:
            return
        core.faulty = True
        self._note(event)
        self.engine.on_core_failure(event.core)

    # -- observability -------------------------------------------------

    def _note(self, event: FaultEvent) -> None:
        self.injected.append(event)
        obs = self.system.obs
        if obs.active:
            obs.emit("fault.inject", cycle=self.system.queue.now,
                     fault=event.to_dict())
            obs.metrics.inc("resil.faults_injected", kind=event.kind)
