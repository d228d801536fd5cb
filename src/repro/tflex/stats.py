"""Statistics collected by the TFlex simulator.

Per-processor stats cover the quantities the paper's evaluation plots:
cycle counts (figures 5-8), fetch/commit protocol latency breakdowns
(figure 9), speculation behaviour, and activity counts feeding the
energy model (figure 8, table 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class LatencyBreakdown:
    """Accumulates per-block protocol component latencies (figure 9)."""

    samples: int = 0
    components: Counter = field(default_factory=Counter)

    def record(self, **latencies: int) -> None:
        self.samples += 1
        for name, value in latencies.items():
            self.components[name] += value

    def mean(self, name: str) -> float:
        if self.samples == 0:
            return 0.0
        return self.components[name] / self.samples

    def means(self) -> dict[str, float]:
        return {name: self.mean(name) for name in sorted(self.components)}

    def add(self, other: "LatencyBreakdown") -> None:
        self.samples += other.samples
        self.components.update(other.components)

    def scale(self, factor: float) -> None:
        self.samples = round(self.samples * factor)
        for name in self.components:
            self.components[name] = round(self.components[name] * factor)

    def to_dict(self) -> dict:
        return {"samples": self.samples, "components": dict(self.components)}

    @staticmethod
    def from_dict(data: dict) -> "LatencyBreakdown":
        return LatencyBreakdown(samples=data["samples"],
                                components=Counter(data["components"]))


@dataclass
class ProcStats:
    """Statistics for one composed processor's run."""

    # Progress
    cycles: int = 0
    blocks_committed: int = 0
    insts_committed: int = 0
    insts_fetched: int = 0
    loads_executed: int = 0
    stores_committed: int = 0

    # Speculation
    blocks_fetched: int = 0
    blocks_squashed: int = 0
    mispredictions: int = 0
    violations: int = 0
    replays: int = 0          # LSQ conflicts forcing replay
    nacks: int = 0

    # Prediction
    predictions: int = 0
    predictions_correct: int = 0

    # Window utilization: integral of in-flight block count over time.
    inflight_integral: int = 0

    @property
    def avg_inflight_blocks(self) -> float:
        """Mean number of blocks in flight (window utilization)."""
        return self.inflight_integral / self.cycles if self.cycles else 0.0

    # Protocol latency breakdowns (figure 9)
    fetch_latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    commit_latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)

    # Activity counters for the energy model.
    energy_events: Counter = field(default_factory=Counter)

    @property
    def ipc(self) -> float:
        return self.insts_committed / self.cycles if self.cycles else 0.0

    @property
    def prediction_accuracy(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.predictions_correct / self.predictions

    @property
    def speculation_waste(self) -> float:
        """Fraction of fetched blocks that were squashed."""
        if self.blocks_fetched == 0:
            return 0.0
        return self.blocks_squashed / self.blocks_fetched

    def count(self, event: str, n: int = 1) -> None:
        self.energy_events[event] += n

    #: Plain-integer counter fields (everything except the breakdowns
    #: and the energy counter), used by the dict round-trip.
    _SCALAR_FIELDS = (
        "cycles", "blocks_committed", "insts_committed", "insts_fetched",
        "loads_executed", "stores_committed", "blocks_fetched",
        "blocks_squashed", "mispredictions", "violations", "replays",
        "nacks", "predictions", "predictions_correct", "inflight_integral",
    )

    def to_dict(self) -> dict:
        """JSON-safe form for the on-disk result store."""
        data = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        data["fetch_latency"] = self.fetch_latency.to_dict()
        data["commit_latency"] = self.commit_latency.to_dict()
        data["energy_events"] = dict(self.energy_events)
        return data

    @staticmethod
    def from_dict(data: dict) -> "ProcStats":
        stats = ProcStats(**{name: data[name]
                             for name in ProcStats._SCALAR_FIELDS})
        stats.fetch_latency = LatencyBreakdown.from_dict(data["fetch_latency"])
        stats.commit_latency = LatencyBreakdown.from_dict(data["commit_latency"])
        stats.energy_events = Counter(data["energy_events"])
        return stats

    @staticmethod
    def merged(parts, factor: float = 1.0) -> "ProcStats":
        """Field-wise sum of ``parts`` (a run's segments or sampled
        windows), every count then extrapolated to ``round(sum *
        factor)`` — exact at the default factor.  Callers overwrite the
        fields they know better (whole-run cycles, exact commit
        counts)."""
        parts = list(parts)
        merged = ProcStats(**{
            name: round(sum(getattr(part, name) for part in parts) * factor)
            for name in ProcStats._SCALAR_FIELDS})
        for part in parts:
            merged.fetch_latency.add(part.fetch_latency)
            merged.commit_latency.add(part.commit_latency)
            merged.energy_events.update(part.energy_events)
        merged.fetch_latency.scale(factor)
        merged.commit_latency.scale(factor)
        for event in merged.energy_events:
            merged.energy_events[event] = round(
                merged.energy_events[event] * factor)
        return merged

    def to_metrics(self, metrics, **labels) -> None:
        """Flush this run's totals into a
        :class:`repro.obs.MetricsRegistry` as labelled counter series
        (called once per processor at halt).

        Scalars become ``tflex.<field>``; the figure-9 breakdowns become
        ``tflex.fetch_latency_cycles`` / ``tflex.commit_latency_cycles``
        with a ``component`` label (plus ``..._blocks`` sample counts),
        so the exported series sum back exactly to the
        :class:`LatencyBreakdown` totals; energy events become
        ``tflex.energy_events`` with an ``event`` label.
        """
        for name in self._SCALAR_FIELDS:
            metrics.inc(f"tflex.{name}", getattr(self, name), **labels)
        for phase, breakdown in (("fetch", self.fetch_latency),
                                 ("commit", self.commit_latency)):
            metrics.inc(f"tflex.{phase}_latency_blocks",
                        breakdown.samples, **labels)
            for component, cycles in breakdown.components.items():
                metrics.inc(f"tflex.{phase}_latency_cycles", cycles,
                            component=component, **labels)
        for event, n in self.energy_events.items():
            metrics.inc("tflex.energy_events", n, event=event, **labels)

    def summary(self) -> str:
        lines = [
            f"cycles:            {self.cycles}",
            f"blocks committed:  {self.blocks_committed}",
            f"insts committed:   {self.insts_committed}  (IPC {self.ipc:.2f})",
            f"blocks squashed:   {self.blocks_squashed}"
            f"  (mispredicts {self.mispredictions}, violations {self.violations})",
            f"prediction acc.:   {self.prediction_accuracy:.1%}"
            f"  ({self.predictions} predictions)",
            f"avg blocks inflight: {self.avg_inflight_blocks:.2f}",
            f"LSQ nacks:         {self.nacks}",
        ]
        return "\n".join(lines)
