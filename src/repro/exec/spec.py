"""Job specifications: one simulation point as a pure, hashable value.

A :class:`JobSpec` captures everything that determines a simulation's
outcome — benchmark, machine kind, composition size, scale, config
overrides — in canonical form (overrides as sorted item tuples).  Its
content address, :func:`spec_hash`, is a SHA-256 over canonical JSON
salted with :data:`SCHEMA_VERSION`, so it is stable across processes
and interpreter versions but changes whenever the result schema (or
simulator semantics, via a salt bump) changes.

Canonical JSON preserves value types: ``{"lsq_size": 1}`` and
``{"lsq_size": "1"}`` hash differently even though they *format*
identically in a human-readable label — the collision the old
label-keyed cache allowed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.sample.config import SamplingConfig

#: Bump whenever the stored result schema or simulator semantics change;
#: every on-disk record keyed under the old salt becomes a miss.
#: 2: sampled-simulation support (``sampling`` spec field; RunResult
#:    payloads may carry a ``sampling`` section).
#: 3: fault-injection support (``faults`` spec field; RunResult
#:    payloads may carry a ``resil`` section).
SCHEMA_VERSION = 3


def _freeze_overrides(overrides: Optional[Mapping[str, Any]]) -> tuple:
    """Normalise an override mapping to sorted, hashable item pairs."""
    if not overrides:
        return ()
    return tuple(sorted((str(k), v) for k, v in overrides.items()))


@dataclass(frozen=True)
class JobSpec:
    """A pure description of one simulation point.

    ``kind`` selects the machine: ``"edge"`` runs a TFlex composition
    (or the TRIPS baseline when ``trips`` is set), ``"risc"`` runs the
    out-of-order superscalar comparator.  Override mappings are frozen
    into sorted item tuples so equal configurations compare (and hash)
    equal regardless of construction order.

    Which axes combine is decided here, for every constructor
    (:meth:`edge`, :meth:`from_dict`, ``dataclasses.replace``): sampling
    needs a TFlex edge spec without faults, faults need a TFlex edge
    spec, and sampling items must make a valid
    :class:`~repro.sample.SamplingConfig`.  Anything else raises
    ``ValueError`` at construction, not inside a worker.
    """

    kind: str
    bench: str
    scale: int = 1
    ncores: int = 8
    trips: bool = False
    ideal_handshake: bool = False
    overrides: tuple = ()
    core_overrides: tuple = ()
    verify: bool = True
    #: Sampled-simulation parameters as frozen items (empty = full
    #: detail); see :class:`repro.sample.SamplingConfig`.
    sampling: tuple = ()
    #: Fault schedule as canonical JSON strings, one per event, in
    #: canonical order (empty = fault-free).  The spec stays agnostic
    #: of the fault model — :meth:`repro.resil.FaultSchedule.spec_items`
    #: is the encoder, ``FaultSchedule.from_spec_items`` the decoder.
    faults: tuple = ()

    def __post_init__(self) -> None:
        tflex = self.kind == "edge" and not self.trips
        if self.faults:
            if self.sampling:
                raise ValueError(
                    "fault injection and sampled simulation cannot "
                    "combine: a recomposition inside a fast-forward "
                    "region is undefined")
            if not tflex:
                raise ValueError(
                    "fault injection targets edge specs on the composable "
                    "TFlex array, not the TRIPS baseline or the RISC core")
        if self.sampling:
            if not tflex:
                raise ValueError(
                    "sampled simulation applies to TFlex edge specs; the "
                    "TRIPS baseline and the RISC core run in full detail")
            SamplingConfig.from_dict(dict(self.sampling))

    @staticmethod
    def edge(bench: str, ncores: int = 8, trips: bool = False,
             scale: int = 1, ideal_handshake: bool = False,
             overrides: Optional[Mapping[str, Any]] = None,
             core_overrides: Optional[Mapping[str, Any]] = None,
             verify: bool = True,
             sampling: Optional[Mapping[str, Any]] = None,
             faults: Optional[tuple] = None) -> "JobSpec":
        # TRIPS ignores the requested composition size (the prototype is
        # fixed) and always runs in full detail; normalise both out so
        # equivalent points share one hash.
        return JobSpec(
            kind="edge", bench=bench, scale=scale,
            ncores=0 if trips else ncores, trips=trips,
            ideal_handshake=ideal_handshake,
            overrides=_freeze_overrides(overrides),
            core_overrides=_freeze_overrides(core_overrides),
            verify=verify,
            sampling=() if trips else _freeze_overrides(sampling),
            faults=tuple(faults or ()))

    @staticmethod
    def risc(bench: str, scale: int = 1, verify: bool = True) -> "JobSpec":
        return JobSpec(kind="risc", bench=bench, scale=scale,
                       ncores=1, verify=verify)

    def overrides_dict(self) -> dict:
        return dict(self.overrides)

    def core_overrides_dict(self) -> dict:
        return dict(self.core_overrides)

    def sampling_dict(self) -> dict:
        return dict(self.sampling)

    def label(self) -> str:
        """Human-readable configuration label (display only — never a
        cache key; see :func:`spec_hash`)."""
        if self.kind == "risc":
            return "ooo"
        label = "trips" if self.trips else f"tflex-{self.ncores}"
        if self.ideal_handshake:
            label += "-ideal"
        for source in (self.overrides, self.core_overrides):
            for name, value in source:
                label += f"+{name}={value}"
        if self.sampling:
            label += "+sampled"
        if self.faults:
            label += f"+faults{len(self.faults)}"
        return label

    def canonical(self) -> dict:
        """JSON-safe canonical form; the hashing substrate."""
        return {
            "kind": self.kind,
            "bench": self.bench,
            "scale": self.scale,
            "ncores": self.ncores,
            "trips": self.trips,
            "ideal_handshake": self.ideal_handshake,
            "overrides": [[k, v] for k, v in self.overrides],
            "core_overrides": [[k, v] for k, v in self.core_overrides],
            "verify": self.verify,
            "sampling": [[k, v] for k, v in self.sampling],
            "faults": list(self.faults),
        }

    def to_dict(self) -> dict:
        return self.canonical()

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "JobSpec":
        known = {f.name for f in fields(JobSpec)}
        kwargs = {k: v for k, v in data.items() if k in known}
        for name in ("overrides", "core_overrides", "sampling"):
            kwargs[name] = tuple((k, v) for k, v in kwargs.get(name, ()))
        kwargs["faults"] = tuple(kwargs.get("faults", ()))
        return JobSpec(**kwargs)


def spec_hash(spec: JobSpec, salt: int = SCHEMA_VERSION) -> str:
    """Stable content address of a spec: SHA-256 of canonical JSON plus
    the schema/version salt."""
    payload = json.dumps({"salt": salt, "spec": spec.canonical()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
