"""Fault-model tests: serialisation round trips (property-based),
canonical ordering, spec hashing, CLI grammar, and validation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import JobSpec
from repro.exec.spec import spec_hash
from repro.resil import KINDS, NETS, FaultEvent, FaultSchedule, parse_inject
from repro.tflex import tflex_config


def _kill(core, cycle):
    """The schedule that kills ``core`` at ``cycle``."""
    return FaultSchedule((FaultEvent("core_kill", core=core, cycle=cycle),))


# -- strategies --------------------------------------------------------

def dead_events():
    return st.builds(lambda c: FaultEvent("core_dead", core=c),
                     st.integers(0, 31))


def kill_events():
    return st.builds(lambda c, cy: FaultEvent("core_kill", core=c, cycle=cy),
                     st.integers(0, 31), st.integers(1, 10**7))


def link_events():
    pairs = st.tuples(st.integers(0, 31), st.integers(0, 31)).filter(
        lambda p: p[0] != p[1])
    return st.builds(
        lambda link, extra, net: FaultEvent("link_slow", link=link,
                                            extra=extra, net=net),
        pairs, st.integers(1, 9), st.sampled_from(NETS))


def events():
    return st.one_of(dead_events(), kill_events(), link_events())


def schedules():
    return st.builds(lambda evs: FaultSchedule(tuple(evs)),
                     st.lists(events(), max_size=8))


# -- round trips -------------------------------------------------------

class TestEventRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(events())
    def test_dict_round_trip(self, event):
        assert FaultEvent.from_dict(event.to_dict()) == event

    @settings(max_examples=80, deadline=None)
    @given(events())
    def test_canonical_json_round_trip(self, event):
        data = json.loads(event.canonical_json())
        assert FaultEvent.from_dict(data) == event

    @settings(max_examples=40, deadline=None)
    @given(events())
    def test_dict_carries_only_used_fields(self, event):
        keys = set(event.to_dict())
        if event.kind == "core_dead":
            assert keys == {"kind", "core"}
        elif event.kind == "core_kill":
            assert keys == {"kind", "core", "cycle"}
        else:
            assert keys == {"kind", "link", "extra", "net"}


class TestScheduleRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_dict_round_trip(self, schedule):
        events = schedule.to_dict()["events"]
        assert FaultSchedule(tuple(map(FaultEvent.from_dict, events))) == (
            schedule)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_spec_items_round_trip(self, schedule):
        items = schedule.spec_items()
        assert all(isinstance(i, str) for i in items)
        assert FaultSchedule.from_spec_items(items) == schedule

    @settings(max_examples=60, deadline=None)
    @given(st.lists(events(), max_size=8))
    def test_order_independent(self, evs):
        assert FaultSchedule(tuple(evs)) == FaultSchedule(tuple(reversed(evs)))

    def test_core_faults_dedup_links_stack(self):
        kill = FaultEvent("core_kill", core=1, cycle=100)
        link = FaultEvent("link_slow", link=(0, 1), extra=2)
        schedule = FaultSchedule((kill, link, kill, link))
        assert schedule.kill_events() == [kill]
        assert schedule.link_events() == [link, link]

    def test_canonical_order(self):
        schedule = FaultSchedule((
            FaultEvent("core_kill", core=0, cycle=500),
            FaultEvent("link_slow", link=(0, 1), extra=1),
            FaultEvent("core_kill", core=3, cycle=100),
            FaultEvent("core_dead", core=7),
        ))
        kinds = [e.kind for e in schedule.events]
        assert kinds == ["core_dead", "link_slow", "core_kill", "core_kill"]
        # Kills ordered by cycle.
        assert [e.cycle for e in schedule.kill_events()] == [100, 500]

    def test_bool(self):
        assert not FaultSchedule()
        assert FaultSchedule((FaultEvent("core_dead", core=0),))


# -- spec hashing ------------------------------------------------------

class TestSpecHash:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(events(), max_size=6))
    def test_equal_schedules_hash_equal(self, evs):
        a = JobSpec.edge("conv", ncores=8,
                         faults=FaultSchedule(tuple(evs)).spec_items())
        b = JobSpec.edge("conv", ncores=8,
                         faults=FaultSchedule(
                             tuple(reversed(evs))).spec_items())
        assert spec_hash(a) == spec_hash(b)

    def test_different_schedules_hash_differently(self):
        plain = JobSpec.edge("conv", ncores=8)
        one = JobSpec.edge("conv", ncores=8,
                           faults=_kill(0, 100)
                           .spec_items())
        two = JobSpec.edge("conv", ncores=8,
                           faults=_kill(0, 200)
                           .spec_items())
        assert len({spec_hash(plain), spec_hash(one), spec_hash(two)}) == 3

    def test_label_suffix(self):
        spec = JobSpec.edge("conv", ncores=8,
                            faults=_kill(0, 100)
                            .spec_items())
        assert spec.label().endswith("+faults1")
        assert "+faults" not in JobSpec.edge("conv", ncores=8).label()

    def test_spec_dict_round_trip(self):
        spec = JobSpec.edge("conv", ncores=8,
                            faults=_kill(2, 99)
                            .spec_items())
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_faults_reject_sampling_and_trips(self):
        faults = _kill(0, 100).spec_items()
        with pytest.raises(ValueError, match="fast-forward"):
            JobSpec.edge("conv", ncores=8, faults=faults,
                         sampling={"ff": 1000})
        with pytest.raises(ValueError):
            JobSpec.edge("conv", trips=True, faults=faults)


# -- event validation --------------------------------------------------

class TestEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor", core=0)

    def test_core_required(self):
        with pytest.raises(ValueError, match="core index"):
            FaultEvent("core_dead")

    def test_dead_takes_no_cycle(self):
        with pytest.raises(ValueError, match="core_kill for a mid-run"):
            FaultEvent("core_dead", core=0, cycle=5)

    def test_kill_needs_cycle(self):
        with pytest.raises(ValueError, match="cycle >= 1"):
            FaultEvent("core_kill", core=0)

    def test_link_needs_distinct_pair(self):
        with pytest.raises(ValueError, match="distinct"):
            FaultEvent("link_slow", link=(3, 3), extra=1)

    def test_link_needs_positive_extra(self):
        with pytest.raises(ValueError, match="extra latency"):
            FaultEvent("link_slow", link=(0, 1), extra=0)

    def test_link_needs_known_net(self):
        with pytest.raises(ValueError, match="unknown network"):
            FaultEvent("link_slow", link=(0, 1), extra=1, net="psychic")


class TestScheduleValidation:
    def test_core_out_of_range(self):
        cfg = tflex_config(4)
        schedule = FaultSchedule((FaultEvent("core_dead", core=9),))
        with pytest.raises(ValueError, match="cores 0..3"):
            schedule.validate(cfg)

    def test_link_not_adjacent(self):
        cfg = tflex_config(16)   # 4x4 mesh
        schedule = FaultSchedule(
            (FaultEvent("link_slow", link=(0, 5), extra=1),))
        with pytest.raises(ValueError, match="not a mesh link"):
            schedule.validate(cfg)

    def test_link_adjacency_is_grid_not_index(self):
        cfg = tflex_config(16)   # 4x4: core 3 and 4 are on different rows
        schedule = FaultSchedule(
            (FaultEvent("link_slow", link=(3, 4), extra=1),))
        with pytest.raises(ValueError, match="not a mesh link"):
            schedule.validate(cfg)
        ok = FaultSchedule((FaultEvent("link_slow", link=(4, 5), extra=1),
                            FaultEvent("link_slow", link=(1, 5), extra=1)))
        ok.validate(cfg)

    def test_kill_beyond_budget(self):
        cfg = tflex_config(4)
        schedule = _kill(0, 5000)
        schedule.validate(cfg)                      # no budget: fine
        with pytest.raises(ValueError, match="would never fire"):
            schedule.validate(cfg, max_cycles=1000)

    def test_no_survivor(self):
        cfg = tflex_config(2)
        schedule = FaultSchedule(tuple(FaultEvent("core_dead", core=c)
                                       for c in (0, 1)))
        with pytest.raises(ValueError, match="no survivor"):
            schedule.validate(cfg)


# -- seeded generators -------------------------------------------------

class TestBootDead:
    def test_nested_dead_sets(self):
        sets = [set(FaultSchedule.boot_dead(k, 16, seed=7).boot_dead_cores())
                for k in range(16)]
        for small, big in zip(sets, sets[1:]):
            assert small < big

    def test_deterministic(self):
        a = FaultSchedule.boot_dead(5, 32, seed=2007)
        b = FaultSchedule.boot_dead(5, 32, seed=2007)
        assert a == b
        assert a.spec_items() == b.spec_items()

    def test_seed_matters(self):
        a = FaultSchedule.boot_dead(6, 32, seed=1)
        b = FaultSchedule.boot_dead(6, 32, seed=2)
        assert a != b

    def test_count_bounds(self):
        assert not FaultSchedule.boot_dead(0, 8, seed=1)
        with pytest.raises(ValueError):
            FaultSchedule.boot_dead(8, 8, seed=1)
        with pytest.raises(ValueError):
            FaultSchedule.boot_dead(-1, 8, seed=1)


# -- CLI grammar -------------------------------------------------------

class TestParseInject:
    def test_dead(self):
        assert parse_inject("dead:3") == FaultEvent("core_dead", core=3)

    def test_kill(self):
        assert parse_inject("kill:2@500") == FaultEvent(
            "core_kill", core=2, cycle=500)

    def test_link_default_net(self):
        assert parse_inject("link:2-3:4") == FaultEvent(
            "link_slow", link=(2, 3), extra=4, net="both")

    def test_link_explicit_net(self):
        assert parse_inject("link:2-3:4:opn") == FaultEvent(
            "link_slow", link=(2, 3), extra=4, net="opn")

    @pytest.mark.parametrize("text,fragment", [
        ("garbage", "not a fault spec"),
        ("kill:2", "missing '@CYCLE'"),
        ("meteor:1", "unknown fault kind"),
        ("dead:xyz", "dead:xyz"),
        ("link:2-3", "link:SRC-DST:EXTRA"),
        ("link:23:4", "SRC-DST"),
    ])
    def test_bad_specs_are_actionable(self, text, fragment):
        with pytest.raises(ValueError) as excinfo:
            parse_inject(text)
        assert fragment in str(excinfo.value)

    def test_round_trip_through_schedule(self):
        events = tuple(parse_inject(t) for t in
                       ("dead:1", "kill:2@900", "link:0-1:2:control"))
        schedule = FaultSchedule(events)
        assert FaultSchedule.from_spec_items(schedule.spec_items()) == schedule
