"""Tests for reachable-image enumeration over a CrashStateSpace."""

import pytest

from repro.analysis.crashlab import crash_plans_for
from repro.errors import ConfigError
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.sim.persist import KIND_DIRTY, KIND_FLUSH, CrashStateSpace, PersistEvent
from repro.verify.enumerate import (
    EnumeratedImage,
    EnumerationPlan,
    _ideal_stream,
    enumerate_images,
)
from repro.workloads import get_workload


def flush(eid, line, values):
    return PersistEvent(
        eid=eid, line_addr=line, kind=KIND_FLUSH, core_id=0, time=float(eid),
        values=values,
    )


def dirty(eid, line, values):
    return PersistEvent(
        eid=eid, line_addr=line, kind=KIND_DIRTY, core_id=None,
        time=float(eid), values=values,
    )


def space_of(events, edges, floor=None):
    return CrashStateSpace(
        floor=dict(floor or {}), events=list(events), edges=list(edges),
        crash_time=100.0,
    )


class TestEnumerationPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EnumerationPlan(max_exhaustive_events=-1)
        with pytest.raises(ConfigError):
            EnumerationPlan(samples=0)
        with pytest.raises(ConfigError):
            EnumerationPlan(max_images=0)

    def test_frontier(self):
        space = space_of([flush(i, 64 * i, {8 * i: 1.0}) for i in range(5)], [])
        assert EnumerationPlan(max_exhaustive_events=5).is_exhaustive_for(space)
        assert not EnumerationPlan(max_exhaustive_events=4).is_exhaustive_for(
            space
        )


class TestExhaustive:
    def test_independent_events_all_images(self):
        # 3 independent single-value events with distinct addresses:
        # 8 ideals, 8 distinct images.
        events = [flush(i, 64 * (i + 1), {8 * (i + 1): float(i)}) for i in range(3)]
        space = space_of(events, [], floor={8: -1.0})
        images = enumerate_images(space, EnumerationPlan())
        assert len(images) == 8
        assert images[0].image == {8: -1.0}  # floor first
        assert images[-1].eids == frozenset({0, 1, 2})

    def test_chain_edges_limit_images(self):
        # Two versions of the same line: old-only, old+new, or neither.
        events = [flush(0, 64, {8: 1.0}), flush(1, 64, {8: 2.0})]
        space = space_of(events, [(0, 1)], floor={8: 0.0})
        images = enumerate_images(space, EnumerationPlan())
        values = sorted(img.image[8] for img in images)
        assert values == [0.0, 1.0, 2.0]

    def test_duplicate_images_deduplicated(self):
        # A dirty line whose value matches the floor produces no new
        # image: the ideal differs, the image does not.
        events = [dirty(0, 64, {8: 5.0})]
        space = space_of(events, [], floor={8: 5.0})
        images = enumerate_images(space, EnumerationPlan())
        assert len(images) == 1

    def test_max_images_cap(self):
        events = [
            flush(i, 64 * (i + 1), {8 * (i + 1): float(i)}) for i in range(6)
        ]
        space = space_of(events, [])
        plan = EnumerationPlan(max_images=10)
        assert len(enumerate_images(space, plan)) == 10


class TestSampled:
    def space(self, n=20):
        return space_of(
            [flush(i, 64 * (i + 1), {8 * (i + 1): float(i)}) for i in range(n)],
            [],
        )

    def test_distinguished_images_always_present(self):
        space = self.space()
        plan = EnumerationPlan(max_exhaustive_events=4, samples=4, seed=1)
        images = enumerate_images(space, plan)
        eid_sets = [img.eids for img in images]
        assert frozenset() in eid_sets  # floor
        assert frozenset(range(20)) in eid_sets  # everything persisted
        assert frozenset(space.schedule_eids()) in eid_sets

    def test_deterministic_per_seed(self):
        space = self.space()
        plan = EnumerationPlan(max_exhaustive_events=4, samples=16, seed=7)
        first = [img.eids for img in enumerate_images(space, plan)]
        second = [img.eids for img in enumerate_images(space, plan)]
        assert first == second

    def test_bounded_by_sample_budget(self):
        space = self.space()
        plan = EnumerationPlan(max_exhaustive_events=4, samples=8, seed=0)
        images = enumerate_images(space, plan)
        # 8 samples + up to 3 distinguished ideals, minus dedup overlap.
        assert 2 <= len(images) <= 11


def whole_image_enumeration(space, plan):
    """The enumerator as it was keyed before: dedup on every cell."""
    out, seen = [], set()
    for ideal in _ideal_stream(space, plan):
        image = space.image_for(ideal)
        key = tuple(sorted(image.items()))
        if key not in seen:
            seen.add(key)
            out.append(EnumeratedImage(eids=ideal, image=image))
    return out


#: (workload, params, variant): one space per crash point of each.
DEDUP_SPACES = (
    ("tmm", {"n": 8, "bsize": 4, "kk_tiles": 1}, "lp"),
    ("tmm", {"n": 8, "bsize": 4, "kk_tiles": 1}, "ep_nofence"),
    ("gauss", {"n": 8, "row_block": 4}, "lp"),
    ("log", {"records": 6, "width": 2, "wb_batch": 2}, "write_behind"),
    ("hashmap", {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2}, "wal"),
)


class TestProjectedDedupKey:
    """Keying dedup on the varying addresses keeps every decision."""

    @pytest.mark.parametrize(
        "name,params,variant", DEDUP_SPACES,
        ids=[f"{w}-{v}" for w, _, v in DEDUP_SPACES],
    )
    def test_same_images_as_whole_image_key(self, name, params, variant):
        wl = get_workload(name)(**params)
        config = tiny_machine()
        # A low frontier also puts the sampled mode under test.
        plans = (EnumerationPlan(), EnumerationPlan(max_exhaustive_events=4))
        spaces = 0
        for crash in crash_plans_for(wl, config, variant):
            machine = Machine(config)
            bound = wl.bind(machine, num_threads=2, engine="modular")
            _, space = run_to_crash_space(
                machine, bound.threads(variant), crash
            )
            if space is None:
                continue
            spaces += 1
            for plan in plans:
                assert enumerate_images(space, plan) == (
                    whole_image_enumeration(space, plan)
                )
        assert spaces

    def test_bench_preset_tmm_spaces(self):
        wl = get_workload("tmm")(n=12, bsize=4, kk_tiles=1)
        plan = EnumerationPlan(max_exhaustive_events=12, samples=32)
        for crash in (CrashPlan(at_op=800), CrashPlan(at_op=1100)):
            machine = Machine(tiny_machine())
            bound = wl.bind(machine, num_threads=2, engine="modular")
            _, space = run_to_crash_space(machine, bound.threads("lp"), crash)
            assert enumerate_images(space, plan) == (
                whole_image_enumeration(space, plan)
            )

    def test_cell_absent_from_floor_differs_from_any_value(self):
        # Event 0 adds a cell the floor lacks; event 1 rewrites a floor
        # cell with its floor value.  Images: {}, {16: 0.0}; event 1
        # alone or with event 0 collides with those.
        events = [flush(0, 64, {16: 0.0}), flush(1, 128, {136: 3.0})]
        space = space_of(events, [], floor={136: 3.0})
        images = enumerate_images(space, EnumerationPlan())
        assert [img.image for img in images] == [
            {136: 3.0}, {136: 3.0, 16: 0.0},
        ]
        assert images == whole_image_enumeration(space, EnumerationPlan())
