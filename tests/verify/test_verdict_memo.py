"""Recovery-verdict reuse: the memo must decide exactly what real runs do.

``check_crash_point`` runs recovery for real only on images no earlier
run at the same point decides (:class:`repro.verify.checker.VerdictMemo`).
The reference path is pinned here as a plain loop that calls
``_recovery_fails`` on every enumerated image and every shrinker
candidate; the memoized report must equal it field for field.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.crashlab import crash_plans_for
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.sim.persist import KIND_FLUSH, CrashStateSpace, PersistEvent
from repro.verify import (
    Counterexample,
    CrashPointReport,
    EnumerationPlan,
    check_crash_point,
    check_variant,
    enumerate_images,
    enumeration_bound,
    minimize_failure,
    plan_to_dict,
    sample_ideals,
)
from repro.verify import checker
from repro.verify.checker import VerdictMemo, _LiveIns, _RecordingMap
from repro.workloads import get_workload
from repro.workloads.tmm import BoundTMM

#: ``repro crashcheck``'s per-workload sizes.
PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}
STORAGE_SCHEMES = ("lp", "ep", "wal", "write_behind", "wb_nojournal")
CASES = (
    [("tmm", v) for v in ("lp", "ep", "ep_nofence")]
    + [("gauss", "lp"), ("cholesky", "lp")]
    + [(w, s) for w in ("log", "hashmap") for s in STORAGE_SCHEMES]
)
PLAN = EnumerationPlan()


def workload(name):
    return get_workload(name)(**PARAMS[name])


def crashed(wl, variant, crash):
    machine = Machine(tiny_machine())
    bound = wl.bind(machine, num_threads=2, engine="modular")
    _, space = run_to_crash_space(machine, bound.threads(variant), crash)
    return machine, bound, space


def reference_point(wl, variant, crash, plan):
    """``check_crash_point`` without the memo: every image runs."""
    machine, bound, space = crashed(wl, variant, crash)
    key = plan_to_dict(crash)
    if space is None:
        report = CrashPointReport(crash=key, crashed=False)
        if not bound.verify():
            report.counterexamples.append(Counterexample(
                workload=wl.name, variant=variant, crash=key,
                seed=plan.seed, eids=(), minimized_eids=(), image={},
            ))
        return report
    report = CrashPointReport(
        crash=key, crashed=True, num_events=space.num_events,
        num_edges=len(space.edges), exhaustive=plan.is_exhaustive_for(space),
        bound=enumeration_bound(space, plan),
    )

    def fails(eids):
        failed, _ = checker._recovery_fails(
            machine, wl, variant, space.image_for(eids), 2, "modular"
        )
        return failed

    known = []
    for candidate in enumerate_images(space, plan):
        report.images_checked += 1
        if not fails(candidate.eids):
            continue
        report.images_diverged += 1
        if any(k <= candidate.eids for k in known):
            continue
        minimized = minimize_failure(space, candidate.eids, fails)
        known.append(frozenset(minimized))
        report.shrink_steps += len(candidate.eids) - len(minimized)
        report.counterexamples.append(Counterexample(
            workload=wl.name, variant=variant, crash=key, seed=plan.seed,
            eids=tuple(sorted(candidate.eids)),
            minimized_eids=tuple(sorted(minimized)),
            image=space.image_for(minimized),
        ))
    return report


def without_wall(report):
    d = report.to_dict()
    d.pop("wall_s")
    return d


class CountingRuns:
    """Wraps ``checker._recovery_fails`` to count the real runs."""

    def __init__(self, monkeypatch):
        self.runs = 0
        self.recorded = []
        self.results = []
        original = checker._recovery_fails

        def counted(*args, **kwargs):
            self.runs += 1
            self.recorded.append(kwargs.get("record", True))
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        monkeypatch.setattr(checker, "_recovery_fails", counted)


@pytest.mark.parametrize(
    "name,variant", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_memoized_report_equals_reference_loop(name, variant, monkeypatch):
    wl = workload(name)
    plans = crash_plans_for(wl, tiny_machine(), variant)
    counter = CountingRuns(monkeypatch)
    memoized = check_variant(wl, tiny_machine(), variant, plans, PLAN)
    memo_runs = counter.runs
    monkeypatch.undo()
    reference = [reference_point(wl, variant, c, PLAN) for c in plans]
    assert [without_wall(p) for p in memoized.points] == [
        without_wall(p) for p in reference
    ]
    reference_runs = sum(p.images_checked for p in reference)
    assert memo_runs <= reference_runs


def test_memo_cuts_tmm_lp_runs_tenfold(monkeypatch):
    wl = workload("tmm")
    plans = crash_plans_for(wl, tiny_machine(), "lp")
    counter = CountingRuns(monkeypatch)
    report = check_variant(wl, tiny_machine(), "lp", plans, PLAN)
    assert report.ok
    assert counter.runs * 10 <= report.images_checked


def test_full_machine_recovery_runs_every_image(monkeypatch):
    wl = workload("tmm")
    counter = CountingRuns(monkeypatch)
    report = check_crash_point(
        wl, tiny_machine(), "lp", CrashPlan(at_op=200), PLAN, replay=False
    )
    assert report.images_checked > 1
    assert counter.runs == report.images_checked
    assert all(live is None for _, live in counter.results)


def test_point_without_reuse_stops_recording(monkeypatch):
    # hashmap/lp at op=64: every recovery reads every varying cell, so
    # no image ever matches an earlier run.
    wl = get_workload("hashmap")(capacity=16, ops=16, keys=4, wb_batch=2)
    counter = CountingRuns(monkeypatch)
    report = check_crash_point(
        wl, tiny_machine(), "lp", CrashPlan(at_op=64), PLAN
    )
    probe = VerdictMemo.PROBE_RUNS
    assert counter.runs == report.images_checked > probe
    assert counter.recorded == [True] * probe + [False] * (
        counter.runs - probe
    )


def test_iterating_arch_never_hits(monkeypatch):
    wl = workload("tmm")
    crash = CrashPlan(at_op=200)
    plain = check_crash_point(wl, tiny_machine(), "lp", crash, PLAN)

    verify = BoundTMM.verify

    def iterating_verify(self, *args, **kwargs):
        for _ in self.machine.mem.arch:
            pass
        return verify(self, *args, **kwargs)

    monkeypatch.setattr(BoundTMM, "verify", iterating_verify)
    counter = CountingRuns(monkeypatch)
    iterated = check_crash_point(wl, tiny_machine(), "lp", crash, PLAN)
    assert counter.runs == iterated.images_checked > 1
    assert all(live is None for _, live in counter.results)
    assert without_wall(iterated) == without_wall(plain)


def test_seed0_log_lp_counterexample_found_and_shrunk():
    report = check_crash_point(
        workload("log"), tiny_machine(), "lp", CrashPlan(at_op=28), PLAN
    )
    assert report.images_checked == 8
    assert report.images_diverged == 1
    (cex,) = report.counterexamples
    assert tuple(cex.eids) == (1, 2)
    assert tuple(cex.minimized_eids) == (1, 2)


class TestVerdictMemo:
    @staticmethod
    def space(value):
        event = PersistEvent(
            eid=0, line_addr=64, kind=KIND_FLUSH, core_id=0, time=0.0,
            values={64: value, 72: 1.0},
        )
        return CrashStateSpace(floor={64: 0.0, 8: 5.0}, events=[event], edges=[])

    def test_hit_needs_equal_values_at_varying_live_ins(self):
        memo = VerdictMemo(self.space(2.0))
        memo.record({8, 64}, {8: 5.0, 64: 0.0}, True)
        assert memo.lookup({8: 5.0, 64: 0.0}) is True
        assert memo.lookup({8: 5.0, 64: 0.0, 72: 1.0}) is True
        assert memo.lookup({8: 5.0, 64: 2.0, 72: 1.0}) is None

    def test_negative_zero_in_space_disables_reuse(self):
        memo = VerdictMemo(self.space(-0.0))
        assert not memo.recording
        memo.record({64}, {8: 5.0, 64: 0.0}, False)
        assert memo.lookup({8: 5.0, 64: -0.0, 72: 1.0}) is None


class TestRecordingMap:
    def make(self):
        live = _LiveIns()
        return live, _RecordingMap({8: 1.0, 16: 2.0}, live)

    def test_reads_before_writes_are_live_ins(self):
        live, m = self.make()
        assert m[8] == 1.0
        assert m.get(24) is None
        assert 32 not in m
        m[16] = 5.0
        assert m[16] == 5.0 and m.get(16) == 5.0 and 16 in m
        assert live.tracked
        assert live.addrs == {8, 24, 32}

    @pytest.mark.parametrize("access", [
        iter, len, list, dict, sorted,
        lambda m: m.keys(), lambda m: m.values(), lambda m: m.items(),
        lambda m: m.copy(), lambda m: m.update({8: 0.0}),
        lambda m: m.pop(8), lambda m: m.setdefault(40, 0.0),
        lambda m: {**m}, lambda m: m == {}, lambda m: m | {},
    ])
    def test_other_accesses_untrack(self, access):
        live, m = self.make()
        access(m)
        assert not live.tracked


#: Spaces with both verdicts or many events: (workload, variant, crash).
PROPERTY_SPACES = (
    ("tmm", "ep_nofence", CrashPlan(at_flush=8)),
    ("gauss", "lp", CrashPlan(at_op=498)),
    ("log", "lp", CrashPlan(at_op=28)),
    ("hashmap", "wb_nojournal", CrashPlan(at_flush=4)),
)


@functools.lru_cache(maxsize=None)
def property_space(index):
    name, variant, crash = PROPERTY_SPACES[index]
    wl = workload(name)
    machine, _, space = crashed(wl, variant, crash)
    return wl, variant, machine, space


@given(
    st.integers(min_value=0, max_value=len(PROPERTY_SPACES) - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_every_memo_hit_agrees_with_a_real_run(index, seed):
    wl, variant, machine, space = property_space(index)
    nodes = [ev.eid for ev in space.events]
    memo = VerdictMemo(space)
    for ideal in sample_ideals(nodes, space.edges, seed, 12):
        image = space.image_for(ideal)
        hit = memo.lookup(image)
        failed, live_ins = checker._recovery_fails(
            machine, wl, variant, image, 2, "modular"
        )
        if hit is not None:
            assert hit == failed, sorted(ideal)
        assert live_ins is not None
        memo.record(live_ins, image, failed)
