"""Crash-state campaign throughput (images/sec), with coverage pinned.

The verification layer's unit of work is the *checked image*: one
reachable crash image enumerated, recovered, and compared against the
reference output.  ``CoverageStats`` (PR 10) makes that volume
first-class; this bench measures how fast the checker moves through it
and pins the two properties the observability layer claims:

* **Coverage reconciles.**  The campaign's coverage document is a pure
  fold over the checker's own per-point reports — totals equal the
  per-epoch sums, every point's image count is dominated by its
  enumeration bound, and the exhaustive/sampled split matches the
  frontier decision.
* **Journaling is (nearly) free.**  A campaign streaming per-point
  ``campaign_point`` events to a JSONL :class:`TelemetryJournal` must
  stay within ``JOURNAL_OVERHEAD_CEILING`` of the silent campaign —
  the journal writes one short line per crash *point*, not per image,
  so it cannot tax enumeration.

Wall-clock noise is tamed the way the shared harness
(:func:`bench_common.interleaved_medians`) does it — a discarded
warm-up sample, interleaved legs, median of ``REPEATS``, absolute
noise floor on every asserted bound — at a finer grain.  With recovery
verdicts reused across images one campaign takes well under a second,
where the 10% ceiling would sit on the noise floor, so each sample of
a leg sums as many campaigns as make ``MIN_LEG_SECONDS``, and the two
legs alternate campaign by campaign within the sample.  The result
cache is bypassed — the campaign itself is the thing being timed.

``recovery_runs`` counts the real recovery runs (images the verdict
memo could not decide), from outside the program: one extra untimed
campaign runs with ``repro.verify.checker._recovery_fails`` wrapped.

Besides the usual ``benchmarks/results/`` record, the headline
images/sec figure is written to ``BENCH_verify.json`` at the repo root
so the checker's perf trajectory is machine-readable across PRs
(full-size runs only; smoke runs assert but do not persist).
"""

import json
import math
import os
import statistics
import tempfile
import time

from repro.analysis.reporting import format_table
from repro.obs.journal import TelemetryJournal, journal_summary, read_journal
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan
from repro.verify import EnumerationPlan, check_variant, checker
from repro.workloads import get_workload

from bench_common import (
    NOISE_FLOOR_SECONDS,
    SMOKE,
    overhead_allowance,
    record,
)

#: The asserted bound on journal overhead: one JSONL line per crash
#: point must not tax a campaign that checks hundreds of images per
#: point.  Absolute noise floor applies (smoke campaigns are short).
JOURNAL_OVERHEAD_CEILING = 0.10

#: Samples per leg; the median is compared.
REPEATS = 3

#: Shortest timed sample: the campaign repeats within a sample until
#: its runs add up to at least this long.
MIN_LEG_SECONDS = 2.0

#: Campaign shape.  Smoke: the crashcheck-smoke grid.  Full: a wider
#: grid on a bigger kernel, still tiny-machine (the checker always
#: runs on the tiny preset; see docs/crash_testing.md).
if SMOKE:
    WORKLOAD_PARAMS = dict(n=8, bsize=4, kk_tiles=1)
    CRASH_PLANS = [CrashPlan(at_op=o) for o in (200, 400)] + [
        CrashPlan(at_flush=n) for n in (2, 4)
    ]
else:
    WORKLOAD_PARAMS = dict(n=12, bsize=4, kk_tiles=1)
    CRASH_PLANS = [CrashPlan(at_op=o) for o in (200, 500, 800, 1100)] + [
        CrashPlan(at_flush=n) for n in (2, 5, 8, 11)
    ]

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=32, seed=0)

ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_verify.json")


def _campaign(journal=None):
    """One tmm/lp campaign; returns ``(elapsed_seconds, report)``."""
    workload = get_workload("tmm")(**WORKLOAD_PARAMS)
    t0 = time.perf_counter()
    report = check_variant(
        workload, tiny_machine(), "lp", CRASH_PLANS, PLAN, journal=journal
    )
    return time.perf_counter() - t0, report


def _count_recovery_runs():
    """Real recovery runs in one campaign, counted by wrapping
    ``checker._recovery_fails`` (the name the checker calls)."""
    original = checker._recovery_fails
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    checker._recovery_fails = counted
    try:
        _campaign()
    finally:
        checker._recovery_fails = original
    return calls[0]


def _assert_reconciles(report):
    """The PR 10 acceptance invariants, asserted on a live campaign."""
    cov = report.coverage()
    crashed = [p for p in report.points if p.crashed]
    assert report.ok, "tmm/lp must pass its crash-state check"
    assert cov.images_checked == sum(p.images_checked for p in report.points)
    assert sum(e.images_checked for e in cov.epochs) == sum(
        p.images_checked for p in crashed
    )
    assert sum(e.points for e in cov.epochs) == len(crashed)
    assert cov.enumeration_bound == sum(p.bound for p in crashed)
    for point in crashed:
        assert point.images_checked <= point.bound
        assert point.exhaustive == (
            point.num_events <= PLAN.max_exhaustive_events
        )
    return cov


def test_verify_coverage_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "campaign.jsonl")
        report_box = [None, None]
        recovery_runs = _count_recovery_runs()
        once, _ = _campaign()
        reps = max(1, math.ceil(MIN_LEG_SECONDS / once))

        def silent_campaign():
            seconds, report_box[0] = _campaign()
            return seconds

        def journaled_campaign():
            # Fresh journal file per campaign, so the file never grows
            # across repeats and folds to exactly this campaign.
            if os.path.exists(journal_path):
                os.unlink(journal_path)
            seconds, report_box[1] = _campaign(
                journal=TelemetryJournal(path=journal_path)
            )
            return seconds

        legs = (silent_campaign, journaled_campaign)

        def leg_sample():
            # The legs alternate campaign by campaign (flipping which
            # goes first), so a spell of host slowdown lands on both.
            totals = [0.0, 0.0]
            for rep in range(reps):
                for index in (0, 1) if rep % 2 == 0 else (1, 0):
                    totals[index] += legs[index]()
            return totals

        def medians():
            leg_sample()  # warm-up, discarded
            samples = [leg_sample() for _ in range(REPEATS)]
            return [statistics.median(leg) for leg in zip(*samples)]

        silent, journaled = benchmark.pedantic(
            medians, rounds=1, iterations=1
        )

        cov = _assert_reconciles(report_box[0])
        journaled_cov = _assert_reconciles(report_box[1])
        assert journaled_cov.images_checked == cov.images_checked, (
            "journaling changed what the campaign checked"
        )

        # The journal's incremental fold reconciles with the report.
        folded = journal_summary(read_journal(journal_path))
        (from_journal,) = folded["coverage"]
        from_report = report_box[1].coverage().to_dict()
        for doc in (from_journal, from_report):
            doc.pop("wall_s")
            doc.pop("images_per_sec")
        assert from_journal == from_report, (
            "journal fold diverged from the campaign's coverage document"
        )

    overhead = journaled / silent - 1.0 if silent > 0 else 0.0
    images_per_sec = reps * cov.images_checked / silent if silent > 0 else 0.0

    table = format_table(
        ["leg", f"seconds per {reps} campaigns (median of {REPEATS})",
         "overhead"],
        [
            ["silent campaign", f"{silent:.3f}", ""],
            ["journaled campaign", f"{journaled:.3f}",
             f"{overhead * 100:+.2f}%"],
        ],
        title=(
            f"Crash-campaign throughput (tmm/lp, {cov.points} points, "
            f"{cov.images_checked} images)"
        ),
    )
    data = {
        "images_checked": cov.images_checked,
        "images_per_sec": round(images_per_sec, 1),
        "points": cov.points,
        "recovery_runs": recovery_runs,
        "campaigns_per_sample": reps,
        "enumeration_bound": cov.enumeration_bound,
        "exhaustive_fraction": round(cov.exhaustive_fraction(), 6),
        "silent_seconds": round(silent, 4),
        "journaled_seconds": round(journaled, 4),
        "journal_overhead_pct": round(overhead * 100, 2),
        "journal_overhead_ceiling_pct": JOURNAL_OVERHEAD_CEILING * 100,
        "noise_floor_seconds": NOISE_FLOOR_SECONDS,
    }
    record(
        "verify_coverage",
        table + f"\n\ncampaign throughput: {images_per_sec:,.0f} images/sec "
        f"({cov.summary()})",
        data,
    )
    if not SMOKE:
        with open(ROOT_JSON, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    assert images_per_sec > 0
    assert 0 < recovery_runs <= cov.images_checked
    allowance = overhead_allowance(silent, JOURNAL_OVERHEAD_CEILING)
    assert journaled - silent <= allowance, (
        f"journaled campaign costs {journaled - silent:.3f}s "
        f"({overhead * 100:+.2f}%) over the {silent:.3f}s silent leg; "
        f"allowance is {allowance:.3f}s (max of "
        f"{JOURNAL_OVERHEAD_CEILING * 100:.0f}% and the "
        f"{NOISE_FLOOR_SECONDS * 1000:.0f}ms noise floor)"
    )
