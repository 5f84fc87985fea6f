"""The benchmark's four workloads: inputs, one pass, and output checks.

Each workload builds its inputs from the benchmark seed (``setup``),
runs one pass through the program's public entry points with
``n_jobs=1`` and no process pool (``run_pass``), and describes a pass
by its deterministic facts (``facts``: no host-time field) and its
seed-independent problems (``problems``).  Seed 0 reproduces the
repository's own bench and CLI inputs; seed ``s`` offsets every
workload constructor's ``seed=``, the enumeration seed and the
injection seeds by ``s``.
"""

from __future__ import annotations

import inspect
import os
import sys
from typing import Dict, List, Tuple

#: Figure-grid variants per kernel (tmm also runs WAL, Fig 10).
FIG_VARIANTS = ("base", "lp", "ep")
#: Paper gmean ratios over the five kernels (EXPERIMENTS.md, from the
#: paper's gem5 runs): LP exec, EP exec, LP writes, EP writes.
PAPER_GMEANS = {"lp_exec": 1.011, "ep_exec": 1.09,
                "lp_writes": 1.03, "ep_writes": 1.206}
#: Stall causes the detailed timing model charges.
STALL_CAUSES = ("compute_pressure", "fence_drain", "flush_queue_full",
                "mc_write_queue", "mshr_full", "store_buffer_full")

#: verify-storage: storage workloads at crashcheck sizes, and schemes.
STORAGE_PARAMS = {
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 16, "ops": 16, "keys": 4, "wb_batch": 2},
}
STORAGE_SCHEMES = ("lp", "ep", "wal", "write_behind", "wb_nojournal")
#: Sound schemes with a known recovery defect, recorded in the seed-0
#: facts.  A pass may match the recorded divergence or have none (the
#: defect fixed); either way its diverged images count as failed.
KNOWN_DEFECTS = {("log", "lp")}

#: checksum-inject: (error model, region size, trials, seed at bench
#: seed 0) per engine.  Seeds are those of bench_checksum_accuracy.
INJECTIONS = (("stale", 256, 2000, 42), ("paired", 64, 1000, 43))
ENGINES = ("parity", "modular", "adler32", "parallel")


def seeded(cls, seed: int, **params):
    """Construct a workload with its default ``seed=`` offset by
    ``seed``."""
    default = inspect.signature(cls.__init__).parameters["seed"].default
    return cls(**params, seed=default + seed)


def _strip_wall(report_dict: dict) -> dict:
    for point in report_dict["points"]:
        point.pop("wall_s", None)
    return report_dict


class Figures:
    name = "figures"
    unit = "sim_ops"

    def setup(self, seed: int):
        from repro.analysis.runner import Job
        from repro.workloads.registry import get_workload

        import bench_common

        config = bench_common.machine_config()
        jobs = []
        for name, spec in bench_common.WORKLOAD_SPECS.items():
            variants = FIG_VARIANTS + (("wal",) if name == "tmm" else ())
            for variant in variants:
                workload = seeded(get_workload(name), seed, **spec)
                jobs.append(Job(workload, config, variant,
                                num_threads=bench_common.NUM_THREADS,
                                drain=True))
        return jobs

    def run_pass(self, jobs, cache):
        from repro.analysis import runner

        return runner.run_jobs(jobs, n_jobs=1, cache=cache)

    @staticmethod
    def label(result) -> str:
        return f"{result.workload}/{result.variant}"

    def facts(self, results) -> dict:
        return {self.label(r): r.to_dict() for r in results}

    def work(self, results) -> int:
        return sum(r.ops_executed for r in results)

    def counts(self, results) -> Tuple[int, int]:
        return len(results), sum(not r.verified for r in results)

    def problems(self, results) -> List[str]:
        return [f"{self.label(r)} failed verify()"
                for r in results if not r.verified]

    @staticmethod
    def model_metric_names() -> List[str]:
        return ["model.exec_cycles", "model.nvmm_writes",
                "model.drain_writes", "model.l2_miss_rate",
                "model.paper_err_pct"] + [
            f"model.stall_cycles.{cause}" for cause in STALL_CAUSES]

    def model_metrics(self, results) -> Dict[str, float]:
        from repro.analysis.reporting import geomean

        by = {(r.workload, r.variant): r for r in results}
        kernels = sorted({r.workload for r in results})
        ratios = {}
        for variant in ("lp", "ep"):
            ratios[f"{variant}_exec"] = geomean(
                by[k, variant].exec_cycles / by[k, "base"].exec_cycles
                for k in kernels)
            ratios[f"{variant}_writes"] = geomean(
                by[k, variant].total_writes / by[k, "base"].total_writes
                for k in kernels)
        err = sum(abs(ratios[k] - PAPER_GMEANS[k]) for k in PAPER_GMEANS)
        out = {
            "model.exec_cycles": sum(r.exec_cycles for r in results),
            "model.nvmm_writes": sum(r.nvmm_writes for r in results),
            "model.drain_writes": sum(r.drain_writes for r in results),
            "model.l2_miss_rate": (
                sum(r.l2_miss_rate for r in results) / len(results)),
            "model.paper_err_pct": 100.0 * err / len(PAPER_GMEANS),
        }
        for cause in STALL_CAUSES:
            out[f"model.stall_cycles.{cause}"] = sum(
                r.stalls.get(cause, 0.0) for r in results)
        return out


class VerifyTmm:
    """The BENCH_verify.json preset: tmm/lp, 8 crash plans."""

    name = "verify-tmm"
    unit = "images"

    def setup(self, seed: int):
        from repro.sim.config import tiny_machine
        from repro.sim.crash import CrashPlan
        from repro.verify import EnumerationPlan
        from repro.workloads.registry import get_workload

        workload = seeded(get_workload("tmm"), seed, n=12, bsize=4,
                          kk_tiles=1)
        plans = [CrashPlan(at_op=o) for o in (200, 500, 800, 1100)] + [
            CrashPlan(at_flush=n) for n in (2, 5, 8, 11)]
        return workload, tiny_machine(), plans, EnumerationPlan(
            max_exhaustive_events=12, samples=32, seed=seed)

    def run_pass(self, inputs, cache):
        from repro.verify import checker

        workload, config, plans, plan = inputs
        return {("tmm", "lp"): checker.check_variant(
            workload, config, "lp", plans, plan)}

    def facts(self, reports) -> dict:
        return {f"{w}/{v}": _strip_wall(r.to_dict())
                for (w, v), r in reports.items()}

    def work(self, reports) -> int:
        return sum(r.images_checked for r in reports.values())

    def counts(self, reports) -> Tuple[int, int]:
        from repro.schemes import get_scheme

        failed = sum(r.images_diverged for (_, v), r in reports.items()
                     if get_scheme(v).sound)
        return self.work(reports), failed

    def problems(self, reports) -> List[str]:
        from repro.schemes import get_scheme
        from repro.workloads.registry import get_workload

        out = []
        for (w, v), report in reports.items():
            broken = (v in get_workload(w).broken_variants
                      or not get_scheme(v).sound)
            if broken and report.ok:
                out.append(f"{w}/{v} is broken but was not flagged")
            if report.images_checked == 0:
                out.append(f"{w}/{v} checked no image")
        return out


class VerifyStorage(VerifyTmm):
    """``run_crashcheck_campaign`` at CLI defaults over the storage
    workloads and every storage scheme, broken wb_nojournal included."""

    name = "verify-storage"

    def setup(self, seed: int):
        from repro.sim.config import tiny_machine
        from repro.workloads.registry import get_workload

        workloads = [seeded(get_workload(name), seed, **params)
                     for name, params in STORAGE_PARAMS.items()]
        return workloads, tiny_machine(), seed

    def run_pass(self, inputs, cache):
        from repro.analysis import crashlab

        workloads, config, seed = inputs
        reports = {}
        for workload in workloads:
            by_scheme = crashlab.run_crashcheck_campaign(
                workload, config, STORAGE_SCHEMES, seed=seed, n_jobs=1,
                cache=cache)
            for scheme, report in by_scheme.items():
                reports[workload.name, scheme] = report
        return reports


class ChecksumInject:
    name = "checksum-inject"
    unit = "trials"

    def setup(self, seed: int):
        from repro.core.checksum import get_engine

        return [(get_engine(name), model, size, trials, base + seed)
                for name in ENGINES
                for model, size, trials, base in INJECTIONS]

    def run_pass(self, cases, cache):
        from repro.core import accuracy

        return [accuracy.run_error_injection(
                    engine, region_size=size, trials=trials,
                    error_model=model, seed=seed)
                for engine, model, size, trials, seed in cases]

    def facts(self, results) -> dict:
        return {f"{r.engine}/{r.error_model}": {
                    "trials": r.trials, "missed": r.missed,
                    "degenerate": r.degenerate}
                for r in results}

    def work(self, results) -> int:
        return sum(r.trials for r in results)

    def counts(self, results) -> Tuple[int, int]:
        return self.work(results), 0

    def problems(self, results) -> List[str]:
        out = []
        for r in results:
            label = f"{r.engine}/{r.error_model}"
            if r.engine == "parity" and r.error_model == "paired":
                # XOR parity is structurally blind to paired flips.
                if r.missed != r.effective_trials:
                    out.append(f"{label} detected a paired flip")
            elif r.engine in ("modular", "adler32") and r.missed:
                out.append(f"{label} missed {r.missed} errors")
        return out


WORKLOADS = {w.name: w for w in
             (Figures(), VerifyTmm(), VerifyStorage(), ChecksumInject())}


def facts_match(workload, expected: dict, got: dict) -> List[str]:
    """Differences between a pass's facts and the recorded seed-0 facts.

    For a sound scheme in ``KNOWN_DEFECTS`` a pass without any
    divergence also matches (the defect fixed in the program).
    """
    out = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) == got.get(key):
            continue
        workload_name, _, scheme = key.partition("/")
        fixed = (
            (workload_name, scheme) in KNOWN_DEFECTS
            and key in got
            and not any(p["images_diverged"] or p["counterexamples"]
                        for p in got[key]["points"])
        )
        if not fixed:
            out.append(f"{workload.name}: {key} differs from seed-0 facts")
    return out


def add_paths(root: str) -> None:
    """Make the checkout's ``src`` and ``benchmarks`` importable."""
    for sub in ("benchmarks", "src"):
        path = os.path.join(root, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
