"""Repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload figures --seed 0 --seconds 15 --trace 0

``--trace 0`` times passes with nothing installed and prints the
end-to-end metrics; ``--trace 1`` runs one untraced pass, then one or
two passes with the layer wrappers of ``spans.py`` installed, and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-facts`` re-records the seed-0 facts every pass is compared
to.  See README.md for the workloads, metrics and timing method.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FACTS = os.path.join(HERE, "facts_seed0.json")
WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from meter import HostMeter  # noqa: E402
import suite  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: What one set-up imports (each set-up drops and re-imports them).
IMPORTS = ("repro.analysis.runner", "repro.analysis.crashlab",
           "repro.verify", "repro.core.accuracy", "bench_common")
#: A traced run repeats its traced pass, to check that the work counts
#: only the wrappers see repeat, when one traced pass takes less than
#: this many wall seconds (all but the figure grid).
REPEAT_TRACED_S = 30.0
#: Workload unit of work, as named in the human-readable report.
RATE_NAMES = {"sim_ops": "sim_ops_per_s", "images": "images_per_s",
              "trials": "trials_per_s"}

PER_LAYER_TIMES = {
    # metric: (span, "self" or "inclusive")
    "sim.run_s": ("sim.run", "self"),
    "sim.core_s": ("sim.core", "self"),
    "sim.hierarchy_s": ("sim.hierarchy", "self"),
    "sim.timing_s": ("sim.timing", "self"),
    "sim.nvmm_s": ("sim.nvmm", "self"),
    "sim.drain_s": ("sim.drain", "self"),
    "verify.crash_run_s": ("verify.crash_run", "inclusive"),
    "verify.enumerate_s": ("verify.enumerate", "inclusive"),
    "verify.image_build_s": ("verify.image_build", "inclusive"),
    "verify.recovery_s": ("verify.recovery", "inclusive"),
    "verify.shrink_s": ("verify.shrink", "inclusive"),
    "workloads.bind_s": ("workloads.bind", "inclusive"),
    "workloads.verify_s": ("workloads.verify", "inclusive"),
    "analysis.job_s": ("analysis.job", "inclusive"),
    "analysis.cache_get_s": ("analysis.cache_get", "inclusive"),
    "analysis.cache_put_s": ("analysis.cache_put", "inclusive"),
    "analysis.plan_s": ("analysis.plan", "inclusive"),
    "core.inject_s": ("core.inject", "self"),
    "core.checksum_s": ("core.checksum", "inclusive"),
}
PER_LAYER_CALLS = {
    "sim.run_calls": "sim.run", "sim.core_calls": "sim.core",
    "sim.hierarchy_calls": "sim.hierarchy",
    "sim.timing_calls": "sim.timing", "sim.nvmm_calls": "sim.nvmm",
    "sim.drain_calls": "sim.drain", "workloads.binds": "workloads.bind",
    "workloads.verifies": "workloads.verify",
    "core.checksum_calls": "core.checksum",
}
PER_LAYER_COUNTERS = ("sim.ops", "verify.recovery_runs",
                      "verify.recovery_ops", "verify.shrink_runs",
                      "analysis.cache_hits", "analysis.cache_misses")


def reimport() -> None:
    """Import the program afresh: drop its modules, then import them."""
    for name in list(sys.modules):
        if name.partition(".")[0] in ("repro", "bench_common"):
            del sys.modules[name]
    for name in IMPORTS:
        importlib.import_module(name)


def run_pass(workload, inputs, index: int, tracer=None):
    """One pass with a fresh result cache; returns (outputs, start, end)."""
    from repro.analysis.runner import ResultCache

    cache_dir = os.path.join(WORK_DIR, f"{os.getpid()}-{index}")
    try:
        start = time.perf_counter()
        if tracer is not None:
            tracer.open("pass")
        try:
            outputs = workload.run_pass(inputs, ResultCache(cache_dir))
        finally:
            if tracer is not None:
                tracer.close()
        end = time.perf_counter()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return outputs, start, end


def canonical(facts: dict) -> dict:
    return json.loads(json.dumps(facts, sort_keys=True))


def layer_metrics(tracer, workload, outputs, scale: float) -> dict:
    totals, counters = tracer.totals, tracer.counters
    m = {}
    for metric, (span, kind) in PER_LAYER_TIMES.items():
        calls, inclusive, own = totals.get(span, (0, 0.0, 0.0))
        m[metric] = (own if kind == "self" else inclusive) * scale
    for metric, span in PER_LAYER_CALLS.items():
        m[metric] = totals.get(span, (0,))[0]
    for name in PER_LAYER_COUNTERS:
        m[name] = counters.get(name, 0)
    verify_facts = isinstance(workload, suite.VerifyTmm)
    images = workload.work(outputs) if verify_facts else 0
    m["verify.images"] = images
    m["verify.images_diverged"] = (
        sum(r.images_diverged for r in outputs.values())
        if verify_facts else 0)
    runs = m["verify.recovery_runs"]
    m["verify.images_per_recovery_run"] = images / runs if runs else 0.0
    bound = (sum(p.bound for r in outputs.values() for p in r.points)
             if verify_facts else 0)
    m["verify.coverage"] = images / bound if bound else 0.0
    results = outputs if isinstance(workload, suite.ChecksumInject) else []
    m["core.trials"] = sum(r.trials for r in results)
    m["core.missed"] = sum(r.missed for r in results)
    model = (workload.model_metrics(outputs)
             if isinstance(workload, suite.Figures) else {})
    for name in suite.Figures.model_metric_names():
        m[name] = model.get(name, 0.0)
    return m


def self_table(tracer, scale: float) -> str:
    rows = sorted(tracer.totals.items(), key=lambda kv: -kv[1][2])
    total = tracer.self_total()
    lines = [f"  {'span':<22}{'calls':>10}{'self s':>10}{'share':>8}"]
    for name, (calls, _, own) in rows:
        lines.append(f"  {name:<22}{int(calls):>10}{own * scale:>10.3f}"
                     f"{own / total:>8.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-facts", action="store_true",
                        help="run one seed-0 pass and store its facts")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    suite.add_paths(ROOT)
    # Smoke mode would shrink bench_common's figure sizes.
    os.environ.pop("REPRO_SMOKE", None)
    workload = suite.WORKLOADS[args.workload]
    for name in IMPORTS:
        importlib.import_module(name)

    if args.record_facts:
        outputs, _, _ = run_pass(workload, workload.setup(0), 0)
        recorded = {}
        if os.path.exists(FACTS):
            with open(FACTS) as fh:
                recorded = json.load(fh)
        recorded[workload.name] = canonical(workload.facts(outputs))
        with open(FACTS, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded seed-0 facts for {workload.name} in {FACTS}")
        return 0

    with open(FACTS) as fh:
        expected = json.load(fh)[workload.name]

    meter = HostMeter()
    meter.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            reimport()
            inputs = workload.setup(args.seed)
            setups.append((start, time.perf_counter()))

        passes, tracers = [], []
        if args.trace:
            passes.append(run_pass(workload, inputs, 0))
            while True:
                tracer = suite_tracer(args, len(passes))
                try:
                    passes.append(
                        run_pass(workload, inputs, len(passes), tracer))
                finally:
                    tracer.remove()
                tracers.append(tracer)
                _, start, end = passes[-1]
                if len(tracers) == 2 or end - start > REPEAT_TRACED_S:
                    break
        else:
            measure_start = time.perf_counter()
            while True:
                passes.append(run_pass(workload, inputs, len(passes)))
                _, start, end = passes[-1]
                if end - measure_start + (end - start) > args.seconds:
                    break
    finally:
        meter.stop()

    problems = []
    first_facts = canonical(workload.facts(passes[0][0]))
    if args.seed == 0:
        problems += suite.facts_match(workload, expected, first_facts)
    for index, (outputs, _, _) in enumerate(passes):
        problems += workload.problems(outputs)
        if index and canonical(workload.facts(outputs)) != first_facts:
            problems.append(f"pass {index} differs from pass 0")
    # Counted over the first pass only: every later pass is checked to
    # repeat its facts, so the counts depend on the seed alone, not on
    # how many passes the host's speed allowed.
    attempted, failed = workload.counts(passes[0][0])

    setup_s = statistics.median(meter.seconds(a, b) for a, b in setups)
    pass_times = [meter.seconds(a, b) for _, a, b in passes]
    work = workload.work(passes[0][0])
    print(f"{workload.name} seed={args.seed}: {len(passes)} pass(es), "
          f"{work} {workload.unit} each")

    if args.trace:
        metrics = traced_metrics(workload, passes, pass_times, tracers,
                                 problems, args)
    else:
        pass_s = statistics.median(pass_times)
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "work_per_s": work / pass_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"  setup_s        {setup_s:.4f} s")
        print(f"  pass_s         {pass_s:.4f} s   (reference seconds; wall "
              + ", ".join(f"{b - a:.2f}" for _, a, b in passes) + ")")
        print(f"  {RATE_NAMES[workload.unit]:<15}{work / pass_s:.1f} 1/s")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
        if isinstance(workload, suite.Figures):
            err = workload.model_metrics(passes[0][0])["model.paper_err_pct"]
            print(f"  paper_err_pct  {err:.3f} pp (error against the "
                  "paper's gem5 gmeans; the model is not validated "
                  "against hardware)")
    if failed:
        print(f"  failed operations: {failed} of {attempted} per pass "
              "(sound-scheme images whose recovery diverged)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def suite_tracer(args, index: int):
    import spans

    tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-"
                          f"{os.getpid()}-pass{index}")
    spans.install(tracer)
    return tracer


def unit_of(metric: str) -> str:
    if metric in ("work_per_s", "peak_rss_mb"):
        return {"work_per_s": "1/s", "peak_rss_mb": "MB"}[metric]
    if metric.endswith("_s"):
        return "s"
    if metric in ("trace.overhead", "verify.coverage", "model.l2_miss_rate",
                  "verify.images_per_recovery_run"):
        return "ratio"
    if metric == "model.paper_err_pct":
        return "pp"
    if metric.startswith("model.exec_cycles") or ".stall_cycles." in metric:
        return "cycles"
    return "count"


def traced_metrics(workload, passes, pass_times, tracers, problems, args):
    first, last = tracers[0], tracers[-1]
    # Deterministic work counts must repeat between the traced passes.
    if ({k: v[0] for k, v in first.totals.items()}
            != {k: v[0] for k, v in last.totals.items()}
            or dict(first.counters) != dict(last.counters)):
        problems.append("traced passes differ in work counts")
    if workload.unit == "sim_ops" and (
            last.counters["sim.ops"] != workload.work(passes[-1][0])):
        problems.append("traced sim.ops differs from the ops retired")
    _, start, end = passes[-1]
    if abs(last.self_total() - (end - start)) > 1e-3 * (end - start):
        problems.append("span self times do not add up to the pass")
    scale = pass_times[-1] / (end - start)
    metrics = layer_metrics(last, workload, passes[-1][0], scale)
    metrics["trace.overhead"] = pass_times[-1] / pass_times[0] - 1.0
    metrics["trace.pass_s"] = pass_times[-1]
    metrics["trace.untraced_pass_s"] = pass_times[0]
    print("  self time by span (traced pass, reference seconds):")
    print(self_table(last, scale))
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit_of(name)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump([t.to_dict() for t in tracers], fh)
    print(f"  span records: {path}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
