"""Outside-in layer spans for the traced run.

The benchmark wraps each layer's public entry points from here — the
program itself carries no tracing code — and removes the wrappers when
the traced pass ends.  Every wrapper pushes a span on one stack, so a
span's self time is its duration minus its children's, and the self
times of all spans sum exactly to the root ``pass`` span.

Spans called once per op or per image (``HOT``) are folded into
per-name totals as they close; the others are kept as records
``(name, start, end, parent, run id)`` and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span names folded into totals instead of kept as records.
HOT = frozenset({
    "sim.run", "sim.core", "sim.hierarchy", "sim.timing", "sim.nvmm",
    "verify.enumerate", "verify.image_build", "verify.recovery",
    "workloads.bind", "workloads.verify", "core.checksum",
})


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Kept span records: name, start, end, parent record index.
        self.records: List[dict] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)
        #: Open spans: [name, start, child seconds, record index].
        self.stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Callable[[], None]] = []
        self._patched: set = set()

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        index = parent
        if name not in HOT:
            index = len(self.records)
            self.records.append({
                "name": name, "start": 0.0, "end": 0.0,
                "parent": parent, "run": self.run_id,
            })
        self._depth[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0, index])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[2] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            # Inclusive time counts only the outermost of nested
            # same-name spans.
            total[1] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if name not in HOT:
            self.records[index]["start"] = start
            self.records[index]["end"] = end

    def inside(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable):
        """Wrap a function returning an iterable: the call and each
        ``next()`` are one span each."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                tracer.close()
            while True:
                tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                yield item

        return traced

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        if (cls, attr) in self._patched:
            return
        self._patched.add((cls, attr))
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, original: Callable, name: str, after=None,
                       generator: bool = False) -> None:
        """Rebind ``original`` in every ``repro`` module that holds it
        (its home module and each re-export)."""
        if generator:
            replacement = self.wrap_generator(name, original)
        else:
            replacement = self.wrap(name, original, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def self_total(self) -> float:
        return sum(t[2] for t in self.totals.values())

    def to_dict(self) -> dict:
        return {
            "run": self.run_id,
            "records": self.records,
            "totals": {
                name: {"calls": t[0], "inclusive_s": t[1], "self_s": t[2]}
                for name, t in sorted(self.totals.items())
            },
            "counters": dict(self.counters),
        }


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    from repro.analysis import crashlab, runner
    from repro.core import accuracy, checksum
    from repro.sim import coherence, core, machine, nvmm, persist, timing
    from repro.verify import checker, enumerate as enum
    from repro.workloads import registry
    from repro.workloads.base import BoundWorkload, Workload

    def count_ops(t: Tracer, result) -> None:
        t.counters["sim.ops"] += result.ops_executed
        if t.inside("verify.recovery"):
            t.counters["verify.recovery_ops"] += result.ops_executed
            t.counters["verify.recovery_runs"] += 1
            if t.inside("verify.shrink"):
                t.counters["verify.shrink_runs"] += 1

    def count_cache(t: Tracer, result) -> None:
        t.counters["analysis.cache_hits" if result is not None
                   else "analysis.cache_misses"] += 1

    # repro.sim
    tracer.patch_method(machine.Machine, "run", "sim.run", count_ops)
    tracer.patch_method(machine.Machine, "drain", "sim.drain")
    tracer.patch_method(core.Core, "execute", "sim.core")
    for cls in (coherence.Hierarchy, coherence.ReplayHierarchy):
        for attr in ("load", "store", "flush_line", "clean_all"):
            tracer.patch_method(cls, attr, "sim.hierarchy")
    for cls in _subclasses(timing.CoreTiming):
        if "on_event" in cls.__dict__:
            tracer.patch_method(cls, "on_event", "sim.timing")
    for attr in ("read", "accept_write", "accept_write_timed"):
        tracer.patch_method(nvmm.MemoryController, attr, "sim.nvmm")
    # repro.verify
    tracer.patch_function(checker.check_variant, "verify.check_variant")
    tracer.patch_function(checker.run_to_crash_space, "verify.crash_run")
    tracer.patch_function(enum.enumerate_images, "verify.enumerate",
                          generator=True)
    tracer.patch_function(enum.enumeration_bound, "verify.enumerate")
    tracer.patch_method(persist.CrashStateSpace, "image_for",
                        "verify.image_build")
    tracer.patch_method(machine.Machine, "after_crash_with_image",
                        "verify.image_build")
    tracer.patch_function(checker._recovery_fails, "verify.recovery")
    tracer.patch_function(checker.minimize_failure, "verify.shrink")
    # repro.workloads
    for name in registry.available_workloads():
        cls = registry.get_workload(name)
        for klass in cls.__mro__:
            if "bind" in klass.__dict__ and klass is not Workload:
                tracer.patch_method(klass, "bind", "workloads.bind")
                break
    for cls in _subclasses(BoundWorkload):
        if "verify" in cls.__dict__:
            tracer.patch_method(cls, "verify", "workloads.verify")
    # repro.analysis
    tracer.patch_function(runner.run_jobs, "analysis.run_jobs")
    for cls in (runner.Job, runner.CrashCheckJob):
        tracer.patch_method(cls, "run", "analysis.job")
    for attr in ("get", "get_blob"):
        tracer.patch_method(runner.ResultCache, attr, "analysis.cache_get",
                            count_cache)
    for attr in ("put", "put_blob"):
        tracer.patch_method(runner.ResultCache, attr, "analysis.cache_put")
    tracer.patch_function(crashlab.crash_plans_for, "analysis.plan")
    tracer.patch_function(crashlab.run_crashcheck_campaign,
                          "analysis.campaign")
    # repro.core
    tracer.patch_function(accuracy.run_error_injection, "core.inject")
    tracer.patch_method(checksum.ChecksumEngine, "of_values",
                        "core.checksum")
