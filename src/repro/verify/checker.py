"""The crash-state checker: recovery must succeed on *every* image.

For one (workload, variant, crash point) the checker

1. runs the variant to the crash point and snapshots the reachable
   image space (:func:`repro.sim.crash.run_to_crash_space`);
2. enumerates candidate images (:mod:`repro.verify.enumerate`) —
   exhaustively below the frontier, seeded-sampled above it;
3. for each image builds the post-crash machine, rebinds the workload,
   runs the variant's recovery threads, and verifies the final output
   exactly — unless an earlier run at the same point already decides
   the image (see :class:`VerdictMemo`);
4. on failure, shrinks the failing event set to a minimal order ideal
   (greedy removal of maximal events while the failure persists) and
   reports a replayable :class:`Counterexample`.

The old single-image path (:mod:`repro.analysis.crashlab`) checks one
schedule; this checker covers the whole reorderable space, which is
what catches missing-fence bugs the simulator's synchronous flush
acceptance otherwise hides.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import MachineConfig
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.sim.persist import CrashStateSpace
from repro.verify.enumerate import (
    EnumerationPlan,
    enumerate_images,
    enumeration_bound,
    project,
    varying_addrs,
)
from repro.verify.graph import is_ideal
from repro.workloads.base import Workload


def plan_to_dict(plan: CrashPlan) -> Dict[str, float]:
    """The one set trigger of a CrashPlan, as a serializable dict."""
    out: Dict[str, float] = {}
    for key in ("at_op", "at_cycle", "at_mark", "at_flush"):
        value = getattr(plan, key)
        if value is not None:
            out[key] = value
    return out


def plan_from_dict(d: Dict[str, float]) -> CrashPlan:
    """Inverse of :func:`plan_to_dict`."""
    kwargs: Dict[str, float] = dict(d)
    if "at_cycle" in kwargs:
        kwargs["at_cycle"] = float(kwargs["at_cycle"])
    return CrashPlan(
        **{k: (v if k == "at_cycle" else int(v)) for k, v in kwargs.items()}
    )


def describe_plan(plan: CrashPlan) -> str:
    return ",".join(f"{k[3:]}={v}" for k, v in plan_to_dict(plan).items())


@dataclass(frozen=True)
class Counterexample:
    """A reachable NVMM image on which recovery produced wrong output.

    Replayable from the fields alone: rebuild the same (workload,
    config, variant, crash point) run, snapshot the space, and apply
    ``minimized_eids`` — see :func:`replay_counterexample`.
    """

    workload: str
    variant: str
    #: The crash trigger, as ``plan_to_dict`` of the CrashPlan.
    crash: Dict[str, float]
    #: Enumeration seed (meaningful in sampled mode; recorded always).
    seed: int
    #: The failing order ideal as first found.
    eids: Sequence[int]
    #: Smallest failing ideal the shrinker reached.
    minimized_eids: Sequence[int]
    #: The minimized image itself, for offline inspection.
    image: Dict[int, float]

    def crash_plan(self) -> CrashPlan:
        return plan_from_dict(self.crash)

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.variant} "
            f"crash@{describe_plan(self.crash_plan())}: "
            f"recovery failed on image with events "
            f"{sorted(self.minimized_eids)} "
            f"(shrunk from {len(self.eids)}; replay seed {self.seed})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "crash": dict(self.crash),
            "seed": self.seed,
            "eids": list(self.eids),
            "minimized_eids": list(self.minimized_eids),
            "image": {str(a): v for a, v in self.image.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Counterexample":
        return cls(
            workload=d["workload"],
            variant=d["variant"],
            crash=dict(d["crash"]),
            seed=int(d["seed"]),
            eids=tuple(int(e) for e in d["eids"]),
            minimized_eids=tuple(int(e) for e in d["minimized_eids"]),
            image={int(a): float(v) for a, v in d["image"].items()},
        )


@dataclass
class CrashPointReport:
    """Checker outcome at one crash point."""

    crash: Dict[str, float]
    crashed: bool
    num_events: int = 0
    num_edges: int = 0
    images_checked: int = 0
    exhaustive: bool = True
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: Candidate ideals the enumeration plan generated (before image
    #: dedup); ``images_checked <= bound``.
    bound: int = 0
    #: Images on which recovery produced wrong output (every failing
    #: image counts, including ones containing an already-shrunk
    #: failure that is not reported again).
    images_diverged: int = 0
    #: Events dropped by counterexample shrinking at this point, summed.
    shrink_steps: int = 0
    #: Wall clock of the whole point check (run + enumerate + recover).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def images_recovered(self) -> int:
        return self.images_checked - self.images_diverged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crash": dict(self.crash),
            "crashed": self.crashed,
            "num_events": self.num_events,
            "num_edges": self.num_edges,
            "images_checked": self.images_checked,
            "exhaustive": self.exhaustive,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "bound": self.bound,
            "images_diverged": self.images_diverged,
            "shrink_steps": self.shrink_steps,
            "wall_s": round(self.wall_s, 6),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashPointReport":
        # Coverage fields default for records written before they
        # existed (pre-coverage cache entries are invalidated by
        # code_version anyway; saved counterexample files are not).
        return cls(
            crash=dict(d["crash"]),
            crashed=bool(d["crashed"]),
            num_events=int(d["num_events"]),
            num_edges=int(d["num_edges"]),
            images_checked=int(d["images_checked"]),
            exhaustive=bool(d["exhaustive"]),
            counterexamples=[
                Counterexample.from_dict(c) for c in d["counterexamples"]
            ],
            bound=int(d.get("bound", 0)),
            images_diverged=int(d.get("images_diverged", 0)),
            shrink_steps=int(d.get("shrink_steps", 0)),
            wall_s=float(d.get("wall_s", 0.0)),
        )


@dataclass
class CrashCheckReport:
    """Checker outcome for one (workload, variant) across crash points."""

    workload: str
    variant: str
    points: List[CrashPointReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def images_checked(self) -> int:
        return sum(p.images_checked for p in self.points)

    @property
    def max_events(self) -> int:
        return max((p.num_events for p in self.points), default=0)

    @property
    def images_diverged(self) -> int:
        return sum(p.images_diverged for p in self.points)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.points)

    @property
    def counterexamples(self) -> List[Counterexample]:
        return [c for p in self.points for c in p.counterexamples]

    def coverage(self) -> Any:
        """This campaign's :class:`~repro.obs.coverage.CoverageStats`.

        Imported lazily: the verification layer stays importable (and
        cache-key stable) without the observability package loaded.
        """
        from repro.obs.coverage import coverage_of_crashcheck

        return coverage_of_crashcheck(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashCheckReport":
        return cls(
            workload=d["workload"],
            variant=d["variant"],
            points=[CrashPointReport.from_dict(p) for p in d["points"]],
        )


# ----------------------------------------------------------------------
# core checking machinery
# ----------------------------------------------------------------------


class _LiveIns:
    """What one recovery run read before writing it.

    Shared by the run's two :class:`_RecordingMap` value maps.
    ``tracked`` drops to False at the first access the maps cannot
    attribute to single addresses; the run's live-ins are then unknown.
    """

    __slots__ = ("addrs", "tracked")

    def __init__(self) -> None:
        #: ``Any``: ``in`` may probe with any hashable, and a numpy
        #: integer address must be recorded like the int it equals.
        self.addrs: Set[Any] = set()
        self.tracked = True


class _RecordingMap(Dict[int, float]):
    """A value map noting the addresses read before they are written.

    ``[]``, ``get`` and ``in`` record their address unless this map
    already wrote it; ``[]=`` marks it written.  Every other access
    (iteration, ``len``, bulk update, copy, ...) marks the run
    untracked and then behaves like a plain dict.
    """

    __slots__ = ("_live", "_reads", "_written")

    def __init__(self, data: Dict[int, float], live: _LiveIns) -> None:
        super().__init__(data)
        self._live = live
        self._reads = live.addrs
        self._written: Set[int] = set()

    def __getitem__(self, addr: int) -> float:
        if addr not in self._written:
            self._reads.add(addr)
        return dict.__getitem__(self, addr)

    def get(self, addr: int, default: Any = None) -> Any:
        if addr not in self._written:
            self._reads.add(addr)
        return dict.get(self, addr, default)

    def __contains__(self, addr: object) -> bool:
        if addr not in self._written:
            self._reads.add(addr)
        return dict.__contains__(self, addr)

    def __setitem__(self, addr: int, value: float) -> None:
        self._written.add(addr)
        dict.__setitem__(self, addr, value)


def _untracked(name: str) -> Callable[..., Any]:
    plain = getattr(dict, name)

    def method(self: _RecordingMap, *args: Any, **kwargs: Any) -> Any:
        self._live.tracked = False
        return plain(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in (
    "__iter__", "__reversed__", "__len__", "__eq__", "__ne__", "__or__",
    "__ror__", "__ior__", "__delitem__", "__repr__", "__reduce__",
    "__reduce_ex__", "keys", "values", "items", "copy", "update", "pop",
    "popitem", "setdefault", "clear",
):
    setattr(_RecordingMap, _name, _untracked(_name))


def _recovery_fails(
    crashed_machine: Machine,
    workload: Workload,
    variant: str,
    image: Dict[int, float],
    num_threads: int,
    engine: str,
    replay: bool = True,
    record: bool = True,
) -> Tuple[bool, Optional[FrozenSet[int]]]:
    """Run recovery on ``image``: ``(wrong output?, live-ins)``.

    By default recovery runs on a **replay machine** (cache-free
    architectural semantics, functional timing): the verdict depends
    only on the values recovery computes, and caches are
    architecturally transparent, so replay is exact for this question
    while skipping the coherence walk that otherwise dominates campaign
    wall-clock.  ``replay=False`` restores the full-machine recovery
    run (equivalence tests and benchmarks use it).

    The live-ins are the image addresses the rebind, the recovery run
    and ``verify()`` read before writing them — all the run's verdict
    can depend on.  They are recorded on replay machines only, and are
    None when the run touched memory in a way not attributable to
    single addresses, or when ``replay`` or ``record`` is False.
    """
    post = crashed_machine.after_crash_with_image(image, replay=replay)
    live: Optional[_LiveIns] = None
    if replay and record:
        live = _LiveIns()
        post.mem.arch = _RecordingMap(post.mem.arch, live)
        post.mem.persistent = _RecordingMap(post.mem.persistent, live)
    rebound = workload.bind(
        post, num_threads=num_threads, engine=engine, create=False
    )
    post.run(rebound.recovery_threads_for(variant))
    failed = not rebound.verify()
    if live is None or not live.tracked:
        return failed, None
    return failed, frozenset(live.addrs)


class VerdictMemo:
    """Recovery verdicts at one crash point, reused by live-in match.

    A replay recovery run is deterministic: it reads only the image's
    values at its live-ins and values it computed itself.  So any image
    agreeing with a checked one on that run's live-ins takes the same
    run and gets the same verdict.  Every image of one space equals the
    floor outside the space's varying addresses, so live-ins are keyed
    by their projection onto those addresses alone.

    One table per distinct (projected) live-in address tuple maps the
    image's values there to the verdict.  Only tuples are held, never
    images or machines.  A point whose images share nothing stops
    recording after ``PROBE_RUNS`` real runs without a hit.
    """

    #: Real runs a point gets to show reuse.  When none of its first
    #: ``PROBE_RUNS`` images hit, later runs skip live-in recording,
    #: which slows a run by about a third and would buy nothing.
    PROBE_RUNS = 16

    def __init__(self, space: CrashStateSpace) -> None:
        self.runs = 0
        self.hits = 0
        self._varying = frozenset(varying_addrs(space))
        self._tables: Dict[Tuple[int, ...], Dict[Tuple[object, ...], bool]] = {}
        # Keys compare values with ``==``, which cannot tell -0.0 from
        # 0.0 while a checksum over bit patterns can: a space where a
        # varying cell may hold -0.0 gets no reuse.
        values = [v for ev in space.events for v in ev.values.values()]
        values += [space.floor[a] for a in self._varying if a in space.floor]
        self._exact = not any(
            v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values
        )

    def lookup(self, image: Dict[int, float]) -> Optional[bool]:
        """The verdict of a recorded run ``image`` matches, if any."""
        for addrs, verdicts in self._tables.items():
            verdict = verdicts.get(project(image, addrs))
            if verdict is not None:
                self.hits += 1
                return verdict
        return None

    @property
    def recording(self) -> bool:
        """Whether the next real run should record its live-ins."""
        return self._exact and (self.hits > 0 or self.runs < self.PROBE_RUNS)

    def record(
        self,
        live_ins: Optional[Iterable[int]],
        image: Dict[int, float],
        failed: bool,
    ) -> None:
        """Count a real run on ``image``; remember its verdict when its
        live-ins are known."""
        self.runs += 1
        if live_ins is None or not self._exact:
            return
        varying = self._varying
        addrs = tuple(sorted(a for a in live_ins if a in varying))
        self._tables.setdefault(addrs, {})[project(image, addrs)] = failed


def minimize_failure(
    space: CrashStateSpace,
    failing: FrozenSet[int],
    fails: Callable[[FrozenSet[int]], bool],
) -> FrozenSet[int]:
    """Shrink a failing event set to a minimal failing order ideal.

    Greedy: repeatedly try dropping one maximal event (one with no
    chosen successor, so the remainder stays downward-closed); keep any
    drop that still fails.  The result is 1-minimal — removing any
    single further event either breaks the ideal property or makes
    recovery succeed.
    """
    nodes = [ev.eid for ev in space.events]
    current = set(failing)
    shrinking = True
    while shrinking:
        shrinking = False
        # Highest ids first: same-line chains shed newest versions first.
        for eid in sorted(current, reverse=True):
            candidate = current - {eid}
            if not is_ideal(candidate, nodes, space.edges):
                continue
            if fails(frozenset(candidate)):
                current = candidate
                shrinking = True
                break
    return frozenset(current)


def check_crash_point(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    crash: CrashPlan,
    plan: EnumerationPlan,
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    timing: Optional[str] = None,
    replay: bool = True,
) -> CrashPointReport:
    """Run ``variant`` to the ``crash`` trigger, enumerate every
    reachable image, and check recovery against each.

    ``timing`` overrides the config's timing model for the crash-point
    run (the run that defines the reachable-image space); ``replay``
    selects the fast cache-free machine for per-image recovery runs
    (see :func:`_recovery_fails`).  On replay machines the point's
    real recovery runs feed a :class:`VerdictMemo` that decides every
    later image matching one of them; ``replay=False`` runs every image.
    """
    started = time.perf_counter()
    if timing is not None:
        config = config.with_timing(timing)
    crash_key = plan_to_dict(crash)
    machine = Machine(config)
    if cleaner_period is not None:
        machine.cleaner = PeriodicCleaner(cleaner_period)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    result, space = run_to_crash_space(machine, bound.threads(variant), crash)
    if space is None:
        # Finished before the trigger: a graceful end must still verify.
        report = CrashPointReport(crash=crash_key, crashed=False)
        if not bound.verify():
            report.counterexamples.append(
                Counterexample(
                    workload=workload.name,
                    variant=variant,
                    crash=crash_key,
                    seed=plan.seed,
                    eids=(),
                    minimized_eids=(),
                    image={},
                )
            )
        report.wall_s = time.perf_counter() - started
        return report

    report = CrashPointReport(
        crash=crash_key,
        crashed=True,
        num_events=space.num_events,
        num_edges=len(space.edges),
        exhaustive=plan.is_exhaustive_for(space),
        bound=enumeration_bound(space, plan),
    )

    memo = VerdictMemo(space) if replay else None

    def image_fails(image: Dict[int, float]) -> bool:
        if memo is not None:
            verdict = memo.lookup(image)
            if verdict is not None:
                return verdict
        failed, live_ins = _recovery_fails(
            machine, workload, variant, image, num_threads, engine,
            replay=replay, record=memo is not None and memo.recording,
        )
        if memo is not None:
            memo.record(live_ins, image, failed)
        return failed

    def fails(eids: FrozenSet[int]) -> bool:
        return image_fails(space.image_for(eids))

    known: List[FrozenSet[int]] = []
    for candidate in enumerate_images(space, plan):
        report.images_checked += 1
        if not image_fails(candidate.image):
            continue
        report.images_diverged += 1
        if any(k <= candidate.eids for k in known):
            # An already-reported minimal failure is contained in this
            # image: same root cause, don't shrink or report it again.
            continue
        minimized = minimize_failure(space, candidate.eids, fails)
        known.append(frozenset(minimized))
        report.shrink_steps += len(candidate.eids) - len(minimized)
        report.counterexamples.append(
            Counterexample(
                workload=workload.name,
                variant=variant,
                crash=crash_key,
                seed=plan.seed,
                eids=tuple(sorted(candidate.eids)),
                minimized_eids=tuple(sorted(minimized)),
                image=space.image_for(minimized),
            )
        )
    report.wall_s = time.perf_counter() - started
    return report


def check_variant(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    crash_plans: Sequence[CrashPlan],
    plan: EnumerationPlan,
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    stop_on_failure: bool = False,
    timing: Optional[str] = None,
    replay: bool = True,
    journal: Optional[Any] = None,
) -> CrashCheckReport:
    """Check one variant at each crash point; see
    :func:`check_crash_point`.

    ``journal`` is any sink with ``emit(kind, **fields)`` (a
    :class:`repro.obs.journal.TelemetryJournal`); when given, the
    checker emits one ``campaign_point`` event per finished crash point
    and one ``counterexample`` event per shrunk failure — the streaming
    feed behind ``repro crashcheck --progress`` and ``repro watch``.
    """
    report = CrashCheckReport(workload=workload.name, variant=variant)
    label = f"{workload.name}/{variant}"
    for crash in crash_plans:
        point = check_crash_point(
            workload,
            config,
            variant,
            crash,
            plan,
            num_threads=num_threads,
            engine=engine,
            cleaner_period=cleaner_period,
            timing=timing,
            replay=replay,
        )
        report.points.append(point)
        if journal is not None:
            journal.emit(
                "campaign_point",
                label=label,
                crash=describe_plan(plan_from_dict(point.crash)),
                crashed=point.crashed,
                num_events=point.num_events,
                images_checked=point.images_checked,
                images_diverged=point.images_diverged,
                bound=point.bound,
                exhaustive=point.exhaustive,
                counterexamples=len(point.counterexamples),
                shrink_steps=point.shrink_steps,
                wall_s=round(point.wall_s, 6),
            )
            for cex in point.counterexamples:
                journal.emit(
                    "counterexample",
                    label=label,
                    description=cex.describe(),
                    crash=dict(cex.crash),
                )
        if stop_on_failure and not point.ok:
            break
    return report


def replay_counterexample(
    workload: Workload,
    config: MachineConfig,
    counterexample: Counterexample,
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    timing: Optional[str] = None,
) -> bool:
    """Re-run a counterexample from its replay fields.

    Returns True when the failure reproduces (recovery on the minimized
    image is still wrong).  Deterministic: the run, the snapshot, and
    the event ids all reproduce from (workload, config, crash point) —
    ``timing`` must therefore match the timing model the counterexample
    was found under (it changes multicore interleaving and hence the
    space's event ids).
    """
    if timing is not None:
        config = config.with_timing(timing)
    machine = Machine(config)
    if cleaner_period is not None:
        machine.cleaner = PeriodicCleaner(cleaner_period)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    _, space = run_to_crash_space(
        machine,
        bound.threads(counterexample.variant),
        counterexample.crash_plan(),
    )
    if space is None:
        return False
    image = space.image_for(counterexample.minimized_eids)
    failed, _ = _recovery_fails(
        machine,
        workload,
        counterexample.variant,
        image,
        num_threads,
        engine,
    )
    return failed
