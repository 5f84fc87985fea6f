"""Reachable NVMM image enumeration for a :class:`CrashStateSpace`.

Wraps the generic order-ideal machinery of :mod:`repro.verify.graph`
with the policy the checker needs:

* **exhaustive** below a configurable frontier (``num_events <=
  max_exhaustive_events``): every order ideal, hence every reachable
  image;
* **sampled** above it: seeded-random ideals with deterministic
  replay, always augmented with the three distinguished ideals —
  the floor (nothing extra persisted), the full set (everything
  persisted), and the simulator's own schedule — so the sampled mode
  never misses the cases the old single-image path covered.

Images are deduplicated by content: distinct ideals can collide on the
same address->value map (e.g. a dirty line whose value never changed),
and checking a duplicate image buys nothing.  Every image of a space is
the floor overlaid with some events' values, so two images are equal
exactly when they agree on the space's *varying* addresses (those some
event writes); the dedup key is that projection, not the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.sim.persist import CrashStateSpace
from repro.verify.graph import count_ideals, iter_ideals, sample_ideals


@dataclass(frozen=True)
class EnumeratedImage:
    """One candidate post-crash NVMM image and the event set behind it."""

    eids: FrozenSet[int]
    image: Dict[int, float]


#: Stands in a projection for a varying address the image has no value
#: at (an event adds the cell, the floor lacks it).  Equal only to
#: itself, so it never collides with a stored value.
ABSENT = object()


def varying_addrs(space: CrashStateSpace) -> Tuple[int, ...]:
    """Sorted addresses at which the images of ``space`` can differ:
    the union of its events' written addresses.  Everywhere else every
    image holds the floor's value (or no value)."""
    return tuple(sorted({addr for ev in space.events for addr in ev.values}))


def project(
    image: Dict[int, float], addrs: Sequence[int]
) -> Tuple[object, ...]:
    """``image``'s values at ``addrs``, :data:`ABSENT` where it has none."""
    get = image.get
    return tuple([get(addr, ABSENT) for addr in addrs])


@dataclass(frozen=True)
class EnumerationPlan:
    """Bounds for image enumeration.

    ``max_exhaustive_events`` is the frontier: at or below it every
    order ideal is generated; above it ``samples`` seeded ideals are
    drawn with ``seed`` (plus the floor/full/schedule ideals, always).
    ``max_images`` hard-caps the exhaustive yield as a safety valve
    for pathological graphs.
    """

    max_exhaustive_events: int = 12
    samples: int = 64
    seed: int = 0
    max_images: int = 65536

    def __post_init__(self) -> None:
        if self.max_exhaustive_events < 0:
            raise ConfigError("max_exhaustive_events must be >= 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.max_images < 1:
            raise ConfigError("max_images must be >= 1")

    def is_exhaustive_for(self, space: CrashStateSpace) -> bool:
        return space.num_events <= self.max_exhaustive_events


def _ideal_stream(
    space: CrashStateSpace, plan: EnumerationPlan
) -> Iterator[FrozenSet[int]]:
    nodes = [ev.eid for ev in space.events]
    if plan.is_exhaustive_for(space):
        count = 0
        for ideal in iter_ideals(nodes, space.edges):
            yield ideal
            count += 1
            if count >= plan.max_images:
                break
        return
    # Sampled mode: distinguished ideals first so they always survive
    # the sample budget, then the seeded draws.
    yield frozenset()
    yield frozenset(nodes)
    yield frozenset(space.schedule_eids())
    for ideal in sample_ideals(nodes, space.edges, plan.seed, plan.samples):
        yield ideal


def enumeration_bound(space: CrashStateSpace, plan: EnumerationPlan) -> int:
    """How many candidate ideals :func:`enumerate_images` will consider.

    Exhaustive mode: the exact order-ideal count of the constraint
    graph, capped by ``max_images`` — the space's true reachable-image
    bound (before content dedup).  Sampled mode: the sample budget plus
    the three distinguished ideals.  Coverage accounting compares
    ``images_checked`` (deduplicated) against this bound.
    """
    if plan.is_exhaustive_for(space):
        nodes = [ev.eid for ev in space.events]
        return min(count_ideals(nodes, space.edges), plan.max_images)
    return plan.samples + 3


def enumerate_images(
    space: CrashStateSpace, plan: EnumerationPlan
) -> List[EnumeratedImage]:
    """All candidate images for ``space`` under ``plan``, deduplicated
    by image content (first event set producing each image wins).

    Content is compared on the varying addresses only: outside them
    every image equals the floor, so the projection makes exactly the
    decisions a whole-image comparison would.
    """
    varying = varying_addrs(space)
    out: List[EnumeratedImage] = []
    seen: Set[Tuple[object, ...]] = set()
    for ideal in _ideal_stream(space, plan):
        image = space.image_for(ideal)
        key = project(image, varying)
        if key not in seen:
            seen.add(key)
            out.append(EnumeratedImage(eids=ideal, image=image))
    return out
