"""Checksum accuracy study (paper section III-D).

The paper injects random errors into matrix elements and asks whether
any injected error produces the *same* checksum as the error-free data
(a false negative: the persistency failure would go undetected).  They
report a missed-error probability below 2e-9 for both the modular and
Adler-32 checksums, with parity noticeably weaker.

Two error models:

* ``"stale"`` — a random subset of elements reverts to earlier values,
  which is exactly what an unpersisted store looks like after a crash;
* ``"paired"`` — two elements receive an *identical* bit-pattern
  corruption.  XOR-based parity is structurally blind to this (the two
  flips cancel), which demonstrates why the paper ranks parity's
  detection accuracy worst.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.core.checksum import ChecksumEngine


@dataclass
class AccuracyResult:
    """Outcome of an error-injection campaign against one engine."""

    engine: str
    error_model: str
    trials: int
    missed: int
    #: trials where the injected "error" left the data identical (skipped).
    degenerate: int = 0
    examples: List[tuple] = field(default_factory=list)

    @property
    def effective_trials(self) -> int:
        return self.trials - self.degenerate

    @property
    def miss_probability(self) -> float:
        if self.effective_trials == 0:
            return 0.0
        return self.missed / self.effective_trials

    @property
    def miss_probability_upper_bound(self) -> float:
        """95% (rule-of-three) upper bound when no miss was observed."""
        if self.effective_trials == 0:
            return 1.0
        if self.missed == 0:
            return 3.0 / self.effective_trials
        return self.miss_probability


def _inject_stale(row: np.ndarray, rng: random.Random) -> None:
    """Revert a random non-empty subset of a region to stale values.

    The region is a float64 row, corrupted in place.
    """
    k = rng.randint(1, max(1, len(row) // 4))
    idx = rng.sample(range(len(row)), k)
    # the "previous" value a crash would expose: an older accumulation
    row[idx] = [float(rng.randint(0, 1 << 30)) for _ in idx]


def _inject_paired(row: np.ndarray, rng: random.Random) -> None:
    """XOR the same bit mask into two distinct elements' patterns.

    The two flips cancel in an XOR parity, so parity can never detect
    this class of error; sum-based codes almost always do.
    """
    i, j = rng.sample(range(len(row)), 2)
    # flip low-mantissa bits only, so values stay finite and comparable
    mask = np.uint64(rng.randint(1, (1 << 30) - 1))
    bits = row.view(np.uint64)
    bits[i] ^= mask
    bits[j] ^= mask


#: error model -> (in-place injection, smallest region it accepts)
_MODELS = {"stale": (_inject_stale, 1), "paired": (_inject_paired, 2)}

#: Trials whose regions are checksummed together: bounds the two
#: trials x region matrices a campaign holds at once.
CHUNK_ROWS = 64

#: Region values are ``rng.randint(0, _VALUE_MAX)`` draws.
_VALUE_MAX = 1 << 40


def _draw_region(rng: random.Random, n: int) -> np.ndarray:
    """``[float(rng.randint(0, 1 << 40)) for _ in range(n)]``, ``n >= 1``.

    ``randint(0, 1 << 40)`` is ``getrandbits(41)`` redrawn while above
    ``1 << 40``, and ``getrandbits(41)`` is ``w0 | (w1 >> 23) << 32``
    over two consecutive Mersenne Twister words.  The words come from
    one ``getrandbits`` call, the draws are decoded from them with
    numpy, and the generator is then rewound and re-advanced by exactly
    the words the scalar loop would have used, so its state afterwards
    is identical.
    """
    state = rng.getstate()
    # about two candidates per accepted draw, plus nine standard
    # deviations (the count needed has variance about 2n)
    candidates = 2 * n + 9 * math.isqrt(2 * n) + 8
    while True:
        raw = rng.getrandbits(64 * candidates).to_bytes(8 * candidates, "little")
        words = np.frombuffer(raw, dtype="<u4").astype(np.uint64)
        draws = words[0::2] | (words[1::2] >> np.uint64(23)) << np.uint64(32)
        accepted = np.flatnonzero(draws <= _VALUE_MAX)
        if len(accepted) >= n:
            break
        rng.setstate(state)
        candidates *= 2
    rng.setstate(state)
    rng.getrandbits(64 * (int(accepted[n - 1]) + 1))
    return draws[accepted[:n]].astype(np.float64)


def run_error_injection(
    engine: ChecksumEngine,
    *,
    region_size: int = 256,
    trials: int = 10_000,
    error_model: str = "stale",
    seed: int = 0,
) -> AccuracyResult:
    """Measure the engine's missed-error rate under an error model.

    Each trial builds a fresh region of random values, corrupts a copy,
    and counts a miss when the corrupted data checksums to the same
    value as the original (while actually differing).  Trials are
    drawn one at a time from a single ``random.Random(seed)`` stream
    and checksummed ``CHUNK_ROWS`` at a time with the engine's batched
    kernel.
    """
    if error_model not in _MODELS:
        raise ConfigError(
            f"unknown error model {error_model!r}; choose from {sorted(_MODELS)}"
        )
    inject, min_region = _MODELS[error_model]
    if region_size < min_region:
        raise ConfigError(
            f"{error_model} injection needs regions of at least "
            f"{min_region} element(s), got region_size={region_size}"
        )
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    result = AccuracyResult(
        engine=engine.name, error_model=error_model, trials=trials, missed=0
    )
    for start in range(0, trials, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, trials - start)
        values = np.empty((rows, region_size))
        corrupted = np.empty_like(values)
        for row in range(rows):
            values[row] = corrupted[row] = _draw_region(rng, region_size)
            inject(corrupted[row], rng)
        # float ==, as in a list comparison of the values
        degenerate = (values == corrupted).all(axis=1)
        result.degenerate += int(degenerate.sum())
        missed = (engine.of_rows(values) == engine.of_rows(corrupted)) & ~degenerate
        for row in np.flatnonzero(missed):
            result.missed += 1
            if len(result.examples) < 4:
                result.examples.append(
                    (tuple(values[row].tolist()), tuple(corrupted[row].tolist()))
                )
    return result
