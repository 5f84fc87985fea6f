"""Error-detection codes for LP regions (paper section III-D).

The paper weighs three codes plus a parallel combination:

* **Parity** — XOR of all values; cheapest, weakest (misses any error
  pattern that XORs to zero, e.g. the same wrong value twice).
* **Modular checksum** — 32-bit modular sum; the paper's default
  (accuracy better than 2e-9 missed-error probability at ~0.2% cost).
* **Adler-32** — the zlib checksum; strong but noticeably costlier.
* **Parallel modular+parity** — both at once for a lower false-negative
  rate at a higher compute cost (Figure 15b).

Engines are *pure*: state in, state out.  Values are hashed by their
IEEE-754 bit pattern, so a checksum recomputed during recovery from
persisted data matches exactly if and only if the data persisted.

``flops_per_update`` is the compute cost a workload charges per
``UpdateCheckSum`` call; the relative costs reproduce the Figure 15b
ordering (parity < modular < parallel < adler).

Besides the streaming ``reset``/``update``/``finalize`` calls the
simulator charges per store, every engine has a batched kernel,
``of_rows``, that checksums each row of a float64 matrix at once over
its ``uint64`` bit patterns; ``of_rows(m)[i] == of_values(m[i])`` bit
for bit.  The error-injection study (``repro.core.accuracy``) uses it.
"""

from __future__ import annotations

import struct
import zlib
from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np

from repro.errors import ConfigError

_MASK32 = 0xFFFFFFFF
_ADLER_MOD = 65521
_U32 = np.uint64(32)
_UMASK32 = np.uint64(_MASK32)


def _row_bits(matrix) -> np.ndarray:
    """The ``uint64`` IEEE-754 patterns of a 2-D float matrix's values."""
    return np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)


def _fold_xor(bits: np.ndarray) -> np.ndarray:
    """Per row: XOR of all patterns, folded to 32 bits (the parity code)."""
    s = np.bitwise_xor.reduce(bits, axis=1)
    return (s ^ (s >> _U32)) & _UMASK32


def _sum_words(bits: np.ndarray) -> np.ndarray:
    """Per row: 32-bit sum of every pattern's two halves (modular code).

    The ``uint64`` sums wrap modulo 2**64, which keeps them exact
    modulo 2**32.
    """
    low = (bits & _UMASK32).sum(axis=1, dtype=np.uint64)
    high = (bits >> _U32).sum(axis=1, dtype=np.uint64)
    return (low + high) & _UMASK32


def value_bits(value: float) -> int:
    """The 64-bit IEEE-754 pattern of a value (ints go through float)."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class ChecksumEngine(ABC):
    """A streaming error-detection code over a region's stored values."""

    #: Registry / display name.
    name: str = "abstract"
    #: Arithmetic ops charged per UpdateCheckSum call.
    flops_per_update: float = 1.0
    #: Extra table stores per region commit (1 for single checksums).
    words_per_commit: int = 1

    @abstractmethod
    def reset(self) -> int:
        """Initial accumulator state for a fresh region."""

    @abstractmethod
    def update(self, state: int, value: float) -> int:
        """Fold one stored value into the accumulator."""

    @abstractmethod
    def finalize(self, state: int) -> int:
        """The value written into the checksum table."""

    def of_values(self, values) -> int:
        """Checksum of an iterable of values (recovery-side helper)."""
        state = self.reset()
        for v in values:
            state = self.update(state, v)
        return self.finalize(state)

    @abstractmethod
    def of_rows(self, matrix) -> np.ndarray:
        """``uint64[rows]``: ``of_values`` of each row of a 2-D matrix."""


class ParityChecksum(ChecksumEngine):
    """XOR of all value bit patterns, folded to 32 bits."""

    name = "parity"
    flops_per_update = 0.5

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        return state ^ value_bits(value)

    def finalize(self, state: int) -> int:
        return (state ^ (state >> 32)) & _MASK32

    def of_rows(self, matrix) -> np.ndarray:
        return _fold_xor(_row_bits(matrix))


class ModularChecksum(ChecksumEngine):
    """32-bit modular sum over the data's 32-bit words (paper default).

    Each 64-bit value contributes both of its 32-bit halves, so a
    change anywhere in the pattern moves the sum (summing only one
    half would be blind to small-integer doubles, whose low mantissa
    words are all zero).
    """

    name = "modular"
    flops_per_update = 1.0

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        bits = value_bits(value)
        return (state + (bits & _MASK32) + (bits >> 32)) & _MASK32

    def finalize(self, state: int) -> int:
        return state & _MASK32

    def of_rows(self, matrix) -> np.ndarray:
        return _sum_words(_row_bits(matrix))


class Adler32Checksum(ChecksumEngine):
    """Adler-32 over each value's 8 little-endian bytes (zlib-style)."""

    name = "adler32"
    flops_per_update = 5.0

    def reset(self) -> int:
        # state packs (b << 16) | a with a starting at 1, like zlib.
        return 1

    def update(self, state: int, value: float) -> int:
        a = state & 0xFFFF
        b = (state >> 16) & 0xFFFF
        for byte in struct.pack("<d", float(value)):
            a = (a + byte) % _ADLER_MOD
            b = (b + a) % _ADLER_MOD
        return (b << 16) | a

    def finalize(self, state: int) -> int:
        return state & _MASK32

    def of_rows(self, matrix) -> np.ndarray:
        # zlib's own Adler-32 over each row's little-endian bytes
        rows = np.ascontiguousarray(matrix, dtype="<f8")
        return np.array([zlib.adler32(row) for row in rows], dtype=np.uint64)


class ParallelChecksum(ChecksumEngine):
    """Modular sum and parity computed side by side (Figure 15b).

    The two 32-bit codes are packed into one 64-bit table word; an
    error must collide in both simultaneously to go undetected.

    ``flops_per_update`` is calibrated to Figure 15b, where the paper
    measures the parallel combination as the *costliest* option (3.4%
    vs Adler-32's ~1%): maintaining two accumulators serialises the
    update dependence chain, and the packing/unpacking of the 64-bit
    state adds ALU work beyond the two raw code updates.
    """

    name = "parallel"
    flops_per_update = 8.0
    words_per_commit = 2

    def __init__(self) -> None:
        self._modular = ModularChecksum()
        self._parity = ParityChecksum()

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        mod = (state >> 32) & _MASK32
        par = state & _MASK32
        mod = self._modular.update(mod, value)
        # fold parity progressively so intermediate state stays 32-bit
        par = (par ^ value_bits(value) ^ (value_bits(value) >> 32)) & _MASK32
        return (mod << 32) | par

    def finalize(self, state: int) -> int:
        return state

    def of_rows(self, matrix) -> np.ndarray:
        # XOR of the per-value 32-bit folds is the fold of the XOR, so
        # the parity half is exactly ParityChecksum's code.
        bits = _row_bits(matrix)
        return (_sum_words(bits) << _U32) | _fold_xor(bits)


_ENGINES: Dict[str, Type[ChecksumEngine]] = {
    cls.name: cls
    for cls in (ParityChecksum, ModularChecksum, Adler32Checksum, ParallelChecksum)
}


def get_engine(name: str) -> ChecksumEngine:
    """Instantiate a checksum engine by its registry name."""
    try:
        return _ENGINES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown checksum engine {name!r}; "
            f"available: {sorted(_ENGINES)}"
        ) from None


def available_engines() -> list:
    """Sorted names of the registered checksum engines."""
    return sorted(_ENGINES)
