"""Property-based tests for the checksum engines."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checksum import (
    Adler32Checksum,
    ModularChecksum,
    ParallelChecksum,
    ParityChecksum,
    value_bits,
)

reasonable_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)
value_lists = st.lists(reasonable_floats, min_size=1, max_size=40)

ENGINES = [ParityChecksum, ModularChecksum, Adler32Checksum, ParallelChecksum]


@given(value_lists, st.integers(min_value=0, max_value=39), reasonable_floats)
@settings(max_examples=120, deadline=None)
def test_single_substitution_detected(values, index, replacement):
    """Any single changed value changes every engine's checksum —
    unless the replacement has the identical bit pattern."""
    index %= len(values)
    original_bits = struct.pack("<d", values[index])
    if struct.pack("<d", replacement) == original_bits:
        return
    corrupted = list(values)
    corrupted[index] = replacement
    for engine_cls in ENGINES:
        e = engine_cls()
        assert e.of_values(values) != e.of_values(corrupted), engine_cls.name


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_streaming_equals_batch(values):
    for engine_cls in ENGINES:
        e = engine_cls()
        state = e.reset()
        for v in values:
            state = e.update(state, v)
        assert e.finalize(state) == e.of_values(values)


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_adler_matches_zlib(values):
    raw = b"".join(struct.pack("<d", v) for v in values)
    assert Adler32Checksum().of_values(values) == zlib.adler32(raw)


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_truncation_detected(values):
    """Losing the tail of a region (the classic crash pattern where the
    last stores never persisted and read back as 0.0) is detected."""
    truncated = values[:-1] + [0.0]
    if truncated == values:
        return
    for engine_cls in ENGINES:
        e = engine_cls()
        assert e.of_values(values) != e.of_values(truncated), engine_cls.name


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_parallel_at_least_as_strong_as_parts(values):
    """If either the modular or parity component would detect a change,
    so does the parallel combination (its word embeds both)."""
    corrupted = [v + 1.0 for v in values]
    mod_detects = ModularChecksum().of_values(
        values
    ) != ModularChecksum().of_values(corrupted)
    par_detects = ParityChecksum().of_values(
        values
    ) != ParityChecksum().of_values(corrupted)
    combo_detects = ParallelChecksum().of_values(
        values
    ) != ParallelChecksum().of_values(corrupted)
    if mod_detects or par_detects:
        assert combo_detects


@given(value_lists)
@settings(max_examples=60, deadline=None)
def test_finalize_ranges(values):
    """Single codes fit 32 bits; the parallel combination fits 64."""
    for engine_cls in (ParityChecksum, ModularChecksum, Adler32Checksum):
        ck = engine_cls().of_values(values)
        assert 0 <= ck < (1 << 32)
    ck = ParallelChecksum().of_values(values)
    assert 0 <= ck < (1 << 64)


# -- batched kernels: of_rows(m)[i] == of_values(m[i]) bit for bit

def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
     1.0, -1.0, float(1 << 40), float(1 << 30)]
)
_finite = st.one_of(reasonable_floats, _edge_floats)
# a finite value with low mantissa bits flipped, as the paired-error
# model does; the exponent is untouched, so it stays finite
_low_mantissa = st.builds(
    lambda v, mask: _from_bits(value_bits(v) ^ mask),
    _finite, st.integers(min_value=1, max_value=(1 << 30) - 1),
)
kernel_floats = st.one_of(
    st.floats(allow_nan=False, width=64), _edge_floats, _low_mantissa
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=0, max_value=24))
    cells = draw(st.lists(kernel_floats, min_size=rows * width,
                          max_size=rows * width))
    return np.array(cells, dtype=np.float64).reshape(rows, width)


def _assert_rows_match(matrix):
    for engine_cls in ENGINES:
        e = engine_cls()
        got = e.of_rows(matrix)
        assert got.dtype == np.uint64 and got.shape == (matrix.shape[0],)
        assert [int(x) for x in got] == [
            e.of_values(row.tolist()) for row in matrix
        ], engine_cls.name


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_of_rows_equals_of_values(matrix):
    _assert_rows_match(matrix)


@pytest.mark.parametrize("shape", [(1, 17), (9, 1), (4, 0), (0, 5), (0, 0)])
def test_of_rows_edge_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    _assert_rows_match(rng.normal(scale=1e8, size=shape))


def test_of_rows_of_zero_width_rows_is_the_empty_checksum():
    empty = np.empty((3, 0))
    for engine_cls, expected in zip(ENGINES, (0, 0, 1, 0)):
        e = engine_cls()
        assert e.of_values([]) == expected
        assert e.of_rows(empty).tolist() == [expected] * 3


def test_of_rows_parity_folds_high_word():
    # patterns that differ only in their high 32 bits: an unfolded XOR
    # would keep them apart, the 32-bit fold must agree with the scalar
    matrix = np.array([[_from_bits(1 << 32), _from_bits(1)]])
    _assert_rows_match(matrix)
    assert ParityChecksum().of_rows(matrix).tolist() == [0]
