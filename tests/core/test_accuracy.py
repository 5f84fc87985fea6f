"""Unit tests for the section III-D checksum accuracy study."""

import random
import struct

import pytest

from repro.errors import ConfigError
from repro.core import accuracy
from repro.core.accuracy import AccuracyResult, CHUNK_ROWS, run_error_injection
from repro.core.checksum import (
    Adler32Checksum,
    ModularChecksum,
    ParallelChecksum,
    ParityChecksum,
    available_engines,
    get_engine,
)


# -- scalar reference: the per-trial, per-value campaign the batched
# -- run_error_injection must reproduce exactly

def _reference_inject_stale(values, rng):
    corrupted = list(values)
    k = rng.randint(1, max(1, len(values) // 4))
    for idx in rng.sample(range(len(values)), k):
        corrupted[idx] = float(rng.randint(0, 1 << 30))
    return corrupted


def _reference_inject_paired(values, rng):
    if len(values) < 2:
        raise ConfigError("paired injection needs at least 2 elements")
    corrupted = list(values)
    i, j = rng.sample(range(len(values)), 2)
    mask = rng.randint(1, (1 << 30) - 1)
    for idx in (i, j):
        bits = struct.unpack("<Q", struct.pack("<d", corrupted[idx]))[0]
        corrupted[idx] = struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]
    return corrupted


_REFERENCE_MODELS = {
    "stale": _reference_inject_stale,
    "paired": _reference_inject_paired,
}


def reference_injection(
    engine, *, region_size=256, trials=10_000, error_model="stale", seed=0
):
    """The scalar campaign: one region and two ``of_values`` per trial."""
    inject = _REFERENCE_MODELS[error_model]
    rng = random.Random(seed)
    result = AccuracyResult(
        engine=engine.name, error_model=error_model, trials=trials, missed=0
    )
    for _ in range(trials):
        values = [float(rng.randint(0, 1 << 40)) for _ in range(region_size)]
        reference = engine.of_values(values)
        corrupted = inject(values, rng)
        if corrupted == values:
            result.degenerate += 1
            continue
        if engine.of_values(corrupted) == reference:
            result.missed += 1
            if len(result.examples) < 4:
                result.examples.append((tuple(values), tuple(corrupted)))
    return result


def _outcome(res):
    return (res.engine, res.error_model, res.trials, res.missed,
            res.degenerate, res.examples)


class TestStaleModel:
    @pytest.mark.parametrize(
        "engine_cls", [ModularChecksum, Adler32Checksum, ParallelChecksum]
    )
    def test_strong_engines_miss_nothing(self, engine_cls):
        res = run_error_injection(
            engine_cls(), region_size=64, trials=2000, error_model="stale", seed=1
        )
        assert res.missed == 0
        assert res.miss_probability == 0.0
        assert res.miss_probability_upper_bound <= 3.0 / 1000

    def test_result_bookkeeping(self):
        res = run_error_injection(
            ModularChecksum(), region_size=16, trials=100, seed=2
        )
        assert res.trials == 100
        assert res.engine == "modular"
        assert res.error_model == "stale"
        assert 0 <= res.degenerate <= 100


class TestPairedModel:
    def test_parity_misses_everything(self):
        res = run_error_injection(
            ParityChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        # XOR parity is structurally blind to paired identical flips
        assert res.miss_probability == 1.0

    def test_modular_catches_paired_flips(self):
        res = run_error_injection(
            ModularChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        assert res.miss_probability < 0.01

    def test_parallel_catches_paired_flips(self):
        res = run_error_injection(
            ParallelChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        assert res.miss_probability < 0.01


class TestValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            run_error_injection(ModularChecksum(), error_model="cosmic-rays")

    @pytest.mark.parametrize("region_size", [0, -3])
    def test_empty_stale_region_rejected(self, region_size):
        with pytest.raises(ConfigError, match="region_size"):
            run_error_injection(
                ModularChecksum(), region_size=region_size, trials=5
            )

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            run_error_injection(ModularChecksum(), region_size=8, trials=-5)

    @pytest.mark.parametrize("trials", [0, 3])
    def test_paired_needs_two_elements_even_without_trials(self, trials):
        with pytest.raises(ConfigError, match="region_size"):
            run_error_injection(
                ModularChecksum(), region_size=1, trials=trials,
                error_model="paired",
            )

    def test_rejected_before_any_draw(self, monkeypatch):
        def no_rng(seed):
            raise AssertionError("random stream opened")

        monkeypatch.setattr(accuracy.random, "Random", no_rng)
        for kwargs in (dict(region_size=0), dict(trials=-1),
                       dict(region_size=1, error_model="paired")):
            with pytest.raises(ConfigError):
                run_error_injection(ModularChecksum(), **kwargs)

    def test_zero_trials(self):
        res = run_error_injection(ModularChecksum(), region_size=8, trials=0)
        assert (res.trials, res.missed, res.degenerate) == (0, 0, 0)
        assert res.miss_probability_upper_bound == 1.0

    def test_deterministic_given_seed(self):
        a = run_error_injection(ParityChecksum(), trials=200, seed=7)
        b = run_error_injection(ParityChecksum(), trials=200, seed=7)
        assert (a.missed, a.degenerate, a.examples) == (
            b.missed, b.degenerate, b.examples
        )
        c = run_error_injection(
            ParityChecksum(), region_size=8, trials=20, error_model="paired",
            seed=7,
        )
        d = run_error_injection(
            ParityChecksum(), region_size=8, trials=20, error_model="paired",
            seed=7,
        )
        assert c.examples and c.examples == d.examples

    def test_identical_corruption_counts_as_degenerate(self, monkeypatch):
        def unchanged(row, rng):
            row[0] = row[0] + 0.0

        monkeypatch.setitem(accuracy._MODELS, "unchanged", (unchanged, 1))
        res = run_error_injection(
            ParityChecksum(), region_size=4, trials=CHUNK_ROWS + 3,
            error_model="unchanged",
        )
        assert res.degenerate == CHUNK_ROWS + 3
        assert res.missed == 0 and res.examples == []


class TestRegionBlockDraw:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 256, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 42, 43])
    def test_values_and_end_state_match_randint(self, n, seed):
        scalar, block = random.Random(seed), random.Random(seed)
        scalar.random()
        block.random()
        expected = [float(scalar.randint(0, 1 << 40)) for _ in range(n)]
        assert accuracy._draw_region(block, n).tolist() == expected
        assert block.getstate() == scalar.getstate()

    def test_short_block_is_redrawn(self, monkeypatch):
        # a first block far too small for the region must still come
        # out right once it is enlarged
        monkeypatch.setattr(accuracy.math, "isqrt", lambda x: -(x // 9))
        scalar, block = random.Random(5), random.Random(5)
        expected = [float(scalar.randint(0, 1 << 40)) for _ in range(64)]
        assert accuracy._draw_region(block, 64).tolist() == expected
        assert block.getstate() == scalar.getstate()


class TestMatchesScalarReference:
    """The batched campaign equals the scalar one trial for trial."""

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize(
        "error_model,region_size",
        [("stale", 1), ("stale", 2), ("stale", 3), ("stale", 64),
         ("stale", 256), ("paired", 2), ("paired", 3), ("paired", 64),
         ("paired", 256)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 42, 43])
    def test_grid(self, engine, error_model, region_size, seed):
        kwargs = dict(region_size=region_size, trials=CHUNK_ROWS + 1,
                      error_model=error_model, seed=seed)
        assert _outcome(run_error_injection(get_engine(engine), **kwargs)) == (
            _outcome(reference_injection(get_engine(engine), **kwargs))
        )

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("error_model", ["stale", "paired"])
    @pytest.mark.parametrize(
        "trials", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
    )
    def test_chunk_boundaries(self, engine, error_model, trials):
        kwargs = dict(region_size=3, trials=trials, error_model=error_model,
                      seed=11)
        assert _outcome(run_error_injection(get_engine(engine), **kwargs)) == (
            _outcome(reference_injection(get_engine(engine), **kwargs))
        )

    def test_grid_sees_misses(self):
        # the pin is only as good as the misses it compares
        res = run_error_injection(
            ParityChecksum(), region_size=3, trials=CHUNK_ROWS + 1,
            error_model="paired", seed=0,
        )
        assert res.missed == CHUNK_ROWS + 1 and len(res.examples) == 4
