"""Differential proof obligations of the staged generation pipeline.

The fast path in ``repro.workload.fastgen`` is only allowed to exist
because it is *byte-identical* to the sequential ``TaskSetGenerator``
loop (kept in ``tests/reference_generator.py``): same task sets, same order, same fingerprints, same RNG stream
position after every bin.  These tests enforce that over a multi-config
corpus, plus the exactness obligations of the individual stages (the
drawer's draw-for-draw agreement with ``draw_raw``, the integer
``limit_denominator`` transcription, the float-first quantization and
the integer floor that calls it only near a grid boundary, the integer
(m,k)-utilization, the screen's synchronous-demand first stage and its
reject-only-provably-unschedulable soundness, and the early-exit
admission simulation's agreement with the full heap simulation).
"""

import random
from fractions import Fraction

import pytest

import repro.workload.fastgen as fastgen
from repro.analysis.schedulability import (
    is_rpattern_schedulable,
    mandatory_miss_exists,
    rta_mandatory_schedulable,
    simulate_mandatory_fp,
)
from repro.harness.protocol import DEFAULT_BINS
from repro.workload.fastgen import (
    GenerationStats,
    build_taskset,
    candidate_mk_utilization,
    fill_bin,
    limit_denominator_int,
    make_drawer,
    quantized_wcet_units,
    screen_rejects,
)
from repro.workload.generator import (
    GeneratorConfig,
    TaskSetGenerator,
    generate_binned_tasksets,
)
from tests.reference_generator import generate_binned_sequential

BINS = [(0.2, 0.3), (0.5, 0.6), (0.8, 0.9)]

CONFIGS = {
    "default": GeneratorConfig(),
    "admission-none": GeneratorConfig(admission="none"),
    "no-filter": GeneratorConfig(require_schedulable=False),
    "free-periods": GeneratorConfig(period_choices=None),
    "coarse-grid": GeneratorConfig(wcet_grid=Fraction(1, 10)),
    "reducible-grid": GeneratorConfig(wcet_grid=Fraction(2, 100)),
    "offgrid": GeneratorConfig(wcet_grid=Fraction(3, 100)),
    "shallow-k": GeneratorConfig(k_range=(2, 6)),
    "small-sets": GeneratorConfig(min_tasks=2, max_tasks=4),
    "uncapped-horizon": GeneratorConfig(horizon_cap_units=None, k_range=(2, 5)),
    # Below the longest period the cap bounds the screen's release counts.
    "short-cap": GeneratorConfig(horizon_cap_units=30),
}


def _sequential(bins, sets_per_bin, config, seed, max_draws):
    return generate_binned_sequential(
        bins, sets_per_bin, config, seed, max_draws_per_bin=max_draws
    )


def _identical(a, b):
    assert list(a) == list(b)
    for key in a:
        assert len(a[key]) == len(b[key]), key
        for x, y in zip(a[key], b[key]):
            assert x.fingerprint() == y.fingerprint(), key
            assert list(x) == list(y), key


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 20200309])
    def test_fast_pipeline_matches_sequential(self, name, seed):
        cfg = CONFIGS[name]
        seq = _sequential(BINS, 3, cfg, seed, 150)
        fast = generate_binned_tasksets(
            BINS, 3, cfg, seed, max_draws_per_bin=150
        )
        _identical(seq, fast)

    def test_rotated_admission_matches_sequential(self):
        # Rotation search is expensive; one small spec keeps this fast.
        cfg = GeneratorConfig(admission="rotated", k_range=(2, 5))
        seq = _sequential([(0.5, 0.6)], 2, cfg, 5, 40)
        fast = generate_binned_tasksets(
            [(0.5, 0.6)], 2, cfg, 5, max_draws_per_bin=40
        )
        _identical(seq, fast)

    def test_rng_stream_position_matches_sequential(self):
        # After filling bins, both pipelines must leave the shared RNG at
        # the same position -- the next draw is identical -- even when a
        # bin exhausts its draw budget.
        for name, cfg in CONFIGS.items():
            rng_seq, rng_fast = random.Random(7), random.Random(7)
            generator = TaskSetGenerator(cfg, rng_seq)
            for lo, hi in BINS:
                out = []
                draws = 0
                while len(out) < 2:
                    draws += 1
                    if draws > 60:
                        break
                    ts = generator.draw_raw((lo + hi) / 2)
                    if ts is None:
                        continue
                    achieved = float(ts.mk_utilization)
                    if not lo <= achieved < hi:
                        continue
                    if not cfg.admits(ts):
                        continue
                    out.append(ts)
            for lo, hi in BINS:
                fill_bin(rng_fast, cfg, lo, hi, 2, 60)
            assert rng_seq.random() == rng_fast.random(), name

    def test_default_pipeline_is_fast(self):
        seq = _sequential(BINS, 2, None, 3, 100)
        default = generate_binned_tasksets(BINS, 2, None, 3, max_draws_per_bin=100)
        _identical(seq, default)


def _integer_rows(taskset, grid):
    """A ``draw_raw`` task set as the drawer's integer rows."""
    rows = []
    for task in taskset:
        units = task.wcet / grid
        assert task.period.denominator == 1 and units.denominator == 1
        rows.append((int(task.period), task.mk.k, task.mk.m, int(units)))
    return tuple(zip(*rows))


class TestDrawer:
    @pytest.mark.parametrize("bin_range", DEFAULT_BINS, ids=str)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_draws_match_draw_raw(self, name, bin_range):
        # Draw for draw, the drawer returns draw_raw's set as integer
        # rows (None where draw_raw returns None) and leaves the RNG
        # exactly where draw_raw leaves it.
        cfg = CONFIGS[name]
        target = (bin_range[0] + bin_range[1]) / 2
        reference, fast = random.Random(17), random.Random(17)
        generator = TaskSetGenerator(cfg, reference)
        draw = make_drawer(fast, cfg, target)
        for _ in range(2000):
            expected = generator.draw_raw(target)
            candidate = draw()
            if expected is None:
                assert candidate is None
            else:
                assert candidate == _integer_rows(expected, cfg.wcet_grid)
            assert fast.getstate() == reference.getstate()


class TestGenerationStats:
    def test_stats_counters_are_consistent(self):
        stats = GenerationStats()
        full = generate_binned_tasksets(
            BINS, 3, None, 42, max_draws_per_bin=150, stats=stats
        )
        assert stats.draws == sum(stats.bin_draws.values())
        assert stats.feasible <= stats.draws
        assert stats.in_bin <= stats.feasible
        assert stats.screened_out + stats.admission_tests >= stats.in_bin
        assert stats.admitted == sum(len(v) for v in full.values())
        assert stats.seconds >= 0.0
        payload = stats.to_dict()
        assert payload["admitted"] == stats.admitted


class TestLimitDenominator:
    def test_matches_fraction_limit_denominator(self):
        rng = random.Random(0)
        for _ in range(4000):
            value = rng.random() * rng.choice([1.0, 1e-6, 1e6, 123.456])
            numerator, denominator = value.as_integer_ratio()
            for max_den in (1, 7, 997, 10**6):
                expected = Fraction(numerator, denominator).limit_denominator(
                    max_den
                )
                assert limit_denominator_int(
                    numerator, denominator, max_den
                ) == (expected.numerator, expected.denominator)

    def test_small_denominator_passthrough(self):
        assert limit_denominator_int(3, 4, 10**6) == (3, 4)
        assert limit_denominator_int(0, 1, 10) == (0, 1)


class TestScreen:
    def _candidates(self, count, seed=42, cfg=None):
        cfg = cfg or GeneratorConfig()
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            cand = make_drawer(rng, cfg, rng.uniform(0.15, 0.95))()
            if cand is not None:
                out.append(cand)
        return out

    def test_screen_rejects_only_provably_unschedulable(self):
        # Soundness: every screen-rejected candidate must fail BOTH
        # admission stages -- the RTA sufficient test and the exact
        # simulation.  (The screen skipping them is then decision-free.)
        from repro.analysis.hyperperiod import analysis_horizon
        from repro.workload.fastgen import build_taskset

        cfg = GeneratorConfig()
        cands = self._candidates(200)
        rejected = [c for c in cands if screen_rejects(c, cfg)]
        assert rejected, "corpus should contain screen rejects"
        for cand in rejected:
            taskset = build_taskset(cand, cfg.wcet_grid)
            base = taskset.timebase()
            horizon = analysis_horizon(taskset, base, cfg.horizon_cap_units)
            assert not rta_mandatory_schedulable(taskset, base)
            assert not is_rpattern_schedulable(
                taskset, base, horizon_ticks=horizon
            )

    def test_candidate_mk_utilization_matches_built_set(self):
        for name, cfg in sorted(CONFIGS.items()):
            grid = cfg.wcet_grid
            for cand in self._candidates(150, seed=21, cfg=cfg):
                assert candidate_mk_utilization(
                    cand, grid.numerator, grid.denominator
                ) == float(build_taskset(cand, grid).mk_utilization), name

    def test_demand_stage_then_rounds_match_full_screen(self):
        cfg = GeneratorConfig()
        cands = self._candidates(400, seed=4)
        expected = [fastgen._screen_rounds(c, cfg) for c in cands]
        overloaded = [
            fastgen._synchronous_overload(c, cfg.wcet_grid.denominator)
            for c in cands
        ]
        # Both stages must decide something in this corpus.
        assert any(overloaded)
        assert any(
            flag and not first for flag, first in zip(expected, overloaded)
        )
        assert [screen_rejects(c, cfg) for c in cands] == expected


class TestFastAdmissionSim:
    def test_miss_verdict_matches_heap_simulation(self):
        # mandatory_miss_exists must agree with the reference heap
        # simulation's deadline check on every raw draw, schedulable or
        # not -- it is the admission decider.
        cfg = GeneratorConfig(require_schedulable=False)
        generator = TaskSetGenerator(cfg, 7)
        rng = random.Random(13)
        checked = misses = 0
        while checked < 120:
            taskset = generator.draw_raw(rng.uniform(0.1, 0.95))
            if taskset is None:
                continue
            checked += 1
            expected = not simulate_mandatory_fp(taskset)[0]
            assert mandatory_miss_exists(taskset) == expected
            misses += expected
        assert misses, "corpus should contain unschedulable sets"


GRIDS = [Fraction(1, 100), Fraction(1, 10), Fraction(3, 100), Fraction(2, 100)]


def _fraction_wcet_units(share, k, period, m, grid):
    """``draw_raw``'s quantization, in grid units, through Fractions."""
    exact = Fraction(share).limit_denominator(10**6) * k * period / m
    return int(exact // grid)


def _random_task(rng):
    k = rng.randint(2, 20)
    return k, rng.randint(5, 50), rng.randint(1, k - 1), rng.choice(GRIDS)


class TestQuantizedWcet:
    def test_random_shares_match_fraction_path(self):
        rng = random.Random(5)
        for _ in range(20000):
            share = rng.random() * rng.choice([1.0, 0.1, 0.01])
            k, period, m, grid = _random_task(rng)
            assert quantized_wcet_units(
                share, k, period, m, grid.numerator, grid.denominator
            ) == _fraction_wcet_units(share, k, period, m, grid)

    def test_boundary_shares_take_the_fallback(self, monkeypatch):
        # Shares within 1e-9 of a w boundary: the float share's own floor
        # can differ from the denominator-limited one, so the float-first
        # floor must pass every one of them to the integer floor, and that
        # must hand every one of them to limit_denominator_int.
        calls = {"exact": 0, "limit": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            fastgen,
            "_exact_wcet_units",
            counting("exact", fastgen._exact_wcet_units),
        )
        monkeypatch.setattr(
            fastgen,
            "limit_denominator_int",
            counting("limit", fastgen.limit_denominator_int),
        )
        rng = random.Random(9)
        unguarded_wrong = 0
        for trial in range(3000):
            k, period, m, grid = _random_task(rng)
            scale = k * period * grid.denominator
            divisor = m * grid.numerator
            boundary = rng.randint(1, 3 * period * grid.denominator)
            share = (boundary + rng.uniform(-1e-9, 1e-9)) * divisor / scale
            expected = _fraction_wcet_units(share, k, period, m, grid)
            numerator, denominator = share.as_integer_ratio()
            unguarded_wrong += (
                numerator * scale // (denominator * divisor) != expected
            )
            assert quantized_wcet_units(
                share, k, period, m, grid.numerator, grid.denominator
            ) == expected
            assert calls == {"exact": trial + 1, "limit": trial + 1}
        assert unguarded_wrong, "corpus should need the fallback's answer"

        # The denominator limit moves share*A/B by less than its reach
        # A/(B*N); the float-first margin is twice that.  Shares 1.2-1.8
        # reaches from a boundary take the integer floor without the
        # limit, shares 2.2-3 reaches away the float floor alone, and
        # both answer exactly.
        for low, high, exact_path in ((1.2, 1.8, 1), (2.2, 3.0, 0)):
            for _ in range(3000):
                k, period, m, grid = _random_task(rng)
                scale = k * period * grid.denominator
                divisor = m * grid.numerator
                reach = scale / (divisor * fastgen.SHARE_MAX_DENOMINATOR)
                boundary = rng.randint(1, 3 * period * grid.denominator)
                offset = rng.choice((-1, 1)) * rng.uniform(low, high) * reach
                share = (boundary + offset) * divisor / scale
                before = dict(calls)
                assert quantized_wcet_units(
                    share, k, period, m, grid.numerator, grid.denominator
                ) == _fraction_wcet_units(share, k, period, m, grid)
                assert calls == {
                    "exact": before["exact"] + exact_path,
                    "limit": before["limit"],
                }
