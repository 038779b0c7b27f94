"""Tests for the Monte Carlo infidelity estimator and parameter sweeps."""

import math
import random
import re
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from exchsim import core, dephasing, gates, montecarlo, noise
from exchsim.montecarlo import BLOCK, SWEEP_AXES, McConfig, estimate_infidelity, sweep
from exchsim.noise import ControlNoiseSpec, draw_errors_block

T2 = 0.5e-3


def make_config(n=1000, seed=0, alpha=0.5, duration=5e-9, sigma_a=0.0, sigma_t=0.0,
                t2=None, sensitivity=1.0, distribution="gaussian"):
    return McConfig(
        n_samples=n,
        seed=seed,
        target_alpha=alpha,
        nominal=gates.pulse_for_target(alpha, duration),
        noise=ControlNoiseSpec(sigma_a=sigma_a, sigma_t_s=sigma_t, distribution=distribution),
        dephasing=dephasing.DephasingSpec(t2) if t2 is not None else None,
        sensitivity=sensitivity,
    )


def score_block(cfg, block):
    """Infidelities and redraw counts of block `block` of cfg's run."""
    eff_noise = replace(cfg.noise, sigma_a=cfg.sensitivity * cfg.noise.sigma_a)
    size = min(BLOCK, cfg.n_samples - block * BLOCK)
    a, t, rejected = draw_errors_block(cfg.seed, block, size, cfg.nominal.duration_s, eff_noise)
    area = montecarlo._area_term(cfg, a, t)
    return montecarlo._score(cfg, cfg.nominal.duration_s + t, area), rejected


class InTurnPool(ThreadPoolExecutor):
    """A pool whose threads run the mapped blocks one at a time, in block order.

    Every thread still draws into its own buffer and the estimator's window and
    merge are unchanged, but no two threads' block temporaries are ever alive
    at once, and each thread takes one of the first items of every window, so
    every thread allocates its draw buffer: a run's peak memory does not depend
    on the thread schedule.
    """

    def map(self, fn, items):
        items = list(items)
        done = [threading.Event() for _ in range(len(items) + 1)]
        done[0].set()
        first = threading.Barrier(min(len(items), self._max_workers))

        def in_turn(k):
            if k < first.parties:  # held until every thread holds one of these items
                first.wait(timeout=60)
            assert done[k].wait(timeout=60), f"item {k - 1} of the window never finished"
            try:
                return fn(items[k])
            finally:
                done[k + 1].set()

        return super().map(in_turn, range(len(items)))


def assert_memory_does_not_grow_with_n(monkeypatch, run):
    """run(n)() peaks at 64 BLOCK samples at most 1.25x as high as at 8 BLOCK."""
    def peak_bytes(n):
        tracemalloc.start()
        try:
            run(n)()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InTurnPool)
    run(8 * BLOCK)()  # untraced, so one-time allocations of a first call are not counted
    assert peak_bytes(64 * BLOCK) <= 1.25 * peak_bytes(8 * BLOCK)


def hexed(result):
    return tuple(float(field).hex() for field in astuple(result))


class TestConfigValidation:
    def test_rejects_zero_samples(self):
        for n in (0, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(
                    f"n_samples must be an integer >= 1, got {n!r}")):
                make_config(n=n)

    def test_rejects_bad_seed(self):
        for seed in (-1, 2**64, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(
                    f"seed must be a 64-bit unsigned integer, got {seed!r}")):
                make_config(seed=seed)

    @pytest.mark.parametrize("kwargs, name", [
        ({"sigma_a": 1e154}, "sensitivity * sigma_a"),
        ({"sigma_a": 1e-3, "sensitivity": 1e308}, "sensitivity * sigma_a"),
        ({"sigma_t": 1e308}, "sigma_t_s / duration"),
        # sigma_t / T = 1, but T + t overflows
        ({"alpha": 0.0, "duration": 1e308, "sigma_t": 1e308}, "sigma_t_s / duration"),
        # just outside the bound: (pi/2) x (2 + x) overflows at x = 13.71 * 8e152
        ({"sigma_a": 8e152}, "sensitivity * sigma_a"),
        ({"sigma_t": 5e-9 * 8e152}, "sigma_t_s / duration"),
        # a tiny theta0 keeps theta0 x (2 + x) finite, but x_a + x_s + x_a x_s overflows
        ({"alpha": 1e-300, "duration": 1e-20, "sigma_a": 1e200, "sigma_t": 1e180},
         "sigma_t_s / duration"),
    ])
    def test_rejects_noise_whose_extreme_draw_overflows(self, kwargs, name):
        with pytest.raises(ValueError, match=re.escape(name) + ".* 13.71-sigma draw overflow"):
            make_config(**kwargs)

    # 7e152 is the largest one-digit sigma inside the 13.71-sigma bound.
    @pytest.mark.parametrize("kwargs", [{"sigma_a": 7e152}, {"sigma_t": 5e-9 * 7e152}])
    def test_noise_just_inside_the_bound_scores_finite(self, kwargs):
        cfg = make_config(n=BLOCK, **kwargs)
        result = estimate_infidelity(cfg)
        assert math.isfinite(result.mean_infidelity) and math.isfinite(result.stderr)
        assert math.isfinite(montecarlo.analytic_infidelity(cfg))

    # The rule of every alpha path (gates._checked_alpha): unchecked, a nan or
    # inf target would score nan, and 1e300 give an analytic reference of inf.
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 1e300, -2e150])
    def test_rejects_a_target_alpha_outside_the_alpha_rule(self, alpha):
        with pytest.raises(ValueError, match=r"target_alpha must be finite with "
                                             r"\|target_alpha\| <= 1e150, got "):
            replace(make_config(), target_alpha=alpha)

    @pytest.mark.parametrize("alpha", [-0.5, 1e150, -1e150])
    def test_a_negative_or_bounded_target_alpha_scores_finite(self, alpha):
        cfg = replace(make_config(n=10, sigma_a=1e-3), target_alpha=alpha)
        assert math.isfinite(estimate_infidelity(cfg).mean_infidelity)
        assert math.isfinite(montecarlo.analytic_infidelity(cfg))

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            estimate_infidelity(make_config(n=10), n_workers=0)

    def test_rejects_nan_worker_count(self, draws):
        message = "n_workers must be an integer >= 1, got nan"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_infidelity(make_config(n=10), n_workers=math.nan)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(make_config(n=10), "sigma_a", [1e-3], n_workers=math.nan)
        assert draws == []

    @pytest.mark.parametrize("workers", [2.5, 1.5])
    def test_rejects_fractional_worker_count(self, draws, workers):
        message = f"n_workers must be an integer >= 1, got {workers!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_infidelity(make_config(n=3 * BLOCK), n_workers=workers)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(make_config(n=3 * BLOCK), "sigma_a", [1e-3], n_workers=workers)
        assert draws == []

    def test_integral_float_worker_count_equals_the_int(self):
        cfg = make_config(n=3 * BLOCK, sigma_a=1e-3, sigma_t=1e-12, t2=5e-4)
        as_float, as_int = (estimate_infidelity(cfg, n_workers=workers) for workers in (2.0, 2))
        assert ([float(value).hex() for value in astuple(as_float)]
                == [float(value).hex() for value in astuple(as_int)])

    def test_no_dephasing_is_stored_as_infinite_t2(self):
        # Left out, None, or replaced by None: one record, T2 = inf on both qubits.
        explicit = make_config(t2=math.inf)
        omitted = McConfig(n_samples=explicit.n_samples, seed=explicit.seed,
                           target_alpha=explicit.target_alpha, nominal=explicit.nominal,
                           noise=explicit.noise)
        for cfg in (omitted, make_config(t2=None), replace(make_config(t2=T2), dephasing=None)):
            assert cfg.dephasing == dephasing.DephasingSpec(math.inf, math.inf)
            assert cfg == explicit


class TestEstimator:
    def test_zero_noise_exact_gate(self):
        result = estimate_infidelity(make_config(n=200))
        assert result.mean_infidelity <= 1e-12
        assert result.max_infidelity <= 1e-12
        assert result.n_rejected == 0

    def test_amplitude_noise_matches_quadratic_prediction(self):
        cfg = make_config(n=40_000, seed=1, sigma_a=1e-3)
        result = estimate_infidelity(cfg)
        predicted = (3.0 / 16.0) * (math.pi / 2) ** 2 * 1e-6
        assert montecarlo.analytic_infidelity(cfg) == pytest.approx(predicted, rel=1e-12)
        assert abs(result.mean_infidelity - predicted) <= 3 * result.stderr

    def test_jitter_noise_matches_quadratic_prediction(self):
        cfg = make_config(n=40_000, seed=4, sigma_t=5e-12)
        result = estimate_infidelity(cfg)
        predicted = (3.0 / 16.0) * (math.pi / 2) ** 2 * (5e-12 / 5e-9) ** 2
        assert abs(result.mean_infidelity - predicted) <= 3 * result.stderr

    def test_combined_noise_converges_to_analytic_prediction(self):
        # amplitude + jitter + dephasing together, against the second-moment
        # prediction with the dephasing deficit
        cfg = make_config(n=40_000, seed=16, sigma_a=8e-4, sigma_t=3e-12, t2=T2 / 10)
        result = estimate_infidelity(cfg)
        predicted = montecarlo.analytic_infidelity(cfg)
        assert abs(result.mean_infidelity - predicted) <= 5 * result.stderr

    def test_uniform_distribution_matches_same_prediction(self):
        cfg = make_config(n=40_000, seed=17, sigma_a=1e-3, distribution="uniform")
        result = estimate_infidelity(cfg)
        predicted = montecarlo.analytic_infidelity(cfg)
        assert abs(result.mean_infidelity - predicted) <= 5 * result.stderr

    def test_dephasing_only_matches_linear_loss(self):
        cfg = make_config(n=100, duration=1e-3 * T2, t2=T2)
        result = estimate_infidelity(cfg)
        assert result.mean_infidelity == pytest.approx(1e-3, rel=5e-3)
        # every sample is the same deterministic value here
        assert result.min_infidelity == result.max_infidelity

    def test_sensitivity_scales_amplitude_noise(self):
        cfg_direct = make_config(n=5_000, seed=3, sigma_a=1e-4)
        cfg_scaled = make_config(n=5_000, seed=3, sigma_a=1e-3, sensitivity=0.1)
        assert estimate_infidelity(cfg_direct) == estimate_infidelity(cfg_scaled)

    def test_samples_in_unit_interval(self):
        result = estimate_infidelity(make_config(n=2_000, seed=4, sigma_a=0.3))
        assert 0.0 <= result.min_infidelity <= result.max_infidelity <= 1.0

    def test_noiseless_samples_stay_below_1e_16(self):
        result = estimate_infidelity(make_config(n=50))
        assert result.max_infidelity < 1e-16

    def test_infinite_t2_equals_no_dephasing(self):
        cfg = make_config(n=3 * BLOCK + 17, seed=24, sigma_a=1e-3, sigma_t=1e-12)
        no_decay = replace(cfg, dephasing=dephasing.DephasingSpec(math.inf))
        assert estimate_infidelity(no_decay) == estimate_infidelity(cfg)

    def test_relative_precision_holds_at_tiny_infidelity(self):
        # Without jitter every sample is (3/4) sin^2(theta a / 2) with a
        # proportional to sigma_a, so the mean scales as sigma_a^2 exactly up
        # to rounding, even where 1 - fidelity would cancel to nothing.
        def mean(sigma_a):
            cfg = make_config(n=2_000, seed=18, sigma_a=sigma_a)
            return estimate_infidelity(cfg).mean_infidelity

        reference = mean(1e-6)
        for sigma_a in (1e-7, 1e-8):
            ratio = mean(sigma_a) / reference * (1e-6 / sigma_a) ** 2
            assert abs(ratio - 1.0) <= 1e-10

    def test_stderr_scales_as_inverse_sqrt_n(self):
        small = estimate_infidelity(make_config(n=4_000, seed=6, sigma_a=1e-3))
        large = estimate_infidelity(make_config(n=16_000, seed=6, sigma_a=1e-3))
        assert small.stderr / large.stderr == pytest.approx(2.0, rel=0.2)


    # The 0.05% and 99.95% quantiles of chi^2(199) / 199: the sample variance
    # of 200 standard normal z scores lies between them in 99.9% of runs.
    CHI2_199_BOUNDS = (0.7026, 1.3631)

    @pytest.mark.parametrize("distribution, sigma_t", [("gaussian", 1e-12),
                                                       ("uniform", 1e-11)])
    def test_stderr_is_calibrated(self, distribution, sigma_t):
        # z = (mean - analytic) / stderr over 200 seeds has unit variance
        # when stderr is the standard deviation of the mean
        scores = []
        for seed in range(200):
            cfg = make_config(n=2000, seed=seed, sigma_a=1e-3, sigma_t=sigma_t,
                              distribution=distribution)
            result = estimate_infidelity(cfg)
            scores.append((result.mean_infidelity - montecarlo.analytic_infidelity(cfg))
                          / result.stderr)
        low, high = self.CHI2_199_BOUNDS
        assert low <= np.var(scores, ddof=1) <= high


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = make_config(n=3_000, seed=7, sigma_a=1e-3, sigma_t=1e-12, t2=T2)
        assert estimate_infidelity(cfg) == estimate_infidelity(cfg)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("n", [2 * BLOCK + 1, 40 * BLOCK + 3])
    def test_worker_partitioning_is_invisible(self, n, workers):
        # Three or 41 blocks, the last one ragged, so the pool really starts;
        # 41 blocks span two windows of 16 blocks per thread on 2 threads.
        cfg = make_config(n=n, seed=8, sigma_a=1e-3, sigma_t=1e-12, t2=T2)
        serial = estimate_infidelity(cfg, n_workers=1)
        parallel = estimate_infidelity(cfg, n_workers=workers)
        assert serial == parallel

    @pytest.mark.parametrize("cpus, pools", [(8, [3]), (2, [2]), (None, [])])
    def test_thread_count_is_bounded(self, monkeypatch, cpus, pools):
        started = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = make_config(n=2 * BLOCK + 1, seed=19, sigma_a=1e-3)  # three blocks
        assert estimate_infidelity(cfg, n_workers=64) == estimate_infidelity(cfg)
        assert started == pools

    def test_one_worker_reads_no_cpu_count(self, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count read on the one-worker path")

        cfg = make_config(n=2 * BLOCK + 1, seed=19, sigma_a=1e-3)  # three blocks
        expected = estimate_infidelity(cfg)
        monkeypatch.setattr(montecarlo.os, "cpu_count", cpu_count)
        assert estimate_infidelity(cfg, n_workers=1) == expected

    @pytest.mark.parametrize("cpus, pools", [(1, []), (8, [2])])
    def test_two_workers_are_capped_by_the_cpu_count(self, monkeypatch, cpus, pools):
        started = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = make_config(n=2 * BLOCK + 1, seed=19, sigma_a=1e-3)  # three blocks
        assert estimate_infidelity(cfg, n_workers=2) == estimate_infidelity(cfg)
        assert started == pools

    def test_readme_states_the_rng_scheme(self):
        # The determinism contract in the README must name the scheme the code draws with.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert noise.RNG_SCHEME in readme.read_text(encoding="utf-8")

    def test_different_seeds_differ(self):
        a = estimate_infidelity(make_config(n=500, seed=9, sigma_a=1e-3))
        b = estimate_infidelity(make_config(n=500, seed=10, sigma_a=1e-3))
        assert a.mean_infidelity != b.mean_infidelity


class TestBlockReduction:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [3 * BLOCK + 17, 1])
    @pytest.mark.parametrize(
        "kwargs",
        [dict(sigma_a=1e-3, sigma_t=1e-12, t2=T2),
         dict(sigma_a=1e-2, sigma_t=5e-9, distribution="uniform")],  # ~21% of draws redrawn
        ids=["plain", "rejections"],
    )
    def test_merged_blocks_equal_whole_array_reduction(self, kwargs, n, workers):
        cfg = make_config(n=n, seed=21, **kwargs)
        blocks = [score_block(cfg, block) for block in range(-(-n // BLOCK))]
        values = np.concatenate([v for v, _ in blocks])
        result = estimate_infidelity(cfg, n_workers=workers)
        assert result.min_infidelity == np.min(values)
        assert result.max_infidelity == np.max(values)
        assert result.n_rejected == sum(int(np.sum(r)) for _, r in blocks)
        assert result.mean_infidelity == pytest.approx(np.mean(values), rel=1e-13)
        stderr = np.std(values, ddof=1) / math.sqrt(n) if n > 1 else 0.0
        assert result.stderr == pytest.approx(stderr, rel=1e-13)
        if n > 1 and "distribution" in kwargs:
            assert result.n_rejected > 0

    @pytest.mark.parametrize("t2", [5e-324, 1e-310])
    def test_overflowing_t_over_t2_warns_in_no_pool_thread(self, monkeypatch, t2):
        # numpy's error state is per thread, so the scope that ignores T / T2
        # overflowing must be opened in the thread that scores the block.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        # T = 0.1 s: T / T2 overflows at both T2 (T / 1e-310 = 1e309)
        cfg = make_config(n=3 * BLOCK + 5, seed=30, duration=0.1, sigma_a=1e-3, sigma_t=1e-12,
                          t2=t2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one, two = (estimate_infidelity(cfg, n_workers=workers) for workers in (1, 2))
        assert hexed(one) == hexed(two)
        assert one.min_infidelity >= 0.75  # p1 = p2 = 1/2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_n(self, monkeypatch, workers):
        def run(n):
            cfg = make_config(n=n, seed=22, sigma_a=1e-3, sigma_t=1e-12, t2=T2)
            return lambda: estimate_infidelity(cfg, n_workers=workers)

        assert_memory_does_not_grow_with_n(monkeypatch, run)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_memory_does_not_grow_with_n(self, monkeypatch, workers):
        def run(n):
            cfg = make_config(n=n, seed=22, sigma_a=1e-3, sigma_t=1e-12)
            return lambda: sweep(cfg, "t2", [5e-5, 1e-4, 5e-4, 1e-3, 5e-3], n_workers=workers)

        assert_memory_does_not_grow_with_n(monkeypatch, run)


def parent_area_term(cfg, a, t):
    """_area_term written as the expressions whose bytes it keeps."""
    duration, theta0 = cfg.nominal.duration_s, gates.phase_from_pulse(cfg.nominal)
    s = t / duration
    d = theta0 * (a + s + a * s) + (theta0 - math.pi * cfg.target_alpha)
    return np.sin(0.5 * d) ** 2


def parent_score(cfg, t, area):
    """_score written as the expressions whose bytes it keeps."""
    t2_q1, t2_q2 = cfg.dephasing.t2_q1_s, cfg.dephasing.t2_q2_s
    if t2_q1 == t2_q2 == math.inf:
        return 0.75 * area
    realized = cfg.nominal.duration_s + t
    p1 = -0.5 * np.expm1(realized / -t2_q1)
    p2 = -0.5 * np.expm1(realized / -t2_q2)
    weight = 0.75 * (1 - p1) * (1 - p2) - 0.25 * p1 * p2
    return (p1 + p2 - p1 * p2) + area * weight


class TestKernelBytes:
    """The in-place kernel gives the bytes of the closed form's plain expressions."""

    @pytest.mark.parametrize("kwargs, spec", [
        (dict(sigma_a=1e-3, sigma_t=1e-12), None),
        (dict(sigma_a=1e-3, sigma_t=1e-12), dephasing.DephasingSpec(T2)),
        (dict(sigma_a=1e-2, sigma_t=5e-9, distribution="uniform"),  # with redraws
         dephasing.DephasingSpec(5e-5)),
        (dict(sigma_a=0.3, sigma_t=1e-9, sensitivity=0.7), dephasing.DephasingSpec(2e-6, 7e-5)),
        (dict(sigma_a=1e-3, sigma_t=1e-12), dephasing.DephasingSpec(5e-4, math.inf)),
        (dict(sigma_a=1e-3, sigma_t=1e-12), dephasing.DephasingSpec(math.inf, 7e-5)),
        (dict(sigma_a=1e-3, sigma_t=1e-12), dephasing.DephasingSpec(5e-324)),  # p = 1/2
        (dict(sigma_a=1e-3, sigma_t=1e-12), dephasing.DephasingSpec(1e-310, 5e-4)),
        (dict(sigma_a=1e-3, sigma_t=1e-12, alpha=1.0, duration=2e-8), dephasing.DephasingSpec(T2)),
    ], ids=["coherent", "equal-t2", "uniform", "asymmetric-t2", "q2-no-decay", "q1-no-decay",
            "subnormal-t2", "one-subnormal-t2", "alpha-1"])
    @pytest.mark.parametrize("target", [None, 0.52], ids=["matched", "detuned"])
    @pytest.mark.parametrize("block", [0, 1], ids=["whole-block", "ragged-block"])
    def test_area_term_and_score_equal_the_closed_form_bit_for_bit(self, kwargs, spec, target,
                                                                   block):
        cfg = replace(make_config(n=BLOCK + 17, seed=29, **kwargs), dephasing=spec)
        if target is not None:
            cfg = replace(cfg, target_alpha=target)
        size = min(BLOCK, cfg.n_samples - block * BLOCK)
        eff_noise = replace(cfg.noise, sigma_a=cfg.sensitivity * cfg.noise.sigma_a)
        a, t, _ = draw_errors_block(cfg.seed, block, size, cfg.nominal.duration_s, eff_noise)
        with np.errstate(over="ignore"):
            area = montecarlo._area_term(cfg, a, t)
            expected_area = parent_area_term(cfg, a, t)
            assert area.tobytes() == expected_area.tobytes()
            realized = None if spec is None else cfg.nominal.duration_s + t  # not read if coherent
            values = montecarlo._score(cfg, realized, area)
            assert values.tobytes() == parent_score(cfg, t, expected_area).tobytes()
        assert area.tobytes() == expected_area.tobytes()  # rows that share it see it unchanged
        if spec is not None and spec.t2_q1_s == spec.t2_q2_s == 5e-324:
            assert np.all(values >= 0.75)  # p1 = p2 = 1/2


class TestSamplePathMatchesPublicOps:
    def test_per_sample_values_equal_public_route(self):
        cfg = make_config(n=5, seed=11, sigma_a=1e-3, sigma_t=1e-12, t2=T2, sensitivity=0.7)
        result = estimate_infidelity(cfg)
        eff_noise = replace(cfg.noise, sigma_a=cfg.sensitivity * cfg.noise.sigma_a)
        target = gates.swap_power_target(cfg.target_alpha)
        a, t, _ = draw_errors_block(cfg.seed, 0, cfg.n_samples, cfg.nominal.duration_s, eff_noise)
        values = []
        for i in range(cfg.n_samples):
            pulse = gates.PulseSpec(cfg.nominal.j_rad_per_s * (1.0 + a[i]),
                                    cfg.nominal.duration_s + t[i])
            u = gates.exchange_unitary(gates.phase_from_pulse(pulse))
            channel = dephasing.compose_channel_after_unitary(
                dephasing.dephasing_channel(pulse.duration_s, cfg.dephasing), u
            )
            values.append(1.0 - dephasing.entanglement_fidelity(channel, target))
        assert result.mean_infidelity == pytest.approx(float(np.mean(values)), rel=1e-9)

    PROFILE = gates.profile_pulse(((0.0, 2e8), (2.5e-9, 4e8), (5e-9, 2e8)))  # theta = 0.75

    @pytest.mark.parametrize(
        "nominal, alpha, noise, spec, sensitivity",
        [
            (PROFILE, 0.25, ControlNoiseSpec(2e-3, 5e-12), dephasing.DephasingSpec(1e-4), 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5,
             ControlNoiseSpec(1e-2, 1e-11, distribution="uniform"), None, 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-3, 2e-12),
             dephasing.DephasingSpec(2e-6, 7e-5), 1.0),
            (gates.pulse_for_target(0.52, 5e-9), 0.5, ControlNoiseSpec(1e-3, 0.0), None, 1.0),
            (gates.pulse_for_target(1.0, 2e-8), 1.0, ControlNoiseSpec(5e-3, 1e-11),
             dephasing.DephasingSpec(5e-4), 0.3),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(0.2, 1e-10),
             dephasing.DephasingSpec(5e-9, 2e-8), 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-2, 5e-9), None, 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-3, 2e-12),
             dephasing.DephasingSpec(math.inf, 7e-5), 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-3, 2e-12),
             dephasing.DephasingSpec(5e-4, math.inf), 1.0),
            # T / T2 overflows to inf for one qubit: p = 1/2 there, 0 on the other
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-3, 2e-12),
             dephasing.DephasingSpec(1e-320, math.inf), 1.0),
            (gates.pulse_for_target(0.5, 5e-9), 0.5, ControlNoiseSpec(1e-3, 2e-12),
             dephasing.DephasingSpec(math.inf, 1e-320), 1.0),
        ],
        ids=["profile", "uniform", "asymmetric-t2", "detuned", "sensitivity", "strong-noise",
             "rejections", "q1-no-decay", "q2-no-decay", "q1-subnormal-t2", "q2-subnormal-t2"],
    )
    def test_sample_value_equals_kraus_oracle(self, nominal, alpha, noise, spec, sensitivity):
        # An n = 1 estimate's mean is the value of sample 0 of its seed.
        target = gates.swap_power_target(alpha)
        eff_noise = replace(noise, sigma_a=sensitivity * noise.sigma_a)
        total_rejected = 0
        for seed in range(40):
            cfg = McConfig(n_samples=1, seed=seed, target_alpha=alpha, nominal=nominal,
                           noise=noise, dephasing=spec, sensitivity=sensitivity)
            result = estimate_infidelity(cfg)
            a, t, rejected = draw_errors_block(seed, 0, 1, nominal.duration_s, eff_noise)
            pulse = gates.PulseSpec(nominal.j_rad_per_s * (1.0 + a[0]),
                                    nominal.duration_s + t[0])
            noise_channel = (
                dephasing.dephasing_channel(pulse.duration_s, spec)
                if spec is not None
                else dephasing.QuantumChannel4(kraus=(core.IDENT_4,))
            )
            channel = dephasing.compose_channel_after_unitary(
                noise_channel, gates.exchange_unitary(gates.phase_from_pulse(pulse))
            )
            oracle = 1.0 - dephasing.entanglement_fidelity(channel, target)
            assert result.mean_infidelity == pytest.approx(oracle, rel=1e-9, abs=1e-15)
            assert result.n_rejected == rejected[0]
            total_rejected += rejected[0]
        if noise.sigma_t_s >= nominal.duration_s:
            assert total_rejected > 0


class TestSweep:
    def test_quadratic_scaling_across_sigma_a(self):
        cfg = make_config(n=10_000, seed=12)
        points = sweep(cfg, "sigma_a", [1e-4, 1e-3, 1e-2])
        m = [p.result.mean_infidelity for p in points]
        assert m[1] / m[0] == pytest.approx(100.0, rel=0.1)
        assert m[2] / m[0] == pytest.approx(1e4, rel=0.1)
        for p in points:
            assert p.analytic_prediction == pytest.approx(
                (3.0 / 16.0) * (math.pi / 2) ** 2 * p.value**2, rel=1e-12
            )

    def test_single_value_sweep_equals_direct_estimate(self):
        cfg = make_config(n=2_000, seed=13, sigma_a=1e-3)
        (point,) = sweep(cfg, "sigma_a", [1e-3])
        assert point.result == estimate_infidelity(cfg)

    def test_t2_sweep_monotone_decreasing(self):
        cfg = make_config(n=50, duration=1e-7, t2=T2)
        points = sweep(cfg, "t2", [1e-5, 1e-4, 1e-3, 1e-2])
        means = [p.result.mean_infidelity for p in points]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_target_alpha_axis_retunes_pulse(self):
        cfg = make_config(n=20, seed=14)
        points = sweep(cfg, "target_alpha", [0.25, 1.0])
        for p in points:
            assert p.result.mean_infidelity <= 1e-12

    @pytest.mark.parametrize("axis, values, n_draws", [
        ("t2", [5e-5, 1e-4, 5e-4, 1e-3, 5e-3], 4),  # one draw key: one draw per block
        ("sigma_a", [1e-3, 1e-4, 1e-2], 12),  # three keys
    ])
    def test_one_draw_per_block_and_draw_key(self, draws, axis, values, n_draws):
        cfg = make_config(n=3 * BLOCK + 17, seed=25, sigma_a=1e-3, sigma_t=1e-12, t2=T2)
        sweep(cfg, axis, values)
        assert len(draws) == n_draws

    def test_equal_rows_share_one_estimate(self, draws):
        cfg = make_config(n=3 * BLOCK + 17, seed=25, sigma_t=1e-12, t2=T2)
        points = sweep(cfg, "sigma_a", [1e-3, 1e-4, 1e-3])
        assert len(draws) == 8  # two draw keys, four blocks
        for p in points:
            assert p.result == estimate_infidelity(montecarlo._config_for(cfg, "sigma_a", p.value))

    def test_rows_of_one_pulse_and_two_targets_keep_their_own_area_terms(self):
        # No sweep axis makes such rows, but _estimate must not share their area term.
        cfg = make_config(n=3 * BLOCK + 17, seed=27, sigma_a=1e-3, sigma_t=1e-12, t2=T2)
        cfgs = [cfg, replace(cfg, target_alpha=0.52)]
        assert [hexed(r) for r in montecarlo._estimate(cfgs, 1)] == [
            hexed(estimate_infidelity(c)) for c in cfgs]

    @pytest.mark.parametrize("axis, values, message", [
        ("t2", [1e-3, -1.0], "T2 must be > 0 (math.inf allowed), got -1.0"),
        ("sigma_a", [1e-3, 1e200], "sensitivity * sigma_a = 1e+200 is too large"),
        ("sigma_t", [1e-12, -1e-12], "sigma_t_s must be >= 0 and finite, got -1e-12"),
        ("target_alpha", [0.5, -0.5], "alpha must be >= 0 (alpha + 2 is the same gate), got -0.5"),
    ])
    def test_bad_last_value_fails_before_any_draw(self, draws, axis, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(make_config(n=2_000_000), axis, values)
        assert draws == []

    @pytest.mark.parametrize("axis", ["sigma_a", "voltage"])
    def test_no_values_rejected(self, draws, axis):
        with pytest.raises(ValueError, match="values must contain at least one number"):
            sweep(make_config(n=10), axis, [])
        assert draws == []

    def test_unknown_axis_rejected(self):
        # epsilon is a threshold, for feasibility, not a field of the estimated config
        for axis in ("voltage", "epsilon", "epsilon-reference-line", "epsilon_reference_line"):
            message = (f"unknown sweep axis {axis!r}; expected one of "
                       "('sigma_a', 'sigma_t', 't2', 'target_alpha')")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sweep(make_config(n=10), axis, [1e-5])


class TestSweepRowsEqualEstimates:
    """Each sweep row equals its own estimate_infidelity, bit for bit."""

    VALUES = {"sigma_a": [1e-2, 1e-3, 3e-2], "sigma_t": [5e-9, 1e-12, 2e-9],
              "t2": [5e-5, math.inf, T2], "target_alpha": [0.5, 0.25, 1.0]}
    KWARG = {"sigma_a": "sigma_a", "sigma_t": "sigma_t", "t2": "t2", "target_alpha": "alpha"}

    def test_every_axis_is_tested(self):
        assert set(self.KWARG) == set(self.VALUES) == set(SWEEP_AXES)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "kwargs",
        [dict(sigma_a=1e-3, sigma_t=1e-12, t2=T2),
         dict(sigma_a=1e-2, sigma_t=5e-9, distribution="uniform")],  # ~21% of draws redrawn
        ids=["plain", "rejections"],
    )
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_rows_equal_per_row_estimates(self, axis, kwargs, workers):
        n = 3 * BLOCK + 17  # the last block ragged
        points = sweep(make_config(n=n, seed=26, **kwargs), axis, self.VALUES[axis],
                       n_workers=workers)
        assert [p.value for p in points] == self.VALUES[axis]
        for p in points:
            row = estimate_infidelity(make_config(n=n, seed=26,
                                                  **{**kwargs, self.KWARG[axis]: p.value}))
            assert hexed(p.result) == hexed(row)


def exact_analytic_infidelity(cfg):
    """analytic_infidelity's formula in exact rationals, from the same doubles:
    theta, pi alpha, the config's fields and the flip probabilities."""
    theta = Fraction(gates.phase_from_pulse(cfg.nominal))
    offset = theta - Fraction(math.pi * cfg.target_alpha)
    amp = theta * Fraction(cfg.sensitivity) * Fraction(cfg.noise.sigma_a)
    jitter = theta * Fraction(cfg.noise.sigma_t_s) / Fraction(cfg.nominal.duration_s)
    p1, p2 = (Fraction(dephasing.flip_probability(cfg.nominal.duration_s, t2))
              for t2 in (cfg.dephasing.t2_q1_s, cfg.dephasing.t2_q2_s))
    return Fraction(3, 16) * (offset * offset + amp * amp + jitter * jitter) + p1 + p2 - p1 * p2


def log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(low, high)


def random_configs(count, seed):
    """Seeded configs in the estimator's range: detuned or matched pulses, noise
    that may be absent, and one or two finite T2s or none."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha, t2 = log_uniform(rng, -3, 1), rng.choice([math.inf, log_uniform(rng, -7, -2)])
        detuning = rng.choice([0.0, log_uniform(rng, -8, -1)])
        cfg = make_config(alpha=alpha, duration=log_uniform(rng, -10, -6),
                          sigma_a=rng.choice([0.0, log_uniform(rng, -8, -1)]),
                          sigma_t=rng.choice([0.0, log_uniform(rng, -15, -9)]),
                          sensitivity=log_uniform(rng, -1, 1))
        yield replace(cfg, nominal=gates.pulse_for_target(alpha * (1.0 + detuning),
                                                          cfg.nominal.duration_s),
                      dephasing=dephasing.DephasingSpec(t2, rng.choice([t2, 1e-4])))


class TestAnalyticPrediction:
    # The measured worst case is 3.2 ulp.
    MAX_ULPS = 6

    def test_within_a_few_ulps_of_the_exact_value(self):
        named = [make_config(sigma_a=1e-3, sigma_t=5e-12, t2=T2),
                 make_config(alpha=1.7, duration=3e-8, sigma_a=2e-4, sensitivity=3.0, t2=1e-6),
                 make_config(alpha=1e10, sigma_a=7e140, sigma_t=1e-300)]
        for cfg in [*named, *random_configs(1000, seed=30)]:
            exact = exact_analytic_infidelity(cfg)
            error = abs(Fraction(montecarlo.analytic_infidelity(cfg)) - exact)
            assert error <= self.MAX_ULPS * Fraction(math.ulp(float(exact))), cfg

    def test_finite_or_inf_across_double_range(self):
        # log-uniform inputs across double range; where 0 * inf could arise
        # (theta^2 underflowing against a square that overflows), none is formed
        rng = random.Random(31)
        accepted = 0
        for _ in range(2000):
            alpha, duration = log_uniform(rng, -300, 150), log_uniform(rng, -300, 300)
            try:
                cfg = make_config(alpha=alpha, duration=duration,
                                  sigma_a=log_uniform(rng, -300, 300),
                                  sigma_t=log_uniform(rng, -300, 300),
                                  t2=log_uniform(rng, -300, 300))
            except ValueError:  # an overflowing pulse or draw
                continue
            accepted += 1
            value = montecarlo.analytic_infidelity(cfg)
            assert value >= 0.0 and not math.isnan(value), cfg
        assert accepted >= 500

    def test_combines_coherent_and_dephasing_terms(self):
        cfg = make_config(n=10, sigma_a=1e-3, sigma_t=5e-12, t2=T2, duration=5e-9)
        theta = math.pi / 2
        coherent = (3.0 / 16.0) * theta**2 * ((1e-3) ** 2 + (5e-12 / 5e-9) ** 2)
        p = 0.5 * (1.0 - math.exp(-5e-9 / T2))
        expected = coherent + (1.0 - (1.0 - p) ** 2)
        assert montecarlo.analytic_infidelity(cfg) == pytest.approx(expected, rel=1e-12)

    def test_detuned_nominal_contributes_offset(self):
        cfg = McConfig(
            n_samples=10,
            seed=0,
            target_alpha=0.5,
            nominal=gates.pulse_for_target(0.51, 5e-9),
            noise=ControlNoiseSpec(sigma_a=0.0, sigma_t_s=0.0),
        )
        offset = math.pi * 0.01
        assert montecarlo.analytic_infidelity(cfg) == pytest.approx(
            (3.0 / 16.0) * offset**2, rel=1e-4
        )
        result = estimate_infidelity(cfg)
        assert result.mean_infidelity == pytest.approx(
            gates.gate_error_vs_phase(offset), rel=1e-9
        )

    # A relative sigma whose square leaves double range against a tiny theta:
    # the squares of theta * sigma stay finite.
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 1e-300, "duration": 1.0, "sigma_a": 1e200},
        {"alpha": 1e-300, "duration": 1e-20, "sigma_t": 1e180},
    ])
    def test_a_square_past_double_range_gives_the_finite_reference(self, kwargs):
        cfg = make_config(n=10, **kwargs)
        theta = gates.phase_from_pulse(cfg.nominal)
        amp = theta * cfg.sensitivity * cfg.noise.sigma_a
        jitter = theta * (cfg.noise.sigma_t_s / cfg.nominal.duration_s)
        expected = (3.0 / 16.0) * (amp * amp + jitter * jitter)
        assert expected > 0.0
        assert montecarlo.analytic_infidelity(cfg) == pytest.approx(expected, rel=1e-12)

    def test_a_reference_past_double_range_reads_inf(self):
        # theta ~ 3e10 times sigma_a = 5e147 squares past the largest double;
        # McConfig accepts it, as theta0 x (2 + x) stays finite.
        cfg = make_config(n=10, alpha=1e10, sigma_a=5e147)
        assert montecarlo.analytic_infidelity(cfg) == math.inf
