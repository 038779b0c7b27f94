"""Tests for control-noise sampling, SNR figures, and the rectification map."""

import math

import numpy as np
import pytest

from exchsim import gates, noise


def _rng(seed=0):
    return np.random.default_rng(seed)


NOMINAL = gates.constant_pulse(2e9, 1e-9)


class TestControlNoiseSpec:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_a"):
            noise.ControlNoiseSpec(sigma_a=-1e-3, sigma_t_s=0.0)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError, match="bw_high"):
            noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=1e9, bw_high_hz=1e6)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=0.0, distribution="poisson")


class TestSamplePulse:
    def test_zero_noise_returns_nominal(self):
        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=0.0)
        sampled = noise.sample_pulse(_rng(), NOMINAL, spec)
        assert sampled == NOMINAL

    def test_deterministic_for_fixed_state(self):
        spec = noise.ControlNoiseSpec(sigma_a=1e-2, sigma_t_s=1e-11)
        a = noise.sample_pulse(_rng(42), NOMINAL, spec)
        b = noise.sample_pulse(_rng(42), NOMINAL, spec)
        assert a == b

    def test_moments_over_one_million_draws(self):
        sigma_a, sigma_t = 2e-3, 5e-12
        spec = noise.ControlNoiseSpec(sigma_a=sigma_a, sigma_t_s=sigma_t)
        rng = _rng(7)
        n = 1_000_000
        amp_ratios = np.empty(n)
        t_shifts = np.empty(n)
        for i in range(n):
            sampled = noise.sample_pulse(rng, NOMINAL, spec)
            amp_ratios[i] = sampled.j_rad_per_s / NOMINAL.j_rad_per_s
            t_shifts[i] = sampled.duration_s - NOMINAL.duration_s
        # law of large numbers: mean of J'/J within 5 standard errors of 1
        stderr = sigma_a / math.sqrt(n)
        assert abs(amp_ratios.mean() - 1.0) < 5 * stderr
        # estimator consistency: sample stddev of T'-T within 1%
        assert np.std(t_shifts, ddof=1) == pytest.approx(sigma_t, rel=0.01)

    def test_uniform_draws_are_bounded_with_matching_stddev(self):
        sigma_a = 1e-2
        spec = noise.ControlNoiseSpec(sigma_a=sigma_a, sigma_t_s=0.0, distribution="uniform")
        rng = _rng(8)
        ratios = np.array(
            [noise.sample_pulse(rng, NOMINAL, spec).j_rad_per_s / NOMINAL.j_rad_per_s
             for _ in range(200_000)]
        )
        half_width = sigma_a * math.sqrt(3.0)
        assert np.max(np.abs(ratios - 1.0)) <= half_width * (1 + 1e-12)
        assert np.std(ratios, ddof=1) == pytest.approx(sigma_a, rel=0.02)

    def test_profile_pulse_scales_amplitude_and_stretches_time(self):
        prof = gates.profile_pulse(((0.0, 1e9), (0.5e-9, 2e9), (1e-9, 1e9)))
        spec = noise.ControlNoiseSpec(sigma_a=5e-2, sigma_t_s=2e-10)
        sampled = noise.sample_pulse(_rng(3), prof, spec)
        assert sampled.profile is not None
        stretch = sampled.duration_s / prof.duration_s
        amp = sampled.profile[0][1] / prof.profile[0][1]
        for (t0, j0), (t1, j1) in zip(prof.profile, sampled.profile):
            assert t1 == pytest.approx(t0 * stretch, rel=1e-12)
            assert j1 == pytest.approx(j0 * amp, rel=1e-12)

    def test_gaussian_rejection_fraction_is_tiny_at_sigma_t_below_t_over_5(self):
        # analytic rejection probability at the boundary sigma_t = T/5 is
        # 0.5 * erfc(5 / sqrt(2)) ~ 2.9e-7 < 1e-6; counting over 2e6 draws
        # should see at most a handful of resamples
        bound = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
        assert bound < 1e-6
        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=NOMINAL.duration_s / 5.0)
        rng = _rng(9)
        rejected = 0
        n = 2_000_000
        for _ in range(n):
            _, _, rej = noise.draw_errors(rng, NOMINAL.duration_s, spec)
            rejected += rej
        assert rejected <= 8

    def test_uniform_rejection_is_impossible_below_t_over_5(self):
        spec = noise.ControlNoiseSpec(
            sigma_a=0.0, sigma_t_s=NOMINAL.duration_s / 5.0, distribution="uniform"
        )
        rng = _rng(10)
        for _ in range(10_000):
            _, _, rej = noise.draw_errors(rng, NOMINAL.duration_s, spec)
            assert rej == 0

    def test_resample_exhaustion_raises(self):
        class AlwaysNegative:
            def normal(self, loc, scale):
                return -2.0 * NOMINAL.duration_s if scale > 0 else 0.0

        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=1e-9)
        with pytest.raises(noise.RejectedSampleError):
            noise.sample_pulse(AlwaysNegative(), NOMINAL, spec)


class TestSnrFigures:
    def test_integrated_snr_values(self):
        assert noise.integrated_snr(1e-2) == pytest.approx(100.0, rel=1e-15)
        assert noise.integrated_snr(5e-4) == 2000.0
        # the threshold 1e-5 demands an SNR above 1e5
        assert noise.integrated_snr(1e-5) == pytest.approx(1e5, rel=1e-12)

    def test_zero_noise_gives_infinite_snr(self):
        assert noise.integrated_snr(0.0) == math.inf

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            noise.integrated_snr(-1e-3)

    def test_db_conversions(self):
        assert noise.db_to_amplitude_snr(80.0) == pytest.approx(1e4, rel=1e-12)
        assert noise.db_to_amplitude_snr(0.0) == 1.0
        assert noise.db_to_amplitude_snr(40.0) == pytest.approx(100.0, rel=1e-12)
        assert noise.db_to_power_snr(80.0) == pytest.approx(1e8, rel=1e-12)

    def test_shot_noise_values(self):
        assert noise.shot_noise_relative_amplitude(1e6) == pytest.approx(1e-3, rel=1e-12)
        assert noise.shot_noise_relative_amplitude(4e6) == pytest.approx(0.5e-3, rel=1e-12)
        # reaching 1e-5 from 5e-4 requires 2500x more photons
        ratio = (5e-4 / 1e-5) ** 2
        assert ratio == pytest.approx(2500.0, rel=1e-12)
        n0 = 1.0 / (5e-4) ** 2
        assert noise.shot_noise_relative_amplitude(n0 * ratio) == pytest.approx(1e-5, rel=1e-12)

    def test_shot_noise_against_poisson_oracle(self):
        mean_photons = 1e6
        draws = _rng(11).poisson(mean_photons, size=200_000)
        empirical = np.std(draws, ddof=1) / np.mean(draws)
        assert empirical == pytest.approx(
            noise.shot_noise_relative_amplitude(mean_photons), rel=0.02
        )

    def test_shot_noise_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise.shot_noise_relative_amplitude(0.0)

    def test_sensitivity_map(self):
        assert noise.sensitivity_map(1e-2, 1.0) == pytest.approx(1e-2, rel=1e-15)
        assert noise.sensitivity_map(0.37, 0.0) == 0.0
        assert noise.sensitivity_map(1e-2, 0.1) == pytest.approx(1e-3, rel=1e-12)

    def test_snr_sensitivity_chain_consistency(self):
        for x, s in ((1e-2, 0.5), (3e-4, 2.0), (1e-5, 0.1)):
            assert noise.integrated_snr(noise.sensitivity_map(x, s)) * s == pytest.approx(
                noise.integrated_snr(x), rel=1e-12
            )


class TestRectification:
    MAP = noise.RectificationMap(j0_rad_per_s=1e12, barrier=10.0, intensity_coeff=0.01)

    def test_dark_baseline(self):
        pulse = noise.rectification_exchange(self.MAP, ((0.0, 0.0), (1e-9, 0.0), (2e-9, 0.0)))
        dark = self.MAP.j0_rad_per_s * math.exp(-self.MAP.barrier)
        for _, j in pulse.profile:
            assert j == pytest.approx(dark, rel=1e-14)

    def test_pointwise_monotone_in_intensity(self):
        rng = _rng(12)
        times = np.linspace(0.0, 1e-9, 20)
        low = rng.uniform(0.0, 50.0, size=times.size)
        high = low + rng.uniform(0.0, 50.0, size=times.size)
        p_low = noise.rectification_exchange(self.MAP, tuple(zip(times, low)))
        p_high = noise.rectification_exchange(self.MAP, tuple(zip(times, high)))
        for (_, j_low), (_, j_high) in zip(p_low.profile, p_high.profile):
            assert j_high >= j_low

    def test_area_monotone_under_intensity_increase(self):
        times = np.linspace(0.0, 1e-9, 20)
        base = np.full(times.size, 30.0)
        bumped = base.copy()
        bumped[7] += 25.0
        theta_base = gates.phase_from_pulse(
            noise.rectification_exchange(self.MAP, tuple(zip(times, base)))
        )
        theta_bumped = gates.phase_from_pulse(
            noise.rectification_exchange(self.MAP, tuple(zip(times, bumped)))
        )
        assert theta_bumped >= theta_base

    def test_barrier_ratio_example(self):
        # barrier 10 with a 10% polarization reduction boosts J by a factor e
        j = self.MAP.exchange_at(10.0)
        dark = self.MAP.j0_rad_per_s * math.exp(-self.MAP.barrier)
        assert j / dark == pytest.approx(math.e, rel=1e-12)

    def test_inadmissible_intensity_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            self.MAP.exchange_at(150.0)
        with pytest.raises(ValueError):
            noise.rectification_exchange(self.MAP, ((0.0, 0.0), (1e-9, 150.0)))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            noise.RectificationMap(j0_rad_per_s=0.0, barrier=1.0, intensity_coeff=0.1)
        with pytest.raises(ValueError):
            noise.RectificationMap(j0_rad_per_s=1.0, barrier=-1.0, intensity_coeff=0.1)
