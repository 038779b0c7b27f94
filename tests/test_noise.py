"""Tests for control-noise sampling."""

import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from exchsim import gates, montecarlo, noise
from exchsim.noise import BLOCK


def _rng(seed=0):
    return np.random.default_rng(seed)


NOMINAL = gates.PulseSpec(2e9, 1e-9)


class TestControlNoiseSpec:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_a"):
            noise.ControlNoiseSpec(sigma_a=-1e-3, sigma_t_s=0.0)

    def test_has_only_the_drawn_figures(self):
        # The control band is a technology figure (budget.TechnologySpec checks it).
        assert [f.name for f in fields(noise.ControlNoiseSpec)] == [
            "sigma_a", "sigma_t_s", "distribution"]

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

    @pytest.mark.parametrize("amp, shift", [(5e-2, 2e-10), (-0.3, -4e-10), (0.0, 1e-12)])
    def test_realized_profile_pulse_scales_area_and_duration(self, amp, shift):
        prof = gates.profile_pulse(((0.0, 1e9), (0.5e-9, 2e9), (1e-9, 1e9)))
        theta0, duration = gates.phase_from_pulse(prof), prof.duration_s
        realized = gates.PulseSpec(prof.j_rad_per_s * (1.0 + amp), duration + shift)
        assert realized.duration_s == duration + shift
        assert gates.phase_from_pulse(realized) == pytest.approx(
            theta0 * (1.0 + amp) * (1.0 + shift / duration), rel=1e-15, abs=0.0)

    def test_resample_exhaustion_raises(self, monkeypatch):
        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=NOMINAL.duration_s)
        seed = 6  # the lowest seed whose key's first draw has T + t <= 0
        key = int(_rng(seed).integers(2**64, dtype=np.uint64))
        assert noise.draw_errors_block(key, 0, 1, NOMINAL.duration_s, spec)[2][0] > 0
        monkeypatch.setattr(noise, "MAX_RESAMPLES", 0)
        with pytest.raises(noise.RejectedSampleError, match="sample 0 after 0 resamples"):
            noise.sample_pulse(_rng(seed), NOMINAL, spec)

    @pytest.mark.parametrize("nominal", [
        NOMINAL, gates.profile_pulse(((0.0, 1e9), (0.5e-9, 2e9), (1e-9, 1e9))),
    ], ids=["constant", "profile"])
    @pytest.mark.parametrize("spec", [
        noise.ControlNoiseSpec(sigma_a=2e-3, sigma_t_s=5e-12),
        # sigma_t = T and sigma_a = 0.5: many first draws are redrawn
        noise.ControlNoiseSpec(sigma_a=0.5, sigma_t_s=NOMINAL.duration_s),
    ], ids=["gaussian", "gaussian-rejections"])
    def test_equals_sample_zero_of_the_block_under_a_key_from_the_rng(self, nominal, spec):
        for seed in range(40):
            key = int(_rng(seed).integers(2**64, dtype=np.uint64))
            a, t, _ = noise.draw_errors_block(key, 0, 1, nominal.duration_s, spec)
            expected = gates.PulseSpec(nominal.j_rad_per_s * (1.0 + a[0]),
                                       nominal.duration_s + t[0])
            assert noise.sample_pulse(_rng(seed), nominal, spec) == expected


def block_draws(seed, n, duration_s, spec):
    """draw_errors_block over samples 0..n-1: whole blocks, then the ragged last one."""
    parts = [noise.draw_errors_block(seed, k, min(BLOCK, n - k * BLOCK), duration_s, spec)
             for k in range(-(-n // BLOCK))]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


class PhiloxWords(ISeedSequence):
    """A seed sequence whose state is the first words of a new Philox with this key and counter."""

    def __init__(self, seed, attempt, block):
        self.counter = np.array([0, block, 0, 0], dtype=np.uint64)
        self.key = np.array([seed, attempt], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (3, np.uint64)  # what SFC64 asks of its seed sequence
        return np.random.Philox(counter=self.counter, key=self.key).random_raw(n_words)


def reference_variates(seed, attempt, index, distribution):
    """Variates 2j and 2j+1 of block k's stream under key (seed, attempt), index = k BLOCK + j.

    numpy's own SFC64 constructor seeds the stream from the seed sequence's
    three words, sharing no code or state-setting with noise._block_errors.
    """
    block, j = divmod(index, BLOCK)
    generator = np.random.Generator(np.random.SFC64(PhiloxWords(seed, attempt, block)))
    draw = generator.standard_normal if distribution == "gaussian" else generator.random
    variates = draw(2 * j + 2)
    return float(variates[2 * j]), float(variates[2 * j + 1])


def scalar_reference_draw(seed, index, duration_s, spec):
    """Sample `index` of draw_errors_block, attempt by attempt from a fresh stream."""
    for attempt in range(noise.MAX_RESAMPLES + 1):
        v0, v1 = reference_variates(seed, attempt, index, spec.distribution)
        if spec.distribution == "gaussian":
            amp, shift = spec.sigma_a * v0, spec.sigma_t_s * v1
        else:
            amp = spec.sigma_a * math.sqrt(3.0) * (2.0 * v0 - 1.0)
            shift = spec.sigma_t_s * math.sqrt(3.0) * (2.0 * v1 - 1.0)
        if duration_s + shift > 0.0 and amp >= -1.0:
            return amp, shift, attempt
    raise AssertionError(f"sample {index} has no physical draw")


def reference_block(seed, block, size, duration_s, spec):
    """draw_errors_block's (a, t, rejected), from whole-block reference streams: each
    sample takes its first physical draw over attempts 0, 1, ..."""
    draws = []
    for attempt in range(noise.MAX_RESAMPLES + 1):
        generator = np.random.Generator(np.random.SFC64(PhiloxWords(seed, attempt, block)))
        if spec.distribution == "gaussian":
            v = generator.standard_normal(2 * size)
            amp, shift = spec.sigma_a * v[0::2], spec.sigma_t_s * v[1::2]
        else:
            v = generator.random(2 * size)
            amp = spec.sigma_a * math.sqrt(3.0) * (2.0 * v[0::2] - 1.0)
            shift = spec.sigma_t_s * math.sqrt(3.0) * (2.0 * v[1::2] - 1.0)
        draws.append((amp, shift, (duration_s + shift > 0.0) & (amp >= -1.0)))
        if np.any([physical for _, _, physical in draws], axis=0).all():
            break
    amp, shift, physical = (np.array(column) for column in zip(*draws))
    first = np.argmax(physical, axis=0)
    samples = np.arange(size)
    return amp[first, samples], shift[first, samples], first.astype(np.int64)


def normal_ks_statistic(draws):
    """Kolmogorov-Smirnov distance of the draws' empirical CDF from the standard normal CDF."""
    x = np.sort(draws)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))


class TestDrawErrorsBlock:
    SEED = 2**64 - 5  # above 2**63, where a key built from Python ints would not stay exact
    T = NOMINAL.duration_s
    SPECS = {
        "gaussian": noise.ControlNoiseSpec(sigma_a=2e-3, sigma_t_s=5e-12),
        "uniform": noise.ControlNoiseSpec(sigma_a=1e-2, sigma_t_s=1e-11, distribution="uniform"),
        # sigma_t >= T and sigma_a = 0.5: both the duration and the amplitude test reject
        "gaussian-rejections": noise.ControlNoiseSpec(sigma_a=0.5, sigma_t_s=T),
        "uniform-rejections": noise.ControlNoiseSpec(sigma_a=0.7, sigma_t_s=1.5 * T,
                                                     distribution="uniform"),
    }

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("block, size", [
        (0, 300), (1, 301),
        (3, 17),  # the ragged last block of a 3 BLOCK + 17 run
    ])
    def test_block_prefixes_equal_shorter_prefixes_and_scalar_reference(self, name, block,
                                                                         size):
        spec = self.SPECS[name]
        amp, shift, rejected = noise.draw_errors_block(self.SEED, block, size, self.T, spec)
        assert amp.shape == shift.shape == rejected.shape == (size,)
        for j in range(size):
            prefix = noise.draw_errors_block(self.SEED, block, j + 1, self.T, spec)
            assert (amp[j], shift[j], rejected[j]) == tuple(array[-1] for array in prefix)
            ref_amp, ref_shift, ref_rejected = scalar_reference_draw(
                self.SEED, block * BLOCK + j, self.T, spec)
            assert amp[j] == pytest.approx(ref_amp, rel=1e-12, abs=0.0)
            assert shift[j] == pytest.approx(ref_shift, rel=1e-12, abs=0.0)
            assert rejected[j] == ref_rejected
        if name.endswith("rejections"):
            assert rejected.sum() > 0
        else:
            assert rejected.sum() == 0
        # the whole block starts with this prefix and ends in its own last sample
        whole = noise.draw_errors_block(self.SEED, block, BLOCK, self.T, spec)
        for array, prefix in zip(whole, (amp, shift, rejected)):
            assert np.array_equal(array[:size], prefix)
        ref_amp, ref_shift, ref_rejected = scalar_reference_draw(
            self.SEED, block * BLOCK + BLOCK - 1, self.T, spec)
        assert whole[0][-1] == pytest.approx(ref_amp, rel=1e-12, abs=0.0)
        assert whole[1][-1] == pytest.approx(ref_shift, rel=1e-12, abs=0.0)
        assert whole[2][-1] == ref_rejected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", SPECS)
    def test_the_estimators_draws_equal_the_reference_route_bit_for_bit(self, monkeypatch,
                                                                        name, workers):
        n, drawn = 3 * BLOCK + 17, []  # the last block ragged

        def record(*args):
            drawn.append((args, noise.draw_errors_block(*args)))
            return drawn[-1][1]

        monkeypatch.setattr(montecarlo, "draw_errors_block", record)
        cfg = montecarlo.McConfig(n_samples=n, seed=self.SEED, target_alpha=0.5,
                                  nominal=gates.pulse_for_target(0.5, self.T),
                                  noise=self.SPECS[name])
        montecarlo.estimate_infidelity(cfg, n_workers=workers)
        assert sorted((args[1], args[2]) for args, _ in drawn) == [
            (0, BLOCK), (1, BLOCK), (2, BLOCK), (3, 17)]
        for args, arrays in drawn:
            want = reference_block(*args)
            assert [array.tobytes() for array in arrays] == [array.tobytes() for array in want]
            assert (want[2].sum() > 0) == name.endswith("rejections")

    @pytest.mark.parametrize("size", [-1, 0, BLOCK + 1])
    def test_a_size_outside_one_block_is_rejected(self, size):
        with pytest.raises(ValueError, match=f"size must lie in \\[1, BLOCK = {BLOCK}\\], "
                                             f"got {size}"):
            noise.draw_errors_block(self.SEED, 0, size, self.T, self.SPECS["gaussian"])

    @pytest.mark.parametrize("name", ["gaussian", "uniform-rejections"])
    def test_a_second_draw_leaves_the_first_draws_arrays_unchanged(self, name):
        spec = self.SPECS[name]
        first = noise.draw_errors_block(self.SEED, 0, BLOCK, self.T, spec)
        buffer = noise._scratch.variates
        assert not any(np.shares_memory(array, buffer) for array in first)
        kept = tuple(array.copy() for array in first)
        noise.draw_errors_block(3, 0, BLOCK, self.T, spec)
        assert noise._scratch.variates is buffer  # one reused buffer, never a grown one
        for array, copy in zip(first, kept):
            assert np.array_equal(array, copy)

    @pytest.mark.parametrize("name", ["gaussian-rejections", "uniform-rejections"])
    def test_a_block_does_not_depend_on_the_blocks_drawn_before_it(self, name):
        # The thread's generator and buffer are reused, so each block is drawn
        # again after the others in reverse order and must come out the same.
        spec, sizes = self.SPECS[name], (BLOCK, BLOCK, BLOCK, 17)
        forward = [noise.draw_errors_block(self.SEED, k, size, self.T, spec)
                   for k, size in enumerate(sizes)]
        for k in reversed(range(len(sizes))):
            again = noise.draw_errors_block(self.SEED, k, sizes[k], self.T, spec)
            assert again[2].sum() > 0  # redraws re-key the generator between blocks too
            for array, want in zip(again, forward[k]):
                assert np.array_equal(array, want)

    def test_draws_reuse_this_threads_generator(self, monkeypatch):
        # A new Philox or SFC64 builds an OS-entropy SeedSequence even when
        # given a key or seed, so each thread keeps one of each and sets their
        # states per block and attempt.
        spec, n = self.SPECS["uniform-rejections"], 2 * BLOCK + 17
        expected = block_draws(self.SEED, n, self.T, spec)

        for name in ("Philox", "SFC64"):
            def no_new_bit_generator(*args, name=name, **kwargs):
                raise AssertionError(f"a draw built a new {name}")

            monkeypatch.setattr(np.random, name, no_new_bit_generator)
        drawn = block_draws(self.SEED, n, self.T, spec)
        assert drawn[2].sum() > 0  # redraw attempts re-key the same generators too
        for array, want in zip(drawn, expected):
            assert np.array_equal(array, want)

    def test_moments_match_the_spec(self):
        for name, n in (("gaussian", 1_000_000), ("uniform", 200_000)):
            spec = self.SPECS[name]
            amp, shift, _ = block_draws(7, n, self.T, spec)
            # law of large numbers: mean within 5 standard errors of 0
            assert abs(amp.mean()) < 5 * spec.sigma_a / math.sqrt(n)
            # estimator consistency: sample stddevs within 1%
            assert np.std(amp, ddof=1) == pytest.approx(spec.sigma_a, rel=0.01)
            assert np.std(shift, ddof=1) == pytest.approx(spec.sigma_t_s, rel=0.01)
            if name == "uniform":
                # zero-mean uniform with stddev sigma has half-width sigma*sqrt(3)
                for draws, sigma in ((amp, spec.sigma_a), (shift, spec.sigma_t_s)):
                    assert np.max(np.abs(draws)) <= sigma * math.sqrt(3.0) * (1 + 1e-12)

    def test_gaussian_draws_pass_a_kolmogorov_smirnov_test(self):
        # 4 BLOCK samples from the middle of block 0 to the middle of block 4,
        # across four block boundaries.  The KS distance of n normal draws
        # exceeds 1.95 / sqrt(n) with probability about 1e-3.
        spec, start = self.SPECS["gaussian"], BLOCK // 2
        draws = block_draws(11, 5 * BLOCK, self.T, spec)
        amp, shift, rejected = (array[start:start + 4 * BLOCK] for array in draws)
        assert rejected.sum() == 0
        bound = 1.95 / math.sqrt(4 * BLOCK)
        assert normal_ks_statistic(amp / spec.sigma_a) < bound
        assert normal_ks_statistic(shift / spec.sigma_t_s) < bound

    def test_gaussian_rejection_fraction_is_tiny_at_sigma_t_below_t_over_5(self):
        # analytic rejection probability at the boundary sigma_t = T/5 is
        # 0.5 * erfc(5 / sqrt(2)) ~ 2.9e-7 < 1e-6; counting over 2e6 draws
        # should see at most a handful of resamples
        bound = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
        assert bound < 1e-6
        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=NOMINAL.duration_s / 5.0)
        _, _, rejected = block_draws(9, 2_000_000, NOMINAL.duration_s, spec)
        assert rejected.sum() <= 8

    def test_uniform_rejection_is_impossible_below_t_over_5(self):
        spec = noise.ControlNoiseSpec(
            sigma_a=0.0, sigma_t_s=NOMINAL.duration_s / 5.0, distribution="uniform"
        )
        _, _, rejected = block_draws(10, 10_000, NOMINAL.duration_s, spec)
        assert not rejected.any()

    def test_resample_exhaustion_names_the_sample(self):
        # A negative nominal duration makes every draw unphysical.
        spec = noise.ControlNoiseSpec(sigma_a=0.0, sigma_t_s=1e-12)
        with pytest.raises(noise.RejectedSampleError,
                           match=f"sample {2 * BLOCK} after 100 resamples"):
            noise.draw_errors_block(0, 2, 9, -1e-9, spec)

    def test_resample_exhaustion_names_the_first_unphysical_sample_of_the_block(
            self, monkeypatch):
        spec = self.SPECS["gaussian-rejections"]
        _, _, rejected = noise.draw_errors_block(self.SEED, 2, 64, self.T, spec)
        j = int(np.flatnonzero(rejected)[0])
        assert j > 0  # so the sample index needs both the block and the offset
        monkeypatch.setattr(noise, "MAX_RESAMPLES", 0)
        with pytest.raises(noise.RejectedSampleError,
                           match=f"sample {2 * BLOCK + j} after 0 resamples"):
            noise.draw_errors_block(self.SEED, 2, 64, self.T, spec)

    def test_the_last_allowed_redraw_can_clear_the_block(self, monkeypatch):
        # With MAX_RESAMPLES = 2, seed 29's first 16 samples hold two that are
        # physical only at attempt 2 (and none later; 29 is the lowest such
        # seed), so the draw returns after its loop.
        monkeypatch.setattr(noise, "MAX_RESAMPLES", 2)
        spec, size = self.SPECS["gaussian-rejections"], 16
        amp, shift, rejected = noise.draw_errors_block(29, 0, size, self.T, spec)
        assert np.count_nonzero(rejected == 2) == 2
        for j in range(size):
            ref_amp, ref_shift, ref_rejected = scalar_reference_draw(29, j, self.T, spec)
            assert amp[j] == pytest.approx(ref_amp, rel=1e-12, abs=0.0)
            assert shift[j] == pytest.approx(ref_shift, rel=1e-12, abs=0.0)
            assert rejected[j] == ref_rejected

    def test_max_radius_is_the_ziggurat_bound(self):
        # numpy's random_standard_normal returns |z| < R below its tail start
        # R and R + x in the tail, with x = -ln(1 - u) / R <= 53 ln 2 / R for a
        # 53-bit uniform u < 1.
        r = 3.6541528853610088
        assert noise._MAX_RADIUS == r + 53.0 * math.log(2.0) / r
        assert f"{noise._MAX_RADIUS:.2f}" == "13.71"



def unit_variates(seed, attempt, blocks, distribution):
    """The unit-variance variates of blocks 0..blocks-1 under key (seed, attempt), a row each."""
    spec = noise.ControlNoiseSpec(sigma_a=1.0, sigma_t_s=1.0, distribution=distribution)
    rows = np.empty((blocks, 2 * BLOCK))
    for k in range(blocks):
        rows[k, 0::2], rows[k, 1::2] = noise._block_errors(seed, attempt, k, BLOCK, spec)
    return rows


class TestStreamIndependence:
    """Variates that the scheme keeps independent are uncorrelated, at fixed seeds.

    Over N pairs of independent variates, the sample correlation (of the
    variates, and of their squares) has standard deviation 1/sqrt(N), and a
    sample mean of f(x) has standard deviation sqrt(var f / N): each check
    allows 5 of them.
    """

    BLOCKS = 100
    # E x^p and var x^p of a unit-variance variate, p = 1..4
    MOMENTS = {"gaussian": ((0.0, 1.0), (1.0, 2.0), (0.0, 15.0), (3.0, 96.0)),
               "uniform": ((0.0, 1.0), (1.0, 4.0 / 5.0), (0.0, 27.0 / 7.0),
                           (9.0 / 5.0, 144.0 / 25.0))}

    @pytest.fixture(scope="class", params=[(0, "gaussian"), (2**64 - 5, "uniform"),
                                           (2**64 - 5, "gaussian")],
                    ids=lambda param: f"{param[1]}-seed-{param[0]}")
    def streams(self, request):
        seed, distribution = request.param
        keys = {"key": (seed, 0), "seed ^ 1": (seed ^ 1, 0), "attempt 1": (seed, 1)}
        return distribution, {name: unit_variates(*key, self.BLOCKS, distribution)
                              for name, key in keys.items()}

    @staticmethod
    def assert_uncorrelated(x, y):
        x, y = x.ravel(), y.ravel()
        bound = 5.0 / math.sqrt(x.size)
        for u, v in ((x, y), (x * x, y * y)):
            assert abs(np.corrcoef(u, v)[0, 1]) < bound

    def test_the_two_variates_of_a_sample(self, streams):
        variates = streams[1]["key"]
        self.assert_uncorrelated(variates[:, 0::2], variates[:, 1::2])

    def test_consecutive_blocks(self, streams):
        variates = streams[1]["key"]
        self.assert_uncorrelated(variates[:-1], variates[1:])

    @pytest.mark.parametrize("other", ["seed ^ 1", "attempt 1"])
    def test_neighbouring_keys(self, streams, other):
        self.assert_uncorrelated(streams[1]["key"], streams[1][other])

    def test_moments(self, streams):
        distribution, variates = streams[0], streams[1]["key"].ravel()
        for power, (mean, var) in enumerate(self.MOMENTS[distribution], start=1):
            assert abs(np.mean(variates**power) - mean) < 5.0 * math.sqrt(var / variates.size)
        if distribution == "uniform":
            assert np.max(np.abs(variates)) <= math.sqrt(3.0)
