"""Tests for exchange-pulse unitaries and the closed-form gate error."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from exchsim import cli, core, gates
from helpers import expm_series

# The oracle: each gate matrix as numpy sums the scaled spectral projectors
# P_triplet = (1 + SWAP)/2 and P_singlet = (1 - SWAP)/2, built from core's arrays.
P_TRIPLET = (core.IDENT_4 + core.SWAP) / 2.0
P_SINGLET = (core.IDENT_4 - core.SWAP) / 2.0


def projector_target(alpha):
    return P_TRIPLET + np.exp(1j * math.pi * alpha) * P_SINGLET


def projector_unitary(theta):
    return np.exp(-1j * theta / 4.0) * P_TRIPLET + np.exp(3j * theta / 4.0) * P_SINGLET


def log_uniform(rng, low, high, size):
    """size draws of +-10**u, u uniform on [low, high), each sign equally likely."""
    return rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(low, high, size)


class TestPulseSpec:
    def test_a_pulse_is_a_strength_and_a_duration(self):
        p = gates.PulseSpec(2e9, 1e-9)
        assert astuple(p) == (2e9, 1e-9)  # a strength and a duration, nothing more

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            gates.PulseSpec(1e9, 0.0)

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError, match="strength"):
            gates.PulseSpec(-1e9, 1e-9)

    def test_rejects_pulse_whose_area_overflows_naming_the_pulse(self):
        with pytest.raises(ValueError, match=r"area J T / 2 of the pulse J = 1e\+300 rad/s, "
                                             r"T = 1e\+300 s overflows"):
            gates.PulseSpec(1e300, 1e300)
        # J T just below the largest double is a pulse; J T past it is not
        assert gates.phase_from_pulse(gates.PulseSpec(1.7e308, 1.0)) == 0.85e308
        with pytest.raises(ValueError, match="overflows"):
            gates.PulseSpec(1.7e308, 2.0)

    def test_takes_no_profile(self):
        with pytest.raises(TypeError, match="profile"):
            gates.PulseSpec(j_rad_per_s=1e9, duration_s=1e-9, profile=((0.0, 1e9), (1e-9, 1e9)))

    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError):
            gates.profile_pulse(())

    @pytest.mark.parametrize("times", [(0.0, 2e-9, 1e-9, 3e-9), (0.0, math.nan, 1e-9, 3e-9)],
                             ids=["decreasing", "nan"])
    def test_rejects_non_monotone_profile_times(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            gates.profile_pulse(tuple((t, 1e9) for t in times))

    def test_rejects_profile_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            gates.profile_pulse(((1e-9, 1e9), (2e-9, 1e9)))

    @pytest.mark.parametrize("strength", [-1e9, math.inf, math.nan])
    def test_rejects_bad_profile_strengths(self, strength):
        with pytest.raises(ValueError, match="strengths"):
            gates.profile_pulse(((0.0, 1e9), (1e-9, strength)))

    def test_rejects_infinite_profile_duration(self):
        with pytest.raises(ValueError, match="duration"):
            gates.profile_pulse(((0.0, 1e9), (math.inf, 1e9)))

    def test_profile_whose_area_overflows_names_the_strength(self):
        # numpy warns that the trapezoid sum overflows; the pulse then refuses J = inf
        with pytest.raises(ValueError, match="exchange strength"), np.errstate(over="ignore"):
            gates.profile_pulse(((0.0, 1.5e308), (1.0, 1.5e308)))


class TestPhaseFromPulse:
    def test_half_swap_area(self):
        # angular frequency 2*pi GHz: the half-SWAP area needs T = pi / w
        w = 2 * math.pi * 1e9
        p = gates.PulseSpec(w, math.pi / w)
        assert gates.phase_from_pulse(p) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_zero_strength_gives_zero_phase(self):
        assert gates.phase_from_pulse(gates.PulseSpec(0.0, 1e-9)) == 0.0

    def test_piecewise_constant_profile_matches_constant(self):
        w, t = 3e9, 2e-9
        const = gates.PulseSpec(w, t)
        prof = gates.profile_pulse(tuple((f * t, w) for f in (0.0, 0.25, 0.5, 0.75, 1.0)))
        assert abs(gates.phase_from_pulse(prof) - gates.phase_from_pulse(const)) <= 1e-12

    def test_triangle_profile_area(self):
        # triangle peaking at 2w has the same trapezoid area as constant w
        w, t = 3e9, 2e-9
        prof = gates.profile_pulse(((0.0, 0.0), (t / 2, 2 * w), (t, 0.0)))
        assert gates.phase_from_pulse(prof) == pytest.approx(w * t / 2, rel=1e-12)


class TestProfilePulse:
    @staticmethod
    def triangle():
        return np.array([0.0, 1e-9, 2e-9]), np.array([0.0, 6e9, 0.0])

    @staticmethod
    def random_profile():
        rng = np.random.default_rng(23)
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-12, 1e-11, 399))))
        return times, rng.uniform(0.0, 5e9, 400)

    @pytest.mark.parametrize("profile", ["triangle", "random_profile"])
    def test_is_the_constant_pulse_with_the_trapezoid_area(self, profile):
        times, values = getattr(self, profile)()
        pulse = gates.profile_pulse(zip(times, values))
        assert pulse.duration_s == times[-1]
        assert gates.phase_from_pulse(pulse) == pytest.approx(
            np.trapezoid(values, times) / 2.0, rel=1e-15, abs=0.0)


class TestExchangeUnitary:
    def test_zero_phase_is_identity(self):
        np.testing.assert_allclose(gates.exchange_unitary(0.0), np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            gates.exchange_unitary(theta)

    def test_pi_is_swap_up_to_global_phase(self):
        u = gates.exchange_unitary(math.pi)
        np.testing.assert_allclose(u, np.exp(-1j * math.pi / 4) * core.SWAP, atol=1e-14)
        assert core.process_fidelity(u, core.SWAP) == pytest.approx(1.0, abs=1e-12)

    def test_half_pi_squares_to_swap(self):
        u = gates.exchange_unitary(math.pi / 2)
        assert core.process_fidelity(u @ u, core.SWAP) >= 1.0 - 1e-10

    def test_agrees_with_series_oracle(self):
        rng = np.random.default_rng(21)
        sd = core.spin_dot_operator()
        for _ in range(20):
            theta = rng.uniform(-10.0, 10.0)
            diff = gates.exchange_unitary(theta) - expm_series(sd, theta)
            assert core.max_abs(diff) <= 1e-10

    def test_area_only_dependence(self):
        w, t = 4e9, 1.5e-9
        u1 = gates.exchange_unitary(gates.phase_from_pulse(gates.PulseSpec(w, t)))
        u2 = gates.exchange_unitary(gates.phase_from_pulse(gates.PulseSpec(2 * w, t / 2)))
        assert core.max_abs(u1 - u2) <= 1e-12

    def test_profile_matches_segment_product(self):
        # time-ordered product of segment exponentials vs single-shot area:
        # the generator commutes with itself, so only the area matters
        rng = np.random.default_rng(22)
        t_total = 2e-9
        times = np.linspace(0.0, t_total, 400)
        values = 2e9 * (1.2 + np.sin(2 * math.pi * times / t_total) * rng.uniform(0.3, 0.9))
        pulse = gates.profile_pulse(tuple(zip(times, values)))
        sd = core.spin_dot_operator()
        u_product = np.eye(4, dtype=complex)
        for k in range(len(times) - 1):
            dt = times[k + 1] - times[k]
            area = (values[k] + values[k + 1]) / 2.0 * dt / 2.0
            u_product = core.expm_hermitian(sd, area) @ u_product
        u_single = gates.exchange_unitary(gates.phase_from_pulse(pulse))
        assert core.max_abs(u_product - u_single) <= 1e-9

    def test_group_law(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            t1, t2 = rng.uniform(-6, 6, size=2)
            combined = gates.exchange_unitary(t1) @ gates.exchange_unitary(t2)
            assert core.max_abs(combined - gates.exchange_unitary(t1 + t2)) <= 1e-10


class TestSwapPowerTarget:
    def test_alpha_zero_is_identity(self):
        np.testing.assert_array_equal(gates.swap_power_target(0.0), np.eye(4))

    def test_alpha_one_is_swap(self):
        np.testing.assert_allclose(gates.swap_power_target(1.0), core.SWAP, atol=1e-15)

    def test_half_swap_central_block(self):
        block = gates.swap_power_target(0.5)[1:3, 1:3]
        expected = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
        np.testing.assert_allclose(block, expected, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_exchange_phase_pi_alpha_realizes_target(self, alpha):
        u = gates.exchange_unitary(math.pi * alpha)
        target = gates.swap_power_target(alpha)
        assert core.process_fidelity(u, target) >= 1.0 - 1e-10
        # sharper: they differ by exactly the global phase exp(-i pi alpha / 4)
        np.testing.assert_allclose(u, np.exp(-1j * math.pi * alpha / 4) * target, atol=1e-13)


class TestProjectorOracle:
    """Both matrices are written out entry by entry; they equal the projector sums."""

    @pytest.fixture(scope="class")
    def alphas(self):
        rng = np.random.default_rng(4001)
        edges = (0.0, -0.0, 5e-324, -5e-324, *range(-8, 9))
        return [float(a) for a in (*rng.uniform(-4.0, 4.0, 5000),
                                   *log_uniform(rng, -323.0, 150.0, 5000), 1e150, -1e150,
                                   *edges)]

    def test_swap_power_target_is_the_projector_sum_byte_for_byte(self, alphas):
        assert len(alphas) >= 10_000
        assert [a for a in alphas
                if gates.swap_power_target(a).tobytes() != projector_target(a).tobytes()] == []

    def test_exchange_unitary_equals_the_projector_sum(self):
        rng = np.random.default_rng(4002)
        # thetas from 5e-324 to 6e-308, where (triplet +- singlet) / 2 rounds differently
        tiny = log_uniform(rng, -323.0, -307.2, 1000)
        thetas = [float(t) for t in (*rng.uniform(-20.0, 20.0, 5000),
                                     *log_uniform(rng, -323.0, 300.0, 4000), *tiny,
                                     0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)]
        assert [t for t in thetas
                if not np.array_equal(gates.exchange_unitary(t), projector_unitary(t))] == []

    def test_gate_prints_the_lines_of_the_projector_sum(self, alphas):
        assert [a for a in alphas if cli._matrix_lines(gates._swap_power_rows(a))
                != cli._matrix_lines(projector_target(a))] == []


class TestGateErrorVsPhase:
    def test_zero(self):
        assert gates.gate_error_vs_phase(0.0) == 0.0

    def test_pi(self):
        assert gates.gate_error_vs_phase(math.pi) == pytest.approx(0.75, abs=1e-15)

    def test_small_angle_quadratic(self):
        err = gates.gate_error_vs_phase(1e-3)
        assert err == pytest.approx(1.875e-7, rel=0.01)
        assert err == pytest.approx((3.0 / 16.0) * 1e-6, rel=1e-6)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            d = rng.uniform(-2 * math.pi, 2 * math.pi)
            assert abs(gates.gate_error_vs_phase(d) - 0.375 * (1 - math.cos(d))) <= 1e-12

    def test_matches_numerical_process_fidelity(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            theta = rng.uniform(-3, 3)
            d = rng.uniform(-2 * math.pi, 2 * math.pi)
            numeric = 1.0 - core.process_fidelity(
                gates.exchange_unitary(theta), gates.exchange_unitary(theta + d)
            )
            assert abs(gates.gate_error_vs_phase(d) - numeric) <= 1e-12

    def test_even_and_periodic(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            d = rng.uniform(-math.pi, math.pi)
            assert gates.gate_error_vs_phase(d) == pytest.approx(
                gates.gate_error_vs_phase(-d), abs=1e-15
            )
            assert gates.gate_error_vs_phase(d) == pytest.approx(
                gates.gate_error_vs_phase(d + 2 * math.pi), abs=1e-12
            )

    def test_squares_as_a_product(self):
        # sin(d/2) is squared as s * s, the correctly rounded square, which is never
        # farther from the exact square than s ** 2 (libm's pow), and nearer wherever
        # they differ at these log-uniform d.  The factor 3/4 rounds once more, so
        # against (3/4) s^2 neither form is the nearer one throughout.
        rng = np.random.default_rng(27)
        differ = 0
        for d in (10.0 ** rng.uniform(-8.0, 0.5, 20_000)).tolist():
            s = math.sin(0.5 * d)
            exact = Fraction(s) ** 2
            error, pow_error = abs(Fraction(s * s) - exact), abs(Fraction(s**2) - exact)
            assert error <= pow_error, d
            differ += error < pow_error
            assert gates.gate_error_vs_phase(d) == 0.75 * (s * s), d
        assert differ > 0


class TestRelativeErrorToPhaseError:
    def test_amplitude_only(self):
        assert gates.relative_error_to_phase_error(math.pi / 2, 1e-5, 0.0) == pytest.approx(
            math.pi / 2 * 1e-5, rel=1e-10
        )

    def test_zero_errors(self):
        assert gates.relative_error_to_phase_error(1.7, 0.0, 0.0) == 0.0

    def test_exact_vs_first_order(self):
        exact = gates.relative_error_to_phase_error(1.0, 1e-2, 1e-2)
        first = gates.relative_error_to_phase_error_first_order(1.0, 1e-2, 1e-2)
        assert exact == pytest.approx(0.0201, rel=1e-10)
        assert first == pytest.approx(0.02, rel=1e-12)
        assert exact - first == pytest.approx(1e-4, rel=1e-6)

    def test_rejects_large_relative_errors(self):
        with pytest.raises(ValueError):
            gates.relative_error_to_phase_error(1.0, 1.5, 0.0)

    @pytest.mark.parametrize("dj, dt", [(1e-12, 0.0), (1e-12, -3e-13), (1e-17, 0.0),
                                        (1e-17, 2e-18)])
    def test_tiny_errors_keep_full_relative_precision(self, dj, dt):
        theta = math.pi / 2
        exact = Fraction(theta) * ((1 + Fraction(dj)) * (1 + Fraction(dt)) - 1)
        got = gates.relative_error_to_phase_error(theta, dj, dt)
        assert got != 0.0
        assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [1e151, -1e151, 1e308, math.inf, math.nan])
def test_alpha_whose_phase_squared_overflows_is_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        gates.swap_power_target(alpha)
    with pytest.raises(ValueError, match="alpha"):
        gates._swap_power_rows(alpha)
    with pytest.raises(ValueError, match="alpha"):
        gates.pulse_for_target(alpha, 1.0)


def test_largest_alpha_gives_a_finite_squared_phase():
    theta = gates.phase_from_pulse(gates.pulse_for_target(1e150, 1.0))
    assert math.isfinite(theta**2)
    assert np.all(np.isfinite(gates.swap_power_target(-1e150)))


def test_pulse_for_target_hits_area():
    p = gates.pulse_for_target(0.5, 5e-9)
    assert gates.phase_from_pulse(p) == pytest.approx(math.pi / 2, rel=1e-14)
