"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
from contextlib import contextmanager

import numpy as np

from exchsim import budget, cli, core, dephasing, gates, montecarlo
from exchsim.noise import ControlNoiseSpec
from helpers import expm_series, random_density


SI_SPIN = budget.builtin_platforms()["si-spin"]
CATALOG = {tech.name: tech for tech in budget.builtin_catalog()}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def test_criterion_1_gate_time_bound():
    with criterion(1, "max gate time at epsilon=1e-5, T2=0.5 ms is 5.000e-9 s"):
        assert SI_SPIN.t2_s == 0.5e-3
        report = budget.feasibility(SI_SPIN, CATALOG["modelocked-laser-10GHz"], 1e-5)
        assert report.t_max_s == 5.000e-9


def test_criterion_2_jitter_bound():
    with criterion(2, "100 ps jitter at epsilon=1e-5 forces T > 1.000e-5 s"):
        electrical = CATALOG["electrical-pulse-generator"]
        assert electrical.sigma_t_s == 100e-12
        value = budget.feasibility(SI_SPIN, electrical, 1e-5).jitter_floor_s
        assert value == 100e-12 / 1e-5
        assert f"{value:.3e}" == "1.000e-05"


def test_criterion_3_improvement_factor():
    with criterion(3, "electrical pulse generator: infeasible, amplitude factor 1.0e3"):
        report = budget.feasibility(SI_SPIN, CATALOG["electrical-pulse-generator"], 1e-5)
        assert not report.feasible
        assert report.improvement_factors["amplitude"] == (1.0 * 1e-2) / 1e-5
        assert f"{report.improvement_factors['amplitude']:.1e}" == "1.0e+03"


def test_criterion_4_laser_catalog_numbers():
    with criterion(4, "laser entry: sigma_a=5e-4, sigma_t=240 fs, SNR 2000, T_min 24 ns"):
        laser = CATALOG["modelocked-laser-10GHz"]
        assert laser.sigma_a == 5e-4
        assert laser.sigma_t_s == 240e-15
        assert 1.0 / laser.sigma_a == 2000.0
        t_min = budget.feasibility(SI_SPIN, laser, 1e-5).jitter_floor_s
        assert t_min == 240e-15 / 1e-5
        assert f"{t_min:.1e}" == "2.4e-08"


def test_criterion_5_gate_construction_oracles():
    with criterion(5, "exchange unitary matches SWAP^alpha targets and the series oracle"):
        for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
            fid = core.process_fidelity(
                gates.exchange_unitary(math.pi * alpha), gates.swap_power_target(alpha)
            )
            assert fid >= 1.0 - 1e-10
        rng = np.random.default_rng(5)
        sd = core.spin_dot_operator()
        for _ in range(20):
            theta = rng.uniform(-10.0, 10.0)
            diff = gates.exchange_unitary(theta) - expm_series(sd, theta)
            assert core.max_abs(diff) <= 1e-10


def test_criterion_6_closed_form_infidelity():
    with criterion(6, "gate error equals (3/8)(1-cos) and the numerical fidelity route"):
        rng = np.random.default_rng(6)
        for _ in range(100):
            delta = rng.uniform(-2 * math.pi, 2 * math.pi)
            closed = gates.gate_error_vs_phase(delta)
            assert abs(closed - 0.375 * (1.0 - math.cos(delta))) <= 1e-12
            theta = rng.uniform(-3.0, 3.0)
            numeric = 1.0 - core.process_fidelity(
                gates.exchange_unitary(theta), gates.exchange_unitary(theta + delta)
            )
            assert abs(closed - numeric) <= 1e-12


def test_criterion_7_monte_carlo_vs_analytic():
    with criterion(7, "MC mean at sigma_a=1e-3, n=1e5 within 3 stderr of 4.63e-7"):
        cfg = montecarlo.McConfig(
            n_samples=100_000,
            seed=1,
            target_alpha=0.5,
            nominal=gates.pulse_for_target(0.5, 5e-9),
            noise=ControlNoiseSpec(sigma_a=1e-3, sigma_t_s=0.0, distribution="gaussian"),
        )
        result = montecarlo.estimate_infidelity(cfg)
        predicted = (3.0 / 16.0) * (math.pi / 2) ** 2 * (1e-3) ** 2
        assert f"{predicted:.2e}" == "4.63e-07"
        assert abs(result.mean_infidelity - predicted) <= 3 * result.stderr


def test_criterion_8_dephasing_calculus():
    with criterion(8, "dephasing: trace preserved, exp(-T/T2) decay, 1-F_e ~ 1e-3"):
        t2 = 0.5e-3
        spec = dephasing.DephasingSpec(t2)
        channel = dephasing.dephasing_channel(0.3 * t2, spec)
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = random_density(rng)
            out = dephasing.apply_channel(channel, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert abs(np.trace(out).imag) <= 1e-12
        plus_zero = core.density_from_pure(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0))
        evolved = dephasing.apply_channel(dephasing.dephasing_channel(t2, spec), plus_zero)
        assert abs(evolved[0, 2] - 0.5 * math.exp(-1.0)) <= 1e-12
        t = 1e-3 * t2
        loss = 1.0 - dephasing.entanglement_fidelity(
            dephasing.dephasing_channel(t, spec), np.eye(4)
        )
        p = 0.5 * (1.0 - math.exp(-t / t2))
        assert abs(loss - (1.0 - (1.0 - p) ** 2)) <= 1e-15
        assert abs(loss - 1e-3) / 1e-3 <= 0.002


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "mc CSV byte-identical across runs and worker counts"):
        args = ["mc", "--alpha", "0.5", "--sigma-a", "1e-3", "--sigma-t", "1e-12",
                "--n", "20000", "--seed", "7"]
        paths = []
        for name, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
            out = tmp_path / name
            assert cli.main(args + extra + ["--out", str(out)]) == 0
            paths.append(out / "mc.csv")
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_10_feasibility_monotonicity():
    with criterion(10, "1000 random improvements never flip feasible -> infeasible"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            platform = budget.PlatformSpec(
                t2_s=10.0 ** rng.uniform(-5, -1),
                sensitivity=10.0 ** rng.uniform(-2, 1),
            )
            tech = budget.TechnologySpec(
                name="r",
                sigma_a=10.0 ** rng.uniform(-8, -1),
                sigma_t_s=10.0 ** rng.uniform(-15, -9),
                bw_low_hz=0.0,
                bw_high_hz=10.0 ** rng.uniform(6, 12),
            )
            eps = 10.0 ** rng.uniform(-6, -3)
            before = budget.feasibility(platform, tech, eps)
            knob = rng.integers(0, 5)
            gain = 10.0 ** rng.uniform(0.0, 3.0)
            if knob == 0:
                tech = budget.TechnologySpec("r", tech.sigma_a / gain, tech.sigma_t_s,
                                             tech.bw_low_hz, tech.bw_high_hz)
            elif knob == 1:
                tech = budget.TechnologySpec("r", tech.sigma_a, tech.sigma_t_s / gain,
                                             tech.bw_low_hz, tech.bw_high_hz)
            elif knob == 2:
                platform = budget.PlatformSpec(platform.t2_s, platform.sensitivity / gain)
            elif knob == 3:
                platform = budget.PlatformSpec(platform.t2_s * gain, platform.sensitivity)
            else:
                eps = min(eps * gain, 0.5)
            after = budget.feasibility(platform, tech, eps)
            assert not (before.feasible and not after.feasible)
