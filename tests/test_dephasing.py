"""Tests for the two-qubit dephasing channel and entanglement fidelity."""

import math

import numpy as np
import pytest

from exchsim import core, dephasing, gates
from helpers import random_density, random_unitary, stabilizer_states

T2 = 0.5e-3
SPEC = dephasing.DephasingSpec(T2)


def plus_zero_density():
    """|+>|0> : qubit-1 coherence sits between basis indices 0 and 2."""
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    return core.density_from_pure(psi)


class TestDephasingSpec:
    def test_single_value_fills_both_qubits(self):
        spec = dephasing.DephasingSpec(1e-3)
        assert spec.t2_q1_s == spec.t2_q2_s == 1e-3

    def test_infinite_sentinel_allowed(self):
        spec = dephasing.DephasingSpec(math.inf)
        ch = dephasing.dephasing_channel(1.0, spec)
        np.testing.assert_allclose(ch.kraus[0], np.eye(4), atol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dephasing.DephasingSpec(0.0)


class TestDephasingChannel:
    def test_zero_duration_is_identity_channel(self):
        ch = dephasing.dephasing_channel(0.0, SPEC)
        assert len(ch.kraus) == 1
        np.testing.assert_array_equal(ch.kraus[0], np.eye(4))

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            dephasing.dephasing_channel(-1e-9, SPEC)

    def test_completeness_across_durations(self):
        for t_over_t2 in (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e6):
            ch = dephasing.dephasing_channel(t_over_t2 * T2, SPEC)
            total = sum(k.conj().T @ k for k in ch.kraus)
            assert core.max_abs(total - np.eye(4)) <= 1e-12

    def test_coherence_decay_factor(self):
        rho = plus_zero_density()
        out = dephasing.apply_channel(dephasing.dephasing_channel(T2, SPEC), rho)
        assert abs(out[0, 2] - 0.5 * math.exp(-1.0)) <= 1e-12

    def test_full_dephasing_limit(self):
        ch = dephasing.dephasing_channel(1e3 * T2, SPEC)
        out = dephasing.apply_channel(ch, plus_zero_density())
        assert abs(out[0, 2]) <= 1e-12
        np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-12)

    def test_semigroup_composition(self):
        rng = np.random.default_rng(31)
        t1, t2 = 0.3 * T2, 0.8 * T2
        ch_a = dephasing.dephasing_channel(t1, SPEC)
        ch_b = dephasing.dephasing_channel(t2, SPEC)
        ch_ab = dephasing.dephasing_channel(t1 + t2, SPEC)
        for _ in range(10):
            rho = random_density(rng)
            two_step = dephasing.apply_channel(ch_b, dephasing.apply_channel(ch_a, rho))
            one_step = dephasing.apply_channel(ch_ab, rho)
            assert core.max_abs(two_step - one_step) <= 1e-10

    def test_unequal_t2_per_qubit(self):
        spec = dephasing.DephasingSpec(T2, 10 * T2)
        out = dephasing.apply_channel(dephasing.dephasing_channel(T2, spec), plus_zero_density())
        # qubit 1 decays with its own T2, not qubit 2's
        assert abs(out[0, 2] - 0.5 * math.exp(-1.0)) <= 1e-12


class TestApplyChannel:
    def test_identity_channel_preserves_state(self):
        rho = plus_zero_density()
        np.testing.assert_allclose(
            dephasing.apply_channel(dephasing.QuantumChannel4(kraus=(core.IDENT_4,)), rho), rho, atol=1e-15
        )

    def test_trace_hermiticity_positivity_preserved(self):
        rng = np.random.default_rng(32)
        ch = dephasing.dephasing_channel(0.2 * T2, SPEC)
        for _ in range(100):
            rho = random_density(rng)
            out = dephasing.apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert core.max_abs(out - out.conj().T) <= 1e-12
            assert float(np.min(np.linalg.eigvalsh(out))) >= -1e-10

    def test_purity_never_increases(self):
        rng = np.random.default_rng(33)
        ch = dephasing.dephasing_channel(0.5 * T2, SPEC)
        for _ in range(25):
            rho = random_density(rng)
            out = dephasing.apply_channel(ch, rho)
            purity_in = float(np.trace(rho @ rho).real)
            purity_out = float(np.trace(out @ out).real)
            assert purity_out <= purity_in + 1e-12

    def test_incomplete_kraus_set_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            dephasing.QuantumChannel4(kraus=(0.5 * np.eye(4),))

    def test_empty_kraus_set_rejected(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            dephasing.QuantumChannel4(kraus=())


class TestEntanglementFidelity:
    def test_unitary_channel_reduces_to_process_fidelity(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            u, v = random_unitary(rng), random_unitary(rng)
            ch = dephasing.QuantumChannel4(kraus=(u,))
            assert dephasing.entanglement_fidelity(ch, v) == pytest.approx(
                core.process_fidelity(u, v), abs=1e-13
            )

    def test_exact_gate_no_noise_scores_one(self):
        u = gates.exchange_unitary(math.pi / 2)
        ch = dephasing.compose_channel_after_unitary(dephasing.QuantumChannel4(kraus=(core.IDENT_4,)), u)
        assert dephasing.entanglement_fidelity(ch, gates.swap_power_target(0.5)) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_full_dephasing_identity_target(self):
        ch = dephasing.dephasing_channel(1e3 * T2, SPEC)
        assert dephasing.entanglement_fidelity(ch, np.eye(4)) == pytest.approx(0.25, abs=1e-12)

    def test_small_duration_linear_loss(self):
        t = 1e-3 * T2
        ch = dephasing.dephasing_channel(t, SPEC)
        loss = 1.0 - dephasing.entanglement_fidelity(ch, np.eye(4))
        p = 0.5 * (1.0 - math.exp(-t / T2))
        assert loss == pytest.approx(1.0 - (1.0 - p) ** 2, rel=1e-12)
        assert loss == pytest.approx(t / T2, rel=2e-3)

    def test_loss_monotone_and_linear_up_to_percent_level(self):
        previous = 0.0
        for t_over_t2 in np.logspace(-4, -2, 9):
            ch = dephasing.dephasing_channel(t_over_t2 * T2, SPEC)
            loss = 1.0 - dephasing.entanglement_fidelity(ch, np.eye(4))
            assert loss > previous
            assert loss == pytest.approx(t_over_t2, rel=0.01)
            previous = loss

    # Average gate fidelity is (4 F_e + 1) / 5: the state fidelity <psi|U† E(psi) U|psi>
    # averaged over the stabilizer states, a 3-design, is its Haar average.
    @pytest.mark.parametrize("case", ["dephasing", "detuned-exchange", "random-unitaries"])
    def test_average_gate_fidelity_is_the_state_design_mean(self, case):
        rng = np.random.default_rng(41)
        if case == "dephasing":
            channel, target = dephasing.dephasing_channel(T2, SPEC), np.eye(4)
        elif case == "detuned-exchange":
            channel = dephasing.compose_channel_after_unitary(
                dephasing.dephasing_channel(0.1 * T2, dephasing.DephasingSpec(T2, 10 * T2)),
                gates.exchange_unitary(math.pi / 2 + 0.1))
            target = gates.swap_power_target(0.5)
        else:
            channel = dephasing.compose_channel_after_unitary(
                dephasing.dephasing_channel(T2, SPEC), random_unitary(rng))
            target = random_unitary(rng)
        states = stabilizer_states()
        mean = sum((target @ psi).conj() @ dephasing.apply_channel(
            channel, core.density_from_pure(psi)) @ (target @ psi) for psi in states) / len(states)
        f_e = dephasing.entanglement_fidelity(channel, target)
        assert mean.real == pytest.approx((4.0 * f_e + 1.0) / 5.0, abs=1e-12)
        assert abs(mean.imag) <= 1e-12
