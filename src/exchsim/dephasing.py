"""Pure-dephasing channel on two qubits and fidelity of noisy gates.

Phase coherence decays with the transverse relaxation time T2: single-qubit
off-diagonal elements shrink by exp(-T/T2) after a wait of T.  The channel
is the standard phase-flip Kraus pair per qubit, tensored over both qubits.
Only pure dephasing is modeled (no amplitude damping).  The T2 record,
DephasingSpec, is defined in noise (which loads no numpy) and re-exported here.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import budget, core
from .noise import DephasingSpec  # re-exported: the T2 record lives with the noise records


@dataclass(frozen=True)
class QuantumChannel4:
    """Trace-preserving map on two qubits, as a tuple of 4x4 Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(core.as_operator(k, dims=(4,)) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        completeness = sum(k.conj().T @ k for k in ops)
        defect = core.max_abs(completeness - np.eye(4))
        if defect > core.ATOL_CONSTRUCT:
            raise ValueError(f"Kraus set is not complete: ||sum K^H K - I||_max = {defect:.3e}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)


def flip_probability(duration_s, t2_s):
    """Phase-flip probability p = (1 - exp(-T/T2)) / 2 after a wait of T."""
    if duration_s < 0.0 or math.isnan(duration_s):
        raise ValueError(f"duration must be >= 0, got {duration_s!r}")
    return budget._flip_probability(duration_s, t2_s)


def dephasing_channel(duration_s, spec):
    """Two-qubit pure-dephasing channel accumulated over `duration_s`.

    Per qubit the Kraus pair is {sqrt(1-p) I, sqrt(p) Z} with
    p = (1 - exp(-T/T2))/2, so off-diagonal single-qubit coherences decay
    by exactly exp(-T/T2).  Zero-weight operators are dropped, so T = 0
    returns the identity channel with a single Kraus operator.
    """
    p1 = flip_probability(duration_s, spec.t2_q1_s)
    p2 = flip_probability(duration_s, spec.t2_q2_s)
    singles_1 = [(math.sqrt(1.0 - p1), core.IDENT_2), (math.sqrt(p1), core.SIGMA_Z)]
    singles_2 = [(math.sqrt(1.0 - p2), core.IDENT_2), (math.sqrt(p2), core.SIGMA_Z)]
    ops = []
    for c1, k1 in singles_1:
        for c2, k2 in singles_2:
            weight = c1 * c2
            if weight > 0.0:
                ops.append(weight * np.kron(k1, k2))
    return QuantumChannel4(kraus=tuple(ops))


def compose_channel_after_unitary(channel, u):
    """Channel applying `u` first, then `channel`: Kraus operators K_i U."""
    u = core.check_unitary(core.as_operator(u, dims=(4,)))
    return QuantumChannel4(kraus=tuple(k @ u for k in channel.kraus))


def apply_channel(channel, rho):
    """Evolve a density matrix: rho' = sum_i K_i rho K_i†."""
    rho = core.check_density_matrix(rho)
    out = np.zeros((4, 4), dtype=complex)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


def entanglement_fidelity(channel, target):
    """Entanglement fidelity of a channel against a target unitary.

    F_e = sum_i |Tr(target† K_i)|^2 / d^2 with d = 4.  To score a noisy gate,
    compose the noise channel after the realized unitary first (see
    compose_channel_after_unitary).  Reduces to process fidelity when the
    channel is a single unitary Kraus operator.
    """
    target = core.check_unitary(core.as_operator(target, dims=(4,)))
    total = 0.0
    for k in channel.kraus:
        total += abs(np.trace(target.conj().T @ k)) ** 2
    return float(min(1.0, total / 16.0))
