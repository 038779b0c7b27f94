"""Exchange-pulse unitaries and closed-form gate error for fractional-SWAP targets.

A pulsed Heisenberg interaction between two spins generates the one-parameter
family U(theta) = exp(-i theta s1.s2), where theta is the dimensionless pulse
area.  theta = pi*alpha realizes SWAP^alpha up to a global phase, so the whole
gate family is controlled by the single product of exchange strength and
duration.  Each matrix weighs the spectral projectors P_triplet = (1 + SWAP)/2
and P_singlet = (1 - SWAP)/2, summed entry by entry without numpy or core.

A pulse is a strength and a duration: J, the exchange angular frequency in
rad/s (energy divided by hbar), held for T seconds, so theta = J T / 2.  The
generator s1.s2 commutes with itself at all times, so a shaped pulse J(t)
gives the gate of any pulse with its area: profile_pulse reduces sampled J(t)
to the constant pulse with its trapezoid-rule area and its duration.
"""

import cmath
import math
from dataclasses import dataclass


def _spectral_rows(triplet, singlet):
    """Rows of triplet P_triplet + singlet P_singlet, each entry summed in numpy's order."""
    one, zero = triplet * 1.0 + singlet * 0.0, triplet * 0.0 + singlet * 0.0
    plus, minus = triplet * 0.5 + singlet * 0.5, triplet * 0.5 + singlet * -0.5
    return [[one, zero, zero, zero], [zero, plus, minus, zero],
            [zero, minus, plus, zero], [zero, zero, zero, one]]


def _checked_duration(duration_s):
    t = float(duration_s)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"pulse duration must be positive and finite, got {t!r}")
    return t


@dataclass(frozen=True)
class PulseSpec:
    """One exchange pulse: a constant exchange angular frequency j_rad_per_s
    (>= 0 and finite) held for duration_s (> 0 and finite), with a finite
    area J T / 2."""

    j_rad_per_s: float
    duration_s: float

    def __post_init__(self):
        object.__setattr__(self, "duration_s", _checked_duration(self.duration_s))
        j = float(self.j_rad_per_s)
        if not (math.isfinite(j) and j >= 0.0):
            raise ValueError(f"exchange strength must be >= 0 and finite, got {j!r}")
        if j * self.duration_s / 2.0 == math.inf:
            raise ValueError(f"the area J T / 2 of the pulse J = {j!r} rad/s, "
                             f"T = {self.duration_s!r} s overflows")
        object.__setattr__(self, "j_rad_per_s", j)


def profile_pulse(samples):
    """The constant pulse with the duration and trapezoid-rule area of sampled J(t).

    samples are (time_s, j_rad_per_s) pairs: at least two, with times
    strictly increasing from 0 and strengths >= 0 and finite.  The duration
    T is the last time and the strength is the area divided by T.
    """
    import numpy as np

    samples = tuple((float(ti), float(ji)) for ti, ji in samples)
    if len(samples) < 2:
        raise ValueError("profile needs at least two (time, strength) samples")
    times, values = (np.array(column) for column in zip(*samples))
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("profile sample times must be strictly increasing")
    if times[0] != 0.0:
        raise ValueError("profile must start at time 0")
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError("profile strengths must be >= 0 and finite")
    duration = _checked_duration(times[-1])
    return PulseSpec(float(np.trapezoid(values, times)) / duration, duration)


def _checked_alpha(alpha, name="alpha"):
    alpha = float(alpha)
    if not abs(alpha) <= 1e150:  # so that (pi alpha)^2 is a finite double
        raise ValueError(f"{name} must be finite with |{name}| <= 1e150, got {alpha!r}")
    return alpha


def pulse_for_target(alpha, duration_s):
    """Constant pulse whose area realizes SWAP^alpha in the given duration."""
    duration_s, alpha = _checked_duration(duration_s), _checked_alpha(alpha)
    if alpha < 0.0:  # a pulse's exchange strength J cannot be negative
        raise ValueError(f"alpha must be >= 0 (alpha + 2 is the same gate), got {alpha!r}")
    j = 2.0 * math.pi * alpha / duration_s
    if j == math.inf:
        raise ValueError(f"duration = {duration_s!r} s is too short for alpha = {alpha!r}: "
                         "the exchange strength 2 pi alpha / duration overflows")
    return PulseSpec(j, duration_s)


def phase_from_pulse(pulse):
    """Dimensionless pulse area theta = J T / 2 (J in rad/s, T in s)."""
    return pulse.j_rad_per_s * pulse.duration_s / 2.0


def exchange_unitary(theta):
    """Two-qubit exchange unitary U(theta) = exp(-i theta s1.s2).

    Spectral form: e^{-i theta/4} P_triplet + e^{+3i theta/4} P_singlet.
    Equals SWAP^(theta/pi) times the global phase e^{-i theta/4}.
    """
    import numpy as np

    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return np.array(_spectral_rows(cmath.exp(-1j * theta / 4.0), cmath.exp(3j * theta / 4.0)))


def swap_power_target(alpha):
    """Canonical fractional SWAP: P_triplet + e^{i pi alpha} P_singlet.

    Principal branch; alpha = 1 is SWAP exactly, alpha = 0 the identity.
    exchange_unitary(pi*alpha) differs from this by the global phase
    e^{-i pi alpha / 4}, which process fidelity ignores.
    """
    import numpy as np

    return np.array(_swap_power_rows(alpha))


def _swap_power_rows(alpha):
    return _spectral_rows(1.0, cmath.exp(1j * math.pi * _checked_alpha(alpha)))


def gate_error_vs_phase(delta_theta):
    """Process infidelity between U(theta) and U(theta + delta_theta).

    Closed form (3/8)(1 - cos delta_theta), independent of theta; the
    leading order is (3/16) delta_theta^2.  Even and 2*pi-periodic.
    Evaluated as (3/4) sin^2(delta_theta/2), which is the same function
    without cancellation at small arguments, squared as a product.
    """
    delta_theta = float(delta_theta)
    if not math.isfinite(delta_theta):
        raise ValueError("delta_theta must be finite")
    s = math.sin(0.5 * delta_theta)
    return 0.75 * (s * s)


def relative_error_to_phase_error(theta, dj_over_j, dt_over_t):
    """Exact pulse-area error from relative strength and duration errors.

    delta_theta = theta * ((1 + dJ/J)(1 + dT/T) - 1), summed as
    theta * (dJ/J + dT/T + dJ/J dT/T) so that tiny errors do not cancel;
    agrees with the first-order form theta * (dJ/J + dT/T) to second order.
    """
    _check_relative(dj_over_j, "dj_over_j")
    _check_relative(dt_over_t, "dt_over_t")
    return float(theta) * (dj_over_j + dt_over_t + dj_over_j * dt_over_t)


def relative_error_to_phase_error_first_order(theta, dj_over_j, dt_over_t):
    """First-order pulse-area error theta * (dJ/J + dT/T)."""
    _check_relative(dj_over_j, "dj_over_j")
    _check_relative(dt_over_t, "dt_over_t")
    return float(theta) * (dj_over_j + dt_over_t)


def _check_relative(x, name):
    if not (math.isfinite(x) and abs(x) < 1.0):
        raise ValueError(f"{name} must satisfy |x| < 1, got {x!r}")

