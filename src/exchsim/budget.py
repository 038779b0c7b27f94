"""Analytic feasibility calculus for exchange-gate control technologies.

A technology is workable at threshold epsilon when some gate duration T
satisfies the joint budget

    sensitivity * sigma_a  +  sigma_t / T  <  epsilon      (control accuracy)
    T  <  epsilon * T2                                     (decoherence)

which yields a closed-form feasible window (t_min, t_max).  The first bound is
in amplitude units, the second in probability units (T / T2 is, to leading
order, the dephasing infidelity), so the window bounds control accuracy, not
gate infidelity.  This is the coherent-error (worst-case) convention: a unitary
error's diamond-norm rate grows as the square root of its infidelity (Sanders,
Wallman & Emerson, NJP 18, 012002 (2016); Kueng et al., PRL 117, 170502 (2016)).
The amplitude term is duration-independent, so the two constraints are enforced
jointly rather than via a fixed epsilon split (the most permissive reading of
the combined budget).  The control channel must also cover a bandwidth of at
least 1/T; that requirement is reported, and gates feasibility only in strict
mode, since band-integrated noise figures already reflect it.
"""

import math
from dataclasses import MISSING, dataclass, fields

from .noise import ControlNoiseSpec

CONSTRAINTS = ("amplitude", "jitter", "decoherence", "bandwidth")


class SpecFileError(ValueError):
    """Malformed or invalid spec-file content, with a field-path message."""


@dataclass(frozen=True)
class PlatformSpec:
    """Qubit platform figures: T2 in seconds and the logarithmic control sensitivity."""

    t2_s: float
    sensitivity: float

    def __post_init__(self):
        if math.isnan(self.t2_s) or self.t2_s <= 0.0:
            raise ValueError(f"t2_s must be > 0, got {self.t2_s!r}")
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0.0):
            raise ValueError(f"sensitivity must be >= 0 and finite, got {self.sensitivity!r}")


@dataclass(frozen=True)
class TechnologySpec:
    """Noise figures of one control technology and the band [bw_low_hz, bw_high_hz) it covers."""

    name: str
    sigma_a: float
    sigma_t_s: float
    bw_low_hz: float
    bw_high_hz: float
    notes: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("technology name must be nonempty")
        ControlNoiseSpec(sigma_a=self.sigma_a, sigma_t_s=self.sigma_t_s)  # its sigma checks
        if math.isnan(self.bw_low_hz) or math.isnan(self.bw_high_hz):
            raise ValueError("bandwidth limits must not be NaN")
        if not (0.0 <= self.bw_low_hz < self.bw_high_hz):
            raise ValueError(
                f"need bw_high_hz > bw_low_hz >= 0, got [{self.bw_low_hz!r}, {self.bw_high_hz!r}]"
            )


@dataclass(frozen=True)
class Threshold:
    """Fault-tolerance threshold epsilon in (0, 1) on control accuracy, not on infidelity."""

    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)


# The Monte Carlo sweep axes, each a field of the estimated config.
SWEEP_AXES = ("sigma_a", "sigma_t", "t2", "target_alpha")


def normalize_axis(axis):
    name = axis.strip().lower()
    if name not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    return name


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the budget analysis for one platform/technology/threshold triple.

    t_min_s is the smallest admissible duration under the combined accuracy
    budget (inf when amplitude noise alone exceeds it); t_max_s the
    decoherence ceiling.  jitter_floor_s = sigma_t / epsilon is the duration
    floor from jitter alone, reported so the threshold dependence of the
    timing verdict stays visible.  Improvement factors are exact ratios and
    equal 1.0 for non-limiting constraints; decoherence limits, with factor
    inf, only when epsilon * T2 underflows to 0.
    """

    feasible: bool
    t_window_s: tuple | None
    limiting_constraints: tuple
    improvement_factors: dict
    t_min_s: float
    t_max_s: float
    jitter_floor_s: float
    required_bandwidth_hz: float
    required_bandwidth_at_t_min_hz: float
    bandwidth_ok: bool


def _check_epsilon(epsilon):
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon


def _flip_probability(duration_s, t2_s):
    return -0.5 * math.expm1(-duration_s / t2_s)  # (1 - exp(-T/T2)) / 2, precise at T << T2


def small_noise_infidelity(theta, alpha, rel_amp, sigma_t_s, duration_s, t2_q1_s, t2_q2_s):
    """Small-noise infidelity of a pulse of area theta and duration T against SWAP^alpha:
    (3/16) (offset^2 + A^2 + J^2) + (p1 + p2 - p1 p2), offset = theta - pi alpha,
    A = theta rel_amp, J = theta (sigma_t / T), p_i = (1 - exp(-T/T2_i)) / 2.  Each
    square is a product, so finite A and J give a finite value or inf, never nan."""
    offset = theta - math.pi * alpha
    amp = theta * rel_amp
    jitter = theta * (sigma_t_s / duration_s)
    coherent = (3.0 / 16.0) * (offset * offset + amp * amp + jitter * jitter)
    p1, p2 = _flip_probability(duration_s, t2_q1_s), _flip_probability(duration_s, t2_q2_s)
    return coherent + (p1 + p2 - p1 * p2)


def feasibility(platform, tech, epsilon, strict_bandwidth=False):
    """Evaluate the full budget; infeasibility is a result, not an error.

    The per-gate relative exchange error is a = sensitivity * sigma_a.  If
    a >= epsilon no duration helps, and the jitter floor is assessed against
    the full budget (no share remains for it).  Otherwise the feasible
    window is (sigma_t / (epsilon - a), epsilon * T2).

    With strict_bandwidth the window additionally requires the technology
    band to cover 1/T.
    """
    epsilon = _check_epsilon(epsilon)
    amp_error = platform.sensitivity * tech.sigma_a
    t_max = epsilon * platform.t2_s
    jitter_floor = tech.sigma_t_s / epsilon
    factors = dict.fromkeys(CONSTRAINTS, 1.0)
    limiting = []

    if amp_error >= epsilon:
        factors["amplitude"] = amp_error / epsilon
        limiting.append("amplitude")
        t_min = math.inf
        jitter_bound = jitter_floor
    else:
        t_min = tech.sigma_t_s / (epsilon - amp_error)
        jitter_bound = t_min
    if tech.sigma_t_s > 0.0 and jitter_bound >= t_max:
        factors["jitter"] = jitter_bound / t_max if t_max > 0.0 else math.inf
        limiting.append("jitter")
    if t_max == 0.0:  # epsilon T2 underflowed: no duration fits under the ceiling
        factors["decoherence"] = math.inf
        limiting.append("decoherence")

    # inf at a zero duration: t_min is 0 when sigma_t is, and t_max when epsilon T2 underflows
    bw_needed, bw_at_t_min = (1.0 / t if t > 0.0 else math.inf for t in (t_max, t_min))
    bandwidth_ok = tech.bw_high_hz > bw_needed
    window_low = t_min
    if strict_bandwidth:
        window_low = max(window_low, 1.0 / tech.bw_high_hz)
        if not bandwidth_ok:  # an inf need gives inf, not inf / inf, as the jitter factor does
            factors["bandwidth"] = (bw_needed / tech.bw_high_hz if bw_needed < math.inf
                                    else math.inf)
            limiting.append("bandwidth")

    feasible = window_low < t_max
    return FeasibilityReport(
        feasible=feasible,
        t_window_s=(window_low, t_max) if feasible else None,
        limiting_constraints=tuple(limiting),  # appended in CONSTRAINTS order
        improvement_factors=factors,
        t_min_s=t_min,
        t_max_s=t_max,
        jitter_floor_s=jitter_floor,
        required_bandwidth_hz=bw_needed,
        required_bandwidth_at_t_min_hz=bw_at_t_min,
        bandwidth_ok=bandwidth_ok,
    )


# ---------------------------------------------------------------------------
# Built-in catalog

SI_SPIN = PlatformSpec(t2_s=0.5e-3, sensitivity=1.0)


def builtin_platforms():
    """Named qubit platforms available to the CLI."""
    return {"si-spin": SI_SPIN}


_BUILTIN_CATALOG = (
    TechnologySpec(
        name="electrical-pulse-generator",
        sigma_a=1e-2,
        sigma_t_s=100e-12,
        bw_low_hz=0.0,
        bw_high_hz=1e9,
        notes=(
            "Best available GHz-range electrical pulse generator: "
            "relative amplitude stability ~1e-2, pulse-length jitter ~100 ps."
        ),
    ),
    TechnologySpec(
        name="modelocked-laser-10GHz",
        sigma_a=5e-4,
        sigma_t_s=240e-15,
        bw_low_hz=10.0,
        bw_high_hz=5e9,
        notes=(
            "Externally mode-locked femtosecond laser at 10 GHz repetition "
            "rate: 0.05% intensity noise and 240 fs timing jitter, both "
            "integrated over 10 Hz - 5 GHz."
        ),
    ),
)


def builtin_catalog():
    """Reference control technologies with band-integrated noise figures: the one
    tuple of frozen records that budget builds when it is imported."""
    return _BUILTIN_CATALOG


# ---------------------------------------------------------------------------
# Spec-file ingestion (INI grammar; see README for the full schema)

@dataclass(frozen=True)
class LoadedSpecs:
    """Validated records parsed from one spec file."""

    platform: PlatformSpec | None
    technologies: tuple
    threshold: Threshold | None


NO_SPECS = LoadedSpecs(platform=None, technologies=(), threshold=None)  # load_specs("")


def _parse_number(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise SpecFileError(f"{section}.{key}: not a number: {raw!r}") from None
    if math.isnan(value):
        raise SpecFileError(f"{section}.{key}: NaN is not allowed")
    return value


# The record of each section; a section's keys are its record's fields, in
# field order, with these INI names where they differ.  A float field is read
# as a number, and a field with a default is optional.
_SECTIONS = {"platform": PlatformSpec, "technology": TechnologySpec, "threshold": Threshold}
_INI_KEYS = {"t2_s": "t2_seconds", "sigma_t_s": "sigma_t_seconds"}


def _build(section, items, record):
    schema = {_INI_KEYS.get(field.name, field.name): field for field in fields(record)}
    for key in items:
        if key not in schema:
            raise SpecFileError(f"{section}: unknown key {key!r}")
    for key, field in schema.items():
        if key not in items and field.default is MISSING:
            raise SpecFileError(f"{section}: missing required key {key!r}")
    kwargs = {
        field.name: _parse_number(section, key, items[key]) if field.type is float else items[key]
        for key, field in schema.items()
        if key in items
    }
    try:
        return record(**kwargs)
    except ValueError as exc:
        raise SpecFileError(f"{section}: {exc}") from None


def load_specs(text, source="<string>"):
    """Parse spec-file content into platform/technology/threshold records.

    Sections: [platform], [threshold], and one or more technology sections
    named [technology] or [technology.<label>].  Each section's keys are the
    fields of its record (PlatformSpec, Threshold, TechnologySpec), except
    that t2_s and sigma_t_s are written t2_seconds and sigma_t_seconds.
    Numbers accept scientific notation.  Unknown sections or keys are errors.
    source names the text in configparser's messages, as read_string does.
    """
    import configparser  # only spec files need it, not the CLI's start-up

    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise SpecFileError(f"unparseable spec file: {exc}") from None

    records = {kind: [] for kind in _SECTIONS}
    for section in parser.sections():
        kind = "technology" if section.startswith("technology.") else section
        if kind not in _SECTIONS:
            raise SpecFileError(f"unknown section {section!r}")
        records[kind].append(_build(section, dict(parser.items(section)), _SECTIONS[kind]))
    return LoadedSpecs(
        platform=next(iter(records["platform"]), None),
        technologies=tuple(records["technology"]),
        threshold=next(iter(records["threshold"]), None),
    )


def merge_catalog(extra_technologies):
    """Builtin catalog plus user entries; duplicate names are rejected."""
    merged = list(builtin_catalog())
    seen = {tech.name for tech in merged}
    for tech in extra_technologies:
        if tech.name in seen:
            raise ValueError(f"technology name collision: {tech.name!r}")
        seen.add(tech.name)
        merged.append(tech)
    return tuple(merged)
