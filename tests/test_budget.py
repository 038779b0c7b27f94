"""Tests for the feasibility calculus, builtin catalog, and spec-file loading."""

import math
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from exchsim import budget

SI = budget.builtin_platforms()["si-spin"]
ELECTRICAL, LASER = budget.builtin_catalog()

ELECTRICAL_INI = """\
[platform]
t2_seconds = 0.5e-3
sensitivity = 1.0

[technology]
name = electrical-pulse-generator
sigma_a = 1e-2
sigma_t_seconds = 100e-12
bw_low_hz = 0.0
bw_high_hz = 1e9
notes = Best available GHz-range electrical pulse generator: relative amplitude stability ~1e-2, pulse-length jitter ~100 ps.

[threshold]
epsilon = 1e-5
"""


class TestScalarBounds:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, -1e-5, math.inf, math.nan])
    def test_threshold_rejects_epsilon_outside_unit_interval(self, epsilon):
        message = f"epsilon must lie in (0, 1), got {epsilon!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            budget.Threshold(epsilon)


class TestFeasibility:
    # the window formulas, exactly: the ceiling, both duration floors and the
    # bandwidth 1/T each duration needs (inf at T = 0, where epsilon T2 underflows
    # or sigma_t is 0)
    @pytest.mark.parametrize("t2", [0.5e-3, 1e-320])
    @pytest.mark.parametrize("epsilon", [1e-5, 1e-3, 1e-2])
    @pytest.mark.parametrize("tech", [
        ELECTRICAL, LASER,
        budget.TechnologySpec(name="noiseless", sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=0.0,
                              bw_high_hz=1e12),
    ], ids=lambda tech: tech.name)
    def test_report_fields_are_the_window_formulas(self, tech, epsilon, t2):
        platform = budget.PlatformSpec(t2_s=t2, sensitivity=1.0)
        report = budget.feasibility(platform, tech, epsilon)
        amp_error = platform.sensitivity * tech.sigma_a
        assert report.t_max_s == epsilon * t2
        assert report.jitter_floor_s == tech.sigma_t_s / epsilon
        if amp_error < epsilon:
            assert report.t_min_s == tech.sigma_t_s / (epsilon - amp_error)
        else:
            assert report.t_min_s == math.inf
        for t, bandwidth in ((report.t_max_s, report.required_bandwidth_hz),
                             (report.t_min_s, report.required_bandwidth_at_t_min_hz)):
            assert bandwidth == (1.0 / t if t > 0.0 else math.inf)

    def test_electrical_generator_infeasible_with_1e3_amplitude_factor(self):
        report = budget.feasibility(SI, ELECTRICAL, 1e-5)
        assert not report.feasible
        assert report.t_window_s is None
        assert "amplitude" in report.limiting_constraints
        assert report.improvement_factors["amplitude"] == (1.0 * 1e-2) / 1e-5
        assert report.improvement_factors["amplitude"] == pytest.approx(1e3, rel=1e-12)
        # jitter alone would still demand T above the decoherence ceiling
        assert "jitter" in report.limiting_constraints
        assert report.improvement_factors["jitter"] == pytest.approx(2e3, rel=1e-12)

    def test_noiseless_technology_feasible_up_to_decoherence_ceiling(self):
        perfect = budget.TechnologySpec(
            name="perfect", sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=0.0, bw_high_hz=math.inf
        )
        report = budget.feasibility(SI, perfect, 1e-5)
        assert report.feasible
        assert report.t_window_s == (0.0, 5.000e-9)
        assert report.limiting_constraints == ()
        assert all(f == 1.0 for f in report.improvement_factors.values())

    def test_laser_amplitude_limited_with_factor_50(self):
        report = budget.feasibility(SI, LASER, 1e-5)
        assert not report.feasible
        assert report.limiting_constraints[0] == "amplitude"
        assert report.improvement_factors["amplitude"] == 5e-4 / 1e-5
        assert report.improvement_factors["amplitude"] == 50.0
        # timing floor 24 ns also sits above the 5 ns ceiling at this threshold
        assert report.jitter_floor_s == 240e-15 / 1e-5
        assert report.jitter_floor_s > report.t_max_s

    def test_laser_jitter_window_opens_at_weaker_threshold(self):
        report = budget.feasibility(SI, LASER, 1e-4)
        # amplitude still blocks, but the jitter floor drops below the ceiling
        assert not report.feasible
        assert report.limiting_constraints == ("amplitude",)
        assert report.jitter_floor_s == pytest.approx(2.4e-9, rel=1e-12)
        assert report.t_max_s == pytest.approx(50e-9, rel=1e-12)

    def test_feasible_window_satisfies_all_inequalities(self):
        tech = budget.TechnologySpec(
            name="good", sigma_a=2e-6, sigma_t_s=1e-14, bw_low_hz=0.0, bw_high_hz=1e12
        )
        eps = 1e-5
        report = budget.feasibility(SI, tech, eps)
        assert report.feasible
        lo, hi = report.t_window_s
        for frac in (1e-6, 0.25, 0.5, 0.75, 1 - 1e-6):
            t = lo + frac * (hi - lo)
            if t in (lo, hi):
                continue
            assert SI.sensitivity * tech.sigma_a + tech.sigma_t_s / t < eps
            assert t < eps * SI.t2_s

    def test_jitter_limited_case_reports_exact_ratio(self):
        tech = budget.TechnologySpec(
            name="jittery", sigma_a=1e-7, sigma_t_s=1e-9, bw_low_hz=0.0, bw_high_hz=1e12
        )
        report = budget.feasibility(SI, tech, 1e-5)
        assert not report.feasible
        assert report.limiting_constraints == ("jitter",)
        expected_t_min = 1e-9 / (1e-5 - 1e-7)
        assert report.t_min_s == expected_t_min
        assert report.improvement_factors["jitter"] == expected_t_min / report.t_max_s

    # epsilon * T2 underflows to 0: amplitude-limited, jitter-limited, and a subnormal epsilon
    @pytest.mark.parametrize("t2, epsilon, sigma_a", [
        (1e-320, 1e-5, 1e-4), (1e-320, 1e-5, 1e-7), (5e-4, 5e-324, 0.0)])
    def test_zero_decoherence_ceiling_has_infinite_jitter_factor(self, t2, epsilon, sigma_a):
        tech = budget.TechnologySpec(
            name="t", sigma_a=sigma_a, sigma_t_s=1e-12, bw_low_hz=0.0, bw_high_hz=1e12
        )
        report = budget.feasibility(budget.PlatformSpec(t2_s=t2, sensitivity=1.0), tech, epsilon)
        assert report.t_max_s == 0.0
        assert not report.feasible and report.t_window_s is None
        assert "jitter" in report.limiting_constraints
        assert report.improvement_factors["jitter"] == math.inf
        assert report.required_bandwidth_hz == math.inf

    # epsilon * T2 underflows to 0: decoherence is named with an inf factor, in
    # CONSTRAINTS order among whatever else limits, also where nothing else does
    @pytest.mark.parametrize("t2, epsilon, sigma_a, sigma_t, strict, limiting", [
        (1e-320, 1e-5, 0.0, 0.0, False, ("decoherence",)),
        (5e-4, 5e-324, 0.0, 0.0, False, ("decoherence",)),
        (1e-320, 1e-5, 1e-4, 1e-12, False, ("amplitude", "jitter", "decoherence")),
        (1e-320, 1e-5, 0.0, 0.0, True, ("decoherence", "bandwidth"))])
    def test_zero_decoherence_ceiling_names_decoherence(self, t2, epsilon, sigma_a, sigma_t,
                                                        strict, limiting):
        tech = budget.TechnologySpec(
            name="t", sigma_a=sigma_a, sigma_t_s=sigma_t, bw_low_hz=0.0, bw_high_hz=1e12
        )
        report = budget.feasibility(budget.PlatformSpec(t2_s=t2, sensitivity=1.0), tech, epsilon,
                                    strict_bandwidth=strict)
        assert report.t_max_s == 0.0 and not report.feasible
        assert report.limiting_constraints == limiting
        assert report.improvement_factors["decoherence"] == math.inf

    # epsilon * T2 underflows to 0, so 1/T is inf: a finite band and the
    # default band [0, inf] of a custom technology, with and without jitter
    @pytest.mark.parametrize("bw_high", [1e12, math.inf])
    @pytest.mark.parametrize("sigma_t", [0.0, 1e-12])
    def test_zero_decoherence_ceiling_has_infinite_bandwidth_factor(self, bw_high, sigma_t):
        tech = budget.TechnologySpec(
            name="t", sigma_a=0.0, sigma_t_s=sigma_t, bw_low_hz=0.0, bw_high_hz=bw_high
        )
        platform = budget.PlatformSpec(t2_s=1e-320, sensitivity=1.0)
        report = budget.feasibility(platform, tech, 1e-5, strict_bandwidth=True)
        assert report.t_max_s == 0.0 and report.required_bandwidth_hz == math.inf
        assert not report.feasible and not report.bandwidth_ok
        assert "bandwidth" in report.limiting_constraints
        assert report.improvement_factors["bandwidth"] == math.inf

    def test_amplitude_at_threshold_is_infeasible(self):
        tech = budget.TechnologySpec(
            name="edge", sigma_a=1e-5, sigma_t_s=0.0, bw_low_hz=0.0, bw_high_hz=1e12
        )
        report = budget.feasibility(SI, tech, 1e-5)
        assert not report.feasible
        assert report.improvement_factors["amplitude"] == 1.0

    def test_bandwidth_reported_but_not_gating_by_default(self):
        narrow = budget.TechnologySpec(
            name="narrow", sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=0.0, bw_high_hz=1e6
        )
        report = budget.feasibility(SI, narrow, 1e-5)
        assert report.feasible
        assert not report.bandwidth_ok
        assert report.required_bandwidth_hz == pytest.approx(2e8, rel=1e-12)

    def test_strict_bandwidth_mode_gates_feasibility(self):
        narrow = budget.TechnologySpec(
            name="narrow", sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=0.0, bw_high_hz=1e6
        )
        report = budget.feasibility(SI, narrow, 1e-5, strict_bandwidth=True)
        assert not report.feasible
        assert report.limiting_constraints == ("bandwidth",)
        assert report.improvement_factors["bandwidth"] == pytest.approx(200.0, rel=1e-12)

    def test_strict_bandwidth_mode_shrinks_window(self):
        midband = budget.TechnologySpec(
            name="midband", sigma_a=0.0, sigma_t_s=0.0, bw_low_hz=0.0, bw_high_hz=1e9
        )
        report = budget.feasibility(SI, midband, 1e-5, strict_bandwidth=True)
        assert report.feasible
        assert report.t_window_s[0] == pytest.approx(1e-9, rel=1e-12)

    def test_required_bandwidth_at_t_min(self):
        # inf when there is no jitter (t_min = 0), 0.0 when amplitude alone exceeds epsilon
        noiseless = replace(ELECTRICAL, sigma_a=0.0, sigma_t_s=0.0)
        assert budget.feasibility(SI, noiseless, 1e-5).required_bandwidth_at_t_min_hz == math.inf
        assert budget.feasibility(SI, ELECTRICAL, 1e-5).required_bandwidth_at_t_min_hz == 0.0

    def test_strict_report_lists_every_limit_in_constraint_order(self):
        # amplitude 1e-2 >= epsilon, jitter floor 0.1 s >= t_max, band 1e3 Hz < 1 / t_max
        hopeless = budget.TechnologySpec(
            name="hopeless", sigma_a=1e-2, sigma_t_s=1e-6, bw_low_hz=0.0, bw_high_hz=1e3
        )
        report = budget.feasibility(SI, hopeless, 1e-5, strict_bandwidth=True)
        assert report.limiting_constraints == ("amplitude", "jitter", "bandwidth")

    def test_monotone_under_improvements(self):
        rng = np.random.default_rng(41)
        flips = 0
        for _ in range(1000):
            platform = budget.PlatformSpec(
                t2_s=10.0 ** rng.uniform(-5, -1), sensitivity=10.0 ** rng.uniform(-2, 1)
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
            gain = 10.0 ** rng.uniform(0.0, 2.0)
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
            if before.feasible and not after.feasible:
                flips += 1
            for report in (before, after):
                for name in budget.CONSTRAINTS:
                    factor = report.improvement_factors[name]
                    assert factor >= 1.0
                    if name not in report.limiting_constraints:
                        assert factor == 1.0
        assert flips == 0

    def test_deterministic_and_pure(self):
        a = budget.feasibility(SI, ELECTRICAL, 1e-5)
        b = budget.feasibility(SI, ELECTRICAL, 1e-5)
        assert a == b


class TestBuiltinCatalog:
    def test_entries_present_with_stated_figures(self):
        by_name = {t.name: t for t in budget.builtin_catalog()}
        electrical = by_name["electrical-pulse-generator"]
        assert electrical.sigma_a == 1e-2
        assert electrical.sigma_t_s == 100e-12
        laser = by_name["modelocked-laser-10GHz"]
        assert laser.sigma_a == 5e-4
        assert laser.sigma_t_s == 240e-15
        assert laser.bw_low_hz == 10.0 and laser.bw_high_hz == 5e9

    def test_entries_pass_invariants(self):
        for tech in budget.builtin_catalog():
            # rebuilding reruns the invariants (those of ControlNoiseSpec included)
            assert budget.TechnologySpec(**asdict(tech)) == tech

    def test_merge_rejects_collisions(self):
        with pytest.raises(ValueError, match="collision"):
            budget.merge_catalog([ELECTRICAL])

    def test_catalog_is_one_tuple_of_frozen_records(self):
        catalog = budget.builtin_catalog()
        assert type(catalog) is tuple
        assert budget.builtin_catalog() is catalog
        for tech in catalog:
            with pytest.raises(FrozenInstanceError):
                tech.sigma_a = 0.0

    def test_merge_returns_a_new_tuple_and_leaves_the_builtins_unchanged(self):
        builtin = budget.builtin_catalog()
        before = list(builtin)
        extra = replace(LASER, name="house-laser")
        for extras, expected in (([], before), ([extra], before + [extra])):
            merged = budget.merge_catalog(extras)
            assert type(merged) is tuple and merged is not builtin
            assert list(merged) == expected
            assert budget.builtin_catalog() is builtin

    def test_user_technology_named_as_a_builtin_collides(self):
        clash = budget.TechnologySpec(name="modelocked-laser-10GHz", sigma_a=1e-3,
                                      sigma_t_s=1e-12, bw_low_hz=0.0, bw_high_hz=1e9)
        with pytest.raises(ValueError, match="collision: 'modelocked-laser-10GHz'"):
            budget.merge_catalog([clash])
        assert budget.builtin_catalog() == (ELECTRICAL, LASER)


BAD_BANDS = [
    pytest.param(1e9, 1e6, "need bw_high_hz > bw_low_hz >= 0, got [1000000000.0, 1000000.0]",
                 id="inverted"),
    pytest.param(1e6, 1e6, "need bw_high_hz > bw_low_hz >= 0, got [1000000.0, 1000000.0]",
                 id="empty"),
    pytest.param(-1.0, 1e6, "need bw_high_hz > bw_low_hz >= 0, got [-1.0, 1000000.0]",
                 id="negative-low"),
    pytest.param(math.nan, 1e9, "bandwidth limits must not be NaN", id="nan-low"),
    pytest.param(0.0, math.nan, "bandwidth limits must not be NaN", id="nan-high"),
]


class TestTechnologyBand:
    """TechnologySpec owns its band check, on every route that builds one."""

    @pytest.mark.parametrize("low, high, message", BAD_BANDS)
    def test_constructor_rejects_bad_band(self, low, high, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(ELECTRICAL, bw_low_hz=low, bw_high_hz=high)

    @pytest.mark.parametrize("low, high, message", [
        pytest.param("1e9", "1e6", "technology: need bw_high_hz > bw_low_hz >= 0, got "
                     "[1000000000.0, 1000000.0]", id="inverted"),
        # A spec file's NaN is rejected while parsing, naming the key.
        pytest.param("nan", "1e9", "technology.bw_low_hz: NaN is not allowed", id="nan-low"),
        pytest.param("0", "nan", "technology.bw_high_hz: NaN is not allowed", id="nan-high"),
    ])
    def test_spec_file_rejects_bad_band(self, low, high, message):
        text = ELECTRICAL_INI.replace("bw_low_hz = 0.0", f"bw_low_hz = {low}").replace(
            "bw_high_hz = 1e9", f"bw_high_hz = {high}")
        with pytest.raises(budget.SpecFileError, match=f"^{re.escape(message)}$"):
            budget.load_specs(text)


class TestLoadSpecs:
    def test_round_trip_matches_builtin(self):
        loaded = budget.load_specs(ELECTRICAL_INI)
        assert loaded.technologies == (ELECTRICAL,)
        assert loaded.platform == budget.PlatformSpec(t2_s=0.5e-3, sensitivity=1.0)
        assert loaded.threshold == budget.Threshold(epsilon=1e-5)

    def test_empty_text_loads_no_specs(self):
        assert budget.load_specs("") == budget.NO_SPECS

    @pytest.mark.parametrize("kwargs, quoted", [({}, "'<string>'"),
                                                ({"source": "site.ini"}, "'site.ini'")])
    def test_source_names_the_text_in_configparsers_message(self, kwargs, quoted):
        with pytest.raises(budget.SpecFileError, match=re.escape(quoted)):
            budget.load_specs("t2_seconds = 1e-3\n", **kwargs)

    def test_scientific_notation_everywhere(self):
        loaded = budget.load_specs(
            "[threshold]\nepsilon = 1.0E-4\n\n[platform]\nt2_seconds = 5E-4\nsensitivity = 1e0\n"
        )
        assert loaded.threshold.epsilon == 1e-4
        assert loaded.platform.t2_s == 5e-4

    def test_negative_sigma_a_names_field(self):
        text = ELECTRICAL_INI.replace("sigma_a = 1e-2", "sigma_a = -1")
        with pytest.raises(budget.SpecFileError, match="sigma_a"):
            budget.load_specs(text)

    def test_missing_platform_key(self):
        with pytest.raises(budget.SpecFileError, match="t2_seconds"):
            budget.load_specs("[platform]\nsensitivity = 1.0\n")

    @pytest.mark.parametrize("section, key", [
        ("platform", "t2_seconds"), ("platform", "sensitivity"),
        ("technology", "name"), ("technology", "sigma_a"), ("technology", "sigma_t_seconds"),
        ("technology", "bw_low_hz"), ("technology", "bw_high_hz"),
        ("threshold", "epsilon"),
    ])
    def test_every_required_key_is_required(self, section, key):
        lines = ELECTRICAL_INI.splitlines()
        start = lines.index(f"[{section}]")
        drop = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))
        text = "\n".join(lines[:drop] + lines[drop + 1:]) + "\n"
        message = f"{section}: missing required key {key!r}"
        with pytest.raises(budget.SpecFileError, match=re.escape(message)):
            budget.load_specs(text)

    def test_notes_are_optional(self):
        lines = ELECTRICAL_INI.splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("notes = "))
        (tech,) = budget.load_specs(text).technologies
        assert tech.notes == ""
        assert tech == replace(ELECTRICAL, notes="")

    def test_string_fields_stay_strings(self):
        text = ELECTRICAL_INI.replace("name = electrical-pulse-generator", "name = 1e-3").replace(
            "notes = Best", "notes = 2 ; Best")
        (tech,) = budget.load_specs(text).technologies
        assert tech.name == "1e-3"
        assert tech.notes.startswith("2 ; Best")

    def test_unknown_key_is_reported_before_missing_key(self):
        with pytest.raises(budget.SpecFileError, match="platform: unknown key 'extra'"):
            budget.load_specs("[platform]\nextra = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(budget.SpecFileError, match="unknown key"):
            budget.load_specs("[threshold]\nepsilon = 1e-5\nextra = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(budget.SpecFileError, match="unknown section"):
            budget.load_specs("[laser]\nname = x\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(budget.SpecFileError, match="not a number"):
            budget.load_specs("[threshold]\nepsilon = tiny\n")

    def test_multiple_technology_sections(self):
        text = ELECTRICAL_INI + (
            "\n[technology.second]\nname = other\nsigma_a = 1e-3\n"
            "sigma_t_seconds = 1e-12\nbw_low_hz = 0\nbw_high_hz = 1e10\n"
        )
        loaded = budget.load_specs(text)
        assert [t.name for t in loaded.technologies] == [
            "electrical-pulse-generator", "other",
        ]

    def test_bad_epsilon_range(self):
        with pytest.raises(budget.SpecFileError, match="threshold"):
            budget.load_specs("[threshold]\nepsilon = 2.0\n")
