"""Tests for the command-line interface: exit codes, outputs, determinism."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import stat
import struct
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from exchsim import budget, cli, montecarlo, noise
from exchsim.dephasing import DephasingSpec
from exchsim.gates import pulse_for_target
from exchsim.montecarlo import McConfig
from exchsim.noise import ControlNoiseSpec

ELECTRICAL_INI_EXTRA = """\
[technology]
name = house-generator
sigma_a = 2e-3
sigma_t_seconds = 5e-11
bw_low_hz = 0.0
bw_high_hz = 2e9
"""


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def jsonable(value):
    """value as json.dumps takes it, built without cli: a record as dataclasses.asdict
    gives it, a tuple as a list, a non-finite float as its repr ('inf', '-inf', 'nan')."""
    if is_dataclass(value) and not isinstance(value, type):
        value = asdict(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def json_oracle(value):
    """What cli._json_text must write for value: json.dumps of its JSON form."""
    return json.dumps(jsonable(value), indent=2, sort_keys=True) + "\n"


class TestFeasibilityCommand:
    def test_electrical_generator_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main([
            "feasibility", "--platform", "si-spin",
            "--tech", "electrical-pulse-generator", "--epsilon", "1e-5",
            "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "INFEASIBLE" in stdout
        report = json.loads(read_bytes(out / "feasibility.json"))
        assert report["feasible"] is False
        assert report["improvement_factors"]["amplitude"] == pytest.approx(1e3, rel=1e-12)
        assert "amplitude" in report["limiting_constraints"]
        manifest = json.loads(read_bytes(out / "feasibility_manifest.json"))
        emitted = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert emitted == {"feasibility.txt", "feasibility.json"}

    def test_laser_report(self, tmp_path, capsys):
        rc = cli.main([
            "feasibility", "--platform", "si-spin",
            "--tech", "modelocked-laser-10GHz", "--epsilon", "1e-5",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["feasible"] is False
        assert report["limiting_constraints"][0] == "amplitude"
        assert report["improvement_factors"]["amplitude"] == 50.0

    def test_noiseless_window(self, tmp_path, capsys):
        rc = cli.main([
            "feasibility", "--platform", "si-spin", "--sigma-a", "0", "--sigma-t", "0",
            "--epsilon", "1e-5", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert "FEASIBLE" in capsys.readouterr().out
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["t_window_s"] == [0.0, 5.000e-9]

    def test_default_platform_noiseless_window(self, tmp_path, capsys):
        rc = cli.main(["feasibility", "--sigma-a", "0", "--sigma-t", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "si-spin" not in stdout  # platform name only lives in the JSON report
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["platform"]["name"] == "si-spin"
        assert report["t_window_s"] == [0.0, 5.000e-9]

    def test_decoherence_ceiling_that_underflows_reports_infeasible(self, tmp_path, capsys):
        # epsilon * T2 = 1e-325 underflows to 0: no gate is fast enough
        rc = cli.main(["feasibility", "--t2", "1e-320", "--sensitivity", "1", "--sigma-a",
                       "1e-4", "--sigma-t", "1e-12", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "verdict:     INFEASIBLE" in capsys.readouterr().out
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["t_max_s"] == 0.0
        assert report["improvement_factors"]["jitter"] == "inf"
        assert report["limiting_constraints"] == ["amplitude", "jitter", "decoherence"]
        assert report["improvement_factors"]["decoherence"] == "inf"

    def test_report_files_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["feasibility", "--platform", "si-spin", "--tech",
                "modelocked-laser-10GHz", "--epsilon", "1e-5"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("feasibility.txt", "feasibility.json"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    def test_spec_file_inputs(self, tmp_path, capsys):
        spec = tmp_path / "setup.spec"
        spec.write_text(
            "[platform]\nt2_seconds = 0.5e-3\nsensitivity = 1.0\n\n"
            "[technology]\nname = homebrew\nsigma_a = 1e-6\nsigma_t_seconds = 1e-14\n"
            "bw_low_hz = 0\nbw_high_hz = 1e12\n\n[threshold]\nepsilon = 1e-5\n"
        )
        rc = cli.main(["feasibility", "--spec-file", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["feasible"] is True
        assert report["epsilon"] == 1e-5

    def test_unknown_platform_is_input_error(self, tmp_path, capsys):
        rc = cli.main(["feasibility", "--platform", "nope", "--tech",
                       "modelocked-laser-10GHz", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_spec_file_with_several_technologies_asks_for_tech(self, tmp_path, capsys):
        spec = tmp_path / "two.spec"
        spec.write_text(ELECTRICAL_INI_EXTRA + "\n" + ELECTRICAL_INI_EXTRA.replace(
            "[technology]", "[technology.b]").replace("house-generator", "bench-generator"))
        rc = cli.main(["feasibility", "--spec-file", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: the spec file has 2 technologies "
                                           "(house-generator, bench-generator): choose one "
                                           "with --tech\n")
        assert cli.main(["feasibility", "--spec-file", str(spec), "--tech", "bench-generator",
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("band, message", [
        pytest.param(["--bw-low", "1e9", "--bw-high", "1e6"],
                     "need bw_high_hz > bw_low_hz >= 0, got [1000000000.0, 1000000.0]",
                     id="inverted"),
        pytest.param(["--bw-low", "nan"], "bandwidth limits must not be NaN", id="nan-low"),
        pytest.param(["--bw-high", "nan"], "bandwidth limits must not be NaN", id="nan-high"),
    ])
    def test_bad_band_is_input_error(self, tmp_path, capsys, band, message):
        rc = cli.main(["feasibility", "--sigma-a", "0", "--sigma-t", "0", *band,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, first, second", [
        pytest.param(["--tech", "electrical-pulse-generator", "--bw-high", "1e6",
                      "--strict-bandwidth"], "--tech", "--bw-high", id="band-with-tech"),
        pytest.param(["--platform", "nope", "--t2", "1e-3", "--sensitivity", "1",
                      "--sigma-a", "0", "--sigma-t", "0"], "--platform", "--t2",
                     id="platform-with-t2"),
        pytest.param(["--tech", "nope", "--sigma-a", "0", "--sigma-t", "0"], "--tech",
                     "--sigma-a", id="tech-with-sigmas"),
    ])
    def test_overridden_flag_is_input_error(self, tmp_path, capsys, flags, first, second):
        # A flag that another flag would override is never dropped silently.
        rc = cli.main(["feasibility", *flags, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert first in err and second in err
        assert not (tmp_path / "out").exists()

    def test_custom_technology_band_defaults_to_zero_to_inf(self, tmp_path, capsys):
        rc = cli.main(["feasibility", "--sigma-a", "0", "--sigma-t", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert (report["technology"]["bw_low_hz"], report["technology"]["bw_high_hz"]) == (
            0.0, "inf")

    def test_missing_spec_file_is_input_error(self, tmp_path, capsys):
        rc = cli.main(["feasibility", "--spec-file", str(tmp_path / "missing.spec"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        pytest.param("[technology]\nname =\nsigma_a = 1e-6\nsigma_t_seconds = 1e-14\n"
                     "bw_low_hz = 0\nbw_high_hz = 1e12\n",
                     "technology: technology name must be nonempty\n", id="empty-name"),
        # configparser's own text follows, which may vary with the Python version
        pytest.param("[platform]\nt2_seconds\n", "unparseable spec file: ", id="unparseable"),
        pytest.param("t2_seconds = 1e-3\n", "unparseable spec file: ", id="no-section-header"),
    ])
    def test_bad_spec_file_is_input_error(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(text, encoding="utf-8")
        rc = cli.main(["feasibility", "--spec-file", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: spec file {spec}: {message}")
        assert "<string>" not in err  # configparser's own text names the file too
        assert not (tmp_path / "out").exists()

    def test_internal_error_maps_to_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(budget, "feasibility", boom)
        rc = cli.main(["feasibility", "--platform", "si-spin", "--sigma-a", "0",
                       "--sigma-t", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "synthetic failure" in err


class TestGateCommand:
    def _value(self, stdout, label):
        for line in stdout.splitlines():
            if line.startswith(label):
                return float(line.split(":")[1])
        raise AssertionError(f"no line starting with {label!r} in output")

    def test_amplitude_error_report(self, capsys):
        rc = cli.main(["gate", "--alpha", "0.5", "--dj", "1e-5", "--dt", "0"])
        assert rc == 0
        stdout = capsys.readouterr().out
        infidelity = self._value(stdout, "infidelity")
        assert infidelity == pytest.approx((3.0 / 16.0) * (math.pi / 2 * 1e-5) ** 2, rel=1e-9)
        exact = self._value(stdout, "delta_theta exact")
        first = self._value(stdout, "delta_theta first-order")
        assert first == pytest.approx(math.pi / 2 * 1e-5, rel=1e-12)
        assert exact == pytest.approx(first, rel=1e-9)

    def test_zero_phase_error(self, capsys):
        rc = cli.main(["gate", "--alpha", "1", "--phase-error", "0"])
        assert rc == 0
        assert self._value(capsys.readouterr().out, "infidelity") == 0.0

    def test_pi_phase_error(self, capsys):
        rc = cli.main(["gate", "--alpha", "0.5", "--phase-error", "3.14159265"])
        assert rc == 0
        assert self._value(capsys.readouterr().out, "infidelity") == pytest.approx(0.75, abs=1e-9)

    def test_malformed_number_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gate", "--alpha", "0.5", "--phase-error", "oops"])
        assert excinfo.value.code == 2

    def test_missing_error_flags_rejected(self, capsys):
        rc = cli.main(["gate", "--alpha", "0.5"])
        assert rc == 2

    def test_conflicting_error_flags_rejected(self, capsys):
        rc = cli.main(["gate", "--alpha", "0.5", "--phase-error", "0.1", "--dj", "1e-5"])
        assert rc == 2

    def test_phase_error_with_dt_rejected(self, capsys):
        # --dt belongs to --dj, so it is never dropped silently.
        rc = cli.main(["gate", "--alpha", "0.5", "--phase-error", "0.1", "--dt", "0.5"])
        assert rc == 2
        assert "--dt" in capsys.readouterr().err

    def test_negative_alpha_is_a_valid_target(self, capsys):
        # SWAP^-0.5 is a gate; only a pulse (mc, sweep) needs alpha >= 0.
        assert cli.main(["gate", "--alpha=-0.5", "--phase-error=0.1"]) == 0


class TestMcCommand:
    def test_csv_is_byte_identical_across_runs_and_workers(self, tmp_path, capsys):
        # three blocks, the last ragged, so --workers 4 really starts a pool
        n = str(2 * montecarlo.BLOCK + 1)
        args = ["mc", "--alpha", "0.5", "--sigma-a", "1e-3", "--n", n, "--seed", "7"]
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert cli.main(args + ["--out", str(outs[0])]) == 0
        assert cli.main(args + ["--out", str(outs[1])]) == 0
        assert cli.main(args + ["--workers", "4", "--out", str(outs[2])]) == 0
        first = read_bytes(outs[0] / "mc.csv")
        assert read_bytes(outs[1] / "mc.csv") == first
        assert read_bytes(outs[2] / "mc.csv") == first

    def test_csv_header_and_analytic_column(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["mc", "--alpha", "0.5", "--sigma-a", "1e-3", "--n", "100",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = read_bytes(out / "mc.csv").decode().splitlines()
        assert lines[0] == "axis_value,mean_infidelity,stderr,analytic_prediction,n_samples,seed"
        fields = lines[1].split(",")
        assert fields[0] == ""
        assert float(fields[3]) == pytest.approx(
            (3.0 / 16.0) * (math.pi / 2) ** 2 * 1e-6, rel=1e-12
        )
        assert fields[4] == "100" and fields[5] == "3"

    def test_manifest_references_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["mc", "--n", "50", "--out", str(out)])
        manifest = json.loads(read_bytes(out / "mc_manifest.json"))
        assert [p.rsplit("/", 1)[-1] for p in manifest["outputs"]] == ["mc.csv"]
        assert manifest["seed"] == 0
        assert manifest["parameters"]["n_samples"] == 50
        assert manifest["rng_scheme"] == noise.RNG_SCHEME
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    def test_dephasing_flag_enters_analytic_prediction(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["mc", "--alpha", "0.5", "--duration", "5e-7", "--t2", "5e-4",
                       "--n", "20", "--out", str(out)])
        assert rc == 0
        row = read_bytes(out / "mc.csv").decode().splitlines()[1].split(",")
        p = 0.5 * (1.0 - math.exp(-5e-7 / 5e-4))
        assert float(row[3]) == pytest.approx(1.0 - (1.0 - p) ** 2, rel=1e-12)
        assert float(row[1]) == pytest.approx(1e-3, rel=5e-3)

    def test_zero_samples_is_input_error(self, tmp_path, capsys):
        rc = cli.main(["mc", "--n", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["mc"], ["sweep", "--axis", "t2", "--values", "1e-3"]])
    @pytest.mark.parametrize("duration", ["0", "nan", "inf", "-5e-9"])
    def test_bad_duration_is_input_error(self, tmp_path, capsys, command, duration):
        rc = cli.main(command + [f"--duration={duration}", "--n", "10",
                                 "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "duration" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flags", [["--duration", "5e-324"],
                                       ["--sigma-t", "1e-300", "--duration", "1e-310"]])
    def test_overflowing_pulse_names_duration_and_alpha(self, tmp_path, capsys, flags):
        rc = cli.main(["mc", *flags, "--n", "10", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: duration = {float(flags[-1])!r} s is too short for "
                              "alpha = 0.5: the exchange strength 2 pi alpha / duration "
                              "overflows")
        assert "Traceback" not in err

    def test_rejected_sample_is_input_error(self, tmp_path, capsys, monkeypatch):
        def reject(*args, **kwargs):
            raise noise.RejectedSampleError("synthetic rejection")

        monkeypatch.setattr(montecarlo, "estimate_infidelity", reject)
        assert cli.main(["mc", "--n", "10", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: synthetic rejection\n"
        assert not (tmp_path / "out").exists()


class TestGoldenStream:
    """The first draws of the RNG scheme's stream, pinned bit for bit.

    Gaussian draws come from numpy's standard_normal, whose stream NEP 19 does
    not promise across numpy versions; a numpy whose stream differs fails here
    instead of silently changing seeded outputs.  The byte-identity corpus
    (tests/golden) pins the seeded CLI outputs built from these draws.
    """

    SEED = 2**64 - 1
    # variates 0..3 of blocks 0 and 1 of the seed's stream, as test_noise's
    # reference_variates (numpy's own SFC64 constructor) draws them
    FIRST_DRAWS = {
        0: ["-0x1.3788f69680968p-4", "0x1.bc6f0112f01ebp-1",
            "-0x1.6024ef4f4179cp-1", "0x1.4b0c0f451c3a8p-3"],
        1: ["-0x1.885b7b7d5167cp+0", "-0x1.22df92cf4a8d4p+1",
            "0x1.0aa1948f1a114p-4", "-0x1.04068686c5e91p+0"],
    }

    @pytest.mark.parametrize("block", [0, 1])
    def test_first_draws_of_a_block(self, block):
        # sigma 2**-10 scales exactly, and T = 1 s keeps every draw physical
        spec = ControlNoiseSpec(sigma_a=2.0**-10, sigma_t_s=2.0**-10)
        amp, shift, rejected = noise.draw_errors_block(self.SEED, block, 2, 1.0, spec)
        assert not rejected.any()
        draws = [amp[0], shift[0], amp[1], shift[1]]
        assert [float(v * 2.0**10).hex() for v in draws] == self.FIRST_DRAWS[block]


class TestSweepCommand:
    def test_rows_and_analytic_column(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main([
            "sweep", "--axis", "sigma_a", "--values", "1e-4,1e-3,1e-2",
            "--alpha", "0.5", "--n", "500", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
        lines = read_bytes(out / "sweep.csv").decode().splitlines()
        assert len(lines) == 4
        for line, sigma in zip(lines[1:], (1e-4, 1e-3, 1e-2)):
            fields = line.split(",")
            assert float(fields[0]) == sigma
            assert float(fields[3]) == pytest.approx(
                (3.0 / 16.0) * (math.pi / 2) ** 2 * sigma**2, rel=1e-12
            )

    def test_csv_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["sweep", "--axis", "sigma_a", "--values", "1e-4,1e-3",
                "--n", "300", "--seed", "5"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_bytes(tmp_path / "a" / "sweep.csv") == read_bytes(tmp_path / "b" / "sweep.csv")

    def test_manifest_names_rng_scheme(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["sweep", "--axis", "t2", "--values", "1e-3", "--n", "20",
                         "--out", str(out)]) == 0
        manifest = json.loads(read_bytes(out / "sweep_manifest.json"))
        assert manifest["rng_scheme"] == noise.RNG_SCHEME
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    def test_unknown_axis_is_input_error(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "voltage", "--values", "1,2",
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    # epsilon is a threshold, for feasibility; its sweep axis and aliases are retired
    @pytest.mark.parametrize("axis", ["epsilon", "epsilon-reference-line",
                                      "epsilon_reference_line"])
    def test_retired_epsilon_axis_is_input_error(self, tmp_path, capsys, draws, axis):
        rc = cli.main(["sweep", "--axis", axis, "--values", "1e-5", "--n", "20",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unknown sweep axis {axis!r}; expected one of "
            "('sigma_a', 'sigma_t', 't2', 'target_alpha')\n")
        assert draws == []
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_empty_values_is_input_error(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "sigma_a", "--values", ",",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: values must contain at least one number\n"

    # The field each axis's record names when it rejects a value.
    AXIS_FIELDS = {"sigma_a": "sigma_a", "sigma_t": "sigma_t_s", "t2": "T2",
                   "target_alpha": "alpha"}

    @pytest.mark.parametrize("axis", montecarlo.SWEEP_AXES)
    def test_nan_value_is_input_error_naming_the_axis_field(self, tmp_path, capsys, draws, axis):
        rc = cli.main(["sweep", "--axis", axis, "--values", "1e-3,nan", "--n", "2000000",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {self.AXIS_FIELDS[axis]} must ") and err.endswith(
            "got nan\n"), err
        assert draws == []
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_non_numeric_value_is_input_error_naming_flag_and_token(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "t2", "--values", "1e-3,abc",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--values" in err and "'abc'" in err

    def test_bad_value_anywhere_exits_before_any_draw(self, tmp_path, capsys, draws):
        rc = cli.main(["sweep", "--axis", "t2", "--values", "1e-3,-1", "--n", "2000000",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "T2 must be > 0 (math.inf allowed), got -1.0" in capsys.readouterr().err
        assert draws == []
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestManifestParameters:
    """Manifest parameters mirror the records, so no input field is dropped."""

    @pytest.mark.parametrize("t2", [None, "1e-3"])
    def test_mc_and_sweep_parameters_are_the_config_plus_workers(self, tmp_path, capsys, t2):
        cfg = McConfig(n_samples=50, seed=3, target_alpha=0.25,
                       nominal=pulse_for_target(0.25, 2e-8),
                       noise=ControlNoiseSpec(1e-3, 1e-12, "uniform"),
                       dephasing=DephasingSpec(float(t2)) if t2 else None, sensitivity=2.0)
        argv = ["--alpha", "0.25", "--duration", "2e-8", "--sigma-a", "1e-3",
                "--sigma-t", "1e-12", "--distribution", "uniform", "--sensitivity", "2",
                "--n", "50", "--seed", "3", "--workers", "2"] + (["--t2", t2] if t2 else [])
        expected = json.loads(json_oracle({**asdict(cfg), "workers": 2}))
        assert cli.main(["mc", *argv, "--out", str(tmp_path / "mc")]) == 0
        assert cli.main(["sweep", *argv, "--axis", "sigma_a",
                         "--values", "1e-5,1e-4", "--out", str(tmp_path / "sweep")]) == 0
        mc = json.loads(read_bytes(tmp_path / "mc" / "mc_manifest.json"))
        sweep = json.loads(read_bytes(tmp_path / "sweep" / "sweep_manifest.json"))
        assert mc["parameters"] == expected
        assert set(mc["parameters"]["noise"]) == {"sigma_a", "sigma_t_s", "distribution"}
        assert sweep["parameters"] == {**expected, "axis": "sigma_a", "values": [1e-5, 1e-4]}

    @pytest.mark.parametrize("axis, values", [("sigma_a", "1e-5,1e-4"),
                                              ("sigma_t", "1e-13,1e-12"),
                                              ("t2", "5e-4,inf"),
                                              ("target_alpha", "0.25,0.75")])
    def test_parameters_are_asdict_of_the_config(self, tmp_path, capsys, axis, values):
        # dataclasses.asdict is the oracle of the records' JSON form
        argv = ["--alpha", "0.75", "--duration", "1e-8", "--sigma-a", "2e-3", "--sigma-t",
                "1e-12", "--t2", "1e-3", "--sensitivity", "0.5", "--n", "20", "--seed", "7",
                "--workers", "3"]
        cfg = cli._mc_config(cli._build_parser("mc").parse_args(["mc", *argv]))
        expected = json.loads(cli._json_text({**asdict(cfg), "workers": 3}))
        assert cli.main(["mc", *argv, "--out", str(tmp_path / "mc")]) == 0
        assert cli.main(["sweep", *argv, "--axis", axis, "--values", values,
                         "--out", str(tmp_path / "sweep")]) == 0
        mc = json.loads(read_bytes(tmp_path / "mc" / "mc_manifest.json"))
        sweep = json.loads(read_bytes(tmp_path / "sweep" / "sweep_manifest.json"))
        assert mc["parameters"] == expected
        assert sweep["parameters"] == {
            **expected, "axis": axis,
            "values": json.loads(cli._json_text([float(v) for v in values.split(",")]))}

    def test_mc_without_t2_is_mc_with_infinite_t2(self, tmp_path, capsys):
        argv = ["mc", "--sigma-a", "1e-3", "--sigma-t", "1e-12", "--n", "50", "--seed", "5"]
        assert cli.main([*argv, "--out", str(tmp_path / "omitted")]) == 0
        assert cli.main([*argv, "--t2", "inf", "--out", str(tmp_path / "inf")]) == 0
        omitted, inf = (json.loads(read_bytes(tmp_path / name / "mc_manifest.json"))
                        for name in ("omitted", "inf"))
        assert omitted["parameters"] == inf["parameters"]
        assert omitted["parameters"]["dephasing"] == {"t2_q1_s": "inf", "t2_q2_s": "inf"}
        assert (read_bytes(tmp_path / "omitted" / "mc.csv")
                == read_bytes(tmp_path / "inf" / "mc.csv"))

    @pytest.mark.parametrize("strict", [[], ["--strict-bandwidth"]])
    def test_feasibility_parameters_are_the_report_inputs(self, tmp_path, capsys, strict):
        out = tmp_path / "out"
        assert cli.main(["feasibility", "--platform", "si-spin", "--tech",
                         "modelocked-laser-10GHz", "--epsilon", "1e-4", "--out", str(out),
                         *strict]) == 0
        report = json.loads(read_bytes(out / "feasibility.json"))
        params = json.loads(read_bytes(out / "feasibility_manifest.json"))["parameters"]
        assert set(params) == {"platform", "technology", "epsilon", "strict_bandwidth"}
        assert params == {key: report[key] for key in params}
        assert set(report) - set(params) == {f.name for f in fields(budget.FeasibilityReport)}
        assert params["strict_bandwidth"] is bool(strict)


# Leaves that stress json's output: quotes, backslashes, control, non-ASCII and lone
# surrogate characters; signed zeros, subnormals, the largest doubles and non-finite
# floats; bools, None and ints to 2**64 - 1.
JSON_STRINGS = ["", "a", 'say "hi"', "back\\slash\\", "tab\tnew\nline\rcr\f\b",
                "\x00\x01\x1f\x7f", "µs ±1 °C", "日本語", "\u2028\u2029", "smile \U0001F600",
                "\ud800", "/", "inf", "null"]
JSON_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-320, 1e308,
               1.7976931348623157e308, -1e308, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
               1e-5, 1e16, 123456789.0, 2.0**53 + 2]
JSON_INTS = [0, 1, -1, 7, 2**31, 2**53 + 1, 2**63 - 1, -2**63, 2**64 - 1, True, False, None]


def json_records():
    """Real records: the catalog's TechnologySpecs, FeasibilityReports (feasible and
    not, with and without a window) and McConfigs (with and without dephasing)."""
    tech = budget.builtin_catalog()
    si = budget.builtin_platforms()["si-spin"]
    reports = [budget.feasibility(si, t, eps, strict_bandwidth=strict)
               for t in tech for eps in (1e-7, 1e-5, 1e-2) for strict in (False, True)]
    configs = [McConfig(n_samples=100, seed=2**64 - 1, target_alpha=0.5,
                        nominal=pulse_for_target(0.5, 5e-9),
                        noise=ControlNoiseSpec(1e-3, 1e-12, "uniform"), dephasing=dephasing)
               for dephasing in (None, DephasingSpec(5e-4), DephasingSpec(math.inf))]
    return [*tech, *reports, *configs]


def random_json_value(rng, records, depth=0):
    """A seeded nested value of dicts, lists and tuples (empty ones included) over
    the JSON_* leaves, random floats and strings, and the records."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(JSON_STRINGS + ["".join(map(chr, rng.choices(range(0x250), k=5)))])
    if kind == 1:
        return rng.choice(JSON_FLOATS + [rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308),
                                         struct.unpack("<d", rng.randbytes(8))[0]])
    if kind == 2:
        return rng.choice(JSON_INTS + [rng.randint(-2**64, 2**64 - 1)])
    if kind in (3, 4):
        return rng.choice(records)
    items = [random_json_value(rng, records, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return tuple(items)
    if kind == 6:
        return items
    return {rng.choice(JSON_STRINGS) + str(rng.randrange(3)): item for item in items}


class TestJsonText:
    """cli._json_text writes what json.dumps(indent=2, sort_keys=True) writes."""

    def test_seeded_nested_values_match_json_dumps(self):
        rng = random.Random(20261020)
        records = json_records()
        values = [random_json_value(rng, records) for _ in range(2500)]
        for leaf in JSON_STRINGS + JSON_FLOATS + JSON_INTS + records + [{}, [], ()]:
            values += [leaf, [leaf], (leaf,), {"k": leaf}]
        values += [{key: 1.0 for key in JSON_STRINGS}, {"a": {}, "b": [], "c": ()}]
        for index, value in enumerate(values):
            assert cli._json_text(value) == json_oracle(value), (index, value)
        assert {type(record) for record in records} == {
            budget.TechnologySpec, budget.FeasibilityReport, McConfig}

    def test_non_finite_floats_are_strings(self):
        assert cli._json_text([math.inf, -math.inf, math.nan]) == (
            '[\n  "inf",\n  "-inf",\n  "nan"\n]\n')

    @pytest.mark.parametrize("value", [{1, 2}, 1j, np.int64(3), {(1, 2): 0.0},
                                       {"ok": [{"nested": {1.5}}]}],
                             ids=["set", "complex", "np.int64", "tuple-key", "nested-set"])
    def test_what_json_dumps_rejects_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text(value)


class TestOutputRewrite:
    """Outputs are rewritten in place: opened without O_TRUNC, cut to length after."""

    COMMANDS = {
        "feasibility": (["feasibility", "--platform", "si-spin", "--tech",
                         "modelocked-laser-10GHz", "--epsilon", "1e-5"],
                        ["feasibility.txt", "feasibility.json"]),
        "mc": (["mc", "--sigma-a", "1e-3", "--sigma-t", "1e-12", "--n", "100", "--seed", "5"],
               ["mc.csv"]),
        "sweep": (["sweep", "--axis", "t2", "--values", "5e-5,1e-4,5e-4,1e-3,5e-3",
                   "--sigma-a", "1e-3", "--t2", "1e-3", "--n", "100", "--seed", "5"],
                  ["sweep.csv"]),
    }

    @staticmethod
    def fill_with_junk(out, names, size):
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            (out / name).write_bytes(b"stale,junk\n" * (size // 11 + 1))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rewrite_over_longer_stale_files_equals_a_fresh_run(self, tmp_path, capsys, command):
        argv, primary = self.COMMANDS[command]
        manifest = f"{command}_manifest.json"
        assert cli.main(argv + ["--out", str(tmp_path / "fresh")]) == 0
        fresh = {name: read_bytes(tmp_path / "fresh" / name) for name in primary}
        longest = max(len(read_bytes(tmp_path / "fresh" / name)) for name in primary + [manifest])
        self.fill_with_junk(tmp_path / "stale", primary + [manifest], 4 * longest)
        assert cli.main(argv + ["--out", str(tmp_path / "stale")]) == 0
        for name in primary:
            assert read_bytes(tmp_path / "stale" / name) == fresh[name]
        assert json.loads(read_bytes(tmp_path / "stale" / manifest))["command"] == command

    def test_one_row_sweep_over_a_five_row_csv(self, tmp_path, capsys):
        argv, _ = self.COMMANDS["sweep"]
        one_row = list(argv)
        one_row[argv.index("--values") + 1] = "1e-3"
        assert cli.main(one_row + ["--out", str(tmp_path / "fresh")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert cli.main(one_row + ["--out", str(tmp_path / "out")]) == 0
        written = read_bytes(tmp_path / "out" / "sweep.csv")
        assert written == read_bytes(tmp_path / "fresh" / "sweep.csv")
        assert len(written.splitlines()) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_output_is_opened_with_o_trunc(self, tmp_path, capsys, monkeypatch, command):
        argv, primary = self.COMMANDS[command]
        out = tmp_path / "out"
        self.fill_with_junk(out, primary, 1)  # existing files, as in a rerun
        opened = {}
        os_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert cli.main(argv + ["--out", str(out)]) == 0
        written = {str(out / name) for name in primary + [f"{command}_manifest.json"]}
        assert written <= set(opened)  # every output goes through os.open
        assert not [path for path in written if opened[path] & os.O_TRUNC]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_new_output_gets_mode_0o666_less_the_umask(self, tmp_path, capsys, command):
        argv, primary = self.COMMANDS[command]
        umask = os.umask(0o027)
        try:
            assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(umask)
        for name in primary + [f"{command}_manifest.json"]:
            assert stat.S_IMODE(os.stat(tmp_path / "out" / name).st_mode) == 0o666 & ~0o027

    @pytest.mark.parametrize("command", COMMANDS)
    def test_short_writes_give_a_fresh_runs_outputs(self, tmp_path, capsys, monkeypatch,
                                                    command):
        argv, primary = self.COMMANDS[command]
        manifest = f"{command}_manifest.json"
        assert cli.main(argv + ["--out", str(tmp_path / "fresh")]) == 0
        self.fill_with_junk(tmp_path / "short", primary + [manifest], 4000)
        calls = []
        os_write = os.write

        def short_write(fd, data):  # at most 7 bytes per call, as a slow pipe or disk may
            calls.append(len(data))
            return os_write(fd, data[:7])

        monkeypatch.setattr(os, "write", short_write)
        assert cli.main(argv + ["--out", str(tmp_path / "short")]) == 0
        monkeypatch.undo()
        assert len(calls) > sum(len(read_bytes(tmp_path / "fresh" / name)) for name in primary) / 7
        for name in primary:
            assert read_bytes(tmp_path / "short" / name) == read_bytes(tmp_path / "fresh" / name)
        fresh, short = (json.loads(read_bytes(tmp_path / out / manifest))
                        for out in ("fresh", "short"))
        for record, out in ((fresh, "fresh"), (short, "short")):
            del record["duration_seconds"]
            record["outputs"] = [os.path.relpath(path, tmp_path / out)
                                 for path in record["outputs"]]
        assert short == fresh

    @pytest.mark.parametrize("command, name", [
        ("mc", "mc.csv"), ("sweep", "sweep.csv"), ("feasibility", "feasibility.txt"),
        ("feasibility", "feasibility.json"), ("mc", "mc_manifest.json"),
    ])
    def test_output_path_that_is_a_directory_is_input_error(self, tmp_path, capsys, command,
                                                            name):
        argv, _ = self.COMMANDS[command]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)

        def lowest_free_fd():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        before = lowest_free_fd()
        rc = cli.main(argv + ["--out", str(out)])
        after = lowest_free_fd()
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and str(out / name) in err
        assert "Traceback" not in err
        assert after == before  # no descriptor left open


def oracle_parser():
    """The parser argparse gives with all five subparsers of cli.COMMANDS registered,
    each with its flags and handler: the reference that cli's parser reads and prints as."""
    parser = argparse.ArgumentParser(
        prog="exchsim",
        description="Exchange-gate noise budgets, feasibility verdicts, and Monte Carlo checks.",
    )
    parser.add_argument("--version", action="version", version=f"exchsim {cli.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, func) in cli.COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_flags(command)
        command.set_defaults(func=func)
        command._negative_number_matcher = cli._NEGATIVE_NUMBER
    return parser


class TestParser:
    def test_every_top_level_option_takes_no_value(self):
        """main takes the first argument without a leading "-" for the command,
        which argparse reads as the command only while no top-level option
        consumes the argument after it."""
        options = [action for action in cli._build_parser()._actions if action.option_strings]
        assert options
        assert all(action.nargs == 0 for action in options), [
            (action.option_strings, action.nargs) for action in options]

    @pytest.mark.parametrize("command", [None, "bogus", *cli.COMMANDS])
    def test_a_parser_defines_the_flags_and_handler_of_its_command_only(self, command):
        subparsers = next(action for action in cli._build_parser(command)._actions
                          if isinstance(action, argparse._SubParsersAction))
        # every command is a choice with a help line, but only `command` has a parser
        assert list(subparsers.choices) == list(cli.COMMANDS)
        assert [action.dest for action in subparsers._choices_actions] == list(cli.COMMANDS)
        assert [name for name, parser in subparsers.choices.items() if parser is not None] == (
            [command] if command in cli.COMMANDS else [])
        assert subparsers.metavar is None
        if command in cli.COMMANDS:
            parser = subparsers.choices[command]
            flags = {option for action in parser._actions for option in action.option_strings}
            assert flags - {"-h", "--help"}
            assert parser.get_default("func") == cli.COMMANDS[command][2]

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_a_build_reads_the_terminal_width_once(self, command, monkeypatch):
        """argparse's HelpFormatter reads the terminal size each time it is built,
        which add_argument and add_subparsers do; the build reads it once."""
        calls = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size",
                            lambda *args: calls.append(args) or size(*args))
        cli._build_parser(command)
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [[], *([command] for command in cli.COMMANDS)],
                             ids=lambda argv: argv[0] if argv else "top-level")
    def test_each_call_prints_help_at_its_own_width(self, argv, capsys, monkeypatch):
        """Two main calls in one process, at two widths, each print the oracle's help
        at its width: the width is read per call, not kept from the first one."""
        printed = {}
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*argv, "--help"])
            assert exit_info.value.code == 0
            oracle = oracle_parser()
            if argv:
                oracle = next(action for action in oracle._actions
                              if isinstance(action, argparse._SubParsersAction)).choices[argv[0]]
            printed[columns] = capsys.readouterr().out
            assert printed[columns] == oracle.format_help()
        assert printed["60"] != printed["200"]

    @pytest.mark.parametrize("argv, built_for", [
        (["--version"], None), ([], None), (["bogus"], "bogus"), (["-x", "mc"], "mc"),
        (["--", "mc"], "mc"), (["-h", "mc"], "mc"), (["--bogus", "mc"], "mc"),
        (["mc", "extra"], "mc"), (["mc", "-h"], "mc"), (["gate", "--alpha", "-2e-5"], "gate"),
        (["feasibility", "--tech", "mc"], "feasibility")])
    def test_the_command_main_builds_for_is_the_one_argparse_reads(self, argv, built_for, capsys,
                                                                    monkeypatch):
        """main builds the parser for the first argument without a leading "-"."""
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda name: built.append(name) or build(name))
        monkeypatch.setattr(cli, "COMMANDS", {name: (help_text, add_flags, lambda args: 0)
                                              for name, (help_text, add_flags, _)
                                              in cli.COMMANDS.items()})
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        capsys.readouterr()
        assert built == [built_for]

    @pytest.mark.parametrize("columns", ["60", "80", "200"])
    @pytest.mark.parametrize("argv", [
        ["feasibility", "--platform", "si-spin", "--tech", "electrical-pulse-generator",
         "--epsilon", "1e-4", "--strict-bandwidth"],
        ["gate", "--alpha", "0.25", "--dj", "1e-4", "--dt", "-2e-5"],
        ["mc", "--sigma-a", "1e-3", "--t2", "5e-4", "--n", "300", "--workers", "2"],
        ["sweep", "--axis", "sigma_a", "--values", "-1e-3,1e-3", "--seed", "4"],
        ["catalog", "--format", "json"]], ids=lambda argv: argv[0])
    def test_the_lone_command_parser_reads_and_prints_as_the_full_one(self, argv, columns,
                                                                      monkeypatch):
        """The parser with the invoked command's subparser alone prints the usage and
        help of the oracle, at the top level and for the command, and reads a valid
        argv to the same namespace."""
        monkeypatch.setenv("COLUMNS", columns)  # argparse wraps to the terminal width
        built, oracle = cli._build_parser(argv[0]), oracle_parser()

        def texts(parser):
            command = next(action for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction)).choices[argv[0]]
            return [parser.format_usage(), parser.format_help(),
                    command.format_usage(), command.format_help()]

        assert texts(built) == texts(oracle)
        assert vars(built.parse_args(argv)) == vars(oracle.parse_args(argv))

    def test_main_reads_every_short_argv_as_the_oracle(self, monkeypatch):
        """Each of the 400 argvs of up to three of these tokens gives the exit code,
        stdout, stderr and namespace of the parser with all five subparsers."""
        monkeypatch.setenv("COLUMNS", "80")
        namespaces = []
        monkeypatch.setattr(cli, "COMMANDS", {name: (help_text, add_flags,
                                                     lambda args: namespaces.append(args) or 0)
                                              for name, (help_text, add_flags, _)
                                              in cli.COMMANDS.items()})

        def outcome(call, argv):
            namespaces.clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = call(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue(), [vars(args) for args in namespaces]

        def oracle_main(argv):
            args = oracle_parser().parse_args(argv)
            return args.func(args)

        tokens = ["mc", "bogus", "-x", "-5", "-", "--", "-h"]
        argvs = [list(argv) for length in range(4)
                 for argv in itertools.product(tokens, repeat=length)]
        assert len(argvs) == 400
        assert [argv for argv in argvs
                if outcome(cli.main, argv) != outcome(oracle_main, argv)] == []

    @pytest.mark.parametrize("order", [("feasibility", "mc"), ("mc", "feasibility")])
    def test_consecutive_calls_equal_each_call_alone(self, tmp_path, capsys, monkeypatch, order):
        argvs = {"feasibility": ["feasibility", "--platform", "si-spin", "--tech",
                                 "electrical-pulse-generator", "--out", "out"],
                 "mc": ["mc", "--sigma-a", "1e-3", "--sigma-t", "1e-12", "--t2", "5e-4",
                        "--n", "300", "--seed", "4", "--out", "out"]}

        def run(command):
            rc = cli.main(argvs[command])
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        def outputs():
            return {path.name: read_bytes(path) for path in sorted((tmp_path / "out").glob("*"))
                    if not path.name.endswith("_manifest.json")}

        monkeypatch.chdir(tmp_path)
        alone, alone_files = {}, {}
        for command in order:
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            alone[command] = run(command)
            alone_files.update(outputs())
        shutil.rmtree(tmp_path / "out")
        assert {command: run(command) for command in order} == alone
        assert outputs() == alone_files
        assert all(rc == 0 for rc, _, _ in alone.values())


class TestCatalogCommand:
    def test_lists_builtin_entries(self, capsys):
        assert cli.main(["catalog"]) == 0
        stdout = capsys.readouterr().out
        assert "electrical-pulse-generator" in stdout
        assert "modelocked-laser-10GHz" in stdout

    def test_json_format_parses(self, capsys):
        assert cli.main(["catalog", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in entries}
        assert {"electrical-pulse-generator", "modelocked-laser-10GHz"} <= names
        for entry in entries:
            assert set(entry) == {"name", "sigma_a", "sigma_t_s", "bw_low_hz",
                                  "bw_high_hz", "notes"}

    def test_json_is_asdict_of_each_merged_entry(self, tmp_path, capsys, monkeypatch):
        extra = tmp_path / "extra.spec"
        extra.write_text(ELECTRICAL_INI_EXTRA)
        monkeypatch.delenv(cli.CATALOG_ENV_VAR, raising=False)
        assert cli.main(["catalog", "--format", "json", "--file", str(extra)]) == 0
        entries = budget.merge_catalog(cli._user_technologies(str(extra)))
        assert "house-generator" in {entry.name for entry in entries}
        assert capsys.readouterr().out == cli._json_text([asdict(entry) for entry in entries])

    def test_json_writes_inf_band_edge_as_string(self, tmp_path, capsys):
        extra = tmp_path / "extra.spec"
        extra.write_text(ELECTRICAL_INI_EXTRA.replace("2e9", "inf"))
        assert cli.main(["catalog", "--file", str(extra), "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        entries = json.loads(capsys.readouterr().out, parse_constant=reject)
        (entry,) = [e for e in entries if e["name"] == "house-generator"]
        assert entry["bw_high_hz"] == "inf"

    def test_user_file_merges(self, tmp_path, capsys):
        extra = tmp_path / "extra.spec"
        extra.write_text(ELECTRICAL_INI_EXTRA)
        assert cli.main(["catalog", "--file", str(extra)]) == 0
        assert "house-generator" in capsys.readouterr().out

    def test_name_collision_is_input_error(self, tmp_path, capsys):
        clash = tmp_path / "clash.spec"
        clash.write_text(ELECTRICAL_INI_EXTRA.replace("house-generator",
                                                      "electrical-pulse-generator"))
        rc = cli.main(["catalog", "--file", str(clash)])
        assert rc == 2
        assert "collision" in capsys.readouterr().err

    def test_env_var_catalog(self, tmp_path, capsys, monkeypatch):
        extra = tmp_path / "env.spec"
        extra.write_text(ELECTRICAL_INI_EXTRA)
        monkeypatch.setenv(cli.CATALOG_ENV_VAR, str(extra))
        assert cli.main(["catalog"]) == 0
        assert "house-generator" in capsys.readouterr().out

    def test_env_var_feeds_feasibility_tech_lookup(self, tmp_path, capsys, monkeypatch):
        extra = tmp_path / "env.spec"
        extra.write_text(ELECTRICAL_INI_EXTRA)
        monkeypatch.setenv(cli.CATALOG_ENV_VAR, str(extra))
        rc = cli.main(["feasibility", "--platform", "si-spin", "--tech", "house-generator",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))
        assert report["technology"]["name"] == "house-generator"

    @pytest.mark.parametrize("at_fault", ["EXCHSIM_CATALOG", "--file"])
    def test_spec_file_error_names_the_file_at_fault(self, tmp_path, capsys, monkeypatch,
                                                     at_fault):
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text(ELECTRICAL_INI_EXTRA)
        bad.write_text(ELECTRICAL_INI_EXTRA.replace("sigma_a = 2e-3", "sigma_a = tiny"))
        env_path, file_path = (bad, good) if at_fault == "EXCHSIM_CATALOG" else (good, bad)
        monkeypatch.setenv(cli.CATALOG_ENV_VAR, str(env_path))
        assert cli.main(["catalog", "--file", str(file_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: spec file {bad}: technology.sigma_a: not a number: 'tiny'\n")



@pytest.mark.parametrize("route", ["catalog --file", "EXCHSIM_CATALOG", "feasibility --spec-file"])
def test_spec_file_is_read_as_utf8_in_a_c_locale(tmp_path, route):
    """A fresh interpreter in the C locale, without UTF-8 mode, reads a UTF-8 spec
    file on each of the three routes that load one."""
    notes = "240 fs \u00b5-wave"
    (tmp_path / "u.ini").write_bytes((ELECTRICAL_INI_EXTRA + f"notes = {notes}\n").encode())
    env = {key: value for key, value in os.environ.items()
           if key not in (cli.CATALOG_ENV_VAR, "PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(LC_ALL="C", PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = {"catalog --file": ["catalog", "--file", "u.ini", "--format", "json"],
            "EXCHSIM_CATALOG": ["catalog", "--format", "json"],
            "feasibility --spec-file": ["feasibility", "--platform", "si-spin",
                                        "--spec-file", "u.ini", "--out", "out"]}[route]
    if route == "EXCHSIM_CATALOG":
        env[cli.CATALOG_ENV_VAR] = "u.ini"
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "exchsim.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    if route == "feasibility --spec-file":
        assert json.loads(read_bytes(tmp_path / "out" / "feasibility.json"))[
            "technology"]["notes"] == notes
    else:
        entries = json.loads(done.stdout)
        assert [e["notes"] for e in entries if e["name"] == "house-generator"] == [notes]


def test_spec_file_that_is_not_utf8_is_input_error_naming_the_path(tmp_path, capsys):
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes((ELECTRICAL_INI_EXTRA + "notes = 240 fs \u00b5-wave\n").encode("latin-1"))
    assert cli.main(["catalog", "--file", str(latin1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec file {latin1} is not UTF-8: ")
    assert "Traceback" not in err


FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "", "1e308", "5e-324", "1e-320", "1e-300"]
MC_FLAGS = ["--alpha", "--duration", "--sigma-a", "--sigma-t", "--t2", "--sensitivity",
            "--n", "--seed", "--workers"]
MC_BASE = {"--n": "50", "--seed": "3", "--sigma-a": "1e-3", "--sigma-t": "1e-12",
           "--t2": "1e-3"}
FUZZ_BASES = {
    "mc": (MC_BASE, MC_FLAGS),
    "sweep": ({**MC_BASE, "--axis": "sigma_a", "--values": "1e-3"}, MC_FLAGS),
    "feasibility": ({"--t2": "5e-4", "--sensitivity": "1", "--sigma-a": "1e-3",
                     "--sigma-t": "1e-12"},
                    ["--t2", "--sensitivity", "--sigma-a", "--sigma-t", "--bw-low", "--bw-high",
                     "--epsilon"]),
    "gate": ({"--alpha": "0.5", "--dj": "1e-3"}, ["--alpha", "--phase-error", "--dj", "--dt"]),
}


# Whole commands beyond the one-flag grid: an alpha whose phase pi*alpha
# squares past the largest double, and a negative alpha, which no pulse
# (exchange strength J >= 0) realizes.
ALPHA_COMMANDS = [["mc", "--alpha=1e160", "--duration=1", "--n=10"],
                  ["gate", "--alpha=1e308", "--phase-error=0.1"],
                  ["mc", "--alpha=-0.5", "--n=10"],
                  ["sweep", "--axis=target_alpha", "--values=-0.5", "--n=10"]]
# And, against a tiny alpha, a relative jitter sigma_t / T whose square
# overflows, and relative sigmas whose product a s overflows.
FUZZ_COMMANDS = ALPHA_COMMANDS + [
    ["mc", "--duration=1e30", "--sigma-t=1e300", "--alpha=1e-300", "--n=20"],
    ["sweep", "--axis=sigma_t", "--values=1e300", "--duration=1e30", "--sigma-t=1e300",
     "--alpha=1e-300", "--n=20"],
    ["mc", "--alpha=1e-300", "--duration=1", "--sigma-a=1e154", "--sigma-t=1e154",
     "--n=20000"],
    ["mc", "--alpha=1e-300", "--duration=1", "--sigma-a=1e301", "--sigma-t=1e301", "--n=20"],
    ["feasibility", "--t2=1e-320", "--sensitivity=1", "--sigma-a=0", "--sigma-t=0",
     "--strict-bandwidth"]]


# Values for the pairs of flags: FUZZ_VALUES and magnitudes whose products or
# squares leave double range.
PAIR_VALUES = FUZZ_VALUES + ["1e-30", "1", "1e30", "1e300", "1e154", "1e-154"]
PAIR_DRAWS = 2  # seeded value pairs per pair of flags


def fuzz_cases():
    """Each numeric flag of each command given each FUZZ_VALUE, --values on
    each sweep axis, each of FUZZ_COMMANDS, and each pair of a command's
    numeric flags given PAIR_DRAWS seeded pairs of PAIR_VALUES; one case is a
    list of argvs."""
    def command_argv(command, base, values):
        options = {**base, **values}
        if "--phase-error" in values and "--dj" not in values:
            del options["--dj"]  # the two error inputs exclude each other
        return [command] + [f"{name}={v}" for name, v in options.items()]

    for command, (base, flags) in FUZZ_BASES.items():
        for flag in flags:
            yield pytest.param([command_argv(command, base, {flag: value})
                                for value in FUZZ_VALUES], id=f"{command} {flag}")
    for axis in montecarlo.SWEEP_AXES:
        base = {**FUZZ_BASES["sweep"][0], "--axis": axis}
        yield pytest.param([command_argv("sweep", base, {"--values": value})
                            for value in FUZZ_VALUES], id=f"sweep --axis={axis} --values")
    for argv in FUZZ_COMMANDS:
        yield pytest.param([argv], id=" ".join(argv))
    rng = random.Random(0)
    for command, (base, flags) in FUZZ_BASES.items():
        for pair in itertools.combinations(flags, 2):
            yield pytest.param(
                [command_argv(command, base, {flag: rng.choice(PAIR_VALUES) for flag in pair})
                 for _ in range(PAIR_DRAWS)],
                id=f"{command} {' '.join(pair)}")


def has_nan(value):
    if isinstance(value, dict):
        return any(has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(has_nan(v) for v in value)
    return value == "nan" or (isinstance(value, float) and math.isnan(value))


@pytest.mark.parametrize("argvs", fuzz_cases())
def test_numeric_flag_exits_0_or_2_without_traceback_or_nan_output(tmp_path, capsys, argvs):
    for k, argv in enumerate(argvs):
        out = tmp_path / str(k)
        if argv[0] != "gate":
            argv = argv + [f"--out={out}"]
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a non-number with status 2
            rc = exc.code
        captured = capsys.readouterr()
        assert rc in (0, 2), argv
        assert "Traceback" not in captured.err, argv
        assert not re.search(r"\bnan\b", captured.out), argv
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                assert not any(has_nan(row) for row in csv.reader(fh)), argv
        for path in out.glob("*.json"):
            assert not has_nan(json.loads(read_bytes(path))), argv


NEGATIVE_VALUES = ["-2e-5", "-1.5E+3", "-.5e300", "-inf", "-Infinity", "-nan", "-1e-3,1e-3"]


@pytest.mark.parametrize("command, flag", [pytest.param(command, flag, id=f"{command} {flag}")
                                           for command, (_, flags) in FUZZ_BASES.items()
                                           for flag in flags]
                         + [pytest.param("sweep", "--values", id="sweep --values")])
def test_negative_exponent_value_reads_as_in_the_equals_form(tmp_path, capsys, command, flag):
    """`--flag -2e-5` gives the exit code, stdout, stderr and files of `--flag=-2e-5`,
    and likewise -inf, -Infinity, -nan and a comma list that starts with a negative
    number: argparse's own negative-number pattern has neither an exponent nor inf, nan
    and commas, so it read them as options and failed with "expected one argument"."""
    base, _ = FUZZ_BASES[command]
    out = tmp_path / "out"
    for value in NEGATIVE_VALUES:
        options = {**base, flag: value}
        if flag == "--phase-error":
            del options["--dj"]  # the two error inputs exclude each other
        if command != "gate":
            options["--out"] = str(out)
        seen = []
        for argv in ([command] + [f"{name}={v}" for name, v in options.items()],
                     [command] + [arg for item in options.items() for arg in item]):
            shutil.rmtree(out, ignore_errors=True)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
            files = {path.name: read_bytes(path) for path in sorted(out.glob("*"))
                     if not path.name.endswith("_manifest.json")}
            seen.append((rc, capsys.readouterr(), files))
        assert seen[0] == seen[1], argv


@pytest.mark.parametrize("argv", ALPHA_COMMANDS, ids=" ".join)
def test_alpha_whose_phase_squared_overflows_is_input_error(tmp_path, capsys, argv):
    if argv[0] != "gate":
        argv = argv + [f"--out={tmp_path}"]
    assert cli.main(argv) == 2
    assert "alpha" in capsys.readouterr().err
