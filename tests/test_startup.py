"""Start-up: the package's lazy exports, and which modules CLI commands load.

`import exchsim`, `import exchsim.cli`, a call of budget.small_noise_infidelity,
--version, --help, catalog, feasibility and gate must run without numpy; mc and
sweep load it when they run.
The CLI imports json, platform, traceback and configparser only where it uses
them, no command imports csv (it stays watched, so that a re-import shows), and
montecarlo imports concurrent.futures only for a pool of more than one worker.  Only a fresh interpreter shows what an import loads, so one
subprocess runs a list of commands and reports, after each, whether numpy and
which of those six modules were loaded, and whether the dense Kraus module
dephasing and the dense operator module core were, which no command loads: gate
prints its target from gates' rows, and mc and sweep read DephasingSpec from noise.
The CLI also imports budget, noise and dataclasses (which both import) only in
the commands and flags that use them: --version, --help and the feasibility,
gate and catalog help load none of the three, and a gate run neither budget nor
noise.  A second fresh interpreter, which imports the CLI before any other
exchsim module, checks that.
"""

import ast
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import exchsim
from exchsim import budget, cli, montecarlo, noise

# The names exchsim re-exports, by defining submodule.
EXPORTS = {
    "core": {"SWAP", "density_from_pure", "expm_hermitian", "kron", "process_fidelity",
             "spin_dot_operator"},
    "gates": {"PulseSpec", "exchange_unitary", "gate_error_vs_phase", "phase_from_pulse",
              "profile_pulse", "pulse_for_target", "relative_error_to_phase_error",
              "relative_error_to_phase_error_first_order", "swap_power_target"},
    "noise": {"ControlNoiseSpec", "DephasingSpec", "RejectedSampleError", "sample_pulse"},
    "dephasing": {"QuantumChannel4", "apply_channel", "compose_channel_after_unitary",
                  "dephasing_channel", "entanglement_fidelity"},
    "budget": {"FeasibilityReport", "PlatformSpec", "TechnologySpec", "Threshold",
               "builtin_catalog", "builtin_platforms", "feasibility", "load_specs"},
    "montecarlo": {"McConfig", "McResult", "analytic_infidelity", "estimate_infidelity",
                   "sweep"},
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}
# Public names the package or a submodule once defined and no longer does, by former submodule.
DELETED = {
    "noise": {"RectificationMap", "db_to_amplitude_snr", "db_to_power_snr", "realized_pulse",
              "rectification_exchange", "sensitivity_map", "shot_noise_relative_amplitude",
              "integrated_snr"},
    "gates": {"HBAR_JS", "P_SINGLET", "P_TRIPLET", "constant_pulse",
              "exchange_rate_from_energy"},
    "dephasing": {"average_fidelity_from_entanglement"},
    "budget": {"max_gate_time", "min_gate_time_from_jitter", "required_bandwidth"},
}
FORMER_HOME = {name: module for module, names in DELETED.items() for name in names}
README = Path(__file__).resolve().parents[1] / "README.md"

SPEC_FILE = (
    "[platform]\nt2_seconds = 0.5e-3\nsensitivity = 1.0\n\n"
    "[technology]\nname = homebrew\nsigma_a = 1e-6\nsigma_t_seconds = 1e-14\n"
    "bw_low_hz = 0\nbw_high_hz = 1e12\n\n[threshold]\nepsilon = 1e-5\n"
)

# The standard-library modules exchsim imports only in the code that uses them.
WATCHED = ("concurrent.futures", "configparser", "csv", "json", "platform", "traceback")

# The small-noise model at the paper's 80 dB amplitude control: alpha = 1/2,
# 240 fs jitter, T = 5 ns, T2 = 0.5 ms.
SMALL_NOISE_ARGS = (0.5 * math.pi, 0.5, 1e-4, 240e-15, 5e-9, 5e-4, 5e-4)

# Run in a fresh interpreter with a Python-literal list of argvs: after
# importing the package, budget (then calling small_noise_infidelity on
# SMALL_NOISE_ARGS and recording its value), the CLI, and after each cli.main
# call, record whether numpy is loaded and which WATCHED modules were added
# since the runner's first statement (so that what site loaded does not
# count); a call's record also holds its exit code, stdout and stderr.  After
# each call it also records, in a list of its own, whether the dense Kraus
# module exchsim.dephasing and the dense operator module exchsim.core are
# loaded.  json is imported only to print.
FRESH_RUNNER = f"""
import sys
site_modules = set(sys.modules)
import ast, contextlib, io
def added():
    return [name for name in {WATCHED!r} if name in sys.modules and name not in site_modules]
imports, report, dense = [], [], []
import exchsim
imports.append("numpy" in sys.modules)
imports.append(exchsim.noise.__name__)  # a submodule not imported yet, as an attribute
import exchsim.budget
imports.append(exchsim.budget.small_noise_infidelity(*{SMALL_NOISE_ARGS!r}).hex())
imports.append("numpy" in sys.modules)
import exchsim.cli
imports.append("numpy" in sys.modules)
imports.append(added())
for argv in ast.literal_eval(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = exchsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules, added()])
    dense.append(["exchsim.dephasing" in sys.modules, "exchsim.core" in sys.modules])
import json
print(json.dumps([imports, report, dense]))
"""

# The modules that version and help output do not need: budget and noise, and
# dataclasses, which both import (with inspect, ast, dis and tokenize).  A gate
# run needs only dataclasses of them, through gates.
LEAN = ("dataclasses", "exchsim.budget", "exchsim.noise")
LEAN_ARGVS = [["--version"], ["--help"],
              *[[command, "--help"] for command in ("feasibility", "gate", "catalog")],
              ["gate", "--alpha", "0.5", "--dj", "1e-4"]]

# Run in a fresh interpreter: import the CLI first, then run each of LEAN_ARGVS;
# record which LEAN modules were added since the runner's first statement after
# the import and after each cli.main call, with the call's exit code.
LEAN_RUNNER = f"""
import sys
site_modules = set(sys.modules)
import contextlib, io
def added():
    return [name for name in {LEAN!r} if name in sys.modules and name not in site_modules]
import exchsim.cli
report = [added()]
for argv in {LEAN_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = exchsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, added()])
print(repr(report))
"""

MC_ARGS = ["--alpha", "0.5", "--sigma-a", "1e-3", "--sigma-t", "1e-12", "--n", "9000",
           "--seed", "18446744073709551609"]


def command_steps(tmp_path, out):
    """(argv, exit code, loads numpy, WATCHED modules it is the first to load) of each
    command, in run order, writing under tmp_path/out."""
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_FILE)
    out_dir = str(tmp_path / out)
    return [
        (["--version"], 0, False, []),
        (["--help"], 0, False, []),
        *[([command, "--help"], 0, False, [])
          for command in ("feasibility", "gate", "mc", "sweep", "catalog")],
        (["catalog"], 0, False, []),
        (["catalog", "--format", "json"], 0, False, ["json"]),
        (["feasibility", "--platform", "si-spin", "--tech", "modelocked-laser-10GHz",
          "--out", out_dir + "/builtin"], 0, False, []),
        (["feasibility", "--spec-file", str(spec), "--out", out_dir + "/spec-file"], 0, False,
         ["configparser"]),
        (["feasibility", "--epsilon", "0", "--tech", "modelocked-laser-10GHz",
          "--out", out_dir + "/epsilon-0"], 2, False, []),
        (["gate", "--alpha", "0.5", "--dj", "1e-4"], 0, False, []),
        # the manifest records the Python version, and numpy imports platform too
        (["mc", *MC_ARGS, "--out", out_dir + "/mc"], 0, True, ["platform"]),
        # two blocks on two workers start the pool; concurrent.futures imports
        # traceback (through logging)
        (["mc", *MC_ARGS, "--workers", "2", "--out", out_dir + "/mc-workers-2"], 0, True,
         ["concurrent.futures", "traceback"]),
        (["sweep", *MC_ARGS, "--axis", "t2", "--values", "5e-5,5e-4", "--distribution",
          "uniform", "--workers", "2", "--out", out_dir + "/sweep"], 0, True, []),
    ]


def run_fresh(runner, *args):
    """The stdout of runner run with args in a fresh interpreter that imports this exchsim."""
    src = os.path.dirname(os.path.dirname(exchsim.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", runner, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The steps of command_steps, and the fresh interpreter's imports, report and
    dense-module record."""
    tmp_path = tmp_path_factory.mktemp("startup")
    steps = command_steps(tmp_path, "fresh")
    imports, report, dense = json.loads(run_fresh(FRESH_RUNNER,
                                                  repr([argv for argv, *_ in steps])))
    assert len(report) == len(dense) == len(steps)
    return tmp_path, steps, imports, report, dense


@pytest.fixture(scope="module")
def fresh(fresh_run):
    """The steps of command_steps, and the fresh interpreter's imports and report."""
    return fresh_run[:4]


class TestFreshProcess:
    def test_package_and_cli_import_without_numpy(self, fresh):
        _, _, imports, _ = fresh
        # numpy after `import exchsim`, then a submodule attribute, then the
        # small-noise model's value and numpy after `import exchsim.budget` and
        # its call, then numpy and the WATCHED modules after `import exchsim.cli`
        model = budget.small_noise_infidelity(*SMALL_NOISE_ARGS).hex()
        assert imports == [False, "exchsim.noise", model, False, False, []]

    def test_only_mc_and_sweep_load_numpy(self, fresh):
        _, steps, _, report = fresh
        assert {argv[0] for argv, _, loads_numpy, _ in steps if loads_numpy} == {"mc", "sweep"}
        for (argv, exit_code, loads_numpy, _), (code, _, err, loaded, _) in zip(steps, report):
            assert (code, loaded) == (exit_code, loads_numpy), argv
            assert (err == "") == (exit_code == 0), argv

    def test_each_watched_module_is_first_loaded_by_the_command_that_uses_it(self, fresh):
        _, steps, _, report = fresh
        loaded = []
        for (argv, *_, first_loads), record in zip(steps, report):
            loaded = sorted(loaded + first_loads)
            assert record[-1] == loaded, argv
        assert loaded == sorted(set(WATCHED) - {"csv"})  # no command imports csv

    def test_no_command_loads_the_dense_kraus_or_operator_module(self, fresh_run):
        # gate prints its target from gates' rows and mc and sweep read the T2 record
        # from noise; the Kraus channels and the dense operators stay unloaded
        _, steps, _, _, dense = fresh_run
        assert {argv[0] for argv, *_ in steps} >= {"gate", "mc", "sweep"}
        assert dense == [[False, False]] * len(steps)

    def test_bad_epsilon_exits_2_with_its_message(self, fresh):
        _, steps, _, report = fresh
        (code, out, err, *_), = [record for (argv, *_), record in zip(steps, report)
                                 if "--epsilon" in argv]
        assert (code, out, err) == (2, "", "error: epsilon must lie in (0, 1), got 0.0\n")

    def test_output_equals_the_same_run_in_process(self, fresh, monkeypatch):
        tmp_path, steps, _, report = fresh
        monkeypatch.setenv("COLUMNS", "80")  # the subprocess's help width
        for (argv, *_), (fresh_argv, *_), record in zip(command_steps(tmp_path, "inproc"), steps,
                                                        report):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout = out.getvalue().replace(str(tmp_path / "inproc"), str(tmp_path / "fresh"))
            assert [code, stdout, err.getvalue()] == record[:3], fresh_argv
        for name in ("builtin/feasibility.txt", "builtin/feasibility.json",
                     "spec-file/feasibility.txt", "spec-file/feasibility.json",
                     "mc/mc.csv", "mc-workers-2/mc.csv", "sweep/sweep.csv"):
            assert ((tmp_path / "inproc" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name


class TestLeanStartup:
    @pytest.fixture(scope="class")
    def report(self):
        return ast.literal_eval(run_fresh(LEAN_RUNNER))

    def test_version_and_help_load_no_dataclasses_budget_or_noise(self, report):
        assert report[0] == []  # after import exchsim.cli
        for argv, (code, loaded) in zip(LEAN_ARGVS[:-1], report[1:-1]):
            assert (code, loaded) == (0, []), argv

    def test_gate_run_loads_neither_budget_nor_noise(self, report):
        code, loaded = report[-1]
        assert code == 0
        assert not {"exchsim.budget", "exchsim.noise"} & set(loaded)


class TestLazyExports:
    def test_the_exported_names_are_pinned(self):
        assert len(HOME) == 37
        assert sorted(exchsim.__all__) == sorted(HOME)

    @pytest.mark.parametrize("name", sorted(HOME))
    def test_each_name_is_its_submodules_object(self, name):
        module = importlib.import_module(f"exchsim.{HOME[name]}")
        assert getattr(exchsim, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from exchsim import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(exchsim, name) for name in HOME}

    def test_dephasing_spec_is_one_class_on_every_import_path(self):
        from exchsim import dephasing

        assert exchsim.DephasingSpec is noise.DephasingSpec is dephasing.DephasingSpec

    def test_unknown_attribute_raises_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            exchsim.no_such_export

    @pytest.mark.parametrize("name", sorted(FORMER_HOME))
    def test_a_deleted_name_is_gone_from_package_submodule_and_readme(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(exchsim, name)
        assert name not in exchsim.__all__
        assert not hasattr(importlib.import_module(f"exchsim.{FORMER_HOME[name]}"), name)
        assert not re.search(rf"\b{name}\b", README.read_text(encoding="utf-8"))


class TestParserVocabulary:
    """The parser's choices come from the one definition the library checks against."""

    def help_text(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        return " ".join(capsys.readouterr().out.split())

    def test_sweep_help_lists_the_axes_in_order(self, capsys):
        assert montecarlo.SWEEP_AXES is budget.SWEEP_AXES
        assert montecarlo.normalize_axis is budget.normalize_axis
        assert f"one of {', '.join(montecarlo.SWEEP_AXES)}" in self.help_text(capsys, "sweep")

    def test_mc_help_lists_the_distributions(self, capsys):
        assert f"{{{','.join(noise.DISTRIBUTIONS)}}}" in self.help_text(capsys, "mc")
