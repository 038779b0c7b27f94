"""The byte-identity corpus: CLI argv cases and the digests of what each one writes.

Each case runs cli.main in process, from a fresh temporary working directory
that holds the spec files of FIXTURES, with a relative --out, COLUMNS=80
(argparse wraps help and usage text to the terminal width) and EXCHSIM_CATALOG
unset unless the case's ENV entry sets it.
Its record is the exit code (argparse's SystemExit status for help, version
and usage errors) and the SHA-256 of stdout, stderr, each primary output, and
the manifest's parameters and outputs (the rest of a manifest records the host
and the wall time).  The help and usage texts are argparse's, so their digests
hold for the Python version that wrote digests.json (3.11.7).  digests.json
holds the records of every case; `python tests/golden/regen.py` rewrites it.  A
rewrite is a named change of the outputs, never a way to make a refactor pass.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path
from unittest import mock

from exchsim import cli
from exchsim.noise import BLOCK

DIGESTS = Path(__file__).with_name("digests.json")
SPEC_FILE = (
    "[platform]\nt2_seconds = 0.5e-3\nsensitivity = 1.0\n\n"
    "[technology]\nname = homebrew\nsigma_a = 1e-6\nsigma_t_seconds = 1e-14\n"
    "bw_low_hz = 0\nbw_high_hz = 1e12\n\n[threshold]\nepsilon = 1e-5\n"
)
TECHNOLOGY = SPEC_FILE.split("\n\n")[1] + "\n"  # the [technology] section of SPEC_FILE
# file name -> the bytes the case directory holds under it
FIXTURES = {
    "spec.ini": SPEC_FILE.encode(),
    "latin-1.ini": SPEC_FILE.replace("homebrew", "caf\xe9").encode("latin-1"),
    "two-technologies.ini": (SPEC_FILE + "\n" + TECHNOLOGY.replace("homebrew", "second")
                             .replace("[technology]", "[technology.b]")).encode(),
    "empty-name.ini": TECHNOLOGY.replace("homebrew", "").encode(),
    "not-a-number.ini": TECHNOLOGY.replace("1e-6", "tiny").encode(),
    "nan.ini": TECHNOLOGY.replace("1e-6", "nan").encode(),
    "unknown-key.ini": b"[threshold]\nepsilon = 1e-5\ncolour = blue\n",
    "missing-key.ini": b"[platform]\nt2_seconds = 1e-3\n",
    "unparseable.ini": b"t2_seconds = 1e-3\n",
    "unknown-section.ini": b"[bogus]\n",
    "collision.ini": TECHNOLOGY.replace("homebrew", "electrical-pulse-generator").encode(),
}

N = str(3 * BLOCK + 17)  # four blocks, the last one ragged
MC = ["--alpha", "0.5", "--sigma-a", "1e-3", "--sigma-t", "1e-12", "--n", N,
      "--seed", "18446744073709551609"]
UNIFORM = ["--distribution", "uniform"]
T2 = ["--t2", "5e-4"]
W2 = ["--workers", "2"]
MAX_SEED = str(2**64 - 1)
# The sweep-dephased benchmark argv: uniform noise, one pass over four blocks
# for five t2 rows.
SWEEP_DEPHASED = ["sweep", "--axis", "t2", "--values", "5e-5,1e-4,5e-4,1e-3,5e-3",
                  "--sigma-a", "1e-3", "--sigma-t", "1e-11", "--distribution", "uniform",
                  "--n", N, "--seed", MAX_SEED]
AXIS_VALUES = {"sigma_a": "1e-4,1e-3,1e-2", "sigma_t": "1e-13,1e-12,1e-11",
               "t2": "5e-5,5e-4,inf", "target_alpha": "0.25,0.5,1.0"}
FEASIBILITY = ["feasibility", "--platform", "si-spin", "--out", "out"]
CUSTOM_TECH = ["feasibility", "--sigma-a", "1e-6", "--sigma-t", "1e-13", "--bw-high", "1e11",
               "--out", "out"]
COMMANDS = ("feasibility", "gate", "mc", "sweep", "catalog")

CASES = {
    "mc": ["mc", *MC, "--out", "out"],
    "mc-workers-2": ["mc", *MC, *W2, "--out", "out"],
    "mc-t2": ["mc", *MC, *T2, "--out", "out"],
    "mc-t2-inf": ["mc", *MC, "--t2", "inf", "--out", "out"],
    "mc-t2-subnormal": ["mc", *MC, "--t2", "1e-320", "--out", "out"],
    "mc-uniform": ["mc", *MC, *UNIFORM, "--out", "out"],
    "mc-uniform-t2-workers-2": ["mc", *MC, *UNIFORM, *T2, *W2, "--out", "out"],
    "mc-detuned-sensitivity-t2": ["mc", *MC, "--alpha", "1.7", "--duration", "3e-8",
                                  "--sensitivity", "3", "--t2", "1e-6", "--out", "out"],
    "mc-redraws": ["mc", *MC, "--sigma-t", "4e-9", *W2, "--out", "out"],
    "mc-redraws-uniform-t2": ["mc", *MC, "--sigma-t", "4e-9", *UNIFORM, *T2, "--out", "out"],
    "mc-one-sample": ["mc", *MC, "--n", "1", "--out", "out"],
    "mc-max-seed": ["mc", "--alpha", "0.5", "--sigma-a", "1e-3", "--sigma-t", "1e-12",
                    "--n", N, "--seed", MAX_SEED, "--out", "out"],
    **{f"sweep-dephased-workers-{workers}": [*SWEEP_DEPHASED, "--workers", workers,
                                             "--out", "out"]
       for workers in ("1", "2")},
    **{f"sweep-{axis}": ["sweep", *MC, "--axis", axis, "--values", values, "--out", "out"]
       for axis, values in AXIS_VALUES.items()},
    **{f"sweep-{axis}-uniform-t2-workers-2": ["sweep", *MC, *UNIFORM, *T2, *W2, "--axis", axis,
                                              "--values", values, "--out", "out"]
       for axis, values in AXIS_VALUES.items()},
    "sweep-t2-subnormal": ["sweep", *MC, "--axis", "t2", "--values", "1e-320,5e-4",
                           "--out", "out"],
    "feasibility-electrical": [*FEASIBILITY, "--tech", "electrical-pulse-generator"],
    "feasibility-modelocked": [*FEASIBILITY, "--tech", "modelocked-laser-10GHz",
                               "--epsilon", "1e-3"],
    "feasibility-strict-bandwidth": ["feasibility", "--sigma-a", "1e-6", "--sigma-t", "1e-14",
                                     "--bw-high", "1e6", "--strict-bandwidth", "--out", "out"],
    "feasibility-spec-file": ["feasibility", "--spec-file", "spec.ini", "--out", "out"],
    "feasibility-custom": ["feasibility", "--t2", "1e-3", "--sensitivity", "2",
                           "--sigma-a", "1e-5", "--sigma-t", "1e-14", "--bw-high", "1e10",
                           "--out", "out"],
    **{f"feasibility-custom-epsilon-{epsilon}": [*CUSTOM_TECH, "--epsilon", epsilon]
       for epsilon in ("1e-7", "1e-5", "1e-3")},
    "catalog": ["catalog"],
    "catalog-json": ["catalog", "--format", "json"],
    "catalog-file": ["catalog", "--file", "spec.ini"],
    "gate-phase-error": ["gate", "--alpha", "0.5", "--phase-error", "1e-3"],
    "gate-dj-dt": ["gate", "--alpha", "0.25", "--dj", "1e-4", "--dt=-2e-5"],
    "gate-dj-dt-separated": ["gate", "--alpha", "0.25", "--dj", "1e-4", "--dt", "-2e-5"],
    # the identity, SWAP, its square, the smallest and the widest targets, each phase's
    # signed zeros included; negative alphas are written apart from the flag
    **{f"gate-alpha-{alpha}": ["gate", "--alpha", alpha, "--phase-error", "0"]
       for alpha in ("0", "1", "2", "5e-324", "-0.5", "1e150", "-1e150")},
    "bad-feasibility-inverted-band": ["feasibility", "--sigma-a", "1e-5", "--sigma-t", "1e-14",
                                      "--bw-low", "2e9", "--bw-high", "1e9", "--out", "out"],
    "bad-gate-two-errors": ["gate", "--alpha", "0.5", "--phase-error", "1e-3", "--dj", "1e-4"],
    "bad-mc-overflowing-noise": ["mc", *MC, "--sigma-a", "1e154", "--out", "out"],
    "bad-mc-negative-sigma-a-separated": ["mc", *MC, "--sigma-a", "-1e-3", "--out", "out"],
    "bad-mc-t2-minus-inf-separated": ["mc", *MC, "--t2", "-inf", "--out", "out"],
    "bad-gate-phase-error-minus-inf-separated": ["gate", "--alpha", "0.5", "--phase-error", "-inf"],
    "bad-mc-t2-and-duration": ["mc", *MC, "--t2", "0", "--duration", "0", "--out", "out"],
    "bad-sweep-negative-list-separated": ["sweep", *MC, "--axis", "sigma_a", "--values",
                                          "-1e-3,1e-3", "--out", "out"],
    "bad-sweep-nan-value": ["sweep", *MC, "--axis", "sigma_a", "--values", "1e-3,nan",
                            "--out", "out"],
    "bad-catalog-missing-file": ["catalog", "--file", "missing.ini"],
    "bad-feasibility-nan-band": ["feasibility", "--sigma-a", "0", "--sigma-t", "0",
                                 "--bw-high", "nan", "--out", "out"],
    "bad-feasibility-platform-and-t2": [*FEASIBILITY, "--t2", "1e-3", "--sensitivity", "2"],
    "bad-feasibility-tech-and-sigma": ["feasibility", "--tech", "electrical-pulse-generator",
                                       "--sigma-a", "1e-6", "--sigma-t", "1e-14", "--out", "out"],
    "bad-feasibility-tech-and-band": ["feasibility", "--tech", "electrical-pulse-generator",
                                      "--bw-high", "1e9", "--out", "out"],
    "bad-feasibility-t2-without-sensitivity": ["feasibility", "--t2", "1e-3", "--tech",
                                               "electrical-pulse-generator", "--out", "out"],
    "bad-feasibility-sigma-a-without-sigma-t": ["feasibility", "--sigma-a", "1e-6",
                                                "--out", "out"],
    "bad-feasibility-unknown-tech": ["feasibility", "--tech", "bogus", "--out", "out"],
    "bad-feasibility-no-technology": ["feasibility", "--out", "out"],
    "bad-mc-overflowing-alpha": ["mc", "--alpha", "1e160", "--duration", "1", "--n", "10",
                                 "--out", "out"],
    "bad-mc-negative-alpha": ["mc", "--alpha=-0.5", "--n", "10", "--out", "out"],
    "bad-mc-workers-zero": ["mc", *MC, "--workers", "0", "--out", "out"],
    "bad-mc-negative-sigma-t": ["mc", *MC, "--sigma-t", "-1e-12", "--out", "out"],
    "bad-mc-zero-duration": ["mc", *MC, "--duration", "0", "--out", "out"],
    "bad-mc-overflowing-strength": ["mc", "--alpha", "1", "--duration", "1e-320", "--n", "10",
                                    "--out", "out"],
    "bad-gate-dj-out-of-range": ["gate", "--alpha", "0.5", "--dj", "2"],
    "bad-mc-zero-samples": ["mc", *MC, "--n", "0", "--out", "out"],
    "bad-mc-negative-seed": ["mc", *MC, "--seed=-1", "--out", "out"],
    "bad-mc-negative-sensitivity": ["mc", *MC, "--sensitivity=-1", "--out", "out"],
    "bad-sweep-no-values": ["sweep", *MC, "--axis", "sigma_a", "--values", ",", "--out", "out"],
    "mc-analytic-underflow": ["mc", "--duration", "1e30", "--sigma-t", "1e300", "--alpha", "1e-300",
                              "--n", "20", "--out", "out"],
    "feasibility-decoherence-ceiling-underflow": ["feasibility", "--t2", "1e-320", "--sensitivity",
                                                  "1", "--sigma-a", "1e-4", "--sigma-t", "1e-12",
                                                  "--out", "out"],
    "feasibility-strict-bandwidth-ceiling-underflow": ["feasibility", "--t2", "1e-320",
                                                       "--sensitivity", "1", "--sigma-a", "0",
                                                       "--sigma-t", "0", "--strict-bandwidth",
                                                       "--out", "out"],
    "feasibility-no-jitter-ceiling-underflow": ["feasibility", "--t2", "1e-320", "--sensitivity",
                                                "1", "--sigma-a", "0", "--sigma-t", "0",
                                                "--out", "out"],
    "catalog-env-var": ["catalog"],
    "bad-feasibility-spec-file-not-utf8": ["feasibility", "--spec-file", "latin-1.ini",
                                           "--out", "out"],
    "bad-feasibility-unknown-platform": [*FEASIBILITY[:2], "bogus", "--tech",
                                         "electrical-pulse-generator", "--out", "out"],
    "bad-feasibility-spec-file-two-technologies": ["feasibility", "--spec-file",
                                                   "two-technologies.ini", "--out", "out"],
    "bad-gate-no-error": ["gate", "--alpha", "0.5"],
    "bad-sweep-non-numeric-value": ["sweep", *MC, "--axis", "sigma_a", "--values", "1e-3,x",
                                    "--out", "out"],
    "bad-sweep-unknown-axis": ["sweep", *MC, "--axis", "voltage", "--values", "1", "--out", "out"],
    **{f"bad-sweep-{axis}-axis": ["sweep", *MC, "--axis", axis, "--values", "1e-5", "--out", "out"]
       for axis in ("epsilon", "epsilon-reference-line")},
    "bad-feasibility-t2-zero": ["feasibility", "--t2", "0", "--sensitivity", "1", "--tech",
                                "electrical-pulse-generator", "--out", "out"],
    "bad-feasibility-negative-sensitivity": ["feasibility", "--t2", "1e-3", "--sensitivity=-1",
                                             "--tech", "electrical-pulse-generator",
                                             "--out", "out"],
    "bad-feasibility-epsilon-one": [*FEASIBILITY, "--tech", "electrical-pulse-generator",
                                    "--epsilon", "1"],
    **{f"bad-catalog-{fixture[:-4]}": ["catalog", "--file", fixture]
       for fixture in ("empty-name.ini", "not-a-number.ini", "nan.ini", "unknown-key.ini",
                       "missing-key.ini", "unparseable.ini", "unknown-section.ini",
                       "collision.ini")},
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"] for command in COMMANDS},
    "version": ["--version"],
    "usage-no-arguments": [],
    "usage-unknown-command": ["bogus"],
    "usage-mc-missing-value": ["mc", "--n"],
    "usage-mc-unknown-flag": ["mc", "--bogus", "1"],
    "usage-sweep-without-axis": ["sweep", "--values", "1e-3"],
    "help-mc-short": ["mc", "-h"],
    "help-before-command": ["-h", "mc"],
    "usage-unknown-flag-before-command": ["--bogus", "mc"],
    "usage-mc-extra-argument": ["mc", "extra"],
    "usage-short-unknown-flag-before-command": ["-x", "mc"],
    "usage-negative-number-before-command": ["-5", "mc"],
    "usage-dash-before-command": ["-", "mc"],
    "usage-unknown-flag-after-double-dash": ["--", "-x", "mc"],
    "mc-after-double-dash": ["--", "mc", "--n", "3", "--out", "out"],
    "version-before-command": ["--version", "mc"],
    "help-before-unknown-command": ["--help", "bogus"],
    "usage-unknown-command-before-command": ["bogus", "mc"],
}
# The environment variables a case sets, by case name.
ENV = {"catalog-env-var": {cli.CATALOG_ENV_VAR: "spec.ini"}}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _fresh_directory():
    """Work in a new temporary directory holding FIXTURES, with EXCHSIM_CATALOG
    unset and COLUMNS=80."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop(cli.CATALOG_ENV_VAR, None)
        try:
            os.chdir(tmp)
            for name, data in FIXTURES.items():
                Path(name).write_bytes(data)
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def run(name):
    """The record of the case name: its exit code and the digests of what it wrote."""
    argv = CASES[name]
    with _fresh_directory() as tmp, mock.patch.dict(os.environ, ENV.get(name, {})):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: help, version and usage errors
                code = exc.code
        files, manifest = {}, None
        for path in sorted((tmp / "out").glob("*")):
            if path.name.endswith("_manifest.json"):
                fields = json.loads(path.read_bytes())
                manifest = {key: _sha256(json.dumps(fields[key], sort_keys=True).encode())
                            for key in ("parameters", "outputs")}
            else:
                files[path.name] = _sha256(path.read_bytes())
    return {"argv": shlex.join(argv), "exit": code, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()), "files": files, "manifest": manifest}
