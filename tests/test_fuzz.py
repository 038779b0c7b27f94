"""A seeded argv fuzzer for the CLI's exit-status contract and call-to-call independence.

Each command's flags are read from its parser's actions, so a new flag is
fuzzed without an edit here.  An argv draws one of its command's BASES, flag
sets that exit 0 with valid values.  Each flag of the base then gets a value
from its valid range (VALID, or one drawn from its type), an edge value (EDGES:
signed zeros, subnormals, the overflow edges, infinities, nan, +-1e150 and the
double just past it) or none, and any other flag likewise but mostly none.  The
weights keep at least MIN_OK of the argvs exiting 0, and --n to at most 3 blocks.

The contract: every argv exits 0 or 2 and prints no traceback.  Exit 2 prints
one "error:" line, or argparse's usage and its error line.  Exit 0 writes no
nan to stdout or to a primary output file (a manifest is not one: it records
the host and the wall time).  And calls are independent: the same argvs run in
another order in the same process give each argv the same exit code, stdout,
stderr and primary-file bytes.
"""

import argparse
import contextlib
import io
import math
import random
import re
import shutil

import pytest

from exchsim import budget, cli
from exchsim.noise import BLOCK

SEEDS = (0, 1)
ARGVS_PER_SEED = 200
MIN_OK = 0.3  # the least share of argvs that must exit 0

MAX_DOUBLE = 1.7976931348623157e308
EDGES = ["0", "-0", "5e-324", "-5e-324", "2.2250738585072009e-308", "1e308", repr(MAX_DOUBLE),
         "1.7976931348623159e308",  # just past the largest double: float() reads inf
         "inf", "-inf", "nan", "1e150", "-1e150", "1.0000000000000002e150",
         "-1.0000000000000002e150"]
INT_EDGES = ["0", "-0", "-1", "1.5", "1e3", "nan", str(2**64 - 1), str(2**64)]
MAX_N = 3 * BLOCK  # --n is at most 3 blocks, so that an argv runs in milliseconds

# How a valid value of a numeric flag is drawn, by dest: (law, low, high), the
# law "log" (log-uniform), "uniform" or "int".  A flag missing here is drawn
# by its type's entry of DEFAULT_RANGE.
VALID = {"alpha": ("uniform", 0.0, 2.0), "duration": ("log", 1e-10, 1e-7),
         "sigma_a": ("log", 1e-7, 1e-2), "sigma_t": ("log", 1e-15, 1e-11),
         "t2": ("log", 1e-6, 1e-1), "sensitivity": ("uniform", 0.0, 3.0),
         "bw_low": ("log", 1e3, 1e8), "bw_high": ("log", 1e9, 1e13),
         "epsilon": ("log", 1e-7, 1e-2), "phase_error": ("uniform", -1.0, 1.0),
         "dj": ("uniform", -0.5, 0.5), "dt": ("uniform", -0.5, 0.5), "n": ("int", 1, MAX_N),
         "seed": ("int", 0, 2**64 - 1), "workers": ("int", 1, 3)}
DEFAULT_RANGE = {int: ("int", 1, 3), float: ("log", 1e-6, 1.0)}
# The sweep axis -> the dest whose range its values are drawn from
AXIS_RANGE = {"sigma_a": "sigma_a", "sigma_t": "sigma_t", "t2": "t2", "target_alpha": "alpha"}
# The flag sets an argv starts from, one drawn per argv: with valid values,
# each set exits 0.
MC_BASES = [(), ("sigma_a", "sigma_t"), ("sigma_a", "sigma_t", "t2", "distribution", "workers"),
            ("alpha", "duration", "sigma_a", "sigma_t", "sensitivity", "n", "seed"),
            ("sigma_t", "t2", "n", "seed", "workers", "distribution")]
BASES = {"gate": [("alpha", "dj"), ("alpha", "dj", "dt"), ("alpha", "phase_error")],
         "mc": MC_BASES,
         "sweep": [(*base, "axis", "values") for base in MC_BASES],
         "feasibility": [("tech",), ("tech", "epsilon", "strict_bandwidth"), ("platform", "tech"),
                         ("t2", "sensitivity", "tech"), ("sigma_a", "sigma_t"),
                         ("sigma_a", "sigma_t", "bw_low", "bw_high", "strict_bandwidth"),
                         ("platform", "sigma_a", "sigma_t", "bw_high", "epsilon"),
                         ("spec_file",), ("spec_file", "epsilon")],
         "catalog": [(), ("file",), ("format",), ("file", "format")]}
SPEC_FILE = ("[platform]\nt2_seconds = 0.5e-3\nsensitivity = 1.0\n\n"
             "[technology]\nname = homebrew\nsigma_a = 1e-6\nsigma_t_seconds = 1e-14\n"
             "bw_low_hz = 0\nbw_high_hz = 1e12\n\n[threshold]\nepsilon = 1e-5\n")
# The weights of a valid value, an edge value and no value: for a flag of the
# argv's base, and for any other flag
BASE_WEIGHTS = (80, 15, 5)
OTHER_WEIGHTS = (4, 4, 92)


def flags(command):
    """The options of command's parser that take a value or are switches: (dest, action)."""
    parser = cli._build_parser(command)
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    return [(action.dest, action) for action in sub.choices[command]._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def number(rng, dest, kind=float):
    """A valid value of the numeric flag dest, as its argv string."""
    law, lo, hi = VALID.get(dest, DEFAULT_RANGE[kind])
    if law == "int":
        return str(rng.randint(lo, hi))
    if law == "uniform":
        return repr(rng.uniform(lo, hi))
    return repr(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def valid_value(rng, dest, action, tmp_path):
    """A value of the flag's valid range, as its argv string (None for a switch)."""
    if action.nargs == 0:
        return None
    if action.choices:
        return rng.choice(list(action.choices))
    if dest == "tech":
        return rng.choice([tech.name for tech in budget.builtin_catalog()])
    if dest == "platform":
        return rng.choice(sorted(budget.builtin_platforms()))
    if dest == "axis":
        return rng.choice(list(AXIS_RANGE))
    if dest in ("spec_file", "file"):
        return str(tmp_path / "spec.ini")
    if action.type in (int, float):
        return number(rng, dest, action.type)
    return f"fuzz{rng.randrange(100)}"  # a string flag this fuzzer has no vocabulary for


def edge_value(rng, dest, action, tmp_path):
    """A value at or past the edge of what the flag reads, as its argv string."""
    if action.nargs == 0:
        return None
    if action.type is int:
        values = INT_EDGES + EDGES
        if dest == "n":  # no more than MAX_N samples
            values = [v for v in values if not v.isdigit() or int(v) <= MAX_N] + [str(MAX_N)]
        return rng.choice(values)
    if dest in ("spec_file", "file"):
        return str(tmp_path / "missing.ini")
    if action.type is float or dest == "values":
        return rng.choice(EDGES + [",".join(rng.choices(EDGES, k=2))])
    return rng.choice(["", "-", "fuzz", *EDGES])


def draw_argv(rng, tmp_path, k):
    """One argv, and the directory it writes to (None for a command with no --out)."""
    command = rng.choice(list(cli.COMMANDS))
    base = rng.choice(BASES[command])
    parsed = dict(flags(command))
    options, out = {}, None
    for dest, action in parsed.items():
        weights = BASE_WEIGHTS if dest in base or action.required else OTHER_WEIGHTS
        kind = rng.choices(("valid", "edge", "none"), weights)[0]
        if dest == "out":
            out = tmp_path / f"out{k}"
            options[dest] = str(out)
        elif kind == "edge":
            options[dest] = edge_value(rng, dest, action, tmp_path)
        elif kind == "valid" and dest == "values":  # of the axis's range (--axis comes first)
            axis = AXIS_RANGE.get(options.get("axis"), "sigma_a")
            options[dest] = ",".join(number(rng, axis) for _ in range(rng.randint(1, 3)))
        elif kind == "valid":
            options[dest] = valid_value(rng, dest, action, tmp_path)
    argv = [command]
    for dest in rng.sample(list(options), len(options)):
        flag, value = parsed[dest].option_strings[-1], options[dest]
        if value is None:  # a switch
            argv.append(flag)
        elif rng.random() < 0.5:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv, out


def run(argv, out):
    """(exit code, stdout, stderr, primary files by name) of one in-process call."""
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: help, version and usage errors
            code = exc.code
    files = {} if out is None else {path.name: path.read_bytes() for path in sorted(out.glob("*"))
                                    if not path.name.endswith("_manifest.json")}
    return code, stdout.getvalue(), stderr.getvalue(), files


USAGE_ERROR = re.compile(r"usage: exchsim.*\nexchsim(?: \w+)?: error: [^\n]*\n", re.DOTALL)
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.CATALOG_ENV_VAR, raising=False)
    (tmp_path / "spec.ini").write_text(SPEC_FILE)
    return tmp_path


@pytest.mark.parametrize("seed", SEEDS)
def test_every_argv_keeps_the_exit_contract_in_any_call_order(workdir, seed):
    rng = random.Random(seed)
    argvs = [draw_argv(rng, workdir, k) for k in range(ARGVS_PER_SEED)]
    first = [run(argv, out) for argv, out in argvs]
    ok = 0
    for (argv, _), (code, stdout, stderr, files) in zip(argvs, first):
        assert code in (0, 2), argv
        assert "Traceback" not in stderr, argv
        if code == 2:
            assert re.fullmatch(r"error: [^\n]*\n", stderr) or USAGE_ERROR.fullmatch(stderr), argv
        else:
            ok += 1
            assert not NAN.search(stdout), argv
            for name, data in files.items():
                assert not NAN.search(data.decode()), (argv, name)
    assert ok >= MIN_OK * len(argvs)
    order = list(range(len(argvs)))
    random.Random(seed + 1).shuffle(order)
    again = {k: run(*argvs[k]) for k in order}
    assert [k for k in range(len(argvs)) if again[k] != first[k]] == []
