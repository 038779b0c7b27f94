"""The benchmark's workloads: CLI argument lists drawn from a seed, and output checks.

Every workload is a closed loop of ``exchsim`` CLI invocations.  A workload
hands out one ``Call`` at a time; the caller runs it, then asks the call to
check the files it wrote.  See README.md for why each workload exists.
"""

import csv
import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

CSV_HEADER = ["axis_value", "mean_infidelity", "stderr", "analytic_prediction",
              "n_samples", "seed"]
# The builtin si-spin platform as the README documents it.
SI_SPIN_T2_S = 0.5e-3
SI_SPIN_SENSITIVITY = 1.0
MC_Z_LIMIT = 5.0
FEASIBILITY_RTOL = 1e-12


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the work it does, and how to check what it wrote."""

    argv: tuple
    work: int                # samples scored, or reports completed
    check: object            # () -> None, or a description of what is wrong
    twin_argv: tuple         # the same invocation into twin_out (other --workers for MC)
    twin_out: str
    out: str
    compared: tuple          # files that must be byte-identical between out and twin_out


def check_mc_csv(path, seed, n, axis_values):
    """Each row: |mean - analytic| <= 5 stderr, with the requested axis value, n and seed."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != CSV_HEADER:
            return f"{path}: header {rows[:1]} is not {CSV_HEADER}"
        if len(rows) - 1 != len(axis_values):
            return f"{path}: {len(rows) - 1} rows, expected {len(axis_values)}"
        for row, axis in zip(rows[1:], axis_values):
            if (row[0] == "") != (axis is None) or (axis is not None and float(row[0]) != axis):
                return f"{path}: axis value {row[0]!r}, expected {axis!r}"
            if int(row[4]) != n or int(row[5]) != seed:
                return f"{path}: n_samples/seed {row[4]}/{row[5]}, expected {n}/{seed}"
            mean, stderr, predicted = float(row[1]), float(row[2]), float(row[3])
            if not (stderr > 0.0 and abs(mean - predicted) <= MC_Z_LIMIT * stderr):
                return (f"{path}: mean {mean!r} vs analytic {predicted!r} "
                        f"is more than {MC_Z_LIMIT} stderr ({stderr!r}) apart")
    except (OSError, ValueError, IndexError) as exc:
        return f"{path}: unreadable ({exc})"
    return None


def _close(got, want):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= FEASIBILITY_RTOL * abs(want)


def expected_window(tech, epsilon, strict):
    """(t_min, t_max, feasible), recomputed from the budget's closed forms."""
    amp_error = SI_SPIN_SENSITIVITY * tech["sigma_a"]
    t_max = epsilon * SI_SPIN_T2_S
    t_min = tech["sigma_t_s"] / (epsilon - amp_error) if amp_error < epsilon else math.inf
    low = t_min
    if strict:
        low = max(low, 1.0 / tech["bw_high_hz"])
    return t_min, t_max, low < t_max


def check_feasibility_json(path, tech, epsilon, strict):
    """t_max = eps T2, t_min = sigma_t / (eps - s sigma_a) and the verdict, at rel 1e-12."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        t_min, t_max, feasible = expected_window(tech, epsilon, strict)
        echoed = (report["epsilon"], report["strict_bandwidth"], report["technology"]["name"],
                  report["platform"]["t2_s"], report["platform"]["sensitivity"])
        if echoed != (epsilon, strict, tech["name"], SI_SPIN_T2_S, SI_SPIN_SENSITIVITY):
            return f"{path}: inputs echoed as {echoed}"
        got_min, got_max = float(report["t_min_s"]), float(report["t_max_s"])
        if not (_close(got_min, t_min) and _close(got_max, t_max)):
            return f"{path}: window ({got_min!r}, {got_max!r}), expected ({t_min!r}, {t_max!r})"
        if report["feasible"] is not feasible:
            return f"{path}: verdict {report['feasible']!r}, expected {feasible!r}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path}: unreadable ({exc})"
    return None


class _MonteCarlo:
    """Shared loop of the MC workloads: a fresh --seed per invocation, CSV rows checked."""

    unit = "samples"

    def __init__(self, seed, out_root, run_cli):
        self._rng = random.Random(seed)
        self.out = os.path.join(out_root, self.name)

    def warmup_argv(self):
        return self._argv(self.WARMUP_N, 0, self.WORKERS, self.out)

    def next_call(self):
        seed = self._rng.randrange(2**63)
        twin_out = self.out + "-twin"
        return Call(
            argv=self._argv(self.N, seed, self.WORKERS, self.out),
            work=self.N * len(self.AXIS),
            check=functools.partial(check_mc_csv, os.path.join(self.out, self.CSV),
                                    seed, self.N, self.AXIS),
            twin_argv=self._argv(self.N, seed, self.TWIN_WORKERS, twin_out),
            twin_out=twin_out,
            out=self.out,
            compared=(self.CSV,),
        )


class McCoherent(_MonteCarlo):
    """mc at the fixed size, one thread, no dephasing: the plain per-sample baseline."""

    name = "mc-coherent"
    N, WARMUP_N = 100_000, 1000
    WORKERS, TWIN_WORKERS = 1, 2
    AXIS = (None,)
    CSV = "mc.csv"

    def _argv(self, n, seed, workers, out):
        return ("mc", "--alpha", "0.5", "--sigma-a", "1e-3", "--sigma-t", "1e-12",
                "--n", str(n), "--seed", str(seed), "--workers", str(workers), "--out", out)


class SweepDephased(_MonteCarlo):
    """A 5-point T2 sweep of small uniform-noise estimates on the 2-thread pool."""

    name = "sweep-dephased"
    N, WARMUP_N = 4000, 100
    WORKERS, TWIN_WORKERS = 2, 1
    T2_VALUES = "5e-5,1e-4,5e-4,1e-3,5e-3"
    AXIS = tuple(float(v) for v in T2_VALUES.split(","))
    CSV = "sweep.csv"

    def _argv(self, n, seed, workers, out):
        return ("sweep", "--axis", "t2", "--values", self.T2_VALUES,
                "--sigma-a", "1e-3", "--sigma-t", "1e-11", "--distribution", "uniform",
                "--n", str(n), "--seed", str(seed), "--workers", str(workers), "--out", out)


class FeasibilityScan:
    """feasibility for every catalog entry over a seeded log-uniform epsilon grid."""

    name = "feasibility-scan"
    unit = "reports"
    GRID = 16
    EPSILON_DECADES = (-7.0, -2.0)

    def __init__(self, seed, out_root, run_cli):
        rng = random.Random(seed)
        self.out = os.path.join(out_root, self.name)
        status, text = run_cli(("catalog", "--format", "json"))
        if status != 0:
            raise RuntimeError(f"catalog --format json exited with status {status}")
        self._catalog = json.loads(text)
        grid = [10.0 ** rng.uniform(*self.EPSILON_DECADES) for _ in range(self.GRID)]
        self._cases = itertools.cycle(
            [(tech, eps, strict) for eps in grid for tech in self._catalog
             for strict in (False, True)]
        )

    def _argv(self, tech, epsilon, strict, out):
        argv = ("feasibility", "--platform", "si-spin", "--tech", tech["name"],
                "--epsilon", repr(epsilon), "--out", out)
        return argv + ("--strict-bandwidth",) if strict else argv

    def warmup_argv(self):
        return self._argv(self._catalog[0], 1e-5, False, self.out)

    def next_call(self):
        tech, epsilon, strict = next(self._cases)
        twin_out = self.out + "-twin"
        return Call(
            argv=self._argv(tech, epsilon, strict, self.out),
            work=1,
            check=functools.partial(check_feasibility_json,
                                    os.path.join(self.out, "feasibility.json"),
                                    tech, epsilon, strict),
            twin_argv=self._argv(tech, epsilon, strict, twin_out),
            twin_out=twin_out,
            out=self.out,
            compared=("feasibility.txt", "feasibility.json"),
        )


WORKLOADS = {w.name: w for w in (McCoherent, SweepDephased, FeasibilityScan)}
