"""Monte Carlo gate-infidelity estimation under control noise and dephasing.

Each sample draws one amplitude error `a` and one timing shift `t` and
scores the realized gate in closed form.  The exchange generator commutes
with itself, so only the pulse-area error d = theta' - pi*alpha matters,
and of the dephasing Kraus terms only I(x)I and Z(x)Z overlap the target:

    1 - F = (p1 + p2 - p1 p2) + sin^2(d/2) (3/4 (1-p1)(1-p2) - 1/4 p1 p2)

with p_i the phase-flip probabilities over the realized duration (zero
without dephasing).  d is formed from the draws directly, so the score
keeps its relative precision at infidelities down to 1e-16.  _area_term
and _score evaluate it in place, in the order written there; reordering it
moves the CSV bytes, a named output change.  The dense route
(exchange_unitary, dephasing_channel, entanglement_fidelity) is the
independent oracle the tests compare against.

Samples are drawn and scored as arrays in fixed blocks [k BLOCK, (k+1) BLOCK)
of the sample index, each drawn by one noise.draw_errors_block call (which
states the stream layout), so the blocks do not depend on the worker count.
Each block is reduced where it is scored, and the block records are merged
in block order, so results are bit-identical for any n_workers.  One worker
maps on the calling thread; more import concurrent.futures and start a pool.

A sweep is one pass over the blocks, and its rows that share a draw key
(seed, duration, effective noise) form a draw group, which shares the drawn
errors, the effective noise and the realized duration T + t, so each row is
bit-identical to its own estimate_infidelity.

The analytic reference, analytic_infidelity, is budget.small_noise_infidelity of a config;
each sweep row carries that of its own config.
"""

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain

import numpy as np

from .budget import SWEEP_AXES, normalize_axis, small_noise_infidelity  # SWEEP_AXES re-exported
from .gates import PulseSpec, _checked_alpha, phase_from_pulse, pulse_for_target
from .noise import _MAX_RADIUS, BLOCK, ControlNoiseSpec, DephasingSpec, draw_errors_block


@dataclass(frozen=True)
class McConfig:
    """Inputs of one Monte Carlo run; a dephasing of None is stored as DephasingSpec(math.inf)."""

    n_samples: int
    seed: int
    target_alpha: float
    nominal: PulseSpec
    noise: ControlNoiseSpec
    dephasing: DephasingSpec | None = None
    sensitivity: float = 1.0

    def __post_init__(self):
        # range first, then x % 1 == 0: int() would raise on nan or inf without naming the field
        if not (self.n_samples >= 1 and self.n_samples % 1 == 0):
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples!r}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        if not (0 <= self.seed < 2**64 and self.seed % 1 == 0):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "target_alpha", _checked_alpha(self.target_alpha, "target_alpha"))
        if self.dephasing is None:
            object.__setattr__(self, "dephasing", DephasingSpec(math.inf))
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0.0):
            raise ValueError(f"sensitivity must be >= 0 and finite, got {self.sensitivity!r}")
        # Draws reach _MAX_RADIUS sigma, so the relative errors |a| and
        # |s| = |t| / T stay below x_a and x_s, _MAX_RADIUS times their sigmas,
        # and x = max(x_a, x_s): the pulse-area error theta0 (a + s + a s) below
        # theta0 x (2 + x) and the realized duration below T (1 + x).  a + s + a s
        # is formed before it is scaled by theta0, so its bound
        # x_a + x_s + x_a x_s must be finite too, whatever theta0.  Past the
        # largest x for which these bounds are finite, some draw overflows and
        # its score turns nan.
        duration = self.nominal.duration_s
        sigmas = {"sensitivity * sigma_a": self.sensitivity * self.noise.sigma_a,
                  "sigma_t_s / duration": self.noise.sigma_t_s / duration}
        name = max(sigmas, key=sigmas.get)
        x_a, x_s = (_MAX_RADIUS * sigma for sigma in sigmas.values())
        x = max(x_a, x_s)
        theta0 = phase_from_pulse(self.nominal)
        if not (math.isfinite(x_a + x_s + x_a * x_s)
                and math.isfinite(theta0 * x * (2.0 + x) + duration * (1.0 + x))):
            raise ValueError(f"{name} = {sigmas[name]!r} is too large: the errors of a "
                             f"{_MAX_RADIUS:.2f}-sigma draw overflow")


@dataclass(frozen=True)
class McResult:
    """Aggregated infidelity statistics of one run."""

    mean_infidelity: float
    stderr: float
    min_infidelity: float
    max_infidelity: float
    n_rejected: int


def _area_term(cfg, a, t):
    """sin^2(d/2) of the pulse-area error d of cfg's gate under the drawn errors a, t.

    The realized area is theta0 (1+a)(1+s), s = t/T: d is formed in place as
    theta0 ((a + s) + a s) + (theta0 - pi alpha).
    """
    duration, theta0 = cfg.nominal.duration_s, phase_from_pulse(cfg.nominal)
    d = t / duration  # s
    cross = a * d
    d += a
    d += cross
    d *= theta0
    d += theta0 - math.pi * cfg.target_alpha
    d *= 0.5
    np.sin(d, out=d)
    return np.square(d, out=d)


def _score(cfg, realized, area):
    """Infidelities of cfg's gate given the realized durations T + t and its _area_term.

    In place: ((p1 + p2) - p1 p2) + area ((3/4 (1-p1)) (1-p2) - (1/4 p1) p2)
    with p_i = -1/2 expm1((T + t) / -T2_i), whose quotient overflows to inf at
    a subnormal T2 for the limit p = 1/2 (the caller ignores the overflow).
    area is not written, and realized is not read without dephasing.
    """
    t2_q1, t2_q2 = cfg.dephasing.t2_q1_s, cfg.dephasing.t2_q2_s
    if t2_q1 == t2_q2 == math.inf:
        return 0.75 * area  # p1 = p2 = 0

    def flip_probabilities(t2):  # flip_probability over arrays (0 at T2 = inf)
        p = np.divide(realized, -t2)
        np.expm1(p, out=p)
        p *= -0.5
        return p

    p1 = flip_probabilities(t2_q1)
    p2 = p1 if t2_q2 == t2_q1 else flip_probabilities(t2_q2)
    values = np.subtract(1.0, p1)  # the buffer of 1 - p1, then of 1/4 p1 p2, then of the values
    weight = 0.75 * values
    weight *= values if p2 is p1 else np.subtract(1.0, p2)
    np.multiply(p1, 0.25, out=values)
    values *= p2
    weight -= values
    weight *= area
    np.add(p1, p2, out=values)
    p2 *= p1  # p1 p2; p1 is not read again
    values -= p2
    values += weight
    return values


def _merge(x, y):
    # Chan, Golub & LeVeque (1983): the record of the union of blocks x and y.
    n_x, mean_x, m2_x, lo_x, hi_x, rej_x = x
    n_y, mean_y, m2_y, lo_y, hi_y, rej_y = y
    n, delta = n_x + n_y, mean_y - mean_x
    return (n, mean_x + delta * n_y / n, m2_x + m2_y + delta * delta * n_x * n_y / n,
            min(lo_x, lo_y), max(hi_x, hi_y), rej_x + rej_y)


def _estimate(cfgs, n_workers):
    """McResults of the rows cfgs, which share n_samples, in one pass over the blocks.

    Rows that share a draw key (seed, duration, effective noise) form a draw
    group.  Its effective noise is built once; per block, its errors are drawn
    once, its realized durations T + t are formed once if some row dephases,
    and its area term once per (nominal pulse, target_alpha).  Each row is
    scored from these in place, in the order written in _area_term and _score
    (reordering moves the CSV bytes: a named output change), and reduced to
    one record in the thread that runs the block.  The calling thread merges
    each row's records in block order, so any worker count yields
    bit-identical McResults and memory does not grow with n.  At most
    min(n_workers, number of blocks, os.cpu_count()) threads are started,
    with 16 blocks per thread in flight.
    """
    # range first, then x % 1 == 0, as McConfig checks n_samples
    if not (n_workers >= 1 and n_workers % 1 == 0):
        raise ValueError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    n_workers = int(n_workers)
    # draw key -> (effective noise, (nominal, target_alpha) -> rows); amplitude
    # noise enters through the sensitivity
    groups, dephased = {}, set()
    for row, cfg in enumerate(cfgs):
        sigma_a = cfg.sensitivity * cfg.noise.sigma_a
        key = (cfg.seed, cfg.nominal.duration_s, sigma_a, cfg.noise.sigma_t_s,
               cfg.noise.distribution)
        if key not in groups:
            groups[key] = (replace(cfg.noise, sigma_a=sigma_a), {})
        groups[key][1].setdefault((cfg.nominal, cfg.target_alpha), []).append(row)
        if min(cfg.dephasing.t2_q1_s, cfg.dephasing.t2_q2_s) < math.inf:
            dephased.add(key)
    n = cfgs[0].n_samples
    blocks = range(-(-n // BLOCK))
    workers = min(n_workers, len(blocks))
    if workers > 1:  # one worker needs no CPU count
        workers = min(workers, os.cpu_count() or 1)

    def run_block(block):
        records = [None] * len(cfgs)
        # numpy's error state is per thread: T / T2 overflowing to inf gives p = 1/2
        with np.errstate(over="ignore"):
            for key, (noise, areas) in groups.items():
                seed, duration = key[:2]
                a, t, rejected = draw_errors_block(seed, block, min(BLOCK, n - block * BLOCK),
                                                   duration, noise)
                redraws = int(np.add.reduce(rejected))
                realized = duration + t if key in dephased else None
                for rows in areas.values():
                    area = _area_term(cfgs[rows[0]], a, t)
                    for row in rows:
                        values = _score(cfgs[row], realized, area)
                        # (count, mean, M2 = sum of squared deviations, min, max, redraws)
                        mean = np.add.reduce(values) / values.size
                        lo, hi = np.minimum.reduce(values), np.maximum.reduce(values)
                        values -= mean
                        m2 = np.add.reduce(np.square(values, out=values))
                        records[row] = (values.size, mean, m2, lo, hi, redraws)
        return records

    window = 16 * workers  # blocks in flight: a window is mapped once the last is merged
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        map_blocks = pool.map if pool else map
        records = chain.from_iterable(map_blocks(run_block, blocks[i:i + window])
                                      for i in range(0, len(blocks), window))
        totals = reduce(lambda x, y: list(map(_merge, x, y)), records)
    return [McResult(float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0,
                     float(lo), float(hi), n_rejected)
            for _, mean, m2, lo, hi, n_rejected in totals]


def estimate_infidelity(cfg, n_workers=1):
    """Run the Monte Carlo estimate; results are independent of n_workers (see _estimate)."""
    return _estimate([cfg], n_workers)[0]


def analytic_infidelity(cfg):
    """budget.small_noise_infidelity of cfg's nominal pulse, target, noise and T2s."""
    return small_noise_infidelity(phase_from_pulse(cfg.nominal), cfg.target_alpha,
                                  cfg.sensitivity * cfg.noise.sigma_a, cfg.noise.sigma_t_s,
                                  cfg.nominal.duration_s, cfg.dephasing.t2_q1_s,
                                  cfg.dephasing.t2_q2_s)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: the axis value, its estimate, and the analytic reference."""

    axis: str
    value: float
    result: McResult
    analytic_prediction: float


def _config_for(cfg, axis, value):
    if axis == "sigma_a":
        return replace(cfg, noise=replace(cfg.noise, sigma_a=value))
    if axis == "sigma_t":
        return replace(cfg, noise=replace(cfg.noise, sigma_t_s=value))
    if axis == "t2":
        return replace(cfg, dephasing=DephasingSpec(value))
    # target_alpha: retune the nominal pulse so each row studies a matched gate.
    return replace(cfg, target_alpha=value,
                   nominal=pulse_for_target(value, cfg.nominal.duration_s))


def sweep(cfg, axis, values, n_workers=1):
    """One row per axis value, each estimated with the template's seed.

    values must not be empty, and every row's config is built and checked
    before any sample is drawn.  The rows are then estimated in one pass
    over the blocks, and rows that share a draw key (seed, duration and
    effective noise: every row of the t2 and target_alpha axes, or a
    repeated value) share the draws, so each row equals its own
    estimate_infidelity.  The analytic reference column carries the row's
    analytic_infidelity.
    """
    values = [float(value) for value in values]
    if not values:
        raise ValueError("values must contain at least one number")
    axis = normalize_axis(axis)
    cfgs = [_config_for(cfg, axis, value) for value in values]
    results = _estimate(cfgs, n_workers)
    return tuple(SweepPoint(axis=axis, value=value, result=result,
                            analytic_prediction=analytic_infidelity(row_cfg))
                 for value, row_cfg, result in zip(values, cfgs, results))
