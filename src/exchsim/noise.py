"""Classical control-noise models for exchange pulses.

Covers per-pulse amplitude and timing noise, and the qubits' T2 record
(DephasingSpec) that the Monte Carlo reads with them.

The noise model is white-over-band and quasi-static per pulse: each gate
draws one relative-amplitude scalar and one timing scalar.
draw_errors_block draws one block of samples from (seed, block index)
alone, so parallel callers get the same draws for any worker count: each
BLOCK of sample indices has its own SFC64 stream, seeded by Philox4x64 words
keyed by (seed, attempt) and the block, and gaussian draws come from numpy's
ziggurat on it.  RNG_SCHEME names this contract.

numpy and gates are imported by the functions that draw or build pulses, so
the specs, constants and RejectedSampleError load without numpy.
"""

import math
import threading
from dataclasses import dataclass

DISTRIBUTIONS = ("gaussian", "uniform")

# Resample-then-fail policy for unphysical draws (duration <= 0 or a < -1).
MAX_RESAMPLES = 100
# Samples per Monte Carlo block (montecarlo partitions its runs by it, and
# each block has its own SFC64 stream); each thread's reused draw buffer
# holds the two variates per sample of one block.
BLOCK = 8192
# The draw contract of draw_errors_block; manifests record it.
RNG_SCHEME = "philox4x64-keyed-sfc64-block-stream-v5"
# The largest |z| numpy's ziggurat (random_standard_normal) can return.  The
# layers below the tail return |z| < R, the tail start R = 3.6541528853610088.
# The tail returns R + x with x = -ln(1 - u) / R and u = (word >> 11) 2**-53
# <= 1 - 2**-53, so x <= 53 ln 2 / R.  (Its acceptance test 2 y > x**2, with
# y <= 53 ln 2 likewise, caps x at sqrt(106 ln 2) = 8.57 < 10.05, so this bound
# also covers the rounding of x.)  Uniform draws reach only sqrt(3).
_ZIGGURAT_R = 3.6541528853610088
_MAX_RADIUS = _ZIGGURAT_R + 53.0 * math.log(2.0) / _ZIGGURAT_R

_scratch = threading.local()  # this thread's variate buffer and generators, reused by every draw


class RejectedSampleError(RuntimeError):
    """Raised when resampling cannot produce a pulse with positive duration."""


@dataclass(frozen=True)
class ControlNoiseSpec:
    """Per-pulse control noise figures: what the Monte Carlo draws.

    sigma_a is the RMS relative amplitude noise (dimensionless), sigma_t_s
    the RMS timing jitter in seconds, both already integrated over the
    control band, and distribution the law of the draws.  The band itself
    belongs to budget.TechnologySpec, which checks it.
    """

    sigma_a: float
    sigma_t_s: float
    distribution: str = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.sigma_a) and self.sigma_a >= 0.0):
            raise ValueError(f"sigma_a must be >= 0 and finite, got {self.sigma_a!r}")
        if not (math.isfinite(self.sigma_t_s) and self.sigma_t_s >= 0.0):
            raise ValueError(f"sigma_t_s must be >= 0 and finite, got {self.sigma_t_s!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}")


@dataclass(frozen=True)
class DephasingSpec:
    """Per-qubit transverse relaxation times in seconds.

    math.inf is the explicit no-decoherence sentinel.  Pass a single value
    to use it for both qubits.
    """

    t2_q1_s: float
    t2_q2_s: float | None = None

    def __post_init__(self):
        if self.t2_q2_s is None:
            object.__setattr__(self, "t2_q2_s", self.t2_q1_s)
        for value in (self.t2_q1_s, self.t2_q2_s):
            if math.isnan(value) or value <= 0.0:
                raise ValueError(f"T2 must be > 0 (math.inf allowed), got {value!r}")


def _is_physical(duration_s, amp, shift):
    # The pulse keeps a positive duration and a non-negative exchange strength.
    return (duration_s + shift > 0.0) & (amp >= -1.0)


def _block_errors(seed, attempt, block, size, noise):
    # Errors of the first `size` samples of block `block` under key (seed,
    # attempt), as new arrays (never views of the buffer).  The first three
    # words of the Philox4x64 stream with that key and initial counter
    # (0, block, 0, 0) seed an SFC64 as numpy's sfc64_set_seed does (state
    # (w0, w1, w2), counter 1, 12 outputs discarded), which fills this
    # thread's reused buffer by Generator.standard_normal (numpy's ziggurat)
    # or Generator.random.  SFC64's cycles are at least 2**64 long, every
    # stream's counter starts at 13 and the step is invertible, so two streams
    # meet within a block's reach only if they start from the same words.
    # The thread keeps one Philox and one SFC64 and sets their states, which
    # skips the OS-entropy SeedSequence numpy builds for every new one.
    generator = getattr(_scratch, "generator", None)
    if generator is None:
        import numpy as np

        _scratch.variates = np.empty(2 * BLOCK)  # two variates per sample
        _scratch.philox = np.random.Philox()
        generator = _scratch.generator = np.random.Generator(np.random.SFC64())
    _scratch.philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, block, 0, 0), "key": (seed, attempt)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    words = _scratch.philox.random_raw(4)
    words[3] = 1  # SFC64's counter, after the three seed words
    generator.bit_generator.state = {"bit_generator": "SFC64", "state": {"state": words},
                                     "has_uint32": 0, "uinteger": 0}
    generator.bit_generator.random_raw(12)  # discarded; cheaper than output=False
    z = _scratch.variates[:2 * size]
    if noise.distribution == "gaussian":
        generator.standard_normal(out=z)
        scale = 1.0
    else:  # uniform errors: sigma sqrt(3) (2u - 1)
        generator.random(out=z)
        z *= 2.0
        z -= 1.0
        scale = math.sqrt(3.0)
    return z[0::2] * (noise.sigma_a * scale), z[1::2] * (noise.sigma_t_s * scale)


def draw_errors_block(seed, block, size, duration_s, noise):
    """Physical error draws (a, t, rejected) of the first `size` samples of block `block`.

    Keyed by a counter-based generator (Salmon et al., SC'11): block k,
    samples k BLOCK to (k+1) BLOCK - 1, has its own SFC64 stream, seeded by
    the first three words of the Philox4x64 stream with key (seed, 0) and
    initial counter (0, k, 0, 0), so its draws are a function of (seed, k)
    alone.  Sample k BLOCK + j takes variates 2j and 2j+1 of it.  Gaussian
    errors are sigma times Generator.standard_normal (numpy's ziggurat,
    Marsaglia & Tsang 2000); uniform errors are sigma sqrt(3) (2u - 1) of
    Generator.random.  A ziggurat variate takes a variable number of words,
    so a sample depends on the earlier samples of its block, and a call draws
    a prefix of one block: 1 <= size <= BLOCK.  Unphysical draws are redrawn
    from the same position of block k's SFC64 stream under key (seed, attempt) for
    attempt = 1..MAX_RESAMPLES, then RejectedSampleError names the sample.
    `rejected` counts the discarded draws of each sample.
    """
    import numpy as np

    if not 1 <= size <= BLOCK:
        raise ValueError(f"size must lie in [1, BLOCK = {BLOCK}], got {size!r}")
    amp, shift = _block_errors(seed, 0, block, size, noise)
    rejected = np.zeros(size, dtype=np.int64)
    bad = ~_is_physical(duration_s, amp, shift)
    for attempt in range(1, MAX_RESAMPLES + 1):
        if not bad.any():
            return amp, shift, rejected
        rejected += bad
        redraw_amp, redraw_shift = _block_errors(seed, attempt, block, size, noise)
        amp[bad] = redraw_amp[bad]
        shift[bad] = redraw_shift[bad]
        bad &= ~_is_physical(duration_s, amp, shift)
    if bad.any():
        raise RejectedSampleError(
            f"no physical pulse for sample {block * BLOCK + int(np.flatnonzero(bad)[0])} after "
            f"{MAX_RESAMPLES} resamples (nominal T {duration_s:.3e} s, "
            f"sigma_t {noise.sigma_t_s:.3e} s, sigma_a {noise.sigma_a:.3e})"
        )
    return amp, shift, rejected


def sample_pulse(rng, nominal, noise):
    """One noisy realization of a pulse: J' = J(1+a), T' = T + t.

    Takes one 64-bit key from rng and returns sample 0 of draw_errors_block
    under that key, so the same rng state gives the same (a, t) and the
    same resample-then-fail behaviour as the Monte Carlo estimator.
    """
    import numpy as np

    from .gates import PulseSpec

    key = int(rng.integers(2**64, dtype=np.uint64))
    amp, shift, _ = draw_errors_block(key, 0, 1, nominal.duration_s, noise)
    return PulseSpec(nominal.j_rad_per_s * (1.0 + amp[0]), nominal.duration_s + shift[0])
