"""Isolated per-call cost of the public functions each layer is built from.

Each function runs on fixed, typical inputs (the mc-coherent pulse, the
0.5 ms si-spin T2) in chunks of about CHUNK_S seconds; the cost per call is
the median over CHUNKS chunks.  A function that no longer exists reports 0.
"""

import statistics
from time import perf_counter

CHUNK_S = 0.01
CHUNKS = 15


def _median_us_per_call(fn):
    calls = 1
    while True:  # grow the chunk until it lasts CHUNK_S
        start = perf_counter()
        for i in range(calls):
            fn(i)
        if perf_counter() - start >= CHUNK_S:
            break
        calls *= 2
    per_call = []
    for _ in range(CHUNKS):
        start = perf_counter()
        for i in range(calls):
            fn(i)
        per_call.append((perf_counter() - start) / calls)
    return 1e6 * statistics.median(per_call)


def per_call_costs(seed):
    """{layer name: microseconds per call}."""
    import numpy as np

    import exchsim as ex
    from exchsim import montecarlo

    duration = 5e-9
    nominal = ex.pulse_for_target(0.5, duration)
    noise = ex.ControlNoiseSpec(sigma_a=1e-3, sigma_t_s=1e-12)
    rng = np.random.Generator(np.random.Philox(seed))
    theta = ex.phase_from_pulse(nominal)
    dephasing = ex.DephasingSpec(0.5e-3)  # si-spin T2
    channel = ex.compose_channel_after_unitary(
        ex.dephasing_channel(duration, dephasing), ex.exchange_unitary(theta))
    target = ex.swap_power_target(0.5)
    platform = ex.builtin_platforms()["si-spin"]
    tech = ex.builtin_catalog()[0]
    substream = getattr(montecarlo, "substream", None)

    cases = {
        "montecarlo.substream": substream and (lambda i: substream(seed, i)),
        "noise.sample_pulse": lambda i: ex.sample_pulse(rng, nominal, noise),
        "gates.pulse_spec": lambda i: ex.PulseSpec(j_rad_per_s=nominal.j_rad_per_s,
                                                   duration_s=duration),
        "gates.exchange_unitary": lambda i: ex.exchange_unitary(theta),
        "dephasing.channel": lambda i: ex.dephasing_channel(duration, dephasing),
        "dephasing.entanglement_fidelity": lambda i: ex.entanglement_fidelity(channel, target),
        "budget.feasibility": lambda i: ex.feasibility(platform, tech, 1e-5),
    }
    return {name: _median_us_per_call(fn) if fn else 0.0 for name, fn in cases.items()}
