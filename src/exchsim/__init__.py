"""exchsim: pulsed-exchange two-qubit gates, control-noise budgets, and feasibility analysis.

The public names below are exported lazily (PEP 562): a submodule is imported
when one of its names is first read, so `import exchsim` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "core": ("SWAP", "density_from_pure", "expm_hermitian", "kron", "process_fidelity",
             "spin_dot_operator"),
    "gates": ("PulseSpec", "exchange_unitary", "gate_error_vs_phase", "phase_from_pulse",
              "profile_pulse", "pulse_for_target", "relative_error_to_phase_error",
              "relative_error_to_phase_error_first_order", "swap_power_target"),
    "noise": ("ControlNoiseSpec", "DephasingSpec", "RejectedSampleError", "sample_pulse"),
    "dephasing": ("QuantumChannel4", "apply_channel", "compose_channel_after_unitary",
                  "dephasing_channel", "entanglement_fidelity"),
    "budget": ("FeasibilityReport", "PlatformSpec", "TechnologySpec", "Threshold",
               "builtin_catalog", "builtin_platforms", "feasibility", "load_specs"),
    "montecarlo": ("McConfig", "McResult", "analytic_infidelity", "estimate_infidelity",
                   "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
