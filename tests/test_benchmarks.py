"""The benchmark's diagnostics still reach the package functions they time."""

import importlib.util
from pathlib import Path

PERCALL = Path(__file__).resolve().parents[1] / "benchmarks" / "percall.py"


def test_percall_times_every_function_it_names(monkeypatch):
    # bench.py --trace 1 reports these costs; a renamed or deleted function
    # must fail here, not in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("percall", PERCALL)
    percall = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(percall)
    monkeypatch.setattr(percall, "CHUNK_S", 1e-6)
    monkeypatch.setattr(percall, "CHUNKS", 2)
    costs = percall.per_call_costs(seed=1)
    # percall reports montecarlo.substream, which is gone, as 0 itself.
    costs.pop("montecarlo.substream")
    assert costs and all(cost > 0.0 for cost in costs.values()), costs
