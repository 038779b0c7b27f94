"""Every case of the byte-identity corpus reproduces its committed digests."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cases

RECORDS = json.loads(cases.DIGESTS.read_text(encoding="utf-8"))
SRC = Path(__file__).resolve().parents[2] / "src"
# numpy CPU features switched off per level, from the AVX-512 paths down to
# numpy's X86_V2 baseline
SIMD_LEVELS = {
    "avx512-off": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "x86-v3-off": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}
MC_AND_SWEEP_CASES = sorted(name for name in cases.CASES if name.split("-")[0] in ("mc", "sweep"))
# Runs in a fresh interpreter, since numpy reads NPY_DISABLE_CPU_FEATURES when
# it is imported: prints the features numpy left off and the cases' records.
RUN_CASES = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import cases
from numpy._core._multiarray_umath import __cpu_features__
print(json.dumps({"off": [name for name, on in __cpu_features__.items() if not on],
                  "records": {name: cases.run(name) for name in sys.argv[3:]}}))
"""


def test_the_recorded_cases_are_the_table():
    assert ({name: record["argv"] for name, record in RECORDS.items()}
            == {name: shlex.join(argv) for name, argv in cases.CASES.items()})


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_case_reproduces_its_digests(name):
    assert cases.run(name) == RECORDS[name]


@pytest.mark.parametrize("level", SIMD_LEVELS)
def test_mc_and_sweep_cases_do_not_depend_on_numpys_simd_level(level):
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    off = [name for name in SIMD_LEVELS[level]
           if __cpu_features__.get(name) and name in __cpu_dispatch__]
    if not off:
        pytest.skip(f"numpy dispatches none of {', '.join(SIMD_LEVELS[level])} on this CPU")
    done = subprocess.run(
        [sys.executable, "-c", RUN_CASES, str(Path(cases.__file__).parent), str(SRC),
         *MC_AND_SWEEP_CASES],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off)),
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout)
    assert set(off) <= set(result["off"])
    assert result["records"] == {name: RECORDS[name] for name in MC_AND_SWEEP_CASES}
