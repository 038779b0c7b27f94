"""Every case of the byte-identity corpus reproduces its committed digests."""

import json
import shlex

import pytest

import cases

RECORDS = json.loads(cases.DIGESTS.read_text(encoding="utf-8"))


def test_the_recorded_cases_are_the_table():
    assert ({name: record["argv"] for name, record in RECORDS.items()}
            == {name: shlex.join(argv) for name, argv in cases.CASES.items()})


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_case_reproduces_its_digests(name):
    assert cases.run(name) == RECORDS[name]
