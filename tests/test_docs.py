"""Tests that the README's module map names what the modules define."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import exchsim

README = Path(__file__).resolve().parents[1] / "README.md"


def module_map():
    """(module, contents cell) of each row of the README's module map."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(exchsim\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def mapped_names():
    for module, contents in module_map():
        for name in re.findall(r"`([^`]+)`", contents):
            yield pytest.param(module, name, id=f"{module}: {name}")


def test_module_map_lists_every_submodule():
    modules = [module for module, _ in module_map()]
    assert len(modules) == len(set(modules))
    assert set(modules) == {f"exchsim.{m.name}" for m in pkgutil.iter_modules(exchsim.__path__)}


@pytest.mark.parametrize("module, name", mapped_names())
def test_module_map_name_resolves(module, name):
    # A name that starts with the package is a full path; any other name is an
    # attribute (or attribute path) of the row's module.
    if name.startswith("exchsim."):
        module, _, name = name.rpartition(".")
    value = importlib.import_module(module)
    for part in name.split("."):
        assert hasattr(value, part), f"{module} has no {name!r}"
        value = getattr(value, part)
