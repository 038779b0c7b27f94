"""Tests that the README's module map, spec-file example, manifest schema, Quick
start values and CLI examples match the code."""

import ast
import configparser
import importlib
import pkgutil
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import exchsim
from exchsim import budget, cli, dephasing, gates, montecarlo, noise

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


def test_readme_spec_file_loads_and_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Spec files\n", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    loaded = budget.load_specs(block)  # an unknown section or key raises
    assert loaded.technologies[0].notes == "optional free text"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    # every key each record accepts, optional ones included
    accepted = {section: {budget._INI_KEYS.get(field.name, field.name) for field in fields(record)}
                for section, record in (("platform", budget.PlatformSpec),
                                        ("technology", budget.TechnologySpec),
                                        ("threshold", budget.Threshold))}
    assert {name: set(parser[name]) for name in parser.sections()} == accepted


def test_readme_manifest_paragraph_names_every_parameter_field():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("\nA manifest's `parameters`", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([^`]+)`", paragraph))
    records = (montecarlo.McConfig, gates.PulseSpec, noise.ControlNoiseSpec,
               dephasing.DephasingSpec)
    assert {field.name for record in records for field in fields(record)} - named == set()


def section_block(heading, language):
    """The first ```language block after the README line `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_gives_the_values_it_states():
    """Each `expression  # value` line of the Quick start evaluates to its value:
    exactly, or for `~value` to the significant digits written."""
    block = section_block("## Quick start (Python)", "python")
    lines = block.splitlines()
    namespace, checked = {}, []
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        stated = re.search(r"#\s*(?:->\s*)?(~?)(\S+)", lines[statement.end_lineno - 1])
        approximate, text = stated.groups()
        if approximate:
            digits = len(re.sub(r"\D", "", text.lower().split("e")[0]))
            assert float(f"{value:.{digits - 1}e}") == float(text), (text, value)
        else:
            assert type(value) is type(ast.literal_eval(text)) and value == ast.literal_eval(text)
        checked.append(stated.group(0))
    assert len(checked) == 5, checked


def cli_examples():
    for line in section_block("## CLI", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "exchsim", line
        yield pytest.param(argv[1:], id=shlex.join(argv[1:]))


def test_readme_cli_section_has_seven_examples():
    assert len(list(cli_examples())) == 7


@pytest.mark.parametrize("argv", cli_examples())
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CATALOG_ENV_VAR, raising=False)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code == 0, capsys.readouterr().err
