"""The corpus reaches every statement inside a function of cli.py, budget.py and montecarlo.py.

The corpus pins the bytes of the paths it runs, and nothing else, so a path
that no case runs could change its output unnoticed.  This test runs every
case under a line tracer (sys.settrace, and threading.settrace for the worker
threads) and requires each statement of a function or method of those three
modules to be reached, apart from ALLOWED: main's internal-error branch and
McConfig's stand-in for a missing dephasing, which no argv runs.  Statements and their lines come
from ast: a simple statement is reached when any of its lines runs, a compound
one when its header does; a function's docstring is not a statement here.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

import cases
from exchsim import budget, cli, montecarlo

MODULES = (cli, budget, montecarlo)
# (module, function, first line of the statement) -> why no CLI argv reaches it
ALLOWED = {
    **{("cli", "main", text): "main's internal-error branch: only a bug in a command runs it"
       for text in ("import traceback", "traceback.print_exc()", "return 1")},
    ("montecarlo", "__post_init__",
     'object.__setattr__(self, "dephasing", DephasingSpec(math.inf))'):
        "the CLI always passes a DephasingSpec",
}


def _statements(body, function, source_lines):
    """(function, first source line, the lines whose execution reaches it) of each
    statement in body, recursively, nested functions included."""
    for node in body:
        header_end = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
        yield (function, source_lines[node.lineno - 1].strip(),
               range(node.lineno, max(node.lineno, header_end) + 1))
        if isinstance(node, ast.FunctionDef):
            yield from _function_statements(node, source_lines)
            continue
        for block in (getattr(node, "body", []), getattr(node, "orelse", []),
                      getattr(node, "finalbody", []),
                      *(handler.body for handler in getattr(node, "handlers", []))):
            yield from _statements(block, function, source_lines)


def _function_statements(function, source_lines):
    body = function.body[1:] if ast.get_docstring(function, clean=False) else function.body
    yield from _statements(body, function.name, source_lines)


def statements(module):
    """The statements inside the functions and methods of module, as _statements gives them."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    tree, source_lines = ast.parse(source), source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) or node is tree:
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield from _function_statements(child, source_lines)


@pytest.fixture(scope="module")
def reached():
    """The (file, line) pairs of MODULES that the corpus runs."""
    files = {module.__file__ for module in MODULES}
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        for name in cases.CASES:
            cases.run(name)
    finally:
        sys.settrace(previous)
        threading.settrace(None)
    return lines


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_statement_in_a_function_is_reached(module, reached):
    name = module.__name__.rsplit(".", 1)[1]
    missed = [f"{Path(module.__file__).name}:{lines[0]} in {function}: {text}"
              for function, text, lines in statements(module)
              if (name, function, text) not in ALLOWED
              and not any((module.__file__, line) in reached for line in lines)]
    assert not missed, "no corpus case reaches:\n" + "\n".join(missed)


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_each_allowed_statement_exists_and_is_not_reached(key, reached):
    module = {m.__name__.rsplit(".", 1)[1]: m for m in MODULES}[key[0]]
    found = [lines for function, text, lines in statements(module)
             if (key[0], function, text) == key]
    assert found, f"{key} names no statement"
    assert not any((module.__file__, line) in reached for lines in found for line in lines), key
