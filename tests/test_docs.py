"""The documented examples run as tests: README.md and every module docstring."""
import ast
import doctest
import importlib
import pathlib
import re

import pytest

import sqcirc
from sqcirc.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("circuits", "cli", "injection", "rauzy", "squares", "verifier", "words")


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0 and result.attempted > 0


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"sqcirc.{name}"))
    assert result.failed == 0


def test_every_module_is_listed():
    package = pathlib.Path(sqcirc.__file__).parent
    assert {p.stem for p in package.glob("*.py")} - {"__init__"} == set(MODULES)


def test_readme_command_lines_use_real_flags(capsys):
    # every --flag on a README "sqcirc <cmd> ..." line is an option of <cmd>
    text = README.read_text()
    lines = re.findall(r"^`?sqcirc (\w+)([^`\n]*)", text, re.M)
    assert lines
    for command, rest in lines:
        assert main([command, "--help"]) == 0
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        for flag in re.findall(r"--[\w-]+", rest):
            assert flag in options, f"sqcirc {command} has no {flag}"


def test_dotted_names_in_the_docs_exist():
    # every `module.name` or `sqcirc.module.name` in README.md, and every
    # module.name in a source docstring, names an attribute that exists
    dotted = rf"(?:sqcirc\.)?((?:{'|'.join(MODULES)})(?:\.\w+)+)"
    found = [("README.md", name) for name in re.findall(rf"`{dotted}[`(]", README.read_text())]
    for path in sorted(pathlib.Path(sqcirc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                found += [(path.name, name) for name in re.findall(rf"(?<![\w./]){dotted}", doc)]
    assert len({where for where, _ in found}) > 2
    for where, name in found:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"sqcirc.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{where} names {name}, which does not exist"
            obj = getattr(obj, attr)
