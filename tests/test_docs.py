"""The documented examples run as tests: README.md and every module docstring."""
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
