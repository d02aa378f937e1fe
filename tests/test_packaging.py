"""The package's boundary: the test oracles stay in tests/, an import loads
nothing that only a parallel sweep needs and no dataclasses, __all__ lists
exactly the public functions and classes that sqcirc binds, and no module
keeps a functools cache."""
import ast
import inspect
import os
import pathlib
import subprocess
import sys

import sqcirc

SRC = pathlib.Path(sqcirc.__file__).resolve().parents[1]


def loaded_by_import(*names: str) -> str:
    # a fresh interpreter, so modules the test process loaded do not count
    code = ("import sys, sqcirc, sqcirc.cli; "
            f"print(sorted({set(names)!r} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_test_oracle():
    assert loaded_by_import("networkx", "oracles") == "[]\n"


def test_import_loads_no_multiprocessing():
    assert loaded_by_import("multiprocessing") == "[]\n"


def test_import_loads_no_dataclasses():
    # the records are named tuples: a cold start compiles none of these
    assert loaded_by_import("dataclasses", "inspect", "ast", "dis", "tokenize") == "[]\n"


def test_every_exported_name_resolves_once():
    assert len(sqcirc.__all__) == len(set(sqcirc.__all__))
    assert [name for name in sqcirc.__all__ if not hasattr(sqcirc, name)] == []


def test_every_public_function_and_class_is_exported():
    public = {name for name, value in vars(sqcirc).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert public - set(sqcirc.__all__) == set()


def test_no_functools_cache():
    # a cache's hidden state outlives the call that filled it; what the
    # package computes once per word lives on that word's WordAnalysis
    caches = {"lru_cache", "cache"}
    used = []
    for path in sorted((SRC / "sqcirc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used += [(path.name, alias.name) for alias in node.names
                         if alias.name in caches]
            elif (isinstance(node, ast.Attribute) and node.attr in caches
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                used.append((path.name, node.attr))
    assert used == []
