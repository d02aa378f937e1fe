"""The package's dependency boundary: the test oracles stay in tests/, and
an import loads nothing that only a parallel sweep needs."""
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
