"""The package's dependency boundary: the test oracles stay in tests/."""
import os
import pathlib
import subprocess
import sys

import sqcirc

SRC = pathlib.Path(sqcirc.__file__).resolve().parents[1]


def test_import_loads_no_test_oracle():
    # a fresh interpreter, so modules the test process loaded do not count
    code = ("import sys, sqcirc, sqcirc.cli; "
            "print(sorted({'networkx', 'oracles'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
