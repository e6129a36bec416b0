#!/usr/bin/env python3
"""Reference outputs of the ``cbs2atom`` commands, and their only writer.

Each case is one command line.  A command that writes files writes them to
``out`` under its working directory, so the echoed ``output`` parameter
reads the same wherever it runs; a validation suite's report is kept as
``stdout.txt``.  ``tests/test_reference.py`` reruns every case into a
temporary directory and compares the result with the fixture directory of
the same name here.

Run ``python tests/reference/regenerate.py`` from the repository root to
replace every fixture with the outputs of the working tree.  A change that
moves an output reruns it and names the numbers that moved and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

CASES = {
    "spectrum": ["spectrum", "--rabi", "2"],
    "sweep": ["sweep", "--rabi", "0.001", "0.5", "2", "20", "--detuning", "0", "1.5",
              "--nu-points", "21"],
    "pump-probe": ["spectrum", "--rabi", "2", "--method", "pump-probe",
                   "--nu-points", "11"],
    "oracle": ["spectrum", "--rabi", "2", "--method", "oracle", "--samples", "1000",
               "--nu-points", "9"],
    "validate-oracle": ["validate", "oracle"],
    "validate-equivalence": ["validate", "equivalence"],
    "validate-physics": ["validate", "physics"],
}


def run_case(name: str, directory: str) -> str:
    """Run case ``name`` in ``directory`` and return the directory that
    holds its outputs."""
    from cbs2atom.cli import main

    argv = CASES[name]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        if argv[0] == "validate":
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            with open("stdout.txt", "w", newline="\n") as handle:
                handle.write(stdout.getvalue())
            outputs = directory
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--output", "out"])
            outputs = os.path.join(directory, "out")
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"case {name} exited with status {code}")
    return outputs


def regenerate() -> None:
    for name in CASES:
        target = os.path.join(HERE, name)
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_case(name, workdir)
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(outputs, target)
        print(target)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    regenerate()
