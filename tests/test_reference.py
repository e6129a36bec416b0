"""The reference commands reproduce their checked-in outputs.

Text, keys, names, bounds and verdicts match exactly.  Table numbers match
to 1e-13 of the largest magnitude in their column (a JSON number alone is
its own column), so another BLAS build or CPU does not fail the test; a
validation deviation, printed to four digits and often rounding noise,
matches to 1e-13 absolute.  ``tests/reference/regenerate.py`` writes the
fixtures.
"""

import json
import os
import re

import numpy as np
import pytest

from reference.regenerate import CASES, HERE, run_case

RTOL = 1e-13
ROW = re.compile(r"^(\S+)\s+deviation (\S+)\s+bound (\S+)\s+(pass|FAIL)$")


def assert_column(got, ref, where):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape, where
    assert np.max(np.abs(got - ref), initial=0.0) <= RTOL * np.max(np.abs(ref), initial=0.0), where


def compare_csv(got, ref, where):
    def split(text):
        lines = text.splitlines()
        names = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        rows = [[float(cell) for cell in line.split(",")] for line in lines[names + 1:]]
        return lines[:names + 1], np.array(rows, ndmin=2)

    (got_text, got_rows), (ref_text, ref_rows) = split(got), split(ref)
    assert got_text == ref_text, where
    assert got_rows.shape == ref_rows.shape, where
    for j, name in enumerate(ref_text[-1].split(",")):
        assert_column(got_rows[:, j], ref_rows[:, j], f"{where}:{name}")


def compare_json(got, ref, where):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), where
        for key in ref:
            compare_json(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list) and all(type(x) in (int, float) for x in ref):
        assert isinstance(got, list), where
        assert_column(got, ref, where)
    elif type(ref) is float:
        assert type(got) is float, where
        assert_column(got, ref, where)
    else:
        assert got == ref, where


def compare_report(got, ref, where):
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    assert len(got_lines) == len(ref_lines), where
    for got_line, ref_line in zip(got_lines, ref_lines):
        got_row, ref_row = ROW.match(got_line), ROW.match(ref_line)
        if ref_row is None:
            assert got_line == ref_line, where
            continue
        assert got_row is not None, (where, got_line)
        name, deviation, bound, verdict = ref_row.groups()
        assert (got_row[1], got_row[3], got_row[4]) == (name, bound, verdict), (where, name)
        assert abs(float(got_row[2]) - float(deviation)) <= 1e-13, (where, name)


@pytest.mark.parametrize("case", list(CASES))
def test_reference_outputs_are_reproduced(tmp_path, case):
    outputs = run_case(case, str(tmp_path))
    fixture = os.path.join(HERE, case)
    assert sorted(os.listdir(outputs)) == sorted(os.listdir(fixture))
    for name in sorted(os.listdir(fixture)):
        with open(os.path.join(outputs, name)) as handle:
            got = handle.read()
        with open(os.path.join(fixture, name)) as handle:
            ref = handle.read()
        where = f"{case}/{name}"
        if name.endswith(".csv"):
            compare_csv(got, ref, where)
        elif name.endswith(".json"):
            compare_json(json.loads(got), json.loads(ref), where)
        elif name == "stdout.txt":
            compare_report(got, ref, where)
        else:
            assert got == ref, where
