"""Command-line front end: emitted files, exit codes, reproducibility."""

import ast
import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import cbs2atom
from cbs2atom.atom import AtomDriveParams
from cbs2atom import cli
from cbs2atom.cli import SUITES, RunConfig, _build_parser, _config_from_args, main
from cbs2atom.residues import compact_elastic_weights
from cbs2atom.spectra import BLOCK_PAIRS, cbs_spectra

GRID = ["--nu-min", "-6", "--nu-max", "6", "--nu-points", "7"]


def run(argv, capsys):
    code = main([str(arg) for arg in argv])
    capsys.readouterr()
    return code


def read_csv(path):
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], ndmin=2)
    return {name: rows[:, i] for i, name in enumerate(names)}


def test_spectrum_rerun_is_byte_identical(tmp_path, capsys):
    # the header echoes the output directory, so both runs write to one
    argv = ["spectrum", "--rabi", 2, *GRID, "--output", tmp_path]
    assert run(argv, capsys) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(first) == ["spectrum.csv", "spectrum.json", "spectrum_plot.py"]
    assert run(argv, capsys) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_tables_round_trip_to_library_numbers(tmp_path, capsys):
    drive = AtomDriveParams(rabi=1.3, delta=0.8)
    result = cbs_spectra(drive, nus=np.linspace(-6.0, 6.0, 7))
    argv = ["spectrum", "--rabi", 1.3, "--detuning", 0.8, *GRID]
    assert run([*argv, "--output", tmp_path / "csv"], capsys) == 0
    assert run([*argv, "--format", "json", "--output", tmp_path / "json"], capsys) == 0

    table = read_csv(tmp_path / "csv" / "spectrum.csv")
    sidecar = json.loads((tmp_path / "csv" / "spectrum.json").read_text())
    payload = json.loads((tmp_path / "json" / "spectrum.json").read_text())
    for columns, summary in ((table, sidecar), (payload["table"], payload)):
        assert np.array_equal(columns["nu"], result.ladder.nu)
        assert np.array_equal(columns["L_inel"], result.ladder.values)
        assert np.array_equal(columns["C_inel"], result.crossed.values)
        assert summary["elastic_ladder"] == result.elastic_ladder
        assert summary["elastic_crossed"] == result.elastic_crossed
        assert summary["enhancement"] == result.enhancement


def test_table_cells_are_the_17_digit_library_values(tmp_path, capsys):
    # every cell is exactly "%.17g" of the library's number, row by row in
    # column order
    result = cbs_spectra(AtomDriveParams(rabi=1.3, delta=0.8), nus=np.linspace(-6.0, 6.0, 7))
    assert run(["spectrum", "--rabi", 1.3, "--detuning", 0.8, *GRID, "--output", tmp_path],
               capsys) == 0
    lines = [line for line in (tmp_path / "spectrum.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "nu,L_inel,C_inel"
    expected = zip(result.ladder.nu, result.ladder.values, result.crossed.values)
    assert lines[1:] == [",".join("%.17g" % x for x in row) for row in expected]


def test_validate_oracle_exit_codes(capsys, monkeypatch):
    assert main(["validate", "oracle"]) == 0
    report = capsys.readouterr().out
    assert "compact-ladder" in report and "fixed-config-ladder" in report
    # one row pushed past its bound fails the suite and is named
    oracle = cli._RUNNERS["oracle"]

    def one_row_beyond_its_bound():
        (name, _, bound), *rest = oracle()
        return [(name, 2.0 * bound, bound), *rest]

    monkeypatch.setitem(cli._RUNNERS, "oracle", one_row_beyond_its_bound)
    assert main(["validate", "oracle"]) == 1
    report = capsys.readouterr().out
    assert report.splitlines()[-1] == "FAILED: fixed-config-ladder"
    assert report.count("FAIL\n") == 1


def test_validate_oracle_stops_on_a_complex_elastic_weight(capsys, monkeypatch):
    # the fixed-geometry elastic weights are real to rounding; an imaginary
    # part of 1e-6 of a splitting stops the suite instead of being dropped
    from cbs2atom import twoatom

    def skewed(gen, nus):
        spec = twoatom.fixed_config_spectrum(gen, nus)
        return dataclasses.replace(spec, **{
            name: {mono: value * (1.0 + 1e-6j) for mono, value in getattr(spec, name).items()}
            for name in ("elastic_autocorrelation", "elastic_exchange")})

    monkeypatch.setattr("cbs2atom.cli.fixed_config_spectrum", skewed)
    with pytest.raises(ArithmeticError, match="imaginary part beyond rounding"):
        main(["validate", "oracle"])


@pytest.mark.parametrize("suite", SUITES)
def test_validate_suites_pass_at_their_default_bounds(capsys, suite):
    assert main(["validate", suite]) == 0
    report = capsys.readouterr().out
    assert "OK:" in report and "FAIL" not in report


@pytest.mark.parametrize("flag", [["--tolerance", "1"], ["--nu-points", "9"]])
def test_validate_runs_each_suite_as_stated(capsys, flag):
    # a suite's grid and bounds are its own: neither takes an override
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "oracle", *flag])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert captured.out == ""


def test_unknown_suite_exits_with_usage_error(capsys):
    # the suite of the resolvent reduction identities, which no route uses, is gone
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "sum-rules"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_oracle_spectrum_agrees_with_production_and_reruns_identically(tmp_path, capsys):
    # default --samples (10k); the header echoes the output directory,
    # so both runs write to one
    argv = ["spectrum", "--rabi", 2, "--method", "oracle", "--seed", 5, *GRID,
            "--output", tmp_path]
    assert run(argv, capsys) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    table = read_csv(tmp_path / "spectrum.csv")
    sidecar = json.loads((tmp_path / "spectrum.json").read_text())
    assert sidecar["parameters"]["samples"] == 10_000
    result = cbs_spectra(AtomDriveParams(rabi=2.0), nus=np.linspace(-6.0, 6.0, 7))
    for column, channel in (("L_inel", result.ladder), ("C_inel", result.crossed)):
        error = table[column + "_err"]
        assert np.all(error > 0)
        assert np.all(np.abs(table[column] - channel.values) <= 5 * error), column
    for name, weight in (("elastic_ladder", result.elastic_ladder),
                         ("elastic_crossed", result.elastic_crossed)):
        error = sidecar[name + "_stderr"]
        assert error > 0 and abs(sidecar[name] - weight) <= 5 * error, name
    assert run(argv, capsys) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_pump_probe_spectrum_agrees_with_production_and_reruns_identically(tmp_path,
                                                                          capsys):
    # the header echoes the output directory, so both runs write to one
    argv = ["spectrum", "--rabi", 2, "--method", "pump-probe", "--nu-points", 3,
            "--output", tmp_path]
    assert run(argv, capsys) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    table = read_csv(tmp_path / "spectrum.csv")
    sidecar = json.loads((tmp_path / "spectrum.json").read_text())
    result = cbs_spectra(AtomDriveParams(rabi=2.0), nus=np.linspace(-15.0, 15.0, 3))
    assert np.array_equal(table["nu"], result.ladder.nu)
    # densities within 1e-12 of each channel's peak; the elastic weights
    # come from the pump's harmonic orders, which makes them the closed
    # form's exactly and production's within 1e-13 relative
    closed_form = compact_elastic_weights(AtomDriveParams(rabi=2.0))
    for column, name, channel, weight in (
            ("L_inel", "elastic_ladder", result.ladder, closed_form[0]),
            ("C_inel", "elastic_crossed", result.crossed, closed_form[1])):
        scale = np.max(np.abs(channel.values))
        assert np.max(np.abs(table[column] - channel.values)) <= 1e-12 * scale, column
        assert sidecar[name] == weight, name
        assert abs(sidecar[name] - channel.elastic_weight) <= 1e-13 * abs(channel.elastic_weight)
    assert run(argv, capsys) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_zero_drive_exits_with_usage_error(tmp_path, capsys):
    assert main(["spectrum", "--rabi", "0", "--output", str(tmp_path)]) == 2
    assert "rabi" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--x0", "--periods"])
def test_the_oracle_window_has_no_flag(tmp_path, capsys, flag):
    argv = ["spectrum", "--rabi", "2", "--method", "oracle", flag, "200", *GRID,
            "--output", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["spectrum", "--rabi", "2", "--method", "oracle"],
                                     ["sweep", "--rabi", "0.7", "2", "--method", "oracle"],
                                     ["spectrum", "--rabi", "2", "--method", "analytic"],
                                     ["spectrum", "--rabi", "2", "--method", "pump-probe"]])
def test_too_few_oracle_samples_exit_with_usage_error(tmp_path, capsys, command):
    # the other methods draw nothing, but echo the count into their sidecar
    argv = [*command, "--samples", "10", *GRID, "--output", str(tmp_path)]
    assert main(argv) == 2
    assert "samples must be an integer of at least 1000, got 10" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method", ["analytic", "oracle"])
def test_negative_seed_exits_with_usage_error(tmp_path, capsys, method):
    # the analytic method draws nothing, but echoes the seed into its sidecar
    argv = ["spectrum", "--rabi", "2", "--method", method, "--seed", "-1", *GRID,
            "--output", str(tmp_path)]
    assert main(argv) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name, value", [
    (["spectrum", "--rabi", "2", "--detuning", "-1e-3"], "detuning", -1e-3),
    (["spectrum", "--rabi", "2", "--nu-min", "-1e1"], "nu_min", -10.0),
    (["sweep", "--rabi", "2", "--detuning", "0", "-1e-3"], "detuning", [0.0, -1e-3]),
], ids=["detuning", "nu-min", "sweep-list"])
def test_negative_numbers_in_exponent_notation_are_values(argv, name, value):
    assert getattr(_build_parser().parse_args(argv), name) == value


@pytest.mark.parametrize("message, reported", [
    ("Unable to allocate 745. GiB", "Unable to allocate 745. GiB"), ("", "out of memory")],
    ids=["numpy", "bare"])
def test_out_of_memory_exits_with_one_line_error(tmp_path, capsys, monkeypatch,
                                                 message, reported):
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr("cbs2atom.cli.cmd_spectrum", exhausted)
    assert main(["spectrum", "--rabi", "2", "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {reported}\n"


@pytest.mark.parametrize("method", ["analytic", "oracle"])
@pytest.mark.parametrize("bound", ["--nu-min=-inf", "--nu-max=inf", "--nu-max=nan"])
def test_non_finite_grid_exits_with_usage_error(tmp_path, capsys, method, bound):
    argv = ["spectrum", "--rabi", "2", "--method", method, bound, "--output", str(tmp_path)]
    assert main(argv) == 2
    name = bound[2:].split("=")[0].replace("-", "_")
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, name", [
    (["--rabi", "1e80"], "rabi"), (["--rabi", "2", "--detuning", "1e160"], "detuning"),
    (["--rabi", "2", "--nu-min=-1e160", "--nu-max", "1e160"], "nu_min")],
    ids=["rabi", "detuning", "grid"])
def test_inputs_beyond_double_precision_exit_with_one_line_error(tmp_path, capsys, flags, name):
    # finite, but their products would overflow: the input rule names the
    # argument, where an inf or nan would fail a check far downstream
    assert main(["spectrum", *flags, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite, at most 1e+50 in magnitude")
    assert err.count("\n") == 1 and "Warning" not in err
    assert not any(tmp_path.iterdir())


def test_quadrature_limit_names_the_pole_spread(tmp_path, capsys):
    # the pole clusters at 0 and nu lie 1e5 apart, each pole 1 from the axis
    argv = ["spectrum", "--rabi", "2", "--method", "pump-probe", "--nu-min", "1e5",
            "--nu-max", "2e5", "--nu-points", "5", "--output", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "real spread 1e+05" in err and "smallest |Im| 1 " in err
    assert err.count("\n") == 1


def test_sweep_summary_has_one_row_per_drive(tmp_path, capsys):
    argv = ["sweep", "--rabi", 0.7, 2, "--detuning", 0, 1, *GRID, "--output", tmp_path]
    assert run(argv, capsys) == 0
    summary = read_csv(tmp_path / "sweep_summary.csv")
    assert list(zip(summary["rabi"], summary["detuning"])) == [
        (0.7, 0.0), (0.7, 1.0), (2.0, 0.0), (2.0, 1.0)]
    for i, (rabi, detuning) in enumerate(zip(summary["rabi"], summary["detuning"])):
        result = cbs_spectra(AtomDriveParams(rabi=rabi, delta=detuning),
                             nus=np.linspace(-6.0, 6.0, 7))
        assert summary["L_el"][i] == result.elastic_ladder
        assert summary["C_total"][i] == result.crossed.total
        assert summary["enhancement"][i] == result.enhancement


def test_spectrum_files_equal_the_sweep_point_files(tmp_path, capsys):
    # one drive is solved as a stack of one, so a spectrum agrees bit for bit
    # with the same drive inside a swept stack, on a short and on a long grid,
    # where the four drives are still one stack; one output directory, as the
    # headers echo it
    assert 4 * 201 <= BLOCK_PAIRS
    for points in (21, 201):
        grid = ["--nu-points", points, "--output", tmp_path]
        assert run(["sweep", "--rabi", 1, 2, "--detuning", 0, 1.1484375, *grid], capsys) == 0
        for rabi, detuning, name in ((1, 1.1484375, "sweep_r1_d1p14844"), (2, 0, "sweep_r2_d0")):
            argv = ["spectrum", "--rabi", rabi, "--detuning", detuning, *grid]
            assert run(argv, capsys) == 0
            for suffix in (".csv", ".json"):
                assert ((tmp_path / f"spectrum{suffix}").read_bytes()
                        == (tmp_path / f"{name}{suffix}").read_bytes()), (points, name, suffix)


def test_sweep_summary_header_lists_every_drive(tmp_path, capsys):
    # the per-point headers echo one drive each; the summary names itself
    # and lists every swept value, not the first point's
    argv = ["sweep", "--rabi", 0.5, 2, "--detuning", 0, 1.5, *GRID, "--output", tmp_path]
    assert run(argv, capsys) == 0
    header = [line for line in (tmp_path / "sweep_summary.csv").read_text().splitlines()
              if line.startswith("#")]
    assert header[0] == "# cbs2atom sweep summary"
    assert "# rabi=[0.5, 2.0]" in header and "# detuning=[0.0, 1.5]" in header
    point = (tmp_path / "sweep_r2_d1p5.csv").read_text().splitlines()
    assert point[0] == "# cbs2atom spectrum table"
    assert "# rabi=2.0" in point and "# detuning=1.5" in point


@pytest.mark.parametrize("method, fmt", [("oracle", "csv"), ("oracle", "json"),
                                         ("pump-probe", "csv")])
def test_sweep_through_the_oracle_methods(tmp_path, capsys, method, fmt):
    # every point's table has its method's columns, and every summary row
    # is its point's sidecar
    argv = ["sweep", "--rabi", 0.7, 2, "--method", method, "--format", fmt,
            "--samples", 1000, *GRID, "--output", tmp_path]
    assert run(argv, capsys) == 0
    columns = ["nu", "L_inel", "C_inel"]
    if method == "oracle":
        columns += ["L_inel_err", "C_inel_err"]
    summary = read_csv(tmp_path / "sweep_summary.csv")
    for i, name in enumerate(["sweep_r0p7_d0", "sweep_r2_d0"]):
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        table = sidecar["table"] if fmt == "json" else read_csv(tmp_path / f"{name}.csv")
        assert sorted(table) == sorted(columns)
        if fmt == "csv":
            assert list(table) == columns
        assert all(len(table[column]) == 7 for column in columns)
        assert sidecar["parameters"]["method"] == method
        assert summary["rabi"][i] == sidecar["parameters"]["rabi"]
        assert summary["detuning"][i] == sidecar["parameters"]["detuning"]
        assert summary["L_el"][i] == sidecar["elastic_ladder"]
        assert summary["C_el"][i] == sidecar["elastic_crossed"]
        assert summary["enhancement"][i] == sidecar["enhancement"]


@pytest.mark.parametrize("rabis", [["2", "2.0000000001"], ["2", "-1"], ["2", "1e-300"],
                                  ["0.5", "1e-300", "2"]],
                         ids=["name-collision", "bad-point", "empty-channel",
                              "empty-channel-mid-stack"])
def test_sweep_checks_every_point_before_writing(tmp_path, capsys, rabis):
    # 2 and 2.0000000001 both format as sweep_r2_d0; a later bad drive, or
    # one that passes the option checks but whose background channel is
    # empty, must not leave the earlier points' files behind
    output = tmp_path / "out"
    assert main(["sweep", "--rabi", *rabis, *GRID, "--output", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not output.exists()


def test_flag_defaults_are_the_run_config_defaults():
    args = _build_parser().parse_args(["spectrum", "--rabi", "2"])
    assert _config_from_args(args) == RunConfig(rabi=2.0)


@pytest.mark.parametrize("fields, message", [
    ({"samples": 1000.5}, "samples must be an integer of at least 1000, got 1000.5"),
    ({"seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
    ({"nu_points": 3.5}, "nu_points must be an integer of at least 3, got 3.5"),
    ({"rabi": True}, "rabi must be a real number, got True"),
    ({"detuning": False}, "detuning must be a real number, got False"),
    ({"nu_min": np.True_}, "nu_min must be a real number, got "),
    ({"nu_max": True}, "nu_max must be a real number, got True"),
    ({"rabi": "2"}, "rabi must be a real number, got '2'"),
    ({"detuning": None}, "detuning must be a real number, got None"),
])
def test_run_config_rejects_non_integer_counts(fields, message):
    # the library takes any number where the flags take integers; a count it
    # would echo into every sidecar, or fail on later, is refused at
    # construction, and so is a bool or a non-number where it takes a float
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**{"rabi": 2.0, **fields})


@pytest.fixture
def stub_matplotlib(monkeypatch):
    """Let the emitted plot scripts run where matplotlib is not installed."""
    pyplot = mock.MagicMock()
    pyplot.subplots.return_value = (mock.MagicMock(), mock.MagicMock())
    package = mock.MagicMock(pyplot=pyplot)
    monkeypatch.setitem(sys.modules, "matplotlib", package)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return pyplot


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_plot_script_reads_its_table(tmp_path, capsys, monkeypatch,
                                              stub_matplotlib, fmt):
    assert run(["spectrum", "--rabi", 2, *GRID, "--format", fmt,
                "--output", tmp_path], capsys) == 0
    monkeypatch.chdir(tmp_path)
    names = runpy.run_path("spectrum_plot.py")
    result = cbs_spectra(AtomDriveParams(rabi=2.0), nus=np.linspace(-6.0, 6.0, 7))
    assert np.array_equal(names["nu"], result.ladder.nu)
    assert np.array_equal(names["ladder"], result.ladder.values)
    assert np.array_equal(names["crossed"], result.crossed.values)
    stub_matplotlib.subplots.return_value[0].savefig.assert_called_once()


def test_sweep_plot_script_reads_its_table(tmp_path, capsys, monkeypatch, stub_matplotlib):
    argv = ["sweep", "--rabi", 0.7, 2, "--detuning", 0, 1, *GRID, "--output", tmp_path]
    assert run(argv, capsys) == 0
    monkeypatch.chdir(tmp_path)
    data = runpy.run_path("sweep_plot.py")["data"]
    summary = read_csv(tmp_path / "sweep_summary.csv")
    assert np.array_equal(data["rabi"], summary["rabi"])
    assert np.array_equal(data["enhancement"], summary["enhancement"])
    assert stub_matplotlib.subplots.return_value[1].plot.call_count == 2


_IMPORT_GRAPH = """
import sys

import cbs2atom.disorder, cbs2atom.pumpprobe, cbs2atom.spectra, cbs2atom.twoatom
assert "cbs2atom.residues" not in sys.modules, "a production module imports residues"
assert "cbs2atom.quadrature" in sys.modules, "pump-probe convolves without the shared rule"

from cbs2atom.cli import main

out = sys.argv[1]
grid = ["--nu-min", "-6", "--nu-max", "6", "--nu-points", "5"]
for argv in (["spectrum", "--rabi", "2", *grid],
             ["spectrum", "--rabi", "2", "--method", "oracle", "--samples", "1000", *grid],
             ["spectrum", "--rabi", "2", "--method", "pump-probe", "--nu-points", "3"],
             ["sweep", "--rabi", "0.7", "2", *grid]):
    assert main([*argv, "--output", out]) == 0, argv
assert main(["validate", "physics"]) == 0
assert "cbs2atom.residues" not in sys.modules, "a spectrum, sweep or physics route imports residues"
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


# the oracle methods and every validate suite, in a second interpreter: the
# oracle suite loads residues, which the first one forbids
_ORACLE_ROUTES = """
import sys

from cbs2atom.cli import SUITES, main

out = sys.argv[1]
for argv in (["spectrum", "--rabi", "2", "--method", "pump-probe", "--nu-points", "3"],
             ["spectrum", "--rabi", "2", "--method", "oracle", "--samples", "1000",
              "--nu-points", "5"]):
    assert main([*argv, "--output", out]) == 0, argv
for suite in SUITES:
    assert main(["validate", suite]) == 0, suite
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_routes_import_no_scipy(tmp_path):
    # a fresh interpreter: neither the production modules nor a spectrum,
    # sweep or `validate physics` route loads the residue oracle, and no
    # such route loads scipy; pump-probe loads the shared quadrature.  A
    # second one: neither do the oracle methods and the validate suites
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbs2atom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for script, written in ((_IMPORT_GRAPH, "sweep_summary.csv"),
                            (_ORACLE_ROUTES, "spectrum.json")):
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / written).exists()


def test_package_imports_no_scipy():
    # scipy is only a test extra: no module of the package imports it, at
    # any depth, a function-local import included
    package = os.path.dirname(os.path.abspath(cbs2atom.__file__))
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    found = []
    for name in names:
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert "cli.py" in names
    assert found == []
