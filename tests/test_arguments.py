"""The argument contract of every public entry point, as one property.

Each argument of each entry point is given each hostile value in turn.  The
call either raises ``ValueError`` whose message names the argument, or
returns finite numbers; any other exception, a warning (tier-1 turns
warnings into errors) or a nan or inf fails, and so does a bool taken for a
number, which would run as 0 or 1.  ``main`` returns 0, returns 2 with one
``error:`` line naming the flag's field, or exits 2 through argparse for a
value its flag's type or choices refuse.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import numbers
import os
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbs2atom.atom import AtomDriveParams, build
from cbs2atom.cli import RunConfig, main
from cbs2atom.disorder import ConfigSampler, monte_carlo_spectra
from cbs2atom.pumpprobe import channel_densities
from cbs2atom.spectra import (
    SpectralFunctionGrid,
    cbs_spectra,
    cbs_spectra_stack,
    default_grid,
    elastic_weights,
)

GRID = np.linspace(-3.0, 3.0, 5)
DRIVE = AtomDriveParams(2.0, 0.5)
SAMPLER = ConfigSampler(1000, 7)

#: Python and numpy bools, ints and floats, strings, None, the non-finite
#: floats, signed zero, the extremes of double precision, non-integer counts,
#: 0-d, 2-D and single-precision arrays, and a list of one drive where one
#: drive is wanted.
HOSTILE = (True, False, np.True_, np.False_, 0, 1, -1, 3, np.int64(3), 3.0, 2.5,
           np.float64(0.5), np.float32(2.0), "2", "x", None, np.nan, np.inf, -np.inf, -0.0,
           1e308, -1e308, 1e-308, np.array(2.0), np.array([[1.0, 2.0]]),
           np.array([-1.0, 0.5, 2.0], dtype=np.float32), [DRIVE])


def _drives(value, name: str):
    """``(drive, names)``: ``value`` itself as the drive argument ``name``,
    then each drive it makes as rabi or as delta, which may be named by
    their field instead; a value the drive refuses makes none."""
    yield value, {name}
    for field in ("rabi", "delta"):
        try:
            yield AtomDriveParams(**{"rabi": 2.0, "delta": 0.5, field: value}), {name, field}
        except ValueError:
            pass


def _grids(value):
    """``value`` itself as a grid, and, for a float, an ascending grid that
    holds it at its middle."""
    yield value
    if isinstance(value, float):
        yield np.array([-3.0, -1.0, value, 1.0, 3.0])


def _cases(value):
    """``(entry point, names, call)`` for every argument of every entry point
    given ``value``: a rejection must name one of ``names``."""
    for field in ("rabi", "delta", "phase"):
        yield "AtomDriveParams", {field}, lambda field=field: AtomDriveParams(
            **{"rabi": 2.0, "delta": 0.5, field: value})
    for drive, names in _drives(value, "params"):
        yield "build", names, lambda drive=drive: build(drive)
    for drive, names in _drives(value, "drive"):
        yield "default_grid", names, lambda drive=drive: default_grid(drive, 5)
        yield "cbs_spectra", names, lambda drive=drive: cbs_spectra(drive)
        yield "elastic_weights", names, lambda drive=drive: elastic_weights(drive)
        yield "monte_carlo_spectra", names, lambda drive=drive: monte_carlo_spectra(
            drive, SAMPLER, GRID)
    for drive, names in _drives(value, "pump"):
        yield "channel_densities", names, lambda drive=drive: channel_densities(drive, GRID)
    for drives, names in _drives(value, "drives"):
        drives = drives if names == {"drives"} else [drives]
        yield "cbs_spectra_stack", names, lambda drives=drives: cbs_spectra_stack(drives, GRID)
    yield "default_grid", {"points"}, lambda: default_grid(DRIVE, value)
    yield "monte_carlo_spectra", {"sampler"}, lambda: monte_carlo_spectra(DRIVE, value, GRID)
    for grid in _grids(value):
        yield "cbs_spectra", {"nus"}, lambda grid=grid: cbs_spectra(DRIVE, grid)
        yield "cbs_spectra_stack", {"nus"}, lambda grid=grid: cbs_spectra_stack([DRIVE], grid)
        yield "channel_densities", {"nus"}, lambda grid=grid: channel_densities(DRIVE, grid)
        yield "monte_carlo_spectra", {"nus"}, lambda grid=grid: monte_carlo_spectra(
            DRIVE, SAMPLER, grid)
        yield "SpectralFunctionGrid", {"nu"}, lambda grid=grid: SpectralFunctionGrid(
            grid, np.zeros(5), 0.0)
        yield "SpectralFunctionGrid", {"values"}, lambda grid=grid: SpectralFunctionGrid(
            GRID, grid, 0.0)
    yield "SpectralFunctionGrid", {"elastic_weight"}, lambda: SpectralFunctionGrid(
        GRID, np.zeros(5), value)
    for field in ("samples", "seed"):
        yield "ConfigSampler", {field}, lambda field=field: ConfigSampler(
            **{"samples": 1000, "seed": 0, field: value})
    for field in dataclasses.fields(RunConfig):
        def configured(field=field.name):
            config = RunConfig(**{"rabi": 2.0, field: value})
            return config, config.drive, config.grid, os.fspath(config.output)
        yield "RunConfig", {field.name}, configured


def _numbers(result):
    """Every number in ``result``, through dataclasses, dicts and sequences."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))
    elif isinstance(result, dict):
        for item in result.values():
            yield from _numbers(item)
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, (np.ndarray, numbers.Number)):
        yield result


def _run_main(argv: list) -> tuple:
    """``main``'s exit status, from its return or argparse's ``SystemExit``,
    and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exit_info:
            return ("argparse", exit_info.code), err.getvalue()
    return status, err.getvalue()


@settings(max_examples=4 * len(HOSTILE), deadline=None)
@given(value=st.sampled_from(HOSTILE))
def test_every_entry_point_names_a_bad_argument_or_returns_finite_numbers(value,
                                                                          tmp_path_factory):
    for entry, names, call in _cases(value):
        try:
            result = call()
        except ValueError as error:
            assert any(re.search(rf"\b{name}\b", str(error)) for name in names), (
                entry, names, value, str(error))
        else:
            assert not isinstance(value, (bool, np.bool_)), (entry, names, value)
            assert all(np.all(np.isfinite(number)) for number in _numbers(result)), (
                entry, names, value)
    output = str(tmp_path_factory.mktemp("main"))
    flags = ("rabi", "detuning", "nu-min", "nu-max", "nu-points", "method", "samples", "seed",
             "format")
    for flag in flags:
        argv = ["spectrum", "--rabi", "2", "--nu-points", "5", "--output", output,
                f"--{flag}={value}"]
        status, err = _run_main(argv)
        if status == ("argparse", 2):
            continue
        assert status in (0, 2), (flag, value, status)
        if status == 2:
            field = flag.replace("-", "_")
            assert err.count("\n") == 1 and err.startswith("error: "), (flag, value, err)
            assert re.search(rf"\b{field}\b", err), (flag, value, err)
    assert _run_main(["validate", str(value)])[0] == ("argparse", 2)
