"""Command-line front end: spectrum tables, validation suites, parameter sweeps.

Every emitted file is self-describing (parameter echo in header comments
or JSON fields) and deterministically formatted, so re-running the same
configuration reproduces the bytes exactly for the deterministic methods
and within the quoted standard errors for the sampling oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

import cbs2atom
from cbs2atom.atom import AtomDriveParams, _check_real, build, mollow_p0
from cbs2atom.disorder import ConfigSampler, monte_carlo_spectra, select_surviving
from cbs2atom.pumpprobe import channel_densities, equivalence_report
from cbs2atom.quadrature import line_rule, pole_clusters
from cbs2atom.spectra import (
    CbsResult,
    SpectralFunctionGrid,
    _channel,
    _check_points,
    _frequency_grid,
    cbs_spectra,
    cbs_spectra_stack,
    elastic_weights,
)
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    ScatteringConfig,
    assemble,
    fixed_config_spectrum,
)

METHODS = ("analytic", "pump-probe", "oracle")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """One spectrum computation: drive, frequency grid, method, outputs.

    All frequencies are in units of the dipole decay rate.
    """

    rabi: float
    detuning: float = 0.0
    nu_min: float = -15.0
    nu_max: float = 15.0
    nu_points: int = 601
    method: str = "analytic"
    samples: int = 10_000
    seed: int = 0
    output: str = "."
    format: str = "csv"

    def __post_init__(self) -> None:
        for name in ("rabi", "detuning", "nu_min", "nu_max"):
            _check_real(name, getattr(self, name))
        if not np.isfinite(self.rabi) or self.rabi <= 0:
            raise ValueError("rabi must be positive (zero drive emits nothing)")
        if not np.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        if not (np.isfinite(self.nu_min) and np.isfinite(self.nu_max)):
            raise ValueError("nu_min and nu_max must be finite")
        if not self.nu_min < self.nu_max:
            raise ValueError("need nu_min < nu_max")
        _check_points("nu_points", self.nu_points)
        # the other methods draw nothing, but echo the sampler's fields
        ConfigSampler(self.samples, self.seed)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")

    @property
    def drive(self) -> AtomDriveParams:
        return AtomDriveParams(rabi=self.rabi, delta=self.detuning)

    @property
    def grid(self) -> np.ndarray:
        return _frequency_grid(self.nu_min, self.nu_max, self.nu_points)


# ----------------------------------------------------------------------------
# deterministic file formatting
# ----------------------------------------------------------------------------


def _header_lines(title: str, parameters: dict) -> list:
    lines = [f"# cbs2atom {title}", f"# version={cbs2atom.__version__}"]
    lines += [f"# {name}={value}" for name, value in parameters.items()]
    return lines


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _write_csv(path: str, header: list, columns: dict) -> None:
    """Every cell as ``%.17g`` (lossless float round trip, '.' decimal), by
    one row template applied once to the whole table."""
    names = list(columns)
    cells = np.column_stack([np.asarray(columns[name], dtype=float) for name in names])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    body = (row * len(cells)) % tuple(cells.ravel().tolist())
    _write_text(path, "\n".join([*header, ",".join(names)]) + "\n" + body)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _config_echo(cfg: RunConfig) -> dict:
    return {field.name: getattr(cfg, field.name) for field in fields(RunConfig)}


_PLOT_TEMPLATE = """#!/usr/bin/env python3
\"\"\"Plot the emitted spectrum table ({table}).\"\"\"
import json

import matplotlib.pyplot as plt
import numpy as np

{loader}
fig, ax = plt.subplots(figsize=(7, 4.5))
ax.plot(nu, ladder, label="background density")
ax.plot(nu, crossed, label="interference density")
ax.axhline(0.0, color="0.7", lw=0.8)
ax.set_xlabel("emission detuning (units of the decay rate)")
ax.set_ylabel("density per coupling power")
ax.set_title("enhancement factor %.6f" % sidecar["enhancement"])
ax.legend()
fig.tight_layout()
fig.savefig("{png}", dpi=160)
print("wrote {png}")
"""

# the header comments are dropped first: with ``names=True`` genfromtxt
# takes the first line, comment or not, as the column names
_CSV_TABLE = """with open("{table}") as handle:
    data = np.genfromtxt([line for line in handle if not line.startswith("#")],
                         delimiter=",", names=True)
"""

_CSV_LOADER = _CSV_TABLE + """nu, ladder, crossed = data["nu"], data["L_inel"], data["C_inel"]
with open("{sidecar}") as handle:
    sidecar = json.load(handle)
"""

_JSON_LOADER = """with open("{table}") as handle:
    sidecar = json.load(handle)
table = sidecar["table"]
nu = np.asarray(table["nu"])
ladder = np.asarray(table["L_inel"])
crossed = np.asarray(table["C_inel"])
"""


def _plot_script(table: str, sidecar: str, png: str) -> str:
    if table.endswith(".json"):
        loader = _JSON_LOADER.format(table=table)
    else:
        loader = _CSV_LOADER.format(table=table, sidecar=sidecar)
    return _PLOT_TEMPLATE.format(table=table, loader=loader, png=png)


# ----------------------------------------------------------------------------
# spectrum evaluation per method
# ----------------------------------------------------------------------------


def _evaluate(cfg: RunConfig, result: CbsResult | None = None) -> tuple:
    """Averaged signal, table columns and sidecar summary of one
    configuration; an analytic ``result`` solved beforehand is passed in."""
    nus = cfg.grid
    drive = cfg.drive
    err_columns, err_summary = {}, {}
    if cfg.method == "analytic":
        result = cbs_spectra(drive, nus=nus) if result is None else result
    elif cfg.method == "pump-probe":
        got = channel_densities(drive, nus)
        ladder_weight, crossed_weight = elastic_weights(drive)
        result = CbsResult(drive,
                           SpectralFunctionGrid(nus, got["ladder"], ladder_weight),
                           SpectralFunctionGrid(nus, got["crossed"], crossed_weight))
    else:
        averaged = monte_carlo_spectra(
            drive, ConfigSampler(samples=cfg.samples, seed=cfg.seed), nus)
        result = CbsResult(
            drive,
            SpectralFunctionGrid(nus, np.real(averaged.ladder.mean) / np.pi,
                                 float(np.real(averaged.elastic_ladder.mean))),
            SpectralFunctionGrid(nus, np.real(averaged.crossed.mean) / np.pi,
                                 float(np.real(averaged.elastic_crossed.mean))))
        err_columns = {"L_inel_err": averaged.ladder.stderr / np.pi,
                       "C_inel_err": averaged.crossed.stderr / np.pi}
        err_summary = {"elastic_ladder_stderr": float(averaged.elastic_ladder.stderr),
                       "elastic_crossed_stderr": float(averaged.elastic_crossed.stderr)}
    columns = {"nu": nus, "L_inel": result.ladder.values,
               "C_inel": result.crossed.values, **err_columns}
    summary = {"elastic_ladder": result.elastic_ladder,
               "elastic_crossed": result.elastic_crossed,
               "enhancement": result.enhancement, **err_summary}
    return result, columns, summary


def _write_spectrum(cfg: RunConfig, basename: str, columns: dict,
                    summary: dict) -> list:
    os.makedirs(cfg.output, exist_ok=True)
    payload = {"version": cbs2atom.__version__,
               "parameters": _config_echo(cfg), **summary}
    written = []
    if cfg.format == "csv":
        table = os.path.join(cfg.output, basename + ".csv")
        sidecar = os.path.join(cfg.output, basename + ".json")
        _write_csv(table, _header_lines("spectrum table", _config_echo(cfg)), columns)
        _write_json(sidecar, payload)
        written += [table, sidecar]
    else:
        table = os.path.join(cfg.output, basename + ".json")
        sidecar = table
        payload["table"] = {name: [float(v) for v in values]
                            for name, values in columns.items()}
        _write_json(table, payload)
        written.append(table)
    script = os.path.join(cfg.output, basename + "_plot.py")
    _write_text(script, _plot_script(os.path.basename(table),
                                     os.path.basename(sidecar),
                                     basename + ".png"))
    written.append(script)
    return written


def cmd_spectrum(cfg: RunConfig) -> list:
    """Write the spectrum table, its summary sidecar, and a plot script."""
    _, columns, summary = _evaluate(cfg)
    return _write_spectrum(cfg, "spectrum", columns, summary)


# ----------------------------------------------------------------------------
# validation suites
# ----------------------------------------------------------------------------
# each suite returns rows (check name, deviation, bound) on its own fixed grid


def _suite_equivalence() -> list:
    return [(f"probe-extraction-{name}", deviation, 1e-6) for name, deviation
            in equivalence_report(np.linspace(-15.0, 15.0, 601)).items()]


def _deviations(got: SpectralFunctionGrid, ref: SpectralFunctionGrid) -> tuple:
    """Density deviation on the reference's peak and relative deviation of
    the elastic weight."""
    return (float(np.max(np.abs(got.values - ref.values)) / np.max(np.abs(ref.values))),
            abs(got.elastic_weight - ref.elastic_weight) / abs(ref.elastic_weight))


def _suite_oracle() -> list:
    """Production channels against a generic geometry (``fixed-config-*``,
    the gauge identity behind the canonical generator) and against the
    closed form in single-atom observables (``compact-*``, an independent
    route)."""
    from cbs2atom.residues import compact_channels

    nus = np.linspace(-12.0, 12.0, 49)
    config = ScatteringConfig.from_separation(217.3, direction=(0.3, -1.1, 0.7))
    power = 4.0 * abs(config.coupling) ** 2
    phase = np.exp(1j * config.phase_difference)
    checks = dict.fromkeys(
        ("fixed-config-ladder", "fixed-config-crossed",
         "fixed-config-elastic-ladder", "fixed-config-elastic-crossed",
         "compact-ladder", "compact-crossed",
         "compact-elastic-ladder", "compact-elastic-crossed"), 0.0)
    for drive in (AtomDriveParams(rabi=2.0, delta=0.0),
                  AtomDriveParams(rabi=1.3, delta=0.8)):
        spec = fixed_config_spectrum(assemble(config, drive), nus)
        geometry_ladder = _channel(
            nus, [select_surviving(spec.autocorrelation, "ladder")[LADDER_MONOMIAL]],
            select_surviving(spec.elastic_autocorrelation, "ladder")[LADDER_MONOMIAL], power)
        geometry_crossed = _channel(
            nus, [select_surviving(spec.exchange, "crossed", phase)[CROSSED_MONOMIAL]],
            select_surviving(spec.elastic_exchange, "crossed", phase)[CROSSED_MONOMIAL], power)
        result = cbs_spectra(drive, nus=nus)
        compact_ladder, compact_crossed = compact_channels(drive, nus)
        pairs = {
            "fixed-config-ladder": (geometry_ladder, result.ladder),
            "fixed-config-crossed": (geometry_crossed, result.crossed),
            "compact-ladder": (result.ladder, compact_ladder),
            "compact-crossed": (result.crossed, compact_crossed),
        }
        for name, (got, ref) in pairs.items():
            route, _, channel = name.rpartition("-")
            density, elastic = _deviations(got, ref)
            checks[name] = max(checks[name], density)
            checks[f"{route}-elastic-{channel}"] = max(
                checks[f"{route}-elastic-{channel}"], elastic)
    return [(name, dev, 1e-8) for name, dev in checks.items()]


def _suite_physics() -> list:
    checks = []

    # fluorescence normalization: the inelastic integral (the rule's weights
    # carry 1/2pi) recovers the steady dipole variance, 2/9 at rabi=2
    system = build(AtomDriveParams(rabi=2.0, delta=0.0))
    steady = system.steady
    variance = float(np.real((1.0 + steady[2]) / 2.0 - steady[1] * steady[0]))
    nodes, weights = line_rule(pole_clusters(system))
    integral = 2.0 * np.pi * float(weights @ mollow_p0(system, nodes))
    checks.append(("mollow-normalization", abs(integral - variance), 1e-6))

    # triplet peaks at 0 and +-rabi for a well-split strong drive; the
    # grid step is half the natural linewidth, coarse enough not to
    # resolve the sub-linewidth inward pull of the sideband maxima
    strong = build(AtomDriveParams(rabi=10.0, delta=0.0))
    grid = np.linspace(-15.0, 15.0, 61)
    vals = mollow_p0(strong, grid)
    step = grid[1] - grid[0]
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    peaks = np.sort(grid[1:-1][interior])
    peak_dev = (np.inf if len(peaks) != 3
                else float(np.max(np.abs(peaks - np.array([-10.0, 0.0, 10.0])))))
    checks.append(("mollow-triplet-peaks", peak_dev, step * 1.0001))

    # weak-drive interference recovery on the averaged channels
    weak = AtomDriveParams(rabi=1e-3, delta=0.0)
    result = cbs_spectra(weak, nus=np.linspace(-15.0, 15.0, 601))
    ratio_dev = abs(result.elastic_crossed / result.elastic_ladder - 1.0)
    checks.append(("weak-drive-reciprocity", ratio_dev, 1e-4))
    checks.append(("weak-drive-enhancement", abs(result.enhancement - 2.0), 1e-3))
    checks.append(("weak-drive-ladder-positivity",
                   max(0.0, -float(np.min(result.ladder.values))), 1e-10))
    bound_dev = max(0.0, 1.0 - result.enhancement, result.enhancement - 2.0)
    checks.append(("weak-drive-enhancement-bounds", bound_dev, 1e-6))
    return checks


#: every validation suite by its name on the command line
_RUNNERS = {"equivalence": _suite_equivalence, "oracle": _suite_oracle,
            "physics": _suite_physics}
SUITES = tuple(_RUNNERS)


def cmd_validate(suite: str) -> int:
    """Run one validation suite; exit status 0 iff every check passes."""
    if suite not in _RUNNERS:
        raise ValueError(f"suite must be one of {SUITES}")
    checks = _RUNNERS[suite]()
    failed = None
    for name, deviation, bound in checks:
        ok = deviation <= bound
        if not ok and failed is None:
            failed = name
        print("%-32s deviation %.3e   bound %.3e   %s"
              % (name, deviation, bound, "pass" if ok else "FAIL"))
    if failed is not None:
        print(f"FAILED: {failed}")
        return 1
    print(f"OK: {len(checks)} checks passed")
    return 0


# ----------------------------------------------------------------------------
# parameter sweeps
# ----------------------------------------------------------------------------


def _point_name(rabi: float, detuning: float) -> str:
    def tag(x):
        return ("%g" % x).replace("-", "m").replace(".", "p")
    return f"sweep_r{tag(rabi)}_d{tag(detuning)}"


_SWEEP_PLOT = """#!/usr/bin/env python3
\"\"\"Plot the sweep summary (sweep_summary.csv).\"\"\"
import matplotlib.pyplot as plt
import numpy as np

""" + _CSV_TABLE.format(table="sweep_summary.csv") + """fig, ax = plt.subplots(figsize=(7, 4.5))
for detuning in np.unique(data["detuning"]):
    rows = data[data["detuning"] == detuning]
    order = np.argsort(rows["rabi"])
    ax.plot(rows["rabi"][order], rows["enhancement"][order], "o-",
            label="detuning %g" % detuning)
ax.set_xscale("log")
ax.set_xlabel("Rabi frequency (units of the decay rate)")
ax.set_ylabel("enhancement factor")
ax.legend()
fig.tight_layout()
fig.savefig("sweep_summary.png", dpi=160)
print("wrote sweep_summary.png")
"""


def cmd_sweep(rabis, detunings, base: RunConfig) -> list:
    """One spectrum per grid point plus a summary table and plot script.

    Files and summary rows follow the given order of the points; analytic points
    are solved as one stack (:func:`cbs2atom.spectra.cbs_spectra_stack`), others one by one.
    """
    rabis = list(rabis)
    detunings = list(detunings) or [RunConfig.detuning]
    if not rabis:
        raise ValueError("sweep needs at least one rabi value")
    # every point is evaluated before anything is written, so a bad point,
    # a point whose channels cannot be formed, or two points that would
    # write the same files leave the output untouched
    points = {}
    for rabi in rabis:
        for detuning in detunings:
            cfg = replace(base, rabi=rabi, detuning=detuning)
            name = _point_name(rabi, detuning)
            if name in points:
                other = points[name]
                raise ValueError(
                    f"sweep points (rabi {other.rabi!r}, detuning {other.detuning!r}) and "
                    f"(rabi {rabi!r}, detuning {detuning!r}) would both write {name}.*")
            points[name] = cfg
    solved = ([None] * len(points) if base.method != "analytic" else
              cbs_spectra_stack([cfg.drive for cfg in points.values()], base.grid))
    evaluated = {name: (cfg, *_evaluate(cfg, result))
                 for (name, cfg), result in zip(points.items(), solved)}
    os.makedirs(base.output, exist_ok=True)
    written = []
    summary = {name: [] for name in
               ("rabi", "detuning", "L_el", "C_el", "L_total", "C_total",
                "enhancement")}
    for name, (cfg, result, columns, sidecar) in evaluated.items():
        written += _write_spectrum(cfg, name, columns, sidecar)
        summary["rabi"].append(cfg.rabi)
        summary["detuning"].append(cfg.detuning)
        summary["L_el"].append(result.elastic_ladder)
        summary["C_el"].append(result.elastic_crossed)
        summary["L_total"].append(result.ladder.total)
        summary["C_total"].append(result.crossed.total)
        summary["enhancement"].append(result.enhancement)
    table = os.path.join(base.output, "sweep_summary.csv")
    swept = {**_config_echo(base), "rabi": rabis, "detuning": detunings}
    _write_csv(table, _header_lines("sweep summary", swept), summary)
    script = os.path.join(base.output, "sweep_plot.py")
    _write_text(script, _SWEEP_PLOT)
    written += [table, script]
    return written


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser, sweep: bool) -> None:
    if sweep:
        parser.add_argument("--rabi", type=float, nargs="+", required=True,
                            help="Rabi frequencies to sweep (decay-rate units)")
        parser.add_argument("--detuning", type=float, nargs="*",
                            default=[RunConfig.detuning],
                            help="laser detunings to sweep")
    else:
        parser.add_argument("--rabi", type=float, required=True,
                            help="Rabi frequency (decay-rate units)")
        parser.add_argument("--detuning", type=float, default=RunConfig.detuning,
                            help="laser detuning from the atomic line")
    parser.add_argument("--nu-min", type=float, default=RunConfig.nu_min)
    parser.add_argument("--nu-max", type=float, default=RunConfig.nu_max)
    parser.add_argument("--nu-points", type=int, default=RunConfig.nu_points)
    parser.add_argument("--method", choices=METHODS, default=RunConfig.method)
    parser.add_argument("--samples", type=int, default=RunConfig.samples,
                        help="oracle sample count (at least 1000)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--output", default=RunConfig.output,
                        help="directory for the emitted files")
    parser.add_argument("--format", choices=FORMATS, default=RunConfig.format)


#: A negative number as a value, exponent notation included: argparse's own
#: pattern has no exponent, so it would read ``-1e-3`` as an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbs2atom",
        description="Double-scattering coherent-backscattering spectra "
                    "of two driven two-level atoms.")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="compute one spectrum table")
    _add_config_flags(spectrum, sweep=False)

    validate = sub.add_parser("validate", help="run a validation suite")
    validate.add_argument("suite", choices=SUITES)

    sweep = sub.add_parser("sweep", help="sweep drive parameters")
    _add_config_flags(sweep, sweep=True)
    for each in (parser, spectrum, validate, sweep):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _config_from_args(args, **overrides) -> RunConfig:
    """The run configuration of parsed flags, with some fields overridden."""
    values = {field.name: getattr(args, field.name) for field in fields(RunConfig)}
    return RunConfig(**{**values, **overrides})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # an input beyond double precision overflows somewhere in the algebra;
    # raising there names the cause, where the nan or inf it would leave
    # fails a check far downstream.  Underflow stays silent: a drive too
    # weak to register rounds to the undriven atom by design
    try:
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "spectrum":
                written = cmd_spectrum(_config_from_args(args))
            elif args.command == "validate":
                return cmd_validate(args.suite)
            else:
                base = _config_from_args(args, rabi=args.rabi[0], detuning=RunConfig.detuning)
                written = cmd_sweep(args.rabi, args.detuning, base)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FloatingPointError as error:
        print(f"error: an input is beyond double precision ({error})", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as error:
        print(f"error: {str(error) or 'out of memory'}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
