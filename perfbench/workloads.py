"""The benchmark's workloads and their correctness checks.

Each workload is one ``cbs2atom`` command line.  Its check reads the files
the command wrote and compares every spectrum with an independent route,
computed in the benchmark process outside the timed region:

* analytic spectra (``spectrum-601``, ``drive-sweep``) against the
  fixed-configuration two-atom route (``fixed_config_spectrum`` with
  ``select_surviving`` at one geometry drawn from the seed, as
  ``cbs2atom validate oracle`` does);
* the sampling oracle (``oracle-mc``) against the analytic channels,
  within ``ORACLE_SIGMAS`` standard errors per point;
* pump-probe extraction (``pump-probe``) against the analytic channels.

Deviations are measured on each channel's signal scale: the peak of the
reference density times the decay rate plus the magnitude of the
reference elastic weight (both are weights per coupling power).  A peak
alone is no scale at weak drive: at (0.001, 1.5) the ladder density peaks
at 2.7e-15 while its elastic weight is 1.2e-8.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

#: A spectrum fails when a density or elastic weight is further than this
#: from the reference, on the channel's signal scale.  It is the accuracy
#: class of the package's own physics checks (pump-probe extraction is
#: documented at a few parts in 1e4) and far above float noise, so it
#: catches a wrong term, factor or branch.
GATE_RTOL = 1e-3
#: The bound of ``cbs2atom validate oracle`` between the analytic and the
#: fixed-configuration routes.  Spectra beyond it are reported on every
#: run; at the seed these are the drives that take the detuning-pair
#: fallback (the Jordan point and the weak drive).
ROUTE_RTOL = 1e-8
#: Per-point bound of the sampling oracle, in its own standard errors.
ORACLE_SIGMAS = 5.0
#: Relative bound on the summary enhancement recomputed from the table.
SUMMARY_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    drives: tuple        # (rabi, detuning) of every spectrum the command writes
    method: str

    @property
    def nus(self) -> np.ndarray:
        argv = list(self.argv)
        points = int(argv[argv.index("--nu-points") + 1]) if "--nu-points" in argv else 601
        return np.linspace(-15.0, 15.0, points)


def build_workloads(seed: int, tiny: bool = False) -> dict:
    """Command lines of all workloads (the reasons for each are in
    BENCHMARK.json); ``tiny`` shrinks each to seconds."""
    grid = "5" if tiny else None
    spectrum = ["spectrum", "--rabi", "2"] + (["--nu-points", grid] if tiny else [])
    rabis = ("0.5", "2") if tiny else ("0.001", "0.5", "2", "20")
    detunings = ("0",) if tiny else ("0", "1.5")
    sweep = (["sweep", "--rabi", *rabis, "--detuning", *detunings,
              "--nu-points", grid or "21"])
    oracle = ["spectrum", "--rabi", "2", "--method", "oracle", "--samples", "1000",
              "--nu-points", "3" if tiny else "9", "--seed", str(seed)]
    pump = ["spectrum", "--rabi", "2", "--method", "pump-probe",
            "--nu-points", "3" if tiny else "11"]
    items = [
        Workload("spectrum-601", tuple(spectrum), ((2.0, 0.0),), "analytic"),
        Workload("drive-sweep", tuple(sweep),
                 tuple((float(r), float(d)) for r in rabis for d in detunings), "analytic"),
        Workload("oracle-mc", tuple(oracle), ((2.0, 0.0),), "oracle"),
        Workload("pump-probe", tuple(pump), ((2.0, 0.0),), "pump-probe"),
    ]
    return {w.name: w for w in items}


# ----------------------------------------------------------------------------
# reading what the command wrote
# ----------------------------------------------------------------------------


def _read_table(path: str) -> dict:
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(names)}


def _outputs(output_dir: str) -> dict:
    """(rabi, detuning) -> (table, sidecar) for every spectrum found."""
    found = {}
    for name in sorted(os.listdir(output_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(output_dir, name)) as handle:
            sidecar = json.load(handle)
        params = sidecar["parameters"]
        table = _read_table(os.path.join(output_dir, name[:-5] + ".csv"))
        found[(params["rabi"], params["detuning"])] = (table, sidecar)
    return found


# ----------------------------------------------------------------------------
# references
# ----------------------------------------------------------------------------


def reference_geometry(seed: int):
    """One two-atom geometry drawn from the seed, in the oracle's window."""
    from cbs2atom.twoatom import ScatteringConfig

    rng = np.random.default_rng([seed, 1003])
    x = rng.uniform(200.0, 200.0 + 16.0 * np.pi)
    direction = rng.standard_normal(3)
    return ScatteringConfig.from_separation(x, direction=direction)


def fixed_config_channels(rabi: float, detuning: float, nus, config) -> dict:
    """Surviving-monomial channels of one geometry, per coupling power."""
    from cbs2atom.atom import AtomDriveParams
    from cbs2atom.disorder import select_surviving
    from cbs2atom.twoatom import (CROSSED_MONOMIAL, LADDER_MONOMIAL, assemble,
                                  fixed_config_spectrum)

    spec = fixed_config_spectrum(
        assemble(config, AtomDriveParams(rabi=rabi, delta=detuning)), nus)
    power = 4.0 * abs(config.coupling) ** 2
    phase = np.exp(1j * config.phase_difference)

    def ladder(tagged):
        return np.real(2.0 * select_surviving(tagged, "ladder")[LADDER_MONOMIAL] / power)

    def crossed(tagged):
        return np.real(2.0 * select_surviving(tagged, "crossed", phase)[CROSSED_MONOMIAL] / power)

    return {"L_inel": ladder(spec.autocorrelation) / np.pi,
            "C_inel": crossed(spec.exchange) / np.pi,
            "elastic_ladder": float(ladder(spec.elastic_autocorrelation)),
            "elastic_crossed": float(crossed(spec.elastic_exchange))}


def analytic_channels(rabi: float, detuning: float, nus) -> dict:
    from cbs2atom.atom import AtomDriveParams
    from cbs2atom.spectra import inelastic_crossed, inelastic_ladder

    drive = AtomDriveParams(rabi=rabi, delta=detuning)
    ladder = inelastic_ladder(drive, nus=nus)
    crossed = inelastic_crossed(drive, nus=nus)
    return {"L_inel": ladder.values, "C_inel": crossed.values,
            "elastic_ladder": ladder.elastic_weight,
            "elastic_crossed": crossed.elastic_weight}


# ----------------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    drive: tuple
    ok: bool
    deviation: float     # worst deviation on the channel signal scale
    detail: str


def _channel_deviation(table, sidecar, ref, column, elastic) -> float:
    # frequencies are in units of the decay rate, so a density is a weight
    scale = np.max(np.abs(ref[column])) + abs(ref[elastic])
    inelastic = np.max(np.abs(table[column] - ref[column]))
    return float(max(inelastic, abs(sidecar[elastic] - ref[elastic])) / scale)


def _summary_deviation(table, sidecar) -> float:
    """Reported enhancement against the one implied by the table."""
    nus = table["nu"]
    ladder = sidecar["elastic_ladder"] + simpson(table["L_inel"], x=nus)
    crossed = sidecar["elastic_crossed"] + simpson(table["C_inel"], x=nus)
    implied = 1.0 + crossed / ladder
    return abs(sidecar["enhancement"] - implied) / max(1.0, abs(implied))


def _oracle_z(table, sidecar, ref) -> float:
    """Worst deviation of the sampled spectrum in its own standard errors."""
    z = 0.0
    for column, elastic in (("L_inel", "elastic_ladder"), ("C_inel", "elastic_crossed")):
        # float-noise floor, for a point whose sampled error vanishes
        floor = 1e-12 * (np.max(np.abs(ref[column])) + abs(ref[elastic]))
        z = max(z, float(np.max(np.abs(table[column] - ref[column])
                                / (table[column + "_err"] + floor))))
        z = max(z, abs(sidecar[elastic] - ref[elastic])
                / (sidecar[elastic + "_stderr"] + floor))
    return z


def check_outputs(output_dir: str, workload: Workload, references: dict) -> list:
    """One verdict per expected spectrum; ``references`` maps each drive to
    its reference channels."""
    try:
        found = _outputs(output_dir)
    except (OSError, ValueError, KeyError, IndexError) as error:
        return [Verdict(d, False, float("inf"), f"unreadable output: {error}")
                for d in workload.drives]
    verdicts = []
    for drive in workload.drives:
        if drive not in found:
            verdicts.append(Verdict(drive, False, float("inf"), "missing output"))
            continue
        table, sidecar = found[drive]
        ref = references[drive]
        values = [table["L_inel"], table["C_inel"], sidecar["elastic_ladder"],
                  sidecar["elastic_crossed"], sidecar["enhancement"]]
        if (len(table["nu"]) != len(workload.nus)
                or not all(np.all(np.isfinite(v)) for v in values)):
            verdicts.append(Verdict(drive, False, float("inf"), "incomplete or non-finite"))
            continue
        deviation = max(_channel_deviation(table, sidecar, ref, "L_inel", "elastic_ladder"),
                        _channel_deviation(table, sidecar, ref, "C_inel", "elastic_crossed"))
        summary = _summary_deviation(table, sidecar)
        if workload.method == "oracle":
            z = _oracle_z(table, sidecar, ref)
            ok = z <= ORACLE_SIGMAS and summary <= SUMMARY_RTOL
            detail = f"max {z:.2f} stderr (bound {ORACLE_SIGMAS:g})"
        else:
            ok = deviation <= GATE_RTOL and summary <= SUMMARY_RTOL
            detail = f"dev {deviation:.2e} (bound {GATE_RTOL:g})"
            if workload.method == "analytic":
                beyond = "beyond" if deviation > ROUTE_RTOL else "within"
                detail += f"; {beyond} the route bound {ROUTE_RTOL:g}"
        verdicts.append(Verdict(drive, ok, deviation, detail + f"; summary {summary:.1e}"))
    return verdicts


def references_for(workload: Workload, seed: int) -> dict:
    nus = workload.nus
    if workload.method == "analytic":
        config = reference_geometry(seed)
        return {d: fixed_config_channels(*d, nus, config) for d in workload.drives}
    return {d: analytic_channels(*d, nus) for d in workload.drives}
