"""The package interface the benchmark's reference routes read.

``perfbench/workloads.py`` checks every workload against references it
computes with the package: one fixed-configuration geometry and the
analytic channels of one drive.  It reads unstacked densities and calls
``float()`` on the elastic weights, so a change of shape in ``twoatom`` or
``spectra`` fails here rather than in the benchmark.  Every workload's
command is also run in-process and held to the benchmark's correctness gate.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # a dataclass resolves its module through sys.modules while it is built
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("route", ["fixed_config_channels", "analytic_channels"])
def test_reference_routes_return_one_drive_shapes(workloads, route):
    nus = np.linspace(-15.0, 15.0, 21)
    extra = (workloads.reference_geometry(1),) if route == "fixed_config_channels" else ()
    channels = getattr(workloads, route)(2.0, 0.0, nus, *extra)
    for column in ("L_inel", "C_inel"):
        assert channels[column].shape == nus.shape
    for weight in ("elastic_ladder", "elastic_crossed"):
        assert type(channels[weight]) is float


def test_every_workload_passes_the_benchmark_gate(workloads, tmp_path, capsys):
    # each workload's command run in-process, checked by the benchmark's own
    # correctness gate against its independent reference route
    from cbs2atom import cli

    seed = 1
    for name, workload in workloads.build_workloads(seed).items():
        output = tmp_path / name
        assert cli.main(list(workload.argv) + ["--output", str(output)]) == 0, name
        verdicts = workloads.check_outputs(str(output), workload,
                                           workloads.references_for(workload, seed))
        assert len(verdicts) == len(workload.drives), name
        for verdict in verdicts:
            assert verdict.ok, (name, verdict)
