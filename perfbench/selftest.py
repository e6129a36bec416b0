"""Self-test of the benchmark, at tiny sizes (about a minute).

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` is well formed and names the workloads
``run.py`` knows; runs every workload untraced and traced with ``--tiny``
and checks the printed and reported metric names and units against
``BENCHMARK.json``; checks that the tracer wraps the library at its import
sites and restores every original afterwards; checks that the speed
sampler takes samples and restores the ``SIGPROF`` handler and timer; and
checks that the script refuses to run without the package.  Exit status 0 iff every check passes.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

failures: list = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print("FAIL " + message)


def check_spec(spec: dict, workload_names) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(workload_names), f"workloads {names} vs run.py")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(all_names) == len(set(all_names)), "names are unique")
    for m in metrics:
        check(bool(NAME.match(m["name"])), f"metric name {m['name']!r}")
        check(bool(UNIT.match(m["unit"])), f"unit {m['unit']!r}")
        check(m["better"] in ("lower", "higher"), f"direction of {m['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_runs(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            proc = run(["--workload", workload["name"], "--seed", "7", "--seconds", "0",
                        "--trace", str(trace), "--tiny"])
            check(proc.returncode == 0, f"{label} exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} correctness {result['correct']} {result['failed']}/{result['attempted']}")
            got = result["metrics"]
            check(list(got) == [m["name"] for m in expected], f"{label} metric names")
            for m in expected:
                value = got.get(m["name"], {})
                check(value.get("unit") == m["unit"], f"{label} unit of {m['name']}")
                check(isinstance(value.get("value"), (int, float))
                      and math.isfinite(value["value"]), f"{label} value of {m['name']}")
                check(any(line.split()[:1] == [m["name"]] for line in lines[:-1]),
                      f"{label} prints {m['name']}")


def check_tracer() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from tracing import Tracer, package_modules, snapshot

    from cbs2atom import cli, linalg, spectra
    from cbs2atom.atom import AtomDriveParams

    modules = package_modules()
    before = snapshot(modules)
    originals = (linalg.green, spectra.green, spectra.integrate_pole_sum,
                 cli.inelastic_ladder)
    with Tracer() as tracer:
        wrapped = (linalg.green, spectra.green, spectra.integrate_pole_sum,
                   cli.inelastic_ladder)
        check(all(w is not o for w, o in zip(wrapped, originals)),
              "wrappers installed at the import sites")
        check(spectra.green is linalg.green, "one wrapper per function")
        cli.inelastic_ladder(AtomDriveParams(rabi=2.0), nus=np.linspace(-5.0, 5.0, 3))
    spans = tracer.spans()
    names = [tracer.names[f] for f in spans["fid"]]
    check(names[:1] == ["spectra.inelastic_ladder"] and spans["parent"][0] == -1,
          "outermost span is the traced entry point")
    check("residues.integrate_pole_sum" in names and np.all(spans["parent"][1:] >= 0),
          "nested spans link to their parents")
    check(snapshot(modules) == before, "uninstall restores every original")
    check(all(a is b for a, b in zip(originals, (linalg.green, spectra.green,
                                                   spectra.integrate_pole_sum,
                                                   cli.inelastic_ladder))),
          "import sites hold the originals again")


def check_sampler() -> None:
    from calibrate import SpeedSampler, kernel

    handler = signal.getsignal(signal.SIGPROF)
    with SpeedSampler() as sampler:
        kernel(100)
    check(len(sampler.samples) >= 1 and all(c > 0 for c, _ in sampler.samples),
          f"speed sampler took {len(sampler.samples)} samples")
    check(signal.getsignal(signal.SIGPROF) is handler
          and signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0),
          "speed sampler restores the SIGPROF handler and timer")


def check_refuses_without_package() -> None:
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum-601",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run without src/cbs2atom")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    from workloads import build_workloads

    check_spec(spec, build_workloads(0))
    check_tracer()
    check_sampler()
    check_refuses_without_package()
    check_runs(spec)
    print("selftest: " + (f"{len(failures)} FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
