"""cbs2atom benchmark: cold CLI runs of one workload, checked and timed.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload spectrum-601 --seed 1 --seconds 15 --trace 0

Each repetition starts a fresh interpreter (``perfbench/worker.py``) that
imports ``cbs2atom.cli`` from ``src/`` and calls ``main(argv)`` once into a
directory under ``.bench_work/``, so every cache starts cold, as it does
for a user of the command.  Repetitions run one at a time until
``--seconds`` have passed (at least one).  Afterwards, outside the timed
region, every spectrum written is checked against an independent route
(see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: set-up time (median over at
least ``SETUP_SAMPLES`` fresh interpreters), time to solution of ``main``
and peak resident memory (medians over repetitions).  Both times are CPU
times divided by the host's speed, measured by the probe of
``calibrate.py`` in the same interpreter, in seconds of the reference
speed, because the hosts this runs on change speed by up to a factor of
two within seconds.  The raw wall and CPU times are printed beside them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracing.py``) with the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/cbs2atom`` package beside this directory the script exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import ROUND_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Workers run single-threaded, so their CPU time is the work done and no
#: BLAS thread competes with the other load on the host.
WORKER_ENV = dict(os.environ, **{name: "1" for name in BLAS_ENV})


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without leaving the root."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: WORKER_ENV.get(name) for name in BLAS_ENV},
        "probe_round_reference_s": ROUND_REFERENCE_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Session:
    """The children of one benchmark run, in its own work directory."""

    def __init__(self, workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.count = 0

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker to completion; its result plus ``setup_s``."""
        self.count += 1
        tag = os.path.join(self.work_dir, f"rep{self.count:03d}")
        job = {"src": SRC, "argv": list(self.workload.argv), "output": tag + "_out",
               "result": tag + "_result.json", "spans": tag + "_spans.npz",
               "trace": trace, "setup_only": setup_only, "run_id": self.count}
        with open(tag + "_job.json", "w") as handle:
            json.dump(job, handle)
        started = _clock()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), tag + "_job.json"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=WORKER_ENV)
        try:
            with open(job["result"]) as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = {"exit_code": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
        else:
            result["setup_wall_s"] = result["ready"] - started
            if "probe_before_s" in result:
                result["setup_s"] = (result["setup_cpu_s"] * ROUND_REFERENCE_S
                                     / result["probe_before_s"])
        result.update(output=job["output"], spans=job["spans"], trace=trace)
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def round_s(rep: dict) -> float:
    """The host's speed while ``main`` ran, as the CPU time of a probe round.

    The samples fall at even steps of CPU time, so the harmonic mean of
    their round times weighs the host's speeds as ``main``'s work does.
    A round that got less than half its wall time as CPU time was mostly
    stolen by the host and is left out.  If ``main`` was too short to be
    sampled, the probe after set-up stands in."""
    rounds = [cpu for cpu, wall in rep["probe_samples"] if cpu > 0.5 * wall]
    return statistics.harmonic_mean(rounds) if rounds else rep["probe_before_s"]


def solve_ref_s(rep: dict) -> float:
    """CPU time of ``main`` at the reference speed."""
    return rep["cpu_s"] * ROUND_REFERENCE_S / round_s(rep)


def end_to_end(untraced: list, setups: list) -> dict:
    return {"setup_s": _median(setups),
            "solve_ref_s": _median([solve_ref_s(r) for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced])}


def per_layer(untraced: list, traced: list, max_dev: float) -> dict:
    from tracing import layer_metrics

    rows = [layer_metrics(r["spans"]) for r in traced]
    values = {name: _median([row[name] for row in rows]) for name in rows[0]}
    values["cli.bytes_written"] = _median([
        sum(os.path.getsize(os.path.join(r["output"], f)) for f in os.listdir(r["output"]))
        for r in traced])
    values["wall_s"] = _median([r["wall_s"] for r in untraced])
    values["process.cpu_s"] = _median([r["cpu_s"] for r in untraced])
    values["probe.round_ms"] = 1e3 * _median([round_s(r) for r in untraced])
    values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                  - _median([r["wall_s"] for r in untraced]))
    values["check.max_rel_dev"] = max_dev
    return values


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(session: Session, seconds: float, trace: bool) -> tuple:
    """Repetitions until ``seconds`` have passed; with ``trace`` each
    untraced repetition is followed by a traced one."""
    untraced, traced = [], []
    deadline = _clock() + seconds
    while True:
        untraced.append(session.spawn())
        if trace:
            traced.append(session.spawn(trace=True))
        if _clock() >= deadline:
            break
    setups = [r for r in untraced if "setup_s" in r]
    while not trace and len(setups) < SETUP_SAMPLES:
        sample = session.spawn(setup_only=True)
        if "setup_s" not in sample:
            break
        setups.append(sample)
    return untraced, traced, setups


def verify(reps: list, workload, references: dict) -> tuple:
    """Check every repetition's spectra; print the first one's verdicts.

    Returns (attempted, failed, worst deviation)."""
    from workloads import check_outputs

    attempted = failed = 0
    max_dev = 0.0
    for rep in reps:
        attempted += len(workload.drives)
        if rep.get("exit_code") != 0 or not rep.get("restored", not rep["trace"]):
            failed += len(workload.drives)
            print(f"repetition failed: exit {rep.get('exit_code')}, "
                  f"restored {rep.get('restored')} {rep.get('stderr', '')}".rstrip())
            continue
        verdicts = check_outputs(rep["output"], workload, references)
        failed += sum(not v.ok for v in verdicts)
        max_dev = max([max_dev] + [v.deviation for v in verdicts])
        if rep is reps[0]:
            for v in verdicts:
                print("check rabi=%g detuning=%g: %s  %s"
                      % (v.drive[0], v.drive[1], "pass" if v.ok else "FAIL", v.detail))
    return attempted, failed, max_dev


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to seconds (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cbs2atom", "__init__.py")):
        print(f"error: no cbs2atom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cbs2atom
    from workloads import build_workloads, references_for

    if not os.path.abspath(cbs2atom.__file__).startswith(SRC + os.sep):
        print(f"error: cbs2atom imported from {cbs2atom.__file__}", file=sys.stderr)
        return 2
    workloads = build_workloads(args.seed, tiny=args.tiny)
    if args.workload not in workloads:
        print(f"error: workload must be one of {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    spec = _benchmark_spec()

    work_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        untraced, traced, setups = measure(Session(workload, work_dir),
                                           args.seconds, bool(args.trace))
        # correctness, outside the timed region
        attempted, failed, max_dev = verify(untraced + traced, workload,
                                            references_for(workload, args.seed))
        timed = [r for r in untraced if "wall_s" in r]
        timed_traced = [r for r in traced if "wall_s" in r]
        if not timed or (args.trace and not timed_traced):
            print("error: no repetition completed", file=sys.stderr)
            return 1
        if args.trace:
            values, declared = per_layer(timed, timed_traced, max_dev), spec["per_layer"]
        else:
            values = end_to_end(timed, [r["setup_s"] for r in setups])
            declared = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print(f"workload {workload.name}: {' '.join(workload.argv)}")
    print(f"repetitions {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up samples {len(setups)}")
    print("wall_s per repetition: " + " ".join(f"{r['wall_s']:.4f}" for r in timed))
    print("cpu_s per repetition:  " + " ".join(f"{r['cpu_s']:.4f}" for r in timed))
    print("probe round ms per repetition (samples): " + " ".join(
        f"{1e3 * round_s(r):.4f}({len(r['probe_samples'])})" for r in timed))
    print("setup wall_s per sample: " + " ".join(f"{r['setup_wall_s']:.4f}" for r in setups))
    print(f"raw medians: wall_s {_median([r['wall_s'] for r in timed]):.6g} s, "
          f"cpu_s {_median([r['cpu_s'] for r in timed]):.6g} s, "
          f"setup wall_s {_median([r['setup_wall_s'] for r in setups]):.6g} s")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print("record " + json.dumps(run_record(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
