"""One cold CLI invocation, timed from inside a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the source
tree, the command line, the output directory, where to write the result,
and whether to trace.  The result holds the monotonic-clock instant at
which set-up finished (``cbs2atom.cli`` imported, inputs built) and the
process's CPU time by then, the wall and CPU time of
``cbs2atom.cli.main(argv)``, its exit code and the process's peak resident
memory.  Untraced workers also time the speed probe of ``calibrate.py``
right after set-up and sample the host's speed while ``main`` runs; the
samples' time is taken out of the wall and CPU time of ``main``.
"""

import json
import os
import resource
import sys
import time

from calibrate import SpeedSampler, probe_s


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    import cbs2atom.cli

    if not os.path.abspath(cbs2atom.cli.__file__).startswith(job["src"] + os.sep):
        raise ImportError(f"cbs2atom imported from {cbs2atom.cli.__file__}, not {job['src']}")
    argv = list(job["argv"]) + ["--output", job["output"]]
    os.makedirs(job["output"])
    result = {"ready": _clock(), "setup_cpu_s": time.process_time()}
    if not job["trace"]:
        result["probe_before_s"] = probe_s()
    if not job["setup_only"]:
        context = sampler = SpeedSampler()
        if job["trace"]:
            from tracing import Tracer, package_modules, snapshot

            before = snapshot(package_modules())
            context = tracer = Tracer(run_id=job["run_id"])
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with context:
            start = time.perf_counter()
            code = cbs2atom.cli.main(argv)
            wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        result.update(exit_code=code, wall_s=wall, cpu_s=cpu)
        if job["trace"]:
            tracer.save(job["spans"])
            result["restored"] = snapshot(package_modules()) == before
        else:
            result.update(wall_s=wall - sum(w for _, w in sampler.samples),
                          cpu_s=cpu - sum(c for c, _ in sampler.samples),
                          probe_samples=sampler.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
