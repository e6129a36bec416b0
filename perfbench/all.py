"""Run every workload of the benchmark once and print a summary table.

Usage, from the root of a source checkout::

    python3 perfbench/all.py [--seed 1] [--seconds 20] [--trace 1]

Each workload runs through ``run.py`` in its own process, one after the
other; their reports are printed in full, then one table of the metrics
and verdicts.  Exit status 0 iff every run succeeded and passed its checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        print(proc.stdout + proc.stderr, end="")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None

    print("\nsummary")
    ok = True
    for name, result in results.items():
        if result is None:
            print(f"{name:14s} run failed")
            ok = False
            continue
        verdict = "pass" if result["correct"] else "FAIL"
        ok = ok and result["correct"]
        print(f"{name:14s} checks {verdict}  "
              f"failed_frac {result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"    {metric:46s} {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
