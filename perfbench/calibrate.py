"""Speed probe: a fixed amount of work that does not touch ``cbs2atom``.

The benchmark runs on shared hosts whose speed changes by up to a factor
of two within seconds, in CPU time as well as in wall time.  So a worker
measures the speed of the host while the command runs: ``SpeedSampler``
times one round of ``kernel`` every ``INTERVAL_S`` of the process's CPU
time, from a ``SIGPROF`` handler in the same thread.  ``run.py`` divides
the command's own CPU time (the samples taken out) by the harmonic mean of
the round times and multiplies by ``ROUND_REFERENCE_S``, which gives
seconds of a machine on which a round takes ``ROUND_REFERENCE_S``.  Set-up,
most of which is importing numpy, is divided by a ``probe_s`` right after
it instead.  On the machine the benchmark was written on, the raw CPU time
of identical runs of ``sweep`` spread 19% (interquartile range over
median) and the normalised time 1.6%.

The kernel mixes what the program spends its time on: small dense complex
solves and eigenvalue problems through numpy, and interpreted complex
arithmetic on dictionaries of terms.  It is fixed: changing it changes
every normalised metric.
"""

import signal
import time

import numpy as np

#: The reference speed: about the CPU time of one kernel round on the
#: 2-core Intel Xeon VM the benchmark was written on (Python 3.11, numpy
#: 2.4, one BLAS thread), which took 2.5 to 5 ms as the host's load moved.
ROUND_REFERENCE_S = 0.005
#: Rounds of one ``probe_s``.
PROBE_ROUNDS = 60
#: Process CPU time between two samples of ``SpeedSampler``.
INTERVAL_S = 0.1

_RNG = np.random.default_rng(1003)
_A = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_B = _RNG.standard_normal(12) + 0j
_EYE = np.eye(12)


def kernel(rounds: int) -> complex:
    acc = 0j
    for r in range(rounds):
        terms = {}
        for i in range(60):
            z = complex(0.25 * i - 7.5, 0.5 + 0.01 * r)
            m = _A + z * _EYE
            x = np.linalg.solve(m, _B)
            acc += complex(x @ x.conj())
            w = np.linalg.eigvals(m[:4, :4])
            for k in range(8):
                for j in range(4):
                    key = (k + j) % 11
                    terms[key] = terms.get(key, 0j) + complex(w[j]) / (z + k + 1j)
        acc += sum(terms.values())
    return acc


def probe_s() -> float:
    """CPU seconds per round of a ``PROBE_ROUNDS``-round probe, after a
    one-round warm-up."""
    kernel(1)
    start = time.thread_time()
    kernel(PROBE_ROUNDS)
    return (time.thread_time() - start) / PROBE_ROUNDS


class SpeedSampler:
    """Times one kernel round every ``INTERVAL_S`` of CPU time while active.

    ``samples`` holds the CPU and the wall time of each round; their sums
    are to be taken out of the measured interval."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        # the thread's clock: while an itimer is armed the process's CPU
        # clock only advances at scheduler ticks
        wall, cpu = time.perf_counter(), time.thread_time()
        kernel(1)
        self.samples.append((time.thread_time() - cpu, time.perf_counter() - wall))

    def __enter__(self):
        kernel(1)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
