"""Configuration averaging over atomic positions.

Two routes to the ensemble average of the double-scattering signal:

* analytic selection — after averaging over interatomic distances (many
  optical periods) and orientations, only coupling monomials with zero
  net distance phase and zero net laser phase survive; `select_surviving`
  filters a tagged term collection down to the surviving monomial of a
  detection channel.
* sampling — `ConfigSampler.geometry_chunks` draws random two-atom
  geometries as two uniform doubles per sample, a chunk at a time: the
  separation and the polar cosine of the atoms' axis, all that the
  coupling and the laser phase difference read.  `monte_carlo_spectra`
  averages the order-two spectra over them, with standard errors.  It
  keeps every coupling monomial, so it checks the selection rule
  independently: the monomials it drops have to average to zero.

Separations are uniform on the fixed window ``[WINDOW_START, WINDOW_START
+ 2 pi WINDOW_PERIODS]`` = ``[200, 200 + 16 pi]``: far enough out for the
dipole coupling's far field, and whole periods of the distance phase
``e^(2ix)``.  The phased monomials keep an O(1/x0) remainder there: on
``[a, b]``, ``|<T^2>| / <|T|^2>`` is ``(a + b) / (2ab)`` = 4.498e-3, the
share of a surviving ladder monomial's weight that ``(12, 21)`` keeps.

`monte_carlo_spectra` solves the two-atom equations once, on the canonical
generator of :func:`cbs2atom.twoatom.canonical_generator`: the
stationary state and elastic weights once, the spectra in the frequency
blocks of :func:`cbs2atom.spectra.canonical_blocks`.  By the
gauge identity ``M(phase) = U M(0) U^-1`` each sampled geometry's monomial
is the canonical one times a scalar coupling and phase factor, so the
samples cost array arithmetic over those factors, with no per-sample
object, drawn and reduced ``SAMPLE_CHUNK`` at a time: memory grows neither
with the grid nor with the sample count.  The identity itself is checked
elsewhere: against brute-force solves of sampled geometries in the tests,
and by the ``fixed-config-*`` rows of ``cbs2atom validate oracle``.

Averaged spectra are normalized by the window mean of four times the
squared coupling strength, which puts them on the same scale as the
closed-form per-coupling-power expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cbs2atom.atom import AtomDriveParams, _check_count, _check_drives, _check_reals
from cbs2atom.spectra import canonical_blocks
from cbs2atom.twoatom import (
    COUPLING_TAGS,
    CROSSED_MONOMIAL,
    DEGREE_TWO_MONOMIALS,
    LADDER_MONOMIAL,
    exchange_coupling,
)


#: Start of the sampled distance window, in units of 1/k.
WINDOW_START = 200.0
#: Whole periods ``2 pi`` of the distance phase the window spans.
WINDOW_PERIODS = 8
#: End of the sampled distance window.
WINDOW_STOP = WINDOW_START + 2.0 * np.pi * WINDOW_PERIODS
#: Window mean of 4|T|^2 = 9 / x^2, the scale of the averaged spectra.
COUPLING_POWER_MEAN = 9.0 / (WINDOW_START * WINDOW_STOP)
#: Most samples drawn and weighted at once (about 1 kB each); the moments of
#: more samples are combined chunk by chunk.
SAMPLE_CHUNK = 16_384


class BookkeepingError(ValueError):
    """A term without a valid coupling-monomial tag entered the average."""


def _validate_monomial(key) -> tuple:
    if not isinstance(key, tuple) or not all(tag in COUPLING_TAGS for tag in key):
        raise BookkeepingError(f"untagged or mistagged term: {key!r}")
    return key


def select_surviving(tagged, channel: str, backscatter_phase: complex = 1.0) -> dict:
    """Keep only the coupling monomial that survives configuration averaging.

    ``tagged`` maps coupling-monomial tuples to values (scalars or
    arrays).  The ladder channel keeps the forward/backward pair with
    zero net distance phase; the crossed channel keeps the
    double-forward pair, whose value must be multiplied by the
    backscattering detection phase of the configuration (it cancels the
    monomial's internal laser phase, so the product is phase-free).
    All other monomials — in particular those carrying a net e^(-2ix)
    distance phase — average to zero and are dropped.
    """
    for key in tagged:
        _validate_monomial(key)
    if channel == "ladder":
        return {LADDER_MONOMIAL: tagged[LADDER_MONOMIAL]} if LADDER_MONOMIAL in tagged else {}
    if channel == "crossed":
        if CROSSED_MONOMIAL not in tagged:
            return {}
        return {CROSSED_MONOMIAL: tagged[CROSSED_MONOMIAL] * backscatter_phase}
    raise ValueError(f"unknown channel {channel!r}")


@dataclass(frozen=True)
class ConfigSampler:
    """Random two-atom geometries: ``samples`` separations uniform on the
    module's distance window and orientations uniform on the sphere, the
    laser along z, drawn as two uniform doubles per sample, a chunk at a
    time, by :meth:`geometry_chunks`."""

    samples: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("samples", self.samples, 1_000)
        _check_count("seed", self.seed, 0)

    def geometry_chunks(self, size: int):
        """The samples, ``size`` at a time, as arrays ``(separation,
        cos_polar)`` from two uniform doubles per sample of
        ``default_rng(seed)``: atom 2 sits at ``separation`` from atom 1
        along a direction with z component ``cos_polar``, which is uniform
        on [-1, 1] for directions uniform on the sphere (Archimedes).  The
        azimuth enters neither the coupling nor the laser phase difference
        ``-separation * cos_polar``, so it is not drawn.  The stream is
        consecutive: the chunks are slices of one chunk of every sample.
        """
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.samples, size):
            uniform = rng.random((min(size, self.samples - start), 2))
            yield (WINDOW_START + (WINDOW_STOP - WINDOW_START) * uniform[:, 0],
                   2.0 * uniform[:, 1] - 1.0)


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Complex sample mean and standard error of one Monte-Carlo average, on
    the caller's frequency grid (a spectrum) or a scalar (an elastic
    weight), and the number of samples behind them."""

    mean: np.ndarray
    stderr: np.ndarray
    samples: int


@dataclass(frozen=True, eq=False)
class DisorderAveragedSpectra:
    """Monte-Carlo averages of the order-two detection channels.

    ``ladder``/``crossed`` are the averaged Laplace-image channels on the
    caller's frequency grid (complex; densities follow by Re/pi), the elastic
    fields are the averaged stationary weights; everything is normalized
    by the window mean of 4|T|^2 and includes the both-atoms factor two
    and, for the crossed channel, the backscattering phase.
    """

    ladder: MonteCarloResult
    crossed: MonteCarloResult
    elastic_ladder: MonteCarloResult
    elastic_crossed: MonteCarloResult


#: Gauge charge of each coupling channel, in units of the laser phase
#: difference ``Delta = phase1 - phase2``.  A laser phase ``phi`` on one atom
#: acts on its (lowering, raising, inversion) means as
#: ``U = diag(e^{i phi}, e^{-i phi}, 1)``, so the lowering operator of atom j
#: carries ``e^{i phi_j}`` and the raising operator ``e^{-i phi_j}``.  Channel
#: "jk" pairs the raising operator of atom j with the lowering operator of
#: atom k and picks up ``e^{i (phi_k - phi_j)}``: -1 for "12"/"12*", +1 for
#: "21"/"21*".
_CHARGE = {"12": -1, "12*": -1, "21": 1, "21*": 1}

#: Charge the exchange component adds to its monomials' charges: it reads
#: atom 1's lowering operator against atom 2's raising operator.  The
#: autocorrelation pairs atom 2's own operators and adds none.
_EXCHANGE_CHARGE = 1


def _gauge_weights(monomials, coupling: np.ndarray, phase_difference: np.ndarray,
                   charge: int) -> np.ndarray:
    """Per-sample factors mapping unit-coupling canonical monomials onto
    the sampled geometries: ``T^a conj(T)^b exp(i n Delta)``, one row per
    sample, one column per monomial."""
    factor = {False: coupling, True: np.conj(coupling)}
    phase = {}
    columns = []
    for mono in monomials:
        _validate_monomial(mono)
        n = charge + sum(_CHARGE[tag] for tag in mono)
        if n not in phase:
            phase[n] = np.exp(1j * n * phase_difference)
        column = phase[n]
        for tag in mono:
            column = column * factor[tag.endswith("*")]
        columns.append(column)
    return np.stack(columns, axis=1)


def _moments(weights: np.ndarray) -> tuple:
    """Mean, sum of centred outer products ``sum (w - mean) (w - mean)^H`` and
    count of the rows of ``weights``."""
    mean = weights.mean(axis=0)
    centred = weights - mean
    return mean, centred.T @ centred.conj(), len(weights)


def _combine_moments(first: tuple, second: tuple) -> tuple:
    """The :func:`_moments` of two sets of rows from theirs (the pairwise update
    of Chan, Golub and LeVeque)."""
    (mean_a, outer_a, count_a), (mean_b, outer_b, count_b) = first, second
    count = count_a + count_b
    step = mean_b - mean_a
    return (mean_a + step * (count_b / count),
            outer_a + outer_b + np.outer(step, step.conj()) * (count_a * count_b / count),
            count)


def _weight_moments(sampler: ConfigSampler, monomials: list, charges) -> list:
    """Sample mean, k x k covariance and count of the gauge weights (times
    the both-atoms factor two) of ``monomials`` at each gauge charge, from
    the samples drawn ``SAMPLE_CHUNK`` at a time."""
    moments = [None] * len(charges)
    for separation, cos_polar in sampler.geometry_chunks(SAMPLE_CHUNK):
        coupling, phase_difference = exchange_coupling(separation), -separation * cos_polar
        for at, charge in enumerate(charges):
            chunk = _moments(2.0 * _gauge_weights(monomials, coupling, phase_difference, charge))
            moments[at] = chunk if moments[at] is None else _combine_moments(moments[at], chunk)
    return [(mean, outer / (count - 1), count) for mean, outer, count in moments]


def _reduce_monomials(moments: tuple, coefficients: np.ndarray) -> MonteCarloResult:
    """Sample mean and standard error of the values ``weights @ coefficients``,
    both divided by ``COUPLING_POWER_MEAN``, without forming them: from the
    weights' mean and k x k covariance (:func:`_weight_moments`), the mean is
    ``mean @ coefficients`` and the variance a quadratic form in each column."""
    mean, covariance, samples = moments
    variance = np.real(np.einsum("m...,mn,n...->...", coefficients, covariance,
                                 coefficients.conj())) / samples
    spread = np.sqrt(np.maximum(variance, 0.0))
    return MonteCarloResult(mean=mean @ coefficients / COUPLING_POWER_MEAN,
                            stderr=spread / COUPLING_POWER_MEAN, samples=samples)


def monte_carlo_spectra(drive: AtomDriveParams, sampler: ConfigSampler,
                        nus) -> DisorderAveragedSpectra:
    """Average the full fixed-configuration order-two spectra over geometry.

    Every sample sums all degree-two coupling monomials.  No selection by
    monomial type is applied — the surviving-term prediction is exactly
    what this estimator validates: the monomials carrying net distance or
    laser phases average to zero here, at the cost of dominating the
    sample variance.

    The two-atom spectra are solved once, on the canonical generator
    with unit coupling, one frequency block at a time; the samples then
    weight the canonical monomials by their exchange amplitudes and laser
    phase differences (the gauge identity, see the module docstring).
    Mean and standard error are reduced in monomial space, so no
    per-sample spectrum is formed: the weights' moments are taken once,
    and each frequency block is reduced against them before the next is
    solved.  A spectrum and its elastic weight share monomials and gauge
    charge, so the elastic weights, solved once with the stationary state
    (:func:`cbs2atom.spectra.canonical_blocks`), are reduced the same way.
    """
    _check_drives("drive", drive, stack=False)
    if not isinstance(sampler, ConfigSampler):
        raise ValueError(f"sampler must be a ConfigSampler, got {sampler!r}")
    nus = _check_reals("nus", nus)
    # the crossed channel's backscattering phase e^{i Delta} adds one more
    moments = _weight_moments(sampler, DEGREE_TWO_MONOMIALS, (0, _EXCHANGE_CHARGE + 1))

    def reduce(channels) -> tuple:
        # (autocorrelation, exchange), one coefficient row per monomial
        return tuple(_reduce_monomials(weight_moments, np.array(
            [channel[m][0] for m in DEGREE_TWO_MONOMIALS]))
            for weight_moments, channel in zip(moments, channels))

    [(_, elastic, blocks)] = canonical_blocks([drive], nus, DEGREE_TWO_MONOMIALS)
    elastic_ladder, elastic_crossed = reduce(elastic)
    # map drops each block's spectra once reduced, before the next is solved
    ladder, crossed = (MonteCarloResult(np.concatenate([part.mean for part in parts]),
                                        np.concatenate([part.stderr for part in parts]),
                                        sampler.samples)
                       for parts in zip(*map(reduce, blocks)))
    return DisorderAveragedSpectra(ladder=ladder, crossed=crossed,
                                   elastic_ladder=elastic_ladder,
                                   elastic_crossed=elastic_crossed)
