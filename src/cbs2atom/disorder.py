"""Configuration averaging over atomic positions.

Two routes to the ensemble average of the double-scattering signal:

* analytic selection — after averaging over interatomic distances (many
  optical periods) and orientations, only coupling monomials with zero
  net distance phase and zero net laser phase survive; `select_surviving`
  filters a tagged term collection down to the surviving monomial of a
  detection channel.
* sampling — `ConfigSampler` draws random two-atom geometries and
  `monte_carlo_average` / `monte_carlo_spectra` average per-configuration
  observables over them, with standard errors.  `monte_carlo_spectra`
  keeps every coupling monomial, so it checks the selection rule
  independently: the monomials it drops have to average to zero.

`monte_carlo_spectra` solves the two-atom equations once, on the canonical
configuration of :func:`cbs2atom.twoatom.canonical_configuration`.  By the
gauge identity ``M(phase) = U M(0) U^-1`` each sampled geometry's monomial
is the canonical one times a scalar coupling and phase factor, so a
sample costs scalar arithmetic only.  The identity itself is checked
elsewhere: against brute-force solves of sampled geometries in the tests,
and by the ``fixed-config-*`` rows of ``cbs2atom validate oracle``.

Averaged spectra are normalized by the window mean of four times the
squared coupling strength, which puts them on the same scale as the
closed-form per-coupling-power expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cbs2atom.atom import AtomDriveParams
from cbs2atom.twoatom import (
    COUPLING_TAGS,
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    ScatteringConfig,
    assemble,
    canonical_configuration,
    fixed_config_spectrum,
)


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
    """Random two-atom geometries: distance window plus isotropic orientation.

    Distances are uniform on ``[x_start, x_start + 2 pi periods]`` (whole
    oscillation periods, so phased monomials cancel at the window level,
    not just statistically); orientations are uniform on the sphere; the
    laser propagates along z.
    """

    x_start: float = 200.0
    periods: int = 8
    samples: int = 10_000
    seed: int = 0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_start) and self.x_start >= 50.0):
            raise ValueError("distance window must start at a finite x >= 50")
        if int(self.periods) != self.periods or self.periods < 8:
            raise ValueError("need at least 8 whole distance periods")
        if self.samples < 1_000:
            raise ValueError("need at least 1000 samples")

    @property
    def x_stop(self) -> float:
        return self.x_start + 2.0 * np.pi * self.periods

    @property
    def coupling_power_mean(self) -> float:
        """Window mean of 4|T|^2 = 9 gamma^2 / x^2, evaluated analytically."""
        width = self.x_stop - self.x_start
        return 9.0 * self.gamma ** 2 * (1.0 / self.x_start - 1.0 / self.x_stop) / width

    def configurations(self):
        rng = np.random.default_rng(self.seed)
        for _ in range(self.samples):
            x = rng.uniform(self.x_start, self.x_stop)
            direction = rng.standard_normal(3)
            while np.linalg.norm(direction) < 1e-8:
                direction = rng.standard_normal(3)
            yield ScatteringConfig.from_separation(
                x, gamma=self.gamma, direction=direction)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: np.ndarray
    stderr: np.ndarray
    samples: int


def _reduce(values: np.ndarray, samples: int, scale: float = 1.0) -> MonteCarloResult:
    """Sample mean and standard error, both divided by ``scale``."""
    mean = values.mean(axis=0)
    if samples > 1:
        spread = np.sqrt(np.sum(np.abs(values - mean) ** 2, axis=0)
                         / (samples - 1) / samples)
    else:
        spread = np.zeros_like(np.abs(mean))
    return MonteCarloResult(mean=mean / scale, stderr=spread / scale, samples=samples)


def monte_carlo_average(observable, sampler: ConfigSampler, *,
                        normalize: bool = False) -> MonteCarloResult:
    """Sample mean and standard error of a per-configuration observable.

    With ``normalize`` the mean and error are divided by the analytic
    window mean of the coupling power 4|T|^2 (the common prefactor of
    all double-scattering quantities).
    """
    values = np.asarray([observable(config) for config in sampler.configurations()])
    scale = sampler.coupling_power_mean if normalize else 1.0
    return _reduce(values, sampler.samples, scale)


@dataclass(frozen=True)
class DisorderAveragedSpectra:
    """Monte-Carlo averages of the order-two detection channels.

    ``ladder``/``crossed`` are the averaged Laplace-image channels on the
    frequency grid (complex; densities follow by Re/pi), the elastic
    fields are the averaged stationary weights; everything is normalized
    by the window mean of 4|T|^2 and includes the both-atoms factor two
    and, for the crossed channel, the backscattering phase.
    """

    nu: np.ndarray
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
    weights = np.empty((len(coupling), len(monomials)), dtype=complex)
    for j, mono in enumerate(monomials):
        _validate_monomial(mono)
        n = charge + sum(_CHARGE[tag] for tag in mono)
        weights[:, j] = np.exp(1j * n * phase_difference)
        for tag in mono:
            weights[:, j] *= np.conj(coupling) if tag.endswith("*") else coupling
    return weights


def _reduce_monomials(weights: np.ndarray, coefficients: np.ndarray,
                      scale: float) -> MonteCarloResult:
    """`_reduce` of the sample values ``weights @ coefficients`` without
    forming them: the mean is ``mean(weights) @ coefficients`` and the
    variance follows from the monomials' k x k weight covariance."""
    samples = len(weights)
    mean = weights.mean(axis=0)
    centred = weights - mean
    covariance = centred.T @ centred.conj() / (samples - 1)
    variance = np.real(np.einsum("m...,mn,n...->...", coefficients, covariance,
                                 coefficients.conj())) / samples
    spread = np.sqrt(np.maximum(variance, 0.0))
    return MonteCarloResult(mean=mean @ coefficients / scale, stderr=spread / scale,
                            samples=samples)


def monte_carlo_spectra(drive: AtomDriveParams, sampler: ConfigSampler,
                        nus) -> DisorderAveragedSpectra:
    """Average the full fixed-configuration order-two spectra over geometry.

    Every sample sums all degree-two coupling monomials.  No selection by
    monomial type is applied — the surviving-term prediction is exactly
    what this estimator validates: the monomials carrying net distance or
    laser phases average to zero here, at the cost of dominating the
    sample variance.

    The two-atom spectra are solved once, on the canonical configuration
    with unit coupling; each sample then weights the canonical monomials
    by its exchange amplitude and laser phase difference (the gauge
    identity, see the module docstring).  Mean and standard error are
    reduced in monomial space, so no per-sample spectrum is formed.
    """
    nus = np.asarray(nus, dtype=float)
    canonical = fixed_config_spectrum(
        assemble(canonical_configuration(sampler.gamma), drive, coupling=1.0), nus)
    geometry = np.array([(config.coupling, config.phase_difference)
                         for config in sampler.configurations()])
    coupling, phase_difference = geometry[:, 0], geometry[:, 1].real
    scale = sampler.coupling_power_mean
    # the crossed channel's backscattering phase e^{i Delta} adds one more
    crossed_charge = _EXCHANGE_CHARGE + 1

    def average(tagged: dict, charge: int) -> MonteCarloResult:
        if not tagged:
            raise BookkeepingError("no tagged terms to average")
        monomials = list(tagged)
        weights = 2.0 * _gauge_weights(monomials, coupling, phase_difference, charge)
        return _reduce_monomials(weights, np.array([tagged[m] for m in monomials]), scale)

    return DisorderAveragedSpectra(
        nu=nus,
        ladder=average(canonical.autocorrelation, 0),
        crossed=average(canonical.exchange, crossed_charge),
        elastic_ladder=average(canonical.elastic_autocorrelation, 0),
        elastic_crossed=average(canonical.elastic_exchange, crossed_charge),
    )
