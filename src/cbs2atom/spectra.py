"""Ensemble-averaged coherent-backscattering spectra.

Everything here lives on the common "per coupling power, both atoms"
scale fixed by the Monte-Carlo conventions of :mod:`cbs2atom.disorder`:
the elastic weights and inelastic densities are what survives the
configuration average of the double-scattering signal, divided by the
window mean of four times the squared coupling strength.

The averaged channels have one production route: the surviving coupling
monomials of the two-atom spectra (:func:`cbs2atom.twoatom.fixed_config_spectrum`)
on a single canonical configuration.  Atoms on the x axis with the laser
along z carry zero laser phases, and the coupling is fixed to ``gamma``.
By the gauge identity ``M(phase) = U M(0) U^-1`` and because the exchange
amplitude enters each monomial only as a scalar factor, the surviving
monomials divided by ``4|T|^2`` are the configuration averages.  The
route needs no spectral decomposition, so the defective Jordan-point
drive (``rabi = gamma/2`` on resonance) needs no special treatment.

The ``compact_*`` functions are the paper's closed form in single-atom
observables and serve as an independent test oracle: the channels folded
into convolutions of the frequency-resolved correlation functions of a
single pumped atom (the probe-response functions of :mod:`cbs2atom.atom`),
with the frequency integrals evaluated exactly by residues.  They need
the spectral projectors and raise :class:`~cbs2atom.linalg.DegenerateSpectrumError`
at a defective drive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    AtomDriveParams,
    BlochSystem,
    build,
    g0_vectors,
    mollow_p0,
    p_minus,
    p_plus,
    p2,
)
from cbs2atom.linalg import green
from cbs2atom.residues import (
    Chain,
    GreenFactor,
    PoleSum,
    expand_chain,
    integrate_pole_sum,
)
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    FixedConfigSpectra,
    assemble,
    canonical_configuration,
    fixed_config_spectrum,
)

DM = DELTA_MINUS
DP = DELTA_PLUS

POLE_MERGE_TOL = 1e-10


@dataclass(frozen=True)
class SpectralFunctionGrid:
    """A real spectral density on an ascending frequency grid.

    ``elastic_weight`` carries the delta-function weight at the drive
    frequency that accompanies the smooth density.
    """

    nu: np.ndarray
    values: np.ndarray
    elastic_weight: float

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", values)
        if nu.ndim != 1 or len(nu) < 3 or np.any(np.diff(nu) <= 0):
            raise ValueError("frequency grid must be strictly ascending, >= 3 points")
        if values.shape != nu.shape or not np.all(np.isfinite(values)):
            raise ValueError("densities must be finite reals on the grid")
        if not np.isfinite(self.elastic_weight):
            raise ValueError("elastic weight must be finite")

    def integrated(self) -> float:
        """Grid integral of the smooth density (composite Simpson)."""
        return float(simpson(self.values, x=self.nu))

    @property
    def total(self) -> float:
        return self.elastic_weight + self.integrated()


@dataclass(frozen=True)
class CbsResult:
    """Elastic weights, inelastic densities, and the interference contrast."""

    drive: AtomDriveParams
    ladder: SpectralFunctionGrid
    crossed: SpectralFunctionGrid
    enhancement: float

    @property
    def elastic_ladder(self) -> float:
        return self.ladder.elastic_weight

    @property
    def elastic_crossed(self) -> float:
        return self.crossed.elastic_weight


def default_grid(drive: AtomDriveParams, points: int = 601) -> np.ndarray:
    """Symmetric frequency grid covering the inelastic triplet structure."""
    limit = max(15.0 * drive.gamma, abs(drive.rabi) + 6.0 * drive.gamma)
    return np.linspace(-limit, limit, points)


def _real_part(value: complex, scale: float = 1.0) -> float:
    if abs(value.imag) > 1e-10 * (scale + abs(value.real)):
        raise ArithmeticError(f"spectral quantity has a non-real residue: {value!r}")
    return float(value.real)


def _expand_products(*factors):
    """Cross products of ``[(coeff, chains), ...]`` factor lists."""
    out = []
    for combo in itertools.product(*factors):
        coeff = 1.0 + 0.0j
        chains: tuple = ()
        for c, ch in combo:
            coeff *= c
            chains += ch
        out.append((coeff, chains))
    return out


class _VectorExpr:
    """Sum of (coefficient, scalar chain factors, vector chain) pieces.

    Represents frequency-dependent response vectors whose definition
    mixes matrix chains with scalar-component weights, so they can be
    embedded inside larger chains and later reduced to products of
    scalar chains.
    """

    def __init__(self, pieces):
        self.pieces = tuple(pieces)

    def apply(self, *ops) -> "_VectorExpr":
        """Prepend outer operators (leftmost acts last)."""
        return _VectorExpr(
            (coeff, scalars, Chain(tuple(ops) + vec.ops, vec.seed))
            for coeff, scalars, vec in self.pieces)

    def component(self, index: int):
        """Reduce to ``[(coeff, chains), ...]`` scalar products."""
        return [
            (coeff, scalars + (Chain(vec.ops, vec.seed, extract=index),))
            for coeff, scalars, vec in self.pieces]


class ChainAlgebra:
    """Response-chain factory for one driven atom.

    Caches the spectral decomposition, the stationary state, the
    zero-frequency probe vectors, and canonical Green factors so that
    equal resolvent arguments map to bitwise-equal integration poles.
    """

    def __init__(self, drive: AtomDriveParams):
        self.drive = drive
        self.system: BlochSystem = build(drive)
        self.decomp = self.system.decomp
        self.gamma = drive.gamma
        self.steady = self.system.steady
        self.g0_1, self.g0_2 = g0_vectors(self.system)
        self.b_minus = self.steady[0]
        self.b_plus = self.steady[1]
        self._factors: dict = {}

    def g(self, z: complex) -> np.ndarray:
        return green(self.decomp, z)

    def gf(self, sign: int, offset: complex = 0.0, var: str = "w1") -> GreenFactor:
        offset = complex(offset)
        if offset == 0:
            offset = 0.0 + 0.0j
        key = (sign, offset, var)
        if key not in self._factors:
            self._factors[key] = GreenFactor(self.decomp, sign, offset, var)
        return self._factors[key]

    def dsigma(self, branch: int, z: complex) -> np.ndarray:
        """First-order response vector ``G(z) DELTA^(branch) steady``."""
        delta = DP if branch > 0 else DM
        return self.g(z) @ (delta @ self.steady)

    # ---- frequency-dependent probe-response vectors

    def probe_minus(self, atom: int, sign: int, offset: complex = 0.0,
                    var: str = "w1") -> "_VectorExpr":
        """Co-rotating probe vector of either correlation branch at
        argument ``offset + sign*i*u``."""
        gfac = self.gf(sign, offset, var)
        s = self.steady
        if atom == 2:
            lead, weight = 1j * DM, 1
        else:
            lead, weight = -1j * DP, 0
        return _VectorExpr([
            (1.0, (), Chain((lead, gfac, DM), s)),
            (-s[weight], (), Chain((gfac, DM), s)),
            (-1.0, (Chain((gfac, DM), s, extract=weight),), Chain((), s)),
        ])

    def probe_plus(self, atom: int, sign: int, offset: complex = 0.0,
                   var: str = "w1") -> "_VectorExpr":
        """Counter-rotating probe vector at ``offset + sign*i*u``."""
        gfac = self.gf(sign, offset, var)
        s = self.steady
        if atom == 2:
            lead, weight = 1j * DM, 1
        else:
            lead, weight = -1j * DP, 0
        return _VectorExpr([
            (1.0, (), Chain((lead, gfac, DP), s)),
            (-s[weight], (), Chain((gfac, DP), s)),
            (-1.0, (Chain((gfac, DP), s, extract=weight),), Chain((), s)),
        ])

    def probe_second(self, var: str = "w1") -> "_VectorExpr":
        """Two-probe (one co-, one counter-rotating) response vector of the
        positive-frequency branch, as a function of the real probe
        frequency ``u``."""
        s = self.steady
        g0 = self.g(0.0)
        down, up = self.gf(-1, 0.0, var), self.gf(+1, 0.0, var)
        return _VectorExpr([
            (1.0, (), Chain((1j * DM, g0, DP, down, DM), s)),
            (1.0, (), Chain((1j * DM, g0, DM, up, DP), s)),
            (-1.0, (Chain((g0, DP, down, DM), s, extract=1),), Chain((), s)),
            (-1.0, (Chain((g0, DM, up, DP), s, extract=1),), Chain((), s)),
            (-s[1], (), Chain((g0, DP, down, DM), s)),
            (-s[1], (), Chain((g0, DM, up, DP), s)),
            (-1.0, (Chain((up, DP), s, extract=1),), Chain((down, DM), s)),
            (-1.0, (Chain((down, DM), s, extract=1),), Chain((up, DP), s)),
        ])

    # ---- integration helpers

    def integral(self, terms, variables=("w1",)) -> complex:
        """Integrate a sum of scalar-chain products over ``du/2pi`` per
        variable, exactly by residues."""
        total = 0.0 + 0.0j
        for coeff, chains in terms:
            ps = expand_chain(chains[0])
            for extra in chains[1:]:
                ps = ps.multiply(expand_chain(extra))
            for var in variables:
                ps = integrate_pole_sum(ps, var, gamma=self.gamma)
            total += coeff * ps.constant()
        return total

    def pole_sum(self, terms) -> PoleSum:
        """Assemble scalar-chain products into one rational function."""
        total = PoleSum()
        for coeff, chains in terms:
            ps = expand_chain(chains[0])
            for extra in chains[1:]:
                ps = ps.multiply(expand_chain(extra))
            total = total + ps.scaled(coeff)
        return total


@lru_cache(maxsize=16)
def _algebra(drive: AtomDriveParams) -> ChainAlgebra:
    return ChainAlgebra(drive)


def _chain(ops, seed, index):
    return [(1.0, (Chain(tuple(ops), seed, extract=index),))]


# ----------------------------------------------------------------------------
# elastic weights
# ----------------------------------------------------------------------------


def _elastic_ladder_value(al: ChainAlgebra) -> complex:
    s, g0 = al.steady, al.g(0.0)
    d_minus0 = al.dsigma(-1, 0.0)
    d_plus0 = al.dsigma(+1, 0.0)
    second0 = g0 @ (DP @ d_minus0) + g0 @ (DM @ d_plus0)
    algebraic = al.b_plus * al.b_minus * (
        second0[1] * al.b_minus
        + second0[0] * al.b_plus
        + d_plus0[1] * d_minus0[0]
        + d_minus0[1] * d_plus0[0]
    )

    # pump fluctuation weights times the intensity-like second response;
    # each correlation branch pairs with the oppositely rotating chain
    # (the equal-rotation pairings close away from all poles and vanish)
    fluct = [
        (1.0, (Chain((al.gf(-1),), al.g0_2, extract=0),)),
        (1.0, (Chain((al.gf(+1),), al.g0_1, extract=1),)),
    ]
    second_terms = (
        [(al.b_minus, chains) for _, chains in
         _chain((g0, DP, al.gf(-1), DM), s, 1) + _chain((g0, DM, al.gf(+1), DP), s, 1)]
        + [(al.b_plus, chains) for _, chains in
           _chain((g0, DP, al.gf(-1), DM), s, 0) + _chain((g0, DM, al.gf(+1), DP), s, 0)]
    )
    integral = al.integral(_expand_products(fluct, second_terms))
    return algebraic + integral


def _elastic_crossed_value(al: ChainAlgebra) -> complex:
    s, g0 = al.steady, al.g(0.0)
    d_minus0 = al.dsigma(-1, 0.0)
    d_plus0 = al.dsigma(+1, 0.0)
    algebraic = (
        al.b_plus * al.b_minus * d_minus0[0] * d_plus0[1]
        + al.b_plus * al.b_plus * d_plus0[0] * d_minus0[0]
        + al.b_minus * al.b_minus * d_minus0[1] * d_plus0[1]
    )

    term_a = _expand_products(
        _chain((al.gf(-1), DM), s, 1),
        _chain((g0, DP, al.gf(+1)), al.g0_1, 1))
    term_b = _expand_products(
        _chain((g0, DM, al.gf(-1)), al.g0_2, 0),
        _chain((al.gf(+1), DP), s, 0))
    integral = al.b_minus * al.integral(term_a) + al.b_plus * al.integral(term_b)
    return algebraic + integral


def compact_elastic_ladder(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the background channel (test oracle)."""
    value = 2.0 * _elastic_ladder_value(_algebra(drive))
    return _real_part(value, scale=abs(value))


def compact_elastic_crossed(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the interference channel (test oracle)."""
    value = 2.0 * _elastic_crossed_value(_algebra(drive))
    return _real_part(value, scale=abs(value))


def _merged_bit_noise(ps: PoleSum, tol: float) -> PoleSum:
    """Snap poles that differ only by floating-point noise onto a shared
    representative.

    Conjugating a pole sum rebuilds pole locations from the mirrored
    eigenvalues, which agree with their partners only to machine precision;
    without snapping, a product of the two branches sees the same pole
    twice at a separation far below any physical spacing.
    """
    seen: dict[str, list[complex]] = {}

    def canonical(var: str, pole: complex) -> complex:
        known = seen.setdefault(var, [])
        for rep in known:
            if abs(pole - rep) <= tol:
                return rep
        known.append(pole)
        return pole

    terms: dict[tuple, complex] = {}
    for key, coeff in ps.terms.items():
        snapped = tuple(sorted(
            ((var, canonical(var, pole)) for var, pole in key),
            key=lambda entry: (entry[0], entry[1].real, entry[1].imag)))
        terms[snapped] = terms.get(snapped, 0.0) + coeff
    return PoleSum(terms)


# ----------------------------------------------------------------------------
# compact inelastic channels
# ----------------------------------------------------------------------------


def _p0_pole_sum(al: ChainAlgebra) -> PoleSum:
    """Pump fluorescence spectrum as a rational function (density scale)."""
    return al.pole_sum([
        (1.0 / (2 * np.pi), (Chain((al.gf(-1),), al.g0_2, extract=0),)),
        (1.0 / (2 * np.pi), (Chain((al.gf(+1),), al.g0_1, extract=1),)),
    ])


def _p2_pole_sum(al: ChainAlgebra, nu: float) -> PoleSum:
    """Two-probe redistribution correlation as a rational function of the
    probe frequency, at fixed emission frequency ``nu``."""
    gn = al.g(-1j * nu)
    zn = -1j * nu
    terms = (
        al.probe_second().apply(gn).component(0)
        + _chain((gn, DM, al.gf(+1, zn), DP, gn), al.g0_2, 0)
        + al.probe_plus(2, +1).apply(gn, DM, al.gf(+1, zn)).component(0)
        + _chain((gn, DP, al.gf(-1, zn), DM, gn), al.g0_2, 0)
        + al.probe_minus(2, -1).apply(gn, DP, al.gf(-1, zn)).component(0)
    )
    branch = al.pole_sum(terms)
    return branch + branch.conjugated()


def _p_plus_terms(al: ChainAlgebra, nu: float, reflected: bool):
    """Counter-rotating probe correlation as chains in the probe
    frequency ``u``.

    ``reflected=False`` gives the correlation at probe frequency ``u``;
    ``reflected=True`` at ``nu - u``, the combination forced by frequency
    conservation in the interference convolution.
    """
    gnp = al.g(1j * nu)
    gnm = al.g(-1j * nu)
    zp = 1j * nu
    zn = -1j * nu
    if not reflected:
        return (
            _chain((gnp, DP, al.gf(-1, zp)), al.g0_1, 1)
            + al.probe_plus(1, +1).apply(gnp).component(1)
            + _chain((al.gf(+1, zn), DP, gnm), al.g0_2, 0)
            + al.probe_plus(2, +1).apply(al.gf(+1, zn)).component(0)
        )
    return (
        _chain((gnp, DP, al.gf(+1)), al.g0_1, 1)
        + al.probe_plus(1, -1, zp).apply(gnp).component(1)
        + _chain((al.gf(-1), DP, gnm), al.g0_2, 0)
        + al.probe_plus(2, -1, zp).apply(al.gf(-1)).component(0)
    )


def _ladder_values(al: ChainAlgebra, nus: np.ndarray) -> np.ndarray:
    p0_ps = _p0_pole_sum(al)
    system = al.system

    def one(nu: float) -> float:
        product = _merged_bit_noise(
            p0_ps.multiply(_p2_pole_sum(al, nu)), POLE_MERGE_TOL * al.gamma)
        convolution = integrate_pole_sum(product, "w1", gamma=al.gamma).constant()
        pump_elastic = al.b_plus * al.b_minus * p2(system, 0.0, nu) / (2 * np.pi)
        direct = mollow_p0(system, nu) * (
            abs(al.dsigma(-1, 1j * nu)[1]) ** 2 + abs(al.dsigma(+1, 1j * nu)[1]) ** 2)
        return 2.0 * float(np.real(convolution + pump_elastic + direct))

    return np.array([one(nu) for nu in nus])


def _crossed_values(al: ChainAlgebra, nus: np.ndarray) -> np.ndarray:
    system = al.system

    def one(nu: float) -> float:
        plus_ps = al.pole_sum(_p_plus_terms(al, nu, reflected=False))
        minus_ps = al.pole_sum(_p_plus_terms(al, nu, reflected=True)).conjugated()
        product = _merged_bit_noise(
            plus_ps.multiply(minus_ps), POLE_MERGE_TOL * al.gamma)
        convolution = integrate_pole_sum(product, "w1", gamma=al.gamma).constant()
        edge = (
            al.b_plus * al.dsigma(-1, -1j * nu)[0] * p_plus(system, 0.0, nu)
            + al.b_minus * al.dsigma(+1, 1j * nu)[1] * p_minus(system, 0.0, nu)
        ) / (2 * np.pi)
        return 2.0 * float(np.real(convolution / (2 * np.pi) + edge))

    return np.array([one(nu) for nu in nus])


def compact_ladder(drive: AtomDriveParams, nus) -> SpectralFunctionGrid:
    """Closed-form background channel on a frequency grid (test oracle)."""
    nus = np.asarray(nus, dtype=float)
    return SpectralFunctionGrid(nu=nus, values=_ladder_values(_algebra(drive), nus),
                                elastic_weight=compact_elastic_ladder(drive))


def compact_crossed(drive: AtomDriveParams, nus) -> SpectralFunctionGrid:
    """Closed-form interference channel on a frequency grid (test oracle)."""
    nus = np.asarray(nus, dtype=float)
    return SpectralFunctionGrid(nu=nus, values=_crossed_values(_algebra(drive), nus),
                                elastic_weight=compact_elastic_crossed(drive))


# ----------------------------------------------------------------------------
# production route: one canonical configuration
# ----------------------------------------------------------------------------


def _canonical_spectrum(drive: AtomDriveParams, nus=()) -> FixedConfigSpectra:
    """Order-two spectra of the canonical configuration with coupling ``gamma``."""
    config = canonical_configuration(drive.gamma)
    return fixed_config_spectrum(assemble(config, drive, coupling=drive.gamma), nus)


def _per_power(value, drive: AtomDriveParams):
    """Both detection atoms, per coupling power ``4|T|^2 = 4 gamma^2``."""
    return 2.0 * value / (4.0 * drive.gamma ** 2)


def _weight(value: complex, drive: AtomDriveParams) -> float:
    value = _per_power(value, drive)
    return _real_part(value, scale=abs(value))


def _channel(nus: np.ndarray, density: np.ndarray, elastic: complex,
             drive: AtomDriveParams) -> SpectralFunctionGrid:
    return SpectralFunctionGrid(nu=nus, values=np.real(_per_power(density, drive)) / np.pi,
                                elastic_weight=_weight(elastic, drive))


def _ladder(spec: FixedConfigSpectra, drive: AtomDriveParams) -> SpectralFunctionGrid:
    return _channel(spec.nu, spec.autocorrelation[LADDER_MONOMIAL],
                    spec.elastic_autocorrelation[LADDER_MONOMIAL], drive)


def _crossed(spec: FixedConfigSpectra, drive: AtomDriveParams) -> SpectralFunctionGrid:
    return _channel(spec.nu, spec.exchange[CROSSED_MONOMIAL],
                    spec.elastic_exchange[CROSSED_MONOMIAL], drive)


def elastic_ladder(drive: AtomDriveParams) -> float:
    """Elastic (drive-frequency) weight of the background channel."""
    return _weight(_canonical_spectrum(drive).elastic_autocorrelation[LADDER_MONOMIAL], drive)


def elastic_crossed(drive: AtomDriveParams) -> float:
    """Elastic weight of the interference channel at exact backscattering."""
    return _weight(_canonical_spectrum(drive).elastic_exchange[CROSSED_MONOMIAL], drive)


def inelastic_ladder(drive: AtomDriveParams, nus=None) -> SpectralFunctionGrid:
    """Inelastic density of the background channel on a frequency grid,
    bundled with the channel's elastic weight.

    At strong driving the density is not sign-definite: the
    second-order background correction contains, besides the rescattered
    fluorescence, the interference of the doubly-scattered amplitude
    with the unscattered one, and near saturation the latter dominates
    around the line centre.
    """
    if nus is None:
        nus = default_grid(drive)
    return _ladder(_canonical_spectrum(drive, nus), drive)


def inelastic_crossed(drive: AtomDriveParams, nus=None) -> SpectralFunctionGrid:
    """Inelastic density of the interference channel on a frequency grid,
    bundled with the channel's elastic weight."""
    if nus is None:
        nus = default_grid(drive)
    return _crossed(_canonical_spectrum(drive, nus), drive)


# ----------------------------------------------------------------------------
# assembled result
# ----------------------------------------------------------------------------


def _contrast(ladder: SpectralFunctionGrid, crossed: SpectralFunctionGrid) -> float:
    ladder_total = ladder.total
    if ladder_total == 0.0:
        raise ValueError("background channel is empty; drive the atoms first")
    return 1.0 + crossed.total / ladder_total


def enhancement_factor(result: CbsResult) -> float:
    """Backscattering contrast: one plus the crossed-to-ladder ratio of
    the frequency-integrated (elastic plus inelastic) channel weights.

    The returned convention is total backward signal over background.
    In the weak-drive limit reciprocity makes the two channels equal
    and the value approaches 2; at strong driving either channel weight
    can change sign, and the ratio is reported as-is.
    """
    return _contrast(result.ladder, result.crossed)


def cbs_spectra(drive: AtomDriveParams, nus=None) -> CbsResult:
    """Full averaged backscattering signal: both channels plus contrast,
    from one canonical-configuration solve."""
    if drive.rabi == 0.0:
        raise ValueError("undriven atoms scatter nothing; rabi must be nonzero")
    if nus is None:
        nus = default_grid(drive)
    spec = _canonical_spectrum(drive, nus)
    ladder, crossed = _ladder(spec, drive), _crossed(spec, drive)
    return CbsResult(drive=drive, ladder=ladder, crossed=crossed,
                     enhancement=_contrast(ladder, crossed))
