"""Ensemble-averaged coherent-backscattering spectra.

Everything here lives on the common "per coupling power, both atoms"
scale fixed by the Monte-Carlo conventions of :mod:`cbs2atom.disorder`:
the elastic weights and inelastic densities are what survives the
configuration average of the double-scattering signal, divided by the
window mean of four times the squared coupling strength.

The averaged channels have one production route: the surviving coupling
monomials of the two-atom spectra (:func:`cbs2atom.twoatom.fixed_config_spectrum`)
on a single canonical configuration.  Atoms on the x axis with the laser
along z carry zero laser phases, and the coupling is fixed to one decay
rate.
By the gauge identity ``M(phase) = U M(0) U^-1`` and because the exchange
amplitude enters each monomial only as a scalar factor, the surviving
monomials divided by ``4|T|^2`` are the configuration averages.  The
route needs no spectral decomposition, so the defective Jordan-point
drive (``rabi = 1/2`` on resonance) needs no special treatment.  Drives
on one grid, and one drive as a stack of one, are solved in blocks of at
most ``BLOCK_PAIRS`` (drive, frequency) pairs (:func:`cbs_spectra_stack`); a
longer grid is cut into frequency blocks.  The elastic weights are stationary
products, so each stack solves them once, with the regression initials its
frequency blocks start from (:func:`canonical_blocks`).

The paper's closed form in single-atom observables, its convolutions
evaluated by quadrature, is an independent test oracle that also holds at
the Jordan point; it lives in :mod:`cbs2atom.residues` (``compact_*``) and
nothing here imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cbs2atom.atom import AtomDriveParams
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    assemble,
    canonical_configuration,
    inelastic_spectra,
    stationary_terms,
)


def simpson(y, x):
    """Composite Simpson integral of samples ``y`` on an ascending grid ``x``.

    Panels of two intervals may be unequal.  For an even point count the
    last interval is added by Cartwright's correction, the rule
    ``scipy.integrate.simpson`` uses since scipy 1.11; the arithmetic
    follows scipy's.  Needs at least three points.
    """
    y, h = np.asarray(y), np.diff(np.asarray(x, dtype=float))
    even = len(y) % 2 == 0
    stop = len(y) - 3 if even else len(y) - 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                 + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:stop + 2:2] * (2.0 - ratio)))
    if even:
        a, b = h[-2], h[-1]
        total += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                  + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b ** 3 / (6 * a * (a + b)) * y[-3])
    return total


@dataclass(frozen=True, eq=False)
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
        return float(simpson(self.values, self.nu))

    @property
    def total(self) -> float:
        return self.elastic_weight + self.integrated()


@dataclass(frozen=True, eq=False)
class CbsResult:
    """Elastic weights, inelastic densities, and the interference contrast.

    ``enhancement`` is derived from the two channels when the result is
    built: one plus the crossed-to-ladder ratio of the
    frequency-integrated (elastic plus inelastic) channel weights, i.e.
    total backward signal over background.  In the weak-drive limit
    reciprocity makes the two channels equal and the value approaches 2;
    at strong driving either channel weight can change sign, and the
    ratio is reported as-is.  An empty background raises ``ValueError``.
    """

    drive: AtomDriveParams
    ladder: SpectralFunctionGrid
    crossed: SpectralFunctionGrid
    enhancement: float = field(init=False)

    def __post_init__(self) -> None:
        ladder_total = self.ladder.total
        if ladder_total == 0.0:
            raise ValueError("background channel is empty; drive the atoms first")
        object.__setattr__(self, "enhancement", 1.0 + self.crossed.total / ladder_total)

    @property
    def elastic_ladder(self) -> float:
        return self.ladder.elastic_weight

    @property
    def elastic_crossed(self) -> float:
        return self.crossed.elastic_weight


def default_grid(drive: AtomDriveParams, points: int = 601) -> np.ndarray:
    """Symmetric frequency grid covering the inelastic triplet structure, whose
    sidebands sit at the generalised Rabi frequency ``hypot(rabi, delta)``."""
    limit = max(15.0, np.hypot(drive.rabi, drive.delta) + 6.0)
    return np.linspace(-limit, limit, points)


def _real_part(value: complex, scale: float = 1.0) -> float:
    if abs(value.imag) > 1e-10 * (scale + abs(value.real)):
        raise ArithmeticError(f"spectral quantity has a non-real residue: {value!r}")
    return float(value.real)


# ----------------------------------------------------------------------------
# production route: one canonical configuration
# ----------------------------------------------------------------------------


#: Most (drive, frequency) pairs one solve holds; a larger one is no cheaper per pair.
BLOCK_PAIRS = 1024


def _per_power(value):
    """Both detection atoms, per coupling power ``4|T|^2 = 4``."""
    return 2.0 * value / 4.0


def _weight(value: complex) -> float:
    value = _per_power(value)
    return _real_part(value, scale=abs(value))


def _channel(nus: np.ndarray, densities: list, elastic: complex) -> SpectralFunctionGrid:
    """One channel from its densities on consecutive blocks of ``nus``."""
    density = _per_power(np.concatenate(densities))
    return SpectralFunctionGrid(nu=nus, values=np.real(density) / np.pi,
                                elastic_weight=_weight(elastic))


def canonical_blocks(drives, nus, monomials=(LADDER_MONOMIAL, CROSSED_MONOMIAL)):
    """Canonical spectra of each drive of a sequence on one grid ``nus``, in stacks of
    at most ``BLOCK_PAIRS`` (drive, frequency) pairs: the whole grid of as many drives as
    fit, or one drive on each block of ``BLOCK_PAIRS`` frequencies of a longer grid.

    Yields ``(stack, elastic, blocks)`` per stack of drives.  The stack's one
    stationary solve (:func:`cbs2atom.twoatom.stationary_terms`) gives ``elastic``, its
    elastic splittings ``(autocorrelation, exchange)``, and the regression initials of
    every frequency block.  ``blocks`` iterates over the ``(autocorrelation, exchange)``
    spectra of the consecutive frequency blocks (:func:`cbs2atom.twoatom.inelastic_spectra`),
    each solved when it is drawn: a caller that reduces a block before drawing the next
    holds one block's solve at a time, and one that draws none solves no frequency.
    Every block, whatever its length, solves its frequencies' pair block in closed form,
    so cutting the grid leaves each frequency's arithmetic.
    """
    nus = np.asarray(nus, dtype=float)
    size = max(1, BLOCK_PAIRS // max(1, nus.size))
    parts = np.split(nus, range(BLOCK_PAIRS, nus.size, BLOCK_PAIRS))
    for start in range(0, len(drives), size):
        stack = drives[start:start + size]
        gen = assemble(canonical_configuration(), stack, coupling=1.0)
        initials, *elastic = stationary_terms(gen, monomials)
        yield stack, elastic, (inelastic_spectra(gen, part, initials, monomials)
                               for part in parts)


def _channels(drives, nus) -> list:
    """(ladder, crossed) of each drive of a sequence on one grid ``nus``
    (:func:`canonical_blocks`)."""
    nus = np.asarray(nus, dtype=float)
    out = []
    for stack, (auto, exch), blocks in canonical_blocks(drives, nus):
        autos, exchs = zip(*blocks)
        out += [(_channel(nus, [block[LADDER_MONOMIAL][at] for block in autos],
                          auto[LADDER_MONOMIAL][at]),
                 _channel(nus, [block[CROSSED_MONOMIAL][at] for block in exchs],
                          exch[CROSSED_MONOMIAL][at]))
                for at in range(len(stack))]
    return out


def elastic_weights(drive: AtomDriveParams) -> tuple:
    """Elastic (drive-frequency) weights of the background and of the
    interference channel at exact backscattering, from the stationary
    expansion alone: a spectrum's numbers, without a frequency grid."""
    [(_, (auto, exch), _)] = canonical_blocks([drive], ())
    return _weight(auto[LADDER_MONOMIAL][0]), _weight(exch[CROSSED_MONOMIAL][0])


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
    return _channels([drive], nus)[0][0]


def inelastic_crossed(drive: AtomDriveParams, nus=None) -> SpectralFunctionGrid:
    """Inelastic density of the interference channel on a frequency grid,
    bundled with the channel's elastic weight."""
    if nus is None:
        nus = default_grid(drive)
    return _channels([drive], nus)[0][1]


def cbs_spectra_stack(drives, nus) -> list:
    """:func:`cbs_spectra` of each drive of a sequence on one grid ``nus``,
    solved in stacks of at most ``BLOCK_PAIRS`` (drive, frequency) pairs."""
    if any(drive.rabi == 0.0 for drive in drives):
        raise ValueError("undriven atoms scatter nothing; rabi must be nonzero")
    return [CbsResult(drive, ladder, crossed)
            for drive, (ladder, crossed) in zip(drives, _channels(drives, nus))]


def cbs_spectra(drive: AtomDriveParams, nus=None) -> CbsResult:
    """Full averaged backscattering signal: both channels plus contrast,
    from the canonical-configuration solve of a one-drive stack."""
    if nus is None:
        nus = default_grid(drive)
    return cbs_spectra_stack([drive], nus)[0]
