"""Dense complex linear algebra for the Bloch generators.

:func:`resolve` is the one dense resolvent: ``(z - M)^{-1} B`` for a whole
array of ``z`` as one stacked solve, guarded against poles.  It needs no
spectral decomposition, so it stays exact at defective (Jordan-point)
generators.  Every route goes through it: the single-atom and two-atom
Green matrices of production, the pump-probe chains, and the quadrature
oracles of :mod:`cbs2atom.residues`.
"""

from __future__ import annotations

import numpy as np

#: Resolvent arguments closer than this (in units of gamma) to an
#: eigenvalue are rejected as sitting on a pole.
DEGENERACY_TOL = 1e-9


class PoleProximityError(ValueError):
    """Raised when a resolvent is evaluated too close to an eigenvalue."""


def resolve(M: np.ndarray, z, rhs: np.ndarray, eigenvalues: np.ndarray,
            gamma: float = 1.0) -> np.ndarray:
    """``(z - M)^{-1} rhs`` for an array of ``z``, as one stacked dense solve.

    ``z`` has shape ``S``; ``rhs`` is an ``(n, k)`` matrix or a stack of
    them that broadcasts against ``S``.  Pass the identity for the
    resolvent itself and ``vec[..., None]`` for vectors.  ``eigenvalues``
    is the spectrum of ``M``, which sets the poles.

    Raises
    ------
    ValueError
        If an element of ``z`` is not finite.
    PoleProximityError
        If an element of ``z`` is within ``DEGENERACY_TOL * gamma`` of an
        eigenvalue.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("resolvent argument z must be finite")
    gap = np.min(np.abs(z[..., None] - eigenvalues), axis=-1)
    if np.any(gap < DEGENERACY_TOL * gamma):
        raise PoleProximityError(
            f"z={z.flat[np.argmin(gap)]} within {np.min(gap):.3e} of an eigenvalue")
    return np.linalg.solve(z[..., None, None] * np.eye(len(M)) - M, rhs)
