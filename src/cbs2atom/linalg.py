"""Dense complex linear algebra for the Bloch generators.

:func:`resolve` is the one dense resolvent: ``(z - M)^{-1} B`` for a whole
array of ``z`` as one stacked solve, guarded against poles.  It needs no
spectral decomposition, so it stays exact at defective (Jordan-point)
generators; every production route (single-atom and two-atom Green
matrices, the pump-probe chains) goes through it.

The spectral decomposition of a 3x3 drift matrix into eigenvalues and
rank-one projectors, and the projector-sum resolvent :func:`green`, serve
the residue integrator and the closed-form oracle built on it.  All values
are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Eigenvalue pairs closer than this (in units of gamma) are treated as
#: degenerate and rejected; resolvent arguments this close to an eigenvalue
#: are rejected as sitting on a pole.
DEGENERACY_TOL = 1e-9


class DegenerateSpectrumError(ValueError):
    """Raised when a generator has (numerically) degenerate eigenvalues."""


class PoleProximityError(ValueError):
    """Raised when a resolvent is evaluated too close to an eigenvalue."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and spectral projectors of a 3x3 generator.

    The projectors are ``P_k = |u_k><v_k| / <v_k|u_k>`` with ``u_k`` (``v_k``)
    the right (left) eigenvectors, so that ``sum_k P_k = 1``,
    ``P_k P_q = delta_kq P_k`` and ``M = sum_k lambda_k P_k``.

    Attributes
    ----------
    eigenvalues:
        Shape ``(3,)`` complex array, in units of gamma.
    projectors:
        Shape ``(3, 3, 3)`` complex array; ``projectors[k]`` is ``P_k``.
    gamma:
        Decay-rate scale used for degeneracy/pole thresholds.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    gamma: float = 1.0

    @property
    def matrix(self) -> np.ndarray:
        """Reconstruct the decomposed matrix ``sum_k lambda_k P_k``."""
        return np.einsum("k,kij->ij", self.eigenvalues, self.projectors)


def eigen_decompose(M: np.ndarray, gamma: float = 1.0) -> SpectralDecomposition:
    """Decompose a 3x3 generator into eigenvalues and spectral projectors.

    Parameters
    ----------
    M:
        3x3 complex matrix (a single-atom Bloch drift generator).
    gamma:
        Decay-rate scale; degeneracy is judged relative to it.

    Raises
    ------
    DegenerateSpectrumError
        If two eigenvalues are closer than ``DEGENERACY_TOL * gamma``.  The
        caller is expected to perturb parameters rather than rely on a
        silent Jordan-block fallback.
    ValueError
        If the input contains non-finite entries or has the wrong shape.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("generator contains non-finite entries")

    lam, right = np.linalg.eig(M)
    # Left eigenvectors are right eigenvectors of the plain transpose (no
    # conjugation): they pair with the right ones by plain dot products.
    lam_l, left = np.linalg.eig(M.T)

    order = np.lexsort((lam.real, lam.imag))
    lam = lam[order]
    right = right[:, order]
    order_l = np.lexsort((lam_l.real, lam_l.imag))
    lam_l = lam_l[order_l]
    left = left[:, order_l]

    gaps = [abs(lam[i] - lam[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) < DEGENERACY_TOL * gamma:
        raise DegenerateSpectrumError(
            f"eigenvalue spacing {min(gaps):.3e} below {DEGENERACY_TOL} gamma"
        )
    # With distinct eigenvalues the two sorted lists must line up.
    if np.max(np.abs(lam - lam_l)) > 1e-8 * max(1.0, float(np.max(np.abs(lam)))):
        # Match left eigenvectors to the right-eigenvalue ordering explicitly.
        idx = [int(np.argmin(np.abs(lam_l - lv))) for lv in lam]
        left = left[:, idx]

    projectors = np.empty((3, 3, 3), dtype=complex)
    for k in range(3):
        u = right[:, k]
        v = left[:, k]
        projectors[k] = np.outer(u, v) / (v @ u)

    # A defective (Jordan-block) generator passes the gap check with an
    # O(sqrt(eps)) spurious eigenvalue split but produces huge, inconsistent
    # projectors.  Self-diagnose through the exact projector identities.
    scale = max(1.0, float(np.max(np.abs(M))))
    completeness = np.max(np.abs(projectors.sum(axis=0) - np.eye(3)))
    reconstruction = (
        np.max(np.abs(np.einsum("k,kij->ij", lam, projectors) - M)) / scale
    )
    if completeness > 1e-10 or reconstruction > 1e-10:
        raise DegenerateSpectrumError(
            "generator is numerically defective (projector residuals "
            f"{completeness:.2e}/{reconstruction:.2e}); perturb parameters"
        )

    return SpectralDecomposition(eigenvalues=lam, projectors=projectors, gamma=gamma)


def green(decomp: SpectralDecomposition, z: complex) -> np.ndarray:
    """Resolvent ``(z - M)^{-1}`` as a projector sum.

    Parameters
    ----------
    decomp:
        Spectral decomposition of ``M``.
    z:
        Complex frequency in units of gamma.  Must keep a distance of at
        least ``DEGENERACY_TOL * gamma`` from every eigenvalue.

    Raises
    ------
    PoleProximityError
        If ``z`` is within ``DEGENERACY_TOL * gamma`` of an eigenvalue.
    """
    dist = np.abs(z - decomp.eigenvalues)
    if np.min(dist) < DEGENERACY_TOL * decomp.gamma:
        raise PoleProximityError(
            f"z={z} within {np.min(dist):.3e} of an eigenvalue"
        )
    return np.einsum("k,kij->ij", 1.0 / (z - decomp.eigenvalues), decomp.projectors)


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
