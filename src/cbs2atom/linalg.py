"""Dense complex linear algebra for the Bloch generators.

Two guarded resolvents, both free of any spectral decomposition, so they
stay exact at defective (Jordan-point) generators:

- :func:`inverse3` forms the 3x3 single-atom resolvent ``(z - M)^{-1}`` in
  closed form, cofactors over determinant, for a whole array of ``z``.
  Every single-atom route goes through it
  (:meth:`cbs2atom.atom.BlochSystem.green`): the Bloch block of the
  production spectra, the pump-probe lattices and the quadrature oracles of
  :mod:`cbs2atom.residues`.
- :func:`resolve` computes ``(z - M)^{-1} B`` for any size as one stacked
  dense solve; the two-atom pair-correlation block uses it for the
  stationary state, at z = 0 only
  (:meth:`cbs2atom.twoatom.TwoAtomGenerator.pair_green`).

Both reject non-finite arguments and arguments on a pole alike.  The
cofactor formula itself, :func:`_cofactor_inverse`, also inverts the two
3x3 blocks of the closed-form pair solve of every frequency grid
(:meth:`cbs2atom.twoatom.TwoAtomGenerator.pair_solver`).
"""

from __future__ import annotations

import numpy as np

#: Resolvent arguments closer than this (in units of the decay rate) to an
#: eigenvalue are rejected as sitting on a pole.
DEGENERACY_TOL = 1e-9

# cyclic successors of the row/column indices 0, 1, 2: the cofactor of
# entry (i, j) of a 3x3 matrix is the 2x2 determinant of rows
# (i+1, i+2) and columns (j+1, j+2), taken mod 3
_NEXT = [1, 2, 0]
_AFTER = [2, 0, 1]


class PoleProximityError(ValueError):
    """Raised when a resolvent is evaluated too close to an eigenvalue."""


def _shifted(M: np.ndarray, z, eigenvalues: np.ndarray) -> np.ndarray:
    """``z - M`` over ``S_d + z.shape`` for ``M`` of shape ``S_d + (n, n)``, once each
    ``z`` is finite and clear of its matrix's eigenvalues."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("resolvent argument z must be finite")
    lift = (..., *(None,) * z.ndim, slice(None))
    gap = np.abs(z[..., None] - eigenvalues[lift])
    if (gap < DEGENERACY_TOL).any():
        gap = np.min(gap, axis=-1)
        raise PoleProximityError(f"z={np.broadcast_to(z, gap.shape).flat[np.argmin(gap)]} "
                                 f"within {np.min(gap):.3e} of an eigenvalue")
    return z[..., None, None] * np.eye(M.shape[-1]) - M[lift + (slice(None),)]


def inverse3(M: np.ndarray, z, eigenvalues: np.ndarray) -> np.ndarray:
    """``(z - M)^{-1}`` of a 3x3 ``M`` for an array of ``z``, in closed form.

    With ``A = z - M`` the inverse is the transposed cofactor matrix over
    ``det A``, the determinant expanded along the first row of ``A``, all
    of it elementwise over ``S_d + z.shape`` for ``M`` of shape ``S_d + (3, 3)``.
    The determinant comes from the entries of ``A``, not from
    ``prod(z - eigenvalues)``, so a drive too weak to register in double
    precision leaves the undriven inverse exactly as it is.
    ``eigenvalues`` is the spectrum of ``M``, which sets the poles.

    Raises
    ------
    ValueError
        If an element of ``z`` is not finite.
    PoleProximityError
        If an element of ``z`` is within ``DEGENERACY_TOL`` of an eigenvalue.
    """
    return _cofactor_inverse(_shifted(M, z, eigenvalues))


def _cofactor_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of each 3x3 matrix of a stack ``A``: the transposed cofactor
    matrix over the determinant, expanded along the first row.  No pivot
    and no guard: the caller keeps ``A`` clear of singular."""
    rows_next, rows_after = A.take(_NEXT, axis=-2), A.take(_AFTER, axis=-2)
    cofactor = (rows_next.take(_NEXT, axis=-1) * rows_after.take(_AFTER, axis=-1)
                - rows_next.take(_AFTER, axis=-1) * rows_after.take(_NEXT, axis=-1))
    det = np.einsum("...j,...j->...", A[..., 0, :], cofactor[..., 0, :])
    return np.swapaxes(cofactor, -1, -2) / det[..., None, None]


def resolve(M: np.ndarray, z, rhs: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``(z - M)^{-1} rhs`` for an array of ``z``, as one stacked dense solve.

    ``z`` has shape ``S`` and ``M`` ``S_d + (n, n)`` (:func:`_shifted`); ``rhs`` is
    an ``(n, k)`` matrix or a stack of them that broadcasts against ``S_d + S``.
    Pass the identity for the resolvent itself and ``vec[..., None]`` for
    vectors.  ``eigenvalues`` is the spectrum of ``M``, which sets the poles.

    Raises
    ------
    ValueError
        If an element of ``z`` is not finite.
    PoleProximityError
        If an element of ``z`` is within ``DEGENERACY_TOL`` of an eigenvalue.
    """
    return np.linalg.solve(_shifted(M, z, eigenvalues), rhs)
