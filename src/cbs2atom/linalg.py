"""Dense complex linear algebra for the Bloch generators.

One guarded resolvent, free of any spectral decomposition, so it stays
exact at defective (Jordan-point) generators: :func:`inverse3` forms the
3x3 single-atom resolvent ``(z - M)^{-1}`` in closed form, cofactors over
determinant, for a whole array of ``z``.  Every single-atom route goes
through it (:meth:`cbs2atom.atom.BlochSystem.green`): the Bloch block of the
production spectra, the pump-probe lattices and the quadrature oracles of
:mod:`cbs2atom.residues`.

Every resolvent takes its arguments from the closed right half-plane:
finite ``z`` with ``Re z >= 0``, the stationary point ``z = 0`` and the
spectral axis ``z = -i nu`` (:func:`_half_plane`).  Radiative damping keeps
every pole at least 1 to the left of it, so the rule needs no eigenvalues.
The cofactor formula itself, :func:`_cofactor_inverse`, also inverts the
two 3x3 blocks of the closed-form pair solve of every frequency grid
(:meth:`cbs2atom.twoatom.TwoAtomGenerator.pair_solver`), which takes its
arguments by the same rule.  It works each stack flat, which keeps its cost
per matrix from climbing with the stack as ``(..., 3, 3)`` takes did: on one
core of a shared 2-core VM about 70 us for 742 matrices and 180 us for the
``(601, 2)`` pair blocks, where those takes cost 200 and 410 us.  The pump-probe
route inverts one such stack per emission frequency.
"""

from __future__ import annotations

import numpy as np

# the transposed cofactors of a 3x3 matrix in its flattened (..., 9) layout:
# entry (i, j) of the inverse is the cofactor of (j, i), the 2x2 determinant
# of rows (j+1, j+2) and columns (i+1, i+2) taken mod 3, whose two products
# multiply the entries at flat positions _LEFT[0] * _LEFT[1] and
# _RIGHT[0] * _RIGHT[1]
_ROW, _COL = np.divmod(np.arange(9), 3)
_LEFT = (3 * ((_COL + 1) % 3) + (_ROW + 1) % 3, 3 * ((_COL + 2) % 3) + (_ROW + 2) % 3)
_RIGHT = (3 * ((_COL + 1) % 3) + (_ROW + 2) % 3, 3 * ((_COL + 2) % 3) + (_ROW + 1) % 3)


def _half_plane(z) -> np.ndarray:
    """``z`` as a complex array, once every element is finite with ``Re z >= 0``.

    No Bloch generator has a pole within 1 of this half-plane.  With
    ``w = lambda + 1`` the characteristic cubic of the generator at detuning
    ``delta`` and Rabi amplitude ``Omega`` reads
    ``(w + 1)(w**2 + delta**2) + w Omega**2 = 0``.  For ``Re w > 0`` dividing
    by ``w (w + 1)`` gives ``w + delta**2/w = -Omega**2/(w + 1)``, whose left
    side has a positive real part and whose right side a non-positive one.
    So every eigenvalue has ``Re lambda <= -1`` at every drive; the laser
    phase is a similarity transform and moves none.  The pair-correlation
    block is a Kronecker sum, so its eigenvalues are sums of two, with
    ``Re <= -2``.  Hence ``|z - lambda| >= 1`` (``>= 2`` for the pair block)
    for every argument this rule admits.

    Raises
    ------
    ValueError
        If an element of ``z`` is not finite or has a negative real part.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)) or np.any(z.real < 0.0):
        raise ValueError("resolvent argument z must be finite with Re z >= 0")
    return z


def inverse3(M: np.ndarray, z) -> np.ndarray:
    """``(z - M)^{-1}`` of a 3x3 ``M`` for an array of ``z``, in closed form.

    With ``A = z - M`` the inverse is the transposed cofactor matrix over
    ``det A``, the determinant expanded along the first row of ``A``, all
    of it elementwise over ``S_d + z.shape`` for ``M`` of shape ``S_d + (3, 3)``.
    The determinant comes from the entries of ``A``, not from
    ``prod(z - eigenvalues)``, so a drive too weak to register in double
    precision leaves the undriven inverse exactly as it is.

    Raises
    ------
    ValueError
        If an element of ``z`` is not finite or has a negative real part
        (:func:`_half_plane`).
    """
    z = _half_plane(z)
    lift = (..., *(None,) * z.ndim, slice(None), slice(None))
    return _cofactor_inverse(z[..., None, None] * np.eye(3) - M[lift])


def _cofactor_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of each 3x3 matrix of a stack ``A``: the transposed cofactor
    matrix over the determinant, expanded along the first row.  No pivot
    and no guard: the caller keeps ``A`` clear of singular.

    The stack is worked flat, shape ``(..., 9)``: four fixed-index takes
    form both products of each transposed cofactor in place, the
    determinant is row 0 of ``A`` against column 0 of the result, and one
    in-place divide leaves a C-contiguous inverse.  Each temporary is one
    ``(..., 9)`` array.
    """
    flat = A.reshape(A.shape[:-2] + (9,))
    inverse = flat.take(_LEFT[0], axis=-1)
    inverse *= flat.take(_LEFT[1], axis=-1)
    right = flat.take(_RIGHT[0], axis=-1)
    right *= flat.take(_RIGHT[1], axis=-1)
    inverse -= right
    det = np.einsum("...j,...j->...", flat[..., :3], inverse[..., ::3])
    inverse /= det[..., None]
    return inverse.reshape(A.shape)
