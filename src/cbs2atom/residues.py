"""Frequency integrals for the test oracles.

Every integral here runs over a real frequency ``u`` of products of Green
matrices ``G(a + s*i*u)`` (``a`` imaginary, ``s = +-1``) and constant
insertions, and is evaluated by the self-placing rule of
:mod:`cbs2atom.quadrature` over exactly the poles of its integrand.  Each
Green matrix is the closed-form 3x3 inverse over the whole node stack
(:meth:`~cbs2atom.atom.BlochSystem.green`), so the rule needs no spectral
decomposition and holds at the defective Jordan-point drive
(``rabi = 1/2`` on resonance) as anywhere else.

Everything here is a test oracle, so the production modules never import
it:

* the paper's closed form of the averaged channels in single-atom
  observables (``compact_*``): the exchanged-photon convolution of
  :mod:`cbs2atom.quadrature` over the single-atom closed forms of
  :mod:`cbs2atom.atom` (``mollow_p0``, ``p_plus``, ``p_minus``, ``p2``);
* the reduction identities (``check_sum_rule_*``).

Every integral includes the ``1/2pi`` measure.
"""

from __future__ import annotations

import math

import numpy as np

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    AtomDriveParams,
    BlochSystem,
    build,
    delta_sigma_first,
    delta_sigma_second,
    g0_vectors,
    mollow_p0,
    p_minus,
    p_plus,
    p2,
    p2_sides,
)
from cbs2atom.quadrature import exchanged_photon_convolution, line_rule, pole_clusters
from cbs2atom.spectra import SpectralFunctionGrid, _real_part

__all__ = [
    "check_sum_rule_I",
    "check_sum_rule_II",
    "check_sum_rule_III",
    "compact_elastic_ladder",
    "compact_elastic_crossed",
    "compact_channels",
]


def _poles(system: BlochSystem, sign: int, offset: complex = 0.0) -> np.ndarray:
    """Poles in ``u`` of ``G(offset + sign*i*u)``."""
    return -1j * sign * (system.eigenvalues - offset)


# ----------------------------------------------------------------------------
# reduction identities
# ----------------------------------------------------------------------------


def _first_slot(g: np.ndarray) -> np.ndarray:
    """Stacked ``kron(g, 1)``: a 3x3 operator acting on the first slot."""
    return np.einsum("...ij,kl->...ikjl", g, np.eye(3)).reshape(g.shape[:-2] + (9, 9))


def _second_slot(g: np.ndarray) -> np.ndarray:
    """Stacked ``kron(1, g)``: a 3x3 operator acting on the second slot."""
    return np.einsum("kl,...ij->...kilj", np.eye(3), g).reshape(g.shape[:-2] + (9, 9))


def _random_insertion(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return mat / math.sqrt(2.0 * dim)


def _require_imaginary(*zs: complex) -> None:
    for z in zs:
        if abs(complex(z).real) > 1e-12:
            raise ValueError(f"fixed resolvent argument {z} must be purely imaginary")


def check_sum_rule_I(system_one, system_two, z: complex, rng=None) -> float:
    """Deviation of the two-term reduction identity at imaginary ``z``.

    With arbitrary fixed insertions ``A``, ``B``, ``C`` in the product
    space,

        integral dw/2pi [A G1(z/2+iw) B G2(z/2-iw) G2(z) C
                         + A G1(z/2+iw) G1(0) B G2(z/2-iw) C]
            = A G1(0) B G2(z) C,

    where ``G1`` acts on the first slot and ``G2`` on the second.  Returns
    the maximum absolute elementwise deviation, with the left side
    computed by quadrature and the right side in closed form.
    """
    _require_imaginary(z)
    rng = np.random.default_rng(rng)
    a_ins, b_ins, c_ins = (_random_insertion(rng, 9) for _ in range(3))
    g1_zero = _first_slot(system_one.green(0.0))
    g2_z = _second_slot(system_two.green(z))

    half = complex(z) / 2.0
    u, weights = line_rule(np.concatenate([_poles(system_one, +1, half),
                                           _poles(system_two, -1, half)]))
    left = a_ins @ _first_slot(system_one.green(half + 1j * u))
    right = _second_slot(system_two.green(half - 1j * u))
    lines = left @ b_ins @ right @ g2_z @ c_ins + left @ g1_zero @ b_ins @ right @ c_ins
    lhs = np.einsum("k,kij->ij", weights, lines)
    rhs = a_ins @ g1_zero @ b_ins @ g2_z @ c_ins
    return float(np.max(np.abs(lhs - rhs)))


def check_sum_rule_II(system_one, system_two, omega: float, rng=None) -> float:
    """Deviation of the double-integral collapse identity.

    With fixed insertions ``A .. D`` in the product space,

        integral dw1/2pi dw2/2pi
            A G1(-i omega/2 + i w2) G1(i w1) B G2(-i omega/2 - i w2) C G2(-i w1) D
        = integral dw1/2pi
            A G1(i w1) B G2(-i omega - i w1) C G2(-i w1) D.

    Both sides by quadrature, the left as an iterated double sum whose
    inner (``w2``) sum is folded into one superoperator first; returns the
    maximum absolute deviation.
    """
    rng = np.random.default_rng(rng)
    a_ins, b_ins, c_ins, d_ins = (_random_insertion(rng, 9) for _ in range(4))
    shift = -0.5j * omega

    v, inner_weights = line_rule(np.concatenate([_poles(system_one, +1, shift),
                                                 _poles(system_two, -1, shift)]))
    outer = np.concatenate([_poles(system_one, +1), _poles(system_two, -1),
                            _poles(system_two, -1, -1j * omega)])
    u, weights = line_rule(outer)
    g1_up = _first_slot(system_one.green(1j * u))
    g2_down = _second_slot(system_two.green(-1j * u))

    # sum_l V_l (A G1(shift + i v_l)) X G2(shift - i v_l), as a map on X
    fold = np.einsum("l,lij,lmn->ijmn", inner_weights,
                     a_ins @ _first_slot(system_one.green(shift + 1j * v)),
                     _second_slot(system_two.green(shift - 1j * v)), optimize=True)
    inner = np.einsum("ijmn,kjm->kin", fold, g1_up @ b_ins, optimize=True)
    lhs = np.einsum("k,kij->ij", weights, inner @ c_ins @ g2_down @ d_ins)

    g2_shifted = _second_slot(system_two.green(-1j * omega - 1j * u))
    rhs = np.einsum("k,kij->ij", weights,
                    a_ins @ g1_up @ b_ins @ g2_shifted @ c_ins @ g2_down @ d_ins)
    return float(np.max(np.abs(lhs - rhs)))


def check_sum_rule_III(system, z1: complex, z2: complex, rng=None) -> float:
    """Deviation of the single-atom splitting identity.

    With fixed 3x3 insertions ``A``, ``B``, ``C``,

        integral dw/2pi [A G(z1) G(iw) B G(-iw) C + A G(iw) B G(z2) G(-iw) C]
            = A G(z1) B G(z2) C.

    The identity holds for purely imaginary arguments with ``z1 + z2 = 0``
    (every use downstream pairs a resolvent at ``-i nu`` with its mirror
    at ``+i nu``); the function evaluates the deviation for whatever
    arguments are supplied, so the constraint is observable.
    """
    _require_imaginary(z1, z2)
    rng = np.random.default_rng(rng)
    a_ins, b_ins, c_ins = (_random_insertion(rng, 3) for _ in range(3))
    g_z1 = system.green(z1)
    g_z2 = system.green(z2)

    u, weights = line_rule(pole_clusters(system))
    up, down = system.green(1j * u), system.green(-1j * u)
    lines = a_ins @ g_z1 @ up @ b_ins @ down @ c_ins + a_ins @ up @ b_ins @ g_z2 @ down @ c_ins
    lhs = np.einsum("k,kij->ij", weights, lines)
    rhs = a_ins @ g_z1 @ b_ins @ g_z2 @ c_ins
    return float(np.max(np.abs(lhs - rhs)))


# ----------------------------------------------------------------------------
# closed form in single-atom observables (test oracle)
# ----------------------------------------------------------------------------


def _elastic_ladder_value(system: BlochSystem) -> complex:
    b_minus, b_plus = system.steady[0], system.steady[1]
    d_minus0 = delta_sigma_first(system, -1, 0.0)
    d_plus0 = delta_sigma_first(system, +1, 0.0)
    second0 = delta_sigma_second(system, 0.0)
    algebraic = b_plus * b_minus * (
        second0[1] * b_minus
        + second0[0] * b_plus
        + d_plus0[1] * d_minus0[0]
        + d_minus0[1] * d_plus0[0]
    )

    # pump fluctuation spectrum times the intensity-like second response
    u, weights = line_rule(pole_clusters(system))
    second = delta_sigma_second(system, u)
    fluctuation = 2.0 * np.pi * mollow_p0(system, u)
    integral = weights @ (fluctuation * (b_minus * second[:, 1] + b_plus * second[:, 0]))
    return algebraic + integral


def _elastic_crossed_value(system: BlochSystem) -> complex:
    b_minus, b_plus = system.steady[0], system.steady[1]
    g0_1, g0_2 = g0_vectors(system)
    d_minus0 = delta_sigma_first(system, -1, 0.0)
    d_plus0 = delta_sigma_first(system, +1, 0.0)
    algebraic = (
        b_plus * b_minus * d_minus0[0] * d_plus0[1]
        + b_plus * b_plus * d_plus0[0] * d_minus0[0]
        + b_minus * b_minus * d_minus0[1] * d_plus0[1]
    )

    u, weights = line_rule(pole_clusters(system))
    g0 = system.green(0.0)
    term_a = (delta_sigma_first(system, -1, u)[:, 1]
              * (system.green(1j * u) @ g0_1 @ DELTA_PLUS.T @ g0.T)[:, 1])
    term_b = ((system.green(-1j * u) @ g0_2 @ DELTA_MINUS.T @ g0.T)[:, 0]
              * delta_sigma_first(system, +1, u)[:, 0])
    return algebraic + weights @ (b_minus * term_a + b_plus * term_b)


def compact_elastic_ladder(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the background channel (test oracle)."""
    value = 2.0 * _elastic_ladder_value(build(drive))
    return _real_part(value, scale=abs(value))


def compact_elastic_crossed(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the interference channel (test oracle)."""
    value = 2.0 * _elastic_crossed_value(build(drive))
    return _real_part(value, scale=abs(value))


def compact_channels(drive: AtomDriveParams, nus) -> tuple:
    """Closed-form ladder (background) and crossed (interference) channels
    on a frequency grid (test oracle): the exchanged-photon convolution of
    :mod:`cbs2atom.quadrature` over the closed forms of :mod:`cbs2atom.atom`."""
    nus = np.asarray(nus, dtype=float)
    system = build(drive)

    def at_nodes(i, u):
        nu = nus[i]
        both = np.concatenate([u, -u])
        near, far = p2_sides(system, both, nu)
        return (mollow_p0(system, both), near[:len(u)], far[len(u):],
                p_plus(system, u, nu), p_minus(system, u, nu))

    emission = (mollow_p0(system, nus), p2(system, 0.0, nus), p_plus(system, 0.0, nus),
                p_minus(system, 0.0, nus), delta_sigma_first(system, -1, -nus),
                delta_sigma_first(system, +1, nus), delta_sigma_first(system, -1, nus))
    ladder, crossed = exchanged_photon_convolution(system, nus, at_nodes, emission)
    return (SpectralFunctionGrid(nus, ladder, compact_elastic_ladder(drive)),
            SpectralFunctionGrid(nus, crossed, compact_elastic_crossed(drive)))
