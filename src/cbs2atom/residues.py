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
* the reduction identities (``check_sum_rule_*``);
* the printed first- and second-order transcriptions of the two-atom
  expansion (``*_explicit``) and the frequency-integral representation of
  the pair resolvent (:func:`pair_resolvent_integral`), which check the
  recurrences of :mod:`cbs2atom.twoatom`.

Every integral includes the ``1/2pi`` measure, as does
:func:`quadrature_line_integral`, the adaptive scipy quadrature kept as an
independent reference for the tests.
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
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    TaggedVector,
    TwoAtomGenerator,
    _tagged_add,
)

__all__ = [
    "quadrature_line_integral",
    "check_sum_rule_I",
    "check_sum_rule_II",
    "check_sum_rule_III",
    "compact_elastic_ladder",
    "compact_elastic_crossed",
    "compact_channels",
    "pair_resolvent_integral",
    "single_first_order_explicit",
    "pair_first_order_explicit",
    "single_second_order_explicit",
]

def _poles(system: BlochSystem, sign: int, offset: complex = 0.0) -> np.ndarray:
    """Poles in ``u`` of ``G(offset + sign*i*u)``."""
    return -1j * sign * (system.eigenvalues - offset)


def quadrature_line_integral(
    fn,
    epsabs: float = 1e-13,
    epsrel: float = 1e-10,
    limit: int = 500,
) -> complex:
    """Adaptive quadrature of ``integral du/2pi fn(u)`` over the real line.

    ``fn`` maps a real number to a complex value and must decay at least
    like ``1/u**2``; the infinite range is handled by the integrator's
    variable transformation, so no window/tail split is needed.
    """
    from scipy.integrate import quad

    val = quad(fn, -np.inf, np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit,
               complex_func=True)[0]
    return complex(val) / (2.0 * np.pi)


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


# -- explicit closed-form transcriptions (oracles for the recurrences) ---------


def _pair_integral(system_one: BlochSystem, system_two: BlochSystem,
                   sign_one: int, sign_two: int, offset: complex = 0.0) -> np.ndarray:
    """``integral dw/2pi G1(offset + s1*i*w) (x) G2(offset + s2*i*w)``, 9x9."""
    u, weights = line_rule(np.concatenate([_poles(system_one, sign_one, offset),
                                           _poles(system_two, sign_two, offset)]))
    pair = (_first_slot(system_one.green(offset + sign_one * 1j * u))
            @ _second_slot(system_two.green(offset + sign_two * 1j * u)))
    return np.einsum("k,kij->ij", weights, pair)


def pair_resolvent_integral(gen: TwoAtomGenerator, z: complex = 0.0,
                            orientation: int = +1) -> np.ndarray:
    """Pair-correlation resolvent via the frequency-integral representation.

    Splits ``(z - M_corr)^{-1}`` into a line integral over single-atom
    resolvents at ``z/2 +- i w``; ``orientation`` selects which slot gets
    the upper sign (both choices must agree).  Cross-validates
    :meth:`TwoAtomGenerator.pair_green`.
    """
    if abs(complex(z).real) > 1e-12:
        raise ValueError("integral representation requires an imaginary argument")
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    return _pair_integral(gen.atom1, gen.atom2, orientation, -orientation, complex(z) / 2.0)


def single_first_order_explicit(gen: TwoAtomGenerator) -> tuple:
    """First-order Bloch corrections as the printed two-term chains.

    Returns tagged 3-vectors ``(atom2_part, atom1_part)``: each atom is
    pushed by the field scattered from the other's stationary coherence,
    once co-rotating and once counter-rotating.
    """
    t = gen.coupling
    tc = np.conj(t)
    s1, s2 = gen.atom1.steady, gen.atom2.steady
    g1, g2 = gen.atom1.green(0.0), gen.atom2.green(0.0)
    atom2_part = {
        ("12",): 2j * t * s1[1] * (g2 @ (DELTA_PLUS @ s2)),
        ("21*",): -2j * tc * s1[0] * (g2 @ (DELTA_MINUS @ s2)),
    }
    atom1_part = {
        ("21",): 2j * t * s2[1] * (g1 @ (DELTA_PLUS @ s1)),
        ("12*",): -2j * tc * s2[0] * (g1 @ (DELTA_MINUS @ s1)),
    }
    return atom2_part, atom1_part


def pair_first_order_explicit(gen: TwoAtomGenerator,
                              printed_final_term: bool = False) -> TaggedVector:
    """First-order pair correlations as the printed eight-term expression.

    Four algebraic terms (stationary coherence times first-order response)
    plus four frequency integrals over opposite-sign resolvent pairs.  The
    eighth term appears in its source with the second resolvent argument
    at the same sign as the first, which closes the contour away from all
    poles and yields zero; ``printed_final_term=True`` reproduces that
    literal reading, the default restores the opposite-sign pairing that
    matches the recurrences.
    """
    t = gen.coupling
    tc = np.conj(t)
    a1, a2 = gen.atom1, gen.atom2
    s1, s2 = a1.steady, a2.steady
    g1, g2 = a1.green(0.0), a2.green(0.0)
    g0_first_1, g0_second_1 = g0_vectors(a1)
    g0_first_2, g0_second_2 = g0_vectors(a2)

    out: TaggedVector = {}
    _tagged_add(out, ("21*",), -2j * tc * s1[0] * np.kron(s1, g2 @ (DELTA_MINUS @ s2)))
    _tagged_add(out, ("12",), 2j * t * s1[1] * np.kron(s1, g2 @ (DELTA_PLUS @ s2)))
    _tagged_add(out, ("21",), 2j * t * s2[1] * np.kron(g1 @ (DELTA_PLUS @ s1), s2))
    _tagged_add(out, ("12*",), -2j * tc * s2[0] * np.kron(g1 @ (DELTA_MINUS @ s1), s2))

    _tagged_add(out, ("21*",),
                -2j * tc * _pair_integral(a1, a2, +1, -1) @ np.kron(g0_first_1, DELTA_MINUS @ s2))
    _tagged_add(out, ("12",),
                2j * t * _pair_integral(a1, a2, -1, +1) @ np.kron(g0_second_1, DELTA_PLUS @ s2))
    _tagged_add(out, ("21",),
                2j * t * _pair_integral(a1, a2, +1, -1) @ np.kron(DELTA_PLUS @ s1, g0_second_2))
    final_sign = -1 if printed_final_term else +1
    _tagged_add(out, ("12*",), -2j * tc * _pair_integral(a1, a2, -1, final_sign)
                @ np.kron(DELTA_MINUS @ s1, g0_first_2))
    return out


def single_second_order_explicit(gen: TwoAtomGenerator) -> TaggedVector:
    """Squared-magnitude part of the second-order atom-2 Bloch correction.

    The printed eight terms: four products of stationary factors with
    double-response chains, four frequency integrals pairing a first-atom
    spectral factor with a second-atom response chain.  Monomials with two
    equal tags (squared amplitudes) are not part of this transcription.
    """
    t = gen.coupling
    tt = t * np.conj(t)
    a1, a2 = gen.atom1, gen.atom2
    s1, s2 = a1.steady, a2.steady
    g1, g2 = a1.green(0.0), a2.green(0.0)
    g0_first_1, g0_second_1 = g0_vectors(a1)
    g0_first_2, g0_second_2 = g0_vectors(a2)

    out: TaggedVector = {}
    _tagged_add(out, LADDER_MONOMIAL,
                4.0 * tt * s1[1] * s1[0] * (g2 @ (DELTA_MINUS @ (g2 @ (DELTA_PLUS @ s2)))))
    _tagged_add(out, LADDER_MONOMIAL,
                4.0 * tt * s1[1] * s1[0] * (g2 @ (DELTA_PLUS @ (g2 @ (DELTA_MINUS @ s2)))))
    _tagged_add(out, CROSSED_MONOMIAL,
                4.0 * tt * s2[0] * (g1 @ (DELTA_MINUS @ s1))[1] * (g2 @ (DELTA_PLUS @ s2)))
    _tagged_add(out, ("21", "21*"),
                4.0 * tt * s2[1] * (g1 @ (DELTA_PLUS @ s1))[0] * (g2 @ (DELTA_MINUS @ s2)))

    # a first-atom spectral factor times a second-atom response chain,
    # both on the nodes of one rule; vectors act as ``vec @ matrix.T``
    u, weights = line_rule(np.concatenate([pole_clusters(a1), pole_clusters(a2)]))
    up1, down1 = a1.green(1j * u), a1.green(-1j * u)
    up2, down2 = a2.green(1j * u), a2.green(-1j * u)
    paired = (
        (LADDER_MONOMIAL, (down1 @ g0_second_1)[:, 0],
         (up2 @ (DELTA_PLUS @ s2)) @ DELTA_MINUS.T @ g2.T),
        (LADDER_MONOMIAL, (up1 @ g0_first_1)[:, 1],
         (down2 @ (DELTA_MINUS @ s2)) @ DELTA_PLUS.T @ g2.T),
        (CROSSED_MONOMIAL, (up1 @ (DELTA_MINUS @ s1))[:, 1],
         (down2 @ g0_first_2) @ DELTA_PLUS.T @ g2.T),
        (("21", "21*"), (up1 @ (DELTA_PLUS @ s1))[:, 0],
         (down2 @ g0_second_2) @ DELTA_MINUS.T @ g2.T),
    )
    for mono, scalar, vector in paired:
        _tagged_add(out, mono, 4.0 * tt * ((weights * scalar) @ vector))
    return out
