"""The tan-mapped midpoint rule over the real line and the poles it is placed by."""

import numpy as np
import pytest

from cbs2atom import atom
from cbs2atom.atom import AtomDriveParams, DELTA_MINUS, DELTA_PLUS
from cbs2atom.quadrature import line_rule, pole_clusters
from oracles import _first_slot, _poles, _second_slot, quadrature_line_integral


def make(rabi, delta=0.0, phase=0.0):
    return atom.build(AtomDriveParams(rabi=rabi, delta=delta, phase=phase))


def rule_integral(fn, poles):
    """integral du/2pi fn(u) on the rule's nodes; fn takes the node array."""
    u, weights = line_rule(np.concatenate([np.ravel(p) for p in poles]))
    return np.tensordot(weights, fn(u), axes=(0, 0))


# ------------------------------------------------------- elementary integrals


def test_pair_integral_matches_textbook_value():
    # integral du/2pi (iu - lam)^-1 (-iu - mu)^-1 = -1/(lam + mu)
    rng = np.random.default_rng(11)
    for _ in range(8):
        lam = -abs(rng.normal(1, 0.5)) + 1j * rng.normal(0, 2)
        mu = -abs(rng.normal(1, 0.5)) + 1j * rng.normal(0, 2)
        val = rule_integral(lambda u: 1.0 / ((1j * u - lam) * (-1j * u - mu)),
                            [-1j * lam, 1j * mu])
        assert abs(val + 1.0 / (lam + mu)) < 1e-12


def test_pair_integral_matches_quadrature():
    lam, mu = -0.8 + 1.3j, -1.7 - 0.4j

    def fn(u):
        return 1.0 / ((1j * u - lam) * (-1j * u - mu))

    res = rule_integral(fn, [-1j * lam, 1j * mu])
    assert abs(res - quadrature_line_integral(fn)) < 1e-10


@pytest.mark.parametrize("shift", [0.0, 50.0, 500.0])
@pytest.mark.parametrize("centres", [(0.0, 0.0), (-1.5, 2.0)], ids=["stacked", "spread"])
def test_shifted_rational_integrand_integrates_exactly(centres, shift):
    # integral du/2pi 1/(((u - c1)^2 + a^2) ((u - c2)^2 + b^2))
    #     = (a + b) / (2ab ((c1 - c2)^2 + (a + b)^2)):
    # the rule follows the poles wherever the shift puts them, and poles
    # that share one real part (no spread) still give the map a scale
    a, b = 1.0, 2.0
    c1, c2 = centres[0] + shift, centres[1] + shift

    def fn(u):
        return 1.0 / (((u - c1) ** 2 + a ** 2) * ((u - c2) ** 2 + b ** 2))

    val = rule_integral(fn, [[c1 + 1j * a, c1 - 1j * a, c2 + 1j * b, c2 - 1j * b]])
    exact = (a + b) / (2 * a * b * ((c1 - c2) ** 2 + (a + b) ** 2))
    assert abs(val - exact) < 1e-13


def test_product_resolvent_integral_representation():
    # integral dw/2pi G1(iw) (x) G2(-iw) equals the inverse of the summed drift
    s1, s2 = make(1.3, delta=0.7), make(1.3, delta=0.7, phase=0.9)
    gx = rule_integral(
        lambda u: _first_slot(s1.green(1j * u)) @ _second_slot(s2.green(-1j * u)),
        [_poles(s1, +1), _poles(s2, -1)])
    m_plus = np.kron(s1.M, np.eye(3)) + np.kron(np.eye(3), s2.M)
    assert np.max(np.abs(gx - np.linalg.inv(-m_plus))) < 1e-12


def test_two_term_reduction_with_empty_insertions():
    # at z=0 the two-line combination collapses to kron(G1(0), G2(0))
    s1, s2 = make(1.3, delta=0.7), make(1.3, delta=0.7, phase=0.9)
    g1_zero = np.kron(s1.green(0.0), np.eye(3))
    g2_zero = np.kron(np.eye(3), s2.green(0.0))

    def lines(u):
        first, second = _first_slot(s1.green(1j * u)), _second_slot(s2.green(-1j * u))
        return first @ second @ g2_zero + first @ g1_zero @ second

    lhs = rule_integral(lines, [_poles(s1, +1), _poles(s2, -1)])
    rhs = np.kron(s1.green(0.0), s2.green(0.0))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ------------------------------------------------------------- pole clusters


def test_pole_clusters_are_the_poles_of_both_resolvents():
    # G(i(u - c)) has its poles in u at c - i*eigenvalue and G(-i(u - c)) at
    # c + i*eigenvalue: the clusters at each centre are the union of both,
    # at a detuned drive and two centres
    system = make(1.3, delta=0.8)
    centres = (-0.7, 2.5)
    expected = np.concatenate([[c - 1j * lam, c + 1j * lam]
                               for c in centres for lam in system.eigenvalues])
    got = pole_clusters(system, centres)
    assert got.shape == expected.shape
    np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(expected),
                               rtol=0, atol=1e-14)


# ----------------------------------------------- multiplicities and contours


def test_exact_pole_collisions_integrate_correctly():
    # the same Green matrix in several factors of a product gives repeated
    # poles; the rule needs no special handling to match quadrature
    s = make(2.0)
    g0_1, g0_2 = atom.g0_vectors(s)

    def c1(u):
        return (s.green(1j * u) @ g0_1)[..., 1]

    def c2(u):
        return (s.green(1j * u) @ s.steady)[..., 2]

    def c3(u):
        return (s.green(-1j * u) @ g0_2)[..., 0]

    def c4(u):
        return (s.green(1j * u) @ s.steady)[..., 0]

    poles = [_poles(s, +1), _poles(s, -1)]
    res2 = rule_integral(lambda u: c1(u) * c2(u) * c3(u), poles)
    quad2 = quadrature_line_integral(lambda u: c1(u) * c2(u) * c3(u))
    assert abs(res2 - quad2) < 1e-12 + 1e-10 * abs(quad2)

    res3 = rule_integral(lambda u: c1(u) * c2(u) * c4(u) * c3(u), poles)
    quad3 = quadrature_line_integral(lambda u: c1(u) * c2(u) * c4(u) * c3(u))
    assert abs(res3 - quad3) < 1e-12 + 1e-10 * abs(quad3)


def test_near_collision_integrates():
    # two distinct poles 3e-10 apart need no snapping:
    # integral du/2pi (iu - a)^-1 (iu - b)^-1 (-iu - c)^-1 = 1/((a + c)(b + c))
    a = -1.0 + 0.3j
    b = a + 3e-10
    c = -1.0 - 0.2j
    val = rule_integral(lambda u: 1.0 / ((1j * u - a) * (1j * u - b) * (-1j * u - c)),
                        [-1j * a, -1j * b, 1j * c])
    assert abs(val - 1.0 / ((a + c) * (b + c))) < 1e-12


def test_same_half_plane_product_integrates_to_zero():
    # all poles below the axis -> analytic above -> the integral vanishes
    s = make(2.0)
    g0_1, g0_2 = atom.g0_vectors(s)

    def product(u):
        return (s.green(-1j * u) @ g0_2)[..., 0] * (s.green(-1j * u) @ s.steady)[..., 1]

    assert abs(rule_integral(product, [_poles(s, -1)])) < 1e-12
    assert abs(quadrature_line_integral(product)) < 1e-12


def test_production_like_chain_vs_quadrature():
    # weight x response structure with a spectral offset, as used downstream
    s = make(2.0)
    g0_1, g0_2 = atom.g0_vectors(s)
    for nu in (0.0, 0.7, -3.2):
        g_nu = s.green(-1j * nu)

        def product(u, g_nu=g_nu, nu=nu):
            shifted = s.green(-1j * nu - 1j * u) @ (DELTA_MINUS @ g_nu @ g0_2)
            response = (shifted @ DELTA_PLUS.T @ g_nu.T)[..., 0]
            return response * (s.green(1j * u) @ g0_1)[..., 1]

        res = rule_integral(product, [_poles(s, -1, -1j * nu), _poles(s, +1)])
        quad_val = quadrature_line_integral(product)
        assert abs(res - quad_val) < 1e-8 * max(1.0, abs(quad_val))


# ------------------------------------------------------- algebraic structure


def test_linearity_of_integration():
    # each integrand converges at its own node count: integrating the
    # combination on the rule of the joint poles equals the combination of
    # the separate integrals
    rng = np.random.default_rng(3)
    s1, s2 = make(1.1, 0.4), make(3.0, -1.2)

    def f(u):
        return s1.green(1j * u) @ s1.green(-1j * u) @ s1.steady

    def g(u):
        return s2.green(1j * u) @ s2.green(-1j * u) @ s2.steady

    alpha = complex(rng.normal(), rng.normal())
    beta = complex(rng.normal(), rng.normal())
    p1, p2 = [_poles(s1, +1), _poles(s1, -1)], [_poles(s2, +1), _poles(s2, -1)]
    combo = rule_integral(lambda u: alpha * f(u) + beta * g(u), p1 + p2)
    separate = alpha * rule_integral(f, p1) + beta * rule_integral(g, p2)
    assert np.max(np.abs(combo - separate)) < 1e-12


def test_conjugation_commutes_with_integration():
    # the mirrored chains (arguments conjugated, couplers swapped, seeds
    # conj_swap-ed) integrate to the complex conjugate
    s = make(2.0, 0.5)
    g0_1, g0_2 = atom.g0_vectors(s)
    g0 = s.green(0.0)

    def product(u):
        c1 = (s.green(-0.7j - 1j * u) @ (DELTA_MINUS @ g0 @ g0_2))[..., 0]
        return c1 * (s.green(1j * u) @ g0_1)[..., 1]

    def mirrored(u):
        c1 = (s.green(0.7j + 1j * u) @ (DELTA_PLUS @ g0 @ atom.conj_swap(g0_2)))[..., 1]
        return c1 * (s.green(-1j * u) @ atom.conj_swap(g0_1))[..., 0]

    v1 = rule_integral(mirrored, [_poles(s, +1, 0.7j), _poles(s, -1)])
    v2 = np.conj(rule_integral(product, [_poles(s, -1, -0.7j), _poles(s, +1)]))
    assert abs(v1 - v2) < 1e-14


# ----------------------------------------------------------------- failures


def test_symmetric_poles_give_antisymmetric_nodes():
    # the exchanged-photon convolution pairs each node with its mirror image
    poles = np.concatenate([_poles(make(1.3, 0.8), +1, 3.7j), _poles(make(1.3, 0.8), -1, 3.7j)])
    u, weights = line_rule(np.concatenate([poles, -poles]))
    assert np.array_equal(u, -u[::-1])
    assert np.array_equal(weights, weights[::-1])


def test_pole_on_real_axis_rejected():
    # a pole 1e-12 from the axis: the integral does not exist, and the rule
    # would need ~1e13 nodes
    with pytest.raises(ValueError, match=r"real spread 1\.5 and smallest \|Im\| 1e-12 "):
        line_rule([-0.5 + 1e-12j, 1.0 + 0.2j])
    # the same with every pole on one vertical line: no spread, zero floor
    with pytest.raises(ValueError, match=r"real spread 0 and smallest \|Im\| 0 "):
        line_rule([0.0, 1j, -1j])
