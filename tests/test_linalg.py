"""Generator eigenvalues, the guarded resolvent kernels and tensor products."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbs2atom import atom, twoatom
from cbs2atom.linalg import _cofactor_inverse, inverse3

#: The one message every resolvent rejects an argument with.
REJECTED = "resolvent argument z must be finite with Re z >= 0"


def bloch_matrix(rabi, delta, phase=0.0):
    return atom.build(atom.AtomDriveParams(rabi=rabi, delta=delta, phase=phase)).M


def characteristic_cubic(z, rabi, delta):
    """Independent oracle: the cubic whose roots are the generator eigenvalues."""
    return (z + 2) * ((z + 1) ** 2 + delta**2) + (z + 1) * rabi**2


def test_eigenvalues_undriven_atom():
    lam = np.linalg.eigvals(bloch_matrix(0.0, 0.5))
    expected = np.sort_complex([-1 + 0.5j, -1 - 0.5j, -2])
    assert np.allclose(np.sort_complex(lam), expected, atol=1e-12)


def test_eigenvalues_solve_characteristic_cubic():
    lam = atom.build(atom.AtomDriveParams(rabi=1.3, delta=0.7)).eigenvalues
    for root in lam:
        assert abs(characteristic_cubic(root, 1.3, 0.7)) < 1e-10


def test_resolvent_at_zero_is_inverse_of_undriven_generator():
    # Decomposition-free path: valid even at the degenerate point rabi=delta=0.
    M = bloch_matrix(0.0, 0.0)
    G = inverse3(M, 0.0)
    assert np.allclose(G, np.diag([1.0, 1.0, 0.5]), atol=1e-14)


def test_resolvent_matches_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = bloch_matrix(rng.uniform(0.2, 8.0), rng.uniform(-4.0, 4.0))
        z = 1j * rng.uniform(-50.0, 50.0)
        Gi = np.linalg.inv(z * np.eye(3) - M)
        Gd = inverse3(M, z)
        assert np.max(np.abs(Gi - Gd)) <= 1e-11 * max(1.0, np.max(np.abs(Gd)))


def test_resolvent_inverts_generator():
    M = bloch_matrix(2.0, 1.0)
    G0 = inverse3(M, 0.0)
    assert np.max(np.abs(G0 @ (-M) - np.eye(3))) < 1e-11


def test_resolvent_pole_proximity_rejected():
    M = bloch_matrix(2.0, 1.0)
    poles = np.linalg.eigvals(M)
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(M, poles[0] + 1e-10)


def test_resolvents_take_a_stack_of_matrices_first():
    # one matrix per drive along the leading axis, each meeting every z:
    # shape S_d + z.shape + (3, 3), the same bits as one matrix at a time
    stack = np.stack([bloch_matrix(2.0, 0.5), bloch_matrix(0.5, 0.0)])
    z = 1j * np.linspace(-3.0, 3.0, 5)
    closed = inverse3(stack, z)
    assert closed.shape == (2, 5, 3, 3)
    assert all(np.array_equal(got, inverse3(one, z)) for one, got in zip(stack, closed))
    # the rule does not depend on the matrices, so a pole of one of them
    # is rejected as every other argument left of the imaginary axis
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(stack, np.array([0.0, np.linalg.eigvals(stack)[1, 0]]))


@settings(max_examples=200, deadline=None)
@given(
    log_rabi=st.floats(-4.0, np.log10(50.0)),
    delta=st.floats(-20.0, 20.0),
    scale=st.floats(0.25, 4.0).filter(lambda s: s != 1.0),
    log_size=st.floats(np.log10(2e-9), 6.0),
    angle=st.one_of(st.sampled_from([-0.5 * np.pi, 0.5 * np.pi]),
                    st.floats(-0.5 * np.pi, 0.5 * np.pi)),
)
def test_closed_form_inverse_matches_dense_solve(log_rabi, delta, scale, log_size, angle):
    # a generator scaled as if the rates were measured in another unit:
    # every pole lies at least ``scale`` left of the imaginary axis, so the
    # closed right half-plane is well conditioned; |z| runs from 2e-9 to
    # 1e6 times the scale, on the imaginary axis and off it
    system = atom.build(atom.AtomDriveParams(rabi=10.0**log_rabi, delta=delta))
    M = scale * system.M
    z = scale * 10.0**log_size * np.exp(1j * angle)
    got = inverse3(M, z)
    want = np.linalg.solve(z * np.eye(3) - M, np.eye(3))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(want, 2)


def test_closed_form_inverse_at_the_jordan_point():
    # rabi = 1/2 on resonance: a defective generator, whose inverse the
    # cofactors still form without an eigenbasis, also at -1.5 + 0.25j, a
    # quarter from the defective pole, where no resolvent takes arguments
    M = bloch_matrix(0.5, 0.0)
    zs = np.array([0.0, -0.7j, 2.3j, 0.4 + 1.0j, -1.5 + 0.25j, 1e6j])
    stacked = _cofactor_inverse(zs[:, None, None] * np.eye(3) - M)
    assert stacked.shape == (6, 3, 3)
    for z, g in zip(zs, stacked):
        assert np.max(np.abs((z * np.eye(3) - M) @ g - np.eye(3))) <= 1e-14
    right = zs.real >= 0.0
    assert np.array_equal(inverse3(M, zs[right]), stacked[right])
    # the kernel works the stack flat: a large stack, and one with two
    # leading axes, come back in their own shape, each matrix inverted as
    # if alone
    spectral = 1j * np.linspace(-15.0, 15.0, 742)
    pairs = np.stack([zs[:4], zs[1:5]], axis=-1)
    for A in (spectral[:, None, None] * np.eye(3) - M,
              pairs[..., None, None] * np.eye(3) - np.stack([M, bloch_matrix(2.0, 0.5)])):
        got = _cofactor_inverse(A)
        assert got.shape == A.shape and got.flags.c_contiguous
        assert np.max(np.abs(A @ got - np.eye(3))) <= 1e-14
        assert all(np.array_equal(g, _cofactor_inverse(a))
                   for a, g in zip(A.reshape(-1, 3, 3), got.reshape(-1, 3, 3)))


def test_closed_form_inverse_keeps_an_unregistered_drive_undriven():
    # a Rabi amplitude of 1e-300 enters only through products that
    # underflow to 0, so the diagonal is the undriven one bit for bit (an
    # empty background channel at such a drive relies on it); a determinant
    # taken as prod(z - eigenvalues) misses this by an ulp
    zs = np.array([0.0, 0.7j, -2.1j, 0.3 + 0.1j])
    for delta in (0.0, 0.3, 1.5):
        weak, undriven = bloch_matrix(1e-300, delta), bloch_matrix(0.0, delta)
        got = inverse3(weak, zs)
        want = inverse3(undriven, zs)
        assert np.array_equal(np.diagonal(got, axis1=-2, axis2=-1),
                              np.diagonal(want, axis1=-2, axis2=-1))
        assert np.max(np.abs(got - want)) < 1e-299


def test_closed_form_inverse_guards_its_arguments():
    M = bloch_matrix(2.0, 0.5)
    poles = np.linalg.eigvals(M)
    near = np.array([0.3j, -2.0j, poles[1] + 0.5e-9])
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(M, poles[0])
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(M, near)
    # every argument left of the imaginary axis goes, however far from
    # a pole, and the axis itself stays, its negative zero included
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(M, poles[1] + 3e-9)
    with pytest.raises(ValueError, match=re.escape(REJECTED)):
        inverse3(M, complex(-1e-300, 2.0))
    assert inverse3(M, complex(-0.0, 2.0)).shape == (3, 3)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            inverse3(M, bad)
        with pytest.raises(ValueError, match="finite"):
            inverse3(M, np.array([[0.5j, -1.0j], [bad, 2.0j]]))
    assert inverse3(M, near[:2]).shape == (2, 3, 3)


def _generator():
    cfg = twoatom.ScatteringConfig.from_separation(1000.0, direction=(0.6, 0.0, 0.8))
    return twoatom.assemble(cfg, atom.AtomDriveParams(rabi=2.0, delta=0.5))


# every resolvent kernel, each called as its callers call it
_KERNELS = {
    "inverse3": lambda z: inverse3(bloch_matrix(2.0, 0.5), z),
    "green": lambda z: atom.build(atom.AtomDriveParams(rabi=2.0, delta=0.5)).green(z),
    "single_green": lambda z: _generator().single_green(z),
    "pair_solver": lambda z: _generator().pair_solver(z),
}


@pytest.mark.parametrize("bad", [complex(-1e-300, 1.0), -2.5, np.nan, np.inf, -np.inf],
                         ids=["left", "negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_every_resolvent_takes_the_closed_right_half_plane(kernel, bad):
    # one rule and one message for all four, for a scalar and inside an array
    for z in (bad, np.array([0.0, -3.0j, bad])):
        with pytest.raises(ValueError) as caught:
            _KERNELS[kernel](z)
        assert str(caught.value) == REJECTED
    _KERNELS[kernel](np.array([0.0, -0.0 - 3.0j, 0.5 + 2.0j, 1e6j]))


@settings(max_examples=200, deadline=None)
@given(log_rabi=st.floats(-6.0, 4.0), delta=st.floats(-1e3, 1e3),
       phase=st.floats(-np.pi, np.pi), offset=st.floats(-np.pi, np.pi))
@example(log_rabi=np.log10(0.5), delta=0.0, phase=0.0, offset=0.0)
@example(log_rabi=-np.inf, delta=0.5, phase=0.0, offset=0.0)
@example(log_rabi=4.0, delta=1e3, phase=0.0, offset=0.0)
def test_every_pole_lies_at_least_one_left_of_the_imaginary_axis(log_rabi, delta, phase,
                                                                 offset):
    # the bound the half-plane rule rests on: Re lambda <= -1 for the
    # Bloch generator at any drive (the Jordan point and the undriven atom
    # among the examples), Re <= -2 for the pair block of two atoms whose
    # laser phases differ by ``offset``; up to rounding of the largest entry
    rabi = 10.0**log_rabi
    rounding = 1e-14 * max(1.0, rabi, abs(delta))
    drive = atom.AtomDriveParams(rabi=rabi, delta=delta, phase=phase)
    assert np.max(atom.build(drive).eigenvalues.real) <= -1.0 + rounding
    cfg = twoatom.ScatteringConfig(np.zeros(3), np.array([100.0, 0.0, offset]))
    pair = twoatom.assemble(cfg, drive).drift[6:, 6:]
    assert np.max(np.linalg.eigvals(pair).real) <= -2.0 + 2.0 * rounding


def test_kron_identity_and_flat_index():
    # the two-atom basis relies on numpy's row-major Kronecker layout:
    # component a_i b_j of a pair vector sits at flat index 3*i + j
    assert np.array_equal(np.kron(np.eye(3), np.eye(3)), np.eye(9))
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0])
    prod = np.kron(a, b)
    for i in range(3):
        for j in range(3):
            assert prod[3 * i + j] == a[i] * b[j]


def test_kron_sum_eigenvalues_add():
    rng = np.random.default_rng(3)
    M1 = bloch_matrix(rng.uniform(0.5, 5.0), rng.uniform(-2, 2))
    M2 = bloch_matrix(rng.uniform(0.5, 5.0), rng.uniform(-2, 2))
    lam1 = np.linalg.eigvals(M1)
    lam2 = np.linalg.eigvals(M2)
    big = np.kron(M1, np.eye(3)) + np.kron(np.eye(3), M2)
    got = list(np.linalg.eigvals(big))
    for want in (l1 + l2 for l1 in lam1 for l2 in lam2):
        nearest = min(range(len(got)), key=lambda i: abs(got[i] - want))
        assert abs(got.pop(nearest) - want) < 1e-9
    assert not got
