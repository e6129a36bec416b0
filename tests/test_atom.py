"""Single-atom Bloch system, steady state and spectral correlation functions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from cbs2atom import atom
from cbs2atom.atom import AtomDriveParams, DELTA_MINUS, DELTA_PLUS, conj_swap
from cbs2atom.linalg import inverse3
from cbs2atom.pumpprobe import channel_densities


def make(rabi, delta=0.0, phase=0.0):
    return atom.build(AtomDriveParams(rabi=rabi, delta=delta, phase=phase))


# ---------------------------------------------------------------- generator


def test_generator_entries_undriven():
    sys = make(0.0, delta=0.7)
    assert np.allclose(sys.M, np.diag([-1 + 0.7j, -1 - 0.7j, -2]), atol=1e-15)
    assert np.allclose(
        np.sort_complex(sys.eigenvalues),
        np.sort_complex([-1 + 0.7j, -1 - 0.7j, -2]),
        atol=1e-12,
    )


def test_generator_phase_pi_flips_couplings():
    M0 = make(1.7).M
    Mpi = make(1.7, phase=np.pi).M
    flip = np.ones((3, 3))
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1)]:
        flip[i, j] = -1
    assert np.allclose(Mpi, M0 * flip, atol=1e-14)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        AtomDriveParams(rabi=-1.0)
    with pytest.raises(ValueError):
        AtomDriveParams(rabi=np.inf)
    # the phase is keyword-only, so no positional third argument passes
    # for it
    with pytest.raises(TypeError):
        AtomDriveParams(1.0, 0.0, 2.0)


@pytest.mark.parametrize("fields, message", [
    ({"rabi": True}, "rabi must be a real number, got True"),
    ({"rabi": "2"}, "rabi must be a real number, got '2'"),
    ({"delta": None}, "delta must be a real number, got None"),
    ({"delta": 1j}, "delta must be a real number, got 1j"),
    ({"phase": np.True_}, "phase must be a real number, got "),
])
def test_drive_rejects_non_real_numbers(fields, message):
    # a bool is an Integral and would run as 0 or 1; a string or a complex
    # number would fail, or be cast, deep in numpy
    with pytest.raises(ValueError, match=re.escape(message)):
        AtomDriveParams(**{"rabi": 2.0, **fields})


@pytest.mark.parametrize("call, name", [
    (lambda: atom.build("x"), "params"),
    (lambda: atom.build(2.0), "params"),
    (lambda: atom.build([2.0]), "params"),
    (lambda: atom.build([]), "params"),
    (lambda: channel_densities(2.0, np.linspace(-5.0, 5.0, 11)), "pump"),
], ids=["str", "float", "list-of-float", "empty", "channel-densities"])
def test_build_rejects_a_bad_drive(call, name):
    # one rule for every caller: a string would recurse without end, a
    # number fail in iteration and an empty list in numpy's stack; an entry
    # point checks its drive under its own argument's name
    with pytest.raises(ValueError, match=f"{name} must be an AtomDriveParams"):
        call()


# ------------------------------------------------------------- steady state


def test_steady_state_ground_state_when_undriven():
    assert np.allclose(make(0.0, delta=0.3).steady, [0, 0, -1], atol=1e-15)


def test_steady_state_resonant_strong_drive():
    s = make(2.0).steady
    assert np.allclose(s, [1j / 3, -1j / 3, -1.0 / 3], atol=1e-12)
    assert abs((1 + s[2].real) / 2 - 1.0 / 3) < 1e-12


def test_steady_state_matches_long_time_integration():
    sys = make(2.0, delta=1.0)
    sol = solve_ivp(
        lambda t, v: sys.M @ v + sys.L,
        (0.0, 60.0),
        np.array([0, 0, -1], dtype=complex),
        rtol=1e-11,
        atol=1e-12,
    )
    assert np.allclose(sol.y[:, -1], sys.steady, atol=1e-8)
    assert np.max(np.abs(sys.M @ sys.steady + sys.L)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(rabi=st.floats(0.0, 20.0), delta=st.floats(-8.0, 8.0))
def test_steady_state_saturation_and_conjugacy(rabi, delta):
    s = make(rabi, delta=delta).steady
    population = (1 + s[2].real) / 2
    assert population <= 0.5 + 1e-12
    assert population >= -1e-12
    assert abs(s[0] - np.conj(s[1])) < 1e-12


def test_steady_state_phase_rotates_coherences():
    s0 = make(2.0, delta=0.5).steady
    sp = make(2.0, delta=0.5, phase=0.9).steady
    assert np.allclose(
        sp, [s0[0] * np.exp(0.9j), s0[1] * np.exp(-0.9j), s0[2]], atol=1e-12
    )


# ----------------------------------------------------- correlation initials


def operator_product_initials(s):
    """Oracle from two-level operator identities in the steady state:
    branch-2 seeds <sigma^+ X> - <sigma^+><X>, branch-1 seeds
    <X sigma^-> - <X><sigma^->, for X in (sigma^-, sigma^+, sigma^z)."""
    splus, sz = s[1], s[2]
    branch2 = np.array([(1 + sz) / 2, 0.0, -splus]) - splus * s
    sminus = s[0]
    branch1 = np.array([0.0, (1 + sz) / 2, -sminus]) - sminus * s
    return branch1, branch2


def test_g0_vectors_vanish_undriven():
    g0_1, g0_2 = atom.g0_vectors(make(0.0, delta=0.5))
    assert np.allclose(g0_1, 0.0, atol=1e-15)
    assert np.allclose(g0_2, 0.0, atol=1e-15)


@pytest.mark.parametrize("rabi,delta", [(2.0, 0.0), (0.7, 1.3), (5.0, -2.0)])
def test_g0_vectors_match_operator_products(rabi, delta):
    sys = make(rabi, delta=delta)
    g0_1, g0_2 = atom.g0_vectors(sys)
    b1, b2 = operator_product_initials(sys.steady)
    assert np.allclose(g0_2, b2, atol=1e-13)
    assert np.allclose(g0_1, b1, atol=1e-13)
    assert np.linalg.norm(g0_2) > 0


def test_g0_vectors_are_conjugate_partners():
    g0_1, g0_2 = atom.g0_vectors(make(3.0, delta=-1.0))
    assert np.allclose(conj_swap(g0_2), g0_1, atol=1e-15)


# ------------------------------------------------------------ Mollow triplet


def test_mollow_vanishes_undriven():
    sys = make(0.0, delta=0.5)
    assert all(atom.mollow_p0(sys, nu) == 0.0 for nu in (-3.0, 0.0, 2.5))


def test_mollow_symmetric_on_resonance():
    sys = make(3.0)
    for nu in np.linspace(0.0, 8.0, 17):
        assert abs(atom.mollow_p0(sys, nu) - atom.mollow_p0(sys, -nu)) < 1e-12


def test_mollow_nonnegative():
    sys = make(2.0, delta=1.5)
    grid = np.linspace(-20, 20, 401)
    assert min(atom.mollow_p0(sys, nu) for nu in grid) > -1e-12


def test_mollow_sideband_positions_strong_drive():
    # The sidebands sit near the oscillatory eigenfrequencies +-sqrt(rabi^2+..),
    # pulled inward a few percent by the overlapping central line, so the
    # locations are checked on a deliberately coarse grid (step 0.25).
    sys = make(10.0)
    grid = np.linspace(-15, 15, 121)
    step = grid[1] - grid[0]
    vals = np.array([atom.mollow_p0(sys, nu) for nu in grid])
    peaks = grid[
        [i for i in range(1, len(grid) - 1) if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
    ]
    mode_freqs = sorted(lam.imag for lam in sys.eigenvalues)
    assert len(peaks) == 3
    for peak, mode, nominal in zip(sorted(peaks), mode_freqs, (-10.0, 0.0, 10.0)):
        assert abs(peak - mode) <= step
        assert abs(peak - nominal) <= step
    assert abs(mode_freqs[0] + 10.0) < 0.15 and abs(mode_freqs[2] - 10.0) < 0.15


def total_inelastic_intensity(sys):
    s = sys.steady
    return (1 + s[2].real) / 2 - abs(s[0]) ** 2


@pytest.mark.parametrize("rabi,delta", [(2.0, 0.0), (1.0, 2.0), (6.0, -1.0)])
def test_mollow_normalization_integral(rabi, delta):
    sys = make(rabi, delta=delta)
    # Stationarity makes Re of the dipole correlation an even C^1 function,
    # so the 1/nu^2 Lorentzian tails cancel exactly; the residual odd 1/nu^3
    # part integrates to zero over the symmetric domain, leaving an even
    # ~1/nu^4 two-sided tail estimated from the endpoint values.
    cut = 150.0
    val, err = quad(
        lambda nu: atom.mollow_p0(sys, nu),
        -cut,
        cut,
        limit=400,
        epsabs=1e-10,
        points=[-rabi, 0.0, rabi],
    )
    tail = cut * (atom.mollow_p0(sys, cut) + atom.mollow_p0(sys, -cut)) / 3.0
    expected = total_inelastic_intensity(sys)
    assert abs(val + tail - expected) < 1e-6
    if rabi == 2.0 and delta == 0.0:
        assert abs(expected - 2.0 / 9.0) < 1e-14


def test_mollow_independent_of_drive_phase():
    a = make(2.0, delta=1.0)
    b = make(2.0, delta=1.0, phase=2.1)
    for nu in (-4.0, -0.3, 1.7):
        assert abs(atom.mollow_p0(a, nu) - atom.mollow_p0(b, nu)) < 1e-12


# ------------------------------------------------------------ probe response


def test_first_order_response_closed_chain_undriven():
    sys = make(0.0, delta=0.5)
    for omega in (0.0, 1.1, -2.7):
        got = atom.delta_sigma_first(sys, +1, omega)
        want = np.array([0.0, -0.5j / (1j * omega + 1 + 0.5j), 0.0])
        assert np.allclose(got, want, atol=1e-14)


def test_first_order_response_dual_solve_paths():
    sys = make(2.0)
    for sign in (+1, -1):
        chain = atom.delta_sigma_first(sys, sign, 0.8)
        dense = np.linalg.inv(sign * 0.8j * np.eye(3) - sys.M) @ (
            (DELTA_PLUS if sign == 1 else DELTA_MINUS) @ sys.steady
        )
        assert np.allclose(chain, dense, atol=1e-11)
    with pytest.raises(ValueError):
        atom.delta_sigma_first(sys, 0, 1.0)


def test_green_at_the_jordan_point_stacks_the_inverses():
    # rabi = gamma/2 on resonance: the generator is defective (a double
    # eigenvalue -3/2 with one eigenvector), but the resolvent is regular
    # off the spectrum
    sys = make(0.5)
    assert np.max(np.abs(sys.eigenvalues + 1.5)) > 0.4
    assert np.sort(np.abs(sys.eigenvalues + 1.5))[1] < 1e-7
    zs = np.array([0.0, -0.7j, 2.3j, 0.4 + 1.0j])
    stacked = sys.green(zs)
    assert stacked.shape == (4, 3, 3)
    for z, g in zip(zs, stacked):
        assert np.allclose((z * np.eye(3) - sys.M) @ g, np.eye(3), rtol=0, atol=1e-14)
        assert np.allclose(g, sys.green(z), rtol=0, atol=1e-15)


def test_second_order_response_undriven_routes_through_inversion():
    sys = make(0.0, delta=0.5)
    for omega in (0.4, 2.2):
        got = atom.delta_sigma_second(sys, omega)
        f = 0.25 * (
            1.0 / (-1j * omega + 1 - 0.5j) + 1.0 / (1j * omega + 1 + 0.5j)
        )
        assert np.allclose(got, [0.0, 0.0, f], atol=1e-14)


def test_second_order_response_decays_as_inverse_frequency():
    sys = make(3.0, delta=1.0)
    n3 = np.linalg.norm(atom.delta_sigma_second(sys, 1e3))
    n4 = np.linalg.norm(atom.delta_sigma_second(sys, 1e4))
    assert n4 < n3 / 5


def test_probe_vectors_vanish_undriven():
    sys = make(0.0, delta=0.5)
    for vec in atom.probe_vectors(sys, *atom._first_responses(sys, 1.3)):
        assert np.allclose(vec, 0.0, atol=1e-15)
    # the undriven emission seeds vanish too, so p2 reads only the
    # second-order response vector, which then vanishes as well
    assert np.allclose(atom.p2_sides(sys, 1.3, 0.4), 0.0, rtol=0, atol=1e-15)


def test_probe_vectors_branch1_matches_explicit_chain():
    # the conjugate branch is conj_swap of the other branch-2 member
    sys = make(2.0, delta=0.8)
    nu = 1.1
    minus_2, plus_2 = atom.probe_vectors(sys, *atom._first_responses(sys, nu))
    s = sys.steady
    dp = sys.green(1j * nu) @ (DELTA_PLUS @ s)
    explicit_plus_1 = -1j * (DELTA_PLUS @ dp) - dp[0] * s - s[0] * dp
    assert np.allclose(conj_swap(minus_2), explicit_plus_1, atol=1e-14)
    dm = sys.green(-1j * nu) @ (DELTA_MINUS @ s)
    explicit_minus_1 = -1j * (DELTA_PLUS @ dm) - dm[0] * s - s[0] * dm
    assert np.allclose(conj_swap(plus_2), explicit_minus_1, atol=1e-14)


@pytest.fixture
def inverse_calls(monkeypatch):
    """The arguments of every resolvent inversion made in the test."""
    calls = []

    def counting(M, z, *args):
        calls.append(z)
        return inverse3(M, z, *args)

    monkeypatch.setattr(atom, "inverse3", counting)
    return calls


FREQUENCY_CASES = pytest.mark.parametrize(
    "omega_p, nu", [(0.7, -1.3), (np.linspace(-5, 5, 31), 0.4)], ids=["scalar", "array"])


@FREQUENCY_CASES
def test_p2_inverts_each_resolvent_once(omega_p, nu, inverse_calls):
    # G(+-i w) for the first-order responses and G(0) for the second-order
    # one, then G(-i nu), G(i(w - nu)) and G(-i(nu + w)): the emission
    # resolvent serves both of its uses
    atom.p2(make(1.3, delta=0.8), omega_p, nu)
    assert len(inverse_calls) == 6


@FREQUENCY_CASES
@pytest.mark.parametrize("amplitude", [atom.p_plus, atom.p_minus], ids=["plus", "minus"])
def test_amplitudes_invert_each_resolvent_once(amplitude, omega_p, nu, inverse_calls):
    # G(+-i w) for the first-order responses, then G(+-i nu) and
    # G(+-i(nu - w)); no G(0): the amplitudes read no second-order response
    amplitude(make(1.3, delta=0.8), omega_p, nu)
    assert len(inverse_calls) == 6


def test_closed_forms_broadcast_over_frequency_arrays():
    # arrays of probe and emission frequencies broadcast against each other
    # and equal the closed forms taken point by point; scalars stay scalars
    sys = make(1.3, delta=0.8)
    omega_p = np.array([-2.5, 0.0, 0.7])[:, None]
    nu = np.array([-1.1, 0.4, 3.0, 6.2])
    for fn in (atom.p_plus, atom.p_minus, atom.p2):
        grid = fn(sys, omega_p, nu)
        assert grid.shape == (3, 4)
        for i, w in enumerate(omega_p[:, 0]):
            for j, n in enumerate(nu):
                point = fn(sys, w, n)
                assert np.ndim(point) == 0
                assert abs(grid[i, j] - point) < 1e-15 * max(1.0, abs(point))
    assert np.ndim(atom.mollow_p0(sys, 0.3)) == 0
    assert np.array_equal(atom.mollow_p0(sys, nu), [atom.mollow_p0(sys, n) for n in nu])
    vectors = atom.probe_vectors(sys, *atom._first_responses(sys, nu))
    for j, n in enumerate(nu):
        for vec, single in zip(vectors, atom.probe_vectors(sys, *atom._first_responses(sys, n))):
            assert np.allclose(vec[j], single, rtol=0, atol=1e-15)
    for sign in (+1, -1):
        stacked = atom.delta_sigma_first(sys, sign, nu)
        assert stacked.shape == (4, 3)
        assert np.array_equal(stacked[2], atom.delta_sigma_first(sys, sign, nu[2]))
    assert np.allclose(atom.delta_sigma_second(sys, nu)[1],
                       atom.delta_sigma_second(sys, nu[1]), rtol=0, atol=1e-15)


def test_conjugate_swap_is_bitwise_involution():
    rng = np.random.default_rng(11)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.array_equal(conj_swap(conj_swap(v)), v)


# ------------------------------------- first/second order spectral functions


@settings(max_examples=40, deadline=None)
@given(
    omega_p=st.floats(-8.0, 8.0),
    nu=st.floats(-8.0, 8.0),
    rabi=st.floats(0.3, 6.0),
    delta=st.floats(-3.0, 3.0),
)
def test_amplitude_correlations_are_mutually_conjugate(omega_p, nu, rabi, delta):
    sys = make(rabi, delta=delta)
    pp = atom.p_plus(sys, omega_p, nu)
    pm = atom.p_minus(sys, omega_p, nu)
    scale = max(1.0, abs(pp))
    assert abs(pm - np.conj(pp)) < 1e-12 * scale


def test_amplitude_correlations_vanish_undriven():
    sys = make(0.0, delta=0.5)
    assert atom.p_plus(sys, 0.7, 1.9) == 0.0
    assert atom.p_minus(sys, 0.7, 1.9) == 0.0
    assert abs(atom.p2(sys, 0.7, 1.9)) < 1e-15


def test_probe_cross_section_decays_at_large_emission_frequency():
    sys = make(2.0, delta=1.0)
    assert abs(atom.p2(sys, 0.5, 300.0)) < 1e-3
    assert abs(atom.p2(sys, 0.5, 1.5)) > 1e-3


def test_spectral_functions_drive_phase_behavior():
    """The emission spectrum and the probe cross-section are independent of
    the propagation phase; the amplitude correlations pick up exactly one
    unit of it."""
    a = make(2.0, delta=0.6)
    b = make(2.0, delta=0.6, phase=1.3)
    assert abs(atom.p2(a, 0.9, 1.4) - atom.p2(b, 0.9, 1.4)) < 1e-12
    pa = atom.p_plus(a, 0.9, 1.4)
    pb = atom.p_plus(b, 0.9, 1.4)
    assert abs(pb - pa * np.exp(1.3j)) < 1e-12
    ma = atom.p_minus(a, 0.9, 1.4)
    mb = atom.p_minus(b, 0.9, 1.4)
    assert abs(mb - ma * np.exp(-1.3j)) < 1e-12
