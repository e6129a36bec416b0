"""Two-atom generator: coupling blocks, expansions, resolvents, spectra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson, solve_ivp

from cbs2atom import disorder, spectra
from cbs2atom import twoatom as ta
from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    N1,
    N2,
    AtomDriveParams,
    build,
    g0_vectors,
    mollow_p0,
)
from oracles import (
    _reduce,
    double_scattering_intensity,
    exact_steady_state,
    intensity,
    pair_first_order_explicit,
    pair_resolvent_integral,
    pair_solve_exact,
    regression_initial_exact,
    resolvent_apply,
    single_first_order_explicit,
    single_second_order_explicit,
    tagged_total,
)

DRIVE = AtomDriveParams(rabi=2.0, delta=0.5)


def make_gen(x=1000.0, rabi=2.0, delta=0.5, direction=(0.6, 0.8, 0.0), coupling=None,
             phase=0.0):
    cfg = ta.ScatteringConfig.from_separation(x, direction=direction)
    gen = ta.assemble(cfg, AtomDriveParams(rabi=rabi, delta=delta, phase=phase))
    return gen if coupling is None else replace(gen, coupling=complex(coupling))


def full_matrix(gen):
    return gen.drift + sum(gen.channels.values())


# -------------------------------------------------------------- configuration


def test_config_coupling_amplitude():
    cfg = ta.ScatteringConfig.from_separation(1000.0)
    assert abs(cfg.separation - 1000.0) < 1e-12
    assert abs(cfg.coupling - 1.5j * np.exp(-1000.0j) / 1000.0) < 1e-18
    assert abs(abs(cfg.coupling) - 1.5e-3) < 1e-18


def test_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ta.ScatteringConfig(r1=np.zeros(3), r2=np.zeros(3))
    with pytest.raises(ValueError):
        ta.ScatteringConfig(r1=np.zeros(4), r2=np.zeros(4))


def test_config_rejects_non_finite_geometry():
    # a nan position slipped past the distinct-positions check
    with pytest.raises(ValueError, match="r2 must be finite"):
        ta.ScatteringConfig.from_separation(np.nan)
    with pytest.raises(ValueError, match="r1 must be finite"):
        ta.ScatteringConfig(r1=np.array([0.0, np.inf, 0.0]), r2=np.array([100.0, 0, 0]))


def test_config_warns_when_atoms_close():
    with pytest.warns(UserWarning):
        ta.ScatteringConfig(r1=np.zeros(3), r2=np.array([5.0, 0, 0]))


def test_config_phases_follow_positions():
    cfg = ta.ScatteringConfig(r1=np.array([1.0, 2.0, 3.0]), r2=np.array([1.0, 2.0, -40.0]))
    assert abs(cfg.phase1 - 3.0) < 1e-15
    assert abs(cfg.phase2 + 40.0) < 1e-15
    assert abs(cfg.phase_difference - 43.0) < 1e-15


def test_from_separation_normalizes_direction():
    cfg = ta.ScatteringConfig.from_separation(250.0, direction=(0, 3.0, 0))
    assert np.array_equal(cfg.r2, [0.0, 250.0, 0.0])
    with pytest.raises(ValueError):
        ta.ScatteringConfig.from_separation(250.0, direction=(0, 0, 0))


_NUS = np.array([-1.0, 0.0, 1.7])

#: a builder per result class that holds numpy arrays
_ARRAY_HOLDERS = {
    "ScatteringConfig": lambda: ta.ScatteringConfig.from_separation(250.0),
    "BlochSystem": lambda: build(DRIVE),
    "FixedConfigSpectra": lambda: ta.fixed_config_spectrum(make_gen(), _NUS),
    "SpectralFunctionGrid": lambda: spectra.cbs_spectra(DRIVE, nus=_NUS).ladder,
    "CbsResult": lambda: spectra.cbs_spectra(DRIVE, nus=_NUS),
    "MonteCarloResult": lambda: _reduce(np.ones((1000, 2)), 1000),
    "DisorderAveragedSpectra": lambda: disorder.monte_carlo_spectra(
        DRIVE, disorder.ConfigSampler(samples=1000), _NUS),
}


@pytest.mark.parametrize("name", list(_ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    # dataclass equality over array fields would ask an array for its
    # truth value, and hashing would hash an array
    first, second = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(first).__name__ == name
    assert (first == second) is False and (first == first) is True
    assert isinstance(hash(first), int)


# ---------------------------------------------------------- coupling blocks


def random_probe_pair(rng):
    a1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    return a1, a2


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_coupling_block_identities_on_product_probes(seed):
    """The twelve action rules, written out literally, pin every block."""
    rng = np.random.default_rng(seed)
    gen = make_gen(x=137.0 + rng.uniform(0, 50), rabi=rng.uniform(0.2, 5.0),
                   delta=rng.uniform(-2, 2))
    t = gen.coupling
    tc = np.conj(t)
    a1, a2 = random_probe_pair(rng)
    pair = np.kron(a1, a2)
    single = np.concatenate([a2, a1])
    zero = np.zeros(3, dtype=complex)

    corner_expect = {
        "12": np.concatenate([2j * t * (DELTA_PLUS @ a2) * a1[1], zero]),
        "21": np.concatenate([zero, 2j * t * (DELTA_PLUS @ a1) * a2[1]]),
        "12*": np.concatenate([zero, -2j * tc * (DELTA_MINUS @ a1) * a2[0]]),
        "21*": np.concatenate([-2j * tc * (DELTA_MINUS @ a2) * a1[0], zero]),
    }
    cross_expect = {
        "12": -2.0 * t * np.kron(DELTA_MINUS @ a1, DELTA_PLUS @ a2),
        "21": -2.0 * t * np.kron(DELTA_PLUS @ a1, DELTA_MINUS @ a2),
        "12*": -2.0 * tc * np.kron(DELTA_MINUS @ a1, DELTA_PLUS @ a2),
        "21*": -2.0 * tc * np.kron(DELTA_PLUS @ a1, DELTA_MINUS @ a2),
    }
    hook_expect = {
        "12": np.kron(N1, 2j * t * (DELTA_PLUS @ a2)),
        "21": np.kron(2j * t * (DELTA_PLUS @ a1), N1),
        "12*": np.kron(-2j * tc * (DELTA_MINUS @ a1), N2),
        "21*": np.kron(N2, -2j * tc * (DELTA_MINUS @ a2)),
    }
    for tag in ta.COUPLING_TAGS:
        channel = gen.channels[tag]
        assert np.allclose(channel[:6, 6:] @ pair, corner_expect[tag], atol=1e-12)
        assert np.allclose(channel[6:, 6:] @ pair, cross_expect[tag], atol=1e-12)
        assert np.allclose(channel[6:, :6] @ single, hook_expect[tag], atol=1e-12)
        # no channel couples the single-atom means among themselves
        assert np.max(np.abs(channel[:6, :6])) == 0.0


def test_coupling_blocks_conjugate_amplitude_structure():
    gen = make_gen()
    ratio = np.conj(gen.coupling) / gen.coupling
    channels = gen.channels
    assert np.allclose(channels["12*"][6:, 6:], ratio * channels["12"][6:, 6:], atol=1e-18)
    assert np.allclose(channels["21*"][6:, 6:], ratio * channels["21"][6:, 6:], atol=1e-18)


def test_coupling_override_decouples():
    gen = make_gen(coupling=0.0)
    assert np.max(np.abs(sum(gen.channels.values()))) == 0.0
    for tag in ta.COUPLING_TAGS:
        assert np.max(np.abs(gen.channels[tag][:6, 6:])) == 0.0


def test_drift_block_structure():
    gen = make_gen()
    assert np.allclose(gen.drift[:3, :3], gen.atom2.M, atol=1e-15)
    assert np.allclose(gen.drift[3:6, 3:6], gen.atom1.M, atol=1e-15)
    assert np.max(np.abs(gen.drift[:6, 6:])) == 0.0
    # pair-block eigenvalues are all sums of one eigenvalue per atom
    # (rounded before sorting: ties in the real part break on imaginary noise)
    direct = np.sort_complex(np.round(np.linalg.eigvals(gen.drift[6:, 6:]), 10))
    summed = gen.atom1.eigenvalues[:, None] + gen.atom2.eigenvalues[None, :]
    summed = np.sort_complex(np.round(summed.ravel(), 10))
    assert np.allclose(direct, summed, atol=1e-9)
    # drive: only the two inversion slots are fed
    expect = np.zeros(15)
    expect[2] = expect[5] = -2.0
    assert np.allclose(gen.drive, expect, atol=1e-15)


# ----------------------------------------------- operator-algebra generator

SP2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM2 = SP2.T.conj()
SZ2 = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def operator_master_equation(gen, coupling):
    """Independent 15x15 generator from the operator equation of motion.

    Works in the explicit 4x4 product algebra: every basis observable is
    pushed through the adjoint dissipator and re-expanded over the basis
    plus identity, giving generator rows and the drive vector directly.
    """
    trip = (SM2, SP2, SZ2)
    basis = [np.kron(I2, o) for o in trip] + [np.kron(o, I2) for o in trip]
    basis += [np.kron(a, I2) @ np.kron(I2, b) for a in trip for b in trip]
    change = np.array([np.eye(4, dtype=complex).ravel()] + [b.ravel() for b in basis]).T

    delta = gen.atom1.params.delta
    raising = {1: np.kron(SP2, I2), 2: np.kron(I2, SP2)}
    lowering = {1: np.kron(SM2, I2), 2: np.kron(I2, SM2)}
    rabis = {1: gen.atom1.params.local_rabi, 2: gen.atom2.params.local_rabi}

    def pushed(Q):
        out = np.zeros((4, 4), dtype=complex)
        for j in (1, 2):
            sp, sm = raising[j], lowering[j]
            num = sp @ sm
            out += -1j * delta * (num @ Q - Q @ num)
            field = rabis[j] * sp + np.conj(rabis[j]) * sm
            out += -0.5j * (field @ Q - Q @ field)
            out += -(num @ Q + Q @ num - 2.0 * sp @ Q @ sm)
        for j, k in ((1, 2), (2, 1)):
            out += coupling * (raising[j] @ Q @ lowering[k] - lowering[k] @ raising[j] @ Q)
            out += np.conj(coupling) * (raising[j] @ Q @ lowering[k] - Q @ lowering[k] @ raising[j])
        return out

    A = np.zeros((15, 15), dtype=complex)
    L = np.zeros(15, dtype=complex)
    for i, Q in enumerate(basis):
        coeffs = np.linalg.solve(change, pushed(Q).ravel())
        L[i] = coeffs[0]
        A[i, :] = coeffs[1:]
    return A, L


def test_generator_matches_operator_algebra_up_to_coupling_sign():
    """The block identities realize the equation of motion with T negated.

    The assembled generator agrees with the operator-algebra expansion
    exactly once the exchange amplitude is flipped; every order-two,
    averaged observable downstream is even in that amplitude, so the two
    conventions are physically equivalent there.
    """
    gen = make_gen(phase=0.3)
    A, L = operator_master_equation(gen, -gen.coupling)
    assert np.max(np.abs(A - full_matrix(gen))) < 1e-12
    assert np.max(np.abs(L - gen.drive)) < 1e-14
    # with the unflipped amplitude the coupling blocks do not match
    A_plus, _ = operator_master_equation(gen, gen.coupling)
    assert np.max(np.abs(A_plus - full_matrix(gen))) > 1e-3
    # the uncoupled parts agree identically
    A0, L0 = operator_master_equation(gen, 0.0)
    assert np.max(np.abs(A0 - gen.drift)) < 1e-13
    assert np.max(np.abs(L0 - gen.drive)) < 1e-14


# ---------------------------------------------------------------- resolvents


def test_single_and_pair_green_invert_their_blocks():
    gen = make_gen()
    z = -0.8j
    gs = gen.single_green(z)
    assert np.allclose((z * np.eye(6) - gen.drift[:6, :6]) @ gs, np.eye(6), atol=1e-12)
    gp = gen.pair_green(z)
    assert np.allclose((z * np.eye(9) - gen.drift[6:, 6:]) @ gp, np.eye(9), atol=1e-12)


def test_greens_stack_over_an_array_of_z():
    gen = make_gen(rabi=0.5, delta=0.0)
    zs = np.array([0.0, -0.8j, 2.1j])
    singles, pairs = gen.single_green(zs), gen.pair_green(zs)
    assert singles.shape == (3, 6, 6) and pairs.shape == (3, 9, 9)
    for z, gs, gp in zip(zs, singles, pairs):
        assert np.allclose(gs, gen.single_green(z), rtol=0, atol=1e-15)
        assert np.allclose(gp, gen.pair_green(z), rtol=0, atol=1e-15)


def test_stacked_generator_holds_each_drive():
    # a sequence of drives stacks one generator per drive along a leading
    # axis; the coupling channels and the feed block are shared by all
    cfg = ta.ScatteringConfig.from_separation(1000.0, direction=(0.6, 0.0, 0.8))
    drives = [AtomDriveParams(2.0, 0.5), AtomDriveParams(0.5, 0.0), AtomDriveParams(7.0, -3.0)]
    stacked = ta.assemble(cfg, drives)
    zs = np.array([0.0, -0.8j, 2.1j])
    assert stacked.drift.shape == (3, 15, 15) and stacked.feed.shape == (9, 6)
    assert stacked.single_green(zs).shape == (3, 3, 6, 6)
    for i, one in enumerate(ta.assemble(cfg, d) for d in drives):
        assert np.array_equal(stacked.drift[i], one.drift)
        assert np.array_equal(stacked.feed, one.drift[6:, :6])
        assert np.array_equal(stacked.atom1.eigenvalues[i], one.atom1.eigenvalues)
        assert np.array_equal(stacked.atom2.eigenvalues[i], one.atom2.eigenvalues)
        assert np.array_equal(stacked.single_green(zs)[i], one.single_green(zs))
        assert np.array_equal(stacked.pair_green(zs)[i], one.pair_green(zs))
        # a coupling insertion on a stack is a matrix product where one
        # drive's is a vector product: equal to rounding at a generic coupling
        for got, want in zip(ta.perturbative_orders(stacked), ta.perturbative_orders(one)):
            assert got.keys() == want.keys()
            for mono, vec in want.items():
                assert np.max(np.abs(got[mono][i] - vec)) <= 1e-13 * np.max(np.abs(vec))


@pytest.mark.parametrize("drives", [DRIVE, [DRIVE, AtomDriveParams(0.5, 0.0)],
                                    AtomDriveParams(1.3, 0.8, phase=0.7)],
                         ids=["one", "stack", "phase"])
def test_canonical_generator_is_the_unit_coupling_axis_geometry(drives):
    # atoms on the x axis with the laser along z add no propagation phase,
    # so both atoms are one Bloch system; only the coupling is set
    gen = ta.canonical_generator(drives)
    axis = replace(ta.assemble(ta.ScatteringConfig.from_separation(100.0), drives),
                   coupling=1 + 0j)
    assert gen.atom2 is gen.atom1 and gen.coupling == 1 + 0j
    assert np.array_equal(gen.drift, axis.drift) and np.array_equal(gen.drive, axis.drive)
    assert gen.channels.keys() == axis.channels.keys()
    for tag, channel in axis.channels.items():
        assert np.array_equal(gen.channels[tag], channel), tag


def test_pair_green_guards_pole_proximity():
    # the eigenvalue sum of the two atoms' second modes, as a resolvent argument
    gen = make_gen()
    with pytest.raises(ValueError, match="Re z >= 0"):
        gen.pair_green(gen.atom1.eigenvalues[1] + gen.atom2.eigenvalues[1])


def closed_form_pair_green(gen, z):
    # the closed-form solve applied to each unit vector: the columns of the inverse
    solve = gen.pair_solver(z)
    shape = gen.drift.shape[:-2] + np.shape(z) + (9,)
    return np.stack([solve(np.broadcast_to(unit, shape)) for unit in np.eye(9)], axis=-1)


_DRIVES = st.builds(lambda e, delta, phase: AtomDriveParams(10.0 ** e, delta, phase=phase),
                    st.floats(-4.0, 3.0), st.floats(-50.0, 50.0), st.floats(-np.pi, np.pi))
_POSITIONS = st.lists(st.floats(-100.0, 100.0), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(drives=st.lists(_DRIVES, min_size=1, max_size=3), positions=st.none() | _POSITIONS,
       scaled=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
@example(drives=[AtomDriveParams(0.5, 0.0)], positions=None, scaled=[0.0, 0.01, -0.3])
@example(drives=[AtomDriveParams(1000.0, 1.5)], positions=None, scaled=[0.0, 1.0, 1e-3])
@example(drives=[AtomDriveParams(1e-3, 1.5)], positions=None, scaled=[0.0, -1e-3, 0.5])
def test_closed_form_pair_solve_equals_the_dense_inverse(drives, positions, scaled):
    # laser phases undone and the exchange sectors split, the two 3x3
    # cofactor inverses reproduce the stacked 9x9 LU at z = 0 and on the
    # imaginary axis out to 100 (Omega' + 15), for one drive or a stack, on
    # the canonical and on generic geometries
    if positions is None:
        gen = ta.canonical_generator(drives)
    else:
        r1, r2 = np.array(positions[:3]), np.array(positions[3:])
        if np.linalg.norm(r1 - r2) < 10.0:
            r2 = r2 + 20.0
        gen = ta.assemble(ta.ScatteringConfig(r1, r2), drives)
    reach = 100.0 * (max(np.hypot(d.rabi, d.delta) for d in drives) + 15.0)
    z = np.concatenate([[0.0], -1j * reach * np.array(scaled)])
    dense = gen.pair_green(z)
    closed = closed_form_pair_green(gen, z)
    scale = np.max(np.abs(dense), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(closed - dense) <= 1e-12 * scale)


def test_closed_form_pair_solve_rejects_the_left_half_plane():
    gen = make_gen()
    assert np.allclose(closed_form_pair_green(gen, 0.5 - 2j), gen.pair_green(0.5 - 2j),
                       rtol=0, atol=1e-14)
    for bad in (-1e-9, np.array([0.0, -0.5 + 1j]), np.nan, 1j * np.inf):
        with pytest.raises(ValueError):
            gen.pair_solver(bad)


@pytest.mark.parametrize("rabi, delta, dense_bound, closed_bound", [
    (2.0, 0.0, 5e-15, 1e-14),
    (0.5, 0.0, 5e-15, 1e-14),
    (1.3, 0.8, 5e-15, 1e-14),
    (1e-3, 1.5, 5e-15, 1e-14),
    (20.0, 1.5, 5e-15, 1e-14),
    (50.0, 3.0, 5e-15, 1e-14),
    (100.0, -44.9, 3e-14, 8e-13),
    (1000.0, -500.0, 2.5e-13, 3e-11),
    (1000.0, 1.5, 3e-13, 1.5e-13),
])
def test_pair_kernels_against_a_50_digit_solve(rabi, delta, dense_bound, closed_bound):
    # both pair kernels against mpmath's LU of the same matrix, relative to
    # max|x|, at z = 0, -i Omega'/2, -i Omega' and -15i.  Worst errors on this
    # seed (dense / closed form): <= 7.4e-16 / 2.0e-15 up to rabi 50,
    # 3.1e-15 / 8.1e-14 at (100, -44.9), 2.9e-14 / 5.1e-12 at (1000, -500) and
    # 3.6e-14 / 1.8e-14 at (1000, 1.5); each bound is under 10x its worst
    gen = ta.canonical_generator(AtomDriveParams(rabi, delta))
    z = np.array([0.0, -0.5j * np.hypot(rabi, delta), -1j * np.hypot(rabi, delta), -15j])
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    dense = gen.pair_green(z) @ rhs
    closed = gen.pair_solver(z)(np.broadcast_to(rhs, (4, 9)))
    for k in range(4):
        exact = pair_solve_exact(gen, z[k], rhs)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(dense[k] - exact)) <= dense_bound * scale
        assert np.max(np.abs(closed[k] - exact)) <= closed_bound * scale


@pytest.mark.parametrize("points", [1, 95, 601])
def test_spectrum_takes_the_closed_form_on_every_grid(monkeypatch, points):
    # the z = 0 expansion takes the dense pair solve and the frequency grid
    # the closed form, whatever the grid's length, for a stack of drives too
    calls = []
    dense, closed = ta.TwoAtomGenerator.pair_green, ta.TwoAtomGenerator.pair_solver

    def spy(kind, original):
        def wrapped(gen, z=0.0):
            calls.append((kind, np.shape(z)))
            return original(gen, z)
        return wrapped

    monkeypatch.setattr(ta.TwoAtomGenerator, "pair_green", spy("dense", dense))
    monkeypatch.setattr(ta.TwoAtomGenerator, "pair_solver", spy("closed", closed))
    nus = np.linspace(-15.0, 15.0, points)
    stack = ta.canonical_generator([DRIVE, AtomDriveParams(0.5, 0.0)])
    ta.fixed_config_spectrum(stack, nus)
    assert calls == [("dense", ()), ("closed", (points,))]


@pytest.mark.parametrize("z", [0.0, -1.3j, 2.6j])
def test_pair_green_integral_representation(z):
    gen = make_gen()
    direct = gen.pair_green(z)
    for orientation in (+1, -1):
        integ = pair_resolvent_integral(gen, z, orientation)
        assert np.max(np.abs(integ - direct)) < 1e-10


def test_pair_green_integral_rejects_bad_arguments():
    gen = make_gen()
    with pytest.raises(ValueError):
        pair_resolvent_integral(gen, 0.5)
    with pytest.raises(ValueError):
        pair_resolvent_integral(gen, 0.0, orientation=3)


# -------------------------------------------------------------- steady state


def test_exact_steady_state_solves_full_system():
    gen = make_gen()
    s = exact_steady_state(gen)
    assert np.linalg.norm(full_matrix(gen) @ s + gen.drive) < 1e-12


def test_exact_steady_state_is_physical():
    s = exact_steady_state(make_gen(x=300.0))
    for z_idx, minus_idx, plus_idx in ((2, 0, 1), (5, 3, 4)):
        population = (1.0 + s[z_idx].real) / 2.0
        assert abs(s[z_idx].imag) < 1e-12
        assert 0.0 < population < 1.0
        assert abs(s[minus_idx] - np.conj(s[plus_idx])) < 1e-12
    # cross-atom coherences are mutual conjugates
    assert abs(s[9] - np.conj(s[7])) < 1e-12


def test_steady_state_factorizes_when_uncoupled():
    gen = make_gen(coupling=0.0)
    s = exact_steady_state(gen)
    assert np.allclose(s[:3], gen.atom2.steady, atol=1e-13)
    assert np.allclose(s[3:6], gen.atom1.steady, atol=1e-13)
    assert np.allclose(s[6:], np.kron(gen.atom1.steady, gen.atom2.steady), atol=1e-13)


def test_steady_state_matches_long_time_integration():
    gen = make_gen(x=200.0)
    full = full_matrix(gen)
    sol = solve_ivp(lambda t, y: full @ y + gen.drive, (0.0, 40.0),
                    np.zeros(15, dtype=complex), method="DOP853",
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    assert np.linalg.norm(sol.y[:, -1] - exact_steady_state(gen)) < 1e-9


def test_truncation_remainder_scales_with_coupling_cubed():
    """Separations chosen commensurate with the coupling's oscillation.

    Holding the amplitude's phase fixed across decades isolates the pure
    cubic decay of the remainder after the second-order truncation.
    """
    devs, strengths = [], []
    for x in (32 * np.pi, 320 * np.pi, 3200 * np.pi):
        gen = make_gen(x=x, delta=0.0)
        truncated = sum(tagged_total(lvl, 15) for lvl in ta.perturbative_orders(gen))
        dev = np.linalg.norm(exact_steady_state(gen) - truncated)
        devs.append(dev)
        strengths.append(abs(gen.coupling))
    slopes = np.diff(np.log(devs)) / np.diff(np.log(strengths))
    assert np.all(np.abs(slopes - 3.0) < 1e-3)


# ------------------------------------------------------- perturbative orders


def test_order_zero_correlations_factorize():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)
    assert np.allclose(tagged_total(orders[0], 15)[:6],
                       np.concatenate([gen.atom2.steady, gen.atom1.steady]), atol=1e-14)
    assert np.allclose(tagged_total(orders[0], 15)[6:],
                       np.kron(gen.atom1.steady, gen.atom2.steady), atol=1e-14)


def test_orders_carry_exact_monomial_degrees():
    orders = ta.perturbative_orders(make_gen())
    for n in range(3):
        assert all(len(mono) == n for mono in orders[n])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_orders_scale_as_coupling_power(seed):
    rng = np.random.default_rng(seed)
    cfg = ta.ScatteringConfig.from_separation(rng.uniform(100, 2000))
    drive = AtomDriveParams(rabi=rng.uniform(0.3, 6.0), delta=rng.uniform(-2, 2))
    base = ta.perturbative_orders(ta.assemble(cfg, drive))
    scaled = ta.perturbative_orders(replace(ta.assemble(cfg, drive),
                                            coupling=complex(2.0 * cfg.coupling)))
    for n in range(3):
        for mono, vec in base[n].items():
            assert np.allclose(scaled[n][mono], 2.0 ** n * vec, rtol=1e-13, atol=1e-18)


_GENERATORS = {
    "generic": lambda: make_gen(),
    "canonical": lambda: ta.canonical_generator(DRIVE),
    "stack": lambda: ta.canonical_generator([DRIVE, AtomDriveParams(0.5, 0.0),
                                             AtomDriveParams(7.0, -3.0, phase=0.4)]),
}


@pytest.mark.parametrize("monomials", [(ta.LADDER_MONOMIAL, ta.CROSSED_MONOMIAL),
                                       ta.DEGREE_TWO_MONOMIALS], ids=["surviving", "all"])
@pytest.mark.parametrize("name", list(_GENERATORS))
def test_stationary_orders_are_the_dense_expansion_at_zero(name, monomials):
    # the stationary recursion is the any-z dense expansion of the tests,
    # run at z = 0 on the drive, to the bit
    gen = _GENERATORS[name]()
    orders = ta.perturbative_orders(gen, monomials)
    dense = resolvent_apply(gen, 0.0, {(): gen.drive}, monomials)
    assert len(orders) == len(dense) == 3
    for got, want in zip(orders, dense):
        assert list(got) == list(want)
        for mono, vec in want.items():
            assert np.array_equal(got[mono], vec), mono


def test_first_order_single_atom_closed_forms():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)[:2]
    atom2_part, atom1_part = single_first_order_explicit(gen)
    for mono, vec in atom2_part.items():
        assert np.allclose(orders[1][mono][:3], vec, atol=1e-15)
        assert np.max(np.abs(orders[1][mono][3:6])) < 1e-18
    for mono, vec in atom1_part.items():
        assert np.allclose(orders[1][mono][3:6], vec, atol=1e-15)
        assert np.max(np.abs(orders[1][mono][:3])) < 1e-18


def test_first_order_pair_closed_forms():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)[:2]
    explicit = pair_first_order_explicit(gen)
    for mono, vec in explicit.items():
        scale = np.max(np.abs(vec))
        assert np.max(np.abs(orders[1][mono][6:] - vec)) < 1e-12 * scale


def test_first_order_pair_printed_final_term_is_inconsistent():
    """The source's final integral pairs same-sign resolvent arguments.

    That contour closes away from every pole, so the literal reading drops
    the whole integral for one conjugate channel; the recurrence output
    pins the opposite-sign pairing as the correct one.
    """
    gen = make_gen()
    orders = ta.perturbative_orders(gen)[:2]
    printed = pair_first_order_explicit(gen, printed_final_term=True)
    corrected = pair_first_order_explicit(gen)
    mono = ("12*",)
    scale = np.max(np.abs(orders[1][mono][6:]))
    assert np.max(np.abs(printed[mono] - orders[1][mono][6:])) > 0.1 * scale
    assert np.max(np.abs(corrected[mono] - orders[1][mono][6:])) < 1e-12 * scale
    for other in (("12",), ("21",), ("21*",)):
        assert np.allclose(printed[other], corrected[other], atol=1e-18)


def test_second_order_single_atom_closed_forms():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)
    explicit = single_second_order_explicit(gen)
    assert set(explicit) == {("12", "21*"), ("12", "12*"), ("21", "21*")}
    for mono, vec in explicit.items():
        recurrence = orders[2][mono][:3]
        assert np.max(np.abs(recurrence - vec)) < 1e-10 * np.max(np.abs(recurrence))


def test_second_order_closed_forms_across_parameter_draws():
    rng = np.random.default_rng(11)
    for _ in range(5):
        gen = make_gen(x=rng.uniform(150, 3000), rabi=rng.uniform(0.3, 5.0),
                       delta=rng.uniform(-2.5, 2.5),
                       direction=tuple(rng.normal(size=3)))
        orders = ta.perturbative_orders(gen)
        for mono, vec in single_second_order_explicit(gen).items():
            recurrence = orders[2][mono][:3]
            assert np.max(np.abs(recurrence - vec)) < 1e-10 * np.max(np.abs(recurrence))
        for mono, vec in pair_first_order_explicit(gen).items():
            recurrence = orders[1][mono][6:]
            assert np.max(np.abs(recurrence - vec)) < 1e-10 * np.max(np.abs(recurrence))


def test_degenerate_drive_still_solves_and_matches_explicit_chains():
    # critically damped point: a defective generator without an eigenbasis;
    # the recurrences and the quadrature of the printed chains need none
    gen = make_gen(rabi=0.5, delta=0.0)
    orders = ta.perturbative_orders(gen)
    assert np.isfinite(tagged_total(orders[2], 15)[:6]).all()
    for mono, vec in single_second_order_explicit(gen).items():
        recurrence = orders[2][mono][:3]
        assert np.max(np.abs(recurrence - vec)) < 1e-10 * np.max(np.abs(recurrence))
    for mono, vec in pair_first_order_explicit(gen).items():
        recurrence = orders[1][mono][6:]
        assert np.max(np.abs(recurrence - vec)) < 1e-10 * np.max(np.abs(recurrence))


# ------------------------------------------------- regression initial values


def test_initial_condition_order_zero_structure():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)
    inits = ta.regression_initials(orders)
    _, connected = g0_vectors(gen.atom2)
    expect = np.concatenate([connected, np.zeros(3), np.kron(gen.atom1.steady, connected)])
    assert np.allclose(inits[0][()], expect, atol=1e-14)


def test_initial_conditions_vanish_undriven():
    gen = make_gen(rabi=0.0, delta=0.3)
    orders = ta.perturbative_orders(gen)
    for n, tagged in enumerate(ta.regression_initials(orders)):
        for vec in tagged.values():
            assert np.max(np.abs(vec)) < 1e-15, f"order {n}"


def test_initial_condition_first_order_matches_finite_difference():
    cfg = ta.ScatteringConfig.from_separation(1000.0, direction=(0.6, 0.8, 0.0))

    def exact_initial(scale):
        gen = replace(ta.assemble(cfg, DRIVE), coupling=complex(scale * cfg.coupling))
        return regression_initial_exact(exact_steady_state(gen))

    gen = ta.assemble(cfg, DRIVE)
    orders = ta.perturbative_orders(gen)
    first = tagged_total(ta.regression_initials(orders)[1], 15)
    step = 1e-4
    fd = (exact_initial(step) - exact_initial(-step)) / (2.0 * step)
    assert np.linalg.norm(fd - first) < 1e-6 * np.linalg.norm(first)


def test_initial_conditions_sum_to_exact_within_cubic_remainder():
    gen = make_gen()
    orders = ta.perturbative_orders(gen)
    summed = np.zeros(15, dtype=complex)
    for tagged in ta.regression_initials(orders):
        summed += tagged_total(tagged, 15)
    exact = regression_initial_exact(exact_steady_state(gen))
    assert np.linalg.norm(exact - summed) < abs(gen.coupling) ** 3


# ------------------------------------------------------- resolvent expansion


def test_resolvent_order_zero_matches_drift_solve():
    gen = make_gen()
    rng = np.random.default_rng(3)
    seed = {(): rng.normal(size=15) + 1j * rng.normal(size=15)}
    z = -0.9j
    level0 = resolvent_apply(gen, z, seed)[0][()]
    direct = np.linalg.solve(z * np.eye(15) - gen.drift, seed[()])
    assert np.allclose(level0, direct, atol=1e-12)


def test_resolvent_orders_sum_to_full_inverse():
    gen = make_gen()
    rng = np.random.default_rng(4)
    seed_vec = rng.normal(size=15) + 1j * rng.normal(size=15)
    z = -1.7j
    levels = resolvent_apply(gen, z, {(): seed_vec})
    approx = sum(tagged_total(lvl, 15) for lvl in levels)
    direct = np.linalg.solve(z * np.eye(15) - full_matrix(gen), seed_vec)
    assert np.linalg.norm(direct - approx) < abs(gen.coupling) ** 3 * np.linalg.norm(seed_vec) * 10


def test_resolvent_first_order_linear_in_coupling():
    cfg = ta.ScatteringConfig.from_separation(700.0)
    seed = {(): np.arange(1.0, 16.0) + 0.5j}
    z = -0.4j
    lvl = resolvent_apply(ta.assemble(cfg, DRIVE), z, seed)[1]
    lvl2 = resolvent_apply(replace(ta.assemble(cfg, DRIVE), coupling=complex(2 * cfg.coupling)),
                           z, seed)[1]
    for mono, vec in lvl.items():
        assert np.allclose(lvl2[mono], 2.0 * vec, rtol=1e-13, atol=1e-20)


def test_resolvent_levels_extend_monomial_degree():
    gen = make_gen()
    seed = {("12",): np.ones(15, dtype=complex)}
    levels = resolvent_apply(gen, -0.2j, seed)
    for n, lvl in enumerate(levels[:2]):
        assert lvl and all(len(mono) == n + 1 for mono in lvl)
    # the expansion is order two: no product beyond degree two is formed
    assert levels[2] == {}


# --------------------------------------------------- fixed-config spectrum


def test_order_zero_channel_reproduces_single_atom_spectrum():
    gen = make_gen(phase=0.4)
    origin = build(AtomDriveParams(rabi=2.0, delta=0.5, phase=0.4))
    orders = ta.perturbative_orders(gen)
    inits = ta.regression_initials(orders)
    for nu in (-2.4, 0.3, 1.9):
        level0 = resolvent_apply(gen, -1j * nu, inits[0])[0]
        value = np.real(level0[()][0]) / np.pi
        assert abs(value - mollow_p0(origin, nu)) < 1e-12


def test_spectrum_monomials_have_degree_two():
    gen = make_gen()
    spec = ta.fixed_config_spectrum(gen, [0.0, 1.0])
    for store in (spec.autocorrelation, spec.exchange,
                  spec.elastic_autocorrelation, spec.elastic_exchange):
        assert all(len(mono) == 2 for mono in store)
    assert ta.LADDER_MONOMIAL in spec.autocorrelation
    assert ta.CROSSED_MONOMIAL in spec.exchange


def test_spectrum_vanishes_undriven():
    spec = ta.fixed_config_spectrum(make_gen(rabi=0.0, delta=0.3), [0.0, 0.7])
    for store in (spec.autocorrelation, spec.exchange):
        for arr in store.values():
            assert np.max(np.abs(arr)) < 1e-15
    for store in (spec.elastic_autocorrelation, spec.elastic_exchange):
        for val in store.values():
            assert abs(val) < 1e-15


def test_elastic_weights_conjugate_under_channel_reversal():
    # adjoint of a coupling channel swaps the atom indices and stars the
    # amplitude, so conjugation pairs "12" with "21*" and "21" with "12*"
    spec = ta.fixed_config_spectrum(make_gen(), [0.0])
    conj_tag = {"12": "21*", "21*": "12", "21": "12*", "12*": "21"}
    scale = max(abs(v) for v in spec.elastic_autocorrelation.values())
    for mono, val in spec.elastic_autocorrelation.items():
        partner = tuple(sorted(conj_tag[tag] for tag in mono))
        assert abs(spec.elastic_autocorrelation[partner] - np.conj(val)) < 1e-12 * scale


def test_spectrum_matches_time_domain_regression():
    """Laplace transform of the integrated correlation decay, then the
    order-summed resolvent output, chained through the dense solve."""
    gen = make_gen()
    full = full_matrix(gen)
    init = regression_initial_exact(exact_steady_state(gen))
    tmax, dt = 42.0, 0.004
    ts = np.arange(0.0, tmax + dt / 2, dt)
    sol = solve_ivp(lambda t, y: full @ y, (0.0, tmax), init, t_eval=ts,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success

    orders = ta.perturbative_orders(gen)
    inits = ta.regression_initials(orders)
    for nu in (0.0, 2.0):
        z = -1j * nu
        direct = np.linalg.solve(z * np.eye(15) - full, init)
        order_sum = np.zeros(15, dtype=complex)
        for n in range(3):
            for lvl in resolvent_apply(gen, z, inits[n])[:3 - n]:
                order_sum += tagged_total(lvl, 15)
        for comp in (0, 3):
            laplace = simpson(np.exp(1j * nu * ts) * sol.y[comp], x=ts)
            assert abs(laplace - direct[comp]) < 1e-10
            assert abs(direct[comp] - order_sum[comp]) < abs(gen.coupling) ** 3


@pytest.mark.parametrize("rabi, delta", [(2.0, 0.5), (0.5, 0.0)], ids=["generic", "jordan"])
def test_nested_spectrum_equals_the_explicit_order_sum(rabi, delta):
    """``R (i2 + V R (i1 + V R i0))`` on the grid against the sum over k of
    ``R (V R)^k i_(2-k)`` solved one frequency at a time."""
    gen = make_gen(rabi=rabi, delta=delta)
    nus = np.array([-2.3, 0.0, 1.7])
    spec = ta.fixed_config_spectrum(gen, nus)
    inits = ta.regression_initials(ta.perturbative_orders(gen))
    for i, nu in enumerate(nus):
        explicit: dict = {}
        for k in range(3):
            for mono, vec in resolvent_apply(gen, -1j * nu, inits[2 - k])[k].items():
                explicit[mono] = explicit.get(mono, 0.0) + vec
        assert set(explicit) == set(spec.autocorrelation) == set(spec.exchange)
        scale = max(np.max(np.abs(vec)) for vec in explicit.values())
        for mono, vec in explicit.items():
            assert abs(spec.autocorrelation[mono][i] - vec[0]) < 1e-13 * scale
            assert abs(spec.exchange[mono][i] - vec[3]) < 1e-13 * scale


def test_spectrum_frequencies_alone_match_the_full_grid():
    gen = make_gen()
    grid = np.linspace(-15.0, 15.0, 601)
    full = ta.fixed_config_spectrum(gen, grid)
    for i in (0, 137, 300, 451, 600):
        alone = ta.fixed_config_spectrum(gen, grid[i:i + 1])
        for store, ref in ((alone.autocorrelation, full.autocorrelation),
                           (alone.exchange, full.exchange)):
            scale = max(np.max(np.abs(arr)) for arr in ref.values())
            for mono, arr in store.items():
                assert abs(arr[0] - ref[mono][i]) <= 1e-14 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="finite"):
        ta.fixed_config_spectrum(make_gen(), [0.0, bad])


# ------------------------------------------------------------------ intensity


def test_intensity_vanishes_undriven():
    cfg = ta.ScatteringConfig.from_separation(1000.0, direction=(0.6, 0.8, 0.0))
    gen = ta.assemble(cfg, AtomDriveParams(rabi=0.0, delta=0.2))
    assert abs(intensity(gen, cfg, (0, 0, -1.0))) < 1e-14


def test_intensity_uncoupled_orientation_average_kills_cross_term():
    """Without exchange coupling the interference term is a pure standing
    oscillation in the geometry and averages to zero over orientations."""
    rng = np.random.default_rng(7)
    drive = AtomDriveParams(rabi=2.0, delta=0.0)
    back = np.array([0.0, 0.0, -1.0])
    population = 2.0 * (1.0 + build(drive).steady[2].real) / 2.0
    samples = []
    for _ in range(600):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        cfg = ta.ScatteringConfig(r1=np.zeros(3), r2=500.0 * axis)
        gen = replace(ta.assemble(cfg, drive), coupling=0j)
        samples.append(intensity(gen, cfg, back))
    samples = np.array(samples) - population
    stderr = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean()) < 3.0 * stderr


def test_backscatter_detection_phase_cancels_interference_channel():
    """Laser-phase Fourier content of the tagged cross term at backscatter.

    At fixed separation the interference-channel coherence oscillates with
    the relative laser phase; multiplying by the backward detection factor
    moves exactly that oscillation to zero frequency, so a uniform phase
    grid isolates it to machine precision.  The background-channel
    populations carry no laser phase at all.
    """
    x = 500.0
    back = np.array([0.0, 0.0, -1.0])
    grid = np.arange(8) * 2.0 * np.pi / 8.0
    cross_vals, ladder_pops = [], []
    for dphi in grid:
        r1 = np.array([0.0, 0.0, dphi]) + np.array([np.sqrt(x * x - dphi * dphi), 0.0, 0.0])
        cfg = ta.ScatteringConfig(r1=r1, r2=np.zeros(3))
        gen = replace(ta.assemble(cfg, DRIVE), coupling=complex(1.5j / x))
        orders = ta.perturbative_orders(gen)
        cross_vals.append(orders[2][ta.CROSSED_MONOMIAL][7])
        vec = orders[2][ta.LADDER_MONOMIAL]
        ladder_pops.append(0.5 * (vec[2] + vec[5]))
        assert abs(cfg.phase_difference - dphi) < 1e-12
    cross_vals = np.array(cross_vals)
    ladder_pops = np.array(ladder_pops)
    scale = np.max(np.abs(cross_vals))
    detection = np.exp(1j * grid)  # phase factor of the surviving pairing at n = -k
    assert abs(np.mean(cross_vals * detection)) > 0.2 * scale
    assert abs(np.mean(cross_vals)) < 1e-12 * scale
    assert abs(np.mean(cross_vals / detection)) < 1e-12 * scale
    assert np.max(np.abs(ladder_pops - ladder_pops[0])) < 1e-12 * np.abs(ladder_pops[0])


def test_order_two_intensity_matches_finite_difference():
    cfg = ta.ScatteringConfig.from_separation(900.0, direction=(0.6, 0.8, 0.0))
    back = np.array([0.0, 0.0, -1.0])

    def total(scale):
        gen = replace(ta.assemble(cfg, DRIVE), coupling=complex(scale * cfg.coupling))
        return intensity(gen, cfg, back)

    gen = ta.assemble(cfg, DRIVE)
    orders = ta.perturbative_orders(gen)
    tagged = double_scattering_intensity(cfg, back, orders)
    second = sum(tagged.values())
    assert abs(second.imag) < 1e-12 * abs(second)
    # step large enough to clear float cancellation in the second difference
    step = 0.05
    fd = (total(step) - 2.0 * total(0.0) + total(-step)) / step ** 2
    assert abs(fd - 2.0 * second.real) < 1e-5 * abs(second)


# ------------------------------------------------------- laser-phase algebra


def test_position_phase_relations_of_response_chains():
    """Moving an atom multiplies each response chain by a fixed phase.

    Checked for the ten chain components and the two spectral-density
    combinations that enter the averaged channels; the latter are exactly
    phase-free.
    """
    rng = np.random.default_rng(19)
    base = build(AtomDriveParams(rabi=1.7, delta=-0.8))
    for _ in range(6):
        phi = rng.uniform(-20, 20)
        moved = build(AtomDriveParams(rabi=1.7, delta=-0.8, phase=phi))
        z = 1j * rng.uniform(-4, 4)
        ph = np.exp(1j * phi)
        s0, sp = base.steady, moved.steady
        cases = [
            (sp[0], s0[0] * ph),
            (sp[1], s0[1] / ph),
            ((moved.green(z) @ (DELTA_PLUS @ sp))[0], (base.green(z) @ (DELTA_PLUS @ s0))[0] * ph ** 2),
            ((moved.green(z) @ (DELTA_PLUS @ sp))[1], (base.green(z) @ (DELTA_PLUS @ s0))[1]),
            ((moved.green(z) @ (DELTA_MINUS @ sp))[0], (base.green(z) @ (DELTA_MINUS @ s0))[0]),
            ((moved.green(z) @ (DELTA_MINUS @ sp))[1], (base.green(z) @ (DELTA_MINUS @ s0))[1] / ph ** 2),
        ]
        for sign_a, sign_b in ((DELTA_MINUS, DELTA_PLUS), (DELTA_PLUS, DELTA_MINUS)):
            chain_moved = moved.green(0.0) @ (sign_a @ (moved.green(z) @ (sign_b @ sp)))
            chain_base = base.green(0.0) @ (sign_a @ (base.green(z) @ (sign_b @ s0)))
            cases.append((chain_moved[0], chain_base[0] * ph))
            cases.append((chain_moved[1], chain_base[1] / ph))
        g1_moved, g2_moved = g0_vectors(moved)
        g1_base, g2_base = g0_vectors(base)
        cases.append(((moved.green(z) @ g2_moved)[0], (base.green(z) @ g2_base)[0]))
        cases.append(((moved.green(z) @ g1_moved)[1], (base.green(z) @ g1_base)[1]))
        for got, expect in cases:
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))
