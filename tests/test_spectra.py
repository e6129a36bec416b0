"""Averaged backscattering channels: elastic weights, densities, contrast."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

from cbs2atom import atom, linalg, pumpprobe, quadrature, residues, spectra, twoatom
from cbs2atom.atom import AtomDriveParams
from cbs2atom.disorder import ConfigSampler, monte_carlo_spectra, select_surviving
from cbs2atom.spectra import CbsResult, SpectralFunctionGrid, cbs_spectra, default_grid
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    ScatteringConfig,
    assemble,
    canonical_configuration,
    fixed_config_spectrum,
)


def drive(rabi, delta=0.0):
    return AtomDriveParams(rabi=rabi, delta=delta)


def selected_channels(config, drv, nus):
    """Fixed-configuration spectra reduced to the surviving averaged content.

    Returns (ladder density, crossed density, elastic ladder, elastic
    crossed) on the common per-coupling-power scale of the closed forms.
    """
    spec = fixed_config_spectrum(assemble(config, drv), np.asarray(nus, dtype=float))
    power = 4.0 * abs(config.coupling) ** 2
    phase = np.exp(1j * config.phase_difference)
    lad = select_surviving(spec.autocorrelation, "ladder")[LADDER_MONOMIAL]
    cro = select_surviving(spec.exchange, "crossed", phase)[CROSSED_MONOMIAL]
    el_lad = select_surviving(spec.elastic_autocorrelation, "ladder")[LADDER_MONOMIAL]
    el_cro = select_surviving(spec.elastic_exchange, "crossed", phase)[CROSSED_MONOMIAL]
    return (
        np.real(2.0 * lad / power) / np.pi,
        np.real(2.0 * cro / power) / np.pi,
        np.real(2.0 * el_lad / power),
        np.real(2.0 * el_cro / power),
    )


# ------------------------------------------------------------ grid container


def test_grid_requires_ascending_frequencies():
    with pytest.raises(ValueError):
        SpectralFunctionGrid(np.array([0.0, 1.0, 0.5]), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        SpectralFunctionGrid(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.0)


def test_grid_requires_at_least_three_points():
    with pytest.raises(ValueError):
        SpectralFunctionGrid(np.array([0.0, 1.0]), np.zeros(2), 0.0)


def test_grid_rejects_nonfinite_entries():
    nu = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        SpectralFunctionGrid(nu, np.array([0.0, np.nan, 0.0]), 0.0)
    with pytest.raises(ValueError):
        SpectralFunctionGrid(nu, np.zeros(3), np.inf)
    with pytest.raises(ValueError):
        SpectralFunctionGrid(nu, np.zeros(2), 0.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-2.0, 2.0),
    half=st.floats(0.5, 10.0),
    points=st.integers(3, 81),
    warp=st.floats(0.0, 0.9),
)
def test_grid_integral_is_exact_for_parabolas(a, b, c, half, points, warp):
    # composite Simpson integrates quadratics exactly on odd and even point
    # counts (Cartwright's last interval) and on non-uniform grids, so the
    # container's integral can be pinned in closed form; ``warp`` bends a
    # uniform grid monotonically into an uneven one
    u = np.linspace(-1.0, 1.0, points)
    nu = half * (u + warp * (u**3 - u) / 2.0)
    grid = SpectralFunctionGrid(nu, a * nu**2 + b * nu + c, elastic_weight=0.25)
    exact = 2.0 * a * half**3 / 3.0 + 2.0 * c * half
    assert abs(grid.integrated() - exact) < 1e-10 * (1.0 + abs(exact))
    assert abs(grid.total - exact - 0.25) < 1e-10 * (1.0 + abs(exact))


@pytest.mark.parametrize("points", [3, 4, 9, 22, 600, 601])
@pytest.mark.parametrize("uniform", [True, False])
def test_simpson_matches_scipy(points, uniform):
    # the production Simpson follows scipy's rule, Cartwright's correction
    # on an even point count included, on real and complex samples
    rng = np.random.default_rng(points)
    nu = np.linspace(-15.0, 15.0, points)
    if not uniform:
        nu = np.sort(rng.uniform(-15.0, 15.0, points))
    real = np.cos(nu) / (1.0 + nu**2) + rng.standard_normal(points)
    for y in (real, real + 1j * rng.standard_normal(points)):
        want = scipy_simpson(y, x=nu)
        assert abs(spectra.simpson(y, nu) - want) <= 1e-14 * abs(want)


def test_default_grid_tracks_drive_strength():
    weak = default_grid(drive(0.5))
    assert len(weak) == 601
    assert weak[0] == -15.0 and weak[-1] == 15.0
    strong = default_grid(drive(20.0), points=11)
    assert len(strong) == 11
    assert strong[0] == -26.0 and strong[-1] == 26.0
    assert np.allclose(strong, -strong[::-1], atol=0)
    # the sidebands sit at the generalised Rabi frequency: at (2, 20) the
    # ladder's largest value is near |nu| = 20.07, beyond a +-15 grid
    detuned = default_grid(drive(2.0, 20.0), points=11)
    assert detuned[-1] == -detuned[0] == np.hypot(2.0, 20.0) + 6.0
    wide = np.linspace(-30.0, 30.0, 601)
    peak = wide[np.argmax(np.abs(spectra.inelastic_ladder(drive(2.0, 20.0), wide).values))]
    assert 15.0 < abs(peak) < detuned[-1]


# ----------------------------------------------------------- elastic weights


def test_elastic_weights_at_reference_drive():
    # frozen against the brute-force two-atom average (deterministic
    # phase-torus quadrature over couplings and laser phases, 1e-10 level)
    assert abs(spectra.elastic_weights(drive(2.0))[0] - (-0.011385459533607674)) < 1e-14
    assert abs(spectra.elastic_weights(drive(2.0))[1] - (-0.002469135802469134)) < 1e-14


def test_elastic_weights_detuned_reference():
    assert abs(spectra.elastic_weights(drive(2.0, 3.0))[0] - (-0.00014735510973936934)) < 1e-14
    assert abs(spectra.elastic_weights(drive(2.0, 3.0))[1] - 0.00112525720164609) < 1e-14


def test_weak_drive_elastic_weights_follow_rayleigh():
    # linear scattering: both channels approach (rabi/2)^2 / 2 and their
    # ratio approaches one, the hallmark of full interference recovery
    d = drive(1e-3)
    lad, cro = spectra.elastic_weights(d)
    assert abs(lad - 1e-6 / 8.0) < 1e-4 * lad
    assert abs(cro / lad - 1.0) < 2e-6


def test_elastic_weights_even_in_detuning():
    for rabi, delta in [(2.0, 3.0), (0.8, 1.3), (4.0, 0.4)]:
        assert abs(spectra.elastic_weights(drive(rabi, delta))[0]
                   - spectra.elastic_weights(drive(rabi, -delta))[0]) < 1e-14
        assert abs(spectra.elastic_weights(drive(rabi, delta))[1]
                   - spectra.elastic_weights(drive(rabi, -delta))[1]) < 1e-14


# ------------------------------------ brute-force fixed-configuration check


def test_channels_match_selected_fixed_configuration_content():
    # one distant geometry, evaluated exactly in the 15-dimensional pair
    # basis; after selection of the surviving coupling monomials the
    # per-power content must equal the closed forms identically
    nus = np.array([-2.3, 0.0, 0.9, 4.1])
    config = ScatteringConfig.from_separation(217.3, direction=(0.3, -1.1, 0.7))
    for d in [drive(2.0), drive(1.3, 0.8)]:
        lad, cro, el_lad, el_cro = selected_channels(config, d, nus)
        assert np.max(np.abs(lad - spectra.inelastic_ladder(d, nus=nus).values)) < 1e-10
        assert np.max(np.abs(cro - spectra.inelastic_crossed(d, nus=nus).values)) < 1e-10
        assert abs(el_lad - spectra.elastic_weights(d)[0]) < 1e-12
        assert abs(el_cro - spectra.elastic_weights(d)[1]) < 1e-12


def test_selected_content_is_geometry_independent_here_too():
    nus = np.array([0.0, 1.1])
    d = drive(1.7, 0.3)
    one = selected_channels(ScatteringConfig.from_separation(180.0), d, nus)
    two = selected_channels(
        ScatteringConfig.from_separation(305.2, direction=(-1.0, 0.2, 2.0)), d, nus)
    for u, v in zip(one, two):
        assert np.max(np.abs(np.asarray(u) - np.asarray(v))) < 1e-12


@pytest.mark.parametrize("rabi, delta", [(2.0, 0.0), (1.3, 0.8), (0.5, 0.0), (20.0, 1.5),
                                         (50.0, 3.0), (0.001, 1.5)])
def test_production_equals_the_full_evaluation(rabi, delta):
    # production forms only the divisors of the two surviving monomials;
    # every number it returns is formed as in the all-monomial expansion
    d = drive(rabi, delta)
    nus = default_grid(d, 61)
    [(_, (elastic_auto, elastic_exch), blocks)] = spectra.canonical_blocks([d], nus)
    [(auto, exch)] = blocks
    full = fixed_config_spectrum(
        assemble(canonical_configuration(), [d], coupling=1.0), nus)
    assert set(auto) == {LADDER_MONOMIAL, CROSSED_MONOMIAL}
    for name, mono, pruned in (("autocorrelation", LADDER_MONOMIAL, auto),
                               ("exchange", CROSSED_MONOMIAL, exch),
                               ("elastic_autocorrelation", LADDER_MONOMIAL, elastic_auto),
                               ("elastic_exchange", CROSSED_MONOMIAL, elastic_exch)):
        assert np.array_equal(pruned[mono], getattr(full, name)[mono]), name


def test_production_resolves_only_the_surviving_monomials(monkeypatch):
    # per nested level: the seed, the three first-order divisors, the two
    # surviving monomials; the last level resolves the Bloch block alone
    calls = []
    resolve = twoatom._resolve

    def spy(gen, g_single, g_pair, tagged):
        calls.append((g_single.ndim, set(tagged), g_pair is not None))
        return resolve(gen, g_single, g_pair, tagged)

    monkeypatch.setattr(twoatom, "_resolve", spy)
    cbs_spectra(drive(2.0), np.linspace(-5.0, 5.0, 7))
    levels = [{()}, {("12",), ("12*",), ("21*",)}, {LADDER_MONOMIAL, CROSSED_MONOMIAL}]
    # one drive is a stack of one: (1, 6, 6) at z = 0, (1, 7, 6, 6) on the grid
    stationary = [(3, level, True) for level in levels]
    nested = [(4, level, pair) for level, pair in zip(levels, (True, True, False))]
    assert calls == stationary + nested


def test_canonical_solve_inverts_one_single_atom_system(monkeypatch):
    # both laser phases of the canonical configuration are 0, so the atoms
    # share one Bloch system: one single-atom (closed-form 3x3) and one pair
    # inverse at z = 0 and on each frequency block; two single-atom inverses
    # each would take 6.  The pair inverse is the dense 9x9 at z = 0 and the
    # closed form on every block, short or long.  The stationary expansion
    # runs once per drive stack, however many frequency blocks it feeds
    calls = {"bloch": 0, "pair": 0, "closed": 0, "orders": 0}

    def counting(kind, original):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)
        return wrapped

    bloch = counting("bloch", linalg.inverse3)
    pair = counting("pair", linalg.resolve)
    for module in (linalg, atom, twoatom):
        monkeypatch.setattr(module, "inverse3", bloch, raising=False)
        monkeypatch.setattr(module, "resolve", pair, raising=False)
    monkeypatch.setattr(twoatom.TwoAtomGenerator, "pair_solver",
                        counting("closed", twoatom.TwoAtomGenerator.pair_solver))
    monkeypatch.setattr(twoatom, "perturbative_orders",
                        counting("orders", twoatom.perturbative_orders))
    one_block = {"bloch": 2, "pair": 1, "closed": 1, "orders": 1}
    three_blocks = {"bloch": 4, "pair": 1, "closed": 3, "orders": 1}
    for points, block_pairs, expected in ((7, spectra.BLOCK_PAIRS, one_block),
                                          (601, spectra.BLOCK_PAIRS, one_block),
                                          (31, 13, three_blocks)):
        monkeypatch.setattr(spectra, "BLOCK_PAIRS", block_pairs)
        nus = np.linspace(-5.0, 5.0, points)
        calls.update(bloch=0, pair=0, closed=0, orders=0)
        cbs_spectra(drive(2.0), nus=nus)
        assert calls == expected, points
        calls.update(bloch=0, pair=0, closed=0, orders=0)
        monte_carlo_spectra(drive(2.0), ConfigSampler(samples=1000, seed=3), nus)
        assert calls == expected, points


def test_elastic_weights_resolve_no_frequency_grid(monkeypatch):
    # the elastic weights are the stationary expansion's alone: one dense pair
    # solve at z = 0, no closed-form solve and no spectrum on any grid, and
    # the same bits as a spectrum's
    calls = []
    dense, closed = twoatom.TwoAtomGenerator.pair_green, twoatom.TwoAtomGenerator.pair_solver

    def spy(kind, original):
        def wrapped(gen, z=0.0):
            calls.append((kind, np.shape(z)))
            return original(gen, z)
        return wrapped

    def no_spectrum(*args, **kwargs):
        raise AssertionError("elastic weights solved a frequency grid")

    d = drive(1.3, 0.8)
    result = cbs_spectra(d, nus=np.linspace(-5.0, 5.0, 7))
    monkeypatch.setattr(twoatom.TwoAtomGenerator, "pair_green", spy("dense", dense))
    monkeypatch.setattr(twoatom.TwoAtomGenerator, "pair_solver", spy("closed", closed))
    monkeypatch.setattr(spectra, "inelastic_spectra", no_spectrum)
    assert spectra.elastic_weights(d) == (result.elastic_ladder, result.elastic_crossed)
    assert calls == [("dense", ())]


# ------------------------------------------------------------ stacked drives

STACK_GRID = np.linspace(-15.0, 15.0, 21)


def assert_stack_equals(stacked, singles):
    # one drive is solved as a stack of one, so every number agrees bit for bit
    assert len(stacked) == len(singles)
    for got, want in zip(stacked, singles):
        assert got.drive == want.drive
        for channel in ("ladder", "crossed"):
            got_channel, want_channel = getattr(got, channel), getattr(want, channel)
            assert np.array_equal(got_channel.values, want_channel.values)
            assert got_channel.elastic_weight == want_channel.elastic_weight


@settings(max_examples=30, deadline=None)
@given(drives=st.lists(st.builds(drive, st.floats(-2.0, np.log10(50.0)).map(lambda e: 10.0 ** e),
                                 st.floats(-20.0, 20.0)),
                       min_size=1, max_size=6))
@example(drives=[drive(0.5, 0.0), drive(1e-3, 1.5)])
@example(drives=[drive(1.0, 0.0), drive(1.0, 1.1484375)])
@example(drives=[drive(2.0), drive(0.5, 0.0), drive(20.0, 1.5), drive(1e-3, 1.5)])
def test_stacked_spectra_equal_the_per_drive_spectra(drives):
    assert_stack_equals(spectra.cbs_spectra_stack(drives, STACK_GRID),
                        [cbs_spectra(d, nus=STACK_GRID) for d in drives])


def test_stack_larger_than_a_block_equals_one_block(monkeypatch):
    # five drives in blocks of two: two stacked blocks and a one-drive block
    drives = [drive(0.3), drive(2.0, -1.2), drive(0.5), drive(7.0, 4.0), drive(1e-3, 1.5)]
    assert spectra.BLOCK_PAIRS >= len(drives) * len(STACK_GRID)
    whole = spectra.cbs_spectra_stack(drives, STACK_GRID)
    blocks = []
    solve = spectra.inelastic_spectra

    def counting(gen, part, *args):
        blocks.append(len(gen.atom1.params))
        return solve(gen, part, *args)

    monkeypatch.setattr(spectra, "inelastic_spectra", counting)
    monkeypatch.setattr(spectra, "BLOCK_PAIRS", 2 * len(STACK_GRID) + 1)
    assert_stack_equals(spectra.cbs_spectra_stack(drives, STACK_GRID), whole)
    assert blocks == [2, 2, 1]


def test_grid_longer_than_a_block_equals_one_block(monkeypatch):
    # a grid of more than BLOCK_PAIRS frequencies is solved one drive at a
    # time, on frequency blocks of at most BLOCK_PAIRS whose densities are
    # concatenated; unblocked, the five drives are one stack
    drives = [drive(2.0), drive(0.5, 0.0), drive(20.0, 1.5), drive(1e-3, 1.5), drive(7.0, 4.0)]
    nus = default_grid(drive(20.0), 61)
    whole = spectra.cbs_spectra_stack(drives, nus)
    ladder = spectra.inelastic_ladder(drives[0], nus)
    crossed = spectra.inelastic_crossed(drives[0], nus)
    blocks = []
    solve = spectra.inelastic_spectra

    def counting(gen, part, *args):
        blocks.append((len(gen.atom1.params), len(part)))
        return solve(gen, part, *args)

    monkeypatch.setattr(spectra, "inelastic_spectra", counting)
    monkeypatch.setattr(spectra, "BLOCK_PAIRS", 13)
    assert_stack_equals(spectra.cbs_spectra_stack(drives, nus), whole)
    assert blocks == len(drives) * [(1, 13), (1, 13), (1, 13), (1, 13), (1, 9)]
    for got, want in ((spectra.inelastic_ladder(drives[0], nus), ladder),
                      (spectra.inelastic_crossed(drives[0], nus), crossed)):
        assert np.array_equal(got.nu, want.nu) and np.array_equal(got.values, want.values)
        assert got.elastic_weight == want.elastic_weight


def test_fixed_config_spectrum_rejects_other_monomials():
    gen = assemble(canonical_configuration(), drive(2.0), coupling=1.0)
    for bad in ((("12",),), (("21*", "12"),), (("12", "12", "21"),)):
        with pytest.raises(ValueError):
            fixed_config_spectrum(gen, [0.0], bad)


# ------------------------------------------- production against the oracle


def test_production_matches_compact_oracle():
    # the canonical-configuration route against the closed form in
    # single-atom observables, integrated by the tan-mapped midpoint rule;
    # measured agreement is <= 2.2e-14 of the channel peak on the densities
    # and relative on the weights, so the bound 1e-12 leaves a wide margin
    # yet catches any wrong term.  The Jordan point needs no special case.
    bound = 1e-12
    for d in [drive(2.0), drive(0.9, 1.1), drive(20.0), drive(50.0, 3.0),
              drive(1.3, 0.8), drive(0.5)]:
        nus = default_grid(d, points=41)
        result = cbs_spectra(d, nus=nus)
        for got, oracle in zip((result.ladder, result.crossed),
                               residues.compact_channels(d, nus)):
            scale = np.max(np.abs(oracle.values))
            assert np.max(np.abs(got.values - oracle.values)) < bound * scale
            assert abs(got.elastic_weight - oracle.elastic_weight) < bound * abs(
                oracle.elastic_weight)


@pytest.mark.parametrize("rabi, delta", [(2.0, 0.0), (20.0, 0.0), (50.0, 3.0), (0.5, 0.0)],
                         ids=["rabi2", "rabi20", "rabi50-det3", "jordan"])
def test_compact_oracle_is_converged_in_the_node_count(rabi, delta, monkeypatch):
    # doubling every node count of the quadrature moves no closed-form value,
    # and no pump-probe density, by more than 1e-13 of its channel peak
    d = drive(rabi, delta)
    nus = default_grid(d, points=21)

    def channels():
        densities = pumpprobe.channel_densities(d, nus)
        compact = residues.compact_channels(d, nus)
        return ([grid.values for grid in compact] + [densities["ladder"], densities["crossed"]],
                [grid.elastic_weight for grid in compact])

    base_values, base_weights = channels()
    count = quadrature._node_count
    monkeypatch.setattr(quadrature, "_node_count", lambda depth: 2 * count(depth))
    values, weights = channels()
    for got, ref in zip(values, base_values):
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
    for got, ref in zip(weights, base_weights):
        assert abs(got - ref) < 1e-13 * abs(ref)


def test_compact_oracle_reaches_the_far_tails():
    # the rule centres itself between the pole clusters at 0 and +-nu, so
    # an emission frequency ~150 generalised Rabi frequencies out costs a
    # node count linear in nu; deviations are on the scale of the value at
    # nu = 0, the largest of the three
    d = drive(1.3, 0.8)
    nus = np.array([-190.0, 0.0, 190.0])
    result = cbs_spectra(d, nus=nus)
    for got, oracle in zip((result.ladder, result.crossed), residues.compact_channels(d, nus)):
        peak = np.max(np.abs(oracle.values))
        assert np.max(np.abs(got.values - oracle.values)) < 1e-12 * peak


def _assert_matches_compact(d):
    nus = default_grid(d, points=9)
    result = cbs_spectra(d, nus=nus)
    for got, oracle in zip((result.ladder, result.crossed), residues.compact_channels(d, nus)):
        assert np.max(np.abs(got.values - oracle.values)) < 1e-12 * np.max(np.abs(oracle.values))
        assert abs(got.elastic_weight - oracle.elastic_weight) < 1e-12 * abs(oracle.elastic_weight)


# Drive-plane property tests against the closed form.  Drives with
# rabi/|delta| below ~0.5 are left out: there production loses digits to
# low saturation and differs from both closed-form routes (residues and
# quadrature, which agree within 1e-14) by 8.9e-12 (ladder) and 2.9e-11
# (crossed) at (2, 20) and by 1.4e-11 at (1, 10); see ROADMAP item 2.


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rabi=st.floats(0.3, 20.0), ratio=st.floats(-1.0, 1.0))
def test_production_matches_compact_over_the_drive_plane(rabi, ratio):
    _assert_matches_compact(drive(rabi, ratio * rabi))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(rabi=st.floats(0.5 - 1e-6, 0.5 + 1e-6))
def test_production_matches_compact_around_the_jordan_point(rabi):
    _assert_matches_compact(drive(rabi))


# -------------------------------------------------------- density symmetries


def test_densities_even_at_resonance():
    nus = np.linspace(-6.0, 6.0, 25)
    for channel in [spectra.inelastic_ladder, spectra.inelastic_crossed]:
        values = channel(drive(2.0), nus=nus).values
        assert np.max(np.abs(values - values[::-1])) < 1e-13


def test_joint_reflection_of_detuning_and_frequency():
    nus = np.array([-1.0, 0.4, 2.0])
    plus = spectra.inelastic_ladder(drive(1.5, 0.8), nus=nus).values
    minus = spectra.inelastic_ladder(drive(1.5, -0.8), nus=-nus[::-1]).values[::-1]
    assert np.max(np.abs(plus - minus)) < 1e-15


def test_strong_drive_background_dips_negative():
    # the averaged background is an interference quantity itself: near
    # saturation the extinction cross term outweighs the rescattered
    # fluorescence around the line centre
    g = spectra.inelastic_ladder(drive(2.0), nus=np.array([-0.5, 0.0, 0.5]))
    assert np.all(g.values < 0.0)
    assert abs(g.values[1] - (-0.0037259867792889968)) < 1e-12


# --------------------------------------------------------- defective drives


def test_jordan_block_drive_is_healed():
    # rabi = gamma/2 on resonance makes the single-atom generator
    # defective; neither the production route (the two-atom equations,
    # solved directly) nor the closed form (integrated by quadrature over
    # stacked resolvents) needs its eigenbasis, so both stay exact there
    # and production stays smooth in the detuning
    lad = spectra.elastic_weights(drive(0.5))[0]
    assert abs(lad - 0.007209981917089566) < 1e-12
    assert abs(residues.compact_elastic_ladder(drive(0.5)) - lad) < 1e-12 * abs(lad)
    for delta in (1e-4, -1e-4):
        # the weight is even in the detuning: only its O(delta^2)
        # curvature shows, 1.4e-9 relative at this step
        neighbour = spectra.elastic_weights(drive(0.5, delta))[0]
        assert abs(lad - neighbour) < 1e-8 * abs(lad)
    nus = np.array([-0.7, 0.0, 0.7])
    g = spectra.inelastic_ladder(drive(0.5), nus=nus)
    assert np.all(np.isfinite(g.values))
    assert abs(g.values[0] - g.values[2]) < 1e-10
    oracle = residues.compact_channels(drive(0.5), nus)[0].values
    assert np.max(np.abs(g.values - oracle)) < 1e-12 * np.max(np.abs(oracle))


def test_weak_degenerate_drive_is_healed():
    d = drive(1e-3)
    lad, cro = spectra.elastic_weights(d)
    assert np.isfinite(lad) and lad > 0.0
    assert abs(cro / lad - 1.0000009999863124) < 1e-9


# ----------------------------------------------------------- assembled result


def test_cbs_spectra_assembles_channels():
    nus = np.linspace(-9.0, 9.0, 31)
    d = drive(2.0)
    result = cbs_spectra(d, nus=nus)
    assert result.drive == d
    assert np.array_equal(result.ladder.nu, nus)
    assert np.array_equal(result.crossed.nu, nus)
    assert result.elastic_ladder == spectra.elastic_weights(d)[0]
    assert result.elastic_crossed == spectra.elastic_weights(d)[1]
    assert result.enhancement == 1.0 + result.crossed.total / result.ladder.total


def test_enhancement_convention_on_synthetic_channels():
    # total backward signal over background, from both channels' weights
    nu = np.array([-1.0, 0.0, 1.0])
    ladder = SpectralFunctionGrid(nu, np.array([0.0, 0.3, 0.0]), elastic_weight=0.2)
    crossed = SpectralFunctionGrid(nu, np.zeros(3), elastic_weight=0.1)
    result = CbsResult(drive=drive(1.0), ladder=ladder, crossed=crossed)
    assert result.enhancement == 1.0 + 0.1 / 0.6
    empty = SpectralFunctionGrid(nu, np.zeros(3), elastic_weight=0.0)
    with pytest.raises(ValueError, match="background channel is empty"):
        CbsResult(drive=drive(1.0), ladder=empty, crossed=crossed)


def test_zero_drive_rejected():
    with pytest.raises(ValueError):
        cbs_spectra(drive(0.0), nus=np.array([-1.0, 0.0, 1.0]))


def test_weak_drive_enhancement_doubles():
    d = drive(1e-3)
    result = cbs_spectra(d, nus=default_grid(d, points=201))
    assert abs(result.enhancement - 2.0) < 1e-3


@settings(max_examples=15, deadline=None)
@given(
    rabi=st.floats(0.7, 5.0),
    delta=st.floats(-3.0, 3.0),
)
def test_elastic_weights_are_finite_reals(rabi, delta):
    lad, cro = spectra.elastic_weights(drive(rabi, delta))
    assert np.isfinite(lad) and np.isfinite(cro)
    assert isinstance(lad, float) and isinstance(cro, float)
