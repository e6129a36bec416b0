"""Tests for the bichromatic pump-probe solver and correlation extraction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbs2atom import atom, linalg, pumpprobe
from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    N1,
    N2,
    AtomDriveParams,
    build,
    delta_sigma_first,
    delta_sigma_second,
    mollow_p0,
    p2,
    p_minus,
    p_plus,
)
from cbs2atom.pumpprobe import (
    BichromaticDrive,
    TruncationError,
    channel_densities,
    correlation_coefficient,
    equivalence_report,
    extracted_functions,
    floquet_state,
    harmonic_orders,
    periodic_state,
    time_domain_coefficient,
)
from cbs2atom.linalg import resolve
from cbs2atom.spectra import cbs_spectra

PUMP = AtomDriveParams(rabi=2.0, delta=0.5)


def make_drive(w=1.3, v_plus=0.0, v_minus=0.0, rabi=2.0, delta=0.5):
    pump = AtomDriveParams(rabi=rabi, delta=delta)
    return BichromaticDrive(pump=pump, probe_detuning=w,
                            v_plus=v_plus, v_minus=v_minus)


# ---- drive container and stationary harmonic hierarchy ----


def test_drive_rejects_nonfinite_probe():
    with pytest.raises(ValueError):
        BichromaticDrive(pump=PUMP, probe_detuning=float("nan"))
    with pytest.raises(ValueError):
        BichromaticDrive(pump=PUMP, probe_detuning=1.0, v_plus=float("inf"))


def test_drive_rejects_complex_probe_detuning():
    with pytest.raises(ValueError, match="real"):
        BichromaticDrive(pump=AtomDriveParams(rabi=2.0), probe_detuning=1 + 1j)


def test_perturbative_flag_tracks_amplitude_ratio():
    assert make_drive(v_plus=1e-3).is_perturbative
    assert not make_drive(v_plus=0.5).is_perturbative


def test_zeroth_order_is_pump_steady_state():
    orders = harmonic_orders(build(PUMP), 1.3)
    assert np.allclose(orders[(0, 0)], build(PUMP).steady, rtol=0, atol=1e-14)


@pytest.mark.parametrize("w", [1.3, -3.2, 0.0])
def test_first_order_harmonics_match_linear_response(w):
    system = build(PUMP)
    orders = harmonic_orders(system, w)
    assert np.allclose(orders[(1, 0)], delta_sigma_first(system, -1, w), rtol=0, atol=1e-13)
    assert np.allclose(orders[(0, 1)], delta_sigma_first(system, 1, w), rtol=0, atol=1e-13)


def test_mixed_order_matches_quadratic_response():
    orders = harmonic_orders(build(PUMP), 2.1)
    assert np.allclose(orders[(1, 1)], delta_sigma_second(build(PUMP), 2.1),
                       rtol=0, atol=1e-13)


# ---- correlation delta coefficients vs the closed-form response chains ----


def test_zero_probe_channel_recovers_inelastic_density():
    drive = make_drive()
    system = build(PUMP)
    for nu in (0.0, 0.7, -2.4, 4.1):
        got = correlation_coefficient(drive, (0, 0), nu) / (2 * np.pi)
        assert abs(got - mollow_p0(system, nu)) < 1e-12


@pytest.mark.parametrize("rabi,delta,w", [
    (2.0, 0.5, 1.3),
    (0.5, 0.0, -2.0),
    (5.0, 3.0, 0.0),
    (2.0, 1.0, 4.7),
])
def test_probe_derivatives_match_response_chains(rabi, delta, w):
    # plus-probe derivative pairs with the lowering-response chain on its
    # shifted support line, minus-probe with the raising-response chain,
    # and the mixed derivative with the two-photon chain.
    drive = make_drive(w=w, rabi=rabi, delta=delta)
    system = build(drive.pump)
    for nu in (-3.1, 0.4, 2.8):
        c10 = correlation_coefficient(drive, (1, 0), nu)
        c01 = correlation_coefficient(drive, (0, 1), nu)
        c11 = correlation_coefficient(drive, (1, 1), nu)
        assert abs(c10 - p_minus(system, w, nu + w)) < 1e-12
        assert abs(c01 - p_plus(system, w, nu)) < 1e-12
        assert abs(c11 - p2(system, w, nu)) < 1e-12


def chain_reference(pump, w, order, nu):
    """Delta coefficient transcribed chain by chain, one dense solve per
    chain step."""
    system = build(pump)
    orders = harmonic_orders(system, w, *order)
    couplers = {"+": DELTA_MINUS, "-": DELTA_PLUS}
    steps = {"+": 1, "-": -1}

    def solve(vec, z):
        return resolve(system.M, z, vec[:, None], system.eigenvalues)[:, 0]

    def initial(a, b, coupler, affine, index):
        vec = coupler @ orders[(a, b)] + (affine if a == b == 0 else 0.0)
        for ap in range(a + 1):
            for bp in range(b + 1):
                vec = vec - orders[(ap, bp)][index] * orders[(a - ap, b - bp)]
        return vec

    p, q = order
    total = 0j
    for a in range(p + 1):
        for b in range(q + 1):
            for seq in set(itertools.permutations("+" * (p - a) + "-" * (q - b))):
                k = a - b
                vec = solve(initial(a, b, 1j * DELTA_MINUS, N1, 1), -1j * (nu + k * w))
                for symbol in seq:
                    k += steps[symbol]
                    vec = solve(couplers[symbol] @ vec, -1j * (nu + k * w))
                total += vec[0]
                k = sum(steps[symbol] for symbol in seq)
                vec = solve(initial(a, b, -1j * DELTA_PLUS, N2, 0), 1j * (nu + k * w))
                for symbol in seq:
                    k -= steps[symbol]
                    vec = solve(couplers[symbol] @ vec, 1j * (nu + k * w))
                total += vec[1]
    return total


@pytest.mark.parametrize("rabi,delta", [(2.0, 0.0), (1.3, 0.8), (0.5, 0.0)],
                         ids=["rabi2", "detuned", "jordan"])
@pytest.mark.parametrize("order", [(1, 1), (0, 1)])
def test_shared_inverses_match_per_step_solves(rabi, delta, order):
    # each resolvent argument inverted once and shared by every chain
    # reproduces one solve per chain step
    pump = AtomDriveParams(rabi=rabi, delta=delta)
    for w in (1.3, -2.0):
        drive = BichromaticDrive(pump=pump, probe_detuning=w)
        for nu in (-3.1, 0.0, 0.7, 4.2):
            ref = chain_reference(pump, w, order, nu)
            got = correlation_coefficient(drive, order, nu)
            assert abs(got - ref) <= 1e-13 * abs(ref), (w, nu)


def test_channel_pairing_is_not_the_naive_one():
    # with detuned pump the two first-derivative channels are genuinely
    # different functions; pairing plus-probe with the raising chain at
    # the unshifted frequency misses by tens of percent
    drive = make_drive(w=1.3)
    system = build(PUMP)
    c10 = correlation_coefficient(drive, (1, 0), 0.7)
    wrong = p_plus(system, 1.3, 0.7)
    assert abs(c10 - wrong) > 0.1 * abs(c10)


def test_negative_probe_orders_rejected():
    with pytest.raises(ValueError):
        correlation_coefficient(make_drive(), (-1, 0), 0.0)


@settings(max_examples=40, deadline=None)
@given(rabi=st.floats(0.3, 6.0), delta=st.floats(-3.0, 3.0),
       w=st.floats(-5.0, 5.0), nu=st.floats(-12.0, 12.0))
def test_minus_probe_derivative_property(rabi, delta, w, nu):
    drive = make_drive(w=w, rabi=rabi, delta=delta)
    got = correlation_coefficient(drive, (0, 1), nu)
    ref = p_plus(build(drive.pump), w, nu)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


# ---- equivalence report ----


def test_equivalence_report_small_grid():
    rows = equivalence_report(rabis=(0.5, 2.0), deltas=(0.0, 1.0),
                              nus=np.linspace(-15.0, 15.0, 61),
                              probe_detunings=(-5.0, 0.0, 3.0))
    assert len(rows) == 4
    for row in rows:
        assert row.worst < 1e-6


def test_inelastic_density_symmetric_under_joint_reflection():
    nus = np.linspace(-8.0, 8.0, 41)
    direct = extracted_functions(make_drive(delta=1.7), nus)["p0"]
    mirrored = extracted_functions(make_drive(delta=-1.7), -nus)["p0"]
    assert np.allclose(direct, mirrored, rtol=0, atol=1e-14)


# ---- averaged channels from the extracted correlations ----

#: rabi = gamma/2 on resonance: the single-atom generator is defective
JORDAN = AtomDriveParams(rabi=0.5, delta=0.0)
NUS_CHANNELS = np.linspace(-6.0, 6.0, 5)


@pytest.mark.parametrize("pump", [AtomDriveParams(rabi=2.0), JORDAN],
                         ids=["rabi2", "jordan"])
def test_channel_densities_match_production_channels(pump):
    # on the channel signal scale (peak density times the decay rate plus
    # the elastic weight), within the documented inner-grid accuracy
    got = channel_densities(pump, NUS_CHANNELS)
    result = cbs_spectra(pump, nus=NUS_CHANNELS)
    assert np.array_equal(got["nu"], NUS_CHANNELS)
    for name, channel in (("ladder", result.ladder), ("crossed", result.crossed)):
        scale = np.max(np.abs(channel.values)) + abs(channel.elastic_weight)
        assert np.max(np.abs(got[name] - channel.values)) <= 1e-3 * scale, name


def test_channel_densities_do_not_mix_emission_frequencies():
    pump = AtomDriveParams(rabi=1.3, delta=0.8)
    grid = channel_densities(pump, NUS_CHANNELS)
    alone = channel_densities(pump, NUS_CHANNELS[3:4])
    for name in ("ladder", "crossed"):
        scale = np.max(np.abs(grid[name]))
        assert abs(alone[name][0] - grid[name][3]) <= 1e-14 * scale, name


def test_channel_densities_invert_each_chain_argument_once(monkeypatch):
    # per emission frequency: the mixed coefficient needs 6 inverses (two
    # time orderings times net photon shifts -1, 0, 1), the forward and the
    # reflected one-probe coefficients 4 each, and the reflected harmonic
    # order 1; one solve per chain step would take 35
    calls = []
    original = linalg.resolve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (linalg, atom, pumpprobe):
        monkeypatch.setattr(module, "resolve", counting, raising=False)
    counts = []
    for nus in ([0.3], [0.3, 1.1]):
        calls.clear()
        channel_densities(AtomDriveParams(rabi=2.0), nus)
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 15
    assert counts[0] <= 45


@pytest.mark.parametrize("nus", [0.3, [[0.3, 1.1]]], ids=["scalar", "2d"])
def test_channel_densities_reject_non_vector_frequencies(nus):
    with pytest.raises(ValueError, match="1-D"):
        channel_densities(PUMP, nus, inner_points=5)


@pytest.mark.parametrize("count", [401.0, "401"])
def test_channel_densities_reject_non_integer_inner_points(count):
    with pytest.raises(ValueError, match="inner_points must be an integer"):
        channel_densities(PUMP, [0.3], inner_points=count)


@pytest.mark.parametrize("width", [-25.0, 0.0, float("nan"), float("inf")])
def test_channel_densities_reject_bad_inner_width(width):
    # a negative width would reverse the inner grid and flip the sign of
    # both convolutions
    with pytest.raises(ValueError, match="inner_half_width"):
        channel_densities(PUMP, [0.3], inner_half_width=width, inner_points=201)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_channel_densities_reject_nonfinite_frequencies(bad):
    with pytest.raises(ValueError, match="finite"):
        channel_densities(PUMP, [0.3, bad], inner_points=5)


# ---- nonperturbative harmonic lattice ----


def test_floquet_without_probes_is_the_steady_state():
    harmonics = floquet_state(make_drive(), n_harmonics=4)
    assert np.allclose(harmonics[0], build(PUMP).steady, rtol=0, atol=1e-13)
    for n in harmonics:
        if n != 0:
            assert np.max(np.abs(harmonics[n])) < 1e-15


def test_floquet_sidebands_match_perturbative_coefficients():
    h = 2e-3
    drive = make_drive(v_plus=h, v_minus=0.5 * h)
    harmonics = floquet_state(drive, n_harmonics=6)
    # order (p, q) populates the single harmonic p - q
    orders = harmonic_orders(build(PUMP), drive.probe_detuning)
    for n, ref in [(1, h * orders[(1, 0)]),
                   (-1, 0.5 * h * orders[(0, 1)])]:
        assert np.max(np.abs(harmonics[n] - ref)) < 1e-5 * np.max(np.abs(ref))
    mixed = build(PUMP).steady + 0.5 * h * h * orders[(1, 1)]
    assert np.max(np.abs(harmonics[0] - mixed)) < 1e-12


def test_floquet_doubling_harmonic_count_is_converged():
    drive = make_drive(v_plus=2e-3, v_minus=1e-3)
    small = floquet_state(drive, n_harmonics=6)
    large = floquet_state(drive, n_harmonics=12)
    worst = max(np.max(np.abs(small[n] - large[n])) for n in small)
    assert worst < 1e-9


def test_floquet_truncation_guard_trips_on_strong_probe():
    with pytest.raises(TruncationError):
        floquet_state(make_drive(v_plus=0.6, v_minus=0.6), n_harmonics=1)


def test_floquet_rejects_degenerate_lattice():
    with pytest.raises(ValueError):
        floquet_state(make_drive(w=0.0))
    with pytest.raises(ValueError):
        floquet_state(make_drive(), n_harmonics=0)


def test_periodic_state_sums_harmonics():
    drive = make_drive(v_plus=1e-3)
    harmonics = floquet_state(drive, n_harmonics=4)
    t = 0.37
    direct = sum(np.exp(-1j * n * drive.probe_detuning * t) * vec
                 for n, vec in harmonics.items())
    assert np.allclose(periodic_state(harmonics, drive.probe_detuning, t),
                       direct, rtol=0, atol=0)


# ---- brute-force time-domain oracle ----

NUS_FD = np.array([0.7, -2.4])
FD_STEP = 1e-3 * PUMP.rabi

_channel_cache = {}


def td_channel(v_plus, v_minus, channel):
    key = (v_plus, v_minus, channel)
    if key not in _channel_cache:
        drive = make_drive(v_plus=v_plus, v_minus=v_minus)
        _channel_cache[key] = time_domain_coefficient(drive, channel, NUS_FD)
    return _channel_cache[key]


def analytic(order):
    return np.array([correlation_coefficient(make_drive(), order, nu)
                     for nu in NUS_FD])


def test_time_domain_zero_probe_matches_extraction():
    got = td_channel(0.0, 0.0, 0)
    ref = analytic((0, 0))
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


def test_time_domain_first_derivative_matches_extraction():
    h = FD_STEP
    fd = (td_channel(h, 0.0, 1) - td_channel(-h, 0.0, 1)) / (2 * h)
    ref = analytic((1, 0))
    assert np.max(np.abs(fd - ref)) < 1e-5 * np.max(np.abs(ref))


def test_time_domain_mixed_derivative_matches_extraction():
    h = FD_STEP
    fd = (td_channel(h, h, 0) + td_channel(-h, -h, 0)
          - td_channel(h, -h, 0) - td_channel(-h, h, 0)) / (4 * h * h)
    ref = analytic((1, 1))
    assert np.max(np.abs(fd - ref)) < 1e-5 * np.max(np.abs(ref))
