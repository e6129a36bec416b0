"""Tests for the bichromatic pump-probe solver and correlation extraction."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbs2atom import atom, linalg, pumpprobe, residues
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
    channel_densities,
    equivalence_report,
    extracted_functions,
    harmonic_orders,
)
from cbs2atom.quadrature import line_rule, pole_clusters
from cbs2atom.spectra import cbs_spectra, default_grid, elastic_weights
from oracles import (
    BichromaticDrive,
    TruncationError,
    correlation_coefficient,
    floquet_state,
    periodic_state,
    resolve,
    time_domain_coefficient,
)

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


def chain_reference(pump, w, order, nu, side=None):
    """Delta coefficient transcribed chain by chain, one dense solve per
    chain step.  ``side=+1`` keeps only the chains whose net shift visits
    ``+1``, ``side=-1`` only the others."""
    system = build(pump)
    orders = harmonic_orders(system, w)
    couplers = {"+": DELTA_MINUS, "-": DELTA_PLUS}
    steps = {"+": 1, "-": -1}

    def solve(vec, z):
        return resolve(system.M, z, vec[:, None])[:, 0]

    def initial(a, b, coupler, affine, index):
        vec = coupler @ orders[(a, b)] + (affine if a == b == 0 else 0.0)
        for ap in range(a + 1):
            for bp in range(b + 1):
                vec = vec - orders[(ap, bp)][index] * orders[(a - ap, b - bp)]
        return vec

    def kept(shifts):
        return side is None or (1 in shifts) == (side == 1)

    p, q = order
    total = 0j
    for a in range(p + 1):
        for b in range(q + 1):
            for seq in set(itertools.permutations("+" * (p - a) + "-" * (q - b))):
                k = a - b
                shifts = [k]
                vec = solve(initial(a, b, 1j * DELTA_MINUS, N1, 1), -1j * (nu + k * w))
                for symbol in seq:
                    k += steps[symbol]
                    shifts.append(k)
                    vec = solve(couplers[symbol] @ vec, -1j * (nu + k * w))
                if kept(shifts):
                    total += vec[0]
                k = sum(steps[symbol] for symbol in seq)
                shifts = [k]
                vec = solve(initial(a, b, -1j * DELTA_PLUS, N2, 0), 1j * (nu + k * w))
                for symbol in seq:
                    k -= steps[symbol]
                    shifts.append(k)
                    vec = solve(couplers[symbol] @ vec, 1j * (nu + k * w))
                if kept(shifts):
                    total += vec[1]
    return total


@pytest.mark.parametrize("rabi,delta", [(2.0, 0.0), (1.3, 0.8), (0.5, 0.0)],
                         ids=["rabi2", "detuned", "jordan"])
# the ids order0, order1 and order2 stand for (1, 1), (0, 1) and (1, 0)
@pytest.mark.parametrize("order,side", [((1, 1), None), ((0, 1), None), ((1, 0), None),
                                        ((1, 1), -1), ((1, 1), 1), ((0, 0), None)],
                         ids=["order0", "order1", "order2", "order0-side-1", "order0-side+1",
                              "00"])
def test_shared_inverses_match_per_step_solves(rabi, delta, order, side):
    # each resolvent argument inverted once and shared by every path of the
    # lattice reproduces one solve per chain step, also for each side of
    # the split at net shift +1; at w = 0 both shifts run on the stacks of
    # shift 0, as the emission factors of channel_densities do
    pump = AtomDriveParams(rabi=rabi, delta=delta)
    for w in (1.3, -2.0, 0.0):
        drive = BichromaticDrive(pump=pump, probe_detuning=w)
        for nu in (-3.1, 0.0, 0.7, 4.2):
            ref = chain_reference(pump, w, order, nu, side)
            got = correlation_coefficient(drive, order, nu, side)
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
    report = equivalence_report(np.linspace(-15.0, 15.0, 61))
    assert list(report) == ["p0", "plus", "minus", "mixed"]
    for deviation in report.values():
        assert deviation < 1e-6


def test_equivalence_report_extracts_once_per_probe_detuning(monkeypatch):
    # the zero-probe channel is read off the probe-detuning loop, with no
    # extra extraction at probe detuning 0, and equals that extraction
    calls = []
    original = pumpprobe.extracted_functions

    def counting(system, w, nus):
        calls.append(w)
        return original(system, w, nus)

    monkeypatch.setattr(pumpprobe, "extracted_functions", counting)
    nus = np.linspace(-15.0, 15.0, 61)
    report = equivalence_report(nus)
    assert calls == [-5.0, 0.0, 3.0] * 9
    deviations = []
    for rabi, delta in itertools.product((0.5, 2.0, 5.0), (0.0, 1.0, 3.0)):
        pump = AtomDriveParams(rabi=rabi, delta=delta)
        at_zero = original(build(pump), 0.0, nus)["p0"]
        reference = mollow_p0(build(pump), nus)
        deviations.append(np.max(np.abs(np.real(at_zero) - reference))
                          / np.max(np.abs(reference)))
    assert report["p0"] == max(deviations)


def test_equivalence_report_runs_the_chains_of_the_densities(monkeypatch):
    # the coefficients the report checks come from the written-out chains
    # that every node of channel_densities runs: two calls per extraction,
    # one on the stacks of each net photon shift
    calls = []
    original = pumpprobe._chains

    def counting(*args):
        calls.append(1)
        return original(*args)

    nus = np.linspace(-15.0, 15.0, 61)
    reference = equivalence_report(nus)
    monkeypatch.setattr(pumpprobe, "_chains", counting)
    assert equivalence_report(nus) == reference
    assert len(calls) == 2 * 3 * 9


def test_equivalence_report_inverts_each_argument_once(monkeypatch):
    # per drive, the extraction and the closed forms share their resolvent
    # arguments: the report on 601 points asks for 189 distinct ones (801
    # times), and sharing them leaves every maximum as it was
    calls = []
    original = linalg.inverse3
    nus = np.linspace(-15.0, 15.0, 601)

    def counting(M, z):
        calls.append(np.shape(z))
        return original(M, z)

    monkeypatch.setattr(atom, "inverse3", counting)
    shared = equivalence_report(nus)
    assert len(calls) <= 189
    monkeypatch.setattr(pumpprobe._SharedInverses, "green", atom.BlochSystem.green)
    assert equivalence_report(nus) == shared


def test_shared_inverses_are_formed_once_and_read_only():
    pump = AtomDriveParams(rabi=2.0, delta=1.0)
    bloch = build(pump)
    system = pumpprobe._SharedInverses(pump, bloch.M, bloch.L)
    z = 1j * np.linspace(-3.0, 3.0, 7)
    green = system.green(z)
    assert system.green(z.copy()) is green
    assert np.array_equal(green, bloch.green(z))
    with pytest.raises(ValueError):
        green += 1.0


def test_inelastic_density_symmetric_under_joint_reflection():
    nus = np.linspace(-8.0, 8.0, 41)
    drive, mirror = make_drive(delta=1.7), make_drive(delta=-1.7)
    direct = extracted_functions(build(drive.pump), drive.probe_detuning, nus)["p0"]
    mirrored = extracted_functions(build(mirror.pump), mirror.probe_detuning, -nus)["p0"]
    assert np.allclose(direct, mirrored, rtol=0, atol=1e-14)


# ---- averaged channels from the extracted correlations ----

#: rabi = gamma/2 on resonance: the single-atom generator is defective
JORDAN = AtomDriveParams(rabi=0.5, delta=0.0)
NUS_CHANNELS = np.linspace(-6.0, 6.0, 5)


@pytest.mark.parametrize("pump", [AtomDriveParams(rabi=2.0), JORDAN,
                                  AtomDriveParams(rabi=1.3, delta=0.8),
                                  AtomDriveParams(rabi=20.0, delta=1.5),
                                  AtomDriveParams(rabi=50.0, delta=3.0)],
                         ids=["rabi2", "jordan", "rabi1.3-det0.8", "rabi20-det1.5",
                              "rabi50-det3"])
def test_channel_densities_match_production_channels(pump):
    # within 1e-12 of each channel's peak, across the grid that holds the
    # triplet; measured <= 1.4e-15
    nus = default_grid(pump, points=61)
    got = channel_densities(pump, nus)
    result = cbs_spectra(pump, nus=nus)
    assert np.array_equal(got["nu"], nus)
    for name, channel in (("ladder", result.ladder), ("crossed", result.crossed)):
        scale = np.max(np.abs(channel.values))
        assert np.max(np.abs(got[name] - channel.values)) <= 1e-12 * scale, name


@pytest.mark.parametrize("pump", [AtomDriveParams(rabi=2.0), JORDAN,
                                  AtomDriveParams(rabi=1.3, delta=0.8),
                                  AtomDriveParams(rabi=20.0, delta=1.5),
                                  AtomDriveParams(rabi=50.0, delta=3.0),
                                  AtomDriveParams(rabi=1e-3, delta=1.5)],
                         ids=["rabi2", "jordan", "rabi1.3-det0.8", "rabi20-det1.5",
                              "rabi50-det3", "rabi1e-3-det1.5"])
def test_elastic_weights_from_harmonic_orders(pump):
    # the pump's harmonic orders at zero probe detuning are the closed-form
    # responses bit for bit, so the shared assembly gives the closed form's
    # weights exactly; production's within 1e-13 relative (measured <= 4.6e-15)
    got = channel_densities(pump, [0.0])
    weights = (got["elastic_ladder"], got["elastic_crossed"])
    assert weights == residues.compact_elastic_weights(pump)
    for weight, reference in zip(weights, elastic_weights(pump)):
        assert abs(weight - reference) <= 1e-13 * abs(reference)


def test_pump_probe_route_loads_no_two_atom_module():
    # the method reduces the two-atom problem to one driven atom: in a
    # fresh interpreter its module loads neither the two-atom equations nor
    # production nor the closed-form oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(pumpprobe.__file__)))
    script = ("import sys, cbs2atom.pumpprobe; "
              "print(*sorted(m for m in sys.modules if m.startswith('cbs2atom.')))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["cbs2atom.atom", "cbs2atom.linalg", "cbs2atom.pumpprobe",
                                   "cbs2atom.quadrature"]


def test_channel_densities_do_not_mix_emission_frequencies():
    pump = AtomDriveParams(rabi=1.3, delta=0.8)
    grid = channel_densities(pump, NUS_CHANNELS)
    alone = channel_densities(pump, NUS_CHANNELS[3:4])
    for name in ("ladder", "crossed"):
        scale = np.max(np.abs(grid[name]))
        assert abs(alone[name][0] - grid[name][3]) <= 1e-14 * scale, name


@pytest.mark.parametrize("pump", [AtomDriveParams(rabi=2.0), JORDAN,
                                  AtomDriveParams(rabi=1.3, delta=0.8),
                                  AtomDriveParams(rabi=20.0, delta=1.5)],
                         ids=["rabi2", "jordan", "rabi1.3-det0.8", "rabi20-det1.5"])
def test_paired_frequencies_equal_each_frequency_alone(pump):
    # on a mirror-exact grid -nu reuses the probe-detuning work of nu,
    # reversed: that reuse changes no bit of either frequency
    nus = default_grid(pump, points=7)
    grid = channel_densities(pump, nus)
    for i, nu in enumerate(nus):
        alone = channel_densities(pump, [nu])
        for name in ("ladder", "crossed"):
            assert alone[name][0] == grid[name][i], (name, nu)


def test_channel_densities_memory_is_one_frequency_pair():
    # the work shared by +-nu is kept for the next frequency only: on 201
    # points the peak stays near the 1.3 MB measured, where a memo of every
    # frequency's stacks would grow with the grid
    g = np.linspace(-15.0, 15.0, 201)
    tracemalloc.start()
    try:
        channel_densities(AtomDriveParams(rabi=2.0), 0.5 * g - 0.5 * g[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_channel_densities_invert_each_chain_argument_once(monkeypatch):
    # per emission frequency only +-i u on the nodes of its rule are new,
    # one stack of both (-i u is i(-u), +-i(nu - u) the same stack
    # reversed); set-up forms G(0) and G(+-i nu) over the output grid once,
    # and the elastic weights one stack of G(+-i u) on their own rule.
    # One inverse per argument and coefficient would take 15 per frequency,
    # one solve per chain step 35.  The chains take linalg's one kernel, so
    # it is the one counted
    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return wrapped

    wrapped = counting(linalg.inverse3)
    for module in (linalg, atom, pumpprobe):
        monkeypatch.setattr(module, "inverse3", wrapped, raising=False)
    counts = []
    for nus in ([0.3], [0.3, 1.1], [-0.3, 0.3]):
        calls.clear()
        channel_densities(AtomDriveParams(rabi=2.0), nus)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] - counts[0] == 1
    assert counts[0] <= 5 + 4
    # the nodes of -nu are those of nu negated and reversed: a +-nu pair
    # shares its one stack
    assert counts[2] == counts[0]


def densities_reference(pump, nus):
    """The convolutions of `channel_densities` transcribed one node at a
    time, every factor from the oracle `correlation_coefficient` and the
    public `harmonic_orders`.  The crossed factors run on the nodes of the rule
    over the pole clusters at 0 and nu, placed about nu/2 as in
    `channel_densities`; the whole mixed coefficient, with poles at 0, nu
    and -nu, on the rule over all three."""
    system = build(pump)
    b_minus, b_plus = system.steady[0], system.steady[1]

    def coefficient(w, order, nu):
        drive = BichromaticDrive(pump=pump, probe_detuning=w)
        return correlation_coefficient(drive, order, nu)

    ladder, crossed = [], []
    for nu in nus:
        us, weights = line_rule(pole_clusters(system, (0.0, nu, -nu)))
        p0 = np.array([coefficient(0.0, (0, 0), u) for u in us]) / (2 * np.pi)
        mixed = np.array([coefficient(u, (1, 1), nu) for u in us])
        convolution = weights @ (p0 * mixed)
        offsets, weights = line_rule(pole_clusters(system, (-0.5 * nu, 0.5 * nu)))
        us = 0.5 * nu + offsets
        forward = np.array([coefficient(u, (0, 1), nu) for u in us])
        reflected = np.conj([coefficient(nu - u, (0, 1), nu) for u in us])
        d_minus_up = harmonic_orders(system, -nu)[(1, 0)]
        at_nu = harmonic_orders(system, nu)
        d_minus_down, d_plus_up = at_nu[(1, 0)], at_nu[(0, 1)]
        direct = (coefficient(0.0, (0, 0), nu) / (2 * np.pi)
                  * (abs(d_minus_up[1]) ** 2 + abs(d_plus_up[1]) ** 2))
        pump_elastic = b_plus * b_minus * coefficient(0.0, (1, 1), nu)
        ladder.append(2.0 * np.real(convolution + pump_elastic / (2 * np.pi) + direct))
        edge = (b_plus * d_minus_down[0] * coefficient(0.0, (0, 1), nu)
                + b_minus * d_plus_up[1] * coefficient(0.0, (1, 0), nu))
        crossed.append(2.0 * np.real((weights @ (forward * reflected) + edge) / (2 * np.pi)))
    return {"ladder": np.array(ladder), "crossed": np.array(crossed)}


@pytest.mark.parametrize("pump", [AtomDriveParams(rabi=2.0), JORDAN],
                         ids=["rabi2", "jordan"])
def test_channel_densities_match_per_point_transcription(pump):
    # the transcription forms the reflected factor's one-photon arguments
    # as nu - (nu - u), which differs from u by rounding
    nus = 0.013 + 0.05 * np.array([-97, -20, 0, 7, 51])
    got = channel_densities(pump, nus)
    ref = densities_reference(pump, nus)
    for name in ("ladder", "crossed"):
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(got[name] - ref[name])) <= 1e-12 * scale, name


@pytest.mark.parametrize("nus", [0.3, [[0.3, 1.1]]], ids=["scalar", "2d"])
def test_channel_densities_reject_non_vector_frequencies(nus):
    with pytest.raises(ValueError, match="1-D"):
        channel_densities(PUMP, nus)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_channel_densities_reject_nonfinite_frequencies(bad):
    with pytest.raises(ValueError, match="finite"):
        channel_densities(PUMP, [0.3, bad])


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
