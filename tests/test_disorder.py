"""Tests for configuration sampling, selection rules, and Monte-Carlo averages."""

import tracemalloc

import numpy as np
import pytest

from cbs2atom import disorder

from cbs2atom.atom import AtomDriveParams
from cbs2atom.disorder import (
    _EXCHANGE_CHARGE,
    BookkeepingError,
    ConfigSampler,
    _gauge_weights,
    WINDOW_START,
    monte_carlo_spectra,
    select_surviving,
)
from cbs2atom.spectra import cbs_spectra
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    DEGREE_TWO_MONOMIALS,
    LADDER_MONOMIAL,
    ScatteringConfig,
    assemble,
    canonical_configuration,
    fixed_config_spectrum,
)
from oracles import _reduce

DRIVE = AtomDriveParams(rabi=2.0, delta=0.0)
#: rabi = gamma/2 on resonance: the single-atom generator is defective
JORDAN = AtomDriveParams(rabi=0.5, delta=0.0)

#: observable of ``FixedConfigSpectra`` and the gauge charge it adds
OBSERVABLES = (("autocorrelation", 0), ("exchange", _EXCHANGE_CHARGE),
               ("elastic_autocorrelation", 0), ("elastic_exchange", _EXCHANGE_CHARGE))


def small_sampler(seed=3, samples=1000):
    return ConfigSampler(samples=samples, seed=seed)


def configurations(sampler):
    """The samples of ``sampler.geometry()``, one `ScatteringConfig` each."""
    geometry = sampler.geometry()
    return [ScatteringConfig.from_separation(x, direction=direction)
            for x, direction in zip(geometry.separation, geometry.direction)]


# ---- surviving-term selection ----


def test_selection_requires_monomial_tags():
    with pytest.raises(BookkeepingError):
        select_surviving({"12": 1.0}, "ladder")
    with pytest.raises(BookkeepingError):
        select_surviving({("xx",): 1.0}, "ladder")


def test_selection_rejects_unknown_channel():
    with pytest.raises(ValueError):
        select_surviving({LADDER_MONOMIAL: 1.0}, "diagonal")


def test_net_distance_phase_terms_are_dropped():
    tagged = {("12", "12"): 5.0, ("21", "21"): 7.0, ("12",): 1.0, (): 2.0}
    assert select_surviving(tagged, "ladder") == {}
    assert select_surviving(tagged, "crossed") == {}


def test_ladder_keeps_the_balanced_pair():
    tagged = {LADDER_MONOMIAL: 3.0, CROSSED_MONOMIAL: 4.0}
    assert select_surviving(tagged, "ladder") == {LADDER_MONOMIAL: 3.0}


def test_crossed_keeps_double_forward_with_detection_phase():
    tagged = {LADDER_MONOMIAL: 3.0, CROSSED_MONOMIAL: 4.0}
    phase = np.exp(0.7j)
    out = select_surviving(tagged, "crossed", phase)
    assert out == {CROSSED_MONOMIAL: 4.0 * phase}


def test_selected_channels_are_configuration_invariant():
    # the per-coupling-power selected values must not depend on distance
    # or orientation at all: distance phases cancel within the balanced
    # monomials and the detection phase cancels the crossed laser phase
    nus = np.array([0.0, 1.7])
    reference = None
    for config in configurations(small_sampler(seed=11))[:6]:
        gen = assemble(config, DRIVE)
        spec = fixed_config_spectrum(gen, nus)
        power = 4.0 * abs(config.coupling) ** 2
        phase = np.exp(1j * config.phase_difference)
        values = np.concatenate([
            select_surviving(spec.autocorrelation, "ladder")[LADDER_MONOMIAL],
            select_surviving(spec.exchange, "crossed", phase)[CROSSED_MONOMIAL],
            [select_surviving(spec.elastic_autocorrelation, "ladder")[LADDER_MONOMIAL]],
            [select_surviving(spec.elastic_exchange, "crossed", phase)[CROSSED_MONOMIAL]],
        ]) / power
        if reference is None:
            reference = values
        assert np.max(np.abs(values - reference)) < 1e-12 * np.max(np.abs(reference))


# ---- geometry sampler ----


def test_sampler_validates_window_and_size():
    # the window is the module's constant, not a sampler field
    with pytest.raises(TypeError):
        ConfigSampler(x_start=10.0)
    with pytest.raises(ValueError):
        ConfigSampler(samples=10)


def test_sampler_draws_inside_window_with_isotropic_orientations():
    sampler = small_sampler(seed=5)
    seps = []
    mean_dir = np.zeros(3)
    for config in configurations(sampler):
        seps.append(config.separation)
        mean_dir += (config.r1 - config.r2) / config.separation
    seps = np.array(seps)
    assert np.all(seps >= WINDOW_START) and np.all(seps <= sampler.x_stop)
    width = sampler.x_stop - WINDOW_START
    assert abs(seps.mean() - (WINDOW_START + width / 2)) < 3 * width / np.sqrt(12 * len(seps))
    assert np.max(np.abs(mean_dir / len(seps))) < 5 / np.sqrt(len(seps))


@pytest.mark.parametrize("seed", [3, 29])
def test_geometry_arrays_match_the_sampled_configurations(seed):
    sampler = ConfigSampler(samples=1000, seed=seed)
    geometry = sampler.geometry()
    configs = configurations(sampler)
    coupling = np.array([c.coupling for c in configs])
    phase_difference = np.array([c.phase_difference for c in configs])
    assert geometry.separation.shape == (1000,) and geometry.direction.shape == (1000, 3)
    assert np.all(np.abs(geometry.coupling - coupling) <= 1e-12 * np.abs(coupling))
    assert np.all(np.abs(geometry.phase_difference - phase_difference)
                  <= 1e-12 * np.abs(phase_difference))


class _ZeroRowGenerator:
    """Draws like ``default_rng(0)``, but the first direction block has a
    zero row 5."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.direction_shapes = []

    def uniform(self, low, high, size):
        return self.rng.uniform(low, high, size)

    def standard_normal(self, shape):
        self.direction_shapes.append(shape)
        block = self.rng.standard_normal(shape)
        if len(self.direction_shapes) == 1:
            block[5] = 0.0
        return block


def test_geometry_redraws_a_vanishing_direction():
    stub = _ZeroRowGenerator()
    direction = small_sampler().geometry(stub).direction
    assert stub.direction_shapes == [(1000, 3), (1, 3)]
    assert np.linalg.norm(direction[5]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.linalg.norm(direction, axis=1), 1.0, rtol=0, atol=1e-12)


def test_geometry_chunks_are_slices_of_the_geometry():
    # the chunked draw reads the same random stream as the one-shot draw
    sampler = small_sampler(seed=5, samples=2500)
    whole = sampler.geometry()
    chunks = list(sampler.geometry_chunks(1000))
    assert [len(chunk.separation) for chunk in chunks] == [1000, 1000, 500]
    assert np.array_equal(np.concatenate([c.separation for c in chunks]), whole.separation)
    assert np.array_equal(np.concatenate([c.direction for c in chunks]), whole.direction)


def test_sampler_is_deterministic_given_seed():
    a = [c.r2 for c in configurations(small_sampler(seed=9))]
    b = [c.r2 for c in configurations(small_sampler(seed=9))]
    assert np.array_equal(np.array(a), np.array(b))


# ---- scalar Monte-Carlo averaging ----


def test_constant_observable_is_exact_with_zero_error():
    sampler = small_sampler()
    result = _reduce(np.full_like(sampler.geometry().separation, 2.5), sampler.samples)
    assert result.mean == 2.5
    assert result.stderr == 0.0
    assert result.samples == 1000


def test_double_forward_distance_phase_averages_to_zero():
    sampler = small_sampler(seed=2)
    x = sampler.geometry().separation
    result = _reduce(np.exp(-2j * x) / x ** 2, sampler.samples)
    assert abs(result.mean) <= 3 * result.stderr
    # and it is genuinely small compared with the coupling-power scale
    assert abs(result.mean) < 0.05 * small_sampler().coupling_power_mean


def test_coupling_power_sample_mean_matches_window_integral():
    sampler = small_sampler(seed=4)
    result = _reduce(np.abs(sampler.geometry().coupling) ** 2, sampler.samples)
    analytic = sampler.coupling_power_mean / 4.0
    assert abs(result.mean - analytic) <= 3 * result.stderr
    assert analytic == pytest.approx(9.0 / (4 * WINDOW_START ** 2), rel=0.3)


def test_disjoint_seeds_agree_within_combined_errors():
    def average(sampler):
        geometry = sampler.geometry()
        values = np.abs(geometry.coupling) ** 2 * geometry.separation
        return _reduce(values, sampler.samples)
    first = average(small_sampler(seed=21))
    second = average(small_sampler(seed=22))
    combined = np.hypot(first.stderr, second.stderr)
    assert abs(first.mean - second.mean) <= 3 * combined


# ---- spectrum Monte Carlo vs analytic selection ----


def selected_prediction(nus):
    # selected values per coupling power are configuration independent,
    # so one configuration gives the exact analytic-selection prediction
    config = configurations(small_sampler())[0]
    gen = assemble(config, DRIVE)
    spec = fixed_config_spectrum(gen, nus)
    power = 4.0 * abs(config.coupling) ** 2
    phase = np.exp(1j * config.phase_difference)
    return {
        "ladder": 2 * select_surviving(spec.autocorrelation, "ladder")[LADDER_MONOMIAL] / power,
        "crossed": 2 * select_surviving(spec.exchange, "crossed", phase)[CROSSED_MONOMIAL] / power,
        "elastic_ladder": 2 * select_surviving(
            spec.elastic_autocorrelation, "ladder")[LADDER_MONOMIAL] / power,
        "elastic_crossed": 2 * select_surviving(
            spec.elastic_exchange, "crossed", phase)[CROSSED_MONOMIAL] / power,
    }


def test_monte_carlo_spectra_match_analytic_selection():
    nus = np.array([0.0, 1.7])
    prediction = selected_prediction(nus)
    averaged = monte_carlo_spectra(DRIVE, small_sampler(seed=7), nus)
    for name, field in [("ladder", averaged.ladder),
                        ("crossed", averaged.crossed),
                        ("elastic_ladder", averaged.elastic_ladder),
                        ("elastic_crossed", averaged.elastic_crossed)]:
        deviation = np.abs(field.mean - prediction[name])
        assert np.all(deviation <= 3 * field.stderr + 1e-12), name


def test_phased_monomials_carry_the_sample_variance():
    # averaging only the surviving monomial gives a configuration-free
    # estimator; the error bars of the full estimator come entirely from
    # the phased monomials that average to zero.  The filtered estimator
    # weights the canonical monomial per sample, as monte_carlo_spectra
    # does (the factorisation is checked against brute-force solves below)
    nus = np.array([0.5])
    sampler = small_sampler(seed=7)
    full = monte_carlo_spectra(DRIVE, sampler, nus)
    _, coupling, delta = sampled_geometry(sampler)
    kept = canonical_spectrum(DRIVE, nus).autocorrelation[LADDER_MONOMIAL][0]
    weight = _gauge_weights([LADDER_MONOMIAL], coupling, delta, 0)[:, 0]
    filtered = 2.0 * weight * kept / (4.0 * np.abs(coupling) ** 2)
    tight = _reduce(filtered, sampler.samples)
    assert tight.stderr < full.ladder.stderr[0] / 100
    assert abs(tight.mean - full.ladder.mean[0]) <= 3 * full.ladder.stderr[0]


# ---- gauge factorisation of the sampled spectra ----


def canonical_spectrum(drive, nus):
    return fixed_config_spectrum(
        assemble(canonical_configuration(), drive, coupling=1.0), nus)


def sampled_geometry(sampler):
    configs = configurations(sampler)
    return (configs, np.array([c.coupling for c in configs]),
            np.array([c.phase_difference for c in configs]))


@pytest.mark.parametrize("drive", [DRIVE, AtomDriveParams(rabi=1.3, delta=0.8), JORDAN],
                         ids=["rabi2", "rabi1.3-det0.8", "jordan"])
def test_factorised_samples_match_brute_force_solves(drive):
    # the gauge identity, checked without it: each of 20 sampled
    # geometries is assembled and solved on its own, and every monomial
    # must equal the canonical one times T^a conj(T)^b exp(i n Delta);
    # the bound covers rounding in two independent 15-dimensional solves
    nus = np.array([-3.0, 0.0, 1.7])
    configs, coupling, delta = sampled_geometry(small_sampler(seed=13))
    configs, coupling, delta = configs[:20], coupling[:20], delta[:20]
    canonical = canonical_spectrum(drive, nus)
    for i, config in enumerate(configs):
        brute = fixed_config_spectrum(assemble(config, drive), nus)
        for name, charge in OBSERVABLES:
            expected, unit = getattr(brute, name), getattr(canonical, name)
            assert set(expected) == set(unit), name
            monomials = list(unit)
            weights = _gauge_weights(monomials, coupling[i:i + 1], delta[i:i + 1], charge)[0]
            for weight, mono in zip(weights, monomials):
                # relative to the monomial's own peak: the structurally
                # vanishing monomials must vanish exactly on both sides
                deviation = np.max(np.abs(weight * unit[mono] - expected[mono]))
                assert deviation <= 1e-12 * np.max(np.abs(expected[mono])), (i, name, mono)


def test_monomial_space_reduction_matches_materialised_samples():
    # the per-sample spectra of the parent estimator, materialised from
    # the (brute-force checked) factorised monomials and reduced sample
    # by sample, against the reduction in monomial space
    nus = np.array([0.0, 1.7, 4.0])
    sampler = small_sampler(seed=7)
    averaged = monte_carlo_spectra(DRIVE, sampler, nus)
    _, coupling, delta = sampled_geometry(sampler)
    canonical = canonical_spectrum(DRIVE, nus)
    phase = np.exp(1j * delta)
    fields = {"autocorrelation": averaged.ladder, "exchange": averaged.crossed,
              "elastic_autocorrelation": averaged.elastic_ladder,
              "elastic_exchange": averaged.elastic_crossed}
    for name, charge in OBSERVABLES:
        tagged = getattr(canonical, name)
        monomials = list(tagged)
        values = _gauge_weights(monomials, coupling, delta, charge) @ np.array(
            [tagged[m] for m in monomials])
        values = 2.0 * (values if charge == 0 else (phase * values.T).T)
        expected = _reduce(values, sampler.samples, sampler.coupling_power_mean)
        got = fields[name]
        assert got.samples == expected.samples
        assert np.all(np.abs(got.mean - expected.mean) <= 1e-12 * np.abs(expected.mean)), name
        assert np.all(np.abs(got.stderr - expected.stderr) <= 1e-12 * expected.stderr), name


@pytest.mark.parametrize("drive", [DRIVE, JORDAN], ids=["rabi2", "jordan"])
def test_selection_rule_holds_at_scale(drive):
    # 2e4 samples against production; at the Jordan point the compact
    # oracle raises, so this is its independent check there
    nus = np.array([-4.0, -2.0, 0.0, 0.6, 2.5])
    averaged = monte_carlo_spectra(drive, small_sampler(seed=17, samples=20_000), nus)
    result = cbs_spectra(drive, nus=nus)
    for field, channel in ((averaged.ladder, result.ladder), (averaged.crossed, result.crossed)):
        floor = 1e-12 * np.max(np.abs(channel.values))
        deviation = np.abs(np.real(field.mean) / np.pi - channel.values)
        assert np.all(deviation <= 5 * field.stderr / np.pi + floor)
    for field, weight in ((averaged.elastic_ladder, result.elastic_ladder),
                          (averaged.elastic_crossed, result.elastic_crossed)):
        assert abs(np.real(field.mean) - weight) <= 5 * field.stderr + 1e-12 * abs(weight)



# ---- memory of the Monte-Carlo route ----


def test_chunked_weight_moments_equal_one_pass(monkeypatch):
    # five chunks combined by the pairwise update against one pass over
    # every sample: equal to rounding
    sampler = small_sampler(seed=11, samples=5000)
    whole = disorder._weight_moments(sampler, DEGREE_TWO_MONOMIALS, (0, 2))
    monkeypatch.setattr(disorder, "SAMPLE_CHUNK", 1000)
    chunked = disorder._weight_moments(sampler, DEGREE_TWO_MONOMIALS, (0, 2))
    for (mean, covariance, count), (want_mean, want_covariance, want_count) in zip(chunked, whole):
        assert count == want_count == 5000
        assert np.max(np.abs(mean - want_mean)) <= 1e-14 * np.max(np.abs(want_mean))
        assert (np.max(np.abs(covariance - want_covariance))
                <= 1e-13 * np.max(np.abs(want_covariance)))


def traced_peak(drive, sampler, nus):
    tracemalloc.start()
    try:
        monte_carlo_spectra(drive, sampler, nus)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_is_flat_in_the_grid():
    # the canonical solve runs in frequency blocks and each block is reduced
    # before the next: 6001 points peak about as high as 601 (one block of
    # 601 against blocks of up to spectra.BLOCK_PAIRS = 1024), not ten times
    sampler = small_sampler(seed=1)
    short = traced_peak(DRIVE, sampler, np.linspace(-15.0, 15.0, 601))
    long = traced_peak(DRIVE, sampler, np.linspace(-15.0, 15.0, 6001))
    assert long <= 2 * short


def test_oracle_memory_is_flat_in_the_samples(monkeypatch):
    # samples are drawn and weighted a chunk at a time: eight chunks peak
    # as high as two
    monkeypatch.setattr(disorder, "SAMPLE_CHUNK", 1000)
    nus = np.linspace(-15.0, 15.0, 9)
    two = traced_peak(DRIVE, small_sampler(samples=2000), nus)
    eight = traced_peak(DRIVE, small_sampler(samples=8000), nus)
    assert eight <= 1.05 * two
