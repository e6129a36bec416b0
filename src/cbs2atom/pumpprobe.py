"""Single atom under bichromatic driving: harmonic response and correlations.

The drive is a strong pump at the atomic rotating-frame origin plus two
weak probe sidebands detuned by ``+w`` and ``-w``.  In the rotating frame
the Rabi amplitude and its counter-rotating partner become

    rabi(t)      = rabi + v_plus * exp(-i w t),
    rabi_conj(t) = conj(rabi) + v_minus * exp(+i w t),

with ``v_plus`` and ``v_minus`` treated as independent complex expansion
variables (their derivatives probe different physical response channels,
so they are not constrained to be conjugates).  The Bloch generator is
linear in these amplitudes; the two probe couplers are exactly the
derivative matrices of the generator with respect to the Rabi pair.

Everything here is an independent computational path: the stationary
harmonic hierarchy and the frequency-resolved dipole correlation are
obtained directly from the time-dependent equations of motion, order by
order in the probe amplitudes, never from the closed-form response chains
they are later compared against.  Only the convolution and the elastic
weights' assembly, which build the averaged channels from them, are shared
with the closed form (:mod:`cbs2atom.quadrature`).
"""

from __future__ import annotations

import itertools

import numpy as np

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    N1,
    N2,
    AtomDriveParams,
    BlochSystem,
    _apply,
    _check_frequencies,
    build,
    mollow_p0,
)
from cbs2atom.atom import p2 as closed_form_p2
from cbs2atom.atom import p_minus as closed_form_p_minus
from cbs2atom.atom import p_plus as closed_form_p_plus
from cbs2atom.quadrature import (
    elastic_weights,
    exchanged_photon_convolution,
    line_rule,
    pole_clusters,
)


def harmonic_orders(system: BlochSystem, w) -> dict:
    """Stationary response to first order in each probe amplitude.

    Returns ``{(p, q): vec}`` for ``p`` and ``q`` in 0 and 1: the Taylor
    coefficient of ``v_plus**p * v_minus**q``, which populates the single
    harmonic ``n = p - q`` (time dependence ``exp(-i n w t)``): a
    plus-probe photon shifts the frequency one step down, a minus-probe
    photon one step up.  Order (0, 0) is the pump-only steady state, shape
    ``(3,)``; each higher order is driven by the two couplers acting on the
    orders with one fewer probe photon and solved at its own harmonic
    frequency, for the whole array of probe detunings ``w`` at once, shape
    ``w.shape + (3,)``.  Order (1, 1) sits on the static harmonic, whose one
    resolvent serves every ``w``.
    """
    greens = {n: system.green(-1j * n * w if n else 0.0) for n in (-1, 0, 1)}
    return _harmonic_orders(system.steady, greens)


def _harmonic_orders(steady: np.ndarray, greens: dict) -> dict:
    """:func:`harmonic_orders` from given resolvents: ``greens[n]`` is
    ``G(-i n w)`` for the harmonics ``n`` = -1, 0 and 1."""
    minus = _apply(greens[-1], steady @ DELTA_PLUS.T)
    plus = _apply(greens[1], steady @ DELTA_MINUS.T)
    return {(0, 0): steady, (0, 1): minus, (1, 0): plus,
            (1, 1): _apply(greens[0], minus @ DELTA_MINUS.T + plus @ DELTA_PLUS.T)}


# ----------------------------------------------------------------------------
# Perturbative extraction of the dipole-correlation delta coefficients.
#
# The connected two-time correlation of raising and lowering dipoles is
# frequency-resolved as C(w1, w2) = integral dt1 dt2 / 2pi of
# exp(-i w1 t1 + i w2 t2) times the connected correlation.  At probe
# order (p, q) the correlation oscillates at the single combination
# frequency (p - q) w, so C is supported on the line w2 = w1 + (p-q) w;
# the coefficient of that delta function, with w1 as the free argument,
# is extracted for the four orders (0, 0), (1, 0), (0, 1) and (1, 1) that
# the averaged channels use.
#
# The computation follows the quantum regression route for the
# time-periodic generator: for each time ordering, the connected
# correlation evolves homogeneously from an initial vector quadratic in
# the periodic state (`_connected_initials`), and the probe couplers act
# along the evolution interval in every order-compatible sequence.  Each
# state (a, b) <= (p, q) applies a pump resolvent whose argument tracks
# the net probe-photon shift k, (-+ i (w1 + k w) - M)^{-1} for the two
# orderings, to its own initial plus the inflow of the states one photon
# below it.  Orders (1, 0) and (0, 1) have one state below them, (0, 0);
# order (1, 1) has the two middle states (1, 0) and (0, 1), one at shift
# +1 and one at -1, each fed by (0, 0).  `_spectrum` reads order (0, 0)
# and `_chains` writes every path of the three others out: the states at
# shift 0 run on G(-+i w1) (`_emitted`), those at shift -1 and +1 on
# stacks the caller forms, so the same products serve one emission
# frequency on a stack of probe detunings and a grid of emission
# frequencies at one probe detuning.  Both orderings are inverted
# directly, not one derived from the other by a symmetry, so the
# extraction shares no symmetry with the closed forms it checks.
# ----------------------------------------------------------------------------


def _connected_initials(orders: dict) -> dict:
    """The initials of the regression states, ``{(a, b): (later_lowering,
    later_raising)}`` for the four orders of ``orders``.

    Each full initial is ``coupler @ state + affine - weight * state`` with
    ``weight`` one state component; expanding both state factors in probe
    orders makes the product term a discrete convolution.  Above order
    ``(0, 0)`` its two terms with the steady state ``s`` are linear in the
    other factor, ``x[w] s + s[w] x``, so they fold into one coupler per
    kind, ``coupler - s[w] I - outer(e_w, s)``.  Only order ``(1, 1)``
    keeps cross-order products, those of ``(0, 1)`` with ``(1, 0)``.
    """
    kinds = ((1j * DELTA_MINUS.T, N1, 1), (-1j * DELTA_PLUS.T, N2, 0))
    steady = orders[0, 0]
    initials = {(0, 0): tuple(steady @ coupler + affine - steady[weight] * steady
                              for coupler, affine, weight in kinds)}
    eye = np.eye(3)
    folded = [(coupler - steady[weight] * eye - np.outer(eye[weight], steady), weight)
              for coupler, _, weight in kinds]
    for key in ((0, 1), (1, 0), (1, 1)):
        initials[key] = tuple(orders[key] @ fold for fold, _ in folded)
    for vec, (_, weight) in zip(initials[1, 1], folded):
        vec -= orders[0, 1][..., weight, None] * orders[1, 0]
        vec -= orders[1, 0][..., weight, None] * orders[0, 1]
    return initials


def _emitted(initials: dict, lowering: np.ndarray, raising: np.ndarray) -> tuple:
    """The products of :func:`_chains` that depend on the emission
    frequency ``nu`` alone, for ``lowering = G(-i nu)`` and ``raising =
    G(i nu)``, one or a stack of them: each applied to its branch's
    order-(0, 0) initial and passed through both couplers, and the row of
    each that reads the last state."""
    down = _apply(lowering, initials[0, 0][0])
    up = _apply(raising, initials[0, 0][1])
    return (down @ DELTA_PLUS.T, down @ DELTA_MINUS.T, up @ DELTA_MINUS.T, up @ DELTA_PLUS.T,
            lowering[..., 0:1, :], raising[..., 1:2, :])


def _spectrum(initials: dict, emitted: tuple) -> np.ndarray:
    """The order-(0, 0) coefficient over ``2 pi``, the inelastic density:
    each branch's steady initial read by its row of :func:`_emitted`."""
    read_down, read_up = emitted[4:]
    return (_apply(read_down, initials[0, 0][0])
            + _apply(read_up, initials[0, 0][1]))[..., 0] / (2 * np.pi)


def _chains(near: dict, far: dict, emitted: tuple, lowering, raising, raised) -> tuple:
    """The coefficients above order (0, 0), every path written out.

    ``near`` and ``far`` are :func:`_connected_initials` at probe
    detunings ``w`` and ``w'``, ``lowering`` and ``raising`` the stacks
    ``G(-+i(nu - w))``, equal to ``G(-+i(nu + w'))``, ``raised`` is
    ``raising`` applied to the branch-1 order-(0, 0) initial and
    ``emitted`` is :func:`_emitted` at ``nu``: one emission frequency
    against stacks over its probe detunings, or a grid of them against
    stacks over the grid.  Returns the mixed (1, 1) coefficient's paths
    through the net photon shift ``-1`` at ``w`` (its seed included), its
    paths through ``+1`` at ``w'``, the forward (0, 1) coefficient at
    ``w`` and the backward (1, 0) coefficient at ``w'``.  Branch 0 runs on
    ``lowering`` and reads ``G(-i nu)[0]``, branch 1 on ``raising`` and
    reads ``G(i nu)[1]``.
    """
    down_plus, down_minus, up_minus, up_plus, read_down, read_up = emitted
    # branch 0's state (0, 1) at w ends the forward coefficient and feeds
    # the mixed one's paths through shift -1; its state (1, 0) at w' ends
    # the backward coefficient and feeds the paths through shift +1
    minus_state = _apply(lowering, near[0, 1][0] + down_plus)
    plus_state = _apply(lowering, far[1, 0][0] + down_minus)
    forward = minus_state[..., 0:1] + _apply(read_up, near[0, 1][1] + raised @ DELTA_PLUS.T)
    backward = plus_state[..., 0:1] + _apply(read_up, far[1, 0][1] + raised @ DELTA_MINUS.T)
    through_minus = (
        _apply(read_down, near[1, 1][0] + minus_state @ DELTA_MINUS.T)
        + _apply(read_up, near[1, 1][1] + _apply(raising, near[1, 0][1] + up_minus) @ DELTA_PLUS.T))
    through_plus = (_apply(read_down, plus_state @ DELTA_PLUS.T)
                    + _apply(read_up, _apply(raising, far[0, 1][1] + up_plus) @ DELTA_MINUS.T))
    return through_minus[..., 0], through_plus[..., 0], forward[..., 0], backward[..., 0]


def _rows(initials: dict, part: slice) -> dict:
    """The rows ``part`` of every stacked initial; those of order ``(0, 0)``
    are one vector for every row and stay as they are."""
    return {key: tuple(vec[part] if vec.ndim > 1 else vec for vec in pair)
            for key, pair in initials.items()}


def extracted_functions(system: BlochSystem, w: float, nus) -> dict:
    """The four correlation channels on a frequency grid.

    Returns the zero-probe spectral density (per unit angular frequency,
    hence the 2-pi division) and the three derivative coefficients at probe
    detuning ``w``, all as functions of the emission frequency ``w1``.  The
    four share :func:`_emitted` on ``G(-+i nu)``; the paths through the
    net photon shift ``-1`` run on ``G(-+i(nu - w))``, those through ``+1``
    on ``G(-+i(nu + w))`` (:func:`_chains`), six inverses of ``system``
    (the pump's Bloch system) over the grid.
    """
    nus = np.asarray(nus, dtype=float)
    initials = _connected_initials(harmonic_orders(system, w))
    emitted = _emitted(initials, system.green(-1j * nus), system.green(1j * nus))

    def chains(shifted):
        raising = system.green(1j * shifted)
        return _chains(initials, initials, emitted, system.green(-1j * shifted), raising,
                       _apply(raising, initials[0, 0][1]))

    through_minus, _, forward, _ = chains(nus - w)
    _, through_plus, _, backward = chains(nus + w)
    return {"p0": _spectrum(initials, emitted), "plus_probe": backward,
            "minus_probe": forward, "mixed": through_minus + through_plus}


class _SharedInverses(BlochSystem):
    """A Bloch system that inverts each distinct resolvent argument once:
    the extraction and the closed forms of one report share many."""

    def green(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        formed = self.__dict__.setdefault("formed", {})
        key = (z.shape, z.tobytes())
        if key not in formed:
            formed[key] = super().green(z)
            formed[key].flags.writeable = False  # shared: no caller may change it
        return formed[key]


def _max_relative(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def equivalence_report(nus) -> dict:
    """Bichromatic extraction against the closed-form response, on the
    emission grid ``nus``.

    Returns the largest relative deviation of each channel, ``{"p0",
    "plus", "minus", "mixed"}``, over the drives rabi 0.5, 2 and 5 by
    detuning 0, 1 and 3 and the probe detunings -5, 0 and 3.

    Pairing of the channels (established analytically and pinned by the
    tests): the plus-probe derivative reproduces the closed-form function
    built from ``p_minus`` evaluated at emission frequency ``nu +
    probe_detuning`` (its natural support line), the minus-probe
    derivative reproduces ``p_plus`` at ``nu``, and the mixed derivative
    reproduces ``p2``.  The zero-probe channel, which does not depend on
    the probe detuning, is compared against the single-atom inelastic
    density at every probe detuning of the loop.
    """
    nus = np.asarray(nus, dtype=float)
    worst = dict.fromkeys(("p0", "plus", "minus", "mixed"), 0.0)
    for rabi, delta in itertools.product((0.5, 2.0, 5.0), (0.0, 1.0, 3.0)):
        pump = AtomDriveParams(rabi=rabi, delta=delta)
        bloch = build(pump)
        system = _SharedInverses(pump, bloch.M, bloch.L)
        p0_ref = mollow_p0(system, nus)
        for w in (-5.0, 0.0, 3.0):
            got = extracted_functions(system, w, nus)
            for name, value, ref in (
                    ("p0", np.real(got["p0"]), p0_ref),
                    ("plus", got["plus_probe"], closed_form_p_minus(system, w, nus + w)),
                    ("minus", got["minus_probe"], closed_form_p_plus(system, w, nus)),
                    ("mixed", got["mixed"], closed_form_p2(system, w, nus))):
                worst[name] = max(worst[name], _max_relative(value, ref))
    return worst


def channel_densities(pump: AtomDriveParams, nus) -> dict:
    """Averaged double-scattering densities and elastic weights assembled
    from probe extraction.

    The background (ladder) and interference (crossed) inelastic
    densities convolve one atom's emission spectrum with the other atom's
    probe-response correlations, every factor from the bichromatic solver
    (:func:`~cbs2atom.quadrature.exchanged_photon_convolution`).  The mixed
    coefficient's paths through the net photon shift ``+1`` have their
    poles at ``-nu``, so they run at the mirrored probe detunings ``-u``.
    Both elastic weights come from the pump's harmonic orders
    (:func:`~cbs2atom.quadrature.elastic_weights`): at zero probe detuning,
    and over one rule of the probe detuning on ``G(+-i u)``.

    Each distinct resolvent argument is inverted once per call: ``G(0)``
    and ``G(+-i nu)`` over the output grid in set-up, then one stacked
    inversion per ``|nu|``, ``G(i w)`` at the probe detunings ``w = u`` and
    then ``-u`` over its nodes; its halves swapped are ``G(-i w)``.
    Reversed, the same stack serves ``nu - u``: the argument of the paths
    through shift ``-1`` at ``u`` and of those through ``+1`` at ``-u``.
    The reflected factor ``p_minus(nu - u)`` is the conjugate minus-probe
    coefficient at the reversed nodes.  The coefficients at the nodes and
    the emission factors at zero probe detuning, where both photon shifts
    run on ``G(+-i nu)``, come from the one evaluator that
    :func:`extracted_functions` runs (:func:`_chains`), and every product
    in them that depends on ``nu`` alone is formed once over the grid
    (:func:`_emitted`).

    The nodes of ``-nu`` are those of ``nu`` negated and reversed, and the
    convolution visits the two back to back, so the probe-detuning stack of
    ``-nu`` is that of ``nu`` reversed.  The work that depends on that stack
    alone (the inverses, the stacked connected initials, ``G(i w)`` applied
    to the branch-1 steady initial and ``p0`` at the nodes) is kept for the
    next frequency, keyed on the exact stack, and served reversed on a
    match: reuse of identical arguments, not a symmetry of the physics, and
    bit for bit what a fresh evaluation gives.  At rabi 2 on the default
    601-point grid, whose 300 ``+-nu`` pairs are mirror-exact, a call,
    elastic weights included, takes 0.17-0.20 s of CPU (0.29-0.33 ms per
    frequency) on one core of a shared 2-core VM with one BLAS thread
    (the fastest of 5 in-process calls, in 5 fresh processes).

    Returns a dict with the evaluation grid (``nu``), both density arrays
    (``ladder``, ``crossed``) and both elastic weights (``elastic_ladder``,
    ``elastic_crossed``).
    """
    nus = _check_frequencies("nus", nus)
    system = build(pump)
    steady = system.steady
    static = system.green(0.0)
    at_nu = {sign: system.green(sign * 1j * nus) for sign in (-1, 1)}

    # at zero probe detuning every harmonic is static and every photon
    # shift of a path leaves its argument at the emission frequency
    orders = _harmonic_orders(steady, {n: static for n in (-1, 0, 1)})
    zero = _connected_initials(orders)
    later_lowering, later_raising = zero[0, 0]
    emitted = _emitted(zero, at_nu[-1], at_nu[1])
    through_minus, through_plus, forward, backward = _chains(
        zero, zero, emitted, at_nu[-1], at_nu[1], _apply(at_nu[1], later_raising))
    emission = (_spectrum(zero, emitted), through_minus + through_plus, forward, backward,
                _apply(at_nu[1], steady @ DELTA_MINUS.T), _apply(at_nu[1], steady @ DELTA_PLUS.T),
                _apply(at_nu[-1], steady @ DELTA_MINUS.T))

    # the work of the last frequency that depends on its probe detunings alone
    last = {"w": np.empty(0)}

    def at_nodes(i, u):
        n = len(u)
        # G(i w) at the probe detunings w = u and then -u is one stack;
        # G(-i w) is its halves swapped
        w = np.concatenate([u, -u])
        if np.array_equal(w, last["w"][::-1]):
            # -nu right after nu: the stack is theirs reversed, and so is
            # everything that depends on it alone
            plus_w, raised, p0 = (last[key][::-1] for key in ("plus_w", "raised", "p0"))
            stacked = _rows(last["stacked"], slice(None, None, -1))
        else:
            plus_w = system.green(1j * w)
            minus_w = np.concatenate([plus_w[n:], plus_w[:n]])
            # the order-(0, 0) initials do not depend on the probe detunings
            stacked = _connected_initials(
                _harmonic_orders(steady, {-1: plus_w, 0: static, 1: minus_w}))
            raised = _apply(plus_w, later_raising)
            p0 = (_apply(minus_w[:, 0:1], later_lowering)[:, 0] + raised[:, 1]) / (2 * np.pi)
        last.update(w=w, plus_w=plus_w, raised=raised, stacked=stacked, p0=p0)
        # the nodes are symmetric about nu/2: G(+-i(nu - u)) is G(+-i u) reversed
        lowering, raising = plus_w[n:][::-1], plus_w[:n][::-1]
        near, far = _rows(stacked, slice(n)), _rows(stacked, slice(n, None))
        through_minus, through_plus, forward, _ = _chains(
            near, far, tuple(each[i] for each in emitted), lowering, raising, raised[:n][::-1])
        return p0, through_minus, through_plus, forward, np.conj(forward)

    ladder, crossed = exchanged_photon_convolution(system, nus, at_nodes, emission)

    u, weights = line_rule(pole_clusters(system))
    plus_u = system.green(1j * np.concatenate([u, -u]))
    greens = {-1: plus_u[:len(u)], 0: static, 1: plus_u[len(u):]}
    elastic = elastic_weights((later_raising, later_lowering), greens, orders,
                              _harmonic_orders(steady, greens), weights)
    return {"nu": nus, "ladder": ladder, "crossed": crossed,
            "elastic_ladder": elastic[0], "elastic_crossed": elastic[1]}
