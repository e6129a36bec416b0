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
they are later compared against.  Only the convolution that assembles the
averaged channels from them is shared with the closed form
(:mod:`cbs2atom.quadrature`).
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
    build,
    mollow_p0,
)
from cbs2atom.atom import p2 as closed_form_p2
from cbs2atom.atom import p_minus as closed_form_p_minus
from cbs2atom.atom import p_plus as closed_form_p_plus
from cbs2atom.quadrature import exchanged_photon_convolution


def harmonic_orders(system: BlochSystem, w, max_plus: int = 1,
                    max_minus: int = 1) -> dict:
    """Stationary response order by order in the probe amplitudes.

    Returns ``{(p, q): vec}``: the Taylor coefficient of ``v_plus**p *
    v_minus**q``, which populates the single harmonic ``n = p - q`` (time
    dependence ``exp(-i n w t)``): every plus-probe photon shifts the
    frequency one step down, every minus-probe photon one step up.  Order
    (0, 0) is the pump-only steady state, shape ``(3,)``; each higher order
    is driven by the two couplers acting on the orders with one fewer probe
    photon and solved at its own harmonic frequency, for the whole array of
    probe detunings ``w`` at once, shape ``w.shape + (3,)``.  Orders with
    ``p == q`` sit on the static harmonic, whose one resolvent serves every
    ``w``.
    """
    harmonics = {p - q for p in range(max_plus + 1) for q in range(max_minus + 1)
                 if p or q}
    greens = {n: system.green(-1j * n * w if n else 0.0) for n in harmonics}
    return _harmonic_orders(system.steady, greens, max_plus, max_minus)


def _harmonic_orders(steady: np.ndarray, greens: dict, max_plus: int,
                     max_minus: int) -> dict:
    """:func:`harmonic_orders` from given resolvents: ``greens[n]`` is
    ``G(-i n w)``, for every harmonic ``n`` the orders populate."""
    return _lattice(max_plus, max_minus, lambda a, b, source: (
        _apply(greens[a - b], source) if a or b else steady), lambda a, b: 0.0)


def _lattice(p: int, q: int, step, seed) -> dict:
    """The recursion over the probe-order lattice, ``{(a, b): x}`` for every
    ``(a, b) <= (p, q)``: ``x[a, b] = step(a, b, seed(a, b) + x[a-1, b] @
    DELTA_MINUS.T + x[a, b-1] @ DELTA_PLUS.T)``, on stacks of vectors.
    ``None`` stands for zero: such a term, or one off the lattice, is left
    out, and a state without any term is ``None`` and takes no step."""
    x = {}
    for a, b in itertools.product(range(p + 1), range(q + 1)):
        source = seed(a, b)
        for vec, coupler in ((x.get((a - 1, b)), DELTA_MINUS), (x.get((a, b - 1)), DELTA_PLUS)):
            if vec is not None:
                source = vec @ coupler.T if source is None else source + vec @ coupler.T
        x[a, b] = None if source is None else step(a, b, source)
    return x


# ----------------------------------------------------------------------------
# Perturbative extraction of the dipole-correlation delta coefficients.
#
# The connected two-time correlation of raising and lowering dipoles is
# frequency-resolved as C(w1, w2) = integral dt1 dt2 / 2pi of
# exp(-i w1 t1 + i w2 t2) times the connected correlation.  At probe
# order (p, q) the correlation oscillates at the single combination
# frequency (p - q) w, so C is supported on the line w2 = w1 + (p-q) w;
# `_coefficient` returns the coefficient of that delta function, with w1
# as the free argument.
#
# The computation follows the quantum regression route for the
# time-periodic generator: for each time ordering, the connected
# correlation evolves homogeneously from an initial vector quadratic in
# the periodic state, and the probe couplers act along the evolution
# interval in every order-compatible sequence: a path on the probe-order
# lattice from the initial's order up to (p, q), each state applying a pump
# resolvent whose argument tracks the net probe-photon shift k,
# (-+ i (w1 + k w) - M)^{-1} for the two orderings.  `_lattice` sums all
# paths at once, on stacks of (w, w1) pairs.  The resolvents come from the
# caller as a memo keyed by (sign, k): a caller that evaluates several
# coefficients, or the same argument on several supports, forms each
# distinct argument once and shares it.  Both orderings are inverted
# directly, not one derived from the other by a symmetry, so the
# extraction shares no symmetry with the closed forms it checks.
# ----------------------------------------------------------------------------


def _connected_initials(orders: dict, p: int, q: int) -> dict:
    """The seeds of the :func:`_coefficient` lattices up to ``(p, q)``:
    ``{(a, b): (later_lowering, later_raising)}``.

    Each full initial is ``coupler @ state + affine - weight * state`` with
    ``weight`` one state component; expanding both state factors in probe
    orders makes the product term a discrete convolution.  Above order
    ``(0, 0)`` its two terms with the steady state ``s`` are linear in the
    other factor, ``x[w] s + s[w] x``, so they fold into one coupler per
    kind, ``coupler - s[w] I - outer(e_w, s)``, and only the cross-order
    products stay in the sum.
    """
    kinds = ((1j * DELTA_MINUS.T, N1, 1), (-1j * DELTA_PLUS.T, N2, 0))
    steady = orders[0, 0]
    initials = {(0, 0): tuple(steady @ coupler + affine - steady[weight] * steady
                              for coupler, affine, weight in kinds)}
    eye = np.eye(3)
    folded = [(coupler - steady[weight] * eye - np.outer(eye[weight], steady), weight)
              for coupler, _, weight in kinds]
    for a, b in itertools.product(range(p + 1), range(q + 1)):
        if a or b:
            pair = []
            for fold, weight in folded:
                vec = orders[a, b] @ fold
                for ap, bp in itertools.product(range(a + 1), range(b + 1)):
                    if (ap or bp) and (ap, bp) != (a, b):
                        vec -= orders[ap, bp][..., weight, None] * orders[a - ap, b - bp]
                pair.append(vec)
            initials[a, b] = tuple(pair)
    return initials


def _chain_inverses(system: BlochSystem, w, nu, shifts) -> dict:
    """The resolvent memo of :func:`_coefficient`: ``G(sign*i*(nu + k*w))``
    for both time orderings and every net photon shift ``k`` in ``shifts``."""
    return {(sign, k): system.green(sign * 1j * (nu + k * w if k else nu))
            for sign in (-1, 1) for k in shifts}


def _coefficient(initials: dict, order: tuple, inverses: dict, side=None) -> np.ndarray:
    """Delta coefficient at probe order ``order``.

    ``initials`` is :func:`_connected_initials` up to at least ``order``
    and ``inverses[sign, k]`` is ``G(sign*i*(nu + k*w))`` at the same
    probe detunings ``w``, for every net photon shift ``k`` from ``-q`` to
    ``p``; the result broadcasts over their shapes.  Branch 0 (later
    lowering) runs at sign ``-1``, branch 1 (later raising) at ``+1`` with
    the shift still to come; each reads its own component at ``(p, q)``.
    ``side=+1`` sums only the paths through shift ``+1`` and ``side=-1``
    only the others: the two add up to the whole.
    """
    p, q = order
    total = 0.0
    for branch, sign, shift in ((0, -1, lambda a, b: a - b),
                                (1, 1, lambda a, b: (p - a) - (q - b))):
        def solve(a, b, source):
            inverse = inverses[sign, shift(a, b)]
            if (a, b) == (p, q):
                # the last state is read at one component: form only that row
                return _apply(inverse[..., branch:branch + 1, :], source)[..., 0]
            return _apply(inverse, source)

        def below(a, b, source):
            # a path stops at +1, where its inflow seeds the +1 side; that side
            # needs no state whose later shifts, from (a, q) to (p, b), miss +1
            if shift(a, b) == 1:
                entered[a, b] = source
            elif side == -1 or (shift(a, q) - 1) * (shift(p, b) - 1) <= 0:
                return solve(a, b, source)
            return None

        entered = {}
        x = _lattice(p, q, solve if side is None else below,
                     lambda a, b: initials[a, b][branch])
        if side == 1:
            x = _lattice(p, q, solve, lambda a, b: entered.get((a, b)))
        if x[p, q] is not None:
            total = total + x[p, q]
    return total


def extracted_functions(system: BlochSystem, w: float, nus) -> dict:
    """The four correlation channels on a frequency grid.

    Returns the zero-probe spectral density (per unit angular frequency,
    hence the 2-pi division) and the three derivative coefficients at probe
    detuning ``w``, all as functions of the emission frequency ``w1``.  The
    four share one resolvent memo, six inverses of ``system`` (the pump's
    Bloch system) over the grid.
    """
    nus = np.asarray(nus, dtype=float)
    initials = _connected_initials(harmonic_orders(system, w, 1, 1), 1, 1)
    inverses = _chain_inverses(system, w, nus, (-1, 0, 1))
    return {
        "p0": _coefficient(initials, (0, 0), inverses) / (2 * np.pi),
        "plus_probe": _coefficient(initials, (1, 0), inverses),
        "minus_probe": _coefficient(initials, (0, 1), inverses),
        "mixed": _coefficient(initials, (1, 1), inverses),
    }


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
    """Averaged double-scattering densities assembled from probe extraction.

    The background (ladder) and interference (crossed) inelastic
    densities convolve one atom's emission spectrum with the other atom's
    probe-response correlations, every factor from the bichromatic solver
    (:func:`~cbs2atom.quadrature.exchanged_photon_convolution`).  The mixed
    coefficient's paths through the net photon shift ``+1`` have their
    poles at ``-nu``, so they run at the mirrored probe detunings ``-u``.

    Each distinct resolvent argument is inverted once per call: ``G(0)``
    and ``G(+-i nu)`` over the output grid in set-up, then one stacked
    inversion per emission frequency, ``G(i w)`` at the probe detunings
    ``w = u`` and then ``-u`` over its nodes; its halves swapped are
    ``G(-i w)``.  Reversed, the same stack serves ``nu - u``: the argument
    of the paths through shift ``-1`` at ``u`` and of those through ``+1``
    at ``-u``.  The reflected factor ``p_minus(nu - u)`` is the conjugate
    minus-probe coefficient at the reversed nodes.  At rabi 2 a call takes
    about 0.8 ms of CPU per frequency on one core of a shared 2-core VM.

    Returns a dict with the evaluation grid and both density arrays.
    """
    nus = np.asarray(nus, dtype=float)
    if nus.ndim != 1:
        raise ValueError(f"emission frequencies nus must be a 1-D array, got shape {nus.shape}")
    if not np.all(np.isfinite(nus)):
        raise ValueError("emission frequencies nus must be finite")
    system = build(pump)
    steady = system.steady
    static = system.green(0.0)
    at_nu = {sign: system.green(sign * 1j * nus) for sign in (-1, 1)}

    # at zero probe detuning every harmonic is static and every photon
    # shift of a path leaves its argument at the emission frequency
    zero = _connected_initials(
        _harmonic_orders(steady, {n: static for n in (-1, 0, 1)}, 1, 1), 1, 1)
    zero_inverses = {(sign, k): at_nu[sign] for sign in (-1, 1) for k in (-1, 0, 1)}
    emission_orders = _harmonic_orders(steady, {-1: at_nu[1], 0: static, 1: at_nu[-1]}, 1, 1)
    emission = (_coefficient(zero, (0, 0), zero_inverses) / (2 * np.pi),
                *(_coefficient(zero, order, zero_inverses) for order in ((1, 1), (0, 1), (1, 0))),
                _harmonic_orders(steady, {1: at_nu[1]}, 1, 0)[(1, 0)],
                emission_orders[(0, 1)], emission_orders[(1, 0)])

    def at_nodes(i, u):
        n = len(u)
        # G(i w) at the probe detunings w = u and then -u is one stack;
        # G(-i w) is its halves swapped
        plus_w = system.green(1j * np.concatenate([u, -u]))
        up, down = plus_w[:n], plus_w[n:]
        minus_w = np.concatenate([down, up])
        # the nodes are symmetric about nu/2: G(+-i(nu - u)) is G(+-i u) reversed
        inverses = {(sign, k): at_nu[sign][i] if k == 0 else (up if sign == 1 else down)[::-1]
                    for sign in (-1, 1) for k in (-1, 0, 1)}
        # the order-(0, 0) initials do not depend on the probe detunings
        stacked = _connected_initials(
            _harmonic_orders(steady, {-1: plus_w, 0: static, 1: minus_w}, 1, 1), 1, 1)
        near, far = ({key: tuple(vec[part] if vec.ndim > 1 else vec for vec in pair)
                      for key, pair in stacked.items()} for part in (slice(n), slice(n, None)))
        forward = _coefficient(near, (0, 1), inverses)
        return (_coefficient(zero, (0, 0), {(-1, 0): minus_w, (1, 0): plus_w}) / (2 * np.pi),
                _coefficient(near, (1, 1), inverses, side=-1),
                _coefficient(far, (1, 1), inverses, side=+1), forward, np.conj(forward))

    ladder, crossed = exchanged_photon_convolution(system, nus, at_nodes, emission)
    return {"nu": nus, "ladder": ladder, "crossed": crossed}
