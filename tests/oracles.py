"""Reference computations used only by the tests.

No ``cbs2atom`` command runs anything here: each definition is an
independent route to a quantity the package computes another way, kept so
the tests can check the package against it.

* Single atom under bichromatic driving (checks :mod:`cbs2atom.pumpprobe`):
  the drive of a pump and two probe sidebands, the delta coefficient of
  the correlation at one probe order, the nonperturbative periodic state
  on a truncated harmonic lattice and the brute time-domain correlation
  channel (scipy's ``solve_ivp``).
* Dense resolvents at any ``z``: one stacked LU solve of any size (the
  pump-probe chain transcription of the tests takes it), and the 9x9
  pair-correlation resolvent built on it (checks the closed-form pair
  solve of :mod:`cbs2atom.twoatom`).
* The dense two-atom expansion at any ``z`` (checks
  :mod:`cbs2atom.twoatom`): the order-by-order resolvent of ``z - A - V``
  applied to a tagged seed, the pair block by one dense 9x9 solve; at
  ``z = 0`` with the drive as the seed it is the stationary expansion, and
  elsewhere the reference of the closed-form pair solve on a grid.  Both
  pair kernels are checked against one pair solve at 50 significant digits
  (mpmath).
* Frequency integrals (checks :mod:`cbs2atom.residues` and
  :mod:`cbs2atom.twoatom`): the adaptive scipy line quadrature, the
  frequency-integral representation of the pair resolvent, and the
  printed first- and second-order transcriptions of the two-atom
  expansion.
* The two-atom equations at finite coupling (checks the expansion of
  :mod:`cbs2atom.twoatom`): the exact steady state, its connected
  regression initial condition, the radiated intensity, and the plain sum
  of a tagged vector.
* The per-sample Monte-Carlo reducer (checks
  :func:`cbs2atom.disorder._reduce_monomials`).

pytest puts this directory on ``sys.path``, so tests import it as
``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad, simpson, solve_ivp

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    N1,
    N2,
    AtomDriveParams,
    BlochSystem,
    _apply,
    build,
    g0_vectors,
)
from cbs2atom.disorder import MonteCarloResult
from cbs2atom.pumpprobe import (
    _chains,
    _connected_initials,
    _emitted,
    extracted_functions,
    harmonic_orders,
)
from cbs2atom.quadrature import line_rule, pole_clusters
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    DEGREE_TWO_MONOMIALS,
    LADDER_MONOMIAL,
    ScatteringConfig,
    TaggedVector,
    TwoAtomGenerator,
    _couple,
    _divisors,
    _raising_product,
    _resolve,
    _tagged_add,
)


# ----------------------------------------------------------------------------
# Pump-probe paths: the perturbative coefficient at one probe order, the
# nonperturbative truncated harmonic lattice and the brute time domain.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BichromaticDrive:
    """Pump parameters plus probe detuning and amplitudes (Rabi units)."""

    pump: AtomDriveParams
    probe_detuning: float
    v_plus: complex = 0.0
    v_minus: complex = 0.0

    def __post_init__(self) -> None:
        for name in ("probe_detuning", "v_plus", "v_minus"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if complex(self.probe_detuning).imag != 0:
            raise ValueError("probe_detuning must be real")


#: The key of each probe order in :func:`cbs2atom.pumpprobe.extracted_functions`.
_CHANNELS = {(0, 0): "p0", (1, 0): "plus_probe", (0, 1): "minus_probe", (1, 1): "mixed"}


def correlation_coefficient(drive: BichromaticDrive, order: tuple,
                            nu: float, side=None) -> complex:
    """Delta-function coefficient of the correlation at one probe order.

    ``order = (p, q)`` selects the Taylor coefficient of
    ``v_plus**p * v_minus**q``; the result lives on the support line
    ``w2 = w1 + (p - q) * probe_detuning`` and is evaluated at ``w1 = nu``.
    ``p`` and ``q`` are 0 or 1: the four channels of
    :func:`cbs2atom.pumpprobe.extracted_functions` at the one frequency
    ``nu``, order (0, 0) without its ``1/2pi``.  At order (1, 1),
    ``side=+1`` keeps only the paths through net photon shift ``+1`` and
    ``side=-1`` only the others, as the written-out chains of
    :func:`cbs2atom.pumpprobe.channel_densities` split them
    (:func:`cbs2atom.pumpprobe._chains`).
    """
    system = build(drive.pump)
    w = drive.probe_detuning
    if side is None:
        value = extracted_functions(system, w, nu)[_CHANNELS[order]]
        return complex(value * 2 * np.pi if order == (0, 0) else value)
    if order != (1, 1):
        raise ValueError(f"only probe order (1, 1) splits by side, got {order!r}")
    initials = _connected_initials(harmonic_orders(system, w))
    # each side runs on the stacks of the one photon shift its middle state takes
    lowering, raising = system.green(-1j * (nu + side * w)), system.green(1j * (nu + side * w))
    emitted = _emitted(initials, system.green(-1j * nu), system.green(1j * nu))
    through_minus, through_plus, _, _ = _chains(initials, initials, emitted, lowering, raising,
                                                _apply(raising, initials[0, 0][1]))
    return complex(through_plus if side == 1 else through_minus)


class TruncationError(RuntimeError):
    """Harmonic lattice too small for the requested probe amplitudes."""


def floquet_state(drive: BichromaticDrive, n_harmonics: int = 6) -> dict:
    """Nonperturbative periodic steady state on a truncated harmonic lattice.

    Solves the block-tridiagonal stationarity system for the Fourier
    components of the Bloch vector at all harmonics up to
    ``n_harmonics``.  Raises :class:`TruncationError` when the edge
    harmonics are still feeding back a non-negligible amount.
    """
    if drive.probe_detuning == 0.0:
        raise ValueError("harmonic lattice needs a nonzero probe detuning")
    if n_harmonics < 1:
        raise ValueError("need at least one harmonic")
    system = build(drive.pump)
    w = drive.probe_detuning
    size = 2 * n_harmonics + 1
    block = np.zeros((3 * size, 3 * size), dtype=complex)
    rhs = np.zeros(3 * size, dtype=complex)
    for i, n in enumerate(range(-n_harmonics, n_harmonics + 1)):
        sl = slice(3 * i, 3 * i + 3)
        block[sl, sl] = -1j * n * w * np.eye(3) - system.M
        if i > 0:
            block[sl, 3 * (i - 1):3 * i] = -drive.v_plus * DELTA_MINUS
        if i < size - 1:
            block[sl, 3 * (i + 1):3 * (i + 2)] = -drive.v_minus * DELTA_PLUS
        if n == 0:
            rhs[sl] = system.L
    flat = np.linalg.solve(block, rhs)
    harmonics = {n: flat[3 * i:3 * i + 3]
                 for i, n in enumerate(range(-n_harmonics, n_harmonics + 1))}
    spill = (abs(drive.v_plus) * np.linalg.norm(harmonics[n_harmonics])
             + abs(drive.v_minus) * np.linalg.norm(harmonics[-n_harmonics]))
    if spill > 1e-10 * np.linalg.norm(system.L):
        raise TruncationError(
            f"edge harmonics still carry weight (spill {spill:.2e}); "
            "increase n_harmonics or reduce the probe amplitudes")
    return harmonics


def periodic_state(harmonics: dict, w: float, t: float) -> np.ndarray:
    """Evaluate a harmonic decomposition at one time."""
    out = np.zeros(3, dtype=complex)
    for n, vec in harmonics.items():
        out = out + np.exp(-1j * n * w * t) * vec
    return out


def time_domain_coefficient(drive: BichromaticDrive, channel: int, nus, *,
                            n_harmonics: int = 6, t0_samples: int = 8,
                            tau_max: float = 45.0, dt: float = 0.01) -> np.ndarray:
    """Brute-force correlation channel: ODE regression plus numeric Laplace.

    Computes the nonperturbative delta coefficient on the support line
    ``w2 = w1 + channel * probe_detuning`` at finite probe amplitudes: the
    periodic state seeds connected initial conditions on a grid of start
    times, both time orderings are integrated directly under the
    time-dependent generator, the start-time average isolates the
    requested oscillation channel, and the final lag integrals are done
    by Simpson quadrature.  Slow by design — shares no algebra with the
    perturbative extraction it validates.
    """
    nus = np.asarray(nus, dtype=float)
    system = build(drive.pump)
    w = drive.probe_detuning
    harmonics = floquet_state(drive, n_harmonics)
    period = 2 * np.pi / abs(w)
    taus = np.arange(0.0, tau_max + dt / 2, dt)

    def generator(t):
        return (system.M + drive.v_plus * np.exp(-1j * w * t) * DELTA_MINUS
                + drive.v_minus * np.exp(1j * w * t) * DELTA_PLUS)

    later_lowering = np.zeros((t0_samples, len(taus)), dtype=complex)
    later_raising = np.zeros((t0_samples, len(taus)), dtype=complex)
    t0_grid = np.arange(t0_samples) * period / t0_samples
    for k, t0 in enumerate(t0_grid):
        state0 = periodic_state(harmonics, w, t0)
        init_r = 1j * (DELTA_MINUS @ state0) + N1 - state0[1] * state0
        init_l = -1j * (DELTA_PLUS @ state0) + N2 - state0[0] * state0
        stacked = np.concatenate([init_r, init_l])

        def rhs(tau, y):
            m = generator(t0 + tau)
            return np.concatenate([m @ y[:3], m @ y[3:]])

        sol = solve_ivp(rhs, (0.0, tau_max), stacked, t_eval=taus,
                        method="DOP853", rtol=1e-11, atol=1e-13)
        if not sol.success:
            raise RuntimeError("regression integration failed")
        later_lowering[k] = sol.y[0]
        later_raising[k] = sol.y[4]

    phases = np.exp(1j * channel * w * t0_grid)
    decay_r = phases @ later_lowering / t0_samples
    decay_l = phases @ later_raising / t0_samples
    out = np.zeros(len(nus), dtype=complex)
    for i, nu in enumerate(nus):
        out[i] = (simpson(np.exp(1j * (nu + channel * w) * taus) * decay_r, x=taus)
                  + simpson(np.exp(-1j * nu * taus) * decay_l, x=taus))
    return out


# ----------------------------------------------------------------------------
# Dense resolvents and the dense two-atom expansion at any z.
# ----------------------------------------------------------------------------


def resolve(M: np.ndarray, z, rhs: np.ndarray) -> np.ndarray:
    """``(z - M)^{-1} rhs`` for an array of ``z``, as one stacked dense solve.

    ``z`` has shape ``S`` and ``M`` ``S_d + (n, n)``; ``rhs`` is an ``(n, k)``
    matrix or a stack of them that broadcasts against ``S_d + S``.  Pass the
    identity for the resolvent itself and ``vec[..., None]`` for vectors.
    """
    z = np.asarray(z, dtype=complex)
    lift = (..., *(None,) * z.ndim, slice(None), slice(None))
    return np.linalg.solve(z[..., None, None] * np.eye(M.shape[-1]) - M[lift], rhs)


def pair_green(gen: TwoAtomGenerator, z) -> np.ndarray:
    """9x9 pair-correlation resolvent ``(z - M_corr)^{-1}`` by one stacked dense
    solve, of shape ``S_d + z.shape + (9, 9)``.  At ``z = 0`` it is the
    inverse :func:`cbs2atom.twoatom.perturbative_orders` forms."""
    return resolve(gen.drift[..., 6:, 6:], z, np.eye(9))


def resolvent_apply(gen: TwoAtomGenerator, z, seed: TaggedVector,
                    monomials=DEGREE_TWO_MONOMIALS) -> list:
    """Apply the order-by-order resolvent of ``z - A - V`` to a tagged seed.

    Returns ``[R0 seed, R1 seed, R2 seed]`` where the order-n term carries
    n extra coupling insertions.  The zeroth order solves the
    block-triangular drift alone; each further order routes the previous
    result once through the coupling channels and resolves again.  ``z`` may
    be an array of shape ``S`` and the seed's vectors stacked along leading
    axes that broadcast against ``S``; the drift resolvents are formed once,
    as stacked inverses, and every level has shape ``S + (15,)``.  The pair
    block is one dense 9x9 solve (:func:`pair_green`): at
    ``z = 0`` with the drive as the seed this is
    :func:`cbs2atom.twoatom.perturbative_orders` bit for bit, and at other
    ``z`` it is the reference for the closed form of
    :func:`cbs2atom.twoatom.fixed_config_spectrum`.

    ``monomials`` names the coupling monomials the caller reads: the
    coupling insertions form only products dividing one of them, so a level
    beyond degree two, which a seed of positive degree reaches, is empty.
    """
    keep = _divisors(monomials)
    g_single, g_pair = gen.single_green(z), pair_green(gen, z)

    def pair_solve(rhs):
        return (g_pair @ rhs[..., None])[..., 0]

    levels = [_resolve(gen, g_single, pair_solve, seed)]
    for _ in range(2):
        levels.append(_resolve(gen, g_single, pair_solve, _couple(gen, levels[-1], keep)))
    return levels


def pair_solve_exact(gen: TwoAtomGenerator, z: complex, rhs: np.ndarray) -> np.ndarray:
    """``(z - M_corr)^{-1} rhs`` for one drive's generator and one ``z``, by mpmath's
    LU at 50 significant digits on the same double-precision matrix and rounded
    once to double: a float pair kernel differs from it only by its own rounding."""
    with mpmath.workdps(50):
        shifted = mpmath.mpc(z) * mpmath.eye(9) - mpmath.matrix(gen.drift[6:, 6:].tolist())
        x = mpmath.lu_solve(shifted, mpmath.matrix(np.asarray(rhs).tolist()))
        return np.array([complex(x[i]) for i in range(9)])


# ----------------------------------------------------------------------------
# Frequency integrals and the printed transcriptions of the two-atom
# expansion.
# ----------------------------------------------------------------------------


def quadrature_line_integral(
    fn,
    epsabs: float = 1e-13,
    epsrel: float = 1e-10,
    limit: int = 500,
) -> complex:
    """Adaptive quadrature of ``integral du/2pi fn(u)`` over the real line.

    ``fn`` maps a real number to a complex value and must decay at least
    like ``1/u**2``; the infinite range is handled by the integrator's
    variable transformation, so no window/tail split is needed.
    """
    val = quad(fn, -np.inf, np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit,
               complex_func=True)[0]
    return complex(val) / (2.0 * np.pi)


def _poles(system: BlochSystem, sign: int, offset: complex = 0.0) -> np.ndarray:
    """Poles in ``u`` of ``G(offset + sign*i*u)``."""
    return -1j * sign * (system.eigenvalues - offset)


def _first_slot(g: np.ndarray) -> np.ndarray:
    """Stacked ``kron(g, 1)``: a 3x3 operator acting on the first slot."""
    return np.einsum("...ij,kl->...ikjl", g, np.eye(3)).reshape(g.shape[:-2] + (9, 9))


def _second_slot(g: np.ndarray) -> np.ndarray:
    """Stacked ``kron(1, g)``: a 3x3 operator acting on the second slot."""
    return np.einsum("kl,...ij->...kilj", np.eye(3), g).reshape(g.shape[:-2] + (9, 9))


def _pair_integral(system_one: BlochSystem, system_two: BlochSystem,
                   sign_one: int, sign_two: int, offset: complex = 0.0) -> np.ndarray:
    """``integral dw/2pi G1(offset + s1*i*w) (x) G2(offset + s2*i*w)``, 9x9."""
    u, weights = line_rule(np.concatenate([_poles(system_one, sign_one, offset),
                                           _poles(system_two, sign_two, offset)]))
    pair = (_first_slot(system_one.green(offset + sign_one * 1j * u))
            @ _second_slot(system_two.green(offset + sign_two * 1j * u)))
    return np.einsum("k,kij->ij", weights, pair)


def pair_resolvent_integral(gen: TwoAtomGenerator, z: complex = 0.0,
                            orientation: int = +1) -> np.ndarray:
    """Pair-correlation resolvent via the frequency-integral representation.

    Splits ``(z - M_corr)^{-1}`` into a line integral over single-atom
    resolvents at ``z/2 +- i w``; ``orientation`` selects which slot gets
    the upper sign (both choices must agree).  Cross-validates
    :func:`pair_green`.
    """
    if abs(complex(z).real) > 1e-12:
        raise ValueError("integral representation requires an imaginary argument")
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    return _pair_integral(gen.atom1, gen.atom2, orientation, -orientation, complex(z) / 2.0)


def single_first_order_explicit(gen: TwoAtomGenerator) -> tuple:
    """First-order Bloch corrections as the printed two-term chains.

    Returns tagged 3-vectors ``(atom2_part, atom1_part)``: each atom is
    pushed by the field scattered from the other's stationary coherence,
    once co-rotating and once counter-rotating.
    """
    t = gen.coupling
    tc = np.conj(t)
    s1, s2 = gen.atom1.steady, gen.atom2.steady
    g1, g2 = gen.atom1.green(0.0), gen.atom2.green(0.0)
    atom2_part = {
        ("12",): 2j * t * s1[1] * (g2 @ (DELTA_PLUS @ s2)),
        ("21*",): -2j * tc * s1[0] * (g2 @ (DELTA_MINUS @ s2)),
    }
    atom1_part = {
        ("21",): 2j * t * s2[1] * (g1 @ (DELTA_PLUS @ s1)),
        ("12*",): -2j * tc * s2[0] * (g1 @ (DELTA_MINUS @ s1)),
    }
    return atom2_part, atom1_part


def pair_first_order_explicit(gen: TwoAtomGenerator,
                              printed_final_term: bool = False) -> TaggedVector:
    """First-order pair correlations as the printed eight-term expression.

    Four algebraic terms (stationary coherence times first-order response)
    plus four frequency integrals over opposite-sign resolvent pairs.  The
    eighth term appears in its source with the second resolvent argument
    at the same sign as the first, which closes the contour away from all
    poles and yields zero; ``printed_final_term=True`` reproduces that
    literal reading, the default restores the opposite-sign pairing that
    matches the recurrences.
    """
    t = gen.coupling
    tc = np.conj(t)
    a1, a2 = gen.atom1, gen.atom2
    s1, s2 = a1.steady, a2.steady
    g1, g2 = a1.green(0.0), a2.green(0.0)
    g0_first_1, g0_second_1 = g0_vectors(a1)
    g0_first_2, g0_second_2 = g0_vectors(a2)

    out: TaggedVector = {}
    _tagged_add(out, ("21*",), -2j * tc * s1[0] * np.kron(s1, g2 @ (DELTA_MINUS @ s2)))
    _tagged_add(out, ("12",), 2j * t * s1[1] * np.kron(s1, g2 @ (DELTA_PLUS @ s2)))
    _tagged_add(out, ("21",), 2j * t * s2[1] * np.kron(g1 @ (DELTA_PLUS @ s1), s2))
    _tagged_add(out, ("12*",), -2j * tc * s2[0] * np.kron(g1 @ (DELTA_MINUS @ s1), s2))

    _tagged_add(out, ("21*",),
                -2j * tc * _pair_integral(a1, a2, +1, -1) @ np.kron(g0_first_1, DELTA_MINUS @ s2))
    _tagged_add(out, ("12",),
                2j * t * _pair_integral(a1, a2, -1, +1) @ np.kron(g0_second_1, DELTA_PLUS @ s2))
    _tagged_add(out, ("21",),
                2j * t * _pair_integral(a1, a2, +1, -1) @ np.kron(DELTA_PLUS @ s1, g0_second_2))
    final_sign = -1 if printed_final_term else +1
    _tagged_add(out, ("12*",), -2j * tc * _pair_integral(a1, a2, -1, final_sign)
                @ np.kron(DELTA_MINUS @ s1, g0_first_2))
    return out


def single_second_order_explicit(gen: TwoAtomGenerator) -> TaggedVector:
    """Squared-magnitude part of the second-order atom-2 Bloch correction.

    The printed eight terms: four products of stationary factors with
    double-response chains, four frequency integrals pairing a first-atom
    spectral factor with a second-atom response chain.  Monomials with two
    equal tags (squared amplitudes) are not part of this transcription.
    """
    t = gen.coupling
    tt = t * np.conj(t)
    a1, a2 = gen.atom1, gen.atom2
    s1, s2 = a1.steady, a2.steady
    g1, g2 = a1.green(0.0), a2.green(0.0)
    g0_first_1, g0_second_1 = g0_vectors(a1)
    g0_first_2, g0_second_2 = g0_vectors(a2)

    out: TaggedVector = {}
    _tagged_add(out, LADDER_MONOMIAL,
                4.0 * tt * s1[1] * s1[0] * (g2 @ (DELTA_MINUS @ (g2 @ (DELTA_PLUS @ s2)))))
    _tagged_add(out, LADDER_MONOMIAL,
                4.0 * tt * s1[1] * s1[0] * (g2 @ (DELTA_PLUS @ (g2 @ (DELTA_MINUS @ s2)))))
    _tagged_add(out, CROSSED_MONOMIAL,
                4.0 * tt * s2[0] * (g1 @ (DELTA_MINUS @ s1))[1] * (g2 @ (DELTA_PLUS @ s2)))
    _tagged_add(out, ("21", "21*"),
                4.0 * tt * s2[1] * (g1 @ (DELTA_PLUS @ s1))[0] * (g2 @ (DELTA_MINUS @ s2)))

    # a first-atom spectral factor times a second-atom response chain,
    # both on the nodes of one rule; vectors act as ``vec @ matrix.T``
    u, weights = line_rule(np.concatenate([pole_clusters(a1), pole_clusters(a2)]))
    up1, down1 = a1.green(1j * u), a1.green(-1j * u)
    up2, down2 = a2.green(1j * u), a2.green(-1j * u)
    paired = (
        (LADDER_MONOMIAL, (down1 @ g0_second_1)[:, 0],
         (up2 @ (DELTA_PLUS @ s2)) @ DELTA_MINUS.T @ g2.T),
        (LADDER_MONOMIAL, (up1 @ g0_first_1)[:, 1],
         (down2 @ (DELTA_MINUS @ s2)) @ DELTA_PLUS.T @ g2.T),
        (CROSSED_MONOMIAL, (up1 @ (DELTA_MINUS @ s1))[:, 1],
         (down2 @ g0_first_2) @ DELTA_PLUS.T @ g2.T),
        (("21", "21*"), (up1 @ (DELTA_PLUS @ s1))[:, 0],
         (down2 @ g0_second_2) @ DELTA_MINUS.T @ g2.T),
    )
    for mono, scalar, vector in paired:
        _tagged_add(out, mono, 4.0 * tt * ((weights * scalar) @ vector))
    return out


# ----------------------------------------------------------------------------
# The two-atom equations at finite coupling.
# ----------------------------------------------------------------------------


def tagged_total(tagged: TaggedVector, dim: int) -> np.ndarray:
    """Plain (untagged) sum of a tagged vector's entries."""
    out = np.zeros(dim, dtype=complex)
    for vec in tagged.values():
        out = out + vec
    return out


def exact_steady_state(gen: TwoAtomGenerator) -> np.ndarray:
    """Nonperturbative stationary 15-vector ``-(A+V)^{-1} drive``."""
    full = gen.drift + sum(gen.channels.values())
    state = np.linalg.solve(full, -gen.drive)
    residual = np.linalg.norm(full @ state + gen.drive)
    if residual > 1e-11 * (1.0 + np.linalg.norm(gen.drive)):
        raise ArithmeticError(f"steady-state solve left residual {residual:g}")
    return state


def regression_initial_exact(steady: np.ndarray) -> np.ndarray:
    """Nonperturbative connected initial condition from a full steady state."""
    return _raising_product(steady, include_unit=True) - steady[1] * steady


def intensity(gen: TwoAtomGenerator, config: ScatteringConfig, direction) -> float:
    """Stationary radiated intensity toward a unit ``direction`` of the
    generator assembled on ``config``.

    Sum of both excited-state populations plus the interference cross
    terms with their geometric phases.
    """
    direction = np.asarray(direction, dtype=float)
    s = exact_steady_state(gen)
    phase = np.exp(1j * direction @ (config.r1 - config.r2))
    value = 0.5 * (1.0 + s[2]) + 0.5 * (1.0 + s[5]) + s[9] * phase + s[7] * np.conj(phase)
    return float(value.real)


def double_scattering_intensity(config: ScatteringConfig, direction, orders: list) -> dict:
    """Coupling-order-two part of the intensity, tagged by monomial, from
    the stationary ``orders`` of a generator assembled on ``config``.

    The population terms lose their constant offsets at nonzero order, so
    each contribution is half the inversion correction plus the phased
    cross-atom coherences.
    """
    direction = np.asarray(direction, dtype=float)
    phase = np.exp(1j * direction @ (config.r1 - config.r2))
    return {mono: 0.5 * (vec[2] + vec[5]) + (vec[9] * phase + vec[7] * np.conj(phase))
            for mono, vec in orders[2].items()}


# ----------------------------------------------------------------------------
# Per-sample Monte-Carlo reducer.
# ----------------------------------------------------------------------------


def _reduce(values: np.ndarray, samples: int, scale: float = 1.0) -> MonteCarloResult:
    """Sample mean and standard error of per-sample ``values``, both divided
    by ``scale``: the reference that
    :func:`cbs2atom.disorder._reduce_monomials` is checked against."""
    mean = values.mean(axis=0)
    if samples > 1:
        spread = np.sqrt(np.sum(np.abs(values - mean) ** 2, axis=0)
                         / (samples - 1) / samples)
    else:
        spread = np.zeros_like(np.abs(mean))
    return MonteCarloResult(mean=mean / scale, stderr=spread / scale, samples=samples)
