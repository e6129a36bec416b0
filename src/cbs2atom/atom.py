"""Single driven two-level atom.

Bloch generator, steady state, probe-response vectors and the closed-form
spectral correlation functions of resonance fluorescence: the inelastic
spectrum (Mollow triplet), the first-order probe-scattering amplitudes and
the probe-intensity response.  All frequencies are measured from the laser
frequency, in units of the dipole decay rate gamma.

Every resolvent is the closed-form 3x3 inverse of
:func:`cbs2atom.linalg.inverse3` over a whole stack of arguments, applied to
its vectors by one product, so the closed forms take whole arrays of
frequencies and stay exact at the defective Jordan-point drive
(``rabi = 1/2`` on resonance).  The ``compact_*`` oracle of
:mod:`cbs2atom.residues` integrates them over the probe frequency by
quadrature.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from cbs2atom.linalg import inverse3

#: Couplers of the Bloch vector to a weak perturbation of the drive:
#: ``DELTA_MINUS`` multiplies the co-rotating probe amplitude, ``DELTA_PLUS``
#: the counter-rotating one, in the linearized Bloch equation.
DELTA_MINUS = np.array([[0, 0, -0.5j], [0, 0, 0], [0, 1j, 0]], dtype=complex)
DELTA_PLUS = np.array([[0, 0, 0], [0, 0, 0.5j], [-1j, 0, 0]], dtype=complex)

#: Inhomogeneous parts of the two-level operator products:
#: sigma^+ (sigma^-, sigma^+, sigma^z) = i*DELTA_MINUS @ (...) + N1 * identity
#: and (sigma^-, sigma^+, sigma^z) sigma^- = -i*DELTA_PLUS @ (...) + N2 * identity.
N1 = np.array([0.5, 0, 0], dtype=complex)
N2 = np.array([0, 0.5, 0], dtype=complex)


def conj_swap(vec: np.ndarray) -> np.ndarray:
    """Map a Bloch-type vector to its conjugate counterpart.

    Physically: complex-conjugate every expectation value and swap the two
    coherence components, which exchanges raising and lowering operators.
    The map is an involution bit for bit (conjugation and a permutation are
    both exact), and it converts each closed-form response chain into its
    mirrored chain (resolvent arguments conjugated, couplers swapped).
    A stack of vectors is mapped along its last axis.
    """
    return np.conj(np.asarray(vec))[..., [1, 0, 2]]


#: Largest magnitude of a real input, rates and frequencies in decay rates.
#: The two-atom solve overflows double precision from rates of about 1e77 on
#: (rabi 1e80 overflows, 1e60 does not); below this bound no entry point
#: overflows, with the rates of the drive and of the grid both at it.
MAX_MAGNITUDE = 1e50


def _check_real(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real
    number, at most ``MAX_MAGNITUDE`` in magnitude.  A bool is an ``Integral``,
    which would run as 0 or 1, so it is refused too.  An integer is compared
    exactly, so one too large for a float is refused without overflow, and
    any other number as a float, so a narrower one is not cast down to the
    bound's precision."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value if isinstance(value, Integral) else float(value)) <= MAX_MAGNITUDE:
        raise ValueError(f"{name} must be finite, at most {MAX_MAGNITUDE:g} in magnitude, "
                         f"got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer of
    at least ``least``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class AtomDriveParams:
    """Drive parameters of one atom.

    Every rate is in units of the dipole decay rate gamma (the
    excited-state population decays at rate 2).

    Attributes
    ----------
    rabi:
        Rabi amplitude at the coordinate origin, >= 0.
    delta:
        Laser-atom detuning (laser minus atomic frequency).
    phase:
        Propagation phase of the laser at the atom's position, so the local
        drive amplitude is ``rabi * exp(1j * phase)``.  Keyword-only.
    """

    rabi: float
    delta: float = 0.0
    _: KW_ONLY
    phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rabi", "delta", "phase"):
            _check_real(name, getattr(self, name))
        if self.rabi < 0:
            raise ValueError("rabi must be non-negative")

    @property
    def local_rabi(self) -> complex:
        """Position-dependent complex drive amplitude."""
        return self.rabi * np.exp(1j * self.phase)


@dataclass(frozen=True, eq=False)
class BlochSystem:
    """Drift generator and drive vector of one atom.

    The Bloch vector (lowering, raising, inversion) obeys
    ``d<s>/dt = M @ <s> + L``.  Built from a sequence of drives, it stacks
    one ``M`` per drive along a leading axis; ``L`` is the same for all.
    """

    params: AtomDriveParams
    M: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Generator eigenvalues: the quadrature oracles place their rules on
        them (:func:`cbs2atom.quadrature.pole_clusters`).  Every one has real
        part at most -1, so no resolvent argument comes near one
        (:func:`cbs2atom.linalg._half_plane`)."""
        return np.linalg.eigvals(self.M)

    @cached_property
    def steady(self) -> np.ndarray:
        """Stationary Bloch vector, the solution of ``M s + L = 0``."""
        return np.linalg.solve(self.M, -self.L)

    def green(self, z) -> np.ndarray:
        """Resolvent ``(z - M)^{-1}`` for a scalar or an array of ``z``.

        Cofactors over determinant, elementwise over the stack (shape
        ``S_d + z.shape + (3, 3)``; :func:`cbs2atom.linalg.inverse3`), so it needs
        no eigenvectors and is exact at defective (Jordan-point) drives too.
        """
        return inverse3(self.M, z)


def _check_drives(name: str, value, one: bool = True, stack: bool = True) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is one drive
    (where ``one``) or a non-empty list or tuple of drives (where ``stack``):
    the drive rule of :func:`build`, which takes either."""
    if one and isinstance(value, AtomDriveParams):
        return
    if stack and isinstance(value, (list, tuple)) and value and all(
            isinstance(drive, AtomDriveParams) for drive in value):
        return
    kinds = [kind for kind, allowed in (
        ("an AtomDriveParams", one), ("a non-empty list or tuple of AtomDriveParams", stack))
        if allowed]
    raise ValueError(f"{name} must be {' or '.join(kinds)}, got {value!r}")


def _check_reals(name: str, values) -> np.ndarray:
    """``values`` as a float array, once it is a 1-D array of finite real
    numbers, each at most ``MAX_MAGNITUDE`` in magnitude (:func:`_check_real`);
    otherwise raise ``ValueError`` naming ``name``.  A complex, boolean,
    string or object array is refused, not cast."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got an array of dtype {values.dtype}")
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
    if not np.all(np.abs(values, dtype=float) <= MAX_MAGNITUDE):
        raise ValueError(f"{name} must be finite, at most {MAX_MAGNITUDE:g} in magnitude")
    return values.astype(float, copy=False)


def build(params) -> BlochSystem:
    """Assemble the Bloch system of one drive, or the stack of a non-empty
    list or tuple of drives."""
    _check_drives("params", params)
    if not isinstance(params, AtomDriveParams):
        stack = [build(one) for one in params]
        return BlochSystem(tuple(params), np.stack([one.M for one in stack]), stack[0].L)
    d = params.delta
    om = params.local_rabi
    M = np.array(
        [
            [-1.0 + 1j * d, 0.0, -0.5j * om],
            [0.0, -1.0 - 1j * d, 0.5j * np.conj(om)],
            [-1j * np.conj(om), 1j * om, -2.0],
        ],
        dtype=complex,
    )
    L = np.array([0.0, 0.0, -2.0], dtype=complex)
    return BlochSystem(params=params, M=M, L=L)


def g0_vectors(sys: BlochSystem) -> tuple[np.ndarray, np.ndarray]:
    """Connected initial conditions of the two dipole correlation functions.

    ``g0_2`` seeds ``<sigma^+(0) s(tau)> - <sigma^+><s(tau)>`` (positive
    frequency branch), ``g0_1`` the conjugate branch; both vanish for an
    undriven atom.  They follow from the two-level operator products
    evaluated in the steady state.
    """
    s = sys.steady
    g0_2 = 1j * (DELTA_MINUS @ s) + N1 - s[1] * s
    g0_1 = -1j * (DELTA_PLUS @ s) + N2 - s[0] * s
    return g0_1, g0_2


def _apply(green: np.ndarray, vec) -> np.ndarray:
    """A resolvent, or a stack of them, applied to a stack of vectors whose
    leading axes broadcast against it; shape ``broadcast + (3,)``.  One
    resolvent takes a matrix product over a stack, ~3x faster than
    ``einsum``, which a single vector keeps: a scalar argument gives the
    same bits as the same argument inside a stack."""
    if green.ndim == 2 and np.ndim(vec) > 1:
        return vec @ green.T
    return np.einsum("...ij,...j->...i", green, vec)


def _solve(sys: BlochSystem, z, vec) -> np.ndarray:
    """``(z - M)^{-1} vec`` for an array of ``z`` (:func:`_apply`)."""
    return _apply(sys.green(z), vec)


def mollow_p0(sys: BlochSystem, nu):
    """Inelastic single-atom fluorescence spectrum (Mollow triplet).

    Normalized so the integral over all frequencies equals the total
    inelastically scattered intensity
    ``<sigma^+ sigma^-> - |<sigma^->|^2``.  ``nu`` may be an array.
    """
    g0_1, g0_2 = g0_vectors(sys)
    nu = np.asarray(nu, dtype=float)
    val = _solve(sys, -1j * nu, g0_2)[..., 0] + _solve(sys, 1j * nu, g0_1)[..., 1]
    return (np.real(val) / (2.0 * np.pi))[()]


def delta_sigma_first(sys: BlochSystem, sign: int, omega) -> np.ndarray:
    """First-order steady-state response to a probe sideband.

    ``sign=-1`` gives the co-rotating response ``G(-i w) DELTA_MINUS G L``
    (the harmonic oscillating with the probe), ``sign=+1`` the
    counter-rotating one ``G(+i w) DELTA_PLUS G L``.  An array of ``omega``
    gives a stack of vectors.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    coupler = DELTA_PLUS if sign == 1 else DELTA_MINUS
    return _solve(sys, sign * 1j * np.asarray(omega, dtype=float), coupler @ sys.steady)


def _first_responses(sys: BlochSystem, omega_p) -> tuple:
    """``(dm, dp)``: both first-order responses at probe detuning
    ``omega_p``, ``G(-i w) DELTA_MINUS G L`` and ``G(+i w) DELTA_PLUS G L``."""
    return delta_sigma_first(sys, -1, omega_p), delta_sigma_first(sys, +1, omega_p)


def _second_response(sys: BlochSystem, dm: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """:func:`delta_sigma_second` from the two first-order responses."""
    return _solve(sys, 0.0, dm @ DELTA_PLUS.T + dp @ DELTA_MINUS.T)


def delta_sigma_second(sys: BlochSystem, omega) -> np.ndarray:
    """Second-order (intensity-like) steady-state probe response.

    Sum of the two time orderings of one co-rotating and one
    counter-rotating probe interaction, returned at zero net frequency.
    """
    return _second_response(sys, *_first_responses(sys, omega))


def probe_vectors(sys: BlochSystem, dm: np.ndarray, dp: np.ndarray) -> tuple:
    """The positive-frequency (branch-2) probe-response vectors
    ``(minus_2, plus_2)`` from the first-order responses ``dm`` and ``dp``
    (:func:`delta_sigma_first` with ``sign`` -1 and +1), one co- or
    counter-rotating probe interaction each.

    They are explicit chains of resolvents, couplers and steady-state
    factors; the conjugate branch follows by :func:`conj_swap`, which maps
    ``plus_2`` onto ``minus_1`` and ``minus_2`` onto ``plus_1``.  Stacks of
    responses give stacks of vectors.
    """
    s = sys.steady
    minus_2 = 1j * (dm @ DELTA_MINUS.T) - dm * s[1] - s * dm[..., 1, None]
    plus_2 = 1j * (dp @ DELTA_MINUS.T) - dp[..., 1, None] * s - s[1] * dp
    return minus_2, plus_2


# The closed forms below take ``omega_p`` and ``nu`` as arrays that broadcast
# against each other (a scalar pair gives a scalar).  Terms that share their
# outer resolvent are summed before it is applied, one inverse per resolvent.


def p_plus(sys: BlochSystem, omega_p, nu):
    """Amplitude correlation for emission at ``nu`` after absorbing a
    counter-rotating probe photon at ``omega_p``.

    Four-term closed form; combines one branch-2 and one branch-1 response
    of the same atom.
    """
    omega_p, nu = np.asarray(omega_p, dtype=float), np.asarray(nu, dtype=float)
    g0_1, g0_2 = g0_vectors(sys)
    minus_2, plus_2 = probe_vectors(sys, *_first_responses(sys, omega_p))
    t12 = _solve(sys, 1j * nu, _solve(sys, 1j * (nu - omega_p), g0_1) @ DELTA_PLUS.T
                 + conj_swap(minus_2))[..., 1]
    t34 = _solve(sys, 1j * (omega_p - nu),
                 _solve(sys, -1j * nu, g0_2) @ DELTA_PLUS.T + plus_2)[..., 0]
    return (t12 + t34)[()]


def p_minus(sys: BlochSystem, omega_p, nu):
    """Amplitude correlation for emission at ``nu`` after absorbing a
    co-rotating probe photon at ``omega_p``.

    Equals ``conj(p_plus(sys, omega_p, nu))`` — same arguments; asserted by
    tests rather than implemented through it.
    """
    omega_p, nu = np.asarray(omega_p, dtype=float), np.asarray(nu, dtype=float)
    g0_1, g0_2 = g0_vectors(sys)
    minus_2, plus_2 = probe_vectors(sys, *_first_responses(sys, omega_p))
    t12 = _solve(sys, -1j * nu,
                 _solve(sys, 1j * (omega_p - nu), g0_2) @ DELTA_MINUS.T + minus_2)[..., 0]
    t34 = _solve(sys, 1j * (nu - omega_p),
                 _solve(sys, 1j * nu, g0_1) @ DELTA_MINUS.T + conj_swap(plus_2))[..., 1]
    return (t12 + t34)[()]


def p2_sides(sys: BlochSystem, omega_p, nu) -> tuple:
    """The two parts of :func:`p2`: its terms with poles in ``omega_p`` at
    ``0`` and ``nu``, and its term with poles at ``0`` and ``-nu``."""
    omega_p, nu = np.asarray(omega_p, dtype=float), np.asarray(nu, dtype=float)
    g0_2 = g0_vectors(sys)[1]
    s = sys.steady
    dm, dp = _first_responses(sys, omega_p)
    minus_2, plus_2 = probe_vectors(sys, dm, dp)
    ds2 = _second_response(sys, dm, dp)
    # the branch-2 response to one co- and one counter-rotating interaction
    second_2 = (
        1j * (ds2 @ DELTA_MINUS.T)
        - s * ds2[..., 1, None]
        - s[1] * ds2
        - dp[..., 1, None] * dm
        - dm[..., 1, None] * dp
    )
    emission = sys.green(-1j * nu)
    emitted = _apply(emission, g0_2)
    near = (second_2
            + _solve(sys, 1j * (omega_p - nu), emitted @ DELTA_PLUS.T + plus_2) @ DELTA_MINUS.T)
    far = _solve(sys, -1j * (nu + omega_p), emitted @ DELTA_MINUS.T + minus_2) @ DELTA_PLUS.T
    return tuple((2.0 * np.real(_apply(emission, part)[..., 0]))[()] for part in (near, far))


def p2(sys: BlochSystem, omega_p, nu):
    """Spectral redistribution cross-section of a weak probe at ``omega_p``:
    the second-order (one co- plus one counter-rotating interaction)
    correction to the emission spectrum at ``nu``.
    """
    return sum(p2_sides(sys, omega_p, nu))
