"""Two coupled driven atoms: the 15-dimensional generator and its expansions.

The mean values of all products of operators of two two-level atoms close
under a 15-component vector

    Q = (<sigma_2>, <sigma_1>, <sigma_1 (x) sigma_2>),

where each single-atom block is (lowering, raising, inversion) and the
correlation block is the row-major Kronecker product (atom-1 index slow).
Its equation of motion is ``dQ/dt = (A + V) Q + drive`` with a
block-triangular drift ``A`` and a far-field photon-exchange coupling ``V``
proportional to the complex amplitude ``T = 1.5j * exp(-1j*x) / x`` (``x``
the interatomic distance in units of the inverse wavenumber, ``T`` in units
of the decay rate).

``V`` splits into four channels, identified by which atom contributes the
raising operator and whether the coupling enters with ``T`` or its
conjugate.  The channels are tagged ``"12"``, ``"21"``, ``"12*"``, ``"21*"``
and every perturbative quantity in this module is a mapping from the sorted
tuple of channel tags (the coupling monomial) to its coefficient vector, so
that configuration averaging downstream reduces to selecting monomials.

The generator (:class:`TwoAtomGenerator`) has one format: the 15x15 drift
``A`` and one 15x15 coupling operator per channel, which sum to ``V``.  All
solves here are brute force, stacked over whole frequency grids, and run one
recursion, ``level_n = R (seed_n + V level_(n-1))`` (:func:`_expand`): the
block-triangular drift is resolved through its single-atom blocks
(closed-form 3x3 inverses) and its pair block, and each coupling insertion
is one product with one channel's operator.  The pair block is the
Kronecker sum of the two atoms' generators, one matrix up to the laser-phase
gauge, so undoing the phases and splitting by exchange symmetry solves it in
closed form, by two 3x3 cofactor inverses per frequency
(:meth:`TwoAtomGenerator.pair_solver`).  Each solve takes its
pair kernel by its role: every frequency grid of a spectrum takes the
closed form, and the stationary (z = 0) expansion takes the one dense 9x9
inverse of the pair block (:func:`perturbative_orders`), from which every
elastic weight and regression initial comes (:func:`elastic_splittings`).
A sequence of drives (:func:`assemble`) stacks one generator
per drive: the expansions then have shape ``S_d + S_nu + (...)``, drive axes first,
the channels and feed block are shared, and one drive, ``S_d = ()``, takes a stack's arithmetic.
:func:`fixed_config_spectrum` is two halves: :func:`stationary_terms`, the
z = 0 expansion, and :func:`inelastic_spectra`, the resolves on a grid.  On
the canonical generator (:func:`canonical_generator`: no propagation phase,
unit coupling), the first once per drive stack and the second per frequency
block, they are the production route of the averaged channels in
:mod:`cbs2atom.spectra` and the only solve of the Monte-Carlo average in
:mod:`cbs2atom.disorder`.  The
Monte-Carlo average weights every degree-two monomial, so it expands them
all (1 + 4 + 10 monomials per order); production reads only the two
surviving ones and expands only their divisors (1 + 3 + 2).  Both read
components 0 and 3 of the spectra, which lie in the single-atom block, so
the last resolve of the spectra skips the pair correlations.  The printed closed-form
transcriptions of the first orders, the frequency-integral representation
of the pair resolvent, the dense pair resolvent and expansion at any ``z``
and the exact steady state at finite coupling, which check these
recurrences, live with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    N1,
    N2,
    AtomDriveParams,
    BlochSystem,
    _check_reals,
    build,
)
from cbs2atom.linalg import _cofactor_inverse, _half_plane

#: The four coupling channels: "jk" transfers excitation via the raising
#: operator of atom j and the lowering operator of atom k; a trailing "*"
#: marks the conjugate-amplitude channel.
COUPLING_TAGS = ("12", "12*", "21", "21*")

#: Coupling monomials surviving the configuration average (see the
#: disorder module): the background channel pairs "12" with "21*", the
#: interference channel pairs "12" with "12*".
LADDER_MONOMIAL = ("12", "21*")
CROSSED_MONOMIAL = ("12", "12*")

#: Every coupling monomial of degree two, the full second-order content.
DEGREE_TWO_MONOMIALS = tuple(combinations_with_replacement(COUPLING_TAGS, 2))

_E1 = np.array([1.0, 0.0, 0.0])
_E2 = np.array([0.0, 1.0, 0.0])


def _exchange_basis() -> np.ndarray:
    """Orthonormal columns over the pair index ``3a + b``: the exchange-symmetric
    transverse states 00, 11 and (01+10)/sqrt2, the other symmetric states 22,
    (02+20+12+21)/2 and (02+20-12-21)/2, then the antisymmetric (01-10), (02-20),
    (12-21) over sqrt2."""
    out = np.zeros((9, 9))
    states = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (2, 2, 0), (0, 2, 1), (1, 2, 1),
              (0, 1, -1), (0, 2, -1), (1, 2, -1))
    for column, (a, b, sign) in enumerate(states):
        if sign:
            out[3 * a + b, column], out[3 * b + a, column] = np.sqrt(0.5), sign * np.sqrt(0.5)
        else:
            out[3 * a + b, column] = 1.0
    # the sum and difference of (02+20) and (12+21): the drive couples the
    # inversion 22 only to the difference, and the rank-one part that the
    # transverse elimination adds to the rest block is diagonal in them
    out[:, 4:6] = out[:, 4:6] @ np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return out


_EXCHANGE_BASIS = _exchange_basis()
_TRANSVERSE, _REST, _ANTISYMMETRIC = slice(0, 3), slice(3, 6), slice(6, 9)


def _channel_factor(atom: slice, to_single: np.ndarray, to_pair: np.ndarray,
                    within_pair: np.ndarray) -> np.ndarray:
    """15x15 operator factor of one coupling channel: the pair correlations
    feed the Bloch block of one ``atom`` (rows 0:3 are atom 2, 3:6 atom 1),
    that atom's means source the pair correlations, and the pair
    correlations couple among themselves."""
    out = np.zeros((15, 15), dtype=complex)
    out[atom, 6:] = to_single
    out[6:, atom] = to_pair
    out[6:, 6:] = within_pair
    return out


# Operator factors of the coupling channels, without the amplitude (``T``, or
# its conjugate for a starred tag): they are the same for every generator, so
# they are built once.
_CHANNELS = {
    "12": _channel_factor(slice(0, 3), 2j * np.kron(_E2, DELTA_PLUS),
                          2j * np.kron(N1.reshape(3, 1), DELTA_PLUS),
                          -2.0 * np.kron(DELTA_MINUS, DELTA_PLUS)),
    "12*": _channel_factor(slice(3, 6), -2j * np.kron(DELTA_MINUS, _E1),
                           -2j * np.kron(DELTA_MINUS, N2.reshape(3, 1)),
                           -2.0 * np.kron(DELTA_MINUS, DELTA_PLUS)),
    "21": _channel_factor(slice(3, 6), 2j * np.kron(DELTA_PLUS, _E2),
                          2j * np.kron(DELTA_PLUS, N1.reshape(3, 1)),
                          -2.0 * np.kron(DELTA_PLUS, DELTA_MINUS)),
    "21*": _channel_factor(slice(0, 3), -2j * np.kron(_E1, DELTA_MINUS),
                           -2j * np.kron(N2.reshape(3, 1), DELTA_MINUS),
                           -2.0 * np.kron(DELTA_PLUS, DELTA_MINUS)),
}
_RAISING_COUPLER = np.kron(np.eye(3), 1j * DELTA_MINUS)

#: A tagged vector maps a coupling monomial (sorted tuple of channel tags)
#: to a complex coefficient vector, or a stack of them along leading axes
#: (one per frequency).  Each vector already carries its coupling amplitude,
#: so the represented quantity is the plain sum of the entries.
TaggedVector = dict


def merge_monomials(a: tuple, b: tuple) -> tuple:
    """Combine two coupling monomials into one sorted key."""
    return tuple(sorted(a + b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 3x3 matrices, either one a stack along leading axes."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (9, 9))


def _divisors(monomials) -> frozenset:
    """Every coupling monomial dividing one of ``monomials``, ``()`` included:
    the products an expansion must form to reach them."""
    return frozenset(sub for mono in monomials for k in range(len(mono) + 1)
                     for sub in combinations(sorted(mono), k))


def _tagged_add(into: TaggedVector, key: tuple, value: np.ndarray) -> None:
    if key in into:
        into[key] = into[key] + value
    else:
        into[key] = value


def exchange_coupling(x):
    """Far-field exchange amplitude ``T = 1.5j * exp(-1j*x) / x`` at
    separation ``x`` (a scalar or an array of separations)."""
    return 1.5j * np.exp(-1j * x) / x


@dataclass(frozen=True, eq=False)
class ScatteringConfig:
    """Geometry of one fixed two-atom configuration.

    Positions are measured in units of the inverse laser wavenumber, so
    the interatomic separation is directly the dimensionless retardation
    parameter ``x``, and with the laser along z the laser phase at an atom
    is its z coordinate.
    """

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r1", "r2"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, vec)
        if self.separation <= 0.0:
            raise ValueError("atoms must sit at distinct positions")
        if self.separation < 10.0:
            warnings.warn(
                "separation below ten wavenumber units: the far-field "
                "single-photon-exchange coupling is not a good model here",
                stacklevel=2,
            )

    @property
    def separation(self) -> float:
        """Dimensionless interatomic distance ``x``."""
        return float(np.linalg.norm(np.asarray(self.r1) - np.asarray(self.r2)))

    @property
    def coupling(self) -> complex:
        """Far-field exchange amplitude, see :func:`exchange_coupling`."""
        return exchange_coupling(self.separation)

    @property
    def phase1(self) -> float:
        """Laser propagation phase at atom 1, its z coordinate."""
        return float(self.r1[2])

    @property
    def phase2(self) -> float:
        """Laser propagation phase at atom 2, its z coordinate."""
        return float(self.r2[2])

    @property
    def phase_difference(self) -> float:
        """Phase mismatch ``z1 - z2`` entering the interference channel."""
        return self.phase1 - self.phase2

    @classmethod
    def from_separation(cls, x: float, *, direction=(1.0, 0.0, 0.0)) -> "ScatteringConfig":
        """Place atom 1 at the origin and atom 2 at ``x*direction``."""
        step = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(step)
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return cls(r1=np.zeros(3), r2=(x / norm) * step)


@dataclass(frozen=True, eq=False)
class TwoAtomGenerator:
    """Assembled drift, drive and tagged coupling channels of the 15-system.

    Immutable after construction; the drift and channels are cached.  The
    single-atom (6) block is ordered atom 2 first, matching the layout of
    the 15-vector documented in the module docstring.
    """

    atom1: BlochSystem
    atom2: BlochSystem
    coupling: complex

    @cached_property
    def feed(self) -> np.ndarray:
        """9x6 drift block feeding the pair block: only ``L``, for any drive."""
        one, two, eye = self.atom1.L[:, None], self.atom2.L[:, None], np.eye(3)
        return np.hstack([np.kron(one, eye), np.kron(eye, two)])

    @cached_property
    def drift(self) -> np.ndarray:
        """15x15 drift (coupling excluded).  It is block-triangular: the
        direct sum of the two Bloch generators on the single-atom block, the
        :attr:`feed` into the pair block, and the Kronecker sum of the
        generators on the pair block."""
        eye = np.eye(3)
        out = np.zeros(self.atom1.M.shape[:-2] + (15, 15), dtype=complex)
        out[..., :3, :3] = self.atom2.M
        out[..., 3:6, 3:6] = self.atom1.M
        out[..., 6:, :6] = self.feed
        out[..., 6:, 6:] = _kron(self.atom1.M, eye) + _kron(eye, self.atom2.M)
        return out

    @cached_property
    def drive(self) -> np.ndarray:
        """Inhomogeneous 15-vector; the folded identity component lives here."""
        out = np.zeros(15, dtype=complex)
        out[:3] = self.atom2.L
        out[3:6] = self.atom1.L
        return out

    @cached_property
    def channels(self) -> dict:
        """15x15 coupling operator of each channel tag: its amplitude, ``T``
        or ``conj(T)`` for a starred tag, times the channel's operator
        factor.  The coupling ``V`` is their sum."""
        t = self.coupling
        return {tag: (np.conj(t) if tag.endswith("*") else t) * _CHANNELS[tag]
                for tag in COUPLING_TAGS}

    # -- resolvents -----------------------------------------------------------

    def single_green(self, z=0.0) -> np.ndarray:
        """6x6 resolvent ``(z - M_bloch)^{-1}``, block-diagonal per atom;
        one inverse serves both blocks when the atoms share their system.

        ``z`` may be an array; the result has shape ``S_d + z.shape + (6, 6)``.
        """
        green1 = self.atom1.green(z)
        out = np.zeros(green1.shape[:-2] + (6, 6), dtype=complex)
        out[..., 3:, 3:] = green1
        out[..., :3, :3] = green1 if self.atom2 is self.atom1 else self.atom2.green(z)
        return out

    @cached_property
    def _pair_blocks(self) -> tuple:
        """The z-independent pieces of :meth:`pair_solver`, in the unitary basis
        ``W`` in which ``W^H M_corr W`` is block-diagonal.

        With ``U = diag(e^{i phase}, e^{-i phase}, 1)`` each atom's generator is
        ``U M_0 U^{-1}``, ``M_0`` the laser-phase-free one, so ``M_corr`` is
        ``D (M_0 (+) M_0) D^{-1}`` with ``D = U_1 (x) U_2``.  A Kronecker sum of
        one matrix with itself commutes with exchanging the atoms, so in
        ``W = D Q``, ``Q`` the exchange basis (:data:`_EXCHANGE_BASIS`), it splits
        into a symmetric 6-block and an antisymmetric 3-block.  The Bloch
        generator has no lowering-raising element, so the symmetric block's
        three transverse states couple only to its other three (the rest),
        and among themselves they form the diagonal block ``(-2 + 2i delta,
        -2 - 2i delta, -2)``.  Entries outside these blocks are dropped as zero.

        Returns, for row vectors, ``conj(W)`` and ``W^T``; the transverse
        diagonal; the rest and antisymmetric blocks stacked as
        ``S_d + (2, 3, 3)``; the transposed transverse-to-rest and
        rest-to-transverse blocks; and the products ``(rest <- k) (k <- rest)``
        through each transverse state ``k``, flattened to ``S_d + (3, 9)``.
        """
        phases = [np.array([one.phase for one in atom.params])
                  if isinstance(atom.params, tuple) else np.array(atom.params.phase)
                  for atom in (self.atom1, self.atom2)]
        turn1, turn2 = (np.stack([np.exp(1j * phase), np.exp(-1j * phase), np.ones_like(phase)],
                                 axis=-1) for phase in phases)
        gauge = (turn1[..., :, None] * turn2[..., None, :]).reshape(turn1.shape[:-1] + (9,))
        basis = gauge[..., :, None] * _EXCHANGE_BASIS
        blocks = np.conj(np.swapaxes(basis, -1, -2)) @ self.drift[..., 6:, 6:] @ basis
        to_rest, from_rest = blocks[..., _REST, _TRANSVERSE], blocks[..., _TRANSVERSE, _REST]
        through = to_rest.swapaxes(-1, -2)[..., :, :, None] * from_rest[..., :, None, :]
        return (np.conj(basis), basis.swapaxes(-1, -2),
                np.diagonal(blocks[..., _TRANSVERSE, _TRANSVERSE], axis1=-2, axis2=-1),
                np.stack([blocks[..., _REST, _REST], blocks[..., _ANTISYMMETRIC, _ANTISYMMETRIC]],
                         axis=-3),
                to_rest.swapaxes(-1, -2), from_rest.swapaxes(-1, -2),
                through.reshape(through.shape[:-3] + (3, 9)))

    def pair_solver(self, z):
        """``(z - M_corr)^{-1}`` in closed form, as a function on stacked 9-vectors.

        In the basis of :attr:`_pair_blocks` the transverse pivots
        ``z - (-2 +- 2i delta)`` and ``z + 2`` are eliminated, which leaves a 3x3
        Schur complement on the rest of the symmetric block; it and the
        antisymmetric block are inverted by cofactors over determinant
        (:func:`cbs2atom.linalg._cofactor_inverse`).  Its arguments follow the
        rule of every resolvent (:func:`cbs2atom.linalg._half_plane`): for
        ``Re z >= 0`` every pivot is at least 2 in modulus and every
        eigenvalue of ``M_corr`` has real part at most -2, so no pole is near.
        The returned function maps vectors of shape ``S_d + z.shape + (9,)``
        to the resolvent applied to them; no 9x9 inverse is formed.

        Raises
        ------
        ValueError
            If an element of ``z`` is not finite or has a negative real part.
        """
        z = _half_plane(z)
        into, out_of, transverse, blocks, to_rest_t, from_rest_t, through = self._pair_blocks
        stack, shape = into.shape[:-2], z.shape
        z = z.reshape(-1, 1)
        pivots = 1.0 / (z - transverse[..., None, :])
        shifted = z[..., None, None] * np.eye(3) - blocks[..., None, :, :, :]
        shifted[..., 0, :, :] -= (pivots @ through).reshape(pivots.shape + (3,))
        inverses = _cofactor_inverse(shifted)

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = rhs.reshape(stack + (-1, 9)) @ into
            x_t = x[..., _TRANSVERSE]
            x[..., _REST] += (x_t * pivots) @ to_rest_t
            y = np.einsum("...ij,...j->...i", inverses, x[..., 3:].reshape(x.shape[:-1] + (2, 3)))
            y_t = (x_t + y[..., 0, :] @ from_rest_t) * pivots
            out = np.concatenate([y_t, y.reshape(x.shape[:-1] + (6,))], axis=-1) @ out_of
            return out.reshape(stack + shape + (9,))

        return solve


def _at_phase(drive, phase: float):
    """The drive, or each drive of a sequence, with ``phase`` added."""
    if isinstance(drive, AtomDriveParams):
        return replace(drive, phase=drive.phase + phase)
    return [replace(one, phase=one.phase + phase) for one in drive]


def assemble(config: ScatteringConfig, drive) -> TwoAtomGenerator:
    """Build the generator for one configuration under a common laser drive.

    ``drive`` describes the laser at the coordinate origin; each atom gets
    the extra propagation phase of its position; a sequence of drives
    stacks one generator per drive.
    """
    atom1 = build(_at_phase(drive, config.phase1))
    atom2 = (atom1 if config.phase2 == config.phase1
             else build(_at_phase(drive, config.phase2)))
    return TwoAtomGenerator(atom1=atom1, atom2=atom2, coupling=config.coupling)


def canonical_generator(drives) -> TwoAtomGenerator:
    """The generator with no propagation phase and unit coupling: both atoms
    are the one Bloch system of ``drives`` (one drive, or a sequence, which
    stacks one generator per drive), and the exchange amplitude is one decay
    rate.

    By the gauge identity ``M(phase) = U M(0) U^-1`` every geometry's
    coupling monomials are this one's times scalar coupling and phase
    factors, so it is the one solve of the averaged channels.
    """
    atom = build(drives)
    return TwoAtomGenerator(atom1=atom, atom2=atom, coupling=1 + 0j)


def perturbative_orders(gen: TwoAtomGenerator, monomials=DEGREE_TWO_MONOMIALS) -> list:
    """Expand the stationary state to order two in the exchange coupling.

    The stationary state solves ``(A + V) Q + drive = 0``, so it is the
    zero-frequency resolvent applied to the drive, and its orders are the
    recursion of :func:`_expand` at ``z = 0`` seeded by the drive alone:
    each new order is the previous one passed once through every coupling
    channel and resolved by the drift.  The pair block's inverse
    ``(-M_corr)^{-1}`` is formed once, by one stacked dense LU, and applied
    at every order; ``z = 0`` lies in the closed right half-plane, at least 2
    from every pole of the pair block (:func:`cbs2atom.linalg._half_plane`).

    Returns ``[Q0, Q1, Q2]``: ``Qn`` is a tagged 15-vector keyed by the
    coupling monomials of degree exactly n that divide one of the
    degree-two ``monomials`` (by default every one), Bloch block in
    ``[:6]`` and correlation block in ``[6:]``.
    """
    g_pair = np.linalg.inv(-gen.drift[..., 6:, 6:])

    def pair_solve(rhs):
        return (g_pair @ rhs[..., None])[..., 0]

    return _expand(gen, gen.single_green(0.0), (pair_solve,) * 3, ({(): gen.drive}, {}, {}),
                   _divisors(monomials))


def _mean_splittings(orders: list, n: int):
    """Order-n mean-product splittings: yields ``(monomial, <sigma_2^+>^(p),
    <Q>^(n-p))`` over every p and pair of monomials whose product is a
    monomial of ``orders[n]`` (all of them, unless the orders were pruned).
    ``<sigma_2^+>^(p)`` keeps the drive axes, a 0-d array for one drive.
    """
    for p in range(n + 1):
        for mono_p, xp in orders[p].items():
            for mono_q, qvec in orders[n - p].items():
                key = merge_monomials(mono_p, mono_q)
                if key in orders[n]:
                    yield key, xp[..., 1], qvec


# -- regression initial conditions ---------------------------------------------


def _raising_product(vec: np.ndarray, include_unit: bool) -> np.ndarray:
    """15-vector of ``<sigma_2^+ Q>`` built from one 15-vector ``Q``.

    Multiplying the basis by the raising operator of atom 2 routes every
    component through the same 3x3 coupler; the operator-identity pieces
    contribute the constant ``N1`` only where the identity expectation
    enters (the zeroth order and the atom-1 block).
    """
    out = np.zeros(vec.shape, dtype=complex)
    out[..., :3] = 1j * (vec[..., :3] @ DELTA_MINUS.T)
    if include_unit:
        out[..., :3] += N1
    out[..., 3:6] = vec[..., [7, 10, 13]]
    out[..., 6:] = (vec[..., 6:] @ _RAISING_COUPLER.T
                    + (vec[..., 3:6, None] * N1).reshape(vec.shape[:-1] + (9,)))
    return out


def regression_initials(orders: list) -> tuple:
    """Connected initial conditions of the dipole correlation, per order.

    ``orders`` are the tagged 15-vectors of :func:`perturbative_orders`.
    Returns one tagged 15-vector per order n: the operator product
    ``<sigma_2^+ Q>`` at order n minus all mean-product splittings
    ``<sigma_2^+>^(p) <Q>^(q)`` with p + q = n.
    """
    out = []
    for n, level in enumerate(orders):
        tagged: TaggedVector = {mono: _raising_product(vec, include_unit=(n == 0))
                                for mono, vec in level.items()}
        for key, amp, qvec in _mean_splittings(orders, n):
            _tagged_add(tagged, key, -amp[..., None] * qvec)
        out.append(tagged)
    return tuple(out)


# -- resolvent expansion -------------------------------------------------------


def _resolve(gen: TwoAtomGenerator, g_single: np.ndarray, pair_solve, tagged: TaggedVector) -> TaggedVector:
    """Apply the block-triangular drift resolvent to stacked 15-vectors.

    ``g_single`` is ``single_green(z)`` and ``pair_solve`` applies the pair
    resolvent at the same ``z`` (a product with the stationary inverse of
    :func:`perturbative_orders`, or :meth:`TwoAtomGenerator.pair_solver`);
    the Bloch block is resolved first and feeds the correlation block.
    With ``pair_solve=None`` only the Bloch block is resolved and the
    result holds 6-vectors.
    """
    out: TaggedVector = {}
    for mono, vec in tagged.items():
        x_part = (g_single @ vec[..., :6, None])[..., 0]
        if pair_solve is None:
            out[mono] = x_part
            continue
        y_part = pair_solve(x_part @ gen.feed.T + vec[..., 6:])
        out[mono] = np.concatenate([x_part, y_part], axis=-1)
    return out


def _couple(gen: TwoAtomGenerator, tagged: TaggedVector, keep: frozenset) -> TaggedVector:
    """One insertion of the coupling ``V``: every tagged vector times every
    channel's 15x15 operator, the monomial extended by the channel's tag.

    Only products whose monomial is in ``keep`` are formed.
    """
    out: TaggedVector = {}
    for tag, channel in gen.channels.items():
        for mono, vec in tagged.items():
            key = merge_monomials(mono, (tag,))
            if key in keep:
                _tagged_add(out, key, vec @ channel.T)
    return out


def _expand(gen: TwoAtomGenerator, g_single: np.ndarray, pair_solvers, seeds,
            keep: frozenset) -> list:
    """The order-by-order resolvent recursion ``level_n = R_n (seed_n + V
    level_(n-1))``, one level per pair solver and seed.

    ``R_n`` is the drift resolvent of :func:`_resolve` with the single-atom
    resolvent ``g_single`` and the level's pair solver (``None``: the Bloch
    block only).  Each coupling insertion forms only the products whose
    monomial is in ``keep`` (:func:`_couple`).
    """
    levels: list = []
    for pair_solve, seed in zip(pair_solvers, seeds):
        source = _couple(gen, levels[-1], keep) if levels else {}
        for mono, vec in seed.items():
            _tagged_add(source, mono, vec)
        levels.append(_resolve(gen, g_single, pair_solve, source))
    return levels


# -- fixed-configuration spectra -----------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedConfigSpectra:
    """Order-two dipole-correlation spectra of one fixed configuration.

    ``autocorrelation`` is the Laplace-transformed connected correlation
    of atom 2's raising and lowering operators (component 0 of the
    15-vector), ``exchange`` the cross-atom component (component 3,
    without the interference phase factor); both map coupling monomials
    to arrays on the caller's frequency grid.  Elastic weights are products
    of stationary means of total coupling order two.
    """

    autocorrelation: dict
    exchange: dict
    elastic_autocorrelation: dict
    elastic_exchange: dict


def elastic_splittings(orders: list) -> tuple:
    """Elastic weights of the autocorrelation (component 0) and of the
    exchange (component 3), each mapping the monomials of ``orders[2]`` to
    their order-two mean-product splittings ``<sigma_2^+>^(p) <Q>^(2-p)``.

    ``orders`` are the stationary orders of :func:`perturbative_orders`, so
    the weights need no frequency grid.
    """
    auto: dict = {}
    exch: dict = {}
    for key, amp, qvec in _mean_splittings(orders, 2):
        _tagged_add(auto, key, amp * qvec[..., 0])
        _tagged_add(exch, key, amp * qvec[..., 3])
    return auto, exch


def stationary_terms(gen: TwoAtomGenerator, monomials=DEGREE_TWO_MONOMIALS) -> tuple:
    """The stationary half of :func:`fixed_config_spectrum`, which needs no
    frequency grid: ``(initials, elastic_autocorrelation, elastic_exchange)``,
    the regression initials and the elastic splittings of the z = 0 orders,
    carrying only the divisors of the degree-two ``monomials``."""
    if not set(monomials) <= set(DEGREE_TWO_MONOMIALS):
        raise ValueError("monomials must be sorted degree-two coupling monomials")
    orders = perturbative_orders(gen, monomials)
    return (regression_initials(orders), *elastic_splittings(orders))


def inelastic_spectra(gen: TwoAtomGenerator, nus, initials: tuple) -> tuple:
    """The grid half of :func:`fixed_config_spectrum`: ``(autocorrelation,
    exchange)`` on ``nus`` from the :func:`stationary_terms` ``initials``,
    by the nested resolves, which form only the monomials the initials
    carry."""
    nus = _check_reals("nus", nus)
    z = -1j * nus
    g_single, pair_solve = gen.single_green(z), gen.pair_solver(z)
    on_grid = (..., None, slice(None))
    seeds = [{mono: vec[on_grid] for mono, vec in init.items()} for init in initials]
    nested = _expand(gen, g_single, (pair_solve, pair_solve, None), seeds,
                     frozenset().union(*initials))[-1]
    return ({mono: vec[..., 0] for mono, vec in nested.items()},
            {mono: vec[..., 3] for mono, vec in nested.items()})


def fixed_config_spectrum(gen: TwoAtomGenerator, nus) -> FixedConfigSpectra:
    """Second-order inelastic correlation spectra and elastic weights of
    every degree-two coupling monomial.

    The Laplace image of the connected correlation at order two is
    ``sum_k R (V R)^k i_(2-k)`` with ``i_n`` the order-n regression initial
    condition and ``R`` the drift resolvent at ``z = -i nu``.  It is
    evaluated nested, ``R (i_2 + V R (i_1 + V R i_0))``, on the whole grid
    at once (:func:`inelastic_spectra`): the stacked resolvents are formed
    once and applied in three batched resolves, the pair block's in closed
    form (:meth:`TwoAtomGenerator.pair_solver`) whatever the grid's length.
    The results read only components 0 and 3, both in the Bloch block, so
    the last resolve skips the correlation block.  The regression initials
    and the elastic weights come from the z = 0 expansion
    (:func:`stationary_terms`), which needs no grid.  A caller that reads
    fewer monomials passes them to the stationary half, whose initials then
    carry only the monomials' divisors, and the grid half forms no others:
    for the two that survive the configuration average, ``()``, ``12``,
    ``12*``, ``21*`` and the two themselves.
    """
    initials, elastic_auto, elastic_exch = stationary_terms(gen)
    auto, exch = inelastic_spectra(gen, nus, initials)
    return FixedConfigSpectra(autocorrelation=auto, exchange=exch,
                              elastic_autocorrelation=elastic_auto,
                              elastic_exchange=elastic_exch)
