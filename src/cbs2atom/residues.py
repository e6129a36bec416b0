"""Frequency integrals over products of Green-matrix chains.

Every spectral quantity in this package reduces to integrals of the form

    integral du/2pi  [chain_1(u)] * [chain_2(u)] * ...

where each chain is an ordered product of constant matrices and Green
factors ``G(a + s*i*u)`` applied to a seed vector, and ``u`` is a real
frequency.  Because every Green factor is a rational function of ``u``
with poles strictly off the real axis, the integrals are evaluated
exactly by partial fractions and residue sums over the upper half-plane;
an independent adaptive-quadrature path over the dense resolvent is kept
as a cross-check.

Two-atom (tensor-product) integrands are expressed in the same machinery
by embedding each slot's spectral decomposition into the product space,
see :func:`embed_first_slot` / :func:`embed_second_slot`.

Everything built on the residue algebra is a test oracle and lives here,
so the production modules never import it:

* the paper's closed form of the averaged channels in single-atom
  observables (``compact_*``): the channels folded into convolutions of
  the frequency-resolved correlation functions of a single pumped atom
  (the probe-response functions of :mod:`cbs2atom.atom`).  It needs the
  spectral projectors and raises
  :class:`~cbs2atom.linalg.DegenerateSpectrumError` at a defective drive;
* the printed first- and second-order transcriptions of the two-atom
  expansion (``*_explicit``) and the frequency-integral representation of
  the pair resolvent (:func:`pair_resolvent_integral`), which check the
  recurrences of :mod:`cbs2atom.twoatom`.

Conventions
-----------
* ``integrate_pole_sum`` and :func:`quadrature_line_integral` both include
  the ``1/2pi`` measure.
* Exactly coinciding poles (bitwise-equal, e.g. the same Green factor
  appearing in two chains of a product) are handled as higher-order poles
  via truncated Laurent series.  Distinct poles closer than
  ``DEGENERACY_TOL * gamma`` are rejected as numerically unsafe, as are
  poles within that distance of the real axis.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    AtomDriveParams,
    BlochSystem,
    build,
    g0_vectors,
    mollow_p0,
    p_minus,
    p_plus,
    p2,
)
from cbs2atom.linalg import (
    DEGENERACY_TOL,
    DegenerateSpectrumError,
    SpectralDecomposition,
    green,
    resolve,
)
from cbs2atom.spectra import SpectralFunctionGrid, _real_part
from cbs2atom.twoatom import (
    CROSSED_MONOMIAL,
    LADDER_MONOMIAL,
    TaggedVector,
    TwoAtomGenerator,
    _tagged_add,
)

__all__ = [
    "PoleCollisionError",
    "GreenFactor",
    "Chain",
    "PoleSum",
    "expand_chain",
    "chain_value",
    "integrate_pole_sum",
    "integrate_chains",
    "quadrature_line_integral",
    "embed_first_slot",
    "embed_second_slot",
    "check_sum_rule_I",
    "check_sum_rule_II",
    "check_sum_rule_III",
    "ChainAlgebra",
    "compact_elastic_ladder",
    "compact_elastic_crossed",
    "compact_ladder",
    "compact_crossed",
    "pair_resolvent_integral",
    "single_first_order_explicit",
    "pair_first_order_explicit",
    "single_second_order_explicit",
]


class PoleCollisionError(ValueError):
    """Raised when two distinct integration poles are dangerously close."""


@dataclass(frozen=True, eq=False)
class GreenFactor:
    """A Green-matrix factor ``G(offset + sign*i*u)`` inside a chain.

    ``u`` is the (real) integration variable named by ``var``; ``offset``
    must keep the poles off the real-``u`` axis, which for a purely
    imaginary offset is guaranteed by ``Re lambda_k < 0``.
    """

    decomp: SpectralDecomposition
    sign: int
    offset: complex = 0.0
    var: str = "w1"

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def poles(self) -> np.ndarray:
        """Pole locations in the ``u`` plane, one per eigenvalue.

        ``G(offset + sign*i*u) = sum_k P_k * (-i*sign) / (u - w_k)`` with
        ``w_k = -i*sign*(lambda_k - offset)``; for an imaginary offset the
        poles of a ``sign=+1`` factor lie in the upper half-plane.
        """
        return -1j * self.sign * (self.decomp.eigenvalues - self.offset)


@dataclass(frozen=True, eq=False)
class Chain:
    """Ordered matrix product, right-applied to an optional seed vector.

    ``ops`` is read left to right in the usual operator order: the last
    entry acts first on ``seed``.  Entries are either constant arrays or
    :class:`GreenFactor` instances.  ``extract`` selects one component of
    the resulting vector (requires a seed), turning the chain scalar so
    that chains can be multiplied together under a common integral.
    """

    ops: tuple
    seed: np.ndarray | None = None
    extract: int | None = None

    def __post_init__(self) -> None:
        if self.extract is not None and self.seed is None:
            raise ValueError("component extraction requires a seed vector")


def _sort_key(entry: tuple[str, complex]) -> tuple[str, float, float]:
    var, w = entry
    return (var, w.real, w.imag)


def _merge_keys(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, key=_sort_key))


class PoleSum:
    """A rational function of named real variables, in pole-monomial form.

    Stored as ``sum_terms coeff * prod_j (u_var_j - w_j)^-1`` where the
    key of each term is the sorted multiset of ``(var, pole)`` pairs and
    the coefficient is a complex scalar or array.  Repeated pairs encode
    higher-order poles.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None) -> None:
        self.terms: dict[tuple, complex | np.ndarray] = dict(terms or {})

    def _accumulate(self, key: tuple, coeff) -> None:
        if key in self.terms:
            self.terms[key] = self.terms[key] + coeff
        else:
            self.terms[key] = coeff

    def __add__(self, other: "PoleSum") -> "PoleSum":
        out = PoleSum(self.terms)
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    def scaled(self, factor: complex) -> "PoleSum":
        return PoleSum({k: factor * c for k, c in self.terms.items()})

    def multiply(self, other: "PoleSum") -> "PoleSum":
        """Pointwise product; requires scalar coefficients on both sides."""
        out = PoleSum()
        for k1, c1 in self.terms.items():
            if isinstance(c1, np.ndarray):
                raise TypeError("products require scalar (extracted) chains")
            for k2, c2 in other.terms.items():
                if isinstance(c2, np.ndarray):
                    raise TypeError("products require scalar (extracted) chains")
                out._accumulate(_merge_keys(k1, k2), c1 * c2)
        return out

    def conjugated(self) -> "PoleSum":
        """Complex conjugate as a function of the (real) variables."""
        out = PoleSum()
        for key, coeff in self.terms.items():
            ckey = tuple(sorted(((v, w.conjugate()) for v, w in key), key=_sort_key))
            out._accumulate(ckey, np.conj(coeff))
        return out

    def evaluate(self, values: Mapping[str, float]):
        """Evaluate pointwise at real variable values."""
        total = 0.0 + 0.0j
        for key, coeff in self.terms.items():
            weight = 1.0 + 0.0j
            for var, w in key:
                weight /= values[var] - w
            total = total + coeff * weight
        return total

    def constant(self):
        """Return the value once no integration variables remain."""
        if not self.terms:
            return 0.0 + 0.0j
        if set(self.terms) != {()}:
            raise ValueError("pole content remains; integrate first")
        return self.terms[()]

    def variables(self) -> set[str]:
        return {var for key in self.terms for var, _ in key}


def expand_chain(chain: Chain) -> PoleSum:
    """Partial-fraction a chain into a :class:`PoleSum`.

    Each Green factor is split over its spectral projectors, so the result
    holds one matrix/vector/scalar coefficient per combination of pole
    choices.  Pole locations are computed by a single shared formula, so
    the same factor appearing twice yields bitwise-identical poles that
    downstream integration recognizes as a higher-order pole.
    """
    if chain.seed is not None:
        start = np.asarray(chain.seed, dtype=complex)
    else:
        last = chain.ops[-1]
        dim = last.decomp.projectors.shape[-1] if isinstance(last, GreenFactor) else np.asarray(last).shape[-1]
        start = np.eye(dim, dtype=complex)

    states: dict[tuple, np.ndarray] = {(): start}
    for op in reversed(chain.ops):
        if isinstance(op, GreenFactor):
            poles = op.poles()
            weight = -1j * op.sign
            new_states: dict[tuple, np.ndarray] = {}
            for key, vec in states.items():
                for proj, w in zip(op.decomp.projectors, poles):
                    new_key = _merge_keys(key, ((op.var, complex(w)),))
                    contrib = weight * (proj @ vec)
                    if new_key in new_states:
                        new_states[new_key] = new_states[new_key] + contrib
                    else:
                        new_states[new_key] = contrib
            states = new_states
        else:
            mat = np.asarray(op, dtype=complex)
            states = {key: mat @ vec for key, vec in states.items()}

    if chain.extract is not None:
        return PoleSum({key: complex(vec[chain.extract]) for key, vec in states.items()})
    return PoleSum(states)


def chain_value(chain: Chain, values: Mapping[str, float]):
    """Evaluate a chain at explicit variable values via dense solves.

    Deliberately avoids the spectral decomposition (each Green factor is a
    direct linear solve), giving an independent numerical path for
    cross-checking the partial-fraction expansion.
    """
    if chain.seed is not None:
        state = np.asarray(chain.seed, dtype=complex)
    else:
        last = chain.ops[-1]
        dim = last.decomp.projectors.shape[-1] if isinstance(last, GreenFactor) else np.asarray(last).shape[-1]
        state = np.eye(dim, dtype=complex)
    for op in reversed(chain.ops):
        if isinstance(op, GreenFactor):
            z = op.offset + op.sign * 1j * values[op.var]
            dec = op.decomp
            state = resolve(dec.matrix, z, np.eye(len(state)), dec.eigenvalues, dec.gamma) @ state
        else:
            state = np.asarray(op, dtype=complex) @ state
    if chain.extract is not None:
        return complex(state[chain.extract])
    return state


def _residue_series_coefficient(w0: complex, order: int, others: Sequence[tuple[complex, int]]) -> complex:
    """Taylor coefficient of ``eps**(order-1)`` of the co-factor product.

    For a pole ``w0`` of multiplicity ``order``, the residue of
    ``prod_j (u - w_j)^{-m_j}`` equals the ``eps**(order-1)`` coefficient
    of ``prod_{j != 0} ((w0 - w_j) + eps)^{-m_j}``.
    """
    series = np.zeros(order, dtype=complex)
    series[0] = 1.0
    for w, mult in others:
        base = w0 - w
        factor = np.empty(order, dtype=complex)
        for k in range(order):
            factor[k] = (-1.0) ** k * math.comb(mult + k - 1, k) / base ** (mult + k)
        series = np.convolve(series, factor)[:order]
    return complex(series[order - 1])


def integrate_pole_sum(ps: PoleSum, var: str, gamma: float = 1.0) -> PoleSum:
    """Integrate ``du/2pi`` over one variable by closing the contour upward.

    Every term must decay at least like ``1/u**2`` (at least two poles in
    ``var`` counting multiplicity), which holds for all integrands built
    from products of Green chains.

    Raises
    ------
    DegenerateSpectrumError
        If a pole lies within ``DEGENERACY_TOL * gamma`` of the real axis.
    PoleCollisionError
        If two distinct poles are within ``DEGENERACY_TOL * gamma`` of
        each other (bitwise-equal poles are merged into one higher-order
        pole instead).
    ValueError
        If a term has no pole or a single simple pole in ``var``.
    """
    tol = DEGENERACY_TOL * gamma
    out = PoleSum()
    for key, coeff in ps.terms.items():
        groups: dict[complex, int] = {}
        rest = []
        for entry in key:
            if entry[0] == var:
                groups[entry[1]] = groups.get(entry[1], 0) + 1
            else:
                rest.append(entry)
        if not groups:
            raise ValueError(f"term has no pole in integration variable {var!r}")
        if sum(groups.values()) < 2:
            raise ValueError(f"term decays like 1/{var}; the integral does not converge")

        poles = list(groups.items())
        for w, _ in poles:
            if abs(w.imag) < tol:
                raise DegenerateSpectrumError(
                    f"integration pole {w} lies within {tol:g} of the real axis"
                )
        for i in range(len(poles)):
            for j in range(i + 1, len(poles)):
                if abs(poles[i][0] - poles[j][0]) < tol:
                    raise PoleCollisionError(
                        f"distinct poles {poles[i][0]} and {poles[j][0]} closer than {tol:g}"
                    )

        total = 0.0 + 0.0j
        for idx, (w0, mult) in enumerate(poles):
            if w0.imag <= 0.0:
                continue
            others = [p for k, p in enumerate(poles) if k != idx]
            total += _residue_series_coefficient(w0, mult, others)
        out._accumulate(tuple(rest), coeff * (1j * total))
    return out


def integrate_chains(
    chains: Sequence[Chain],
    variables: Iterable[str] = ("w1",),
    gamma: float = 1.0,
):
    """Integrate the product of chains over the named variables in order."""
    ps = expand_chain(chains[0])
    for extra in chains[1:]:
        ps = ps.multiply(expand_chain(extra))
    for var in variables:
        ps = integrate_pole_sum(ps, var, gamma=gamma)
    return ps.constant()


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
    from scipy.integrate import quad

    val = quad(fn, -np.inf, np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit,
               complex_func=True)[0]
    return complex(val) / (2.0 * np.pi)


def embed_first_slot(decomp: SpectralDecomposition, other_dim: int = 3) -> SpectralDecomposition:
    """Lift a decomposition to the product space, acting on the first slot.

    ``kron(P_k, 1)`` are again orthogonal spectral projectors with the
    same eigenvalues, so chains mixing first- and second-slot factors can
    be integrated with the ordinary machinery.
    """
    eye = np.eye(other_dim)
    projectors = np.stack([np.kron(p, eye) for p in decomp.projectors])
    return SpectralDecomposition(decomp.eigenvalues, projectors, decomp.gamma)


def embed_second_slot(decomp: SpectralDecomposition, other_dim: int = 3) -> SpectralDecomposition:
    """Lift a decomposition to the product space, acting on the second slot."""
    eye = np.eye(other_dim)
    projectors = np.stack([np.kron(eye, p) for p in decomp.projectors])
    return SpectralDecomposition(decomp.eigenvalues, projectors, decomp.gamma)


def _random_insertion(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return mat / math.sqrt(2.0 * dim)


def _require_imaginary(*zs: complex) -> None:
    for z in zs:
        if abs(complex(z).real) > 1e-12:
            raise ValueError(f"fixed resolvent argument {z} must be purely imaginary")


def check_sum_rule_I(system_one, system_two, z: complex, rng=None) -> float:
    """Deviation of the two-term reduction identity at imaginary ``z``.

    With arbitrary fixed insertions ``A``, ``B``, ``C`` in the product
    space,

        integral dw/2pi [A G1(z/2+iw) B G2(z/2-iw) G2(z) C
                         + A G1(z/2+iw) G1(0) B G2(z/2-iw) C]
            = A G1(0) B G2(z) C,

    where ``G1`` acts on the first slot and ``G2`` on the second.  Returns
    the maximum absolute elementwise deviation, with the left side
    computed by residue integration and the right side in closed form.
    """
    _require_imaginary(z)
    rng = np.random.default_rng(rng)
    d1, d2 = system_one.decomp, system_two.decomp
    e1, e2 = embed_first_slot(d1), embed_second_slot(d2)
    a_ins, b_ins, c_ins = (_random_insertion(rng, 9) for _ in range(3))
    g1_zero = np.kron(green(d1, 0.0), np.eye(3))
    g2_z = np.kron(np.eye(3), green(d2, z))

    half = complex(z) / 2.0
    line1 = Chain(ops=(a_ins, GreenFactor(e1, +1, half), b_ins,
                       GreenFactor(e2, -1, half), g2_z, c_ins))
    line2 = Chain(ops=(a_ins, GreenFactor(e1, +1, half), g1_zero, b_ins,
                       GreenFactor(e2, -1, half), c_ins))
    lhs = integrate_pole_sum(expand_chain(line1) + expand_chain(line2), "w1",
                             gamma=d1.gamma).constant()
    rhs = a_ins @ g1_zero @ b_ins @ g2_z @ c_ins
    return float(np.max(np.abs(lhs - rhs)))


def check_sum_rule_II(system_one, system_two, omega: float, rng=None) -> float:
    """Deviation of the double-integral collapse identity.

    With fixed insertions ``A .. D`` in the product space,

        integral dw1/2pi dw2/2pi
            A G1(-i omega/2 + i w2) G1(i w1) B G2(-i omega/2 - i w2) C G2(-i w1) D
        = integral dw1/2pi
            A G1(i w1) B G2(-i omega - i w1) C G2(-i w1) D.

    Left side by iterated residues, right side by single-variable
    residues; returns the maximum absolute deviation.
    """
    rng = np.random.default_rng(rng)
    d1, d2 = system_one.decomp, system_two.decomp
    e1, e2 = embed_first_slot(d1), embed_second_slot(d2)
    a_ins, b_ins, c_ins, d_ins = (_random_insertion(rng, 9) for _ in range(4))
    shift = -0.5j * omega

    lhs_chain = Chain(ops=(a_ins,
                           GreenFactor(e1, +1, shift, "w2"), GreenFactor(e1, +1, 0.0, "w1"),
                           b_ins,
                           GreenFactor(e2, -1, shift, "w2"),
                           c_ins,
                           GreenFactor(e2, -1, 0.0, "w1"),
                           d_ins))
    ps = expand_chain(lhs_chain)
    ps = integrate_pole_sum(ps, "w2", gamma=d1.gamma)
    lhs = integrate_pole_sum(ps, "w1", gamma=d1.gamma).constant()

    rhs_chain = Chain(ops=(a_ins,
                           GreenFactor(e1, +1, 0.0, "w1"),
                           b_ins,
                           GreenFactor(e2, -1, -1j * omega, "w1"),
                           c_ins,
                           GreenFactor(e2, -1, 0.0, "w1"),
                           d_ins))
    rhs = integrate_pole_sum(expand_chain(rhs_chain), "w1", gamma=d1.gamma).constant()
    return float(np.max(np.abs(lhs - rhs)))


def check_sum_rule_III(system, z1: complex, z2: complex, rng=None) -> float:
    """Deviation of the single-atom splitting identity.

    With fixed 3x3 insertions ``A``, ``B``, ``C``,

        integral dw/2pi [A G(z1) G(iw) B G(-iw) C + A G(iw) B G(z2) G(-iw) C]
            = A G(z1) B G(z2) C.

    The identity holds for purely imaginary arguments with ``z1 + z2 = 0``
    (every use downstream pairs a resolvent at ``-i nu`` with its mirror
    at ``+i nu``); the function evaluates the deviation for whatever
    arguments are supplied, so the constraint is observable.
    """
    _require_imaginary(z1, z2)
    rng = np.random.default_rng(rng)
    decomp = system.decomp
    a_ins, b_ins, c_ins = (_random_insertion(rng, 3) for _ in range(3))
    g_z1 = green(decomp, z1)
    g_z2 = green(decomp, z2)

    line1 = Chain(ops=(a_ins, g_z1, GreenFactor(decomp, +1, 0.0), b_ins,
                       GreenFactor(decomp, -1, 0.0), c_ins))
    line2 = Chain(ops=(a_ins, GreenFactor(decomp, +1, 0.0), b_ins, g_z2,
                       GreenFactor(decomp, -1, 0.0), c_ins))
    lhs = integrate_pole_sum(expand_chain(line1) + expand_chain(line2), "w1",
                             gamma=decomp.gamma).constant()
    rhs = a_ins @ g_z1 @ b_ins @ g_z2 @ c_ins
    return float(np.max(np.abs(lhs - rhs)))


# ----------------------------------------------------------------------------
# closed form in single-atom observables (test oracle)
# ----------------------------------------------------------------------------


DM = DELTA_MINUS
DP = DELTA_PLUS

POLE_MERGE_TOL = 1e-10


def _expand_products(*factors):
    """Cross products of ``[(coeff, chains), ...]`` factor lists."""
    out = []
    for combo in itertools.product(*factors):
        coeff = 1.0 + 0.0j
        chains: tuple = ()
        for c, ch in combo:
            coeff *= c
            chains += ch
        out.append((coeff, chains))
    return out


class _VectorExpr:
    """Sum of (coefficient, scalar chain factors, vector chain) pieces.

    Represents frequency-dependent response vectors whose definition
    mixes matrix chains with scalar-component weights, so they can be
    embedded inside larger chains and later reduced to products of
    scalar chains.
    """

    def __init__(self, pieces):
        self.pieces = tuple(pieces)

    def apply(self, *ops) -> "_VectorExpr":
        """Prepend outer operators (leftmost acts last)."""
        return _VectorExpr(
            (coeff, scalars, Chain(tuple(ops) + vec.ops, vec.seed))
            for coeff, scalars, vec in self.pieces)

    def component(self, index: int):
        """Reduce to ``[(coeff, chains), ...]`` scalar products."""
        return [
            (coeff, scalars + (Chain(vec.ops, vec.seed, extract=index),))
            for coeff, scalars, vec in self.pieces]


class ChainAlgebra:
    """Response-chain factory for one driven atom.

    Caches the spectral decomposition, the stationary state, the
    zero-frequency probe vectors, and canonical Green factors so that
    equal resolvent arguments map to bitwise-equal integration poles.
    """

    def __init__(self, drive: AtomDriveParams):
        self.drive = drive
        self.system: BlochSystem = build(drive)
        self.decomp = self.system.decomp
        self.gamma = drive.gamma
        self.steady = self.system.steady
        self.g0_1, self.g0_2 = g0_vectors(self.system)
        self.b_minus = self.steady[0]
        self.b_plus = self.steady[1]
        self._factors: dict = {}

    def g(self, z: complex) -> np.ndarray:
        return green(self.decomp, z)

    def gf(self, sign: int, offset: complex = 0.0, var: str = "w1") -> GreenFactor:
        offset = complex(offset)
        if offset == 0:
            offset = 0.0 + 0.0j
        key = (sign, offset, var)
        if key not in self._factors:
            self._factors[key] = GreenFactor(self.decomp, sign, offset, var)
        return self._factors[key]

    def dsigma(self, branch: int, z: complex) -> np.ndarray:
        """First-order response vector ``G(z) DELTA^(branch) steady``."""
        delta = DP if branch > 0 else DM
        return self.g(z) @ (delta @ self.steady)

    # ---- frequency-dependent probe-response vectors

    def probe_minus(self, atom: int, sign: int, offset: complex = 0.0,
                    var: str = "w1") -> "_VectorExpr":
        """Co-rotating probe vector of either correlation branch at
        argument ``offset + sign*i*u``."""
        gfac = self.gf(sign, offset, var)
        s = self.steady
        if atom == 2:
            lead, weight = 1j * DM, 1
        else:
            lead, weight = -1j * DP, 0
        return _VectorExpr([
            (1.0, (), Chain((lead, gfac, DM), s)),
            (-s[weight], (), Chain((gfac, DM), s)),
            (-1.0, (Chain((gfac, DM), s, extract=weight),), Chain((), s)),
        ])

    def probe_plus(self, atom: int, sign: int, offset: complex = 0.0,
                   var: str = "w1") -> "_VectorExpr":
        """Counter-rotating probe vector at ``offset + sign*i*u``."""
        gfac = self.gf(sign, offset, var)
        s = self.steady
        if atom == 2:
            lead, weight = 1j * DM, 1
        else:
            lead, weight = -1j * DP, 0
        return _VectorExpr([
            (1.0, (), Chain((lead, gfac, DP), s)),
            (-s[weight], (), Chain((gfac, DP), s)),
            (-1.0, (Chain((gfac, DP), s, extract=weight),), Chain((), s)),
        ])

    def probe_second(self, var: str = "w1") -> "_VectorExpr":
        """Two-probe (one co-, one counter-rotating) response vector of the
        positive-frequency branch, as a function of the real probe
        frequency ``u``."""
        s = self.steady
        g0 = self.g(0.0)
        down, up = self.gf(-1, 0.0, var), self.gf(+1, 0.0, var)
        return _VectorExpr([
            (1.0, (), Chain((1j * DM, g0, DP, down, DM), s)),
            (1.0, (), Chain((1j * DM, g0, DM, up, DP), s)),
            (-1.0, (Chain((g0, DP, down, DM), s, extract=1),), Chain((), s)),
            (-1.0, (Chain((g0, DM, up, DP), s, extract=1),), Chain((), s)),
            (-s[1], (), Chain((g0, DP, down, DM), s)),
            (-s[1], (), Chain((g0, DM, up, DP), s)),
            (-1.0, (Chain((up, DP), s, extract=1),), Chain((down, DM), s)),
            (-1.0, (Chain((down, DM), s, extract=1),), Chain((up, DP), s)),
        ])

    # ---- integration helpers

    def integral(self, terms, variables=("w1",)) -> complex:
        """Integrate a sum of scalar-chain products over ``du/2pi`` per
        variable, exactly by residues."""
        total = 0.0 + 0.0j
        for coeff, chains in terms:
            ps = expand_chain(chains[0])
            for extra in chains[1:]:
                ps = ps.multiply(expand_chain(extra))
            for var in variables:
                ps = integrate_pole_sum(ps, var, gamma=self.gamma)
            total += coeff * ps.constant()
        return total

    def pole_sum(self, terms) -> PoleSum:
        """Assemble scalar-chain products into one rational function."""
        total = PoleSum()
        for coeff, chains in terms:
            ps = expand_chain(chains[0])
            for extra in chains[1:]:
                ps = ps.multiply(expand_chain(extra))
            total = total + ps.scaled(coeff)
        return total


@lru_cache(maxsize=16)
def _algebra(drive: AtomDriveParams) -> ChainAlgebra:
    return ChainAlgebra(drive)


def _chain(ops, seed, index):
    return [(1.0, (Chain(tuple(ops), seed, extract=index),))]


# ----------------------------------------------------------------------------
# elastic weights
# ----------------------------------------------------------------------------


def _elastic_ladder_value(al: ChainAlgebra) -> complex:
    s, g0 = al.steady, al.g(0.0)
    d_minus0 = al.dsigma(-1, 0.0)
    d_plus0 = al.dsigma(+1, 0.0)
    second0 = g0 @ (DP @ d_minus0) + g0 @ (DM @ d_plus0)
    algebraic = al.b_plus * al.b_minus * (
        second0[1] * al.b_minus
        + second0[0] * al.b_plus
        + d_plus0[1] * d_minus0[0]
        + d_minus0[1] * d_plus0[0]
    )

    # pump fluctuation weights times the intensity-like second response;
    # each correlation branch pairs with the oppositely rotating chain
    # (the equal-rotation pairings close away from all poles and vanish)
    fluct = [
        (1.0, (Chain((al.gf(-1),), al.g0_2, extract=0),)),
        (1.0, (Chain((al.gf(+1),), al.g0_1, extract=1),)),
    ]
    second_terms = (
        [(al.b_minus, chains) for _, chains in
         _chain((g0, DP, al.gf(-1), DM), s, 1) + _chain((g0, DM, al.gf(+1), DP), s, 1)]
        + [(al.b_plus, chains) for _, chains in
           _chain((g0, DP, al.gf(-1), DM), s, 0) + _chain((g0, DM, al.gf(+1), DP), s, 0)]
    )
    integral = al.integral(_expand_products(fluct, second_terms))
    return algebraic + integral


def _elastic_crossed_value(al: ChainAlgebra) -> complex:
    s, g0 = al.steady, al.g(0.0)
    d_minus0 = al.dsigma(-1, 0.0)
    d_plus0 = al.dsigma(+1, 0.0)
    algebraic = (
        al.b_plus * al.b_minus * d_minus0[0] * d_plus0[1]
        + al.b_plus * al.b_plus * d_plus0[0] * d_minus0[0]
        + al.b_minus * al.b_minus * d_minus0[1] * d_plus0[1]
    )

    term_a = _expand_products(
        _chain((al.gf(-1), DM), s, 1),
        _chain((g0, DP, al.gf(+1)), al.g0_1, 1))
    term_b = _expand_products(
        _chain((g0, DM, al.gf(-1)), al.g0_2, 0),
        _chain((al.gf(+1), DP), s, 0))
    integral = al.b_minus * al.integral(term_a) + al.b_plus * al.integral(term_b)
    return algebraic + integral


def compact_elastic_ladder(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the background channel (test oracle)."""
    value = 2.0 * _elastic_ladder_value(_algebra(drive))
    return _real_part(value, scale=abs(value))


def compact_elastic_crossed(drive: AtomDriveParams) -> float:
    """Closed-form elastic weight of the interference channel (test oracle)."""
    value = 2.0 * _elastic_crossed_value(_algebra(drive))
    return _real_part(value, scale=abs(value))


def _merged_bit_noise(ps: PoleSum, tol: float) -> PoleSum:
    """Snap poles that differ only by floating-point noise onto a shared
    representative.

    Conjugating a pole sum rebuilds pole locations from the mirrored
    eigenvalues, which agree with their partners only to machine precision;
    without snapping, a product of the two branches sees the same pole
    twice at a separation far below any physical spacing.
    """
    seen: dict[str, list[complex]] = {}

    def canonical(var: str, pole: complex) -> complex:
        known = seen.setdefault(var, [])
        for rep in known:
            if abs(pole - rep) <= tol:
                return rep
        known.append(pole)
        return pole

    terms: dict[tuple, complex] = {}
    for key, coeff in ps.terms.items():
        snapped = tuple(sorted(
            ((var, canonical(var, pole)) for var, pole in key),
            key=lambda entry: (entry[0], entry[1].real, entry[1].imag)))
        terms[snapped] = terms.get(snapped, 0.0) + coeff
    return PoleSum(terms)


# ----------------------------------------------------------------------------
# compact inelastic channels
# ----------------------------------------------------------------------------


def _p0_pole_sum(al: ChainAlgebra) -> PoleSum:
    """Pump fluorescence spectrum as a rational function (density scale)."""
    return al.pole_sum([
        (1.0 / (2 * np.pi), (Chain((al.gf(-1),), al.g0_2, extract=0),)),
        (1.0 / (2 * np.pi), (Chain((al.gf(+1),), al.g0_1, extract=1),)),
    ])


def _p2_pole_sum(al: ChainAlgebra, nu: float) -> PoleSum:
    """Two-probe redistribution correlation as a rational function of the
    probe frequency, at fixed emission frequency ``nu``."""
    gn = al.g(-1j * nu)
    zn = -1j * nu
    terms = (
        al.probe_second().apply(gn).component(0)
        + _chain((gn, DM, al.gf(+1, zn), DP, gn), al.g0_2, 0)
        + al.probe_plus(2, +1).apply(gn, DM, al.gf(+1, zn)).component(0)
        + _chain((gn, DP, al.gf(-1, zn), DM, gn), al.g0_2, 0)
        + al.probe_minus(2, -1).apply(gn, DP, al.gf(-1, zn)).component(0)
    )
    branch = al.pole_sum(terms)
    return branch + branch.conjugated()


def _p_plus_terms(al: ChainAlgebra, nu: float, reflected: bool):
    """Counter-rotating probe correlation as chains in the probe
    frequency ``u``.

    ``reflected=False`` gives the correlation at probe frequency ``u``;
    ``reflected=True`` at ``nu - u``, the combination forced by frequency
    conservation in the interference convolution.
    """
    gnp = al.g(1j * nu)
    gnm = al.g(-1j * nu)
    zp = 1j * nu
    zn = -1j * nu
    if not reflected:
        return (
            _chain((gnp, DP, al.gf(-1, zp)), al.g0_1, 1)
            + al.probe_plus(1, +1).apply(gnp).component(1)
            + _chain((al.gf(+1, zn), DP, gnm), al.g0_2, 0)
            + al.probe_plus(2, +1).apply(al.gf(+1, zn)).component(0)
        )
    return (
        _chain((gnp, DP, al.gf(+1)), al.g0_1, 1)
        + al.probe_plus(1, -1, zp).apply(gnp).component(1)
        + _chain((al.gf(-1), DP, gnm), al.g0_2, 0)
        + al.probe_plus(2, -1, zp).apply(al.gf(-1)).component(0)
    )


def _ladder_values(al: ChainAlgebra, nus: np.ndarray) -> np.ndarray:
    p0_ps = _p0_pole_sum(al)
    system = al.system

    def one(nu: float) -> float:
        product = _merged_bit_noise(
            p0_ps.multiply(_p2_pole_sum(al, nu)), POLE_MERGE_TOL * al.gamma)
        convolution = integrate_pole_sum(product, "w1", gamma=al.gamma).constant()
        pump_elastic = al.b_plus * al.b_minus * p2(system, 0.0, nu) / (2 * np.pi)
        direct = mollow_p0(system, nu) * (
            abs(al.dsigma(-1, 1j * nu)[1]) ** 2 + abs(al.dsigma(+1, 1j * nu)[1]) ** 2)
        return 2.0 * float(np.real(convolution + pump_elastic + direct))

    return np.array([one(nu) for nu in nus])


def _crossed_values(al: ChainAlgebra, nus: np.ndarray) -> np.ndarray:
    system = al.system

    def one(nu: float) -> float:
        plus_ps = al.pole_sum(_p_plus_terms(al, nu, reflected=False))
        minus_ps = al.pole_sum(_p_plus_terms(al, nu, reflected=True)).conjugated()
        product = _merged_bit_noise(
            plus_ps.multiply(minus_ps), POLE_MERGE_TOL * al.gamma)
        convolution = integrate_pole_sum(product, "w1", gamma=al.gamma).constant()
        edge = (
            al.b_plus * al.dsigma(-1, -1j * nu)[0] * p_plus(system, 0.0, nu)
            + al.b_minus * al.dsigma(+1, 1j * nu)[1] * p_minus(system, 0.0, nu)
        ) / (2 * np.pi)
        return 2.0 * float(np.real(convolution / (2 * np.pi) + edge))

    return np.array([one(nu) for nu in nus])


def compact_ladder(drive: AtomDriveParams, nus) -> SpectralFunctionGrid:
    """Closed-form background channel on a frequency grid (test oracle)."""
    nus = np.asarray(nus, dtype=float)
    return SpectralFunctionGrid(nu=nus, values=_ladder_values(_algebra(drive), nus),
                                elastic_weight=compact_elastic_ladder(drive))


def compact_crossed(drive: AtomDriveParams, nus) -> SpectralFunctionGrid:
    """Closed-form interference channel on a frequency grid (test oracle)."""
    nus = np.asarray(nus, dtype=float)
    return SpectralFunctionGrid(nu=nus, values=_crossed_values(_algebra(drive), nus),
                                elastic_weight=compact_elastic_crossed(drive))


# -- explicit closed-form transcriptions (oracles for the recurrences) ---------


def _pair_integral(system_one: BlochSystem, system_two: BlochSystem,
                   sign_one: int, sign_two: int, seed: np.ndarray) -> np.ndarray:
    """Residue-evaluated ``integral dw/2pi G1(s1*i*w) (x) G2(s2*i*w)`` on a seed."""
    ops = (
        GreenFactor(embed_first_slot(system_one.decomp), sign_one),
        GreenFactor(embed_second_slot(system_two.decomp), sign_two),
    )
    ps = expand_chain(Chain(ops=ops, seed=seed))
    return np.asarray(
        integrate_pole_sum(ps, "w1", gamma=system_one.params.gamma).constant()
    )


def pair_resolvent_integral(gen: TwoAtomGenerator, z: complex = 0.0,
                            orientation: int = +1) -> np.ndarray:
    """Pair-correlation resolvent via the frequency-integral representation.

    Splits ``(z - M_corr)^{-1}`` into a line integral over single-atom
    resolvents at ``z/2 +- i w``; ``orientation`` selects which slot gets
    the upper sign (both choices must agree).  Cross-validates
    :meth:`TwoAtomGenerator.pair_green`.
    """
    if abs(complex(z).real) > 1e-12:
        raise ValueError("integral representation requires an imaginary argument")
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    half = complex(z) / 2.0
    ops = (
        GreenFactor(embed_first_slot(gen.atom1.decomp), orientation, half),
        GreenFactor(embed_second_slot(gen.atom2.decomp), -orientation, half),
    )
    ps = expand_chain(Chain(ops=ops))
    return np.asarray(integrate_pole_sum(ps, "w1", gamma=gen.config.gamma).constant())


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
    poles and yields exactly zero; ``printed_final_term=True`` reproduces
    that literal reading, the default restores the opposite-sign pairing
    that matches the recurrences.
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
                -2j * tc * _pair_integral(a1, a2, +1, -1, np.kron(g0_first_1, DELTA_MINUS @ s2)))
    _tagged_add(out, ("12",),
                2j * t * _pair_integral(a1, a2, -1, +1, np.kron(g0_second_1, DELTA_PLUS @ s2)))
    _tagged_add(out, ("21",),
                2j * t * _pair_integral(a1, a2, +1, -1, np.kron(DELTA_PLUS @ s1, g0_second_2)))
    final_sign = -1 if printed_final_term else +1
    _tagged_add(out, ("12*",),
                -2j * tc * _pair_integral(a1, a2, -1, final_sign, np.kron(DELTA_MINUS @ s1, g0_first_2)))
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
    d1, d2 = a1.decomp, a2.decomp
    gamma = gen.config.gamma
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

    def paired(mono, scalar_chain, vector_ops, vector_seed):
        value = np.array([
            integrate_chains(
                [scalar_chain, Chain(ops=vector_ops, seed=vector_seed, extract=comp)],
                ("w1",), gamma=gamma)
            for comp in range(3)
        ])
        _tagged_add(out, mono, 4.0 * tt * value)

    paired(LADDER_MONOMIAL,
           Chain(ops=(GreenFactor(d1, -1),), seed=g0_second_1, extract=0),
           (g2, DELTA_MINUS, GreenFactor(d2, +1), DELTA_PLUS), s2)
    paired(LADDER_MONOMIAL,
           Chain(ops=(GreenFactor(d1, +1),), seed=g0_first_1, extract=1),
           (g2, DELTA_PLUS, GreenFactor(d2, -1), DELTA_MINUS), s2)
    paired(CROSSED_MONOMIAL,
           Chain(ops=(GreenFactor(d1, +1), DELTA_MINUS), seed=s1, extract=1),
           (g2, DELTA_PLUS, GreenFactor(d2, -1)), g0_first_2)
    paired(("21", "21*"),
           Chain(ops=(GreenFactor(d1, +1), DELTA_PLUS), seed=s1, extract=0),
           (g2, DELTA_MINUS, GreenFactor(d2, -1)), g0_second_2)
    return out
