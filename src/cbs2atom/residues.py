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

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from cbs2atom.linalg import (
    DEGENERACY_TOL,
    DegenerateSpectrumError,
    SpectralDecomposition,
    green,
    resolve,
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

    @classmethod
    def constant_term(cls, value) -> "PoleSum":
        return cls({(): value})

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
