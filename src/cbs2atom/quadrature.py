"""Frequency integrals over the real line, by one self-placing rule.

:func:`line_rule` integrates a rational function of a real frequency that
decays at least like ``1/u**2``, placed by its poles.
:func:`exchanged_photon_convolution` is the paper's closed form of the
averaged channels; its caller supplies the single-atom factors
(:mod:`cbs2atom.residues` the closed forms, :mod:`cbs2atom.pumpprobe` the
bichromatic extraction).  numpy only; every integral includes ``1/2pi``.
"""

from __future__ import annotations

import math

import numpy as np

#: e-folds of the midpoint rule's geometric error demanded of the pole
#: nearest the real ``theta`` axis.  Poles near the centre of the map carry
#: the large residues, so this is more than the ~37 e-folds of double
#: precision; with it the closed-form channels move by less than 1e-14 of
#: their peak when the node count doubles.
_E_FOLDS = 48.0

#: Largest node count of one rule: a pole this close to the real axis (or an
#: emission frequency this far out) would need stacks of several hundred MB.
_MAX_NODES = 2 ** 17


def _node_count(depth: float) -> int:
    """Midpoint nodes for a mapped integrand analytic in ``|Im theta| < depth``."""
    return math.ceil(_E_FOLDS / depth)


def line_rule(poles) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``u`` and weights of ``integral du/2pi`` over the real line.

    The map ``u = m + c*tan(theta/2)`` takes the real line onto
    ``(-pi, pi)``, where the midpoint rule sums the mapped integrand.  A
    rational integrand that decays like ``1/u**2`` maps onto an analytic
    periodic function of ``theta``, so the rule converges geometrically.
    ``poles`` are the integrand's poles in ``u``, none on the real axis.
    The centre ``m`` is the midpoint of their real parts and the scale
    ``c`` the larger of half their real spread and their smallest
    ``|Im|``.  The pole nearest the real ``theta`` axis after the map,
    ``2*arctan((w - m)/c)`` for a pole at ``w``, sets the node count:
    linear in ``nu`` for clusters at ``0`` and at ``nu`` far out.  The
    weights carry the Jacobian ``c/2 * sec(theta/2)**2`` and the ``1/2pi``
    measure.  The midpoint angles are antisymmetric to the last bit, so
    poles symmetric about ``0`` give nodes that are.

    Raises
    ------
    ValueError
        If the rule would need more than ``2**17`` nodes: the poles' real
        spread is too wide for their smallest ``|Im|``, because a pole lies
        on the real axis, where the integral does not exist, or because
        clusters lie far apart.
    """
    poles = np.asarray(poles)
    low, high = np.min(poles.real), np.max(poles.real)
    centre = 0.5 * (low + high)
    floor = np.min(np.abs(poles.imag))
    scale = max(0.5 * (high - low), floor)
    # a pole at exactly m +- i*c maps to theta = +-i*inf, where it costs
    # nothing; a zero scale (a pole on the axis, no spread) maps to nan
    with np.errstate(divide="ignore", invalid="ignore"):
        mapped = np.arctan((poles - centre) / scale)
    depth = 2.0 * float(np.min(np.abs(mapped.imag)))
    if not depth * _MAX_NODES > _E_FOLDS:
        raise ValueError(f"poles of real spread {high - low:.3g} and smallest |Im| {floor:.3g} "
                         f"would need more than {_MAX_NODES} quadrature nodes")
    count = _node_count(depth)
    half = 0.5 * np.pi * (2.0 * np.arange(count) + (1.0 - count)) / count
    return centre + scale * np.tan(half), scale / (2.0 * count * np.cos(half) ** 2)


def pole_clusters(system, centres=(0.0,)) -> np.ndarray:
    """Poles in ``u`` of ``G(+-i(u - c))`` for every real centre ``c``;
    ``system`` is a :class:`cbs2atom.atom.BlochSystem`."""
    return np.concatenate([c + sign * 1j * system.eigenvalues
                           for c in centres for sign in (+1, -1)])


def exchanged_photon_convolution(system, nus, at_nodes, emission) -> tuple:
    """Ladder and crossed inelastic densities of the averaged channels.

    In the single-atom spectrum ``p0``, redistribution correlation ``p2``,
    amplitude correlations ``p_plus``, ``p_minus``, stationary coherences
    ``b-, b+`` and probe responses ``d-(w), d+(w)`` (:mod:`cbs2atom.atom`),

        ladder(nu)  = 2 Re[ integral du/2pi p0(u) p2(u, nu) + b+ b- p2(0, nu)/2pi
                            + p0(nu) (|d-(-nu)[1]|**2 + |d+(nu)[1]|**2) ]
        crossed(nu) = 2 Re[ integral du/2pi p_plus(u, nu) p_minus(nu - u, nu)
                            + b+ d-(nu)[0] p_plus(0, nu) + b- d+(nu)[1] p_minus(0, nu) ] / 2pi

    Each ``|nu|`` gets one :func:`line_rule` over the pole clusters at ``0``
    and ``nu``, where every crossed factor has its poles.  Its nodes are
    ``u = nu/2 + s`` with ``s`` antisymmetric to the last bit (the rule is
    placed on the clusters shifted by ``-nu/2``), so ``u`` reversed,
    ``nu/2 - s``, is ``nu - u``.  Each term of ``p2(u, nu)`` has its poles
    at ``0`` and at one of ``+-nu``; those at ``-nu`` are integrated on the
    mirrored nodes ``-u``.  The clusters of ``-nu`` are those of ``nu``, so
    the frequencies are visited in order of ``|nu|``, a pair ``+-nu`` back to
    back on one rule, whose nodes for ``-nu`` are those for ``nu`` negated and
    reversed, bit for bit.  Each result is written at its own index.

    ``at_nodes(i, u)`` returns, at ``nu = nus[i]`` on the rule's nodes
    ``u``: ``p0`` at ``u`` and then at ``-u`` (one array), the ``p2`` terms
    with poles at ``nu`` at ``u``, those with poles at ``-nu`` at ``-u``,
    ``p_plus(u, nu)`` and ``p_minus(u, nu)``.  ``emission`` holds
    ``p0``, ``p2(0, .)``, ``p_plus(0, .)``, ``p_minus(0, .)``, ``d-(-nu)``,
    ``d+(nu)`` and ``d-(nu)`` over ``nus``.  Returns both density arrays.
    """
    b_minus, b_plus = system.steady[0], system.steady[1]
    ladder, crossed = np.empty((2, len(nus)), dtype=complex)
    magnitude = None
    for i in np.argsort(np.abs(nus), kind="stable"):
        nu = nus[i]
        if abs(nu) != magnitude:
            magnitude = abs(nu)
            offset, weights = line_rule(pole_clusters(system, (-0.5 * nu, 0.5 * nu)))
        u = 0.5 * nu + offset
        p0, near, far, forward, reflected = at_nodes(i, u)
        ladder[i] = weights @ (p0[:len(u)] * near + p0[len(u):] * far)
        crossed[i] = weights @ (forward * reflected[::-1])
    p0, p2, p_plus, p_minus, minus_up, plus, minus = emission
    ladder += (b_plus * b_minus * p2 / (2 * np.pi)
               + p0 * (abs(minus_up[:, 1]) ** 2 + abs(plus[:, 1]) ** 2))
    crossed += b_plus * minus[:, 0] * p_plus + b_minus * plus[:, 1] * p_minus
    return 2.0 * np.real(ladder), 2.0 * np.real(crossed / (2 * np.pi))
