"""The paper's closed form of the averaged channels, as a test oracle.

The channels in single-atom observables (:func:`compact_channels`): the
exchanged-photon convolution of :mod:`cbs2atom.quadrature` over the
single-atom closed forms of :mod:`cbs2atom.atom` (``mollow_p0``,
``p_plus``, ``p_minus``, ``p2``), and both elastic weights' integrals over
the probe frequency in one pass (:func:`compact_elastic_weights`), each by
the self-placing rule over exactly the poles of its integrand.  Each Green
matrix is the closed-form 3x3 inverse over the whole node stack
(:meth:`~cbs2atom.atom.BlochSystem.green`), so the rule needs no spectral
decomposition and holds at the defective Jordan-point drive (``rabi = 1/2``
on resonance) as anywhere else.

Everything here is a test oracle, so the production modules never import
it.  Every integral includes the ``1/2pi`` measure.
"""

from __future__ import annotations

import numpy as np

from cbs2atom.atom import (
    DELTA_MINUS,
    DELTA_PLUS,
    AtomDriveParams,
    build,
    delta_sigma_first,
    delta_sigma_second,
    g0_vectors,
    mollow_p0,
    p_minus,
    p_plus,
    p2,
    p2_sides,
)
from cbs2atom.quadrature import exchanged_photon_convolution, line_rule, pole_clusters
from cbs2atom.spectra import SpectralFunctionGrid, _real_part

__all__ = [
    "compact_elastic_weights",
    "compact_channels",
]


def compact_elastic_weights(drive: AtomDriveParams) -> tuple:
    """Closed-form elastic weights of the background and of the interference
    channel (test oracle), over one system, zero-frequency responses and rule."""
    system = build(drive)
    b_minus, b_plus = system.steady[0], system.steady[1]
    d_minus0 = delta_sigma_first(system, -1, 0.0)
    d_plus0 = delta_sigma_first(system, +1, 0.0)
    u, weights = line_rule(pole_clusters(system))

    # ladder: the algebraic part, then the pump fluctuation spectrum times
    # the intensity-like second response
    second0 = delta_sigma_second(system, 0.0)
    algebraic = b_plus * b_minus * (
        second0[1] * b_minus
        + second0[0] * b_plus
        + d_plus0[1] * d_minus0[0]
        + d_minus0[1] * d_plus0[0]
    )
    second = delta_sigma_second(system, u)
    fluctuation = 2.0 * np.pi * mollow_p0(system, u)
    integral = weights @ (fluctuation * (b_minus * second[:, 1] + b_plus * second[:, 0]))
    ladder = _real_part(2.0 * (algebraic + integral))

    # crossed: the algebraic part, then the integral over the probe frequency
    g0_1, g0_2 = g0_vectors(system)
    algebraic = (
        b_plus * b_minus * d_minus0[0] * d_plus0[1]
        + b_plus * b_plus * d_plus0[0] * d_minus0[0]
        + b_minus * b_minus * d_minus0[1] * d_plus0[1]
    )
    g0 = system.green(0.0)
    term_a = (delta_sigma_first(system, -1, u)[:, 1]
              * (system.green(1j * u) @ g0_1 @ DELTA_PLUS.T @ g0.T)[:, 1])
    term_b = ((system.green(-1j * u) @ g0_2 @ DELTA_MINUS.T @ g0.T)[:, 0]
              * delta_sigma_first(system, +1, u)[:, 0])
    return ladder, _real_part(2.0 * (algebraic + weights @ (b_minus * term_a + b_plus * term_b)))


def compact_channels(drive: AtomDriveParams, nus) -> tuple:
    """Closed-form ladder (background) and crossed (interference) channels
    on a frequency grid (test oracle): the exchanged-photon convolution of
    :mod:`cbs2atom.quadrature` over the closed forms of :mod:`cbs2atom.atom`."""
    nus = np.asarray(nus, dtype=float)
    system = build(drive)

    def at_nodes(i, u):
        nu = nus[i]
        both = np.concatenate([u, -u])
        near, far = p2_sides(system, both, nu)
        return (mollow_p0(system, both), near[:len(u)], far[len(u):],
                p_plus(system, u, nu), p_minus(system, u, nu))

    emission = (mollow_p0(system, nus), p2(system, 0.0, nus), p_plus(system, 0.0, nus),
                p_minus(system, 0.0, nus), delta_sigma_first(system, -1, -nus),
                delta_sigma_first(system, +1, nus), delta_sigma_first(system, -1, nus))
    ladder, crossed = exchanged_photon_convolution(system, nus, at_nodes, emission)
    ladder_weight, crossed_weight = compact_elastic_weights(drive)
    return (SpectralFunctionGrid(nus, ladder, ladder_weight),
            SpectralFunctionGrid(nus, crossed, crossed_weight))
