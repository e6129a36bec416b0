"""The paper's closed form of the averaged channels, as a test oracle.

The channels in single-atom observables (:func:`compact_channels`): the
exchanged-photon convolution of :mod:`cbs2atom.quadrature` over the
single-atom closed forms of :mod:`cbs2atom.atom` (``mollow_p0``,
``p_plus``, ``p_minus``, ``p2``), and both elastic weights from the
closed-form probe responses, assembled by
:func:`cbs2atom.quadrature.elastic_weights` (:func:`compact_elastic_weights`),
each by the self-placing rule over exactly the poles of its integrand.  Each Green
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
from cbs2atom.quadrature import (
    elastic_weights,
    exchanged_photon_convolution,
    line_rule,
    pole_clusters,
)
from cbs2atom.spectra import SpectralFunctionGrid

__all__ = [
    "compact_elastic_weights",
    "compact_channels",
]


def compact_elastic_weights(drive: AtomDriveParams) -> tuple:
    """Closed-form elastic weights of the background and of the interference
    channel (test oracle): :func:`cbs2atom.quadrature.elastic_weights` over
    the closed-form responses at zero probe detuning and on one rule."""
    system = build(drive)
    u, weights = line_rule(pole_clusters(system))

    def responses(omega):
        return {(0, 0): system.steady,
                (1, 0): delta_sigma_first(system, -1, omega),
                (0, 1): delta_sigma_first(system, +1, omega),
                (1, 1): delta_sigma_second(system, omega)}

    greens = {-1: system.green(1j * u), 0: system.green(0.0), 1: system.green(-1j * u)}
    return elastic_weights(g0_vectors(system), greens, responses(0.0), responses(u), weights)


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
