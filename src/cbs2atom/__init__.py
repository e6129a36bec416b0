"""Coherent backscattering of intense laser light from a pair of distant atoms.

The package computes the elastic and inelastic spectra of the ladder
(background) and crossed (interference) double-scattering channels, and the
resulting spectral CBS enhancement factor, for two two-level atoms driven by
a strong monochromatic laser.

The averaged channels have one production route: the surviving coupling
monomials of the two-atom master equation on a single canonical
configuration (:mod:`cbs2atom.spectra`, built on :mod:`cbs2atom.twoatom`).
Independent routes serve as test oracles:

* the closed form in single-atom observables, its frequency convolutions
  evaluated by one tan-mapped midpoint rule over stacked resolvents, so it
  holds at the Jordan point too (the ``compact_*`` functions of
  :mod:`cbs2atom.residues`, which no production module imports),
* a bichromatic pump-probe solver for a single driven atom
  (:mod:`cbs2atom.pumpprobe`),
* Monte-Carlo averages over random geometries of every coupling monomial,
  which check the selection rule (:mod:`cbs2atom.disorder`).
"""

from cbs2atom.atom import AtomDriveParams, BlochSystem

__all__ = [
    "AtomDriveParams",
    "BlochSystem",
]

__version__ = "0.1.0"
