"""Coherent backscattering of intense laser light from a pair of distant atoms.

The package computes the elastic and inelastic spectra of the ladder
(background) and crossed (interference) double-scattering channels, and the
resulting spectral CBS enhancement factor, for two two-level atoms driven by
a strong monochromatic laser.

One frame holds throughout: frequencies are in units of the dipole decay
rate gamma, positions in units of the inverse laser wavenumber 1/k, and the
laser propagates along z.

The averaged channels have one production route: the surviving coupling
monomials of the two-atom master equation on a single canonical
configuration (:mod:`cbs2atom.spectra`, built on :mod:`cbs2atom.twoatom`).
Independent routes serve as test oracles:

* the closed form in single-atom observables (``compact_*`` in
  :mod:`cbs2atom.residues`, which no production module imports) and a
  bichromatic pump-probe solver for one driven atom
  (:mod:`cbs2atom.pumpprobe`), whose factors feed one exchanged-photon
  convolution by a self-placing rule over stacked resolvents that holds
  at the Jordan point too (:mod:`cbs2atom.quadrature`),
* Monte-Carlo averages over random geometries of every coupling monomial,
  which check the selection rule (:mod:`cbs2atom.disorder`).
"""

from cbs2atom.atom import AtomDriveParams, BlochSystem

__all__ = [
    "AtomDriveParams",
    "BlochSystem",
]

__version__ = "0.1.0"
