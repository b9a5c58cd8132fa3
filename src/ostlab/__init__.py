"""Pseudospectral laboratory for the periodic Ostrovsky equation.

The package builds the truncated (Galerkin) Ostrovsky flow on the zero-mean
Fourier band, the Gaussian/Gibbs measures attached to its energy, and the
statistical and lattice machinery used to verify their interplay numerically:

- ``spectral``:   fields, transforms, symbols, conserved functionals
- ``flow``:       time integration, Liouville check, Picard solver
- ``gibbs``:      samplers, weighted ensembles and their files
- ``invariance``: push ensembles through the flow, compare observables
- ``bourgain``:   space-time lattice norms, resonance/kernel/bilinear scans
- ``cli``:        one entry point exposing every experiment

All operations are deterministic given their configuration and seed.
"""

from . import bourgain, flow, gibbs, invariance, spectral

__version__ = "0.1.0"
