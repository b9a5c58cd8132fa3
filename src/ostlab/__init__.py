"""Pseudospectral laboratory for the periodic Ostrovsky equation.

The package builds the truncated (Galerkin) Ostrovsky flow on the zero-mean
Fourier band, the Gaussian/Gibbs measures attached to its energy, and the
statistical and lattice machinery used to verify their interplay numerically:

- ``spectral``:   fields, transforms, multipliers, conserved functionals
- ``flow``:       time integration, Liouville check, Picard solver
- ``gibbs``:      samplers, weighted ensembles and their files
- ``invariance``: push ensembles through the flow, compare observables
- ``bourgain``:   space-time lattice norms, resonance/kernel/bilinear scans
- ``cli``:        one entry point exposing every experiment

All operations are deterministic given their configuration and seed.
"""

from .bourgain import (
    LatticeField,
    LatticeSpec,
    ResonanceScan,
    bilinear_ratio,
    bilinear_sweep,
    fs_bound_scan,
    kernel_integral_scan,
    kernel_sum_scan,
    resonance,
    resonance_scan,
    time_localization_scan,
    xsb_norm,
)
from .flow import (
    BlowUpError,
    FlowParams,
    TrajectoryRecord,
    convergence_in_m,
    evolve,
    flow_map,
    liouville_divergence,
    nonlinear_term,
    picard_solve,
)
from .gibbs import (
    DegenerateWeightsError,
    Ensemble,
    GibbsSpec,
    cylinder_probability,
    default_cutoff,
    gibbs_expectation,
    load_ensemble,
    pcn_chain,
    sample_gaussian,
    save_ensemble,
    trace_check,
)
from .invariance import (
    InvarianceReport,
    Observable,
    ball_indicator,
    cubic_integral,
    hamiltonian_observable,
    invariance_sweep,
    l2_squared,
    mode_power,
    recurrence_probe,
    run_invariance,
)
from .spectral import (
    FourierField,
    GridSpec,
    coordinates,
    cubic_g,
    dispersion,
    dx,
    dx_inv,
    energy_eigenvalues,
    field_from_coordinates,
    from_physical,
    hamiltonian,
    inner,
    l2_norm,
    load_field,
    make_grid,
    project,
    quadratic_energy,
    random_smooth_field,
    regrid,
    save_field,
    sobolev_norm,
    to_physical,
    zero_field,
)

__version__ = "0.1.0"
