"""Lattice hierarchies of Gaussian matrix ensembles and their continuum limits.

The package is organized in layers: coupling vectors and quadrature
(`couplings`), Stieltjes bases and tau-functions (`moments`), operator windows
(`lax`), time evolution (`flows`), cross-check identities and the
verification suites (`identities`), and the hydrodynamic limit
(`continuum`).  `taulattice.cli` exposes all of it from the command line.
"""

from .continuum import (HydroChainField, TensorPoint, chain_matrix,
                        evolve_hydro_chain, haantjes, haantjes_scan, hopf_solve,
                        hydro_chain_rhs, hydro_scaling_check, nijenhuis,
                        nijenhuis_closed_form, reduced_continuum_rhs,
                        spatial_derivative)
from .couplings import CouplingVector, QuadratureGrid, build_quadrature
from .errors import (DivergedField, IllConditioned, IndexOutOfWindow, NonIntegrableWeight,
                     PreBreakingViolated, SingularMinor, StructureViolation, TauLatticeError,
                     ToleranceUnreachable, UnsupportedKind)
from .flows import (EvolutionResult, ReducedChainState, VolterraState,
                    evolve_pfaff, evolve_reduced, evolve_toda, evolve_volterra,
                    pfaff_chain_rhs, pfaff_commutator_rhs, reduced_chain_rhs,
                    toda_rhs, volterra_rhs)
from .identities import (continuum_convergence, exact_oracles, kp_residual,
                         mkp_residuals, observables_check, reduction_invariants,
                         sample_gaussian_ensemble)
from .lax import (PfaffLax, TodaLax, c_coeff, goe_lax_init, gue_lax_init,
                  hermite_map_coeffs, nu_values, pfaff_entries_from_tau,
                  pfaff_lax_from_basis, skew_hermite_map_check,
                  skew_orthonormal_basis, sqrt_ratio_product,
                  toda_lax_from_quadrature)
from .moments import (SkewMomentMatrix, log_tau, skew_moment_matrix,
                      tau_coupling_derivative, tau_orthogonal, tau_unitary)
from . import numdiff  # noqa: F401  perfbench's --trace 1 looks it up; goes with ROADMAP item 10
from .report import IdentityReport

__version__ = "0.1.0"

__all__ = [
    "CouplingVector", "QuadratureGrid", "build_quadrature",
    "SkewMomentMatrix", "skew_moment_matrix",
    "log_tau", "tau_unitary", "tau_orthogonal", "tau_coupling_derivative",
    "TodaLax", "PfaffLax", "c_coeff", "nu_values", "sqrt_ratio_product",
    "gue_lax_init", "goe_lax_init", "toda_lax_from_quadrature",
    "hermite_map_coeffs", "skew_orthonormal_basis", "pfaff_lax_from_basis",
    "pfaff_entries_from_tau", "skew_hermite_map_check",
    "VolterraState", "ReducedChainState", "EvolutionResult",
    "toda_rhs", "volterra_rhs", "pfaff_chain_rhs", "pfaff_commutator_rhs",
    "reduced_chain_rhs", "evolve_toda", "evolve_volterra", "evolve_pfaff",
    "evolve_reduced",
    "mkp_residuals", "kp_residual", "observables_check",
    "reduction_invariants", "exact_oracles", "sample_gaussian_ensemble",
    "HydroChainField", "TensorPoint", "spatial_derivative", "hopf_solve",
    "hydro_chain_rhs", "evolve_hydro_chain", "hydro_scaling_check",
    "reduced_continuum_rhs", "continuum_convergence", "chain_matrix",
    "nijenhuis", "haantjes", "nijenhuis_closed_form", "haantjes_scan",
    "IdentityReport",
    "TauLatticeError", "NonIntegrableWeight", "ToleranceUnreachable",
    "IllConditioned", "SingularMinor", "StructureViolation", "UnsupportedKind",
    "PreBreakingViolated", "DivergedField", "IndexOutOfWindow",
]
