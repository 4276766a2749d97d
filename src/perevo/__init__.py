"""Numerical laboratory for periodic-parabolic principal eigenvalues under
large penalty weights: evolution maps, period-map spectra, kernel envelopes,
hard-wall limit oracles, and lattice admissibility of the vanishing set."""

__version__ = "0.1.0"

from .model import (Grid1D, TimeGrid, CoefficientField, BoundarySpec, WeightField,
                    ProblemSpec, builtin_scenario, make_coefficients, make_weight,
                    make_problem, sample_sup_norms, coercivity_shift)
from .config import build_problem, parse_lambda_list
from .operator import assemble_A, mesh_peclet_ok, garding_audit
from .evolve import (StepFactorization, EnergyReport, ForcingField,
                     prepare, evolve_state, mild_solution, energy_report,
                     discrete_v_norm_sq)
from .kernel import (KernelMatrix, GaussianFit, kernel_matrix, check_monotone_in_lambda,
                     fit_gaussian, envelope_violation)
from .spectral import (MonodromyMatrix, SpectralResult, PeriodicEigenfunction,
                       monodromy, spectral_radius, eigengap, principal_pair,
                       periodic_eigenfunction)
from .limitflow import (SweepRecord, LimitMonodromy, ConvergenceReport, VanishingRate,
                        sweep, limit_monodromy, compare_to_limit, vanishing_rate,
                        du_peng_pieces, classify_divergent)
from .admissibility import (SpaceTimeMask, PathWitness, AdmissibilityReport,
                            build_mask, mask_text, check_regular_support, slices,
                            components, check_assumption, validate_witness)
from . import errors
