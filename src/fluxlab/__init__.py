"""Numerical laboratory for displacement geometry of volume-preserving
diffeomorphisms of flat tori."""

from .mesh import GridMesh
from .forms import (CohomologyClass1, HodgeSplit, NonClosedFormError, OneForm,
                    ScalarField, TwoForm, exterior_derivative,
                    harmonic_representative, hodge_decompose, l2_norm,
                    oscillation, sup_norm, wedge_integral)
from .maps import (DiffeomorphismError, InversionError, Region, TorusMap,
                   c0_distance, compose, evaluate_lift, interior_product,
                   pullback_bound_constant, pullback_oneform, volume_defect)
from .isotopy import (GeneratorSplit, HomologyClass1, Isotopy, LiftError,
                      NonSymplecticError, TimeField,
                      commutator_generator, concat_reparam, f_functional,
                      fathi_mass_flow, generator_hodge_split, generator_length,
                      geodesic_functional, hofer_like_length, integrate_flow,
                      orbit_integral, orbit_length_bound, symplectic_flux,
                      volume_flux)
from .displacement import (DisplacementCheck, DisplacementReport,
                           UnitSphereSampler, commutator_collapse_check,
                           conjugation_check, delta, delta_tilde,
                           delta_via_flux, displaces,
                           displacement_energy_upper, energy_chain_check,
                           map_commutator, norm_axiom_report, norm_table,
                           nu_function, psi_norm, rigidity_limit_check,
                           supported_commutator_pair)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .suites import (SUITE_REGISTRY, CheckRow, SuiteReport,
                     build_perturbation_sequence, emit_report, run_suite)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
