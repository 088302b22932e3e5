"""paracalc: pseudo-spectral paracontrolled calculus on discrete tori."""

from .grid import (FieldPath, SpectralField, TorusGrid, dealiased_product,
                   apply_pointwise, load_field, save_field)
from .partition import DyadicPartition, make_dyadic_partition, radial_cutoff, smoothstep
from .spectral import (antiderivative, besov_norm, block_sups, default_partition,
                       derivative, fractional_laplacian, lp_block, remove_mean)
from .paraproducts import (Blocks, NonlinearFunction, ParacontrolledField, bony_remainder,
                           causal_bump, commutator_C, controlled_product,
                           heat_para_commutator, para_gt, para_lt, para_lt_time,
                           paralin_remainder, paraproduct_switch, pi_F, pi_times,
                           poly_function, resonant)
from .noise import (BUMP_MOLLIFIER, DIRAC_MOLLIFIER, GAUSS_MOLLIFIER, MOLLIFIERS,
                    Mollifier, burgers_theta_path, time_cutoff,
                    fbm_path, mollify, pam_theta, rde_driver, sample_line_path,
                    spatial_white_noise)
from .enhanced import (EnhancedNoise, burgers_area, enhanced_translate,
                       pam_c_eps, pam_gt, pam_renormalized_area,
                       pair_resonant, rde_area, rough_area_check, sym_antisym_split)
from .evolution import (NonConvergence, SemigroupSpec, apply_L, damped_fixed_point, duhamel,
                        heat_apply, trapezoid_exponential_path)
from .solvers import (SolverConfig, SolverReport, solve_burgers, solve_pam,
                      solve_pam_regularized, solve_rde)

__version__ = "0.1.0"
