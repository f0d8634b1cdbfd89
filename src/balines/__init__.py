"""Exact arithmetic for planar line arrangements with multiplicities.

Constructs the arrangements that admit a Baker-Akhiezer function, certifies
their defining identities at arbitrary precision, computes Hilbert series of
quasi-invariant algebras with exact ranks, and verifies the Darboux-Wronskian
operator identities as exact trigonometric-polynomial equalities.
"""

from .certify import (BACertificate, ConditionResidual, certify_ba,
                      ode_residual_am1n, ode_residual_two_mult)
from .config import (Configuration, Line, Multiplicities,
                     angle_multiset_distance, build_am1n, build_two_mult,
                     from_alphas, general_from_angles, perturb_line,
                     random_type_m1n, t_q_expand)
from .darboux import (DarbouxChain, build_chain, chain_report,
                      darboux_levels, nu_constant, q_scaling_check, q_trig,
                      verify_eigen, verify_factorization, verify_potential)
from .locus import solve_general_locus
from .poly import DensePoly
from .quasi import (HilbertSeries, am1n_hilbert_numerator,
                    hilbert_coefficients, hilbert_rational_form,
                    is_gorenstein, qi_dimension_numeric, r_parameter)
from .roots import poly_roots
from .symfunc import e_values, ehat_values, poly_from_elementary
from .trig import TrigPoly, wronskian

__version__ = "0.1.0"

__all__ = [
    "BACertificate", "ConditionResidual", "Configuration", "DarbouxChain",
    "DensePoly", "HilbertSeries", "Line", "Multiplicities", "TrigPoly",
    "am1n_hilbert_numerator", "angle_multiset_distance", "build_am1n",
    "build_chain", "build_two_mult", "certify_ba", "chain_report",
    "darboux_levels", "e_values", "ehat_values", "from_alphas",
    "general_from_angles", "hilbert_coefficients", "hilbert_rational_form",
    "is_gorenstein", "nu_constant", "ode_residual_am1n",
    "ode_residual_two_mult", "perturb_line", "poly_from_elementary",
    "poly_roots", "q_scaling_check", "q_trig", "qi_dimension_numeric",
    "r_parameter", "random_type_m1n", "solve_general_locus", "t_q_expand",
    "verify_eigen", "verify_factorization", "verify_potential", "wronskian",
]
