"""Quantum mechanics of the standard semicircle random variable.

Truncated Fock-space raising/lowering operators with a constant Jacobi
sequence, monic Chebyshev polynomials on [-2, 2], the weighted
finite-interval Hilbert transform realizing the momentum operator, and
closed-form expressions for the unitary groups generated by the
momentum, the position, and the squared momentum, all validated against
independent brute-force oracles (exhaustive word enumeration, Gauss
quadrature, and a certified dense matrix exponential).
"""

from . import checks, combinatorics, evolution, fock, hilbert, oracle, orthopoly, specfun
from .combinatorics import (
    NormalForm,
    brute_force_theta,
    catalan,
    normal_order,
    nu_plus_on_theta,
    theta_count,
)
from .evolution import (
    CoeffKind,
    CoeffTable,
    EvolvedState,
    Generator,
    build_coeff_table,
    char_function,
    coeff_I,
    coeff_I2,
    evolve_P,
    evolve_P2_vacuum,
    evolve_X,
    evolve_X_vacuum_pointwise,
    heisenberg_aplus_P,
    heisenberg_aplus_P2,
    matrix_element_P,
    state_char_function,
)
from .fock import (
    basis,
    build_annihilation,
    build_creation,
    build_momentum,
    build_number_function,
    build_position,
    coherent_kernel,
    commutator,
    harmonic_char,
    vacuum_moment,
)
from .hilbert import (
    ChebSeries,
    evolved_phi1_closed_form,
    evolved_vacuum_closed_form,
    hilbert_mu_pv,
    hilbert_mu_spectral,
    kapteyn_sum_cos,
    kapteyn_sum_sin,
    kinetic_apply,
    momentum_apply,
    rho_weight,
)
from .oracle import ExpmResult, expm_apply, truncation_level
from .orthopoly import phi, quadrature_rule, t_cheb
from .specfun import SeriesResult, bessel_j, bessel_tail_index, hyp1f1

__version__ = "0.1.0"

__all__ = [
    "ChebSeries",
    "CoeffKind",
    "CoeffTable",
    "EvolvedState",
    "ExpmResult",
    "Generator",
    "NormalForm",
    "SeriesResult",
    "basis",
    "bessel_j",
    "bessel_tail_index",
    "brute_force_theta",
    "build_annihilation",
    "build_coeff_table",
    "build_creation",
    "build_momentum",
    "build_number_function",
    "build_position",
    "catalan",
    "char_function",
    "checks",
    "coeff_I",
    "coeff_I2",
    "coherent_kernel",
    "combinatorics",
    "commutator",
    "evolution",
    "evolve_P",
    "evolve_P2_vacuum",
    "evolve_X",
    "evolve_X_vacuum_pointwise",
    "evolved_phi1_closed_form",
    "evolved_vacuum_closed_form",
    "expm_apply",
    "fock",
    "harmonic_char",
    "heisenberg_aplus_P",
    "heisenberg_aplus_P2",
    "hilbert",
    "hilbert_mu_pv",
    "hilbert_mu_spectral",
    "hyp1f1",
    "kapteyn_sum_cos",
    "kapteyn_sum_sin",
    "kinetic_apply",
    "matrix_element_P",
    "momentum_apply",
    "normal_order",
    "nu_plus_on_theta",
    "oracle",
    "orthopoly",
    "phi",
    "quadrature_rule",
    "rho_weight",
    "specfun",
    "state_char_function",
    "t_cheb",
    "theta_count",
    "truncation_level",
    "vacuum_moment",
]
