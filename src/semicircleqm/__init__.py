"""Quantum mechanics of the standard semicircle random variable.

Truncated Fock-space raising/lowering operators with a constant Jacobi
sequence, monic Chebyshev polynomials on [-2, 2], the weighted
finite-interval Hilbert transform realizing the momentum operator, and
closed-form expressions for the unitary groups generated by the
momentum, the position, and the squared momentum, all validated against
independent brute-force oracles (exhaustive word enumeration, Gauss
quadrature, and a certified Taylor action of the matrix exponential).

`import semicircleqm` loads no submodule: each public name, and each
home module in `__all__`, is imported the first time it is read
(PEP 562), and is then bound here like any attribute.
"""

__version__ = "0.1.0"

# home module: the public names it exports
_EXPORTS = {
    "checks": (),
    "combinatorics": ("NormalForm", "brute_force_theta", "catalan", "normal_order", "nu_plus_on_theta", "theta_count"),
    "evolution": (
        "CoeffTable", "EvolvedState", "Generator", "build_coeff_table", "char_function", "coeff_I", "coeff_I2",
        "evolve_P", "evolve_P2_vacuum", "evolve_X", "evolve_X_vacuum_pointwise", "heisenberg_aplus_P",
        "heisenberg_aplus_P2", "matrix_element_P", "state_char_function",
    ),
    "fock": (
        "basis", "build_annihilation", "build_creation", "build_momentum", "build_number_function",
        "build_position", "coherent_kernel", "commutator", "harmonic_char", "vacuum_moment",
    ),
    "hilbert": (
        "ChebSeries", "evolved_phi1_closed_form", "evolved_vacuum_closed_form", "hilbert_mu_pv",
        "hilbert_mu_spectral", "kapteyn_sum_cos", "kapteyn_sum_sin", "kinetic_apply", "momentum_apply", "rho_weight",
    ),
    "oracle": ("ExpmResult", "expm_apply", "truncation_level"),
    "orthopoly": ("phi", "quadrature_rule", "t_cheb"),
    "specfun": ("SeriesResult", "bessel_j", "hyp1f1"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin __import__, which -X importtime reports (importlib.import_module is not reported)
    home = __import__(f"{__name__}.{module}", fromlist=[name])
    value = home if module == name else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
