"""The package namespace: each public name listed once, its home module imported on first use."""

import subprocess
import sys

import pytest

import semicircleqm

# the public names, in the order the package has always listed them
PUBLIC = [
    "ChebSeries", "CoeffTable", "EvolvedState", "ExpmResult", "Generator", "NormalForm", "SeriesResult", "basis",
    "bessel_j", "brute_force_theta", "build_annihilation", "build_coeff_table", "build_creation", "build_momentum",
    "build_number_function", "build_position", "catalan", "char_function", "checks", "coeff_I", "coeff_I2",
    "coherent_kernel", "combinatorics", "commutator", "evolution", "evolve_P", "evolve_P2_vacuum", "evolve_X",
    "evolve_X_vacuum_pointwise", "evolved_phi1_closed_form", "evolved_vacuum_closed_form", "expm_apply", "fock",
    "harmonic_char", "heisenberg_aplus_P", "heisenberg_aplus_P2", "hilbert", "hilbert_mu_pv", "hilbert_mu_spectral",
    "hyp1f1", "kapteyn_sum_cos", "kapteyn_sum_sin", "kinetic_apply", "matrix_element_P", "momentum_apply",
    "normal_order", "nu_plus_on_theta", "oracle", "orthopoly", "phi", "quadrature_rule", "rho_weight", "specfun",
    "state_char_function", "t_cheb", "theta_count", "truncation_level", "vacuum_moment",
]
MODULES = ("checks", "combinatorics", "evolution", "fock", "hilbert", "oracle", "orthopoly", "specfun")


def fresh_process(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip()


def test_all_is_pinned():
    assert semicircleqm.__all__ == PUBLIC


def test_import_loads_no_submodule():
    code = "import sys, semicircleqm; print(sorted(m for m in sys.modules if m.startswith('semicircleqm.')))"
    assert fresh_process(code) == "[]"


def test_first_read_loads_only_the_home_module():
    code = (
        "import sys, semicircleqm; semicircleqm.catalan; "
        "print(sorted(m for m in sys.modules if m.startswith('semicircleqm.')))"
    )
    assert fresh_process(code) == "['semicircleqm.combinatorics', 'semicircleqm.exceptions']"


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_modules_object(name):
    value = getattr(semicircleqm, name)
    if name in MODULES:
        assert value is sys.modules[f"semicircleqm.{name}"]
    else:
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__ in {f"semicircleqm.{module}" for module in MODULES}
    # bound on first read, so later reads are plain attribute lookups
    assert vars(semicircleqm)[name] is value


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(semicircleqm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semicircleqm.no_such_name  # noqa: B018
    assert not hasattr(semicircleqm, "cli_main")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from semicircleqm import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(semicircleqm, name) for name in PUBLIC}
