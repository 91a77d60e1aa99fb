"""Acceptance gate: every criterion at its stated tolerance.

Each line evaluates one criterion of `semicircleqm.checks` on the gate's
grid and prints one PASS/FAIL line (run with -s to see them on
success); it computes no residual itself.  Criteria 6, 10 and 12, the
position line of 8 and the engine line of 11 reach the domain edges,
|t| = 16 for P and X and |t| = 8 for P^2.  A grid's
`tol` is the tolerance the engine evolves to; a line's `tol` bounds its
residual.
"""

import time
from math import pi
from typing import Callable, NamedTuple

import numpy as np

from semicircleqm import checks, evolution, orthopoly

CAPS = {gen.value: facts.cap for gen, facts in evolution._GENERATORS.items()}
T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
T_EDGE = (-CAPS["P"], CAPS["P"])  # the cap of the translation and position groups
T2_EDGE = (-CAPS["P2"], CAPS["P2"])  # the cap of the kinetic group
PAIRS = ((0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7), (8.0, 8.0), (-8.0, -8.0))
PAIRS2 = ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7), (4.0, 4.0), (-4.0, -4.0))
CHAR = dict(ts=np.linspace(0.0, 4.0, 21), series_ts=np.linspace(0.1, 4.0, 15))
POINTWISE = dict(ts=(0.5, 1.0, 2.0), xs=np.linspace(-1.8, 1.8, 15))
MOMENTUM = dict(rng=0, samples=25, pairs=50)
NON_SQUARE = ((8, 3), (3, 8))  # (rows, cols) of the non-square Heisenberg blocks, off the edge ts


class Line(NamedTuple):
    num: int
    name: str
    tol: float
    criterion: Callable
    grid: dict
    part: object = slice(None)  # the criterion's residuals this line reports: an index, a list or all


GATE = [
    Line(1, "enumeration equals counting formula", 0.0, checks.enumeration, dict(ks=range(15)), 0),
    Line(2, "vacuum moments are Catalan numbers (exact)", 0.0, checks.vacuum_moments, dict(n_max=8)),
    Line(2, "vacuum moments via Gauss quadrature", 1e-10, checks.quadrature_moments, dict(j_max=8)),
    Line(3, "PV transform sends Phi_n to T_{n+1} (n <= 12)", 1e-6, checks.pv_transform, dict(n_max=12, points=25)),
    Line(3, "spectral transform path", 1e-13, checks.spectral_transform,
         dict(n_max=12, xs=orthopoly.quadrature_rule(25)[0][:5])),
    Line(4, "momentum action equals tridiagonal matrix", 1e-13, checks.momentum_realization, MOMENTUM, 0),
    Line(4, "transform skew-adjointness (50 pairs)", 1e-10, checks.momentum_realization, MOMENTUM, 1),
    Line(5, "weighted coordinate/momentum commutator on levels 0..6", 1e-8, checks.weighted_commutator,
         dict(levels=range(7))),
    Line(6, "translation-group elements vs matrix exponential", 1e-8, checks.evolutions_vs_oracle,
         dict(generator="P", ts=T_GRID + T_EDGE, ks=range(13), tol=1e-10, rows=13), 1),
    Line(6, "position-group elements vs matrix exponential", 1e-8, checks.element_tables,
         dict(generator="X", ts=T_GRID + T_EDGE, size=13)),
    Line(6, "kinetic-group vacuum amplitudes vs matrix exponential", 1e-7, checks.evolutions_vs_oracle,
         dict(generator="P2", ts=T_GRID + T2_EDGE, ks=(0,), tol=1e-10), 0),
    Line(7, "characteristic function equals J_1(2t)/t", 1e-12, checks.char_function_routes, CHAR, 0),
    Line(7, "characteristic function vs quadrature (21 points)", 1e-10, checks.char_function_routes, CHAR, 1),
    Line(7, "characteristic function vs Catalan series", 1e-12, checks.char_function_routes, CHAR, 2),
    Line(8, "position-group vacuum law e^{itx} - ixJ_1(2t)", 1e-10, checks.position_vacuum_law,
         dict(POINTWISE, ts=POINTWISE["ts"] + T_EDGE, tol=1e-10)),
    Line(8, "translation-group PV closed forms vs series", 1e-6, checks.pointwise_closed_forms, POINTWISE),
    Line(9, "Bessel trigonometric sums vs PV integrals", 1e-6, checks.kapteyn,
         dict(ts=(0.5, 1.0, 2.0, 4.0), thetas=(pi / 6, pi / 3, pi / 2, 2 * pi / 3))),
    Line(10, "raising-operator correction (translation) vs conjugation", 1e-6, checks.heisenberg_conjugation,
         dict(generator="P", ts=(0.3, 0.9) + T_EDGE, rows=8, cols=8)),
    Line(10, "raising-operator correction (kinetic) vs conjugation", 1e-6, checks.heisenberg_conjugation,
         dict(generator="P2", ts=(0.25,) + T2_EDGE, rows=8, cols=8)),
    *(Line(10, f"raising-operator correction ({name}, {rows}x{cols} block) vs conjugation", 1e-6,
           checks.heisenberg_conjugation, dict(generator=generator, ts=ts, rows=rows, cols=cols))
      for generator, name, ts in (("P", "translation", (0.3, 0.9)), ("P2", "kinetic", (0.25,)))
      for rows, cols in NON_SQUARE),
    Line(11, "defining series vs Bessel/1F1 closed forms (m+n <= 16)", 1e-11, checks.coefficient_closed_forms,
         dict(ts=(0.25, 1.0, 2.5, 4.0), s_max=16)),
    Line(11, "engine coefficients vs defining series (m+n <= 20)", 1e-11, checks.coefficient_routes,
         dict(times={"P": T_GRID + T_EDGE, "X": T_GRID + T_EDGE, "P2": T_GRID + T2_EDGE},
              max_order=20)),
    Line(12, "unitarity of all closed-form evolutions", 1e-8, checks.unit_norm,
         dict(ts=T_GRID + T_EDGE, ks=range(9), kinetic_ts=T_GRID + T2_EDGE, tol=1e-10)),
    Line(12, "group law U(t)U(s) = U(t+s) on the 8x8 block", 1e-8, checks.group_law,
         dict(pairs={"P": PAIRS, "X": PAIRS, "P2": PAIRS2})),
]


def residual(line: Line) -> float:
    return float(np.max(np.atleast_1d(np.asarray(line.criterion(**line.grid), dtype=float))[line.part]))


def gate(num: int) -> float:
    """Print and assert every line of criterion num; returns their total runtime in seconds."""
    total = 0.0
    for line in (line for line in GATE if line.num == num):
        start = time.perf_counter()
        got = residual(line)
        elapsed = time.perf_counter() - start
        total += elapsed
        status = "PASS" if got <= line.tol else "FAIL"
        extra = f"{line.tol:.1e}, {elapsed:.2f}s"
        print(f"ACCEPTANCE {num:2d} [{status}] {line.name}: max residual {got:.3e} (tol {extra})")
        assert got <= line.tol, f"criterion {num} ({line.name}): {got:.3e} > {line.tol:.1e}"
    return total


def test_criterion_01_combinatorics_oracle():
    elapsed = gate(1)
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f}s exceeds 5s"


def _gate_test(num: int):
    def test():
        gate(num)

    return test


test_criterion_02_catalan_moments = _gate_test(2)
test_criterion_03_hilbert_transform_identity = _gate_test(3)
test_criterion_04_momentum_realization = _gate_test(4)
test_criterion_05_schrodinger_commutator = _gate_test(5)
test_criterion_06_evolutions_vs_oracle = _gate_test(6)
test_criterion_07_characteristic_function = _gate_test(7)
test_criterion_08_pointwise_vacuum_laws = _gate_test(8)
test_criterion_09_kapteyn_sums = _gate_test(9)
test_criterion_10_heisenberg_evolutions = _gate_test(10)
test_criterion_11_coefficient_path_cross_check = _gate_test(11)
test_criterion_12_unitarity_and_group_law = _gate_test(12)
