"""Self-test of the benchmark's reference checker.

Run from the root of a checkout:  python3 -m pytest bench/test_reference.py

The correct outputs here are built from the mpmath closed forms, so the
tests also confirm that the spectral reference and the closed forms agree.
None of them imports the program.
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np
import pytest

from reference import COEFF_TOL, Reference

TOL = 1e-10
Report = namedtuple("Report", "name residual tolerance")


@pytest.fixture(scope="module")
def ref() -> Reference:
    return Reference()


def vacuum_amplitudes(ref: Reference, generator: str, t: float, levels: int) -> np.ndarray:
    """<l| exp(itG) |0> from the closed forms: I[l, 0](t) for P, I2[l, 0](t) for P2."""
    kind = {"P": "momentum_I", "P2": "kinetic_I2"}[generator]
    return np.array([ref.coefficient(kind, l, 0, t) for l in range(levels)], dtype=complex)


@pytest.mark.parametrize("generator,t,levels", [("P", 1.3, 30), ("P", -6.2, 70), ("P2", 2.1, 90)])
def test_state_accepted_and_off_by_ten_tol_rejected(ref, generator, t, levels):
    amps = vacuum_amplitudes(ref, generator, t, levels)
    assert ref.check_state(generator, t, 0, amps, TOL) is None
    bad = amps.copy()
    bad[levels // 3] += 10 * TOL
    assert "spectral reference" in ref.check_state(generator, t, 0, bad, TOL)


def test_norm_defect_rejected(ref):
    amps = vacuum_amplitudes(ref, "P", 1.3, 5)  # truncated far inside the tail
    assert "norm defect" in ref.check_state("P", 1.3, 0, amps, TOL)


def test_coefficient_sign_rejected(ref):
    t, order = 2.5, 6
    entries = {(m, n): ref.coefficient("position_I", m, n, t) for m in range(order + 1) for n in range(order + 1 - m)}
    assert ref.check_coefficients("position_I", t, entries, order, COEFF_TOL) is None
    entries[(1, 2)] = -entries[(1, 2)]
    assert "closed form" in ref.check_coefficients("position_I", t, entries, order, COEFF_TOL)


def cli_payload(rows: list[dict]) -> str:
    return json.dumps({"config_echo": {}, "rows": rows, "residuals": {}})


def test_cli_row_with_flipped_sign_rejected(ref):
    t = 1.3
    argv = ["evolve", "--generator", "P", "--k", "0", "--t", repr(t), "--tol", repr(TOL)]
    amps = vacuum_amplitudes(ref, "P", t, 30)
    rows = [{"l": l, "re": a.real, "im": a.imag} for l, a in enumerate(amps)]
    assert ref.check_cli(argv, 0, cli_payload(rows)) is None
    rows[2]["re"] = -rows[2]["re"]
    assert ref.check_cli(argv, 0, cli_payload(rows)) is not None


def test_cli_exit_code_and_keys_rejected(ref):
    argv = ["table", "--max-order", "2"]
    assert ref.check_cli(argv, 1, cli_payload([{}])) == "exit code 1"
    missing = json.dumps({"rows": [{}], "residuals": {}})
    assert "top-level keys" in ref.check_cli(argv, 0, missing)


def test_report_over_tolerance_rejected(ref):
    good = [Report("exact identity", 0.0, 0.0), Report("quadrature", 3e-7, 1e-6)]
    assert ref.check_reports(good) is None
    bad = good + [Report("drifted", 2e-6, 1e-6)]
    assert "drifted" in ref.check_reports(bad)
    assert ref.check_reports([]) is not None


def test_p2_correction_is_hermitian(ref):
    block = ref.raising_correction("P2", 0.8, 4)
    assert ref.check_raising_correction("P2", 0.8, block, 1e-8) is None
    skewed = block.copy()
    skewed[0, 1] += 1e-9
    assert "Hermitian" in ref.check_raising_correction("P2", 0.8, skewed, 1e-8)
