"""Reference values and property checks, computed apart from the program.

Nothing here imports `semicircleqm`.  Two independent sources are used:

* closed forms evaluated with mpmath at 30 significant digits: the
  Bessel profile (s+1) J_{s+1}(2t)/t of the translation and position
  coefficients, and the confluent hypergeometric closed form of the
  kinetic coefficients;
* matrix elements of e^{itX}, e^{itP} and e^{itP^2} from a LAPACK
  eigendecomposition of a large truncation of the tridiagonal position
  matrix X, with P = D X D* and D = diag(i^l).

Every check returns None when the output is accepted and a one-line
reason when it is rejected.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np

MP_DPS = 30
# Amplitudes reach level ~200 at |t| = 16 (translation group) and ~260 at
# |t| = 8 (kinetic group); beyond level 512 they are far below 1e-30.
SPECTRAL_DIM = 512
HERMITIAN_TOL = 1e-12
PV_QUAD_TOL = 1e-6
# Tolerance of coefficient and characteristic-function values: the 1e-11
# tail tolerance that `build_coeff_table` records on every table.
COEFF_TOL = 1e-11
CLI_KEYS = {"config_echo", "rows", "residuals"}
COEFF_KIND = {"P": "momentum_I", "X": "position_I", "P2": "kinetic_I2"}
REFERENCE_MEMO = 256


class Reference:
    """Independent oracle for the outputs the benchmark checks."""

    def __init__(self) -> None:
        off = np.ones(SPECTRAL_DIM - 1)
        position = np.diag(off, 1) + np.diag(off, -1)
        self.eigval, self.eigvec = np.linalg.eigh(position)
        self.phase = 1j ** np.arange(SPECTRAL_DIM)
        self._closed: dict[tuple, complex] = {}
        self._mp = mpmath.mp.clone()
        self._mp.dps = MP_DPS
        # evolve-warm repeats the same calls; a bounded memo spares their
        # references without growing memory on the cold stream.
        self.amplitudes = functools.lru_cache(maxsize=REFERENCE_MEMO)(self._amplitudes)
        self.element_block = functools.lru_cache(maxsize=REFERENCE_MEMO)(self._element_block)
        self.raising_correction = functools.lru_cache(maxsize=REFERENCE_MEMO)(self._raising_correction)

    # ------------------------------------------------------------------
    # spectral reference: U = exp(i t G) on the truncation

    def block(self, generator: str, t: float, rows, cols) -> np.ndarray:
        """Entries <row| exp(i t G) |col> for G in {X, P, P2}."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        spectrum = self.eigval**2 if generator == "P2" else self.eigval
        weights = np.exp(1j * t * spectrum)
        core = (self.eigvec[rows] * weights) @ self.eigvec[cols].T
        if generator in ("P", "P2"):
            core *= self.phase[rows][:, None] * self.phase[cols].conj()[None, :]
        return core

    def _amplitudes(self, generator: str, t: float, k: int, levels: int) -> np.ndarray:
        return self.block(generator, t, np.arange(levels), [k])[:, 0]

    def _element_block(self, generator: str, t: float, size: int) -> np.ndarray:
        return self.block(generator, t, np.arange(size), np.arange(size))

    def _raising_correction(self, generator: str, t: float, size: int) -> np.ndarray:
        """(U a+ U* - a+) on levels < size, with a+ the raising operator."""
        u = self.block(generator, t, np.arange(size), np.arange(self.eigval.size))
        conj = u[:, 1:] @ u[:, :-1].conj().T
        raising = np.diag(np.ones(size - 1), -1)
        return conj - raising

    # ------------------------------------------------------------------
    # closed forms at MP_DPS digits

    def bessel_profile(self, s: int, t: float) -> float:
        """(s+1) J_{s+1}(2t)/t, with its t = 0 limit."""
        key = ("J", s, t)
        if key not in self._closed:
            mp = self._mp
            if t == 0.0:
                value = 1.0 if s == 0 else 0.0
            else:
                tt = mp.mpf(t)
                value = float((s + 1) * mp.besselj(s + 1, 2 * tt) / tt)
            self._closed[key] = value
        return self._closed[key]

    def kinetic_profile(self, s: int, t: float) -> complex:
        """(-it)^h / h! 1F1(h + 1/2; s + 2; 4it) for even s = 2h; 0 for odd s."""
        if s % 2:
            return 0j
        key = ("F", s, t)
        if key not in self._closed:
            mp = self._mp
            h = s // 2
            tt = mp.mpf(t)
            value = (-1j * tt) ** h / mp.factorial(h) * mp.hyp1f1(mp.mpf(s + 1) / 2, s + 2, 4j * tt)
            self._closed[key] = complex(value)
        return self._closed[key]

    def coefficient(self, kind: str, m: int, n: int, t: float) -> complex:
        if kind == "momentum_I":
            return (-1) ** m * self.bessel_profile(m + n, t)
        if kind == "position_I":
            return 1j ** (m + n) * self.bessel_profile(m + n, t)
        return (-1) ** m * self.kinetic_profile(m + n, t)

    def char_value(self, generator: str, k: int, t: float) -> complex:
        """<k| exp(itG) |k>: sum_{m<=k} (-1)^m (2m+1) J_{2m+1}(2t)/t for P, J_1(2t)/t for X."""
        if generator == "X":
            return self.bessel_profile(0, t)
        return sum((-1) ** m * self.bessel_profile(2 * m, t) for m in range(k + 1))

    # ------------------------------------------------------------------
    # checks

    def check_state(self, generator: str, t: float, k: int, amplitudes, tol: float):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size <= k:
            return f"amplitude vector of shape {amps.shape} cannot hold level {k}"
        err = float(np.max(np.abs(amps - self.amplitudes(generator, t, k, amps.size))))
        if not err <= tol:
            return f"amplitude off the spectral reference by {err:.2e} > tol {tol:.0e}"
        norm_defect = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not norm_defect <= tol:
            return f"norm defect {norm_defect:.2e} > tol {tol:.0e}"
        return None

    def check_table(self, generator: str, t: float, table, tol: float):
        table = np.asarray(table, dtype=complex)
        size = table.shape[0]
        if table.shape != (size, size):
            return f"element table of shape {table.shape} is not square"
        err = float(np.max(np.abs(table - self.element_block(generator, t, size))))
        if not err <= tol:
            return f"matrix element off the spectral reference by {err:.2e} > tol {tol:.0e}"
        return None

    def check_coefficients(self, kind: str, t: float, entries: dict, max_order: int, tol: float):
        expected = {(m, n) for m in range(max_order + 1) for n in range(max_order + 1 - m)}
        if set(entries) != expected:
            return f"table holds {len(entries)} entries, expected {len(expected)}"
        for (m, n), value in entries.items():
            err = abs(complex(value) - self.coefficient(kind, m, n, t))
            if not err <= tol:
                return f"{kind}[{m},{n}]({t}) off the mpmath closed form by {err:.2e} > tol {tol:.0e}"
        return None

    def check_raising_correction(self, generator: str, t: float, block, tol: float):
        block = np.asarray(block, dtype=complex)
        size = block.shape[0]
        if block.shape != (size, size):
            return f"correction block of shape {block.shape} is not square"
        err = float(np.max(np.abs(block - self.raising_correction(generator, t, size))))
        if not err <= tol:
            return f"correction off the spectral reference by {err:.2e} > tol {tol:.0e}"
        if generator == "P2":
            herm = float(np.max(np.abs(block - block.conj().T)))
            if not herm <= HERMITIAN_TOL:
                return f"P2 correction block not Hermitian: defect {herm:.2e}"
        return None

    def check_reports(self, reports):
        if not reports:
            return "suite returned no reports"
        for rep in reports:
            residual = float(rep.residual)
            tolerance = float(rep.tolerance)
            if not residual <= tolerance:
                return f"check {rep.name!r}: residual {residual:.3e} > tolerance {tolerance:.1e}"
        return None

    # ------------------------------------------------------------------
    # command-line outputs (JSON format)

    def check_cli(self, argv: list[str], returncode: int, stdout: str):
        """Check one `python -m semicircleqm ... --format json` call."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        if not isinstance(payload, dict) or set(payload) != CLI_KEYS:
            keys = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
            return f"top-level keys {keys}, expected {sorted(CLI_KEYS)}"
        opts = _options(argv)
        rows = payload["rows"]
        if not rows:
            return "no rows"
        command = argv[0]
        try:
            if command == "evolve":
                return self._cli_evolve(opts, rows)
            if command == "coeffs":
                return self._cli_coeffs(opts, rows)
            if command == "char":
                return self._cli_char(opts, rows)
            if command == "heisenberg":
                return self._cli_heisenberg(opts, rows)
            if command == "table":
                return self._cli_table(opts, rows)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed rows: {exc!r}"
        return f"no reference for command {command!r}"

    def _cli_evolve(self, opts, rows):
        amps = np.array([complex(r["re"], r["im"]) for r in rows])
        if [r["l"] for r in rows] != list(range(len(rows))):
            return "levels are not 0..l_max in order"
        return self.check_state(opts["generator"], float(opts["t"][0]), int(opts["k"][0]), amps, float(opts["tol"][0]))

    def _cli_coeffs(self, opts, rows):
        kind = COEFF_KIND[opts["generator"]]
        t = float(opts["t"][0])
        entries = {(r["m"], r["n"]): complex(r["re"], r["im"]) for r in rows}
        if any(r["t"] != t for r in rows):
            return "row t differs from the requested t"
        return self.check_coefficients(kind, t, entries, int(opts["max-order"][0]), COEFF_TOL)

    def _cli_char(self, opts, rows):
        ts = [float(v) for v in opts["t"]]
        if [r["t"] for r in rows] != ts:
            return "row t values differ from the requested ones"
        k = int(opts["k"][0]) if "k" in opts else 0
        for r in rows:
            err = abs(complex(r["re"], r["im"]) - self.char_value(opts["generator"], k, r["t"]))
            if not err <= COEFF_TOL:
                return f"char({r['t']}) off the mpmath closed form by {err:.2e}"
        return None

    def _cli_heisenberg(self, opts, rows):
        size = int(opts["block"][0])
        block = np.zeros((size, size), dtype=complex)
        if len(rows) != size * size:
            return f"{len(rows)} rows for a {size}x{size} block"
        for r in rows:
            block[r["m"], r["n"]] = complex(r["re"], r["im"])
        tol = float(opts["tol"][0]) if "tol" in opts else 1e-8
        return self.check_raising_correction(opts["generator"], float(opts["t"][0]), block, tol)

    def _cli_table(self, opts, rows):
        max_order = int(opts["max-order"][0])
        transform = [r for r in rows if r["kind"] == "transform_phi_to_T"]
        moments = [r for r in rows if r["kind"] == "catalan_moment"]
        if [r["n"] for r in transform] != list(range(max_order + 1)):
            return "transform rows do not cover n = 0..max_order"
        if [r["n"] for r in moments] != list(range(max_order + 1)):
            return "moment rows do not cover n = 0..max_order"
        theta = math.acos(0.25)  # the table is evaluated at x = 0.5
        for r in transform:
            target = 2.0 * math.cos((r["n"] + 1) * theta)
            if not abs(r["expected"] - target) <= 1e-12:
                return f"T_{r['n'] + 1}(0.5) printed as {r['expected']}, expected {target}"
            if not abs(r["computed"] - target) <= PV_QUAD_TOL:
                return f"PV transform of Phi_{r['n']} off T_{r['n'] + 1} by {abs(r['computed'] - target):.2e}"
        for r in moments:
            catalan = math.comb(2 * r["n"], r["n"]) // (r["n"] + 1)
            if r["computed"] != catalan or r["expected"] != catalan:
                return f"moment {2 * r['n']}: {r['computed']} vs Catalan {catalan}"
        return None


def _options(argv: list[str]) -> dict[str, object]:
    """Parse `cmd --name v1 v2 --other v3` into {'name': [v1, v2], ...}."""
    opts: dict[str, object] = {}
    current = None
    for token in argv[1:]:
        if token.startswith("--"):
            current = token[2:]
            opts[current] = []
        elif current is not None:
            opts[current].append(token)
    opts["generator"] = opts["generator"][0] if "generator" in opts else "P"
    return opts
