"""The four benchmark workloads as rotations of operations.

An operation is one call into a public function of the program plus a
check of its output against `reference.Reference`.  A workload hands out
rotations: rotation r is a fixed mix of operation kinds whose parameters
depend only on the seed and on r.  Rotation 0 is the untimed warm-up of
set-up; measured rotations start at 1.

Continuous parameters follow one Kronecker sequence per operation kind,
u_n = frac(offset + n * step), with seeded offsets; the n-th call of a
kind takes the n-th point.  Each kind therefore covers its range evenly
whatever the number of rotations, and never repeats a value, so
`evolve-cold` never meets a t it has seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import COEFF_KIND, COEFF_TOL, Reference

# Requested tolerance of every evolution and element table in the workloads.
STATE_TOL = 1e-10
# Default tolerance of the Heisenberg quadratures.
HEISENBERG_TOL = 1e-8
FAULT = "silent-series-cancellation"

_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    fault: str | None = None


class Slot:
    """Parameter stream of one operation slot of a rotation.

    The `count` slots of one kind share a Kronecker sequence: slot `index`
    takes its points r * count + index.
    """

    def __init__(self, offsets, count: int = 1, index: int = 0) -> None:
        self.offsets = tuple(float(o) for o in offsets)
        self.count = count
        self.index = index

    def u(self, r: int, dim: int = 0) -> float:
        return (self.offsets[dim] + (r * self.count + self.index) * _STEPS[dim]) % 1.0

    def real(self, r: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(r)

    def integer(self, r: int, lo: int, hi: int) -> int:
        return lo + int((hi - lo + 1) * self.u(r, 1))

    def pick(self, r: int, values):
        return values[int(len(values) * self.u(r))]


# Operations of one rotation of the evolve-* workloads.  Each kind maps to
# (count per rotation, t_max, smallest size, largest size): cold t is
# uniform on [-t_max, t_max]; the size is k, l_max, max_order or the block.
# Coefficient tables are checked at 1e-11, the tolerance they record; the
# translation coefficients drift to 1.1e-11 of mpmath near |t| = 8 and the
# kinetic ones to 6e-12 near |t| = 4, so their tables stop at |t| = 6 and 3.
# The counts are large so that the one 0.5 to 0.9 s kinetic edge call of an
# evolve-cold rotation stays about a quarter of its time.
EVOLVE_MIX = {
    "evolve_P": (24, 8.0, 0, 8),
    "evolve_X": (24, 8.0, 0, 8),
    "evolve_P2_vacuum": (12, 4.0, 0, 0),
    "evolve_P2_level1": (12, 4.0, 1, 1),
    "element_table_P": (12, 8.0, 4, 12),
    "element_table_X": (12, 8.0, 4, 12),
    "element_table_P2": (8, 4.0, 4, 8),
    "coeffs_P": (12, 6.0, 4, 12),
    "coeffs_X": (12, 6.0, 4, 12),
    "coeffs_P2": (8, 3.0, 4, 12),
    "heisenberg_P": (4, 4.0, 2, 3),
    "heisenberg_P2": (4, 2.0, 3, 5),
}
# Its quadrature calls the uncached Bessel ratio, so a warm Heisenberg-P
# block stays at one entry and assembly keeps most of the warm time.
WARM_SIZES = {"heisenberg_P": (1, 1)}
# evolve-warm draws t from these fractions of t_max.  They are not short
# binary fractions, so the exact rational series of the kinetic route costs
# as much in the cache fill as it does at a user's t.
WARM_FRACTIONS = (-0.81, -0.35, 0.07, 0.41, 0.93)
# Domain-edge slice of evolve-cold: (kind, t range), source level 0, tol 1e-10.
# Rotation r takes t at the Kronecker point frac((r + 1) * step) of the
# range, at full float precision.  The points do not depend on the seed,
# so every run meets the same failing calls.
EDGE_SLICE = (("evolve_P_edge", 12.0, 16.0), ("evolve_P2_vacuum_edge", 6.0, 8.0))


def _evolution_op(ev, ref: Reference, kind: str, t: float, size: int) -> Op:
    """One evolution-layer operation; size is k, l_max, max_order or block."""
    if kind in ("evolve_P", "evolve_X"):
        gen = kind[-1]
        fn = ev.evolve_P if gen == "P" else ev.evolve_X
        return Op(kind, lambda: fn(size, t, tol=STATE_TOL).amplitudes,
                  lambda a: ref.check_state(gen, t, size, a, STATE_TOL))
    if kind == "evolve_P2_vacuum":
        return Op(kind, lambda: ev.evolve_P2_vacuum(t, tol=STATE_TOL).amplitudes,
                  lambda a: ref.check_state("P2", t, 0, a, STATE_TOL))
    if kind == "evolve_P2_level1":
        return Op(kind, lambda: ev.evolve_P2_level1(t, tol=STATE_TOL).amplitudes,
                  lambda a: ref.check_state("P2", t, 1, a, STATE_TOL))
    if kind.startswith("element_table_"):
        gen = kind.rsplit("_", 1)[1]
        return Op(kind, lambda: ev.element_table(gen, t, size),
                  lambda a: ref.check_table(gen, t, a, STATE_TOL))
    if kind.startswith("coeffs_"):
        coeff_kind = COEFF_KIND[kind.rsplit("_", 1)[1]]
        return Op(kind, lambda: ev.build_coeff_table(coeff_kind, t, size).entries,
                  lambda e: ref.check_coefficients(coeff_kind, t, e, size, COEFF_TOL))
    if kind == "heisenberg_P":
        def block_p():
            return np.array([[ev.heisenberg_aplus_P(t, m, n) for n in range(size)] for m in range(size)])
        return Op(kind, block_p, lambda b: ref.check_raising_correction("P", t, b, HEISENBERG_TOL))
    if kind == "heisenberg_P2":
        return Op(kind, lambda: ev.heisenberg_aplus_P2(t, size - 1, size - 1),
                  lambda b: ref.check_raising_correction("P2", t, b, HEISENBERG_TOL))
    raise ValueError(f"unknown operation kind {kind!r}")


class Workload:
    """Base class: a name, a tail percentile and a rotation of operations."""

    name = ""
    # op_tail_ms is this percentile; the measurement runs until at least
    # ten samples lie beyond it.
    tail_pct = 99.0
    # Rotations of the traced phase: a fixed number, so counts repeat.
    traced_rotations = 1
    # False when operations run in a separate program process.
    in_process = True

    def __init__(self, seed: int, root: str, ref: Reference) -> None:
        self.seed = seed
        self.root = root
        self.ref = ref
        self.rng = np.random.default_rng(seed)

    def bind(self, pkg) -> None:
        """Take the freshly imported package; part of set-up."""
        self.pkg = pkg

    def rotation(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> list[Op]:
        """Untimed operations of set-up."""
        return self.rotation(0)

    def traced_rotation(self, r: int) -> list[Op]:
        """The rotation as the traced phase runs it, inside this process."""
        return self.rotation(r)


class EvolveWorkload(Workload):
    traced_rotations = 2
    cold = True

    def __init__(self, seed, root, ref) -> None:
        super().__init__(seed, root, ref)
        slots = []
        for kind, (count, *_) in EVOLVE_MIX.items():
            offsets = self.rng.random(2)
            slots += [(kind, Slot(offsets, count, index)) for index in range(count)]
        order = self.rng.permutation(len(slots))
        self.slots = [slots[i] for i in order]

    def sizes(self, kind: str) -> tuple[int, int]:
        return EVOLVE_MIX[kind][2:] if self.cold else WARM_SIZES.get(kind, EVOLVE_MIX[kind][2:])

    def rotation(self, r: int) -> list[Op]:
        ev = self.pkg.evolution
        ops = []
        for kind, slot in self.slots:
            t_max = EVOLVE_MIX[kind][1]
            if self.cold:
                t = slot.real(r, -t_max, t_max)
            else:
                t = t_max * slot.pick(r, WARM_FRACTIONS)
            ops.append(_evolution_op(ev, self.ref, kind, t, slot.integer(r, *self.sizes(kind))))
        if self.cold:
            ops += self._edge_ops(r)
        return ops

    def _edge_ops(self, r: int) -> list[Op]:
        """Domain-edge calls; their t values do not depend on the seed."""
        ev = self.pkg.evolution
        ops = []
        for (kind, lo, hi), step in zip(EDGE_SLICE, _STEPS):
            t = lo + (hi - lo) * ((r + 1) * step % 1.0)
            op = _evolution_op(ev, self.ref, kind.removesuffix("_edge"), t, 0)
            op.kind = kind
            op.fault = FAULT
            ops.append(op)
        return ops


class EvolveCold(EvolveWorkload):
    name = "evolve-cold"


class EvolveWarm(EvolveWorkload):
    name = "evolve-warm"
    cold = False
    traced_rotations = 10

    def warm_up(self) -> list[Op]:
        """Fill the caches: every grid t of every kind at its largest size."""
        ev = self.pkg.evolution
        fill = [
            _evolution_op(ev, self.ref, kind, t_max * fraction, self.sizes(kind)[1])
            for kind, (_, t_max, *_) in EVOLVE_MIX.items()
            for fraction in WARM_FRACTIONS
        ]
        return fill + self.rotation(0)


VERIFY_SUITES = ("combinatorics", "specfun", "fock", "orthopoly", "hilbert", "evolution", "oracle")


class Verify(Workload):
    """One operation is one module suite, called as `checks.run_all` calls it."""

    name = "verify"
    # A rotation has seven suites and the combinatorics suite is the
    # slowest, so p90 (above 6/7) always falls on a combinatorics sample.
    tail_pct = 90.0
    traced_rotations = 2
    tol = 1e-8

    def rotation(self, r: int) -> list[Op]:
        checks = self.pkg.checks
        hilbert_seed = self.seed * 100_003 + r
        ops = []
        for suite in VERIFY_SUITES:
            fn = getattr(checks, f"{suite}_suite")
            if suite == "combinatorics":
                run = lambda fn=fn: fn(tol=self.tol)
            elif suite == "hilbert":
                run = lambda fn=fn: fn(self.tol, hilbert_seed)
            else:
                run = lambda fn=fn: fn(self.tol)
            ops.append(Op(suite, run, self.ref.check_reports))
        return ops


CLI_COMMANDS = ("evolve", "coeffs", "char", "heisenberg", "table")


class Cli(Workload):
    """One `python -m semicircleqm` process per operation, one at a time."""

    name = "cli"
    tail_pct = 90.0
    in_process = False
    traced_rotations = 4

    def __init__(self, seed, root, ref) -> None:
        super().__init__(seed, root, ref)
        self.slots = [Slot(self.rng.random(2)) for _ in CLI_COMMANDS]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def argv(self, command: str, slot: Slot, r: int) -> list[str]:
        def t(lo, hi, dim=0):
            return repr(round(lo + (hi - lo) * slot.u(r, dim), 6))

        if command == "evolve":
            gen = "P" if slot.u(r, 1) < 0.5 else "X"
            return ["evolve", "--generator", gen, "--k", str(int(10 * slot.u(r, 1)) % 5),
                    "--t", t(-4, 4), "--tol", repr(STATE_TOL)]
        if command == "coeffs":
            gen = ("P", "X", "P2")[int(3 * slot.u(r, 1))]
            return ["coeffs", "--generator", gen, "--t", t(-3, 3),
                    "--max-order", str(slot.integer(r, 4, 8))]
        if command == "char":
            gen = "P" if slot.u(r, 1) < 0.5 else "X"
            k = str(int(10 * slot.u(r, 1)) % 5) if gen == "P" else "0"
            return ["char", "--generator", gen, "--k", k, "--t", t(-6, -2), t(-2, 2), t(2, 6)]
        if command == "heisenberg":
            return ["heisenberg", "--generator", "P2", "--t", t(-2, 2),
                    "--block", str(slot.integer(r, 3, 6))]
        return ["table", "--max-order", str(slot.integer(r, 4, 10))]

    def bind(self, pkg) -> None:
        super().bind(pkg)
        importlib.import_module("semicircleqm.cli")

    def _run_process(self, argv: list[str]):
        proc = subprocess.run(
            [sys.executable, "-m", "semicircleqm", *argv, "--format", "json"],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _run_in_process(self, argv: list[str]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pkg.cli.main([*argv, "--format", "json"])
        return code, out.getvalue()

    def _ops(self, r: int, runner) -> list[Op]:
        ops = []
        for command, slot in zip(CLI_COMMANDS, self.slots):
            argv = self.argv(command, slot, r)
            ops.append(Op(command, lambda argv=argv: runner(argv),
                          lambda out, argv=argv: self.ref.check_cli(argv, *out)))
        return ops

    def rotation(self, r: int) -> list[Op]:
        return self._ops(r, self._run_process)

    def traced_rotation(self, r: int) -> list[Op]:
        return self._ops(r, self._run_in_process)


WORKLOADS = {w.name: w for w in (EvolveCold, EvolveWarm, Verify, Cli)}
