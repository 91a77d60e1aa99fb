"""Command-line surface: coefficient tables, evolutions, verification.

Six subcommands: `coeffs` emits normally-ordered coefficient tables with
the two-route agreement per entry; `evolve` emits amplitudes of one
group element applied to a basis level plus the norm defect, and fails
the process when that defect exceeds `--tol`; `char`
emits characteristic-function values; `heisenberg` emits
raising-operator correction blocks; `verify` runs every module's
invariant suite and fails the process on any violated identity; `table`
prints the transform/first-kind identity and the Catalan moments as
human-checkable tables.

Output is CSV (default) or JSON; floats are printed with 17 significant
digits so values round-trip exactly.  Exit codes: 0 success, 1
verification failure, 2 configuration error: an argument outside its
domain (a non-finite `--t`, `--tol` or `--omega`, a `--tol` <= 0, |t|
beyond its cap of 16 for P and X and 8 for P2, a negative `--k` or
`--max-order`, a `--block` below 1), `--l-max` below the tail level, a
`--tol` below rounding, or a Heisenberg quadrature that misses `--tol`.
For CSV output the per-run residuals (e.g. the norm defect) go to
stderr as `#`-prefixed comments so stdout stays a clean table; JSON
carries them inline.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks, evolution, fock, hilbert, oracle
from .combinatorics import _CATALAN_MAX_P, catalan
from .exceptions import DomainError, QuadratureError, TruncationError, check_finite, check_index, check_positive
from .report import CheckReport


class OutputFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    generator: str = "P"
    t_values: list[float] = field(default_factory=lambda: [1.0])
    k: int = 0
    l_max: int | None = None
    tol: float = 1e-8
    omega: float = 1.0
    max_order: int = 8
    block: int = 8
    seed: int = 0
    output_format: OutputFormat = OutputFormat.CSV
    output_path: str = "-"

    def validate(self) -> None:
        if self.command not in ("coeffs", "evolve", "char", "heisenberg", "verify", "table"):
            raise ConfigError(f"unknown command {self.command!r}")
        if self.generator not in ("P", "X", "P2", "H1"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        if not self.t_values:
            raise ConfigError("at least one t value is required")
        for t in self.t_values:
            check_finite("t", t)
        check_positive("tol", self.tol)
        check_finite("omega", self.omega)
        check_index("k", self.k)
        if self.l_max is not None and self.l_max < self.k:
            raise ConfigError("l_max must be >= k")
        if self.command in ("evolve", "heisenberg") and len(self.t_values) != 1:
            raise ConfigError(f"{self.command} takes exactly one t value")
        if self.command == "heisenberg":
            check_index("block", self.block, least=1)
        if self.command in ("coeffs", "table"):
            check_index("max_order", self.max_order)
        if self.command == "table" and self.max_order > _CATALAN_MAX_P:
            raise ConfigError(f"table max_order must be <= {_CATALAN_MAX_P}, the exact Catalan range")
        if self.command == "char" and self.generator == "X" and self.k != 0:
            raise ConfigError("the position characteristic function is available for k = 0 only")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(config: RunConfig, header: list[str], rows: list[list], residuals: dict[str, float]) -> None:
    out = sys.stdout if config.output_path == "-" else open(config.output_path, "w")
    try:
        if config.output_format is OutputFormat.JSON:
            payload = {
                "config_echo": {
                    "command": config.command,
                    "generator": config.generator,
                    "t_values": config.t_values,
                    "levels": [config.k, config.l_max],
                    "tol": config.tol,
                    "omega": config.omega,
                    "seed": config.seed,
                    "output_format": config.output_format.value,
                },
                "rows": [dict(zip(header, row)) for row in rows],
                "residuals": residuals,
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
            for name, value in residuals.items():
                print(f"# {name} = {_fmt(value)}", file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()


def _coeff_kind(generator: str) -> evolution.CoeffKind:
    return {
        "P": evolution.CoeffKind.MOMENTUM_I,
        "X": evolution.CoeffKind.POSITION_I,
        "P2": evolution.CoeffKind.KINETIC_I2,
    }[generator]


def _run_coeffs(config: RunConfig) -> int:
    if config.generator == "H1":
        raise ConfigError("coefficient tables are defined for generators P, X, P2")
    rows: list[list] = []
    worst = 0.0
    for t in config.t_values:
        table = evolution.build_coeff_table(_coeff_kind(config.generator), t, config.max_order)
        for (m, n), value in sorted(table.entries.items()):
            agreement = table.agreements[(m, n)]
            worst = max(worst, agreement)
            rows.append([m, n, float(t), value.real, value.imag, agreement])
    _emit(config, ["m", "n", "t", "re", "im", "method_agreement"], rows, {"max_method_agreement": worst})
    return 0


def _run_evolve(config: RunConfig) -> int:
    t = config.t_values[0]
    if config.generator == "H1":
        state = evolution.evolve_H1(config.k, t, config.omega, config.l_max)
    else:
        state = evolution.evolve(config.generator, config.k, t, config.l_max, config.tol)
    rows = [[l, amp.real, amp.imag] for l, amp in enumerate(state.amplitudes)]
    norm = CheckReport("norm_defect", state.norm_defect(), config.tol)
    _emit(config, ["l", "re", "im"], rows, {"norm_defect": norm.residual})
    if not norm.passed:
        print(f"FAILED: {norm}", file=sys.stderr)
        return 1
    return 0


def _run_char(config: RunConfig) -> int:
    rows: list[list] = []
    for t in config.t_values:
        if config.generator == "H1":
            value = fock.harmonic_char(t, 1.0 if config.k == 0 else 0.0, config.omega)
        elif config.generator == "P":
            value = evolution.state_char_function(config.k, t)
        elif config.generator == "X":
            value = evolution.char_function(evolution.Generator.X, t)
        else:
            raise ConfigError("characteristic functions are defined for generators P, X, H1")
        rows.append([float(t), value.real, value.imag])
    _emit(config, ["t", "re", "im"], rows, {})
    return 0


def _run_heisenberg(config: RunConfig) -> int:
    t = config.t_values[0]
    size = config.block
    block = evolution.heisenberg_block(config.generator, t, size - 1, size - 1, config.omega, config.tol)
    rows = [[m, n, block[m, n].real, block[m, n].imag] for m in range(size) for n in range(size)]
    hermiticity = float(np.max(np.abs(block - block.conj().T)))
    _emit(config, ["m", "n", "re", "im"], rows, {"hermiticity_defect": hermiticity})
    return 0


def _run_verify(config: RunConfig) -> int:
    suites = checks.run_all(tol=config.tol, seed=config.seed)
    rows: list[list] = []
    failed: list[CheckReport] = []
    for module, reports in suites.items():
        for rep in reports:
            rows.append([module, rep.name, rep.residual, rep.tolerance, "PASS" if rep.passed else "FAIL"])
            if not rep.passed:
                failed.append(rep)
    residuals = {
        f"{module}.max_residual": max((r.residual for r in reports), default=0.0)
        for module, reports in suites.items()
    }
    _emit(config, ["module", "check", "residual", "tolerance", "status"], rows, residuals)
    if failed:
        for rep in failed:
            print(f"FAILED: {rep}", file=sys.stderr)
        return 1
    return 0


def _run_table(config: RunConfig) -> int:
    rows: list[list] = []
    x = 0.5
    for n, pv_value, target in hilbert.spectral_identity_table(config.max_order, x):
        rows.append(["transform_phi_to_T", n, pv_value, target, abs(pv_value - target)])
    for n in range(0, config.max_order + 1):
        moment = float(fock.vacuum_moment(2 * n, "X", 4 * n + 4))
        quad = oracle.semicircle_expectation(lambda y, j=n: y ** (2 * j), 256)
        rows.append(["catalan_moment", n, moment, float(catalan(n)), abs(moment - catalan(n)) + abs(quad - moment)])
    worst = max(float(r[4]) for r in rows)
    _emit(config, ["kind", "n", "computed", "expected", "defect"], rows, {"max_defect": worst})
    return 0


_RUNNERS = {
    "coeffs": _run_coeffs,
    "evolve": _run_evolve,
    "char": _run_char,
    "heisenberg": _run_heisenberg,
    "verify": _run_verify,
    "table": _run_table,
}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    try:
        config.validate()
        return _RUNNERS[config.command](config)
    except (ConfigError, DomainError, QuadratureError, TruncationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicircle-qm",
        description="Semicircle quantum mechanics: coefficient tables, evolutions, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, generators: tuple[str, ...] = ("P", "X", "P2", "H1")) -> None:
        p.add_argument("--generator", choices=generators, default="P")
        p.add_argument("--t", dest="t_values", type=float, nargs="+", default=[1.0],
                       help="one or more group parameters")
        p.add_argument("--k", type=int, default=0, help="source basis level")
        p.add_argument("--l-max", type=int, default=None, help="highest emitted level")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--omega", type=float, default=1.0, help="variance scale of the correction kernels")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized identity checks")
        p.add_argument("--format", dest="output_format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", dest="output_path", default="-", help="file path or - for stdout")

    p_coeffs = sub.add_parser("coeffs", help="normally-ordered coefficient tables")
    add_common(p_coeffs, ("P", "X", "P2"))
    p_coeffs.add_argument("--max-order", type=int, default=8, help="emit entries with m + n <= this")

    p_evolve = sub.add_parser("evolve", help="amplitudes of one evolved basis level")
    add_common(p_evolve)

    p_char = sub.add_parser("char", help="characteristic-function values")
    add_common(p_char, ("P", "X", "H1"))

    p_heis = sub.add_parser("heisenberg", help="raising-operator correction blocks")
    add_common(p_heis, ("P", "P2"))
    p_heis.add_argument("--block", type=int, default=8, help="square block size to emit")

    p_verify = sub.add_parser("verify", help="run every module's invariant suite")
    add_common(p_verify)

    p_table = sub.add_parser("table", help="printable identity tables")
    add_common(p_table)
    p_table.add_argument("--max-order", type=int, default=8)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kwargs = {
        "command": args.command,
        "generator": args.generator,
        "t_values": list(args.t_values),
        "k": args.k,
        "l_max": args.l_max,
        "tol": args.tol,
        "omega": args.omega,
        "seed": args.seed,
        "output_format": OutputFormat(args.output_format),
        "output_path": args.output_path,
    }
    if hasattr(args, "max_order"):
        kwargs["max_order"] = args.max_order
    if hasattr(args, "block"):
        kwargs["block"] = args.block
    return run(RunConfig(**kwargs))


if __name__ == "__main__":
    sys.exit(main())
