"""Command-line surface: coefficient tables, evolutions, verification.

Six subcommands: `coeffs` emits normally-ordered coefficient tables,
read from the sine-transform engine, with each entry's gap to its
defining series (`checks.coefficient_routes`), and fails the process
when a gap exceeds 1e-11; `evolve` emits amplitudes of one
group element applied to a basis level plus the norm defect, and fails
the process when that defect exceeds `--tol`; `char`
emits characteristic-function values; `heisenberg` emits
raising-operator correction blocks; `verify` runs every module's
invariant suite and fails the process on any violated identity; `table`
prints the transform/first-kind identity and the Catalan moments as
human-checkable tables.

Each subcommand takes only the flags it reads (`_SUBCOMMANDS`;
`--format` and `--output` belong to all).  Output is CSV (default) or
JSON; floats are printed with 17 significant digits so values
round-trip exactly.  Exit codes: 0 success, 1 verification failure, 2
configuration error: a flag the subcommand does not read (refused by
argparse), or a value outside its domain, refused by the library
function that reads it or by `RunConfig.validate` where none does.
For CSV output the per-run residuals (e.g. the norm defect) go to
stderr as `#`-prefixed comments so stdout stays a clean table; JSON
carries them inline.

Only `evolution` is imported at module level; each runner imports the
other modules it reads, so a process loads only what its subcommand
runs: `evolve`, `heisenberg` and `char` (but for H1, which reads
`fock`) load none of `checks`, `combinatorics`, `fock` or `oracle`.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evolution
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

    def __post_init__(self) -> None:
        self.output_format = OutputFormat(self.output_format)

    def validate(self) -> None:
        """The rules no library function holds; each value a library function reads, it checks itself."""
        if not self.t_values:
            raise ConfigError("at least one t value is required")
        if self.command in ("evolve", "heisenberg") and len(self.t_values) != 1:
            raise ConfigError(f"{self.command} takes exactly one t value")
        if self.command == "heisenberg":
            check_index("block", self.block, least=1)  # read as m_max = block - 1
        if self.command == "table":
            from .combinatorics import _CATALAN_MAX_P

            if self.max_order > _CATALAN_MAX_P:
                raise ConfigError(f"table max_order must be <= {_CATALAN_MAX_P}, the exact Catalan range")
        if self.command == "char" and self.generator == "X" and self.k != 0:
            raise ConfigError("the position characteristic function is available for k = 0 only")
        # evolve and char take --omega for every generator but read it for H1 alone; H1 reads
        # --k of char only as k == 0, and --tol of evolve only in the norm gate
        if self.command in ("evolve", "char") and self.generator != "H1":
            check_finite("omega", self.omega)
        if self.command == "char" and self.generator == "H1":
            check_index("k", self.k)
        if self.command == "evolve" and self.generator == "H1":
            check_positive("tol", self.tol)


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


def _run_coeffs(config: RunConfig) -> int:
    from . import checks

    gaps = checks.coefficient_routes({config.generator: config.t_values}, config.max_order)
    rows: list[list] = []
    for t, table_gaps in zip(config.t_values, gaps):
        table = evolution.build_coeff_table(config.generator, t, config.max_order)
        for ((m, n), value), gap in zip(sorted(table.entries.items()), table_gaps.tolist()):
            rows.append([m, n, float(t), value.real, value.imag, gap])
    agreement = CheckReport("max_method_agreement", float(np.max(gaps)), checks.COEFF_ROUTE_TOL)
    _emit(config, ["m", "n", "t", "re", "im", "method_agreement"], rows, {"max_method_agreement": agreement.residual})
    if not agreement.passed:
        print(f"FAILED: {agreement}", file=sys.stderr)
        return 1
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
            from .fock import harmonic_char

            value = harmonic_char(t, 1.0 if config.k == 0 else 0.0, config.omega)
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
    from . import checks

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
    from . import fock, hilbert, oracle
    from .combinatorics import catalan

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


_FLAGS = {  # add_argument keywords of each flag in the table below
    "--t": dict(dest="t_values", type=float, nargs="+", default=[1.0], help="one or more group parameters"),
    "--k": dict(type=int, default=0, help="source basis level"),
    "--l-max": dict(type=int, default=None, help="highest emitted level"),
    "--tol": dict(type=float, default=1e-8),
    "--seed": dict(type=int, default=0, help="seed for randomized identity checks"),
    "--max-order": dict(type=int, default=8, help="highest order: m + n for coeffs, n (<= 30) for table"),
    "--block": dict(type=int, default=8, help="square block size to emit"),
}
_H1_FREQUENCY = "frequency omega_1 of the quadratic well H1 (> 0); read for H1 only"
_EVOLVED = tuple(gen.value for gen in evolution._GENERATORS)  # P, X and P2: the sine-transform evolutions

# subcommand: (help, the generators it takes, the flags it reads, what --omega means to it)
_SUBCOMMANDS = {
    "coeffs": ("normally-ordered coefficient tables", _EVOLVED, ("--t", "--max-order"), None),
    "evolve": ("amplitudes of one evolved basis level", (*_EVOLVED, "H1"), ("--t", "--k", "--l-max", "--tol"),
               _H1_FREQUENCY),
    "char": ("characteristic-function values", ("P", "X", "H1"), ("--t", "--k"), _H1_FREQUENCY),
    "heisenberg": ("raising-operator correction blocks", ("P", "P2"), ("--t", "--block", "--tol"),
                   "variance scale of the correction kernels"),
    "verify": ("run every module's invariant suite", (), ("--tol", "--seed"), None),
    "table": ("printable identity tables", (), ("--max-order",), None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicircle-qm",
        description="Semicircle quantum mechanics: coefficient tables, evolutions, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, generators, flags, omega) in _SUBCOMMANDS.items():
        # no abbreviations: `verify --t` would otherwise be read as `--tol`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if generators:
            p.add_argument("--generator", choices=generators, default="P")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if omega:
            p.add_argument("--omega", type=float, default=1.0, help=omega)
        p.add_argument("--format", dest="output_format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", dest="output_path", default="-", help="file path or - for stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
