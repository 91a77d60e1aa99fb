import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from semicircleqm import evolution, oracle
from semicircleqm.cli import OutputFormat, RunConfig, main, run


# the (subcommand, flag) pairs of the flags each subcommand takes but does not read
UNREAD_FLAGS = [
    *(("coeffs", flag) for flag in ("--k", "--l-max", "--tol", "--omega", "--seed")),
    ("evolve", "--seed"),
    *(("char", flag) for flag in ("--l-max", "--tol", "--seed")),
    *(("heisenberg", flag) for flag in ("--k", "--l-max", "--seed")),
    *(("verify", flag) for flag in ("--generator", "--t", "--k", "--l-max", "--omega")),
    *(("table", flag) for flag in ("--generator", "--t", "--k", "--l-max", "--tol", "--omega", "--seed")),
]

# the semicircleqm modules a `char`, `evolve` or `heisenberg` process loads
LIGHT_MODULES = {"cli", "evolution", "exceptions", "hilbert", "orthopoly", "report", "specfun"}
# each subcommand but verify run as `python -m semicircleqm`: argv, header line, the modules it loads
MODULE_RUNS = [
    (["coeffs", "--t", "0.5", "--max-order", "2"], "m,n,t,re,im,method_agreement",
     LIGHT_MODULES | {"checks", "combinatorics", "fock", "oracle"}),
    (["evolve", "--t", "0.5"], "l,re,im", LIGHT_MODULES),
    (["char", "--generator", "P", "--t", "0"], "t,re,im", LIGHT_MODULES),
    (["heisenberg", "--t", "0.5", "--block", "2"], "m,n,re,im", LIGHT_MODULES),
    (["table", "--max-order", "2"], "kind,n,computed,expected,defect",
     LIGHT_MODULES | {"combinatorics", "fock", "oracle"}),
]


def run_capture(capsys, **kwargs):
    status = run(RunConfig(**kwargs))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def bessel_profile(s: int, t: float) -> complex:
    """I[0, s](t) = (s+1) J_{s+1}(2t)/t at 30 digits, with its t = 0 limit."""
    if t == 0.0:
        return complex(s == 0)
    with mp.workdps(30):
        return complex((s + 1) * mp.besselj(s + 1, 2 * mp.mpf(t)) / mp.mpf(t))


def kinetic_profile(s: int, t: float) -> complex:
    """I2[0, s](t) = (-it)^h / h! 1F1(h + 1/2; s + 2; 4it) at 30 digits for s = 2h; 0 for odd s."""
    if s % 2:
        return 0j
    with mp.workdps(30):
        tt, h = mp.mpf(t), s // 2
        return complex((-1j * tt) ** h / mp.factorial(h) * mp.hyp1f1(mp.mpf(s + 1) / 2, s + 2, 4j * tt))


J1_AT_2 = bessel_profile(0, 1.0).real  # the vacuum characteristic function at t = 1


def within_ulps(value: float, want: float, ulps: int = 2) -> bool:
    return abs(value - want) <= ulps * math.ulp(want)


class TestChar:
    def test_momentum_row(self, capsys):
        status, out, _ = run_capture(capsys, command="char", generator="P", t_values=[1.0])
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        assert lines[1] == "1,0.57672480775687351,0"
        assert within_ulps(float(lines[1].split(",")[1]), J1_AT_2)

    def test_multiple_t_values(self, capsys):
        status, out, _ = run_capture(capsys, command="char", generator="X", t_values=[0.0, 0.5, 1.0])
        assert status == 0
        assert len(out.strip().splitlines()) == 4

    def test_harmonic_generator(self, capsys):
        status, out, _ = run_capture(capsys, command="char", generator="H1", t_values=[0.0])
        assert status == 0
        assert out.strip().splitlines()[1] == "0,1,0"


class TestEvolve:
    def test_identity_at_time_zero(self, capsys):
        status, out, err = run_capture(capsys, command="evolve", generator="P", t_values=[0.0], k=0)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "l,re,im"
        assert lines[1] == "0,1,0"
        assert "# norm_defect = 0" in err

    def test_rejects_multiple_t(self, capsys):
        status, _, err = run_capture(capsys, command="evolve", generator="P", t_values=[0.5, 1.0])
        assert status == 2
        assert "configuration error" in err

    def test_kinetic_from_vacuum(self, capsys):
        status, out, _ = run_capture(
            capsys, command="evolve", generator="P2", t_values=[0.3], k=0,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["residuals"]["norm_defect"] <= 1e-8
        assert payload["rows"][1]["re"] == 0.0  # odd level empty

    def test_norm_defect_within_tol_exits_zero(self, capsys):
        status, out, err = run_capture(capsys, command="evolve", generator="P", t_values=[1.0], tol=1e-10)
        assert status == 0
        assert out.startswith("l,re,im")
        assert "FAILED" not in err

    def test_norm_defect_above_tol_exits_one(self, capsys, monkeypatch):
        def defective(generator, k, t, l_max=None, tol=1e-10):
            amps = np.array([0.6, 0.0, 0.7j])  # norm 0.85
            return evolution.EvolvedState(t, k, amps, evolution.Generator(generator), 2)

        monkeypatch.setattr(evolution, "evolve", defective)
        status, out, err = run_capture(
            capsys, command="evolve", generator="P", t_values=[1.0], tol=1e-10,
            output_format=OutputFormat.JSON,
        )
        assert status == 1
        payload = json.loads(out)
        assert payload["residuals"]["norm_defect"] > 1e-10
        assert len(payload["rows"]) == 3
        assert "FAILED: FAIL  norm_defect" in err

    def test_domain_edge_keeps_norm(self, capsys):
        status, out, err = run_capture(
            capsys, command="evolve", generator="P", t_values=[16.0], tol=1e-10,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["residuals"]["norm_defect"] <= 1e-10
        assert len(payload["rows"]) > 16
        assert "FAILED" not in err

    def test_kinetic_from_level_two_matches_oracle(self, capsys):
        t = 0.3
        status, out, _ = run_capture(
            capsys, command="evolve", generator="P2", t_values=[t], k=2,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        rows = json.loads(out)["rows"]
        got = np.array([row["re"] + 1j * row["im"] for row in rows])
        # the block also holds the column of the level past the rows, so it reaches past them
        col = oracle._certified_columns("P2", t, (2, got.size), 1e-10)[:, 0]
        assert np.max(np.abs(got - col[: got.size])) <= 1e-9


class TestJsonSchema:
    def test_top_level_keys(self, capsys):
        status, out, _ = run_capture(
            capsys, command="coeffs", generator="P", t_values=[0.5], max_order=3,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        payload = json.loads(out)
        assert set(payload) == {"config_echo", "rows", "residuals"}
        assert payload["config_echo"]["command"] == "coeffs"
        row = payload["rows"][0]
        assert set(row) == {"m", "n", "t", "re", "im", "method_agreement"}

    def test_round_trip_floats(self, capsys):
        status, out, _ = run_capture(
            capsys, command="char", generator="P", t_values=[1.0], output_format=OutputFormat.JSON
        )
        payload = json.loads(out)
        assert payload["rows"][0]["re"] == 0.5767248077568735
        assert within_ulps(payload["rows"][0]["re"], J1_AT_2)


class TestCoeffs:
    def test_csv_header_and_agreement(self, capsys):
        status, out, _ = run_capture(
            capsys, command="coeffs", generator="P2", t_values=[0.5], max_order=4
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,t,re,im,method_agreement"
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-11

    @pytest.mark.parametrize("generator, t", [("P", 15.9), ("P2", 7.9)])
    def test_routes_agree_at_the_domain_edge(self, capsys, generator, t):
        status, out, _ = run_capture(
            capsys, command="coeffs", generator=generator, t_values=[t], max_order=20,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        assert json.loads(out)["residuals"]["max_method_agreement"] <= 1e-11

    @pytest.mark.parametrize("generator", ["P", "X", "P2"])
    def test_time_zero_rows_print_no_negative_zero(self, capsys, generator):
        # the identity delta[m+n, 0], with no -0 in either format
        status, out, _ = run_capture(capsys, command="coeffs", generator=generator, t_values=[0.0], max_order=3)
        assert status == 0
        assert out == (
            "m,n,t,re,im,method_agreement\n0,0,0,1,0,0\n0,1,0,0,0,0\n0,2,0,0,0,0\n0,3,0,0,0,0\n"
            "1,0,0,0,0,0\n1,1,0,0,0,0\n1,2,0,0,0,0\n2,0,0,0,0,0\n2,1,0,0,0,0\n3,0,0,0,0,0\n"
        )
        status, out, _ = run_capture(
            capsys, command="coeffs", generator=generator, t_values=[0.0], max_order=3, output_format=OutputFormat.JSON
        )
        assert status == 0
        want = [
            {"m": m, "n": n, "t": 0.0, "re": float(m + n == 0), "im": 0.0, "method_agreement": 0.0}
            for m in range(4) for n in range(4 - m)
        ]
        assert json.dumps(json.loads(out)["rows"]) == json.dumps(want)  # dumps keeps the sign of a zero

    @pytest.mark.parametrize("t", [-3.2, 16.0])
    def test_position_rows_print_no_negative_zero(self, capsys, t):
        # entry (m, n) is i^(m+n) times a real value: real for even m + n, imaginary for odd,
        # and its other part is +0 in both formats
        status, out, _ = run_capture(capsys, command="coeffs", generator="X", t_values=[t], max_order=12)
        assert status == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 91 and all("-0" not in row for row in rows)
        assert all(row[4 if (int(row[0]) + int(row[1])) % 2 == 0 else 3] == "0" for row in rows)
        status, out, _ = run_capture(
            capsys, command="coeffs", generator="X", t_values=[t], max_order=12, output_format=OutputFormat.JSON
        )
        assert status == 0
        for row in json.loads(out)["rows"]:
            zero = row["im" if (row["m"] + row["n"]) % 2 == 0 else "re"]
            assert zero == 0.0 and math.copysign(1.0, zero) == 1.0, row

    def test_rejects_harmonic(self, capsys):
        status, _, err = run_capture(capsys, command="coeffs", generator="H1", t_values=[0.5])
        assert status == 2

    @pytest.mark.parametrize("offset", [1e-10, 0.123])
    def test_route_gap_exits_one(self, capsys, monkeypatch, offset):
        column = evolution._coeff_column
        monkeypatch.setattr(evolution, "_coeff_column", lambda kind, t, s: column(kind, t, s) + offset)
        status, out, err = run_capture(
            capsys, command="coeffs", generator="P", t_values=[0.5, 15.9], max_order=6,
            output_format=OutputFormat.JSON,
        )
        assert status == 1
        payload = json.loads(out)
        assert len(payload["rows"]) == 56
        assert payload["residuals"]["max_method_agreement"] == pytest.approx(offset)
        assert "FAILED: FAIL  max_method_agreement" in err


class TestWorkloadRangesAgainstMpmath:
    """Every row of `coeffs` and `char` over the ranges of the benchmark's cli workload (bench/workloads.py).

    The benchmark's checker compares each printed value with mpmath
    closed forms within 1e-11, and so does this test: coeffs for P, X
    and P2 at |t| <= 3 with max-order 4..8, char for P with k <= 4 and
    for X at t in [-6, 6].
    """

    COEFF_TS = (-3.0, -2.987654, -2.1, -1.234567, -0.5, -0.000123, 0.0, 0.3141, 1.0, 1.98765, 2.5, 3.0)
    CHAR_TS = (-6.0, -5.432109, -4.1, -2.0, -1.111111, -0.2, 0.0, 0.7, 1.999999, 3.3, 4.876543, 6.0)

    @pytest.mark.parametrize("generator", ["P", "X", "P2"])
    def test_coeffs_rows(self, capsys, generator):
        for i, t in enumerate(self.COEFF_TS):
            max_order = 4 + i % 5
            status = main(["coeffs", "--generator", generator, "--t", repr(t), "--max-order", str(max_order),
                           "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert status == 0
            assert len(payload["rows"]) == (max_order + 1) * (max_order + 2) // 2
            for row in payload["rows"]:
                m, s = row["m"], row["m"] + row["n"]
                if generator == "P":
                    want = (-1) ** m * bessel_profile(s, t)
                elif generator == "X":
                    want = 1j**s * bessel_profile(s, t)
                else:
                    want = (-1) ** m * kinetic_profile(s, t)
                assert row["t"] == t
                assert abs(complex(row["re"], row["im"]) - want) <= 1e-11, (generator, t, m, row["n"])

    @pytest.mark.parametrize("generator, k", [("P", k) for k in range(5)] + [("X", 0)])
    def test_char_rows(self, capsys, generator, k):
        for ts in (self.CHAR_TS[i : i + 3] for i in range(0, len(self.CHAR_TS), 3)):
            status = main(["char", "--generator", generator, "--k", str(k), "--t", *map(repr, ts), "--format", "json"])
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert status == 0
            assert [row["t"] for row in rows] == list(ts)
            for row, t in zip(rows, ts):
                # <k|e^{itP}|k> = sum_{m <= k} I[m, m](t) = sum_m (-1)^m I[0, 2m](t); J_1(2t)/t for X
                want = sum((-1) ** m * bessel_profile(2 * m, t) for m in range(k + 1))
                assert abs(complex(row["re"], row["im"]) - want) <= 1e-11, (generator, k, t)


class TestHeisenberg:
    def test_momentum_block(self, capsys):
        status, out, err = run_capture(
            capsys, command="heisenberg", generator="P", t_values=[0.3], block=3, tol=1e-8
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,re,im"
        assert len(lines) == 10
        assert "hermiticity_defect" in err

    def test_rejects_position_generator(self, capsys):
        status, _, _ = run_capture(capsys, command="heisenberg", generator="X", t_values=[0.3])
        assert status == 2

    def test_kinetic_block_near_the_edge(self, capsys):
        t = 7.5
        status, out, _ = run_capture(
            capsys, command="heisenberg", generator="P2", t_values=[t], block=2,
            output_format=OutputFormat.JSON,
        )
        assert status == 0
        got = np.array([row["re"] + 1j * row["im"] for row in json.loads(out)["rows"]]).reshape(2, 2)
        # (U a+ U* - a+)[m, n] = sum_l conj(V[l+1, m]) V[l, n] - delta_{m, n+1}, V = U* = e^{-itP^2}
        v = oracle._certified_columns("P2", -t, (0, 1), 1e-10)
        conj = v[1:].conj().T @ v[:-1] - np.eye(2, 2, -1)
        assert np.max(np.abs(got - conj)) <= 1e-8

    def test_momentum_block_at_the_cap(self, capsys):
        status, out, _ = run_capture(capsys, command="heisenberg", generator="P", t_values=[16.0], block=4)
        assert status == 0
        assert len(out.strip().splitlines()) == 17

    def test_momentum_block_beyond_the_cap_exits_two(self, capsys):
        status, out, err = run_capture(capsys, command="heisenberg", generator="P", t_values=[17.0])
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error: |t| <=")

    def test_kinetic_block_beyond_the_cap_exits_two(self, capsys):
        status, out, err = run_capture(capsys, command="heisenberg", generator="P2", t_values=[16.0], block=2)
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error: |t| <=")


class TestTable:
    def test_identities_table(self, capsys):
        status, out, _ = run_capture(capsys, command="table", generator="P", t_values=[1.0], max_order=5)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,computed,expected,defect"
        assert any(line.startswith("transform_phi_to_T") for line in lines)
        assert any(line.startswith("catalan_moment") for line in lines)
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-9


class TestConfigValidation:
    def test_bad_tol(self, capsys):
        status, _, err = run_capture(capsys, command="evolve", t_values=[1.0], tol=-1.0)
        assert status == 2
        assert "tol" in err

    @pytest.mark.parametrize(
        "command, generator, field",
        [("evolve", "H1", {"omega": -1.0}), ("evolve", "H1", {"tol": -1.0}), ("char", "H1", {"k": -1})],
    )
    def test_negative_h1_settings_exit_two(self, capsys, command, generator, field):
        # evolve_H1 reads omega1 > 0; --tol of evolve H1 and --k of char H1 no library function reads
        status, out, err = run_capture(capsys, command=command, generator=generator, **field)
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error:") and any(name in err for name in field)

    def test_negative_seed_exits_two(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: seed: an integer >= 0 required, got -1\n"

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[command + flag for command, flag in UNREAD_FLAGS])
    def test_flag_the_subcommand_does_not_read_is_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as refusal:
            main([command, flag, "1"])
        assert refusal.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, generator, field",
        [("evolve", "P", {"t_values": [float("nan")]}), ("coeffs", "P", {"t_values": [float("nan")]}),
         ("heisenberg", "P", {"t_values": [float("nan")]}), ("char", "P", {"t_values": [float("nan")]}),
         ("char", "H1", {"t_values": [float("inf")]}), ("evolve", "P", {"tol": float("nan")}),
         ("char", "H1", {"omega": float("nan")}), ("evolve", "X", {"omega": float("nan")}),
         ("char", "P", {"omega": float("inf")}), ("evolve", "H1", {"tol": float("nan")})],
    )
    def test_non_finite_inputs_exit_two(self, capsys, command, generator, field):
        status, out, err = run_capture(capsys, command=command, generator=generator, **{"t_values": [1.0], **field})
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error:")

    def test_empty_t(self, capsys):
        status, _, _ = run_capture(capsys, command="char", t_values=[])
        assert status == 2

    def test_l_max_below_k(self, capsys):
        status, _, _ = run_capture(capsys, command="evolve", t_values=[1.0], k=5, l_max=2)
        assert status == 2

    def test_position_state_char_rejected(self, capsys):
        status, _, _ = run_capture(capsys, command="char", generator="X", t_values=[1.0], k=2)
        assert status == 2

    @pytest.mark.parametrize(
        "command, generator, t",
        [("evolve", "P", 17.0), ("evolve", "X", -16.5), ("evolve", "P2", 8.5),
         ("coeffs", "P", 17.0), ("coeffs", "P2", 9.0), ("char", "P", 24.0), ("char", "X", -16.5)],
    )
    def test_t_beyond_domain_exits_two(self, capsys, command, generator, t):
        status, out, err = run_capture(capsys, command=command, generator=generator, t_values=[t])
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error: |t| <=")

    @pytest.mark.parametrize(
        "command, size",
        [("heisenberg", {"block": 0}), ("table", {"max_order": -1}),
         ("coeffs", {"max_order": -1}), ("table", {"max_order": 300})],
        ids=["heisenberg-block-0", "table-max-order-neg", "coeffs-max-order-neg", "table-max-order-300"],
    )
    def test_bad_size_exits_two(self, capsys, command, size):
        status, out, err = run_capture(capsys, command=command, t_values=[1.0], **size)
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error:")

    def test_unconverged_heisenberg_quadrature_exits_two(self, capsys):
        status, out, err = run_capture(
            capsys, command="heisenberg", generator="P", t_values=[16.0], block=1, tol=1e-16
        )
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error: Heisenberg quadrature did not reach")

    def test_l_max_below_tail_level_exits_two(self, capsys):
        status, out, err = run_capture(
            capsys, command="evolve", generator="P2", t_values=[0.3], k=2, l_max=6
        )
        assert status == 2
        assert out == ""
        assert err.startswith("configuration error: l_max=6 below the required tail level")


class TestDeterminism:
    def test_same_config_same_bytes(self, capsys):
        _, out1, _ = run_capture(capsys, command="coeffs", generator="P", t_values=[0.7], max_order=4)
        _, out2, _ = run_capture(capsys, command="coeffs", generator="P", t_values=[0.7], max_order=4)
        assert out1 == out2


class TestEntryPoint:
    def test_main_parses_and_runs(self, capsys):
        status = main(["char", "--generator", "P", "--t", "1.0"])
        out = capsys.readouterr().out
        assert status == 0
        assert "0.57672480775687351" in out
        assert within_ulps(float(out.splitlines()[1].split(",")[1]), J1_AT_2)

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        status = main(["char", "--generator", "P", "--t", "1.0", "--output", str(target)])
        assert status == 0
        assert target.read_text().splitlines()[0] == "t,re,im"

    def test_module_invocation(self):
        # -X importtime lists on stderr each module the process imports, the lazily loaded ones too
        for argv, header, modules in MODULE_RUNS:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "semicircleqm", *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, argv
            assert proc.stdout.splitlines()[0] == header
            loaded = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
            assert {name.split(".", 1)[1] for name in loaded if name.startswith("semicircleqm.")} == modules, argv
            if argv[0] == "char":
                assert proc.stdout.splitlines()[1] == "0,1,0"


@pytest.mark.slow
class TestVerifyCommand:
    def test_full_verify_passes(self, capsys):
        status, out, _ = run_capture(capsys, command="verify", t_values=[1.0], tol=1e-8, seed=0)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "module,check,residual,tolerance,status"
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_absurd_tolerance_fails(self, capsys):
        status, _, err = run_capture(capsys, command="verify", t_values=[1.0], tol=1e-17, seed=0)
        assert status == 1
        assert "FAILED" in err
