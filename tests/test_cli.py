import json
import subprocess
import sys

import numpy as np
import pytest

from semicircleqm import evolution, oracle
from semicircleqm.cli import OutputFormat, RunConfig, main, run
from semicircleqm.fock import build_creation, build_momentum


# the (subcommand, flag) pairs of the flags each subcommand takes but does not read
UNREAD_FLAGS = [
    *(("coeffs", flag) for flag in ("--k", "--l-max", "--tol", "--omega", "--seed")),
    ("evolve", "--seed"),
    *(("char", flag) for flag in ("--l-max", "--tol", "--seed")),
    *(("heisenberg", flag) for flag in ("--k", "--l-max", "--seed")),
    *(("verify", flag) for flag in ("--generator", "--t", "--k", "--l-max", "--omega")),
    *(("table", flag) for flag in ("--generator", "--t", "--k", "--l-max", "--tol", "--omega", "--seed")),
]


def run_capture(capsys, **kwargs):
    status = run(RunConfig(**kwargs))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestChar:
    def test_momentum_row(self, capsys):
        status, out, _ = run_capture(capsys, command="char", generator="P", t_values=[1.0])
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        assert lines[1] == "1,0.5767248077568734,0"

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
        dim = oracle.truncation_level(t, got.size, 1e-10, generator="P2")
        p = build_momentum(dim)
        mat, _, _ = oracle.expm_matrix(p @ p, 1j * t)
        assert np.max(np.abs(got - mat[: got.size, 2])) <= 1e-9


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
        assert payload["rows"][0]["re"] == 0.5767248077568734


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

    def test_rejects_harmonic(self, capsys):
        status, _, err = run_capture(capsys, command="coeffs", generator="H1", t_values=[0.5])
        assert status == 2


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
        dim = oracle.truncation_level(t, 2, 1e-10, generator="P2")
        p = build_momentum(dim)
        u, _, _ = oracle.expm_matrix(p @ p, 1j * t)
        ap = build_creation(dim)
        conj = u @ ap @ u.conj().T - ap
        assert np.max(np.abs(got - conj[:2, :2])) <= 1e-8

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
        assert "0.5767248077568734" in out

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        status = main(["char", "--generator", "P", "--t", "1.0", "--output", str(target)])
        assert status == 0
        assert target.read_text().splitlines()[0] == "t,re,im"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semicircleqm", "char", "--generator", "P", "--t", "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[1] == "0,1,0"


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
