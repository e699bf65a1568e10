"""CLI: parsing, dispatch, exit codes, determinism, round trips."""

import json
import math

import pytest

from g2sew.cli import main, parse_complex
from g2sew.siegel import PeriodMatrix


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("i", 1j), ("-i", -1j), ("2i", 2j), ("1+2i", 1 + 2j),
        ("(1+2i)", 1 + 2j), ("0.5-0.25i", 0.5 - 0.25j), ("3", 3.0),
        ("1.5e-2", 0.015), ("2j", 2j), ("-1.25+0.5i", -1.25 + 0.5j),
    ])
    def test_accepts(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["xyz", "", "1+2k", "nan+1i"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCommands:
    def test_eisenstein(self, capsys):
        code, payload = run_json(capsys, ["eisenstein", "--k", "2", "--tau", "i"])
        assert code == 0
        assert payload["value"]["re"] == pytest.approx(-1 / (4 * math.pi))

    def test_period_eps_degenerate(self, capsys):
        code, payload = run_json(capsys, [
            "period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0"])
        assert code == 0
        assert payload["omega11"] == {"re": 0.0, "im": 1.0}
        assert payload["omega12"] == {"re": 0.0, "im": 0.0}
        assert payload["omega22"] == {"re": 0.0, "im": 2.0}

    def test_period_eps_leading_off_diagonal(self, capsys):
        code, payload = run_json(capsys, [
            "period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0.1",
            "--order", "12"])
        assert code == 0
        om12 = complex(payload["omega12"]["re"], payload["omega12"]["im"])
        assert abs(om12 - (-0.1) / (2j * math.pi)) < 1e-3
        assert payload["order"] == 12
        assert 0 < payload["margin"] < 1

    def test_period_rho_includes_branch(self, capsys):
        code, payload = run_json(capsys, [
            "period-rho", "--tau", "i", "--w", "1+0.8i", "--rho", "0.01",
            "--branch", "2"])
        assert code == 0
        assert payload["branch"] == 2

    def test_catalan_residuals(self, capsys):
        code, payload = run_json(capsys, ["catalan", "--chi", "0.05"])
        assert code == 0
        assert all(v < 1e-9 for v in payload["residuals"].values())

    def test_necklace_matches_period(self, capsys):
        code, p1 = run_json(capsys, [
            "necklace", "--formalism", "eps", "--tau1", "i", "--tau2", "2i",
            "--eps", "0.1", "--max-order", "8"])
        assert code == 0
        code, p2 = run_json(capsys, [
            "period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0.1"])
        assert abs(p1["omega11"]["im"] - p2["omega11"]["im"]) < 1e-10

    def test_invert_round_trip(self, capsys):
        code, om = run_json(capsys, [
            "period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0.1"])
        def fmt(key):
            re, im = om[key]["re"], om[key]["im"]
            return f"--{key}=({re}{im:+}i)"
        code, inv = run_json(capsys, [
            "invert", "--formalism", "eps",
            fmt("omega11"), fmt("omega12"), fmt("omega22")])
        assert code == 0
        assert abs(complex(inv["tau1"]["re"], inv["tau1"]["im"]) - 1j) < 1e-8
        assert abs(complex(inv["eps"]["re"], inv["eps"]["im"]) - 0.1) < 1e-8

    def test_invert_chi_round_trip(self, capsys):
        code, om = run_json(capsys, [
            "period-rho", "--tau", "i", "--w", "0.3", "--rho=-0.0045"])
        assert code == 0

        def fmt(key):
            return f"--{key}=({om[key]['re']}{om[key]['im']:+}i)"

        code, inv = run_json(capsys, [
            "invert", "--formalism", "chi",
            fmt("omega11"), fmt("omega12"), fmt("omega22")])
        assert code == 0
        assert abs(complex(inv["chi"]["re"], inv["chi"]["im"]) - 0.05) < 1e-7
        assert inv["residual"] < 1e-9

    def test_necklace_rho(self, capsys):
        code, p1 = run_json(capsys, [
            "necklace", "--formalism", "rho", "--tau", "i", "--w", "1+0.8i",
            "--rho", "0.01", "--max-order", "6"])
        assert code == 0
        code, p2 = run_json(capsys, [
            "period-rho", "--tau", "i", "--w", "1+0.8i", "--rho", "0.01"])
        assert abs(p1["omega22"]["im"] - p2["omega22"]["im"]) < 1e-9

    def test_equivariance_report(self, capsys):
        code, payload = run_json(capsys, [
            "equivariance", "--formalism", "eps", "--tau1", "i",
            "--tau2", "2i", "--eps", "0.2", "--order", "12"])
        assert code == 0
        assert set(payload["residuals"]) == {"T1", "S1", "T2", "S2", "beta"}
        assert max(payload["residuals"].values()) < 1e-8

    def test_appendix_series_text(self, capsys):
        code, payload = run_json(capsys, [
            "appendix-series", "--formalism", "eps", "--order", "4"])
        assert code == 0
        assert "F2*eps^2" in payload["text"]["omega11"]

    def test_map_rho_to_eps(self, capsys):
        code, payload = run_json(capsys, [
            "map-rho-to-eps", "--tau", "i", "--w", "0.05", "--chi", "0.05"])
        assert code == 0
        eps = complex(payload["eps"]["re"], payload["eps"]["im"])
        assert abs(eps / (-0.05 * math.sqrt(0.8)) - 1) < 1e-3


class TestExitCodes:
    def test_domain_rejection_is_2(self, capsys):
        assert main(["period-eps", "--tau1", "i", "--tau2", "i",
                     "--eps", "50"]) == 2

    def test_rho_domain_rejection_is_2(self, capsys):
        for w, rho in (("1+0.8i", "5"), ("0", "0.01")):  # too large; w on the lattice
            assert main(["period-rho", "--tau", "i", "--w", w, "--rho", rho]) == 2
            assert "outside D^rho" in capsys.readouterr().err

    def test_parse_error_is_1(self, capsys):
        assert main(["period-eps", "--tau1", "bogus", "--tau2", "i",
                     "--eps", "0.1"]) == 1

    def test_argparse_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["period-eps", "--tau1", "i"])  # missing required flags
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["invert", "--formalism", "eps", "--omega11", "1.0001i",
         "--omega12", "0.0159i", "--omega22", "2.0001i"],
        ["invert", "--formalism", "chi", "--omega11", "1.0001i",
         "--omega12", "0.0159i", "--omega22", "2.0001i"],
        ["map-rho-to-eps", "--tau", "i", "--w", "0.05", "--chi", "0.05"]],
        ids=["invert-eps", "invert-chi", "map-rho-to-eps"])
    def test_series_budget_reaches_the_solvers(self, capsys, argv):
        # one q-series term certifies nothing, as for period-eps
        assert main(argv + ["--max-terms", "1"]) == 3
        assert "not certified" in capsys.readouterr().err

    def test_tau_in_lower_half_plane_rejected(self, capsys):
        code = main(["eisenstein", "--k", "4", "--tau=-i"])
        assert code == 3 or code == 1  # InvalidArgument surfaces as SewingError


class TestDeterminismAndRoundTrip:
    def test_identical_config_identical_bytes(self, capsys):
        argv = ["period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0.1"]
        main(argv)
        a = capsys.readouterr().out
        main(argv)
        b = capsys.readouterr().out
        assert a == b

    def test_period_matrix_json_round_trip(self, capsys):
        _, payload = run_json(capsys, [
            "period-eps", "--tau1", "i", "--tau2", "2i", "--eps", "0.17"])
        om = PeriodMatrix.from_json_dict(payload)
        again = json.loads(json.dumps(om.to_json_dict()))
        assert PeriodMatrix.from_json_dict(again) == om

    def test_sweep_csv(self, capsys):
        code = main(["sweep", "--over", "eps", "--start", "0.01",
                     "--stop", "0.2", "--count", "4", "--tau1", "i",
                     "--tau2", "2i", "--order", "8"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("param_re,param_im,omega11_re")
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert first[-1] == "ok"

    def test_sweep_marks_out_of_domain(self, capsys):
        code = main(["sweep", "--over", "eps", "--start", "9.5",
                     "--stop", "10.5", "--count", "2", "--tau1", "i",
                     "--tau2", "i", "--order", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "out-of-domain" in out
