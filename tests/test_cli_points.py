"""CLI point builders: every chart flag that a command needs is checked
before any point is built, with the same message and exit code."""

import pytest

from g2sew.cli import main


@pytest.mark.parametrize("argv, flag", [
    (["necklace", "--formalism", "eps", "--tau1", "i", "--tau2", "2i"],
     "--eps for --formalism eps"),
    (["necklace", "--formalism", "rho", "--tau", "i", "--w", "1+0.8i"],
     "--rho for --formalism rho"),
    (["equivariance", "--formalism", "eps", "--tau1", "i", "--eps", "0.1"],
     "--tau2 for --formalism eps"),
    (["equivariance", "--formalism", "rho", "--tau", "i", "--rho", "0.01"],
     "--w for --formalism rho"),
    (["sweep", "--over", "eps", "--start", "0.01", "--stop", "0.1", "--tau1", "i"],
     "--tau2 for --over eps"),
    (["sweep", "--over", "rho", "--start", "0.01", "--stop", "0.1", "--tau", "i"],
     "--w for --over rho")],
    ids=["necklace-eps", "necklace-rho", "equivariance-eps", "equivariance-rho",
         "sweep-eps", "sweep-rho"])
def test_missing_chart_flag_is_a_parse_error(capsys, argv, flag):
    assert main(argv) == 1
    assert f"missing required flag(s) {flag}" in capsys.readouterr().err
