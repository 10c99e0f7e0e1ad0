"""Exact text of every CSV writer and of the CLI's report lines.

The expected strings were produced by the hand-written writers these
replaced; any change to them changes every file acceptance criterion 10
holds bit-identical.
"""
import numpy as np

import graphminimax as gm
from graphminimax._text import csv_text, format_rows
from graphminimax.cli import _signal_csv_text, main

CERT_HEADER = (
    "n,beta,r,Q,N,M,delta,separation_min,sobolev_max,kl_budget,alpha,fano_bound,valid,seed\n"
)
# kl_budget, alpha and fano_bound come from the closed-form Bernoulli KL bound, which for
# the sigmoid (c = 1/4) is the Gaussian KL at sigma = 2: the two rows are the same text
CLF_CERT = (
    CERT_HEADER + "512,1,1,1,8,2,0.607001974974,0.0758752468717,0.999999998,"
    "0.245634265081,0.354375336105,0.230587164616,true,3\n"
)
REG_CERT = (
    CERT_HEADER + "512,1,1,1,8,2,0.36050672129,0.0450633401612,0.352733350108,"
    "0.346573589587,0.499999999,0.0849625017212,true,3\n"
)


def test_spectrum_text():
    s = gm.eigenvalues(gm.parse_graph_spec("path:4"))
    assert gm.spectrum_csv_text(s) == "j,lambda\n0,0\n1,0.585786437627\n2,2\n3,3.41421356237\n"


def test_certificate_text_with_integer_beta():
    s = gm.eigendecompose(gm.build_path(512))
    ball = gm.SobolevSpec(beta=1, Q=1.0, r=1.0)
    assert gm.certificate_csv_text(gm.fano_certificate(s, ball, gm.sigmoid_link(), 3)) == CLF_CERT
    assert gm.certificate_csv_text(gm.fano_certificate(s, ball, 1.0, 3)) == REG_CERT
    assert gm.certificate_csv_text(gm.fano_certificate(s, ball, 2.0, 3)) == CLF_CERT


def test_simulate_text():
    spec = gm.ExperimentSpec(
        family="path", n_values=(16, 32, 64), beta=1, Q=1.0, sigma=1.0,
        estimator="pinsker", reps=2, seed=7,
    )
    report = gm.run_experiment(spec)
    assert gm.results_csv_text(report) == (
        "family,n,beta,Q,sigma,r_used,estimator,rep,seed,risk\n"
        "path,16,1,1,1,1,pinsker,0,373774695227710623,0.0436265494307\n"
        "path,16,1,1,1,1,pinsker,1,8008372675937977445,0.0489045250676\n"
        "path,32,1,1,1,1,pinsker,0,17049459464353840455,0.00211318754982\n"
        "path,32,1,1,1,1,pinsker,1,17690959118469525720,0.00727716375818\n"
        "path,64,1,1,1,1,pinsker,0,1069612072804567563,0.0199805792878\n"
        "path,64,1,1,1,1,pinsker,1,9341588668505099506,0.0111610106016\n"
    )
    assert gm.aggregate_csv_text(report) == (
        "family,estimator,beta,r_used,slope,stderr,theory_slope\n"
        "path,pinsker,1,1,-0.785547671465,1.45211631436,-0.666666666667\n"
    )


def test_signal_text():
    values = np.array([0.1, -2.5e-13, 1 / 3, 1e20, -0.0, 123456789012345.0])
    assert _signal_csv_text(values, "f_hat") == (
        "i,f_hat\n0,0.1\n1,-2.5e-13\n2,0.333333333333\n3,1e+20\n4,-0\n5,1.23456789012e+14\n"
    )


def test_report_lines(tmp_path, capsys):
    out = tmp_path / "cert.csv"
    argv = ["fano", "--graph", "path:512", "--beta", "1", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "valid = true\nM = 2\nalpha = 0.354375336105\nfano_bound = 0.230587164616\n"
    )
    assert out.read_text() == CLF_CERT


def test_column_formats_come_from_the_first_row():
    rows = [("a", 1, 0.5, False, float("inf")), ("b", 2, 2.0, True, float("nan"))]
    assert csv_text("s,i,f,b,x", rows) == "s,i,f,b,x\na,1,0.5,false,inf\nb,2,2,true,nan\n"
    assert csv_text("j,lambda", []) == "j,lambda\n"
    assert format_rows([("alpha", np.float64(1 / 3))], sep=" = ") == ["alpha = 0.333333333333"]
