import csv
import json

import numpy as np
import pytest

from qcmd import cli


@pytest.fixture
def cos_config(tmp_path):
    path = tmp_path / "cos.json"
    path.write_text(json.dumps({"family": "scalar_cos", "params": {"a": 0.1},
                                "L": 2 * np.pi, "d": 1, "M": [256.0],
                                "T": 0.2, "K": 1.0}))
    return str(path)


@pytest.fixture
def gap_config(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"family": "two_level_gap", "params": {"delta": 0.25},
                                "L": 2 * np.pi, "d": 2, "M": [256.0],
                                "T": 0.1, "K": 1.0}))
    return str(path)


def read_csv(path):
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_model_list_and_show(capsys, cos_config):
    assert cli.main(["model", "list"]) == 0
    out = capsys.readouterr().out
    assert "scalar_cos" in out and "two_level_cross" in out
    assert cli.main(["model", "show", "--config", cos_config]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["family"] == "scalar_cos"


def test_spectrum_csv(tmp_path, gap_config):
    out = str(tmp_path / "spec.csv")
    assert cli.main(["spectrum", "--config", gap_config, "--grid", "64",
                     "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["X", "lambda_0", "lambda_1", "gap_1", "c", "kappa"]
    assert len(rows) == 64
    c = float(rows[0][4])
    assert abs(c - 0.5) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", ["0", "-3"])
def test_spectrum_rejects_grids_below_one_point(tmp_path, gap_config, capsys, grid):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", gap_config, f"--grid={grid}",
                     "--out", str(out)]) == 1
    assert "n >= 1 points" in capsys.readouterr().err
    assert not out.exists()


def test_run_trajectory_csv(tmp_path, gap_config):
    out = str(tmp_path / "traj.csv")
    code = cli.main(["run", "--config", gap_config, "--scheme", "ehrenfest",
                     "--M", "256", "--dt", "0.005", "--tfinal", "1.0",
                     "--seed", "1", "--energy", "0.5", "--out", out])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:5] == ["t", "X", "p", "H", "z"]
    assert "phi_re_0" in header and "phi_im_1" in header
    assert len(rows) == 201


def test_run_stochastic(tmp_path, cos_config):
    out = str(tmp_path / "lang.csv")
    assert cli.main(["run", "--config", cos_config, "--scheme", "langevin",
                     "--dt", "0.05", "--tfinal", "5.0", "--seed", "3",
                     "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "X", "p", "H", "z"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("option", [["--p0", "nan"], ["--p0=-inf"],
                                    ["--x0", "nan"], ["--x0", "inf"]])
def test_run_smoluchowski_rejects_nonfinite_start(tmp_path, gap_config, capsys, option):
    out = tmp_path / "smol.csv"
    assert cli.main(["run", "--config", gap_config, "--scheme", "smoluchowski",
                     "--dt", "0.05", "--tfinal", "1.0", "--out", str(out)] + option) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("option, name", [
    (["--dt", "0"], "dt"), (["--dt=-1e-3"], "dt"), (["--dt", "nan"], "dt"),
    (["--tfinal=-1"], "T_final"), (["--tfinal", "inf"], "T_final"),
    (["--M", "0"], "M >= 1"), (["--M", "0.5"], "M >= 1"),
    (["--M", "0", "--perp-correction"], "M >= 1")])
def test_run_ehrenfest_rejects_bad_step_inputs(tmp_path, gap_config, capsys, option, name):
    out = tmp_path / "traj.csv"
    # the option given last replaces the valid value before it
    assert cli.main(["run", "--config", gap_config, "--scheme", "ehrenfest",
                     "--M", "256", "--dt", "0.005", "--tfinal", "1.0",
                     "--energy", "0.5", "--out", str(out)] + option) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_wkb_csv(tmp_path, cos_config):
    out = str(tmp_path / "wkb.csv")
    assert cli.main(["wkb", "--config", cos_config, "--M", "256", "--k", "12",
                     "--ngrid", "128", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[:5] == ["X", "theta", "p", "G", "rho"]
    rho = np.array([float(r[4]) for r in rows])
    assert abs(rho.sum() * 2 * np.pi / 128 - 1.0) < 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option, message", [
    (["--ngrid", "0"], "n_grid must be >= 1"), (["--ngrid=-3"], "n_grid must be >= 1"),
    (["--M", "0"], "M must be finite and >= 1"), (["--M=-4"], "M must be finite and >= 1"),
    (["--M", "nan"], "M must be finite and >= 1"),
    (["--M", "inf"], "M must be finite and >= 1")])
def test_wkb_rejects_bad_inputs(tmp_path, cos_config, capsys, option, message):
    out = tmp_path / "wkb.csv"
    # the option given last replaces the valid value before it
    assert cli.main(["wkb", "--config", cos_config, "--M", "256", "--k", "12",
                     "--ngrid", "128", "--out", str(out)] + option) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_wkb_ehrenfest_turning_back_exits_two(tmp_path, capsys):
    config = tmp_path / "cross.json"
    config.write_text(json.dumps({"family": "two_level_cross", "d": 2}))
    out = tmp_path / "wkb.csv"
    assert cli.main(["wkb", "--config", str(config), "--M", "256", "--k", "34",
                     "--scheme", "ehrenfest", "--ngrid", "128", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "certificate failed" in err and "caustic" in err
    assert not out.exists()


def test_qref_csv(tmp_path, cos_config):
    out = str(tmp_path / "eig.csv")
    assert cli.main(["qref", "--config", cos_config, "--M", "64", "--ngrid", "128",
                     "--etarget", "0.8", "--count", "2", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[0] == "E" and header[1] == "residual"
    assert len(rows) == 2
    assert float(rows[0][1]) < 1e-8


@pytest.mark.parametrize("option, message", [
    (["--ngrid", "0"], "n_grid must be >= 1"), (["--ngrid=-3"], "n_grid must be >= 1"),
    (["--M", "0"], "M must be finite and >= 1"), (["--M=-5"], "M must be finite and >= 1"),
    (["--M", "inf"], "M must be finite and >= 1"), (["--M", "nan"], "M must be finite and >= 1"),
    (["--etarget", "nan"], "target energy must be finite"),
    (["--etarget", "inf"], "target energy must be finite"),
    (["--count", "129"], "exceeds the 128 levels"), (["--count", "0"], "count must be >= 1"),
    (["--emax", "inf"], "e_max must be finite and >= 0"),
    (["--emax", "nan"], "e_max must be finite and >= 0"),
    (["--emax=-1"], "e_max must be finite and >= 0")])
def test_qref_rejects_bad_inputs(tmp_path, cos_config, capsys, option, message):
    out = tmp_path / "eig.csv"
    # the option given last replaces the valid value before it
    assert cli.main(["qref", "--config", cos_config, "--M", "64", "--ngrid", "128",
                     "--etarget", "0.8", "--out", str(out)] + option) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_gibbs_json(tmp_path, gap_config):
    out = str(tmp_path / "gibbs.json")
    assert cli.main(["gibbs", "--config", gap_config, "--T", "0.1",
                     "--g", "cos(2*pi*X/L)", "--samples", "2000",
                     "--seed", "7", "--out", out]) == 0
    with open(out) as handle:
        report = json.loads(handle.read())
    for key in ("value", "value_plain", "kappa", "sigma", "seed"):
        assert key in report


def test_gibbs_expression_gives_the_numpy_lambda_json(tmp_path, gap_config, monkeypatch):
    argv = ["gibbs", "--config", gap_config, "--T", "0.1", "--g", "cos(2*pi*X/L)",
            "--samples", "2000", "--seed", "7", "--out"]
    out = tmp_path / "parsed.json"
    assert cli.main(argv + [str(out)]) == 0
    # the same observable as a plain numpy function, as eval used to build it
    monkeypatch.setattr(cli, "_parse_g", lambda expr, L: lambda X: np.cos(2 * np.pi * X / L))
    direct = tmp_path / "direct.json"
    assert cli.main(argv + [str(direct)]) == 0
    assert out.read_text() == direct.read_text()


@pytest.mark.parametrize("expr", ["np.savetxt('written.txt', X)", "__import__('os')",
                                  "X.__class__", "cos(X, 1)", "X // 2", "lambda: X",
                                  "cos(2*pi*X/L"])
def test_gibbs_rejects_expressions_outside_the_grammar(tmp_path, gap_config, capsys,
                                                       monkeypatch, expr):
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["gibbs", "--config", gap_config, "--T", "0.1", "--g", expr,
                     "--samples", "200", "--out", "gibbs.json"]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_gibbs_without_samples_exits_one(tmp_path, gap_config, capsys):
    out = tmp_path / "gibbs.json"
    assert cli.main(["gibbs", "--config", gap_config, "--T", "0.1", "--g", "cos(X)",
                     "--samples", "0", "--out", str(out)]) == 1
    assert "n_samples must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T", ["nan", "inf", "0", "-0.1"])
def test_gibbs_rejects_temperatures_that_are_not_finite_and_positive(tmp_path, gap_config,
                                                                     capsys, T):
    out = tmp_path / "gibbs.json"
    assert cli.main(["gibbs", "--config", gap_config, f"--T={T}", "--samples", "200",
                     "--out", str(out)]) == 1
    assert "finite T > 0" in capsys.readouterr().err
    assert not out.exists()


def test_expression_evaluator_matches_numpy():
    X = np.linspace(-3.0, 9.0, 37)
    g = cli._parse_g("exp(-X**2/2) + tanh(3*sin(X)) - 0.5*cos(2*X) / L + -pi", 2.5)
    expected = (np.exp(-X ** 2 / 2) + np.tanh(3 * np.sin(X)) - 0.5 * np.cos(2 * X) / 2.5
                + -np.pi)
    assert np.array_equal(g(X), expected)


def test_oscint_demo(tmp_path):
    out = str(tmp_path / "osc.csv")
    assert cli.main(["oscint", "--demo", "fresnel", "--M", "100,10000",
                     "--out", out]) == 0
    header, rows = read_csv(out)
    assert "abs_dev_from_closed_form" in header
    assert all(float(r[-1]) < 1e-8 for r in rows)


def test_converge_and_plotdata(tmp_path, gap_config):
    run = str(tmp_path / "run.json")
    assert cli.main(["converge", "--config", gap_config, "--scheme", "bo",
                     "--M", "64,256,1024", "--loops", "2", "--out", run]) == 0
    rates = str(tmp_path / "rates.csv")
    assert cli.main(["plotdata", run, "--out", rates]) == 0
    header, rows = read_csv(rates)
    assert header == ["M", "error", "fit"]
    assert len(rows) == 3


def test_converge_and_plotdata_with_two_masses(tmp_path, capsys, gap_config):
    run = str(tmp_path / "run.json")
    assert cli.main(["converge", "--config", gap_config, "--scheme", "bo",
                     "--M", "64,256", "--loops", "1", "--out", run]) == 0
    assert "no rate fitted (it needs at least 3 masses)" in capsys.readouterr().out
    rates = str(tmp_path / "rates.csv")
    assert cli.main(["plotdata", run, "--out", rates]) == 0
    header, rows = read_csv(rates)
    assert header == ["M", "error", "fit"]
    assert [row[0] for row in rows] == ["64.0", "256.0"]
    assert [row[2] for row in rows] == ["", ""]


def test_converge_rejects_a_nan_mass(tmp_path, capsys, gap_config):
    run = tmp_path / "run.json"
    assert cli.main(["converge", "--config", gap_config, "--scheme", "bo",
                     "--M", "nan,1024", "--out", str(run)]) == 1
    assert "mass M must be finite and >= 1, got nan" in capsys.readouterr().err
    assert not run.exists()


def test_failed_certificate_exit_code(tmp_path, cos_config):
    # an energy window forced below the barrier trips the caustic certificate
    out = str(tmp_path / "bad.csv")
    code = cli.main(["wkb", "--config", cos_config, "--M", "1e9", "--k", "1",
                     "--out", out])
    assert code != 0


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"family": "scalar_cos", "params": {"a": 0.1},
                                "d": 1, "temperature": 0.2}))
    assert cli.main(["model", "show", "--config", str(path)]) == 1
    assert "unknown config key(s) ['temperature']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("M", "[NaN]", "masses"), ("T", "NaN", "temperature"), ("K", "Infinity", "friction"),
    ("L", "NaN", "torus length")])
def test_nonfinite_config_value_exits_one(tmp_path, capsys, key, value, message):
    path = tmp_path / "nan.json"
    # json.dumps writes no NaN, so the value is spliced into the text as Python's
    # json module reads it
    text = json.dumps({"family": "two_level_gap", "params": {"delta": 0.25}, "d": 2,
                       key: "VALUE"})
    path.write_text(text.replace('"VALUE"', value))
    assert cli.main(["model", "show", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["model", "show"],
    ["model", "show", "--config", "missing.json"],
    ["spectrum", "--config", "missing.json", "--out", "spec.csv"],
    ["spectrum", "--config", "CONFIG", "--out", "no/such/dir/spec.csv"],
    ["plotdata", "missing.json", "--out", "rates.csv"],
    ["plotdata", "CONFIG", "--out", "rates.csv"],
    ["plotdata", "LIST", "--out", "rates.csv"],
])
def test_bad_files_and_missing_options_exit_one(tmp_path, cos_config, capsys, monkeypatch,
                                                argv):
    # CONFIG is a model config, not a run record; LIST is JSON but no object
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [{"CONFIG": cos_config, "LIST": "list.json"}.get(a, a) for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_plotdata_names_what_a_record_lacks(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"scheme": "bo", "alpha": 1.0}))
    assert cli.main(["plotdata", str(path), "--out", str(tmp_path / "rates.csv")]) == 1
    assert "run record lacks ['M_list', 'config'" in capsys.readouterr().err


def test_converge_rejects_zero_loops(tmp_path, gap_config, capsys):
    assert cli.main(["converge", "--config", gap_config, "--scheme", "bo", "--M", "64",
                     "--loops", "0", "--out", str(tmp_path / "run.json")]) == 1
    assert "n_loops must be >= 1" in capsys.readouterr().err
