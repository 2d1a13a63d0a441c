import numpy as np
import pytest

from cpscores import combined_factor_corr, sample_corr
from cpscores.cli import main
from cpscores.io import read_labeled_csv, read_scores_csv, write_matrix_csv

MODEL_TEXT = """
[dimensions]
n_x 4
n_xi 2
n_y 2
n_eta 1
[lambda_x]
0.8 0.0
0.7 0.0
0.0 0.6
0.0 0.75
[phi]
1.0 0.3
0.3 1.0
[lambda_y]
0.7
0.65
[gamma]
0.4
0.2
[eta_corr]
1.0
"""


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


@pytest.fixture()
def simulated(tmp_path, model_file):
    x_path = str(tmp_path / "x.csv")
    y_path = str(tmp_path / "y.csv")
    code = main([
        "simulate", model_file, "--n", "400", "--seed", "7",
        "--out-x", x_path, "--out-y", y_path,
    ])
    assert code == 0
    return x_path, y_path


class TestValidate:
    def test_good_model_exits_zero(self, model_file, capsys):
        assert main(["validate", model_file]) == 0
        out = capsys.readouterr().out
        assert "model hash" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_model_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(MODEL_TEXT.replace("0.8 0.0", "1.4 0.0"))
        assert main(["validate", str(bad)]) == 2

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2


class TestSimulate:
    def test_writes_both_files(self, simulated):
        x_path, y_path = simulated
        x = np.loadtxt(x_path, delimiter=",", skiprows=1)
        y = np.loadtxt(y_path, delimiter=",", skiprows=1)
        assert x.shape == (400, 4)
        assert y.shape == (400, 2)

    def test_same_seed_same_data(self, tmp_path, model_file, simulated):
        x2 = str(tmp_path / "x2.csv")
        y2 = str(tmp_path / "y2.csv")
        assert main([
            "simulate", model_file, "--n", "400", "--seed", "7",
            "--out-x", x2, "--out-y", y2,
        ]) == 0
        a = np.loadtxt(simulated[0], delimiter=",", skiprows=1)
        b = np.loadtxt(x2, delimiter=",", skiprows=1)
        assert np.array_equal(a, b)

    def test_optional_factor_output(self, tmp_path, model_file):
        f_path = str(tmp_path / "f.csv")
        assert main([
            "simulate", model_file, "--n", "50", "--seed", "1",
            "--out-x", str(tmp_path / "sx.csv"),
            "--out-y", str(tmp_path / "sy.csv"),
            "--out-factors", f_path,
        ]) == 0
        f = np.loadtxt(f_path, delimiter=",", skiprows=1)
        assert f.shape == (50, 3)


class TestScores:
    def test_regression_joint(self, tmp_path, model_file, simulated):
        out = str(tmp_path / "s.csv")
        assert main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", out,
        ]) == 0
        scores = read_scores_csv(out)
        assert scores.values.shape == (400, 3)

    def test_takeuchi_scores_have_unit_covariance(
        self, tmp_path, model_file, simulated
    ):
        out = str(tmp_path / "s.csv")
        assert main([
            "scores", model_file, "--x", simulated[0],
            "--method", "takeuchi", "--out", out,
        ]) == 0
        scores = read_scores_csv(out)
        assert scores.values.shape == (400, 2)

    def test_cp_params_scores_match_phi(self, tmp_path, model_file, simulated):
        out = str(tmp_path / "s.csv")
        assert main([
            "scores", model_file, "--x", simulated[0],
            "--method", "cp-params", "--out", out,
        ]) == 0
        scores = read_scores_csv(out)
        r = sample_corr(scores).values
        assert r[0, 1] == pytest.approx(0.3, abs=0.1)


class TestTransform:
    def test_joint_transform_restores_model_corr(
        self, tmp_path, model_file, simulated
    ):
        raw = str(tmp_path / "raw.csv")
        assert main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", raw,
        ]) == 0
        out = str(tmp_path / "cp.csv")
        assert main([
            "transform", model_file, "--scores", raw, "--out", out,
        ]) == 0
        from cpscores.io import parse_model_file

        model = parse_model_file(model_file)
        cp = read_scores_csv(out, model)
        c = combined_factor_corr(model).values
        assert np.max(np.abs(sample_corr(cp).values - c)) < 1e-10

    def test_label_mismatch_exits_two(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("xi1\n0.5\n-0.5\n1.5\n")
        assert main([
            "transform", model_file, "--scores", str(bad),
            "--out", str(tmp_path / "o.csv"),
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestDeterminacy:
    def test_reports_both_blocks(self, tmp_path, model_file, simulated, capsys):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", raw,
        ])
        capsys.readouterr()
        assert main([
            "determinacy", model_file, "--scores", raw,
            "--x", simulated[0], "--y", simulated[1],
        ]) == 0
        out = capsys.readouterr().out
        assert "exogenous" in out and "endogenous" in out

    def test_missing_indicator_file_exits_two(
        self, tmp_path, model_file, simulated, capsys
    ):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", raw,
        ])
        assert main(["determinacy", model_file, "--scores", raw]) == 2

    def test_missing_score_column_exits_two(
        self, tmp_path, model_file, simulated, capsys
    ):
        partial = tmp_path / "partial.csv"
        partial.write_text("xi1,eta1\n0.5,0.1\n-0.5,0.3\n1.5,-0.2\n")
        assert main([
            "determinacy", model_file, "--scores", str(partial),
            "--x", simulated[0], "--y", simulated[1],
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "xi2" in err

    def test_constant_score_column_exits_two(
        self, tmp_path, model_file, simulated, capsys
    ):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--method",
            "regression", "--out", raw,
        ])
        labels, values = read_labeled_csv(raw)
        values[:, 1] = 0.1
        write_matrix_csv(raw, labels, values)
        capsys.readouterr()
        assert main([
            "determinacy", model_file, "--scores", raw, "--x", simulated[0],
        ]) == 2
        err = capsys.readouterr().err
        assert "error: constant column 'xi2'" in err

    def test_appendix_compat_is_flagged(
        self, tmp_path, model_file, simulated, capsys
    ):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", raw,
        ])
        capsys.readouterr()
        assert main([
            "determinacy", model_file, "--scores", raw,
            "--x", simulated[0], "--y", simulated[1], "--appendix-compat",
        ]) == 0
        out = capsys.readouterr().out
        assert "variance-normalized" in out


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_small_sample_reports_failure_code(self, capsys):
        # a 50-case run cannot hit the reference bands
        assert main(["verify", "--seed", "3", "--n", "50"]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
