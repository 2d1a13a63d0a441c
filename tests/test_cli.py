import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cpscores import cli
from cpscores.cli import main
from cpscores.io import read_labeled_csv, read_scores_csv, write_matrix_csv
from cpscores.model import combined_factor_corr

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

# one xi with paths 0.9 to two etas of implied correlation I: psi has the
# eigenvalue -0.62
PSI_INDEFINITE_TEXT = """
[dimensions]
n_x 2
n_xi 1
n_y 4
n_eta 2
[lambda_x]
0.7
0.6
[phi]
1.0
[lambda_y]
0.7 0.0
0.6 0.0
0.0 0.7
0.0 0.6
[gamma]
0.9 0.9
[eta_corr]
1.0 0.0
0.0 1.0
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


def reversed_columns(tmp_path, path):
    """A copy of the CSV at ``path`` with its columns and header reversed."""
    labels, values = read_labeled_csv(path)
    out = str(tmp_path / "reversed.csv")
    write_matrix_csv(out, labels[::-1], values[:, ::-1])
    return out


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

    def test_indefinite_psi_exits_two(self, tmp_path, capsys):
        # phi and the implied eta correlation (the identity) are positive
        # definite; psi and so the combined correlation are not
        bad = tmp_path / "psi.txt"
        bad.write_text(PSI_INDEFINITE_TEXT)
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "combined factor correlation not positive definite " \
            "(smallest eigenvalue -2.728e-01)" in err

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2


def fresh_process(argv, stdin=None, module="cpscores.cli"):
    """Exit code, stdout and stderr of ``argv`` run by a new interpreter
    as ``python -m module``, as text; as bytes when ``stdin`` is bytes to
    pipe to it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          input=stdin, capture_output=True, text=stdin is None,
                          env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_built_once_answers_as_a_fresh_process(
        model_file, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    cli._build_parser.cache_clear()
    usage_error = ["scores", model_file, "--x", "x.csv", "--method", "pca",
                   "--out", "s.csv"]
    for argv in (usage_error, ["--help"], ["validate", model_file],
                 usage_error):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh_process(argv), argv
    assert cli._build_parser.cache_info().misses == 1


def test_python_m_cpscores_runs_the_cli(capsys):
    example = str(resources.files("cpscores") / "data" / "example.model")
    assert main(["validate", example]) == 0
    out, err = capsys.readouterr()
    assert fresh_process(["validate", example], module="cpscores") == (0, out, err)
    assert "cpscores.__main__" not in sys.modules


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

    def test_negative_seed_exits_two_naming_it(self, tmp_path, model_file, capsys):
        x_path = tmp_path / "x.csv"
        assert main([
            "simulate", model_file, "--n", "10", "--seed", "-1",
            "--out-x", str(x_path), "--out-y", str(tmp_path / "y.csv"),
        ]) == 2
        assert "error: seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert not x_path.exists()

    @pytest.mark.parametrize("x, y, factors, flags, second", [
        ("s.csv", "s.csv", None, "--out-x and --out-y", "s.csv"),
        ("x.csv", "s.csv", "link.csv", "--out-y and --out-factors", "link.csv"),
        ("link.csv", "y.csv", "s.csv", "--out-x and --out-factors", "s.csv"),
        ("model.txt", "y.csv", None, "the model file and --out-x", "model.txt"),
    ], ids=["x-y", "y-factors-by-link", "x-factors-by-link", "x-model"])
    def test_two_outputs_to_one_file_exit_two(self, tmp_path, model_file, capsys,
                                              x, y, factors, flags, second):
        # the second write would keep only the last output; a write to the
        # model file would lose the model
        (tmp_path / "link.csv").symlink_to(tmp_path / "s.csv")
        model_bytes = Path(model_file).read_bytes()
        argv = ["simulate", model_file, "--n", "10", "--seed", "1",
                "--out-x", str(tmp_path / x), "--out-y", str(tmp_path / y)]
        if factors is not None:
            argv += ["--out-factors", str(tmp_path / factors)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {flags} name the same file {tmp_path / second}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "model.txt"]
        assert not (tmp_path / "link.csv").exists()  # still dangling
        assert Path(model_file).read_bytes() == model_bytes


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
        r = np.corrcoef(scores.values, rowvar=False)
        assert r[0, 1] == pytest.approx(0.3, abs=0.1)

    @pytest.mark.parametrize("method", ["takeuchi", "cp-params"])
    def test_y_refused_outside_regression(
        self, tmp_path, model_file, simulated, capsys, method
    ):
        out = tmp_path / "s.csv"
        assert main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", method, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--y" in err
        assert not out.exists()

    def test_reversed_indicator_file_exits_two(
        self, tmp_path, model_file, simulated, capsys
    ):
        out = tmp_path / "s.csv"
        assert main([
            "scores", model_file, "--x", reversed_columns(tmp_path, simulated[0]),
            "--method", "regression", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "indicator data column 1 is 'x4', the model's indicator 1 is 'x1'" in err
        assert not out.exists()

    def test_other_indicator_labels_match_by_position(
        self, tmp_path, model_file, simulated
    ):
        labels, values = read_labeled_csv(simulated[0])
        items = str(tmp_path / "items.csv")
        write_matrix_csv(items, [f"item{i + 1}" for i in range(len(labels))], values)
        out, want = str(tmp_path / "s.csv"), str(tmp_path / "want.csv")
        for path, dest in ((items, out), (simulated[0], want)):
            assert main([
                "scores", model_file, "--x", path, "--method", "regression",
                "--out", dest,
            ]) == 0
        assert np.array_equal(read_scores_csv(out).values, read_scores_csv(want).values)


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
        assert np.max(np.abs(np.corrcoef(cp.values, rowvar=False) - c)) < 1e-10

    def test_too_few_cases_exit_two_naming_the_matrix(
        self, tmp_path, model_file, capsys
    ):
        # 3 cases of 3 joint scores: their sample correlation is singular
        x, y = str(tmp_path / "x3.csv"), str(tmp_path / "y3.csv")
        raw = str(tmp_path / "raw3.csv")
        assert main(["simulate", model_file, "--n", "3", "--seed", "1",
                     "--out-x", x, "--out-y", y]) == 0
        assert main(["scores", model_file, "--x", x, "--y", y,
                     "--method", "regression", "--out", raw]) == 0
        capsys.readouterr()
        assert main(["transform", model_file, "--scores", raw,
                     "--out", str(tmp_path / "cp3.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: sample correlation of the scores (xi1, xi2, eta1) not "
            "positive definite (smallest eigenvalue ")

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

    def test_endogenous_columns_alone_need_only_y(
        self, tmp_path, model_file, simulated, capsys
    ):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--y", simulated[1],
            "--method", "regression", "--out", raw,
        ])
        labels, values = read_labeled_csv(raw)
        eta = str(tmp_path / "eta.csv")
        write_matrix_csv(eta, labels[2:], values[:, 2:])
        capsys.readouterr()
        assert main([
            "determinacy", model_file, "--scores", eta, "--y", simulated[1],
        ]) == 0
        out = capsys.readouterr().out
        assert "determinacy[endogenous; file]: eta1=" in out
        assert "exogenous" not in out

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

    def test_swapped_indicator_files_exit_two(
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
            "--x", simulated[1], "--y", simulated[0],
        ]) == 2
        err = capsys.readouterr().err
        assert "error: exogenous determinacy" in err
        assert "2 columns, expected 400 x 4" in err

    def test_reversed_indicator_file_exits_two(
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
            "--x", reversed_columns(tmp_path, simulated[0]), "--y", simulated[1],
        ]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: exogenous determinacy: indicator data column 1 is 'x4', "
            "the model's indicator 1 is 'x1'\n"
        )

    def test_constant_indicator_column_exits_two(
        self, tmp_path, model_file, simulated, capsys
    ):
        raw = str(tmp_path / "raw.csv")
        main([
            "scores", model_file, "--x", simulated[0], "--method",
            "regression", "--out", raw,
        ])
        labels, values = read_labeled_csv(simulated[0])
        values[:, 2] = 0.5
        const = str(tmp_path / "const.csv")
        write_matrix_csv(const, labels, values)
        capsys.readouterr()
        assert main([
            "determinacy", model_file, "--scores", raw, "--x", const,
        ]) == 2
        err = capsys.readouterr().err
        assert "error: constant column 'x3'" in err

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

    def test_example_chain_flags_eta1_above_one(self, tmp_path, capsys):
        # the block-wise estimator on the transform of joint scores reads
        # eta1 above 1; the sd-normalized line says so, unclipped, and the
        # variance-normalized line, not a correlation, does not
        model = str(resources.files("cpscores").joinpath("data/example.model"))
        x, y, pv, cp = (str(tmp_path / f) for f in ("x.csv", "y.csv", "pv.csv", "cp.csv"))
        for argv in (
            ["simulate", model, "--n", "2000", "--seed", "1", "--out-x", x, "--out-y", y],
            ["scores", model, "--x", x, "--y", y, "--method", "regression", "--out", pv],
            ["transform", model, "--scores", pv, "--out", cp],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        determinacy = ["determinacy", model, "--scores", cp, "--x", x, "--y", y]
        assert main(determinacy) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "determinacy[exogenous; file]: xi1=0.949, xi2=0.963, xi3=0.951",
            "determinacy[endogenous; file]: eta1=1.008, eta2=0.810  (above 1: eta1)",
        ]
        assert main(determinacy + ["--appendix-compat"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == ("determinacy[endogenous-variance-normalized; file]: "
                        "eta1=1.008, eta2=0.810")


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

    def test_negative_seed_exits_two_naming_it(self, capsys):
        # exit 1 is a run that fails its checks; a bad seed is an input error
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: seed must be a non-negative integer, got -1" in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_bytes_not_utf8_exit_two_naming_file_and_line(tmp_path):
    # a model file and a CSV, by path and through a pipe
    example = resources.files("cpscores") / "data" / "example.model"
    text = example.read_bytes()
    model = tmp_path / "latin1.model"
    model.write_bytes(text.replace(b" 0.750 ", b" 0.75\xe9 ", 1))
    lineno = text[:text.index(b" 0.750 ")].count(b"\n") + 1
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"a,b\r\n1,2\r\n\xe9,4\r\n")
    scores = ["scores", str(example), "--method", "regression",
              "--out", str(tmp_path / "s.csv"), "--x"]
    for argv, stdin, want in (
            (["validate", str(model)], b"", f"{model}: line {lineno}"),
            (scores + [str(csv)], b"", f"{csv}: line 3"),
            (scores + ["/dev/stdin"], csv.read_bytes(), "/dev/stdin: line 3")):
        code, _, err = fresh_process(argv, stdin)
        assert code == 2, err
        assert err.decode() == f"error: {want}: bytes that are not UTF-8 text\n"
