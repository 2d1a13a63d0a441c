import numpy as np
import pytest

from cpscores import (
    DataError,
    ScoreMatrix,
    StructuralError,
    example_model,
    model_hash,
)
from cpscores.io import (
    format_corr,
    parse_model_file,
    read_data_csv,
    read_labeled_csv,
    read_scores_csv,
    write_matrix_csv,
    write_scores_csv,
)

GOOD_MODEL = """
# minimal two-plus-one factor model
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


def write(tmp_path, text, name="model.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseModelFile:
    def test_good_model_parses(self, tmp_path):
        m = parse_model_file(write(tmp_path, GOOD_MODEL))
        assert m.n_x == 4 and m.n_xi == 2 and m.n_y == 2 and m.n_eta == 1
        assert m.phi.values[0, 1] == pytest.approx(0.3)
        # gamma is stored row-per-endogenous-factor
        assert m.gamma.shape == (1, 2)
        assert m.gamma[0, 0] == pytest.approx(0.4)

    def test_bundled_example_matches_published_parameters(self, model):
        assert model.n_x == 15 and model.n_xi == 3
        assert model.n_y == 10 and model.n_eta == 2
        assert model.phi.values[0, 1] == pytest.approx(0.275)
        assert model.phi.values[0, 2] == pytest.approx(0.270)
        assert model.phi.values[1, 2] == pytest.approx(0.324)
        assert model.gamma[1, 2] == pytest.approx(0.447)
        assert model.eta_corr.values[0, 1] == pytest.approx(0.513)

    def test_missing_block_rejected(self, tmp_path):
        text = GOOD_MODEL.replace("[phi]\n1.0 0.3\n0.3 1.0\n", "")
        with pytest.raises(DataError, match=r"\[phi\]"):
            parse_model_file(write(tmp_path, text))

    def test_both_psi_and_eta_corr_rejected(self, tmp_path):
        text = GOOD_MODEL + "[psi]\n0.8\n"
        with pytest.raises(DataError, match="exactly one"):
            parse_model_file(write(tmp_path, text))

    def test_shape_mismatch_rejected(self, tmp_path):
        text = GOOD_MODEL.replace("0.0 0.75\n", "")
        with pytest.raises(DataError, match="shape"):
            parse_model_file(write(tmp_path, text))

    def test_non_numeric_token_rejected(self, tmp_path):
        text = GOOD_MODEL.replace("0.3 1.0", "0.3 oops")
        with pytest.raises(DataError, match="non-numeric"):
            parse_model_file(write(tmp_path, text))
        # line 9 is the first [lambda_x] row
        for token in ("nan", "inf", "-inf"):
            text = GOOD_MODEL.replace("0.8 0.0", f"0.8 {token}")
            with pytest.raises(DataError, match=r"line 9: non-finite .*\[lambda_x\]"):
                parse_model_file(write(tmp_path, text))

    def test_unknown_block_rejected(self, tmp_path):
        with pytest.raises(DataError, match="unknown block"):
            parse_model_file(write(tmp_path, GOOD_MODEL + "[extra]\n1.0\n"))

    def test_content_before_header_rejected(self, tmp_path):
        with pytest.raises(DataError, match="before any block"):
            parse_model_file(write(tmp_path, "1.0 2.0\n" + GOOD_MODEL))

    def test_invalid_parameters_rejected(self, tmp_path):
        # a loading above one implies a negative uniqueness
        text = GOOD_MODEL.replace("0.8 0.0", "1.4 0.0")
        with pytest.raises(DataError):
            parse_model_file(write(tmp_path, text))


class TestModelHash:
    def test_stable_and_short(self, model):
        h = model_hash(model)
        assert len(h) == 12
        assert h == model_hash(model)

    def test_differs_between_models(self, tmp_path, model):
        other = parse_model_file(write(tmp_path, GOOD_MODEL))
        assert model_hash(other) != model_hash(model)


class TestCsvRoundTrip:
    def test_values_round_trip_exactly(self, tmp_path, rng):
        values = rng.standard_normal((7, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ("a", "b", "c"), values)
        labels, back = read_labeled_csv(path)
        assert labels == ("a", "b", "c")
        assert np.array_equal(back, values)

    def test_scores_round_trip_with_blocks(self, tmp_path, model, rng):
        scores = ScoreMatrix(
            rng.standard_normal((5, 5)), model.factor_labels,
            model.factor_blocks, "test",
        )
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores)
        back = read_scores_csv(path, model, provenance="test")
        assert back.labels == scores.labels
        assert back.blocks == scores.blocks
        assert np.array_equal(back.values, scores.values)

    def test_case_id_column_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("case,a,b\n1,0.5,1.5\n2,2.5,3.5\n")
        data = read_data_csv(path)
        assert data.labels == ("a", "b")
        assert np.array_equal(data.values, [[0.5, 1.5], [2.5, 3.5]])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 3"):
            read_data_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            read_data_csv(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1.0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_data_csv(path)

    def test_unknown_score_column_rejected(self, tmp_path, model):
        path = tmp_path / "s.csv"
        path.write_text("nope\n1.0\n2.0\n")
        with pytest.raises(StructuralError, match="nope"):
            read_scores_csv(path, model)


class TestFormatCorr:
    def test_contains_labels_and_values(self, model):
        text = format_corr(model.phi)
        assert model.xi_labels[0] in text
        assert "0.275" in text


def test_example_model_loads_via_package_data():
    m = example_model()
    assert m.n_x == 15 and m.n_eta == 2
