import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cpscores.io
from cpscores import (
    DataError,
    ScoreMatrix,
    StructuralError,
    example_model,
    model_hash,
)
from cpscores.io import (
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
        # scores of both blocks' factors, read back against the model
        scores = ScoreMatrix(
            rng.standard_normal((5, 5)), model.factor_labels, "test"
        )
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores)
        back = read_scores_csv(path, model)
        assert back.labels == scores.labels
        assert back.provenance == "file"
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

    def test_writer_rejects_non_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(StructuralError, match=r"2-d matrix.*\(3,\)"):
            write_matrix_csv(path, ("a", "b", "c"), np.zeros(3))
        assert not path.exists()

    def test_writer_rejects_zero_rows(self, tmp_path):
        # the header-only file it would write is refused by the reader
        path = tmp_path / "m.csv"
        with pytest.raises(DataError, match="no data rows"):
            write_matrix_csv(path, ("a", "b"), np.empty((0, 2)))
        assert not path.exists()

    def test_writer_rejects_duplicate_labels(self, tmp_path):
        # the reader would refuse the header
        path = tmp_path / "m.csv"
        with pytest.raises(DataError) as info:
            write_matrix_csv(path, ("a", "a"), np.ones((2, 2)))
        assert str(info.value) == f"{path}: duplicate label 'a'"
        assert not path.exists()

    @pytest.mark.parametrize("first", ["case", "ID", "Case_Id"])
    def test_writer_rejects_case_id_first_label(self, tmp_path, first):
        # the reader would drop that column as case ids and lose its data
        path = tmp_path / "m.csv"
        with pytest.raises(DataError) as info:
            write_matrix_csv(path, (first, "b"), [[1.0, 2.0]])
        assert str(info.value) == (
            f"{path}: first label {first!r} would be read back as a case-id "
            "column and dropped"
        )
        assert not path.exists()

    @pytest.mark.parametrize("labels, bad", [
        (("a", " a"), " a"),  # the reader would refuse 'a' as a duplicate
        (("a ", "b"), "a "),  # the reader would read back 'a'
        (("a", "b\t"), "b\t"),
    ])
    def test_writer_rejects_label_with_surrounding_whitespace(
            self, tmp_path, labels, bad):
        path = tmp_path / "m.csv"
        with pytest.raises(DataError) as info:
            write_matrix_csv(path, labels, [[1.0, 2.0]])
        assert str(info.value) == (
            f"{path}: label {bad!r} has surrounding whitespace, which the "
            "reader strips"
        )
        assert not path.exists()

    def test_case_id_label_after_the_first_round_trips(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ("a", "case"), [[1.0, 2.0]])
        labels, values = read_labeled_csv(path)
        assert labels == ("a", "case")
        assert values.tolist() == [[1.0, 2.0]]

    def test_writer_rejects_label_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(StructuralError) as info:
            write_matrix_csv(path, ("a", "b"), np.zeros((2, 3)))
        assert str(info.value) == f"{path}: 2 labels for 3 columns"
        assert not path.exists()

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_cell_named(self, tmp_path, token):
        path = tmp_path / "x.csv"
        path.write_text(f"id,a,b\n1,0.5,1.5\n\n2,2.5,{token}\n3,{token},1\n")
        with pytest.raises(DataError) as info:
            read_data_csv(path)
        value = float(token)
        assert str(info.value) == (
            f"{path}: non-finite value {value} in data row 2, column b"
        )

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_writer_refuses_non_finite(self, tmp_path, token):
        path = tmp_path / "m.csv"
        with pytest.raises(DataError) as info:
            write_matrix_csv(path, ("a", "b"), [[1.0, 2.0], [1.0, float(token)]])
        assert str(info.value) == (
            f"{path}: non-finite value {float(token)} in data row 2, column b"
        )
        assert not path.exists()

    @pytest.mark.parametrize("reader", [read_data_csv, read_scores_csv])
    def test_container_adopts_the_parsed_array(self, tmp_path, reader):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        parsed = []

        def parse(p):
            labels, values = read_labeled_csv(p)
            parsed.append(values)
            return labels, values

        with mock.patch.object(cpscores.io, "read_labeled_csv", parse):
            m = reader(path)
        assert m.values is parsed[0]
        assert not m.values.flags.writeable


# Each input gives the labels and values, or the DataError text, that the
# row-by-row reader of earlier versions gave.  The intended differences:
# ``float`` accepts ``_`` digit groups and non-ASCII digits, numpy's C
# reader does not.
READER_CONTRACT = [
    ("blank-lines", "a,b\n1,2\n\n3,4\n\n", (("a", "b"), [[1, 2], [3, 4]])),
    ("whitespace-lines", "a,b\n  \n1,2\n \t \r\n3,4\n   ",
     (("a", "b"), [[1, 2], [3, 4]])),
    ("crlf", "a,b\r\n1,2\r\n3,4\r\n", (("a", "b"), [[1, 2], [3, 4]])),
    ("cr", "a,b\r1,2\r\r3,4", (("a", "b"), [[1, 2], [3, 4]])),
    ("quoted-numbers", 'a,b\n"1.5","-2e3"\n3,"4"\n',
     (("a", "b"), [[1.5, -2000], [3, 4]])),
    ("padded-cells", " a , b \n 1.5 ,2  \n\t3, 4\n",
     (("a", "b"), [[1.5, 2], [3, 4]])),
    ("case-id", "Case,a,b\nA-1,1,2\n\"B,2\",3,4\n",
     (("a", "b"), [[1, 2], [3, 4]])),
    ("case-id-not-latin-1", "id,a\n\u65e5\u672c,1\n", (("a",), [[1]])),
    ("id-only", "id\n1\n", "no data columns in header"),
    ("ragged", "a,b\n1,2\n3\n", "line 3 has 1 cells, expected 2"),
    ("ragged-after-blanks", "a,b\n1,2\n\n  \n3,4,5\n",
     "line 5 has 3 cells, expected 2"),
    ("too-wide", "a,b\n1,2,3\n4,5,6\n", "line 2 has 3 cells, expected 2"),
    ("too-narrow", "a,b,c\n1,2\n4,5\n", "line 2 has 2 cells, expected 3"),
    ("case-id-narrow", "case,a\n1,2\n2\n", "line 3 has 0 cells, expected 1"),
    ("trailing-comma", "a,b\n1,2\n3,4,\n", "line 3 has 3 cells, expected 2"),
    ("empty-cell", "a,b\n1,2\n3,\n", "non-numeric cell on line 3"),
    ("text-cell", "a,b\n1,2\n\nx,4\n", "non-numeric cell on line 4"),
    ("header-only", "a,b\n", "no data rows"),
    ("header-then-blanks", "a,b\r\n\r\n  \n", "no data rows"),
    ("empty-file", "", "empty file"),
    ("no-final-newline", "a,b\n1,2\n3,4", (("a", "b"), [[1, 2], [3, 4]])),
    ("hex-float", "a\n1\n0x1p3\n", "non-numeric cell on line 3"),
    ("underscore-digits", "a\n1\n1_0\n", "non-numeric cell on line 3"),
    ("non-ascii-digits", "a\n1\n\u0661\n", "non-numeric cell on line 3"),
]


@pytest.mark.parametrize(
    "text, expected", [pytest.param(t, e, id=name) for name, t, e in READER_CONTRACT]
)
def test_reader_contract(tmp_path, text, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            read_labeled_csv(path)
        assert str(info.value) == f"{path}: {expected}"
    else:
        labels, values = read_labeled_csv(path)
        assert labels == expected[0]
        assert values.dtype == np.float64
        assert np.array_equal(values, expected[1])


def _per_cell_csv(labels, values) -> bytes:
    """The writer of earlier versions: ``csv.writer`` with one 17-digit
    f-string per cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(labels)
    for row in values:
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue().encode()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-310, 1.7e308, -1.7e308, np.finfo(float).max]
finite_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)


@settings(max_examples=150, deadline=None)
@given(values=finite_matrices, chunk_cells=st.integers(1, 40))
def test_writer_bytes_and_round_trip(values, chunk_cells):
    labels = tuple(f"v{j}" for j in range(values.shape[1]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cpscores.io, "_WRITE_CHUNK_CELLS", chunk_cells):
        path = Path(tmp) / "m.csv"
        write_matrix_csv(path, labels, values)
        assert path.read_bytes() == _per_cell_csv(labels, values)
        back_labels, back = read_labeled_csv(path)
    assert back_labels == labels
    assert back.tobytes() == values.tobytes()


def test_example_model_loads_via_package_data():
    m = example_model()
    assert m.n_x == 15 and m.n_eta == 2
