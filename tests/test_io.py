import csv
import errno
import hashlib
import io
import itertools
import os
import stat
import subprocess
import sys
import tempfile
import threading
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cpscores.io
from cpscores import (
    Block,
    DataError,
    ScoreMatrix,
    StructuralError,
    example_model,
    model_hash,
)
from cpscores.containers import _kept
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


@pytest.fixture
def model_memo(monkeypatch):
    """No kept model for the test; the process's own is put back after
    it."""
    monkeypatch.setattr(cpscores.io, "_last_model", None)


def model_variant(tmp_path, i):
    """A valid model file whose phi correlation is ``0.3i``, for ``i`` < 10."""
    return write(tmp_path, GOOD_MODEL.replace("1.0 0.3\n0.3 1.0",
                                              f"1.0 0.3{i}\n0.3{i} 1.0"),
                 f"model{i}.txt")


@pytest.mark.usefixtures("model_memo")
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

    @pytest.mark.parametrize("lines", ["n_x 4\nn_x 5\n", "n_x 5\nn_x 4\n"],
                             ids=["declared-first", "declared-last"])
    def test_repeated_dimension_key_rejected(self, tmp_path, lines):
        # the repeat is refused naming both lines, whether the value that
        # fits the blocks (n_x 4) comes first or last
        text = GOOD_MODEL.replace("n_x 4\n", lines)
        with pytest.raises(DataError) as info:
            parse_model_file(write(tmp_path, text))
        assert str(info.value) == (
            "line 5: n_x repeated in [dimensions], first given on line 4")

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

    def test_byte_order_mark_accepted(self, tmp_path):
        plain = parse_model_file(write(tmp_path, GOOD_MODEL))
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD_MODEL.encode())
        marked = parse_model_file(path)
        assert model_hash(marked) == model_hash(plain)

    def test_same_bytes_give_one_model_fitted_once(self, tmp_path, monkeypatch):
        computed = []
        original = Block.weights.__wrapped__

        def weights(block):
            computed.append(block.name)
            return original(block)

        monkeypatch.setattr(Block, "weights", _kept(weights))
        path = write(tmp_path, GOOD_MODEL)
        first = parse_model_file(path)
        again = parse_model_file(path)
        assert again is first
        assert first.joint.weights() is again.joint.weights()
        assert computed.count("joint") == 1

    def test_same_size_rewrite_with_old_mtime_parses_again(self, tmp_path):
        path = write(tmp_path, GOOD_MODEL)
        first = parse_model_file(path)
        before = os.stat(path)
        path.write_text(GOOD_MODEL.replace("0.8 0.0", "0.7 0.0"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                      before.st_mtime_ns)
        second = parse_model_file(path)
        assert second is not first
        assert first.lambda_x[0, 0] == 0.8 and second.lambda_x[0, 0] == 0.7

    def test_paths_with_the_same_bytes_share_a_model(self, tmp_path):
        one = parse_model_file(write(tmp_path, GOOD_MODEL, "one.txt"))
        two = parse_model_file(write(tmp_path, GOOD_MODEL, "two.txt"))
        assert one is two

    @pytest.mark.parametrize("edit, message", [
        (("[phi]\n1.0 0.3\n0.3 1.0\n", ""), "missing block [phi]"),
        (("0.8 0.0", "1.4 0.0"), "negative implied uniqueness"),
    ], ids=["parse", "validation"])
    def test_refused_file_names_its_path_every_time(self, tmp_path, edit,
                                                    message):
        text = GOOD_MODEL.replace(*edit)
        for name in ("a.txt", "b.txt", "a.txt", "b.txt"):
            path = write(tmp_path, text, name)
            with pytest.raises(DataError) as info:
                parse_model_file(path)
            assert str(info.value).startswith(f"{path}: ")
            assert message in str(info.value)
        assert cpscores.io._last_model is None

    @pytest.mark.parametrize("encode", [
        lambda t: t.replace("\n", "\r\n").encode(),
        lambda t: t.replace("\n", "\r").encode(),
        lambda t: b"\xef\xbb\xbf" + t.encode(),
        lambda t: b"\xef\xbb\xbf" + t.replace("\n", "\r\n").encode(),
    ], ids=["crlf", "cr", "bom", "bom-crlf"])
    @pytest.mark.parametrize("edit", [
        ("0.3 1.0", "0.3 oops"), ("n_x 4\n", "n_x 4\nn_x 4\n"),
        ("0.0 0.75\n", "0.0 0.75 0.1\n"), ("\n[phi]", "\n[extra]"),
    ], ids=["token", "repeated-key", "ragged", "unknown-block"])
    def test_line_ends_and_mark_name_the_lines_an_lf_file_does(
            self, tmp_path, encode, edit):
        text = GOOD_MODEL.replace(*edit)
        with pytest.raises(DataError) as lf:
            parse_model_file(write(tmp_path, text))
        assert str(lf.value).startswith("line ")
        path = tmp_path / "other.txt"
        path.write_bytes(encode(text))
        with pytest.raises(DataError) as other:
            parse_model_file(path)
        assert str(other.value) == str(lf.value)

    def test_threads_get_the_model_of_the_bytes_they_read(self, tmp_path):
        # more threads than cores, switching as often as the interpreter
        # can, each reading three contents in turn: every call returns the
        # model of the bytes it read, and the model kept is that of the
        # bytes kept with it
        paths = [model_variant(tmp_path, i) for i in range(3)]
        barrier = threading.Barrier(4)
        errors = []

        def work(i):
            try:
                barrier.wait()
                for j in range(30):
                    k = (i + j) % len(paths)
                    model = parse_model_file(paths[k])
                    assert model.phi.values[0, 1] == float(f"0.3{k}")
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        data, kept = cpscores.io._last_model
        fresh = cpscores.io._parse_model_bytes("kept", data)
        assert model_hash(kept) == model_hash(fresh)

    def test_only_line_ends_end_a_line(self, tmp_path):
        # a form feed, a vertical tab and the file and group separators end
        # a line for str.splitlines, not for a text file
        text = GOOD_MODEL.replace(
            "[dimensions]", "# a \f b \v c \x1c d \x1d e \x1e f\n[dimensions]"
        ).replace("0.3 1.0", "0.3 oops")
        with pytest.raises(DataError) as info:
            parse_model_file(write(tmp_path, text))
        assert str(info.value) == "line 16: non-numeric token in [phi]"

    def test_only_the_last_content_is_kept(self, tmp_path):
        one, two = model_variant(tmp_path, 1), model_variant(tmp_path, 2)
        first = parse_model_file(one)
        assert parse_model_file(two) is not first
        again = parse_model_file(one)
        assert again is not first
        assert parse_model_file(one) is again

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_model_longer_than_the_first_read(self, tmp_path, end):
        # padded with comments so that the first read ends at each byte of
        # a line, a two-byte character included
        plain = model_hash(parse_model_file(write(tmp_path, GOOD_MODEL)))
        pad = "# p\u00e4dding\n" * (cpscores.io._MODEL_HEAD // 10)
        path = tmp_path / "long.txt"
        for k in range(12):
            text = "#" * k + "\n" + pad + GOOD_MODEL
            path.write_bytes(text.replace("\n", end).encode())
            assert model_hash(parse_model_file(path)) == plain
            bad = text.replace("0.3 1.0", "0.3 oops")
            path.write_bytes(bad.replace("\n", end).encode())
            lineno = bad[:bad.index("oops")].count("\n") + 1
            with pytest.raises(DataError) as info:
                parse_model_file(path)
            assert str(info.value) == f"line {lineno}: non-numeric token in [phi]"

    @pytest.mark.parametrize("long", [False, True], ids=["short", "long"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_bytes_not_utf8_name_the_file_and_line(self, tmp_path, end, long):
        # a long file's bad byte comes after its first read
        pad = "# padding\n" * (cpscores.io._MODEL_HEAD // 10) if long else ""
        text = pad + GOOD_MODEL.replace("0.3 1.0", "0.3 1.\0")
        lineno = text[:text.index("\0")].count("\n") + 1
        path = tmp_path / "latin1.txt"
        path.write_bytes(text.replace("\n", end).encode().replace(b"\0", b"\xe9"))
        with pytest.raises(DataError) as info:
            parse_model_file(path)
        assert str(info.value) == f"{path}: line {lineno}: bytes that are not UTF-8 text"

    def test_bytes_not_utf8_after_an_earlier_error_are_not_named(self, tmp_path):
        # both lines are read in one decoded chunk; the first error wins
        text = GOOD_MODEL.replace("[phi]", "[fi]").replace("0.3 1.0", "0.3 1.\0")
        path = tmp_path / "latin1.txt"
        path.write_bytes(text.encode().replace(b"\0", b"\xe9"))
        lineno = text.splitlines().index("[fi]") + 1
        with pytest.raises(DataError) as info:
            parse_model_file(path)
        assert str(info.value) == f"line {lineno}: unknown block [fi]"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_long_non_model_file_refused_before_the_rest_is_read(
            self, tmp_path, end):
        # a CSV given by mistake is refused at line 1 after the first read:
        # fed through a FIFO, its writer finds the reader gone
        text = ("a,b\n" + "0.5,0.25\n" * 100_000).replace("\n", end).encode()
        message = "line 1: content before any block header"
        file = tmp_path / "data.csv"
        file.write_bytes(text)
        with pytest.raises(DataError) as info:
            parse_model_file(file)
        assert str(info.value) == message
        path = tmp_path / "fifo.csv"
        os.mkfifo(path)
        broken = []

        def feed():
            try:
                with open(path, "wb") as fh:
                    fh.write(text)
            except BrokenPipeError:
                broken.append(True)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        with pytest.raises(DataError) as info:
            parse_model_file(path)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert str(info.value) == message
        assert broken


# Model-file refusals, one edit of GOOD_MODEL each, with the whole message;
# ``{path}`` stands for the file's path.
MODEL_FILE_REFUSALS = [
    ("duplicate-block", ("[eta_corr]\n1.0\n", "[eta_corr]\n1.0\n[phi]\n1.0\n"),
     "line 24: duplicate block [phi]"),
    ("empty-block", ("[lambda_y]\n0.7\n0.65\n", "[lambda_y]\n"),
     "block [lambda_y] is empty"),
    ("malformed-dimension", ("n_y 2\n", "n_y\n"),
     "line 6: expected '<n_x|n_xi|n_y|n_eta> <count>'"),
    ("unknown-dimension", ("n_y 2\n", "n_z 2\n"),
     "line 6: expected '<n_x|n_xi|n_y|n_eta> <count>'"),
    ("non-integer-dimension", ("n_y 2\n", "n_y 2.5\n"),
     "line 6: non-integer dimension"),
    ("missing-dimension", ("n_eta 1\n", ""),
     "{path}: [dimensions] is missing n_eta"),
    ("asymmetric-phi", ("0.3 1.0", "0.4 1.0"),
     "{path}: correlation matrix is not symmetric"),
    ("phi-diagonal", ("0.3 1.0", "0.3 0.9"),
     "{path}: correlation matrix diagonal differs from 1"),
]


@pytest.mark.usefixtures("model_memo")
@pytest.mark.parametrize("edit, message", [
    pytest.param(e, m, id=name) for name, e, m in MODEL_FILE_REFUSALS])
def test_model_file_refusal(tmp_path, edit, message):
    assert GOOD_MODEL.count(edit[0]) == 1
    path = write(tmp_path, GOOD_MODEL.replace(*edit))
    with pytest.raises(DataError) as info:
        parse_model_file(path)
    assert str(info.value) == message.format(path=path)


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
        # the reader refuses both files it would write: a header with no
        # data rows, and bare line ends with no data columns in the header
        path = tmp_path / "m.csv"
        for labels, values, what in ((("a", "b"), np.empty((0, 2)), "rows"),
                                     ((), np.zeros((3, 0)), "columns")):
            with pytest.raises(DataError) as info:
                write_matrix_csv(path, labels, values)
            assert str(info.value) == f"{path}: no {what}"
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

    @pytest.mark.parametrize("interrupt", [
        OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt(),
    ], ids=["disk-full", "interrupt"])
    @pytest.mark.parametrize("target", ["path", "descriptor"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, interrupt,
                                         target):
        # every chunk holds whole rows, so the rows written before the
        # failure would read back as a valid, shorter matrix; a descriptor
        # has no name to remove, so it is the caller's to clean up
        path = tmp_path / "part.csv"

        def open_failing(*args, **kwargs):
            fh = open(*args, **kwargs)
            write, calls = fh.write, itertools.count(1)

            def write_or_fail(text):
                if next(calls) == 4:  # the header, then the third chunk
                    raise interrupt
                return write(text)

            fh.write = write_or_fail
            return fh

        monkeypatch.setattr(cpscores.io, "open", open_failing, raising=False)
        # 204-row chunks: the 500 rows take three body writes
        monkeypatch.setattr(cpscores.io, "_WRITE_CHUNK_CELLS", 1024)
        values = np.arange(2500.0).reshape(500, 5)
        if target == "descriptor":
            dest = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        else:
            dest = path
        with pytest.raises(type(interrupt)) as info:
            write_matrix_csv(dest, ("a", "b", "c", "d", "e"), values)
        assert info.value is interrupt and info.value.__context__ is None
        assert path.exists() == (target == "descriptor")


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
    ("after-blank-lines", "a,b\n\n1,2\n \n3,\n", "non-numeric cell on line 5"),
    ("case-id-crlf", "id,b\r\nq,2\r\nr,y\r\n", "non-numeric cell on line 3"),
    ("header-only", "a,b\n", "no data rows"),
    ("header-then-blanks", "a,b\r\n\r\n  \n", "no data rows"),
    ("empty-file", "", "empty file"),
    ("no-final-newline", "a,b\n1,2\n3,4", (("a", "b"), [[1, 2], [3, 4]])),
    ("hex-float", "a\n1\n0x1p3\n", "non-numeric cell on line 3"),
    ("underscore-digits", "a\n1\n1_0\n", "non-numeric cell on line 3"),
    ("non-ascii-digits", "a\n1\n\u0661\n", "non-numeric cell on line 3"),
    # a UTF-8 byte-order mark, as spreadsheet exports write, is not a label
    ("bom", "\ufeffa,b\n1,2\n", (("a", "b"), [[1, 2]])),
    ("bom-case-id", "\ufeffcase,a\n1,2\n", (("a",), [[2]])),
    ("bom-case-id-bad-cell", "\ufeffcase,a\nA,1\nB,x\n",
     "non-numeric cell on line 3"),
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


BAD_THIRD_LINE = b"a,b\n1,2\n3,x\n"


def test_bad_row_named_through_a_descriptor(tmp_path):
    # the row-by-row pass re-reads the open descriptor, which it neither
    # reopens nor closes twice
    path = tmp_path / "d.csv"
    path.write_bytes(BAD_THIRD_LINE)
    fd = os.open(path, os.O_RDONLY)
    with pytest.raises(DataError) as info:
        read_labeled_csv(fd)
    assert str(info.value) == f"{fd}: non-numeric cell on line 3"


def _read_result(source):
    """What reading ``source`` gives: its labels and values, or the text of
    its ``DataError`` after the source's name."""
    try:
        labels, values = read_labeled_csv(source)
    except DataError as exc:
        name, _, message = str(exc).partition(": ")
        assert name == str(source)
        return message
    assert values.dtype == np.float64
    return labels, values.tolist()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
@pytest.mark.parametrize(
    "text, expected", [pytest.param(t, e, id=name) for name, t, e in READER_CONTRACT]
)
def test_bad_row_in_a_fifo_refused_without_reopening(tmp_path, text, expected):
    # a FIFO cannot be read twice, and opening it again would wait for a
    # writer that never comes: it is copied once, and then read as the
    # file of the same bytes is, through its path or a descriptor
    if not isinstance(expected, str):
        expected = expected[0], np.array(expected[1], dtype=float).tolist()
    file = tmp_path / "d.csv"
    file.write_bytes(text.encode())
    assert _read_result(file) == expected
    assert _read_result(os.open(file, os.O_RDONLY)) == expected
    path = tmp_path / "fifo.csv"
    os.mkfifo(path)
    results = []

    def feed():
        with open(path, "wb") as fh:
            fh.write(text.encode())

    def read():
        results.append(_read_result(path))

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    hung = [t for t in threads if t.is_alive()]
    if hung:  # release a reader blocked in open() before failing
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    assert not hung
    assert results == [expected]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_bad_row_on_piped_stdin_names_the_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cpscores.io.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    model = files("cpscores") / "data" / "example.model"
    proc = subprocess.run(
        [sys.executable, "-m", "cpscores.cli", "scores", str(model),
         "--x", "/dev/stdin", "--method", "regression",
         "--out", str(tmp_path / "s.csv")],
        input=BAD_THIRD_LINE, capture_output=True, env=env, timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err == "error: /dev/stdin: non-numeric cell on line 3\n"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_csv_bytes_not_utf8_name_the_line(tmp_path, end):
    path = tmp_path / "latin1.csv"
    path.write_bytes(end.join([b"a,b", b"1,2", b"3,\xe94", b"5,6", b""]))
    message = "line 3: bytes that are not UTF-8 text"
    assert _read_result(path) == message
    assert _read_result(os.open(path, os.O_RDONLY)) == message


def test_csv_bytes_not_utf8_count_records(tmp_path):
    # a quoted label spanning two lines is one record, as for other errors
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'"a\nlong",b\n1,2\n3,\xe94\n')
    assert _read_result(path) == "line 3: bytes that are not UTF-8 text"


def test_csv_bytes_not_utf8_after_an_earlier_error_are_not_named(tmp_path):
    # both rows are read in one decoded chunk; the first error wins
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2,3\n3,\xe94\n")
    assert _read_result(path) == "line 2 has 3 cells, expected 2"


def test_header_bytes_not_utf8_name_line_one(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,\xe9\n1,2\n")
    assert _read_result(path) == "line 1: bytes that are not UTF-8 text"


def test_csv_bytes_not_utf8_count_a_crlf_split_between_reads(tmp_path):
    # the line is found reading 64 KiB at a time: here the CR of line 2
    # ends one read and its LF starts the next
    head = b"a,b\r\n"
    blank = b" " * (cpscores.io._HASH_CHUNK - 1 - len(head)) + b"\r\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(head + blank + b"1,2\r\n3,\xe94\r\n")
    assert _read_result(path) == "line 4: bytes that are not UTF-8 text"


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


def _template_csv(labels, values) -> bytes:
    """The writer of earlier versions: the header through ``csv.writer``,
    then the body through one ``%.17g`` row template."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(labels)
    row = ",".join(["%.17g"] * values.shape[1]) + "\r\n"
    buf.write(row * len(values) % tuple(values.ravel().tolist()))
    return buf.getvalue().encode()


def _formatter_probes() -> np.ndarray:
    """Finite doubles for every path of the writer's formatter, both signs."""
    rng = np.random.default_rng(1917)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(float)
    tens = np.array([float(f"1e{k}") for k in range(-330, 309)])
    ties = []  # m * 5**q / 2 for odd m: a 17-digit value and a half
    for q in range(1, 21):
        lo = -(-(2 ** (q + 1) * 10**16) // 10**q)
        hi = min(2 ** (q + 1) * 10**17 // 10**q, 2**53)
        odd = rng.integers(lo // 2, hi // 2, 200) * 2 + 1
        ties.append(np.ldexp(odd.astype(float), -(q + 1)))
    cells = np.concatenate([
        bits[np.isfinite(bits)],
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), *ties,
        # the ends of fixed notation
        [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e17,
         99999999999999984.0, np.nextafter(1e17, np.inf)],
        # zero, subnormals and the normal range's ends
        [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         np.finfo(float).max],
        rng.integers(1, 2**52, 1000, dtype=np.uint64).view(float),
        # integers and short decimals: trailing zeros to strip
        rng.integers(-10**6, 10**6, 1000).astype(float),
        np.round(rng.standard_normal(1000), 3),
    ])
    return np.concatenate([cells, -cells])


def test_writer_formats_every_probe_as_the_template_does(tmp_path):
    cells = _formatter_probes()[:, None]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ("v",), cells)
    assert path.read_bytes() == _template_csv(("v",), cells)


def test_writer_bytes_at_every_width(tmp_path):
    # two full chunks and one row more at each width: every chunk boundary,
    # and a short last chunk, with exponent-notation cells among the rest
    rng = np.random.default_rng(1918)
    probes = _formatter_probes()
    path = tmp_path / "m.csv"
    for k in range(1, 31):
        rows = 2 * (cpscores.io._WRITE_CHUNK_CELLS // k) + 1
        values = rng.choice(probes, (rows, k))
        labels = tuple(f"v{j}" for j in range(k))
        write_matrix_csv(path, labels, values)
        assert path.read_bytes() == _template_csv(labels, values), k


def test_example_model_loads_via_package_data():
    m = example_model()
    assert m.n_x == 15 and m.n_eta == 2


needs_root = pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() != 0,
    reason="giving a file away needs root")


def sidecar_of(path: Path) -> Path:
    return path.with_name(f".{path.name}.cpscores.npy")


def load_sidecar(path: Path):
    with open(sidecar_of(path), "rb") as fh:
        return [np.load(fh, allow_pickle=False) for _ in range(3)]


def save_sidecar(path: Path, key, labels, values) -> None:
    with open(sidecar_of(path), "wb") as fh:
        for a in (key, labels, values):
            np.save(fh, a)


@pytest.fixture
def no_parse(monkeypatch):
    """Make any CSV parse fail, so only a sidecar can answer a read."""
    def refuse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(cpscores.io.np, "loadtxt", refuse)


@pytest.fixture
def parses(monkeypatch):
    """Count the bulk parses."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(cpscores.io.np, "loadtxt", counted)
    return calls


class TestParsedFileCache:
    def write_matrix(self, tmp_path, rng):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ("a", "b", "c"), rng.standard_normal((20, 3)))
        return path

    def test_second_read_loads_the_sidecar(self, tmp_path, rng, request):
        path = self.write_matrix(tmp_path, rng)
        labels, values = read_labeled_csv(path)
        assert sidecar_of(path).is_file()
        request.getfixturevalue("no_parse")
        again_labels, again = read_labeled_csv(path)
        assert again_labels == labels
        assert again.dtype == np.float64 and again.flags.c_contiguous
        assert again.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text", [
        "case,a,b\nA-1,1,2\n\"B,2\",3,4\n",
        "\ufeffa,b\n1,2\n3,4\n",
        "\ufeffID,a,b\r\nx,1,2\r\n",
    ], ids=["case-id", "bom", "bom-case-id"])
    def test_case_id_and_bom_files_hit(self, tmp_path, request, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        labels, values = read_labeled_csv(path)
        request.getfixturevalue("no_parse")
        again_labels, again = read_labeled_csv(path)
        assert again_labels == labels == ("a", "b")
        assert again.tobytes() == values.tobytes()

    def test_stored_key_is_the_tagged_file_hash(self, tmp_path, rng):
        path = self.write_matrix(tmp_path, rng)
        labels, values = read_labeled_csv(path)
        key, stored_labels, stored = load_sidecar(path)
        digest = hashlib.sha256(cpscores.io._SIDECAR_TAG + path.read_bytes())
        assert key.dtype == np.uint8 and key.tobytes() == digest.digest()
        assert stored_labels.dtype.kind == "U"
        assert tuple(stored_labels.tolist()) == labels
        assert stored.dtype == np.float64 and stored.flags.c_contiguous
        assert stored.tobytes() == values.tobytes()

    def test_same_size_rewrite_parses_again(self, tmp_path, parses):
        # the key is the content: an equal size and mtime do not hit
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        read_labeled_csv(path)
        old_sidecar = sidecar_of(path).read_bytes()
        stamp = path.stat()
        path.write_bytes(b"a,b\n3,4\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        labels, values = read_labeled_csv(path)
        assert values.tolist() == [[3.0, 4.0]]
        assert len(parses) == 2
        assert sidecar_of(path).read_bytes() != old_sidecar
        read_labeled_csv(path)
        assert len(parses) == 2

    @pytest.mark.parametrize("damage", [
        lambda b: b[: len(b) // 2],  # truncated in the values
        lambda b: b[:100],  # truncated in the labels
        lambda b: b"",
        lambda b: b"garbage, not an npy file\n" * 4,
        lambda b: b"PK\x03\x04" + b[4:],  # a zip's magic
    ], ids=["truncated-values", "truncated-labels", "empty", "garbage", "zip"])
    def test_bad_sidecar_parses_and_is_replaced(self, tmp_path, rng, parses,
                                                damage):
        path = self.write_matrix(tmp_path, rng)
        labels, values = read_labeled_csv(path)
        good = sidecar_of(path).read_bytes()
        sidecar_of(path).write_bytes(damage(good))
        again_labels, again = read_labeled_csv(path)
        assert again_labels == labels
        assert again.tobytes() == values.tobytes()
        assert len(parses) == 2
        assert sidecar_of(path).read_bytes() == good

    @pytest.mark.parametrize("forge", [
        lambda labels, values: (labels, values.astype(np.float32)),
        lambda labels, values: (labels, values[:, :2]),
        lambda labels, values: (labels.astype("S"), values),
        lambda labels, values: (labels, np.asfortranarray(values)),
    ], ids=["float32", "too-narrow", "bytes-labels", "fortran"])
    def test_sidecar_of_another_layout_is_a_miss(self, tmp_path, rng, parses,
                                                 forge):
        path = self.write_matrix(tmp_path, rng)
        labels, values = read_labeled_csv(path)
        key, stored_labels, stored = load_sidecar(path)
        save_sidecar(path, key, *forge(stored_labels, stored))
        again_labels, again = read_labeled_csv(path)
        assert again_labels == labels
        assert again.tobytes() == values.tobytes()
        assert len(parses) == 2

    @pytest.mark.parametrize("forge, message", [
        (lambda labels, values: (labels, np.where(values == 4.0, np.nan, values)),
         "non-finite value nan in data row 2, column b"),
        (lambda labels, values: (np.array(["a", "a"]), values),
         "duplicate label 'a'"),
    ], ids=["nan", "duplicate-label"])
    def test_forged_sidecar_is_checked(self, tmp_path, forge, message):
        # a sidecar under the right key still passes every check a parse does
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\n")
        read_labeled_csv(path)
        key, labels, values = load_sidecar(path)
        save_sidecar(path, key, *forge(labels, values))
        with pytest.raises(DataError) as info:
            read_labeled_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @needs_root
    def test_sidecar_of_another_owner_is_a_miss(self, tmp_path, rng, parses):
        # in a shared directory another user could plant a sidecar
        path = self.write_matrix(tmp_path, rng)
        labels, values = read_labeled_csv(path)
        key, stored_labels, stored = load_sidecar(path)
        save_sidecar(path, key, stored_labels, stored + 1.0)
        os.chown(sidecar_of(path), path.stat().st_uid + 1, -1)
        again_labels, again = read_labeled_csv(path)
        assert again.tobytes() == values.tobytes()
        assert len(parses) == 2
        assert sidecar_of(path).stat().st_uid == path.stat().st_uid

    @needs_root
    def test_reader_sidecar_of_another_users_csv_hits(self, tmp_path, rng,
                                                      parses):
        # reading a file someone else owns, in a directory the reader may
        # write to, keeps the reader's own sidecar
        path = self.write_matrix(tmp_path, rng)
        os.chown(path, os.geteuid() + 1, -1)
        labels, values = read_labeled_csv(path)
        assert sidecar_of(path).stat().st_uid == os.geteuid()
        again_labels, again = read_labeled_csv(path)
        assert again_labels == labels
        assert again.tobytes() == values.tobytes()
        assert len(parses) == 1

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o644, 0o444],
                             ids=["600", "640", "644", "444"])
    def test_sidecar_has_the_csv_permissions(self, tmp_path, rng, mode):
        # the sidecar holds every value, so it is no more readable than
        # the CSV, whatever the umask
        path = self.write_matrix(tmp_path, rng)
        path.chmod(mode)
        read_labeled_csv(path)
        assert stat.S_IMODE(sidecar_of(path).stat().st_mode) == mode

    @needs_root
    def test_sidecar_of_another_group_drops_the_group_bits(self, tmp_path,
                                                           rng):
        path = self.write_matrix(tmp_path, rng)
        path.chmod(0o640)
        os.chown(path, -1, os.getegid() + 1)
        read_labeled_csv(path)
        assert stat.S_IMODE(sidecar_of(path).stat().st_mode) == 0o600

    def test_csv_made_private_replaces_its_sidecar(self, tmp_path, rng,
                                                   parses):
        path = self.write_matrix(tmp_path, rng)
        path.chmod(0o644)
        labels, values = read_labeled_csv(path)
        path.chmod(0o600)
        again_labels, again = read_labeled_csv(path)
        assert again.tobytes() == values.tobytes()
        assert len(parses) == 2
        assert stat.S_IMODE(sidecar_of(path).stat().st_mode) == 0o600
        read_labeled_csv(path)
        assert len(parses) == 2

    @pytest.mark.parametrize("refused", ["create", "rename"])
    def test_unwritable_directory_reads_without_a_sidecar(
            self, tmp_path, rng, monkeypatch, refused):
        # root ignores a directory's mode, so refuse the calls instead
        path = self.write_matrix(tmp_path, rng)

        def refuse(name):
            raise PermissionError(errno.EACCES, "Permission denied", name)

        if refused == "rename":
            monkeypatch.setattr(os, "replace", lambda src, dst: refuse(dst))
        else:
            os_open = os.open

            def open_no_create(file, flags, *args, **kwargs):
                if flags & os.O_CREAT:
                    refuse(file)
                return os_open(file, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", open_no_create)
        labels, values = read_labeled_csv(path)
        assert labels == ("a", "b", "c") and values.shape == (20, 3)
        assert os.listdir(tmp_path) == ["m.csv"]

    @pytest.mark.parametrize("text", [
        "a,b\n1,x\n", "a,b\n1,nan\n", "a,a\n1,2\n",
    ], ids=["text-cell", "nan-cell", "duplicate-label"])
    def test_refused_csv_leaves_no_sidecar(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError):
            read_labeled_csv(path)
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_file_descriptor_is_read_without_a_sidecar(self, tmp_path):
        # an open descriptor has no name to put a sidecar beside
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        labels, values = read_labeled_csv(os.open(path, os.O_RDONLY))
        assert labels == ("a", "b") and values.tolist() == [[1.0, 2.0]]
        assert os.listdir(tmp_path) == ["d.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_is_read_without_a_sidecar(self, tmp_path):
        path = tmp_path / "d.csv"
        os.mkfifo(path)

        def feed():
            with open(path, "w") as fh:
                fh.write("a,b\n1,2\n")

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        labels, values = read_labeled_csv(path)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert labels == ("a", "b") and values.tolist() == [[1.0, 2.0]]
        assert os.listdir(tmp_path) == ["d.csv"]

    @pytest.mark.parametrize("source", ["path", "descriptor", "fifo", "symlink"])
    def test_only_a_read_that_can_keep_a_sidecar_is_hashed(
            self, tmp_path, monkeypatch, source):
        hashed = []
        sha256 = hashlib.sha256

        class Counted:
            def __init__(self, data=b""):
                self._h = sha256(data)

            def update(self, data):
                hashed.append(len(data))
                self._h.update(data)

            def digest(self):
                return self._h.digest()

        monkeypatch.setattr(cpscores.io.hashlib, "sha256", Counted)
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        if source == "descriptor":
            result = read_labeled_csv(os.open(path, os.O_RDONLY))
        elif source == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs here")
            fifo = tmp_path / "fifo.csv"
            os.mkfifo(fifo)
            feeder = threading.Thread(target=fifo.write_bytes,
                                      args=(path.read_bytes(),), daemon=True)
            feeder.start()
            result = read_labeled_csv(fifo)
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        elif source == "symlink":
            link = tmp_path / "link.csv"
            link.symlink_to(path.name)
            result = read_labeled_csv(link)
        else:
            result = read_labeled_csv(path)
        labels, values = result
        assert labels == ("a", "b") and values.tolist() == [[1.0, 2.0]]
        assert sum(hashed) == (path.stat().st_size if source == "path" else 0)

    @pytest.mark.parametrize("target", ["descriptor", "file"])
    def test_symlink_is_read_without_a_sidecar(self, tmp_path, request, target):
        # a sidecar belongs beside the file itself: a link such as
        # /dev/stdin, which names a descriptor when stdin is redirected from
        # a regular file, would get one beside the link, in /dev
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        link = tmp_path / "link.csv"
        if target == "descriptor":
            if not os.path.isdir("/proc/self/fd"):
                pytest.skip("no /proc/self/fd")
            fd = os.open(path, os.O_RDONLY)
            request.addfinalizer(lambda: os.close(fd))
            link.symlink_to(f"/proc/self/fd/{fd}")
        else:
            link.symlink_to(path.name)
        labels, values = read_labeled_csv(link)
        assert labels == ("a", "b") and values.tolist() == [[1.0, 2.0]]
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "link.csv"]
