"""When a container adopts an array and when it copies one.

Only a float64 array whose memory nothing can write is adopted: every
array down its ``.base`` chain is read-only, and so is a buffer at the
bottom (the mmap of a read-only ``np.load`` map, or ``bytes``).  Anything
else is copied, and the container's values are read-only either way.
"""

import numpy as np
import pytest

import cpscores
from cpscores import DataError, DataMatrix, ScoreMatrix, StructuralError
from cpscores.determinacy import DeterminacyReport
from cpscores.simulate import ExampleReport

LABELS = ("a", "b")


def frozen(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def data(values):
    return DataMatrix(values, LABELS)


def scores(values):
    return ScoreMatrix(values, LABELS)


CONTAINERS = pytest.mark.parametrize("wrap", [data, scores], ids=["data", "scores"])


def assert_read_only(m):
    assert not m.values.flags.writeable
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


@CONTAINERS
def test_frozen_owning_float64_is_adopted(wrap):
    src = frozen([[1.0, 2.0], [3.0, 4.0]])
    m = wrap(src)
    assert m.values is src
    assert_read_only(m)


@CONTAINERS
def test_writable_input_is_copied(wrap):
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = wrap(src)
    assert not np.shares_memory(m.values, src)
    src[0, 0] = 99.0
    assert m.values[0, 0] == 1.0
    assert src.flags.writeable
    assert_read_only(m)


@CONTAINERS
def test_read_only_view_of_writable_base_is_copied(wrap):
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = base[:]
    view.setflags(write=False)
    m = wrap(view)
    assert not np.shares_memory(m.values, base)
    base[0, 0] = 99.0
    assert m.values[0, 0] == 1.0
    assert_read_only(m)


@CONTAINERS
def test_transpose_of_frozen_owner_is_adopted(wrap):
    owner = frozen([[1.0, 3.0], [2.0, 4.0]])
    m = wrap(owner.T)
    assert m.values.base is owner
    assert m.values.flags.f_contiguous
    assert_read_only(m)


@CONTAINERS
@pytest.mark.parametrize("part", [np.s_[:, :2], np.s_[10:, 1:]],
                         ids=["columns", "rows"])
def test_part_of_frozen_owner_is_adopted(wrap, part):
    owner = frozen(np.arange(36.0).reshape(12, 3))
    m = wrap(owner[part])
    assert m.values.base is owner
    assert np.array_equal(m.values, owner[part])
    assert_read_only(m)
    assert not owner.flags.writeable


def mapped(tmp_path, values, mode):
    path = tmp_path / "m.npy"
    np.save(path, np.array(values, dtype=float))
    return np.load(path, mmap_mode=mode)


@CONTAINERS
def test_read_only_map_is_adopted(wrap, tmp_path):
    src = mapped(tmp_path, [[1.0, 2.0], [3.0, 4.0]], "r")
    m = wrap(src)
    assert np.shares_memory(m.values, src)
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
    assert_read_only(m)


@CONTAINERS
def test_non_finite_cell_of_a_map_named_by_row_and_label(wrap, tmp_path):
    src = mapped(tmp_path, [[1.0, 2.0], [3.0, np.nan]], "r")
    with pytest.raises(DataError, match="non-finite value nan in data row 2, column b"):
        wrap(src)


@CONTAINERS
@pytest.mark.parametrize("mode", ["r+", "c"])
def test_frozen_writable_map_is_copied(wrap, tmp_path, mode):
    src = mapped(tmp_path, [[1.0, 2.0], [3.0, 4.0]], mode)
    src.setflags(write=False)
    m = wrap(src)
    assert not np.shares_memory(m.values, src)
    assert_read_only(m)


@CONTAINERS
@pytest.mark.parametrize("buffer, adopted", [(bytes, True), (bytearray, False)],
                         ids=["bytes", "bytearray"])
def test_array_over_a_buffer_adopted_only_if_the_buffer_is_read_only(
    wrap, buffer, adopted
):
    src = np.frombuffer(buffer(np.arange(4.0).tobytes())).reshape(2, 2)
    src.setflags(write=False)
    m = wrap(src)
    assert np.shares_memory(m.values, src) == adopted
    assert np.array_equal(m.values, [[0.0, 1.0], [2.0, 3.0]])
    assert_read_only(m)


@CONTAINERS
@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.dtype(">f8")])
def test_other_dtype_is_copied(wrap, dtype):
    src = frozen([[1, 2], [3, 4]], dtype=dtype)
    m = wrap(src)
    assert m.values.dtype == np.float64
    assert m.values is not src
    assert not np.shares_memory(m.values, src)
    assert_read_only(m)


@CONTAINERS
def test_checks_fire_on_adopted_arrays(wrap):
    with pytest.raises(DataError, match="non-finite"):
        wrap(frozen([[1.0, np.nan], [3.0, 4.0]]))
    with pytest.raises(StructuralError, match="2-d"):
        wrap(frozen([1.0, 2.0]))
    with pytest.raises(StructuralError, match="labels"):
        wrap(frozen([[1.0, 2.0, 3.0]]))


@CONTAINERS
@pytest.mark.parametrize("adopt", [True, False], ids=["adopted", "copied"])
def test_non_finite_cell_named_by_row_and_label(wrap, adopt):
    src = [[1.0, 2.0], [3.0, -np.inf], [np.nan, 5.0]]
    with pytest.raises(DataError) as info:
        wrap(frozen(src) if adopt else src)
    name = "data" if wrap is data else "score"
    assert str(info.value) == (
        f"{name} matrix: non-finite value -inf in data row 2, column b"
    )


@CONTAINERS
def test_finite_cells_whose_sum_overflows_are_accepted(wrap):
    big = np.finfo(float).max
    m = wrap(frozen([[big, 1.0], [big, -big]]))
    assert m.values[1, 1] == -big
    with pytest.raises(DataError, match=r"value inf in data row 1, column a"):
        wrap(frozen([[np.inf, 1.0], [-np.inf, 1.0]]))


@pytest.mark.parametrize("cls", [DataMatrix, ScoreMatrix])
def test_duplicate_label_named(cls):
    with pytest.raises(DataError, match="duplicate label 'a'"):
        cls(frozen([[1.0, 2.0]]), ("a", "a"))


def test_derived_score_matrices_share_values():
    m = scores(frozen([[1.0, 2.0], [3.0, 4.0]]))
    assert m.replace_values(m.values, "renamed").values is m.values
    assert ScoreMatrix(m.values, m.labels).values is m.values


def test_select_gathers_once_and_stays_column_major():
    m = ScoreMatrix(frozen([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), ("a", "b", "c"),
                    "test")
    s = m.select(("c", "a"))
    assert s.labels == ("c", "a") and s.provenance == "test"
    assert np.array_equal(s.values, [[3.0, 1.0], [6.0, 4.0]])
    assert s.values.flags.f_contiguous
    assert s.values.base.flags.owndata  # the gathered copy, adopted
    assert not np.shares_memory(s.values, m.values)
    assert_read_only(s)


def test_select_of_consecutive_columns_is_a_view():
    m = ScoreMatrix(frozen(np.arange(20.0).reshape(4, 5)),
                    ("a", "b", "c", "d", "e"), "test")
    s = m.select(("b", "c", "d"))
    assert s.labels == ("b", "c", "d") and s.provenance == "test"
    assert np.array_equal(s.values, m.values[:, 1:4])
    assert np.shares_memory(s.values, m.values)
    assert_read_only(s)
    t = s.select(("c", "d"))
    assert np.array_equal(t.values, m.values[:, 2:4])
    assert np.shares_memory(t.values, m.values)
    assert_read_only(t)


@pytest.mark.parametrize("values", [np.empty((0, 2)), frozen(np.empty((0, 2)))],
                         ids=["copied", "adopted"])
def test_data_matrix_refuses_zero_cases(values):
    # scoring would otherwise take column means of no rows, which numpy
    # warns about instead of refusing
    with pytest.raises(DataError, match="no cases"):
        data(values)


@pytest.mark.parametrize("cls", [
    cpscores.SemModel, cpscores.Block, cpscores.FactorCorr, DataMatrix,
    ScoreMatrix, DeterminacyReport, ExampleReport,
    cpscores.SimulationSpec,
], ids=lambda cls: cls.__name__)
def test_array_holders_compare_and_hash_by_identity(cls):
    # a generated __eq__ would compare the arrays, which have no single
    # truth value, and a generated __hash__ would hash them
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__
