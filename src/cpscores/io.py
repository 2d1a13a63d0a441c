"""File formats: the sectioned model file and labeled CSV matrices.

Model files are plain text with ``#`` comments and whitespace-separated
numeric rows, organized in blocks::

    [dimensions]
    n_x 15
    n_xi 3
    n_y 10
    n_eta 2
    [lambda_x]
    0.750 0.066 0.025
    ...
    [phi]
    ...
    [lambda_y]
    ...
    [gamma]      # rows = exogenous factors, columns = endogenous factors
    ...
    [eta_corr]   # or [psi]
    ...

The gamma block uses the printed layout (one row per exogenous factor) and
is transposed on load to the internal row-per-endogenous-factor convention.
Exactly one of ``[psi]`` / ``[eta_corr]`` is required.  The text is UTF-8,
with or without a byte-order mark, with LF, CRLF or CR line ends.  A model
file or CSV holding bytes that are not UTF-8 is refused with a DataError
naming the file and the line of the first of them.  The check runs line by
line with a model's block-header checks and a CSV's row checks, so an
error on an earlier line of those is named instead, and a CSV counts its
lines as records, as its other errors do.

A process keeps the model of the last model file it read: a read of the
same bytes again, by any path, returns the model the first read parsed
and validated, with every matrix it has kept since.  The key is the bytes
alone, so a rewritten file is parsed again whatever its timestamp; reading
another model file replaces the kept model, and a refused file is never
kept.

CSV files carry a header row of labels and one row of numbers per case.
The reader accepts this dialect:

* UTF-8 text, with or without a byte-order mark, comma-delimited, ``"`` as
  the quote character, LF, CRLF or CR line ends, with or without a final
  one;
* a header of unique labels, stripped of surrounding whitespace; a leading
  ``case``/``case_id``/``id`` column (in any letter case) is dropped and
  its cells are not parsed;
* on every other line, one cell per label: a decimal or exponent-form
  number as ``float`` reads it, possibly quoted and padded with
  whitespace.  ``_`` digit groups, non-ASCII digits and hex floats are
  refused, and so is a non-finite value;
* lines holding only whitespace are skipped.  There are no comment lines,
  and a line holding only a quoted blank cell (``""``) is not skipped.

Errors name the file and the line, or the data row and the column for a
non-finite value.  A stream that cannot seek back (a pipe, a FIFO,
``/dev/stdin``) is copied once to an unnamed temporary file and read from
there as a file is, with the same results and messages.  The writer
refuses non-finite values, duplicate labels and a matrix with no rows or
columns too: both sides call the containers' one rule for labelled
matrices.  It also refuses what the reader would read back under other
labels: a label with surrounding whitespace, and a first label named like
a case-id column.  The writer emits the header through ``csv.writer``
and each value as ``%.17g`` formats it, with CRLF line ends, so a
write/read round trip is exact to double precision.  The body is
formatted in numpy, a chunk of cells at a time (``_csvformat``), to the
bytes, ``-0`` and the stripped trailing zeros included, that the earlier
cell-by-cell writer produced.  A write that fails part way removes the
regular file it was writing, whose whole rows would otherwise read as
valid.

Parsed-file cache: after parsing a regular file ``x.csv``, named by its
path and not through a symlink, the reader keeps ``.x.csv.cpscores.npy``
beside it.  That sidecar is three ``.npy`` arrays, no zip and no pickle:
the key (uint8), the labels (unicode) and the values (C-ordered float64).
The key is the sha256 of a format tag followed by the file's raw bytes,
hashed beneath the text layer as the parse reads them, so it names exactly
what was parsed; a file rewritten with other values, whatever its size or
timestamp, misses.  A later read hashes the file in 64 KiB chunks, and on
a matching key loads the sidecar instead of parsing; the loaded labels and
values pass the same checks as a parse (layout, finite cells, unique
labels).  A sidecar that is missing, stale, damaged, of another layout,
owned by neither the CSV's owner nor the reader, or more readable than its
CSV is a miss: the file is parsed and the sidecar replaced.  A sidecar
gets its CSV's permission bits, less execute and, unless it has the CSV's
group, less the group's, so it is readable by no one the CSV is not
readable by.  The sidecar is written to a temporary file and renamed into
place; a directory that will not take it, a full disk, a descriptor or a
path that is not the regular file itself (a FIFO, a symlink such as
``/dev/stdin``) only means the read is not cached, nor hashed, and a
refused CSV leaves no sidecar.  Deleting a sidecar is always safe.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
import os
import shutil
import stat
import tempfile
from io import BufferedReader, BytesIO, RawIOBase, TextIOWrapper
from typing import NoReturn

import numpy as np

from .containers import DataMatrix, ScoreMatrix, _check_labels, _check_matrix
from .errors import DataError, StructuralError
from .model import SemModel, validate_model

MODEL_BLOCKS = ("dimensions", "lambda_x", "phi", "lambda_y", "gamma", "psi", "eta_corr")
DIMENSION_KEYS = ("n_x", "n_xi", "n_y", "n_eta")
CASE_ID_LABELS = ("case", "case_id", "id")
# Cells formatted per write call: bounds the chunk's temporaries (each at
# most one 28-byte slot per cell) and its text.
_WRITE_CHUNK_CELLS = 2048
# The parsed-file cache: a sidecar's key is sha256 over this tag and then the
# CSV's bytes, so a change of the sidecar layout misses every older sidecar.
_SIDECAR_TAG = b"cpscores csv sidecar v1: key u1, labels U, values <f8 C\n"
_HASH_CHUNK = 1 << 16
# parse_model_file's last model, with the bytes it was parsed from; one
# tuple, so a thread never sees one's bytes with another's model
_last_model: tuple[bytes, SemModel] | None = None
# Bytes of a model file read first: a longer file that does not start as a
# model file does is refused before the rest is read.
_MODEL_HEAD = 1 << 16


def _escaped(text: str) -> bool:
    """Whether ``text``, decoded with ``errors="surrogateescape"``, holds
    bytes that are not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _not_utf8(path, lineno: int) -> DataError:
    return DataError(f"{path}: line {lineno}: bytes that are not UTF-8 text")


def _parse_blocks(path, lines):
    blocks: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        if _escaped(raw):
            raise _not_utf8(path, lineno)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in MODEL_BLOCKS:
                raise DataError(f"line {lineno}: unknown block [{name}]")
            if name in blocks:
                raise DataError(f"line {lineno}: duplicate block [{name}]")
            blocks[name] = []
            current = name
        elif current is None:
            raise DataError(f"line {lineno}: content before any block header")
        else:
            blocks[current].append((lineno, line))
    return blocks


def _parse_matrix(rows, name):
    out = []
    width = None
    for lineno, line in rows:
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError(f"line {lineno}: non-numeric token in [{name}]") from exc
        if not all(map(math.isfinite, values)):
            raise DataError(f"line {lineno}: non-finite value in [{name}]")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataError(
                f"line {lineno}: row of length {len(values)} in [{name}], "
                f"expected {width}"
            )
        out.append(values)
    if not out:
        raise DataError(f"block [{name}] is empty")
    return np.array(out)


def parse_model_file(path) -> SemModel:
    """Read and validate a sectioned model file.

    A process keeps the model of the last model file it read: the file's
    bytes are read whole and, if they are those of that model, the same
    immutable model is returned, with the blocks, weights and roots it has
    kept.  The key is the bytes alone, not the path, size or timestamp, so
    two paths with the same bytes share a model and a rewritten file is
    parsed again.  A file that is refused is never kept: each call on it
    parses it again and raises its own error.  A file longer than one
    read whose first lines are no model's, such as a CSV given by mistake,
    is refused with the error of its whole parse before the rest is read.
    """
    global _last_model
    with open(path, "rb") as fh:
        data = fh.read(_MODEL_HEAD)
        if len(data) == _MODEL_HEAD:
            _parse_head(path, data)
            data += fh.read()
    last = _last_model
    if last is not None and last[0] == data:
        return last[1]
    model = _parse_model_bytes(path, data)
    _last_model = (data, model)
    return model


def _model_blocks(path, data: bytes):
    """:func:`_parse_blocks` of a model file's bytes, decoded as open()
    decodes a text file, with universal newlines, so a CRLF or CR file's
    errors name the lines an LF file's do; a leading byte-order mark is
    dropped.  Bytes that are not UTF-8 are escaped, so the line holding
    the first of them is refused in its turn, after any earlier error."""
    with TextIOWrapper(BytesIO(data), encoding="utf-8-sig",
                       errors="surrogateescape") as fh:
        return _parse_blocks(path, fh)


def _parse_head(path, head: bytes) -> None:
    # the complete lines of a file's first read; as _parse_blocks reads a
    # file in order, an error here is the first error of the whole parse
    end = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
    _model_blocks(path, head[:end])


def _parse_model_bytes(path, data: bytes) -> SemModel:
    blocks = _model_blocks(path, data)

    for required in ("dimensions", "lambda_x", "phi", "lambda_y", "gamma"):
        if required not in blocks:
            raise DataError(f"{path}: missing block [{required}]")
    if ("psi" in blocks) == ("eta_corr" in blocks):
        raise DataError(f"{path}: exactly one of [psi] or [eta_corr] is required")

    dims, key_lines = {}, {}
    for lineno, line in blocks["dimensions"]:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in DIMENSION_KEYS:
            raise DataError(
                f"line {lineno}: expected '<{'|'.join(DIMENSION_KEYS)}> <count>'"
            )
        if parts[0] in key_lines:
            raise DataError(
                f"line {lineno}: {parts[0]} repeated in [dimensions], first "
                f"given on line {key_lines[parts[0]]}"
            )
        key_lines[parts[0]] = lineno
        try:
            dims[parts[0]] = int(parts[1])
        except ValueError as exc:
            raise DataError(f"line {lineno}: non-integer dimension") from exc
    missing = [k for k in DIMENSION_KEYS if k not in dims]
    if missing:
        raise DataError(f"{path}: [dimensions] is missing {', '.join(missing)}")

    shapes = {
        "lambda_x": (dims["n_x"], dims["n_xi"]),
        "phi": (dims["n_xi"], dims["n_xi"]),
        "lambda_y": (dims["n_y"], dims["n_eta"]),
        "gamma": (dims["n_xi"], dims["n_eta"]),
        "psi": (dims["n_eta"], dims["n_eta"]),
        "eta_corr": (dims["n_eta"], dims["n_eta"]),
    }
    matrices = {}
    for name, rows in blocks.items():
        if name == "dimensions":
            continue
        m = _parse_matrix(rows, name)
        if m.shape != shapes[name]:
            raise DataError(
                f"line {rows[0][0]}: block [{name}] has shape {m.shape}, "
                f"declared dimensions imply {shapes[name]}"
            )
        matrices[name] = m

    try:
        model = SemModel(
            lambda_x=matrices["lambda_x"],
            phi=matrices["phi"],
            lambda_y=matrices["lambda_y"],
            gamma=matrices["gamma"].T,
            psi=matrices.get("psi"),
            eta_corr=matrices.get("eta_corr"),
        )
    except StructuralError as exc:
        raise DataError(f"{path}: {exc}") from exc
    report = validate_model(model)
    if not report.ok:
        raise DataError(f"{path}: {report}")
    return model


def model_hash(model: SemModel) -> str:
    """Short content hash of the model parameters, for report headers."""
    h = hashlib.sha256()
    for part in (
        model.lambda_x, model.phi.values, model.lambda_y, model.gamma, model.psi,
    ):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        h.update(b"|")
    h.update(",".join(model.factor_labels).encode())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# CSV matrices

def write_matrix_csv(path, labels, values) -> None:
    """Write a header row of labels and one row of 17-digit values per case.

    The bytes are those of ``csv.writer`` writing ``f"{v:.17g}"`` cells:
    CRLF line ends, ``-0`` spelled as Python spells it, and ``%g``'s
    trailing zeros stripped.  The body is formatted in numpy a chunk of
    whole rows at a time (``_format_cells``).  What the reader would
    refuse, or read back otherwise, raises before the file is opened: the
    containers' rule on shape, labels and finite cells, which refuses a
    matrix with no rows or no columns; a label with surrounding whitespace,
    which the reader strips; and a first label the reader takes for a
    case-id column.

    A write that fails once the file is open, interrupted or short of
    space, removes the file if it is still the regular file it opened:
    every chunk holds whole rows, so a cut-off file would read as valid.
    The write is in place, so a symlink, a FIFO or ``/dev/stdout`` is
    written through and left as it is; a file descriptor has no name to
    remove and is left to the caller.
    """
    values = np.asarray(values, dtype=float)
    labels = _check_matrix(values, path, labels)
    for lb in labels:
        if lb != lb.strip():
            raise DataError(
                f"{path}: label {lb!r} has surrounding whitespace, which the "
                "reader strips"
            )
    if labels and labels[0].lower() in CASE_ID_LABELS:
        raise DataError(
            f"{path}: first label {labels[0]!r} would be read back as a "
            "case-id column and dropped"
        )
    k = values.shape[1]
    chunk_rows = max(1, _WRITE_CHUNK_CELLS // k)
    row_ends = np.zeros((chunk_rows, k), np.intp)
    row_ends[:, -1] = 1
    row_ends = row_ends.ravel()
    # imported on the first write: where bytecode is not cached, compiling
    # the formatter would cost every process that imports the package
    # about 2.5 ms, whether it writes or not
    from ._csvformat import _format_cells

    fh = open(path, "w", encoding="utf-8", newline="")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            csv.writer(fh).writerow(labels)
            for start in range(0, values.shape[0], chunk_rows):
                block = values[start:start + chunk_rows].ravel()
                fh.write(_format_cells(block, row_ends[:block.size]))
    except BaseException:
        if _names_opened_file(path, opened):
            with contextlib.suppress(OSError):  # the original error is the one to report
                os.remove(path)
        raise


def _names_opened_file(path, opened: os.stat_result) -> bool:
    """Whether ``path`` itself, not a symlink to it nor a descriptor, names
    the regular file that ``opened`` describes."""
    if isinstance(path, int):
        return False
    try:
        now = os.lstat(path)
    except OSError:
        return False
    return stat.S_ISREG(now.st_mode) and os.path.samestat(now, opened)


def _read_header(path, fh) -> tuple[tuple[str, ...], bool]:
    """Parse the header row; say whether a leading case-id column is dropped."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    drop_first = bool(header) and header[0].lower() in CASE_ID_LABELS
    if drop_first:
        header = header[1:]
    if not header:
        raise DataError(f"{path}: no data columns in header")
    return _check_labels(header, len(header), path), drop_first


def _strict_float(cell: str) -> float:
    """``float`` cut down to the grammar of numpy's C reader: it refuses
    the ``_`` digit groups and non-ASCII digits that ``float`` accepts."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _reject(path, raw, cause: Exception) -> NoReturn:
    """Raise the ``DataError`` for the first bad row of ``path``.

    Called only after the bulk parse has failed, this reads the open binary
    handle ``raw`` again from its start, row by row under the same rules,
    and names the line at fault.  ``path`` is never opened again: ``raw``
    may be the temporary copy of a stream that cannot be read twice.
    """
    raw.seek(0)  # the handle's owner closes it, not this text view of it
    with open(raw.fileno(), encoding="utf-8-sig", errors="surrogateescape",
              newline="", closefd=False) as fh:
        last_line, escaped = "", False

        def tap():
            # the csv reader takes the lines of one record at a time
            nonlocal last_line, escaped
            for last_line in fh:
                escaped = escaped or _escaped(last_line)
                yield last_line

        lines = tap()
        header, drop_first = _read_header(path, lines)
        if escaped:
            raise _not_utf8(path, 1)
        # Line numbers count CSV records, so a quoted cell that spans lines
        # counts once. As in the bulk parse, a line holding only whitespace
        # is skipped; a quoted blank cell is not.  Bytes that are not UTF-8
        # are escaped, and their record is refused in its turn.
        for lineno, row in enumerate(csv.reader(lines), start=2):
            if escaped:
                raise _not_utf8(path, lineno)
            if last_line.isspace() and not any(cell.strip() for cell in row):
                continue
            if drop_first:
                row = row[1:]
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} cells, expected "
                    f"{len(header)}"
                )
            try:
                for cell in row:
                    _strict_float(cell)
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric cell on line {lineno}") from exc
    raise DataError(f"{path}: {cause}") from cause


def _ignore_cell(cell) -> float:
    return 0.0


def _parse(path, fh, raw) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse the open text ``fh`` of ``path``, read from the binary handle
    ``raw``, into its labels and values."""
    header, drop_first = _read_header(path, fh)
    lines = itertools.filterfalse(str.isspace, fh)
    first = next(lines, None)
    if first is None:
        raise DataError(f"{path}: no data rows")
    try:
        # numpy < 2 by default hands the converter each case id encoded
        # as latin-1, which fails for ids outside latin-1
        values = np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", comments=None,
            quotechar='"', ndmin=2, encoding=None,
            converters={0: _ignore_cell} if drop_first else None,
        )
    except ValueError as exc:
        _reject(path, raw, exc)
    if values.shape[1] != len(header) + drop_first:
        _reject(path, raw, ValueError(f"rows have {values.shape[1]} cells"))
    if drop_first:
        values = np.ascontiguousarray(values[:, 1:])
    _check_matrix(values, path, header)
    return header, values


class _HashingReader(RawIOBase):
    """A raw binary reader that feeds every byte it reads to the sidecar
    key's ``digest``."""

    def __init__(self, raw):
        self._raw = raw
        self.digest = hashlib.sha256(_SIDECAR_TAG)
        self.at_eof = False

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(buf)
        if n:
            self.digest.update(memoryview(buf)[:n])
        else:
            self.at_eof = True
        return n


def _sidecar_path(path) -> str:
    directory, name = os.path.split(os.fsdecode(path))
    return os.path.join(directory, f".{name}.cpscores.npy")


def _file_key(raw) -> bytes:
    """The sidecar key of the bytes left in ``raw``, hashed a chunk at a time."""
    reader = _HashingReader(raw)
    buf = bytearray(_HASH_CHUNK)
    while reader.readinto(buf):
        pass
    return reader.digest.digest()


def _sidecar_mode(csv_stat, sidecar_stat) -> int:
    """The permission bits a sidecar may have: its CSV's, less execute, and
    less the group's unless the sidecar has the CSV's group.  A sidecar
    holds every value of its CSV, so it is readable by no one the CSV is
    not readable by."""
    mode = stat.S_IMODE(csv_stat.st_mode) & 0o666
    if sidecar_stat.st_gid != csv_stat.st_gid:
        mode &= ~0o070
    return mode


def _load_sidecar(sidecar, raw, csv_stat):
    """The labels and values kept for the bytes of ``raw``, or None.

    Only a sidecar owned by the CSV's owner or by the reader is read: in a
    directory others may write to, such as ``/tmp``, a third user's
    sidecar would change what the read returns.  A sidecar with more
    permission bits than ``_sidecar_mode`` allows, as when the CSV was
    made private after it was cached, is a miss, so it is replaced.
    """
    trusted = {csv_stat.st_uid}
    if hasattr(os, "geteuid"):
        trusted.add(os.geteuid())
    read = np.lib.format.read_array
    try:
        with open(sidecar, "rb") as fh:
            kept = os.fstat(fh.fileno())
            if (kept.st_uid not in trusted
                    or stat.S_IMODE(kept.st_mode) & ~_sidecar_mode(csv_stat, kept)):
                return None
            key = read(fh, allow_pickle=False)
            if key.dtype != np.uint8 or key.tobytes() != _file_key(raw):
                return None
            labels = read(fh, allow_pickle=False)
            values = read(fh, allow_pickle=False)
    except Exception:  # no sidecar, or one that cannot be read: a miss
        return None
    if (labels.ndim == 1 and labels.dtype.kind == "U"
            and values.ndim == 2 and values.dtype == np.float64
            and values.flags.c_contiguous and len(labels) == values.shape[1]):
        return tuple(labels.tolist()), values
    return None


def _store_sidecar(sidecar, key: bytes, labels, values, csv_stat) -> None:
    """Keep ``labels`` and ``values`` under ``key`` in three ``.npy``
    arrays, written to a temporary file and renamed into place; a directory
    that will not take the file, or a full disk, leaves no sidecar.  The
    file is created private and given ``_sidecar_mode`` before any value
    is written."""
    label_array = np.array(labels, dtype=str)
    if tuple(label_array.tolist()) != labels:
        return  # numpy drops a label's trailing NULs
    tmp = f"{sidecar}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_BINARY", 0), 0o600)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            if hasattr(os, "fchmod"):
                os.fchmod(fd, _sidecar_mode(csv_stat, os.fstat(fd)))
            for array in (np.frombuffer(key, dtype=np.uint8), label_array, values):
                np.save(fh, array)
        os.replace(tmp, sidecar)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if not isinstance(exc, OSError):
            raise


def read_labeled_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a header row of labels and one row of finite numbers per case.

    numpy's C reader parses the body in bulk, streaming from the open file;
    lines holding only whitespace are skipped, and a leading case-id column
    is not parsed. If the bulk parse fails, a row-by-row pass re-reads the
    file and names the line at fault; a stream that cannot seek back is
    first copied to an unnamed temporary file, which that pass reads.

    A regular file's parse, read by its own path and not through a symlink,
    is kept in a sidecar beside it, keyed by the sha256 of the bytes the
    parse read; a later read of the same bytes loads the sidecar instead of
    parsing, and checks its cells and labels as a parse does.
    """
    with open(path, "rb", buffering=0) as raw, contextlib.ExitStack() as stack:
        handle, sidecar = raw, None
        opened = os.fstat(raw.fileno())
        if _names_opened_file(path, opened):
            sidecar = _sidecar_path(path)
            kept = _load_sidecar(sidecar, raw, opened)
            if kept is not None:
                labels, values = kept
                return _check_matrix(values, path, labels), values
            raw.seek(0)
        elif not raw.seekable():
            # copied to a file that a failed parse can read again; buffered,
            # as copyfileobj does not check for a short raw write
            handle = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(raw, handle)
            handle.seek(0)
        # hashed only where the key can be kept
        reader = handle if sidecar is None else _HashingReader(handle)
        with TextIOWrapper(BufferedReader(reader, _HASH_CHUNK),
                           encoding="utf-8-sig", newline="") as fh:
            try:
                labels, values = _parse(path, fh, handle)
            except UnicodeDecodeError as exc:  # outside the bulk parse
                _reject(path, handle, exc)
    if sidecar is not None and reader.at_eof:
        _store_sidecar(sidecar, reader.digest.digest(), labels, values, opened)
    return labels, values


def read_data_csv(path) -> DataMatrix:
    labels, values = read_labeled_csv(path)
    values.setflags(write=False)  # adopted by the container, not copied
    return DataMatrix(values, labels)


def read_scores_csv(path, model: SemModel | None = None) -> ScoreMatrix:
    """Read a score matrix; given a model, every column must name one of
    its factors."""
    labels, values = read_labeled_csv(path)
    if model is not None:
        unknown = [lb for lb in labels if lb not in model.factor_labels]
        if unknown:
            raise StructuralError(
                f"{path}: score columns {unknown} do not match any model "
                f"factor (model factors: {list(model.factor_labels)})"
            )
    values.setflags(write=False)  # adopted by the container, not copied
    return ScoreMatrix(values, labels, "file")


def write_scores_csv(path, scores: ScoreMatrix) -> None:
    write_matrix_csv(path, scores.labels, scores.values)
