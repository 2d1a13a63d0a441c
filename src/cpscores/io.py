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
Exactly one of ``[psi]`` / ``[eta_corr]`` is required.

CSV files carry a header row of labels and one row of numbers per case.
The reader accepts this dialect:

* UTF-8 text, comma-delimited, ``"`` as the quote character, LF, CRLF or
  CR line ends, with or without a final one;
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
non-finite value, which the writer refuses too.  The writer emits the
header through ``csv.writer`` and each value with ``%.17g`` and CRLF line
ends, so a write/read round trip is exact to double precision; the bytes
are the same as the earlier cell-by-cell writer produced.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from typing import NoReturn

import numpy as np

from .containers import DataMatrix, FactorCorr, ScoreMatrix
from .errors import DataError, StructuralError
from .model import SemModel, validate_model

MODEL_BLOCKS = ("dimensions", "lambda_x", "phi", "lambda_y", "gamma", "psi", "eta_corr")
DIMENSION_KEYS = ("n_x", "n_xi", "n_y", "n_eta")
CASE_ID_LABELS = ("case", "case_id", "id")
# Cells formatted per write call: bounds the chunk's temporary list and text.
_WRITE_CHUNK_CELLS = 1024


def _parse_blocks(lines):
    blocks: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
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
    """Read and validate a sectioned model file."""
    with open(path, encoding="utf-8") as fh:
        blocks = _parse_blocks(fh)

    for required in ("dimensions", "lambda_x", "phi", "lambda_y", "gamma"):
        if required not in blocks:
            raise DataError(f"{path}: missing block [{required}]")
    if ("psi" in blocks) == ("eta_corr" in blocks):
        raise DataError(f"{path}: exactly one of [psi] or [eta_corr] is required")

    dims = {}
    for lineno, line in blocks["dimensions"]:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in DIMENSION_KEYS:
            raise DataError(
                f"line {lineno}: expected '<{'|'.join(DIMENSION_KEYS)}> <count>'"
            )
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

def _require_finite(path, labels, values) -> None:
    """Raise DataError naming the first non-finite cell of ``values``."""
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: non-finite value {values[row, col]} in data row "
            f"{row + 1}, column {labels[col]}"
        )


def write_matrix_csv(path, labels, values) -> None:
    """Write a header row of labels and one row of 17-digit values per case.

    The body is formatted a chunk of rows at a time by one ``%`` call on a
    repeated row template. The bytes are those of ``csv.writer`` writing
    ``f"{v:.17g}"`` cells: CRLF line ends, and ``-0`` spelled as Python
    spells it.  A non-finite value, which the reader refuses, raises
    DataError before the file is opened.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise StructuralError(
            f"{path}: values must be a 2-d matrix, got shape {values.shape}"
        )
    labels = list(labels)
    k = values.shape[1]
    if len(labels) != k:
        raise StructuralError(f"{path}: {len(labels)} labels for {k} columns")
    _require_finite(path, labels, values)
    row_template = ",".join(["%.17g"] * k) + "\r\n"
    chunk_rows = max(1, _WRITE_CHUNK_CELLS // max(k, 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(labels)
        for start in range(0, values.shape[0], chunk_rows):
            block = values[start:start + chunk_rows]
            fh.write((row_template * len(block)) % tuple(block.ravel().tolist()))


def _read_header(path, fh) -> tuple[list[str], bool]:
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
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column labels")
    return header, drop_first


def _strict_float(cell: str) -> float:
    """``float`` cut down to the grammar of numpy's C reader: it refuses
    the ``_`` digit groups and non-ASCII digits that ``float`` accepts."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _reject(path, cause: Exception) -> NoReturn:
    """Raise the ``DataError`` for the first bad row of ``path``.

    Called only after the bulk parse has failed, this re-reads the file row
    by row under the same rules and names the line at fault.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header, drop_first = _read_header(path, fh)
        last_line = ""

        def tap():
            nonlocal last_line
            for last_line in fh:
                yield last_line

        # Line numbers count CSV records, so a quoted cell that spans lines
        # counts once. As in the bulk parse, a line holding only whitespace
        # is skipped; a quoted blank cell is not.
        for lineno, row in enumerate(csv.reader(tap()), start=2):
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


def read_labeled_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a header row of labels and one row of finite numbers per case.

    numpy's C reader parses the body in bulk, streaming from the open file;
    lines holding only whitespace are skipped, and a leading case-id column
    is not parsed. If the bulk parse fails, a row-by-row pass names the
    line at fault.
    """
    with open(path, encoding="utf-8", newline="") as fh:
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
            _reject(path, exc)
    if values.shape[1] != len(header) + drop_first:
        _reject(path, ValueError(f"rows have {values.shape[1]} cells"))
    if drop_first:
        values = np.ascontiguousarray(values[:, 1:])
    _require_finite(path, header, values)
    return tuple(header), values


def read_data_csv(path) -> DataMatrix:
    labels, values = read_labeled_csv(path)
    return DataMatrix(values, labels)


def read_scores_csv(path, model: SemModel | None = None,
                    provenance: str = "file") -> ScoreMatrix:
    """Read a score matrix; block tags are taken from the model if given."""
    labels, values = read_labeled_csv(path)
    if model is None:
        return ScoreMatrix(values, labels, provenance=provenance)
    tags = dict(zip(model.factor_labels, model.factor_blocks))
    unknown = [lb for lb in labels if lb not in tags]
    if unknown:
        raise StructuralError(
            f"{path}: score columns {unknown} do not match any model factor "
            f"(model factors: {list(model.factor_labels)})"
        )
    return ScoreMatrix(
        values, labels, tuple(tags[lb] for lb in labels), provenance
    )


def write_scores_csv(path, scores: ScoreMatrix) -> None:
    write_matrix_csv(path, scores.labels, scores.values)


def format_corr(corr: FactorCorr, decimals: int = 3) -> str:
    """Human-readable correlation matrix, labels in the margin."""
    width = max(max(len(lb) for lb in corr.labels), decimals + 3)
    head = " " * (width + 1) + " ".join(f"{lb:>{width}}" for lb in corr.labels)
    lines = [head]
    for lb, row in zip(corr.labels, corr.values):
        cells = " ".join(f"{v:>{width}.{decimals}f}" for v in row)
        lines.append(f"{lb:>{width}} {cells}")
    return "\n".join(lines)
