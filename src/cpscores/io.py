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

CSV files carry a header row of labels and one numeric row per case; an
optional leading ``case``/``case_id``/``id`` column is ignored on read.
Values are written with 17 significant digits so a write/read round trip is
exact to double precision.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

from .containers import DataMatrix, FactorCorr, ScoreMatrix
from .errors import DataError, StructuralError
from .model import SemModel, validate_model

MODEL_BLOCKS = ("dimensions", "lambda_x", "phi", "lambda_y", "gamma", "psi", "eta_corr")
DIMENSION_KEYS = ("n_x", "n_xi", "n_y", "n_eta")
CASE_ID_LABELS = ("case", "case_id", "id")


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

def write_matrix_csv(path, labels, values) -> None:
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])


def read_labeled_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
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
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if drop_first:
                row = row[1:]
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} cells, expected "
                    f"{len(header)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric cell on line {lineno}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return tuple(header), np.array(rows)


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
