"""Dataset CSV ingestion, model serialization, and prediction export.

Feature files are plain CSV with header ``f0,f1,...,f{d-1},label``; the
label cell holds a class name or ``?`` for unlabeled rows. Models are
stored as JSON documents whose floats round-trip bit-exactly (Python's
shortest-repr float rendering). No timestamps or environment data are
written, so identical models produce identical bytes.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .belief import Frame
from .errors import (
    CorruptFieldError,
    DimensionMismatchError,
    EmptyFileError,
    LengthMismatchError,
    MalformedCsvError,
    MissingHeaderError,
    NonFiniteInputError,
    NonNumericFeatureError,
    RaggedRowError,
    UnknownLabelError,
    UnsupportedVersionError,
    WriteFailureError,
)
from .model import EvidentialModel, ModelConfig, _class_indices, decide, forward_batch

FORMAT_VERSION = 1

UNLABELED = "?"

PREDICTIONS_HEADER = "row,m_pos,m_neg,m_omega,pl_pos,pl_neg,decision"


@dataclass
class FeatureDataset:
    """Feature matrix plus per-row optional class labels.

    labels holds indices into class_names; None marks an unlabeled row.
    """

    features: np.ndarray
    labels: list[Optional[int]]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise DimensionMismatchError(
                f"features must be a matrix, got shape {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise NonFiniteInputError("non-finite feature values")
        self.labels = list(self.labels)
        if len(self.labels) != self.features.shape[0]:
            raise LengthMismatchError(
                f"{len(self.labels)} labels for {self.features.shape[0]} rows"
            )
        self.class_names = tuple(self.class_names)
        _class_indices([lab for lab in self.labels if lab is not None], len(self.class_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    def fully_labeled(self) -> bool:
        return all(lab is not None for lab in self.labels)


def _expected_header(d: int) -> list[str]:
    return [f"f{j}" for j in range(d)] + ["label"]


def _check_cells(path: Path, rownum: int, cells: Sequence[str]) -> None:
    """Raise the error for the first faulty feature cell of a row, if any."""
    for j, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            raise NonNumericFeatureError(
                f"{path}: row {rownum}, column f{j}: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise NonNumericFeatureError(
                f"{path}: row {rownum}, column f{j}: non-finite value {cell!r}"
            )


def _records(fh, path: Path):
    """Cells of each record of a CSV file opened with newline="".

    Lines are split on "," directly until the first one that holds a quote
    or a carriage return; csv.reader parses that line and the rest of the
    file, so quoted cells and CR or CRLF line ends read as csv.reader reads
    them. An empty line is a record of no cells, as in csv.reader.
    """
    try:
        for line in fh:
            if '"' in line or "\r" in line:
                yield from csv.reader(itertools.chain((line,), fh))
                return
            line = line.rstrip("\n")
            yield line.split(",") if line else []
    except UnicodeDecodeError as exc:
        raise MalformedCsvError(f"{path}: not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise MalformedCsvError(f"{path}: {exc}") from None


def load_csv(path, class_names: Sequence[str] | None = None) -> FeatureDataset:
    """Parse a feature CSV; row numbers in errors are 1-based data rows.

    With class_names given, labels must come from that list (order
    defines the index mapping); otherwise names are collected in order
    of first appearance. The file is read in one pass, one row at a
    time, and the first faulty row in file order raises.
    """
    path = Path(path)
    fixed_names = tuple(class_names) if class_names is not None else None
    index: dict[str, int] = {}
    for i, name in enumerate(fixed_names or ()):
        index.setdefault(name, i)
    features = array.array("d")
    labels: list[Optional[int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _records(fh, path)
        header = next(reader, None)
        if header is None:
            raise EmptyFileError(f"{path}: no content")
        if len(header) < 2 or header != _expected_header(len(header) - 1):
            raise MissingHeaderError(
                f"{path}: header must be f0,...,f{{d-1}},label, got {','.join(header)}"
            )
        d = len(header) - 1
        for rownum, row in enumerate(reader, start=1):
            if len(row) != d + 1:
                raise RaggedRowError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {d + 1}"
                )
            label = row.pop()
            try:
                values = list(map(float, row))
            except ValueError:
                values = None
            # A finite sum means every value is finite; a non-finite one means
            # a bad cell or finite values that overflow, which the walk tells apart.
            if values is None or not math.isfinite(sum(values)):
                _check_cells(path, rownum, row)
            features.extend(values)
            if label == UNLABELED:
                labels.append(None)
            elif label in index:
                labels.append(index[label])
            elif fixed_names is None:
                index[label] = len(index)
                labels.append(index[label])
            else:
                raise UnknownLabelError(
                    f"{path}: row {rownum}: label {label!r} not among {fixed_names}"
                )
    return FeatureDataset(
        features=np.frombuffer(features, dtype=float).reshape(-1, d),
        labels=labels,
        class_names=fixed_names if fixed_names is not None else tuple(index),
    )


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it after another cell of a row.

    Minimal quoting: a cell holding a comma, a quote or an LF is quoted,
    with its quotes doubled; any other cell, the empty one too, is written
    bare. A CR alone does not trigger quoting, as csv.writer quotes only
    the characters of its line terminator.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("", text))
    return buf.getvalue()[1:-1]


def write_csv(dataset: FeatureDataset, path) -> None:
    """Inverse of load_csv; floats are written with round-trip precision.

    Rows are formatted one at a time, so memory stays flat in the row
    count. The bytes are those csv.writer writes for the same cells.
    """
    path = Path(path)
    # the last entry serves unlabeled rows, whose label is None
    label_cells = [_csv_cell(name) for name in (*dataset.class_names, UNLABELED)]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(_expected_header(dataset.d_in)) + "\n")
            for row, lab in zip(dataset.features, dataset.labels):
                cells = [*map(repr, row.tolist()), label_cells[-1 if lab is None else lab]]
                # csv.writer writes a row of one empty cell as ""
                fh.write((",".join(cells) or '""') + "\n")
    except OSError as exc:
        raise WriteFailureError(f"{path}: {exc}") from exc


def _model_document(model: EvidentialModel, training_meta: dict | None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {
            "d_in": model.config.d_in,
            "r": model.config.r,
            "h": model.config.h,
            "k": model.config.k,
        },
        "class_names": list(model.class_names),
        "w": model.w.tolist(),
        "b": model.b.tolist(),
        "prototypes": [
            {
                "center": model.centers[i].tolist(),
                "beta": model.beta[i].tolist(),
                "xi": float(model.xi[i]),
                "eta": float(model.eta[i]),
            }
            for i in range(model.config.r)
        ],
    }
    if training_meta is not None:
        doc["training_meta"] = training_meta
    return doc


def save_model(model: EvidentialModel, path, training_meta: dict | None = None) -> None:
    """Write the model as a deterministic JSON document.

    Floats go through Python's shortest round-trip repr, so save →
    load reproduces every parameter bit-exactly and identical models
    yield byte-identical files.
    """
    path = Path(path)
    doc = _model_document(model, training_meta)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise WriteFailureError(f"{path}: {exc}") from exc


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise CorruptFieldError(
            f"expected an object holding {key!r}, got {type(doc).__name__}"
        )
    if key not in doc:
        raise CorruptFieldError(f"missing field {key!r}")
    return doc[key]


def load_model(path) -> EvidentialModel:
    """Load a model document written by save_model."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptFieldError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptFieldError(f"{path}: not valid UTF-8: {exc.reason}") from None
    if not isinstance(doc, dict):
        raise CorruptFieldError(f"{path}: expected a JSON object")
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format_version {version!r}, supported: {FORMAT_VERSION}"
        )
    raw_cfg = _require(doc, "config")
    sizes = {key: _require(raw_cfg, key) for key in ("d_in", "r", "h", "k")}
    try:
        config = ModelConfig(**sizes)
    except ValueError as exc:
        raise CorruptFieldError(f"{path}: bad config: {exc}") from exc
    protos = _require(doc, "prototypes")
    if not isinstance(protos, list):
        raise CorruptFieldError(f"{path}: prototypes must be a list")
    if len(protos) != config.r:
        raise DimensionMismatchError(
            f"{path}: expected {config.r} prototypes, found {len(protos)}"
        )
    def block(values, name):
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CorruptFieldError(f"{path}: bad field {name!r}: {exc}") from exc
        # asarray also converts "1.5", true and null; a parameter is a
        # JSON number (bool is an int subclass, and not a number here)
        cells = [values] if arr.ndim == 0 else values
        for _ in range(arr.ndim - 1):
            cells = itertools.chain.from_iterable(cells)
        wrong = set(map(type, cells)) - {int, float}
        if wrong:
            kinds = ", ".join(sorted(kind.__name__ for kind in wrong))
            raise CorruptFieldError(f"{path}: bad field {name!r}: holds {kinds}, not numbers")
        return arr
    w = block(_require(doc, "w"), "w")
    b = block(_require(doc, "b"), "b")
    centers = block([_require(p, "center") for p in protos], "center")
    beta = block([_require(p, "beta") for p in protos], "beta")
    xi = block([_require(p, "xi") for p in protos], "xi")
    eta = block([_require(p, "eta") for p in protos], "eta")
    if centers.ndim != 2 or centers.shape[1] != config.h:
        raise DimensionMismatchError(
            f"{path}: prototype centers have shape {centers.shape}, expected (r, {config.h})"
        )
    class_names = _require(doc, "class_names")
    if not isinstance(class_names, list):
        raise CorruptFieldError(f"{path}: class_names must be a list")
    try:
        Frame(class_names)
    except ValueError as exc:
        raise CorruptFieldError(f"{path}: bad class_names: {exc}") from exc
    try:
        return EvidentialModel(
            config=config,
            class_names=class_names,
            w=w,
            b=b,
            centers=centers,
            beta=beta,
            xi=xi,
            eta=eta,
        )
    except NonFiniteInputError as exc:
        raise CorruptFieldError(f"{path}: {exc}") from exc


def export_predictions(model: EvidentialModel, dataset: FeatureDataset, path) -> int:
    """Write per-row masses, plausibilities and decisions; returns row count.

    Output header: ``row,m_pos,m_neg,m_omega,pl_pos,pl_neg,decision``
    with 0-based row indices in input order.
    """
    if model.config.k != 2:
        raise ValueError("prediction export is defined for binary models")
    if dataset.d_in != model.config.d_in:
        raise DimensionMismatchError(
            f"dataset has {dataset.d_in} features, model expects {model.config.d_in}"
        )
    lines = [PREDICTIONS_HEADER]
    if dataset.n:
        m, m_omega, pl = forward_batch(model, dataset.features)
        names = [_csv_cell(name) for name in model.class_names]
        rows = zip(m.tolist(), m_omega.tolist(), pl.tolist(), decide(pl).tolist())
        for i, ((m_pos, m_neg), m_om, (pl_pos, pl_neg), win) in enumerate(rows):
            lines.append(f"{i},{m_pos!r},{m_neg!r},{m_om!r},{pl_pos!r},{pl_neg!r},{names[win]}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise WriteFailureError(f"{path}: {exc}") from exc
    return dataset.n
