"""Tabular data model: feature tables, CSV ingestion, alignment, and splits.

A FeatureTable is an immutable samples-by-features matrix with sample ids,
per-sample cohort tags, and binary class labels. A missing cell is NaN in
the values matrix, and every other value is finite. A table holds one copy
of its matrix: an array that no one can write (the library's fresh,
read-only results) becomes the table's as it is, and any other is copied.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, UnknownFeatureError, not_utf8


class ClassLabel(enum.IntEnum):
    """Binary outcome; MALIGNANT is the positive class for all metrics."""

    BENIGN = 0
    MALIGNANT = 1

    @classmethod
    def parse(cls, text: str) -> "ClassLabel":
        """Case-insensitive parse over the synonym sets {benign,0} / {malignant,1}."""
        key = str(text).strip().lower()
        if key in ("benign", "0"):
            return cls.BENIGN
        if key in ("malignant", "1"):
            return cls.MALIGNANT
        raise DataError(f"unknown class label {text!r}")

    def __str__(self) -> str:  # noqa: D105
        return "Benign" if self is ClassLabel.BENIGN else "Malignant"


@dataclass(frozen=True)
class ColumnSchema:
    """Names of the non-feature columns in a CSV file; all other columns are
    features. Every row is an independent sample."""

    id_column: str = "id"
    cohort_column: str = "cohort"
    label_column: str = "label"


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: a fresh array handed to a FeatureTable this way
    becomes its matrix without a copy."""
    a.flags.writeable = False
    return a


def _owned(a: np.ndarray) -> np.ndarray:
    """`a` itself when it is C-contiguous and neither it nor any array it
    views is writeable, so no one can change its cells; else a read-only
    C-ordered copy, so that a caller's array never reaches a table."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return a if base is None and a.flags.c_contiguous else _frozen(a.copy())


@dataclass(frozen=True)
class FeatureTable:
    sample_ids: tuple[str, ...]
    cohort: tuple[str, ...]
    labels: np.ndarray  # int8, 0=benign / 1=malignant
    feature_names: tuple[str, ...]
    values: np.ndarray  # float64 (n_samples, n_features), NaN where missing

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int8)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError("values must be a 2-D matrix")
        n, f = values.shape
        if not (len(self.sample_ids) == len(self.cohort) == labels.shape[0] == n):
            raise DataError("row count mismatch between ids, cohort, labels, and values")
        if len(self.feature_names) != f:
            raise DataError("column count mismatch between feature names and values")
        if len(set(self.sample_ids)) != n:
            raise DataError("duplicate sample id")
        if len(set(self.feature_names)) != f:
            raise DataError("duplicate feature name")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be Benign(0) or Malignant(1)")
        if np.isinf(values).any():
            raise DataError("infinite value; a missing cell must be NaN")
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "cohort", tuple(self.cohort))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "labels", _owned(labels))
        object.__setattr__(self, "values", _owned(values))

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def _feature_indices(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}

    def feature_index(self, name: str) -> int:
        try:
            return self._feature_indices[name]
        except KeyError:
            raise UnknownFeatureError(f"unknown feature {name!r}") from None

    def select_rows(self, index: Sequence[int] | np.ndarray) -> "FeatureTable":
        index = np.asarray(index, dtype=np.int64)
        return FeatureTable(
            sample_ids=tuple(self.sample_ids[i] for i in index),
            cohort=tuple(self.cohort[i] for i in index),
            labels=_frozen(self.labels[index]),
            feature_names=self.feature_names,
            values=_frozen(self.values[index]),
        )

    def select_features(self, names: Iterable[str]) -> "FeatureTable":
        names = list(names)
        cols = [self.feature_index(n) for n in names]
        return FeatureTable(
            sample_ids=self.sample_ids,
            cohort=self.cohort,
            labels=self.labels,
            feature_names=tuple(names),
            values=_frozen(self.values.take(cols, axis=1)),
        )

    def with_matrix(self, values: np.ndarray, missing: np.ndarray | bool,
                    feature_names: Sequence[str] | None = None) -> "FeatureTable":
        """Same samples, new feature matrix; the cells marked in `missing`
        (False for none) become NaN. A read-only `values` with none marked is
        taken as it is, without a copy (see FeatureTable)."""
        if np.any(missing):
            values = _frozen(np.where(missing, np.nan, values))
        return FeatureTable(
            sample_ids=self.sample_ids,
            cohort=self.cohort,
            labels=self.labels,
            feature_names=tuple(feature_names) if feature_names is not None else self.feature_names,
            values=values,
        )


def _records(fh: TextIO, path: Path) -> Iterator[tuple[int, str | None, list[str] | None]]:
    """(physical line number, text, cells) of each row of the CSV file `path`,
    open as `fh`, that is neither blank nor a comment (a first cell starting
    with '#').

    Up to the first line that holds a quote, a carriage return or a NUL, or
    is longer than csv's field size limit, a record cannot span lines and
    its cells are its text split at commas: such a row comes as (number,
    text without its line end, None), to be split by the caller. csv.reader
    reads the rest of the file from that line on, and each of its rows comes
    as (number of its last line, None, cells). Either way the cells are the
    ones csv.reader gives for the whole file. A record csv.reader refuses (a
    field longer than its limit) raises DataError naming the line.
    """
    limit = csv.field_size_limit()
    for num, line in enumerate(fh, 1):
        if '"' in line or "\r" in line or "\0" in line or len(line) > limit:
            break
        text = line.rstrip("\n")
        if text and text[0] != "#":
            yield num, text, None
    else:
        return
    reader = csv.reader(chain([line], fh))
    try:
        for row in reader:
            if row and not row[0].startswith("#"):
                yield num - 1 + reader.line_num, None, row
    except csv.Error as exc:
        raise DataError(f"{path}: line {num - 1 + reader.line_num}: {exc}") from None


CHUNK_CELLS = 4096  # feature cells held as text before they are parsed to floats


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse_cells(cells: list[str]) -> np.ndarray:
    """The float of each cell by float(), NaN where it is empty, where
    float() refuses it (text such as "NA") or where it is not finite."""
    cells = [c or "nan" for c in cells]
    try:
        values = np.fromiter(map(float, cells), float, count=len(cells))
    except ValueError:  # text such as "NA": parse cell by cell
        values = np.fromiter(map(_float_or_nan, cells), float, count=len(cells))
    values[~np.isfinite(values)] = np.nan
    return values


def _read_rows(path: Path, schema: ColumnSchema, features: Sequence[str] | None
               ) -> FeatureTable:
    """The table of a file, as load_feature_table describes it.

    The feature columns read are all of them in file order when `features`
    is None, else the named ones in the order given. A row is split only up
    to the last column read, and its feature cells are parsed to floats
    CHUNK_CELLS or so at a time, whole rows together, so that the text of
    no more cells than that is held at once.
    Faults raise in file order: an empty file, a missing or repeated role
    column, then per row a wrong cell count (named by its physical line) and
    an unknown label, then a duplicate sample id, then a duplicate feature
    name, then a name in `features` that is not a feature column.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a BOM is not data
        records = _records(fh, path)
        first = next(records, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        _, text, header = first
        if header is None:
            header = text.split(",")
        role_columns = [schema.id_column, schema.cohort_column, schema.label_column]
        for col in role_columns:
            if col not in header:
                raise DataError(f"{path}: required column {col!r} not in header")
            if header.count(col) > 1:
                raise DataError(f"{path}: duplicate role column {col!r}")
        role_ix = [header.index(c) for c in role_columns]
        all_ix = [j for j in range(len(header)) if j not in role_ix]
        column = {header[j]: j for j in all_ix}
        names = [header[j] for j in all_ix] if features is None else list(features)
        unknown = [n for n in names if n not in column]
        feat_ix = [column[n] for n in names if n in column]
        pick = itemgetter(*role_ix, *feat_ix)
        width, cut = len(header), max(role_ix + feat_ix) + 1
        ids: list[str] = []
        cohorts: list[str] = []
        labels: list[int] = []
        cells: list[str] = []
        chunks: list[np.ndarray] = []
        codes: dict[str, int] = {}  # label text -> class, each text parsed once
        for num, text, row in records:
            if row is None:
                row = text.split(",", cut)  # cells past the last one read stay joined
                n = len(row) if len(row) <= cut else cut + 1 + row[cut].count(",")
            else:
                n = len(row)
            if n != width:
                raise DataError(f"{path}: row {num} has {n} cells, expected {width}")
            sid, cohort, label, *values = pick(row)
            code = codes.get(label)
            if code is None:
                code = codes[label] = int(ClassLabel.parse(label))
            ids.append(sid)
            cohorts.append(cohort)
            labels.append(code)
            cells += values
            if len(cells) >= CHUNK_CELLS:
                chunks.append(_parse_cells(cells))
                cells = []
    for name, found in (("sample id", ids), ("feature name", [header[j] for j in all_ix])):
        if len(set(found)) != len(found):
            dupes = sorted(s for s, k in Counter(found).items() if k > 1)
            raise DataError(f"{path}: duplicate {name} {dupes[0]!r}")
    if unknown:
        raise UnknownFeatureError(f"unknown feature {unknown[0]!r}")
    chunks.append(_parse_cells(cells))
    flat = _frozen(np.concatenate(chunks))
    return FeatureTable(
        sample_ids=tuple(ids),
        cohort=tuple(cohorts),
        labels=_frozen(np.asarray(labels, dtype=np.int8)),
        feature_names=tuple(names),
        values=flat.reshape(len(ids), len(names)),
    )


def load_feature_table(path: str | Path, schema: ColumnSchema = ColumnSchema(),
                       features: Sequence[str] | None = None) -> FeatureTable:
    """Read a UTF-8, comma-separated file with one header row into a FeatureTable.

    Columns named by `schema` supply ids, cohort tags, and labels; every other
    column is a numeric feature. With `features`, only the named feature
    columns are parsed, in the order given, and a name the file lacks raises
    DataError: the result equals the full load followed by select_features,
    and `features=()` reads the role columns alone, with every check of a
    full load, without parsing a float. Feature cells that do not parse as a
    finite number (empty, "NA", "nan", "inf", any other text) become NaN, the
    missing mark. Lines starting with '#' are skipped so files written by
    save_feature_table round-trip.
    Quoted fields and CRLF line ends are read as the csv module reads them.
    A file that is not UTF-8, or holds a field longer than csv's field size
    limit, raises DataError.
    """
    path = Path(path)
    try:
        return _read_rows(path, schema, features)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def save_feature_table(table: FeatureTable, path: str | Path,
                       schema: ColumnSchema = ColumnSchema()) -> None:
    """Write a table as CSV; float cells use round-trip repr, missing cells are empty.

    Role columns (id, cohort, label) come first, then the feature columns in
    table order. Header and role cells are quoted as csv.writer quotes them,
    and so is a cell holding a lone CR, so the file loads back as saved. An
    id column name or a sample id starting with '#' would load back as a
    comment line, so either raises DataError, and so does a feature named
    like a role column, which would load back as that role. A float's repr
    needs no quoting.
    """
    if schema.id_column.startswith("#"):
        raise DataError(f"id column {schema.id_column!r} starts with '#', "
                        "which marks a comment line")
    comment = next((sid for sid in table.sample_ids if sid.startswith("#")), None)
    if comment is not None:
        raise DataError(f"sample id {comment!r} starts with '#', which marks a comment line")
    roles = (schema.id_column, schema.cohort_column, schema.label_column)
    clash = next((name for name in table.feature_names if name in roles), None)
    if clash is not None:
        raise DataError(f"feature {clash!r} has the name of a role column")
    label_names = (str(ClassLabel.BENIGN), str(ClassLabel.MALIGNANT))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        # one csv line at a time; a CR in the line terminator gets a lone CR quoted
        quoted: list[str] = []
        writer = csv.writer(SimpleNamespace(write=quoted.append), lineterminator="\r\n")
        writer.writerow([schema.id_column, schema.cohort_column, schema.label_column,
                         *table.feature_names])
        fh.write(quoted.pop()[:-2] + "\n")
        for sid, cohort, label, row in zip(table.sample_ids, table.cohort,
                                           table.labels.tolist(), table.values):
            writer.writerow((sid, cohort, label_names[label]))
            line = quoted.pop()[:-2]
            values = row.tolist()  # one row at a time
            if values:  # a finite float's repr never holds "nan", and no cell is infinite
                line += "," + ",".join(map(repr, values)).replace("nan", "")
            fh.write(line + "\n")


def align_common_samples(ids_a: Sequence[str], labels_a: np.ndarray,
                         ids_b: Sequence[str], labels_b: np.ndarray) -> tuple[list[int], list[int]]:
    """The rows of the sample ids that a and b share, in a's order: (rows of
    a, rows of b), so that ids_a[rows_a[k]] == ids_b[rows_b[k]].

    Labels must agree per shared id. Disjoint id sets yield two empty lists.
    """
    b_pos = {s: i for i, s in enumerate(ids_b)}
    rows_a = [i for i, s in enumerate(ids_a) if s in b_pos]
    rows_b = [b_pos[ids_a[i]] for i in rows_a]
    for i, j in zip(rows_a, rows_b):
        if labels_a[i] != labels_b[j]:
            raise DataError(f"conflicting labels for shared sample {ids_a[i]!r}")
    return rows_a, rows_b


def partition(table: FeatureTable, test_ids: Iterable[str]) -> tuple[FeatureTable, FeatureTable]:
    """Split into (train, test) by membership of the sample ids in `test_ids`,
    preserving row order in each part."""
    test_ids = frozenset(test_ids)
    unknown = test_ids - set(table.sample_ids)
    if unknown:
        raise DataError(f"test ids not in table: {sorted(unknown)[:5]}")
    test = np.array([s in test_ids for s in table.sample_ids], dtype=bool)
    return table.select_rows(np.flatnonzero(~test)), table.select_rows(np.flatnonzero(test))
