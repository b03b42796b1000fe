import csv
import io
import re
import tempfile
import tracemalloc
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import cli, tables
from latefuse.errors import DataError
from latefuse.synth import SynthSpec, generate
from latefuse.tables import (ClassLabel, ColumnSchema, FeatureTable, align_common_samples,
                             load_feature_table, partition, save_feature_table)

from conftest import class_counts, make_table


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic_three_rows(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1,f2\n"
                               "S1,M,benign,1.0,2.0\n"
                               "S2,M,malignant,3.0,4.0\n"
                               "S3,B,benign,5.0,6.0\n")
    t = load_feature_table(path)
    assert t.n_samples == 3 and t.n_features == 2
    assert t.sample_ids == ("S1", "S2", "S3")
    assert t.feature_names == ("f1", "f2")
    assert t.labels.tolist() == [0, 1, 0]
    assert t.cohort == ("M", "M", "B")


@pytest.mark.parametrize("header", ["id,cohort,label,f1,f2", "f1,id,cohort,label,f2"])
def test_byte_order_mark_is_not_data(tmp_path, header):
    # Excel's "CSV UTF-8" export and Notepad begin the file with U+FEFF
    cells = {"id": ("S1", "S2"), "cohort": ("M", "M"), "label": ("benign", "malignant"),
             "f1": ("1.0", "2.0"), "f2": ("3.0", "4.0")}
    text = header + "\n" + "".join(
        ",".join(cells[c][i] for c in header.split(",")) + "\n" for i in range(2))
    plain = load_feature_table(write_csv(tmp_path, text))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    bom = load_feature_table(path)
    assert bom.feature_names == plain.feature_names == ("f1", "f2")
    for field in ("sample_ids", "cohort", "labels", "values"):
        assert np.array_equal(getattr(bom, field), getattr(plain, field))


@pytest.mark.parametrize("text,expected", [
    ("MALIGNANT", ClassLabel.MALIGNANT),
    ("Malignant", ClassLabel.MALIGNANT),
    ("1", ClassLabel.MALIGNANT),
    ("benign", ClassLabel.BENIGN),
    ("BENIGN", ClassLabel.BENIGN),
    ("0", ClassLabel.BENIGN),
])
def test_label_synonyms(text, expected):
    assert ClassLabel.parse(text) is expected


def test_unknown_label_rejected(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1\nS1,M,tumor,1.0\n")
    with pytest.raises(DataError):
        load_feature_table(path)


def test_duplicate_id_rejected(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1\nS1,M,benign,1\nS1,M,benign,2\n")
    with pytest.raises(DataError, match="S1"):
        load_feature_table(path)


@pytest.mark.parametrize("role", ["id", "cohort", "label"])
def test_role_column_named_twice_rejected(tmp_path, role):
    # the second copy would otherwise load as a feature of that name
    path = write_csv(tmp_path, f"id,cohort,label,f0,{role}\nS1,M,benign,1,0\n")
    with pytest.raises(DataError, match=f"duplicate role column '{role}'"):
        load_feature_table(path)


def test_ragged_row_rejected(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1,f2\nS1,M,benign,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_feature_table(path)


def test_missing_sentinels_and_nonnumeric(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1,f2,f3\n"
                               "S1,M,benign,,NA,oops\n"
                               "S2,M,malignant,1.5,na,2.5\n")
    t = load_feature_table(path)
    assert np.isnan(t.values[0]).tolist() == [True, True, True]
    assert np.isnan(t.values[1]).tolist() == [False, True, False]
    assert t.values[1, 0] == 1.5


# spellings Python's float() reads as nan or +/-inf; case and padding vary below
NON_FINITE = ("nan", "-nan", "+nan", "inf", "-inf", "+inf", "infinity", "-infinity",
              "+infinity", "1e999", "-1e999")
non_finite_cells = st.builds(
    lambda word, upper, pad: pad + "".join(c.upper() if u else c for c, u in zip(word, upper))
    + pad,
    st.sampled_from(NON_FINITE), st.lists(st.booleans(), min_size=9, max_size=9),
    st.sampled_from(("", " ", "\t")))


@settings(max_examples=60, deadline=None)
@given(cell=non_finite_cells)
def test_non_finite_cells_become_missing(cell):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(f"id,cohort,label,f1,f2\nS1,M,benign,{cell},2.5\n"
                        "S2,M,malignant,1.5,-0.5\n", encoding="utf-8")
        t = load_feature_table(path)
    assert np.isnan(t.values).tolist() == [[True, False], [False, False]]
    assert np.isnan(t.values[0, 0]) and t.values[0, 1] == 2.5


def test_unmasked_non_finite_value_rejected():
    for bad in (np.inf, -np.inf):
        with pytest.raises(DataError, match="infinite value"):
            make_table([[1.0, bad]], [0])
    assert np.isnan(make_table([[1.0, np.nan]], [0]).values[0, 1])
    masked = make_table([[1.0, np.inf]], [0], missing=[[False, True]])
    assert np.isnan(masked.values[0, 1])


def test_custom_schema_column_order_kept(tmp_path):
    path = write_csv(tmp_path, "feat,pid,grp,outcome\n0.25,P1,X,malignant\n")
    t = load_feature_table(path, ColumnSchema(id_column="pid", cohort_column="grp",
                                              label_column="outcome"))
    assert t.sample_ids == ("P1",) and t.feature_names == ("feat",)


def test_extra_column_is_read_as_a_feature(tmp_path):
    # rows are independent samples: a patient tag is one more (non-numeric) feature
    path = write_csv(tmp_path, "id,cohort,label,patient,f1\n"
                               "S1,M,benign,P7,1.0\n"
                               "S2,M,benign,P7,2.0\n"
                               "S3,M,malignant,9,3.0\n")
    t = load_feature_table(path)
    assert t.feature_names == ("patient", "f1")
    assert np.isnan(t.values[:2, 0]).all() and t.values[2, 0] == 9.0


def test_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(7, 4)) * 1e3
    missing = rng.random((7, 4)) < 0.25
    t = make_table(vals, rng.integers(0, 2, 7), missing=missing,
                   cohorts=[f"C{i%2}" for i in range(7)])
    path = tmp_path / "t.csv"
    save_feature_table(t, path)
    back = load_feature_table(path)
    assert back.sample_ids == t.sample_ids
    assert back.feature_names == t.feature_names
    assert back.cohort == t.cohort
    assert (np.isnan(back.values) == np.isnan(t.values)).all()
    observed = ~np.isnan(t.values)
    assert np.array_equal(back.values[observed], t.values[observed])
    # a second round trip is byte-identical
    path2 = tmp_path / "t2.csv"
    save_feature_table(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_with_matrix_blanks_marked_cells_through_a_round_trip(tmp_path):
    # the call that blanks a share of a synthetic table's cells before saving it
    t = generate(SynthSpec(n_benign=6, n_malignant=5, n_features=4, seed=3))
    mask = np.random.default_rng(8).random(t.values.shape) < 0.3
    holed = t.with_matrix(t.values, mask)
    assert np.array_equal(np.isnan(holed.values), mask)
    assert np.array_equal(holed.values[~mask], t.values[~mask])
    path = tmp_path / "holed.csv"
    save_feature_table(holed, path)
    with path.open(newline="", encoding="utf-8") as fh:
        cells = [row[3:] for row in csv.reader(fh)][1:]
    assert [[c == "" for c in row] for row in cells] == mask.tolist()
    back = load_feature_table(path)
    assert np.array_equal(np.isnan(back.values), mask)
    assert np.array_equal(back.values[~mask].view(np.int64), t.values[~mask].view(np.int64))


def test_ragged_row_names_its_physical_line(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1\n# note\n\nS1,M,benign,1.0\nS2,M,benign\n")
    for features in (None, ()):
        with pytest.raises(DataError, match="row 5 has 3 cells, expected 4"):
            load_feature_table(path, features=features)


def test_duplicate_ids_named_smallest_first(tmp_path):
    rows = "".join(f"S{i % 7},M,benign,1\n" for i in range(30, 0, -1))
    path = write_csv(tmp_path, "id,cohort,label,f1\n" + rows)
    with pytest.raises(DataError, match="duplicate sample id 'S0'"):
        load_feature_table(path)


# one file per fault, and files whose faults must be reported in file order
FAULTY_FILES = {
    "empty": ("# only a comment\n\n", "empty file"),
    "no role column": ("id,label,f1\nS1,benign,1\n", "required column 'cohort'"),
    "short row": ("id,cohort,label,f1\nS1,M,benign\n", "row 2 has 3 cells"),
    "unknown label": ("id,cohort,label,f1\nS1,M,tumor,1\n", "unknown class label 'tumor'"),
    "duplicate id": ("id,cohort,label,f1\nS1,M,benign,1\nS1,M,benign,2\n",
                     "duplicate sample id 'S1'"),
    "duplicate feature": ("id,cohort,label,f1,f1\nS1,M,benign,1,2\n",
                          "duplicate feature name 'f1'"),
    "label before short row": ("id,cohort,label,f1\nS1,M,tumor,1\nS2,M,benign\n",
                               "unknown class label"),
    "short row before label": ("id,cohort,label,f1\nS1,M,benign\nS2,M,tumor,1\n",
                               "row 2 has 3 cells"),
    "short row before duplicate feature": ("id,cohort,label,f,f\nS1,M,benign,1\n",
                                           "row 2 has 4 cells"),
    "duplicate id before duplicate feature": ("id,cohort,label,f,f\nS1,M,benign,1,2\n"
                                              "S1,M,benign,3,4\n", "duplicate sample id"),
}


@pytest.mark.parametrize("name", FAULTY_FILES)
def test_role_read_raises_as_full_load(tmp_path, name):
    text, expected = FAULTY_FILES[name]
    path = write_csv(tmp_path, text)
    with pytest.raises(DataError, match=expected) as full:
        load_feature_table(path)
    with pytest.raises(DataError) as roles:
        load_feature_table(path, features=())
    assert str(roles.value) == str(full.value)


def test_role_read_keeps_roles_and_drops_features(tmp_path):
    path = write_csv(tmp_path, "f1,id,cohort,label,f2\n"
                               "1.0,S1,M,benign,x\n"
                               "2.0,S2,B,1,3\n")
    roles, full = load_feature_table(path, features=()), load_feature_table(path)
    assert roles.feature_names == () and roles.values.shape == (2, 0)
    assert (roles.sample_ids, roles.cohort) == (full.sample_ids, full.cohort)
    assert roles.labels.tolist() == full.labels.tolist() == [0, 1]


def reference_load(path, schema=ColumnSchema()):
    """The per-cell loader that load_feature_table replaced, kept verbatim as
    the reference its values are checked against."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty file")
    header, data = rows[0], rows[1:]
    role_columns = [schema.id_column, schema.cohort_column, schema.label_column]
    for col in role_columns:
        if col not in header:
            raise DataError(f"{path}: required column {col!r} not in header")
    id_ix = header.index(schema.id_column)
    cohort_ix = header.index(schema.cohort_column)
    label_ix = header.index(schema.label_column)
    role_ix = {id_ix, cohort_ix, label_ix}
    feat_ix = [j for j in range(len(header)) if j not in role_ix]
    feature_names = [header[j] for j in feat_ix]

    ids: list[str] = []
    cohorts: list[str] = []
    labels: list[int] = []
    values = np.full((len(data), len(feat_ix)), np.nan)
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        ids.append(row[id_ix])
        cohorts.append(row[cohort_ix])
        labels.append(int(ClassLabel.parse(row[label_ix])))
        for k, j in enumerate(feat_ix):
            try:
                values[i, k] = float(row[j])
            except ValueError:
                pass  # stays NaN, so it is marked missing below
    if len(set(ids)) != len(ids):
        dupes = sorted({s for s in ids if ids.count(s) > 1})
        raise DataError(f"{path}: duplicate sample id {dupes[0]!r}")
    return FeatureTable(
        sample_ids=tuple(ids),
        cohort=tuple(cohorts),
        labels=np.asarray(labels, dtype=np.int8),
        feature_names=tuple(feature_names),
        values=np.where(np.isfinite(values), values, np.nan),
    )


def csv_cell(text):
    """A text cell as a CSV file must hold it: quoted, with its quotes
    doubled, when it holds a comma, a quote, a LF or a CR."""
    return '"' + text.replace('"', '""') + '"' if set(text) & set(',"\n\r') else text


def reference_save(table, path, schema=ColumnSchema()):
    """The per-cell writer that save_feature_table replaced, the reference its
    bytes are checked against. It quotes text cells by csv_cell, where the
    original's csv.writer left a cell holding a lone CR unquoted."""
    head = [schema.id_column, schema.cohort_column, schema.label_column]
    lines = [",".join(map(csv_cell, head + list(table.feature_names)))]
    for i in range(table.n_samples):
        cells = [csv_cell(table.sample_ids[i]), csv_cell(table.cohort[i]),
                 str(ClassLabel(int(table.labels[i])))]
        for j in range(table.n_features):
            cells.append("" if np.isnan(table.values[i, j])
                         else repr(float(table.values[i, j])))
        lines.append(",".join(cells))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, 1e308, -1e308,
               1.7976931348623157e308)
# odd spellings float() reads (a blank cell is read as "nan"), and cells it
# rejects, which send the whole parse down the per-cell path
ODD_CELLS = ("", "nan", "-Infinity", "1e309", "1_0", " 2.5 ", "٣.5", "７", "-0")
REJECTED_CELLS = (" ", "NA", "0x10", "oops, text", "1,5")
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))


@st.composite
def table_files(draw, fallback):
    """CSV text of a table with shuffled role and feature columns, and the
    error its first malformed row raises (None when every row is well
    formed). With `fallback`, at least one feature cell is one of
    REJECTED_CELLS. Lines end in LF or CRLF; cohorts are plain up to a drawn
    row and may need quoting after it (one spans two lines), so some files
    have no quote at all and some have their first after several plain rows."""
    n = draw(st.integers(1 if fallback else 0, 6))
    p = draw(st.integers(1 if fallback else 0, 4))
    header = draw(st.permutations(["id", "cohort", "label"] + [f"f{j}" for j in range(p)]))
    plain = st.one_of(finite_floats.map(repr), st.sampled_from(ODD_CELLS))
    cell = st.one_of(plain, st.sampled_from(REJECTED_CELLS)) if fallback else plain
    cells = draw(st.lists(st.lists(cell, min_size=p, max_size=p), min_size=n, max_size=n))
    if fallback:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
        cells[i][j] = draw(st.sampled_from(REJECTED_CELLS))
    first_quoted = draw(st.integers(0, n))
    bad_row = draw(st.one_of(st.none(), st.integers(0, n - 1))) if n else None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    writer.writerow(header)
    fault = None
    for i, row in enumerate(cells):
        if draw(st.booleans()):
            out.write("# comment\n\n")
        cohorts = ("M", "B") if i < first_quoted else ("M", "B, 2", '"q"', "two\nlines")
        by_name = {"id": f"S{i}", "cohort": draw(st.sampled_from(cohorts)),
                   "label": draw(st.sampled_from(("benign", "Malignant", "0", "1"))),
                   **{f"f{j}": c for j, c in enumerate(row)}}
        cells_out = [by_name[name] for name in header]
        if i == bad_row:  # one cell too many or too few
            cells_out = cells_out + ["9"] if draw(st.booleans()) else cells_out[:-1]
        writer.writerow(cells_out)
        if i == bad_row:  # named by the last physical line of its record
            fault = (f"row {len(physical_lines(out.getvalue()))} has {len(cells_out)} cells, "
                     f"expected {len(header)}")
    return out.getvalue(), fault


def physical_lines(text):
    """The lines of a file as reading it with newline="" gives them."""
    return list(io.StringIO(text, newline=""))


def assert_same_table(got, want):
    assert got.sample_ids == want.sample_ids and got.cohort == want.cohort
    assert got.feature_names == want.feature_names
    assert got.labels.tolist() == want.labels.tolist()
    assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
    observed = ~np.isnan(want.values)
    assert np.array_equal(got.values[observed].view(np.int64),
                          want.values[observed].view(np.int64))


REAL_CSV_READER = csv.reader


@pytest.mark.parametrize("fallback", [False, True])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_parse_matches_per_cell_reference(fallback, data):
    # the split path reads every line before the first one holding a quote
    # or a CR, and csv.reader reads the rest of the file from that line on
    text, fault = data.draw(table_files(fallback))
    handed = [(k, line) for k, line in enumerate(physical_lines(text), 1)
              if '"' in line or "\r" in line][:1]
    if fault is not None:  # reading stops at the malformed row
        handed = [(k, line) for k, line in handed if k <= int(fault.split()[1])]
    handed = [line for _, line in handed]
    seen = []

    def spy_reader(lines, *args, **kwargs):
        lines = iter(lines)
        first = next(lines)
        seen.append(first)
        return REAL_CSV_READER(chain([first], lines), *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        p = text.split("\n", 1)[0].count(",") - 2
        subset = data.draw(st.permutations([f"f{j}" for j in range(p)]))
        subset = subset[:data.draw(st.integers(0, p))]
        with mock.patch.object(tables, "_float_or_nan", wraps=tables._float_or_nan) as slow, \
                mock.patch.object(tables.csv, "reader", spy_reader):
            if fault is not None:
                for features in (None, (), subset):
                    with pytest.raises(DataError) as err:
                        load_feature_table(path, features=features)
                    assert str(err.value) == f"{path}: {fault}"
                assert seen == handed * 3
                return
            got = load_feature_table(path)
            got_subset = load_feature_table(path, features=subset)
            roles = load_feature_table(path, features=())
        assert seen == handed * 3
        want = reference_load(path)
    assert slow.called == fallback
    assert_same_table(got, want)
    assert_same_table(got_subset, want.select_features(subset))
    assert_same_table(roles, want.select_features([]))


def test_each_reader_path_is_taken(tmp_path):
    body = "id,cohort,label,f0\nS1,M,benign,1.5\nS2,M,1,\n"
    files = {
        "no quotes": (body, False),
        "late quote": (body + 'S3,"B, 2",0,2.5\nS4,M,0,-1\n', True),
        "crlf": (body.replace("\n", "\r\n"), True),
    }
    for name, (text, by_csv) in files.items():
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(tables.csv, "reader", wraps=REAL_CSV_READER) as reader:
            got = load_feature_table(path)
        assert reader.called == by_csv, name
        assert_same_table(got, reference_load(path))


def test_load_named_features_equals_load_then_select(tmp_path):
    path = write_csv(tmp_path, "f1,id,f2,cohort,label,f3\n"
                               "1.5,S1,,M,benign,x\n"
                               "2.5,S2,3,B,1,-0.0\n")
    full = load_feature_table(path)
    for names in (["f3", "f1"], ["f2"], [], ["f1", "f2", "f3"]):
        assert_same_table(load_feature_table(path, features=names),
                          full.select_features(names))
    with pytest.raises(DataError, match="^unknown feature 'f4'$"):
        load_feature_table(path, features=["f1", "f4"])
    with pytest.raises(DataError, match="duplicate feature name"):
        load_feature_table(path, features=["f1", "f1"])
    # a fault of the file itself is reported before an unknown name
    dupe = write_csv(tmp_path, "id,cohort,label,f1\nS1,M,benign,1\nS1,M,benign,2\n", "d.csv")
    with pytest.raises(DataError, match="duplicate sample id 'S1'"):
        load_feature_table(dupe, features=["f4"])


def assert_save_matches_reference(table):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        save_feature_table(table, got)
        reference_save(table, want)
        assert got.read_bytes() == want.read_bytes()


# role cells that need quoting (a lone CR too), and a blank one
ROLE_TEXT = ("", ",", '"', "\n", "\r", "a\r\nb", 'B "x"')


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_save_matches_per_cell_reference(data):
    n, p = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
    values = data.draw(st.lists(finite_floats, min_size=n * p, max_size=n * p))
    missing = data.draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
    assert_save_matches_reference(FeatureTable(
        sample_ids=tuple(f"S{i}" + data.draw(st.sampled_from(ROLE_TEXT)) for i in range(n)),
        cohort=tuple(data.draw(st.sampled_from(("M",) + ROLE_TEXT)) for _ in range(n)),
        labels=np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                          dtype=np.int8),
        feature_names=tuple(f"f{j}" for j in range(p)),
        values=np.where(np.reshape(missing, (n, p)), np.nan, np.reshape(values, (n, p))),
    ))


@pytest.mark.parametrize("n, p", [(0, 0), (0, 3), (3, 0)])
def test_save_matches_reference_without_rows_or_features(n, p):
    assert_save_matches_reference(FeatureTable(
        sample_ids=tuple(f"S{i}{ROLE_TEXT[i + 1]}" for i in range(n)),
        cohort=ROLE_TEXT[4:4 + n],
        labels=np.arange(n, dtype=np.int8) % 2,
        feature_names=tuple(f"f{j}" for j in range(p)),
        values=np.ones((n, p)),
    ))


def test_role_text_round_trips(tmp_path):
    texts = ROLE_TEXT + ("c\rd", "\r\r", "plain")
    table = FeatureTable(
        sample_ids=texts,
        cohort=texts[::-1],
        labels=np.arange(len(texts), dtype=np.int8) % 2,
        feature_names=("f0", "\r", "f,2"),
        values=np.arange(3.0 * len(texts)).reshape(-1, 3),
    )
    path = tmp_path / "roles.csv"
    save_feature_table(table, path)
    assert_same_table(load_feature_table(path), table)


@pytest.mark.parametrize("sid", ["#1", "#", '#"x"'])
def test_save_refuses_an_id_read_back_as_a_comment(tmp_path, sid):
    table = make_table([[1.0], [2.0]], [0, 1], ids=["S1", sid])
    with pytest.raises(DataError, match=re.escape(repr(sid))):
        save_feature_table(table, tmp_path / "t.csv")


def test_save_refuses_an_id_column_read_back_as_a_comment(tmp_path):
    """The id column heads the header line, so '#id' would hide the header."""
    table = make_table([[1.0], [2.0]], [0, 1])
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match="id column '#id'"):
        save_feature_table(table, path, ColumnSchema(id_column="#id"))
    assert not path.exists()
    save_feature_table(table, path, ColumnSchema(cohort_column="#cohort"))
    assert_same_table(load_feature_table(path, ColumnSchema(cohort_column="#cohort")), table)


def test_save_refuses_a_feature_named_like_a_role_column(tmp_path):
    table = make_table([[1.0, 2.0], [3.0, 4.0]], [0, 1], feature_names=["f0", "cohort"])
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match="feature 'cohort' has the name of a role column"):
        save_feature_table(table, path)
    assert not path.exists()
    save_feature_table(table, path, ColumnSchema(cohort_column="site"))
    assert_same_table(load_feature_table(path, ColumnSchema(cohort_column="site")), table)


def test_align_intersection_order_and_labels():
    ids_a, labels_a = ("S1", "S2", "S3"), np.array([0, 1, 0])
    ids_b, labels_b = ("S2", "S3", "S4", "S5"), np.array([1, 0, 1, 0])
    rows_a, rows_b = align_common_samples(ids_a, labels_a, ids_b, labels_b)
    assert rows_a == [1, 2] and rows_b == [0, 1]
    assert [ids_a[i] for i in rows_a] == [ids_b[j] for j in rows_b] == ["S2", "S3"]
    # rows come in a's order, wherever the ids sit in b
    assert align_common_samples(ids_a, labels_a, ids_b[::-1], labels_b[::-1]) == ([1, 2], [3, 2])


def test_align_disjoint_gives_empty_tables():
    assert align_common_samples(["S1"], [0], ["T1", "T2"], [1, 1]) == ([], [])


def test_align_conflicting_labels_rejected():
    with pytest.raises(DataError, match="conflicting labels for shared sample 'S1'"):
        align_common_samples(["S0", "S1"], [1, 0], ["S1"], [1])


def test_align_membership_symmetric():
    rng = np.random.default_rng(2)
    ids = [f"S{i}" for i in range(8)]
    labels = rng.integers(0, 2, 8)
    ab_a, ab_b = align_common_samples(ids, labels, ids[2:][::-1], labels[2:][::-1])
    ba_b, ba_a = align_common_samples(ids[2:][::-1], labels[2:][::-1], ids, labels)
    assert sorted(zip(ab_a, ab_b)) == sorted(zip(ba_a, ba_b))


def test_partition_disjoint_exhaustive():
    t = make_table(np.arange(20).reshape(10, 2), [0, 1] * 5)
    train, test = partition(t, {"S0001", "S0003", "S0005", "S0007"})
    assert train.n_samples == 6 and test.n_samples == 4
    assert set(train.sample_ids) | set(test.sample_ids) == set(t.sample_ids)
    assert not set(train.sample_ids) & set(test.sample_ids)
    # order preserved inside each part
    assert list(test.sample_ids) == sorted(test.sample_ids)


def test_partition_empty_test_is_identity():
    t = make_table(np.eye(3), [0, 1, 0])
    train, test = partition(t, ())
    assert train.sample_ids == t.sample_ids and test.n_samples == 0
    assert np.array_equal(train.values, t.values)


def test_partition_unknown_id_rejected():
    t = make_table(np.eye(3), [0, 1, 0])
    with pytest.raises(DataError):
        partition(t, ["nope"])


def test_partition_matches_published_cohort_sizes():
    # train/test shape of the larger modality: 4569+440 train, 122+49 test
    labels = [0] * 4569 + [1] * 440 + [0] * 122 + [1] * 49
    n = len(labels)
    t = make_table(np.zeros((n, 1)), labels)
    test_ids = frozenset(t.sample_ids[4569 + 440:])
    train, test = partition(t, test_ids)
    assert train.n_samples == 5009 and test.n_samples == 171
    assert class_counts(train) == (4569, 440)
    assert class_counts(test) == (122, 49)


def test_invalid_construction():
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 2])  # bad label value
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 1], ids=["A", "A"])
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 1], feature_names=["x", "x"])
    with pytest.raises(DataError):
        FeatureTable(("a",), ("C",), np.array([0], dtype=np.int8), ("f",),
                     np.zeros((2, 1)))


def test_tables_immutable():
    values, labels = np.eye(2), np.array([0, 1], dtype=np.int8)
    hidden = values.view()  # read-only, but a view of the writeable `values`
    hidden.flags.writeable = False
    t = make_table(values, labels)
    made = [t, make_table(hidden, labels), t.with_matrix(values, False),
               t.select_rows([1, 0]), t.select_features(["f001"]),
               t.with_matrix(t.values, np.eye(2, dtype=bool))]
    values[:], labels[:] = 7.0, 1  # the caller's arrays stay writeable
    assert [u.values.tolist() for u in made[:3]] == [[[1.0, 0.0], [0.0, 1.0]]] * 3
    assert made[3].values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert made[4].values.tolist() == [[0.0], [1.0]]
    assert np.isnan(made[5].values).tolist() == [[True, False], [False, True]]
    assert all(u.labels.tolist() in ([0, 1], [1, 0]) for u in made)
    for u in made:
        assert u.values.flags.c_contiguous
        with pytest.raises(ValueError):
            u.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            u.labels[0] = 1
    # a matrix no one can write is shared, not copied
    assert t.with_matrix(t.values, False).values is t.values


def rows_text(rows, end="\n"):
    return "".join(",".join(map(str, row)) + end for row in rows)


HEADER = ["id", "cohort", "label", "f0", "f1", "f2"]
PLAIN = [[f"S{i}", "M", i % 2, f"{i}.25", f"-{i}e-3", i] for i in range(8)]
CHUNK_FILES = {
    # the only text float() refuses sits in the last rows, in a late chunk
    "late NA": rows_text([HEADER] + PLAIN + [["S8", "M", 0, "NA", 1, "2"]]),
    # blank first and last feature cells, which fall on chunk edges
    "blank edges": rows_text([HEADER] + [row[:3] + ["", row[4], ""] if i % 3 else row
                                         for i, row in enumerate(PLAIN)]),
    # csv.reader takes over mid-file, at a quoted cell or at a CRLF line end
    "late quote": rows_text([HEADER] + PLAIN[:5] + [["S8", '"B, 2"', 1, "", "inf", "3"]]
                            + PLAIN[5:]),
    "late CRLF": rows_text([HEADER] + PLAIN[:4]) + rows_text(PLAIN[4:], "\r\n"),
}


@pytest.mark.parametrize("chunk", [1, 2, 4, 7])
@pytest.mark.parametrize("name", CHUNK_FILES)
def test_chunked_parse_equals_one_shot_parse(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / "data.csv"
    path.write_bytes(CHUNK_FILES[name].encode())
    for features in (None, ["f2", "f0"], ()):
        monkeypatch.setattr(tables, "CHUNK_CELLS", 10 ** 9)  # one chunk: the whole file
        with mock.patch.object(tables, "_parse_cells", wraps=tables._parse_cells) as parse:
            want = load_feature_table(path, features=features)
        assert parse.call_count == 1
        monkeypatch.setattr(tables, "CHUNK_CELLS", chunk)
        with mock.patch.object(tables, "_parse_cells", wraps=tables._parse_cells) as parse, \
                mock.patch.object(tables, "_float_or_nan", wraps=tables._float_or_nan) as slow:
            got = load_feature_table(path, features=features)
        n, p = got.values.shape  # whole rows of at least `chunk` cells, then the rest
        assert parse.call_count == (n // -(-chunk // p) if p else 0) + 1
        if name == "late NA" and features is None:  # only the NA row's chunk goes cell by cell
            assert 0 < slow.call_count < n * p
        assert_same_table(got, want)
        assert got.values.tobytes() == want.values.tobytes()  # NaN bits too
    assert_same_table(load_feature_table(path), reference_load(path))


def test_load_and_preprocess_hold_few_copies_of_the_matrix(tmp_path):
    """Traced peak of a load, and of the scaling and imputation of its table,
    over the bytes of the float matrix. The parse held a text object per
    cell and a second list of them (12.7 times the matrix), and preprocessing
    reached 6.1 times it; 2.3 and 3.3 times it are measured."""
    table = generate(SynthSpec(n_benign=2700, n_malignant=300, n_features=100, seed=5))
    rng = np.random.default_rng(5)
    path = tmp_path / "wide.csv"
    save_feature_table(table.with_matrix(table.values, rng.random((3000, 100)) < 0.01), path)
    matrix = table.values.nbytes
    config = SimpleNamespace(per_cohort=False, max_missing_fraction=0.2)
    tracemalloc.start()
    try:
        loaded = load_feature_table(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cli._preprocess_full(config, loaded)
        preprocess_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert load_peak <= 4 * matrix, load_peak / matrix
    assert preprocess_peak <= 3.5 * matrix, preprocess_peak / matrix
