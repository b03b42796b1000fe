import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.errors import DataError
from latefuse.tables import (ClassLabel, ColumnSchema, FeatureTable, align_common_samples,
                             load_feature_table, partition, save_feature_table)

from conftest import make_table


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


def test_ragged_row_rejected(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1,f2\nS1,M,benign,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_feature_table(path)


def test_missing_sentinels_and_nonnumeric(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,f1,f2,f3\n"
                               "S1,M,benign,,NA,oops\n"
                               "S2,M,malignant,1.5,na,2.5\n")
    t = load_feature_table(path)
    assert t.missing[0].tolist() == [True, True, True]
    assert t.missing[1].tolist() == [False, True, False]
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
    assert t.missing.tolist() == [[True, False], [False, False]]
    assert np.isnan(t.values[0, 0]) and t.values[0, 1] == 2.5


def test_unmasked_non_finite_value_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="non-finite"):
            make_table([[1.0, bad]], [0])
    masked = make_table([[1.0, np.inf]], [0], missing=[[False, True]])
    assert masked.missing[0, 1] and np.isnan(masked.values[0, 1])


def test_custom_schema_column_order_kept(tmp_path):
    path = write_csv(tmp_path, "feat,pid,grp,outcome\n0.25,P1,X,malignant\n")
    t = load_feature_table(path, ColumnSchema(id_column="pid", cohort_column="grp",
                                              label_column="outcome"))
    assert t.sample_ids == ("P1",) and t.feature_names == ("feat",)
    assert t.groups is None


def test_group_column_carried_through(tmp_path):
    path = write_csv(tmp_path, "id,cohort,label,patient,f1\n"
                               "S1,M,benign,P7,1.0\n"
                               "S2,M,benign,P7,2.0\n"
                               "S3,M,malignant,P9,3.0\n")
    schema = ColumnSchema(group_column="patient")
    t = load_feature_table(path, schema)
    assert t.feature_names == ("f1",)
    assert t.groups == ("P7", "P7", "P9")
    sub = t.select_rows([2, 0])
    assert sub.groups == ("P9", "P7")
    out = tmp_path / "copy.csv"
    save_feature_table(t, out, schema)
    assert load_feature_table(out, schema).groups == t.groups


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
    assert (back.missing == t.missing).all()
    observed = ~t.missing
    assert np.array_equal(back.values[observed], t.values[observed])
    # a second round trip is byte-identical
    path2 = tmp_path / "t2.csv"
    save_feature_table(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_align_intersection_order_and_labels():
    a = make_table(np.arange(6).reshape(3, 2), [0, 1, 0], ids=["S1", "S2", "S3"])
    b = make_table(np.arange(8).reshape(4, 2), [1, 0, 1, 0],
                   ids=["S2", "S3", "S4", "S5"])
    ra, rb = align_common_samples(a, b)
    assert ra.sample_ids == rb.sample_ids == ("S2", "S3")
    assert ra.labels.tolist() == rb.labels.tolist() == [1, 0]


def test_align_disjoint_gives_empty_tables():
    a = make_table([[1.0, 2.0]], [0], ids=["S1"])
    b = make_table([[3.0], [4.0]], [1, 1], ids=["T1", "T2"], feature_names=["g"])
    ra, rb = align_common_samples(a, b)
    assert ra.n_samples == rb.n_samples == 0
    assert ra.feature_names == ("f000", "f001") and rb.feature_names == ("g",)


def test_align_conflicting_labels_rejected():
    a = make_table([[1.0]], [0], ids=["S1"])
    b = make_table([[1.0]], [1], ids=["S1"])
    with pytest.raises(DataError, match="conflicting"):
        align_common_samples(a, b)


def test_align_membership_symmetric():
    rng = np.random.default_rng(2)
    a = make_table(rng.normal(size=(8, 2)), rng.integers(0, 2, 8),
                   ids=[f"S{i}" for i in range(8)])
    b = make_table(rng.normal(size=(6, 2)), a.labels[2:8],
                   ids=[f"S{i}" for i in range(2, 8)])
    ab = align_common_samples(a, b)
    ba = align_common_samples(b, a)
    assert set(ab[0].sample_ids) == set(ba[0].sample_ids)


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
    assert train.class_counts() == (4569, 440)
    assert test.class_counts() == (122, 49)


def test_invalid_construction():
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 2])  # bad label value
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 1], ids=["A", "A"])
    with pytest.raises(DataError):
        make_table(np.zeros((2, 2)), [0, 1], feature_names=["x", "x"])
    with pytest.raises(DataError):
        FeatureTable(("a",), ("C",), np.array([0], dtype=np.int8), ("f",),
                     np.zeros((2, 1)), np.zeros((2, 1), dtype=bool))


def test_tables_immutable():
    t = make_table(np.eye(2), [0, 1])
    with pytest.raises(ValueError):
        t.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        t.labels[0] = 1
