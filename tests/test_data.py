import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlshap import Dataset, ParseError, data, load_arff, load_csv, make_folds, save_csv, split

from _synth import foodtruck_like, planted_dataset, write_arff

SMALL_ARFF = """% toy file
@relation toy
@attribute height numeric
@attribute weight numeric
@attribute 'is tall' {0,1}
@attribute heavy {1,0}
@data
1.5,60.0,1,0
% a comment between rows
1.2,?,0,0
1.8,90.5,1,1
"""


def test_dataset_invariants_reject_bad_labels():
    with pytest.raises(ValueError, match="label not binary"):
        Dataset("x", [[1.0]], ["a"], [[2]], ["y"])


def test_dataset_invariants_reject_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        Dataset("x", [[1.0, 2.0]], ["a", "a"], [[1]], ["y"])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_invariants_reject_non_finite_features(value):
    with pytest.raises(ValueError, match="NaN or infinite"):
        Dataset("x", [[1.0], [value]], ["a"], [[1], [0]], ["y"])


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
def test_non_finite_feature_cell_is_a_parse_error(tmp_path, cell):
    arff = tmp_path / "bad.arff"
    arff.write_text("@relation r\n@attribute a numeric\n@attribute b {0,1}\n"
                    f"@data\n1.0,1\n{cell},0\n")
    with pytest.raises(ParseError,
                       match=rf"bad\.arff:6: non-finite value '{cell}' in column 'a'"):
        load_arff(arff, 1)
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"a,y\n1.0,1\n{cell},0\n")
    with pytest.raises(ParseError,
                       match=rf"bad\.csv:3: non-finite value '{cell}' in column 'a'"):
        load_csv(csv_path, ["y"])


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row count"):
        Dataset("x", [[1.0], [2.0]], ["a"], [[1]], ["y"])


class TestLoadArff:
    def test_small_file(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(SMALL_ARFF)
        ds = load_arff(path, 2)
        assert ds.name == "toy"
        assert ds.shape == (3, 2, 2)
        assert ds.feature_names == ["height", "weight"]
        assert ds.label_names == ["is tall", "heavy"]
        # the missing weight cell is imputed with the column mean
        assert ds.features[1, 1] == pytest.approx((60.0 + 90.5) / 2)
        assert ds.labels.tolist() == [[1, 0], [0, 0], [1, 1]]

    def test_label_names_spec(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(SMALL_ARFF)
        ds = load_arff(path, ["is tall"])
        assert ds.shape == (3, 3, 1)
        assert ds.feature_names == ["height", "weight", "heavy"]

    def test_numeric_label_rejected(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute a numeric\n@attribute b numeric\n"
                        "@data\n1,0\n")
        with pytest.raises(ParseError, match="not binary"):
            load_arff(path, 1)

    def test_width_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute a numeric\n@attribute b {0,1}\n"
                        "@data\n1.0,1\n2.0\n")
        with pytest.raises(ParseError, match=r"bad\.arff:6"):
            load_arff(path, 1)

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@nonsense\n@data\n")
        with pytest.raises(ParseError, match=r"bad\.arff:2"):
            load_arff(path, 1)

    def test_missing_label_value_rejected(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute a numeric\n@attribute b {0,1}\n"
                        "@data\n1.0,?\n")
        with pytest.raises(ParseError, match="label"):
            load_arff(path, 1)

    def test_label_spec_bounds(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(SMALL_ARFF)
        with pytest.raises(ParseError):
            load_arff(path, 4)  # would leave no features
        with pytest.raises(ParseError):
            load_arff(path, 0)

    def test_generated_roundtrip(self, tmp_path):
        ds = planted_dataset("gen", 40, 5, 3, seed=2)
        path = tmp_path / "gen.arff"
        write_arff(ds, path)
        loaded = load_arff(path, 3)
        assert loaded.shape == ds.shape
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1.0,2.0,1\n3.5,4.5,0\n5.0,6.0,1\n")
        ds = load_csv(path, ["y"])
        assert ds.shape == (3, 2, 1)
        assert ds.features[1, 0] == 3.5

    def test_label_not_binary(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1.0,2\n")
        with pytest.raises(ParseError, match="label not binary"):
            load_csv(path, ["y"])

    def test_empty_feature_cell_imputed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1.0,2.0,1\n,4.0,0\n3.0,6.0,1\n")
        ds = load_csv(path, ["y"])
        assert ds.features[1, 0] == pytest.approx(2.0)  # mean of 1.0 and 3.0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1.0,1\n")
        with pytest.raises(ParseError, match="missing column 'z'"):
            load_csv(path, ["z"])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\nfoo,1\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_csv(path, ["y"])

    def test_all_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n,1\n,0\n")
        with pytest.raises(ParseError, match="impute"):
            load_csv(path, ["y"])


class TestRepeatedNames:
    """A name given twice is a parse error naming the file and the name, not
    a Dataset error."""

    def test_arff_attribute(self, tmp_path):
        path = tmp_path / "twice.arff"
        path.write_text("@relation r\n@attribute a numeric\n@attribute a numeric\n"
                        "@attribute y {0,1}\n@data\n1,2,0\n")
        with pytest.raises(ParseError, match=r"twice\.arff: column 'a' is named twice"):
            load_arff(path, 1)

    def test_csv_header(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("a,b,a,y\n1,2,3,0\n")
        with pytest.raises(ParseError, match=r"twice\.csv: column 'a' is named twice"):
            load_csv(path, ["y"])

    @pytest.mark.parametrize("form", ["arff", "csv"])
    def test_label_named_twice(self, tmp_path, form):
        path = tmp_path / f"t.{form}"
        if form == "arff":
            path.write_text("@relation r\n@attribute a numeric\n@attribute l1 {0,1}\n"
                            "@attribute l2 {0,1}\n@data\n1,0,1\n")
        else:
            path.write_text("a,l1,l2\n1,0,1\n")
        load = load_arff if form == "arff" else load_csv
        assert load(path, ["l1", "l2"]).label_names == ["l1", "l2"]
        with pytest.raises(ParseError, match=rf"t\.{form}: label 'l1' is named twice"):
            load(path, ["l1", "l1"])


def test_csv_roundtrip_bit_exact(tmp_path):
    ds = planted_dataset("round", 30, 4, 2, seed=7)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    loaded = load_csv(path, ds.label_names)
    assert loaded.feature_names == ds.feature_names
    assert loaded.label_names == ds.label_names
    assert np.array_equal(loaded.features, ds.features)  # bit-exact
    assert np.array_equal(loaded.labels, ds.labels)


def _finish_per_cell(path, name, cells, missing, names, label_cols):
    """Reference: ``data._finish`` as a per-cell loop, each cell read by
    ``float`` and checked as it comes."""
    n_cols = len(names)
    label_set = set(label_cols)
    feature_cols = [c for c in range(n_cols) if c not in label_set]
    values = np.zeros((len(cells), n_cols), dtype=np.float64)
    for r, (line_no, row) in enumerate(cells):
        for c, text in enumerate(row):
            if missing[r][c]:
                if c in label_set:
                    data._fail(path, line_no, f"missing value in label column {names[c]!r}")
                continue
            try:
                value = values[r, c] = float(text)
            except ValueError:
                data._fail(path, line_no,
                           f"non-numeric value {text!r} in column {names[c]!r}")
            if c in label_set and value not in (0.0, 1.0):
                data._fail(path, line_no, f"label not binary: {names[c]!r} = {text!r}")
            if not math.isfinite(value):
                data._fail(path, line_no,
                           f"non-finite value {text!r} in column {names[c]!r}")
    missing_arr = np.array(missing, dtype=bool).reshape(len(cells), n_cols)
    features = data._impute_column_means(
        path, values[:, feature_cols], missing_arr[:, feature_cols],
        [names[c] for c in feature_cols])
    return Dataset(name=name, features=features,
                   feature_names=[names[c] for c in feature_cols],
                   labels=values[:, label_cols].astype(np.int64),
                   label_names=[names[c] for c in label_cols])


def _arff_rows(path):
    """The header lines and data rows (lists of cells) of an ARFF file."""
    lines = path.read_text().splitlines()
    at = lines.index("@data") + 1
    return lines[:at], [line.split(",") for line in lines[at:]]


def _write_rows(path, header, rows):
    path.write_text("\n".join(header + [r if isinstance(r, str) else ",".join(r)
                                        for r in rows]) + "\n")


def _both_loads(monkeypatch, load, *args):
    """(bulk result, per-cell result); each is a Dataset or the ParseError text."""
    out = []
    for finish in (data._finish, _finish_per_cell):
        monkeypatch.setattr(data, "_finish", finish)
        try:
            out.append(load(*args))
        except ParseError as err:
            out.append(str(err))
    return out


def _dirty_rows(rows):
    """The rows with missing and padded cells, odd number forms and comment
    lines among them."""
    rng = np.random.default_rng(5)
    dirty = []
    for i, row in enumerate(rows):
        row = list(row)
        for c in rng.choice(21, size=3, replace=False):  # feature columns only
            row[c] = rng.choice(["?", f"  {row[c]} ", f"\t{row[c]}", "1e-3", "+2",
                                 "-0.0", ".5", "3.", "1_000"])
        dirty.append(row)
        if i % 50 == 7:
            dirty.append("% a comment line")
    return dirty


class TestBulkCellParse:
    """``_finish`` reads every cell in one pass; the per-cell loop it replaced
    is the reference, bit for bit and message for message."""

    @pytest.mark.parametrize("form", ["raw", "one-decimal", "dirty"])
    def test_bit_equal_to_per_cell(self, tmp_path, monkeypatch, form):
        ds = foodtruck_like(seed=6)
        if form == "one-decimal":
            ds = Dataset(ds.name, np.round(ds.features, 1), ds.feature_names,
                         ds.labels, ds.label_names)
        path = tmp_path / "standin.arff"
        write_arff(ds, path)
        if form == "dirty":
            header, rows = _arff_rows(path)
            _write_rows(path, header, _dirty_rows(rows))
        bulk, ref = _both_loads(monkeypatch, load_arff, path, 12)
        assert isinstance(bulk, Dataset)
        assert bulk.features.tobytes() == ref.features.tobytes()
        assert bulk.labels.tobytes() == ref.labels.tobytes()
        if form != "dirty":
            assert bulk.features.tobytes() == ds.features.tobytes()
        csv_path = tmp_path / "standin.csv"
        save_csv(ds, csv_path)
        bulk, ref = _both_loads(monkeypatch, load_csv, csv_path, ds.label_names)
        assert bulk.features.tobytes() == ref.features.tobytes()
        assert bulk.labels.tobytes() == ref.labels.tobytes()

    def test_first_bad_cell_in_row_order_wins(self, tmp_path, monkeypatch):
        ds = foodtruck_like(seed=7)
        path = tmp_path / "bad.arff"
        write_arff(ds, path)
        header, rows = _arff_rows(path)
        line = len(header) + 1  # the line of data row 0
        # (row, column, cell, message), in row order; columns 21.. are labels.
        bad = [(2, 32, "2", "label not binary: 'sweets' = '2'"),
               (2, 31, "?", "missing value in label column 'mexican_food'"),
               (5, 4, "inf", "non-finite value 'inf' in column 'marital_status'"),
               (5, 22, "x", "non-numeric value 'x' in column 'chinese_food'"),
               (9, 21, "?", "missing value in label column 'snacks'"),
               (9, 0, "nan", "non-finite value 'nan' in column 'averageincome'"),
               (11, 3, "1.2.3", "non-numeric value '1.2.3' in column 'gender'")]
        bad.sort(key=lambda b: (b[0], b[1]))
        for first in range(len(bad)):
            broken = [list(row) for row in rows]
            for r, c, cell, _ in bad[first:]:
                broken[r][c] = cell
            _write_rows(path, header, broken)
            got, want = _both_loads(monkeypatch, load_arff, path, 12)
            r, _, _, message = bad[first]
            assert got == want
            assert got.startswith(f"{path}:{line + r}: {message}")


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(10, 1, 5, seed=0)
        assert len(plan.assignments) == 1
        assert len(plan.assignments[0]) == 5
        for train, test in plan.assignments[0]:
            assert test.size == 2
            assert train.size == 8

    def test_protocol_pair_count(self):
        plan = make_folds(2417, 2, 5, seed=1)
        assert sum(len(pairs) for pairs in plan.assignments) == 10

    def test_deterministic(self):
        a = make_folds(101, 2, 5, seed=9)
        b = make_folds(101, 2, 5, seed=9)
        for pa, pb in zip(a.assignments, b.assignments):
            for (tra, tea), (trb, teb) in zip(pa, pb):
                np.testing.assert_array_equal(tra, trb)
                np.testing.assert_array_equal(tea, teb)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            make_folds(3, 1, 4, seed=0)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(2, 12), st.integers(0, 5000), st.integers(0, 2**32 - 1))
    def test_partition_property(self, k, extra, seed):
        n = k + extra
        plan = make_folds(n, 1, k, seed)
        tests = [test for _, test in plan.assignments[0]]
        sizes = sorted(t.size for t in tests)
        assert sizes[-1] - sizes[0] <= 1
        union = np.sort(np.concatenate(tests))
        np.testing.assert_array_equal(union, np.arange(n))
        for train, test in plan.assignments[0]:
            np.testing.assert_array_equal(
                np.sort(np.concatenate([train, test])), np.arange(n)
            )


class TestSplit:
    def test_identity(self, small_dataset):
        sub = split(small_dataset, np.arange(small_dataset.n_instances))
        np.testing.assert_array_equal(sub.features, small_dataset.features)
        np.testing.assert_array_equal(sub.labels, small_dataset.labels)

    def test_empty(self, small_dataset):
        sub = split(small_dataset, [])
        assert sub.n_instances == 0
        assert sub.n_features == small_dataset.n_features
        assert sub.n_labels == small_dataset.n_labels

    def test_requested_order(self, small_dataset):
        sub = split(small_dataset, [2, 0])
        np.testing.assert_array_equal(sub.features[0], small_dataset.features[2])
        np.testing.assert_array_equal(sub.features[1], small_dataset.features[0])

    def test_out_of_range(self, small_dataset):
        with pytest.raises(IndexError):
            split(small_dataset, [small_dataset.n_instances])
