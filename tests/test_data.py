"""Dataset loading, standardization, alignment, and Laplacian construction."""

import csv
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepred import data
from stablepred.data import (
    Dataset,
    FeatureGraph,
    align_common_features,
    build_laplacian,
    load_dataset,
    load_feature_graph,
    make_dataset,
    standardize,
    standardize_like,
    write_dataset_csv,
    write_feature_graph,
)
from stablepred.stability import BootstrapEnsemble, feature_importance
from stablepred.synthetic import DEFAULT_SPEC, SyntheticSpec, generate, write_bundle

from conftest import force_workers, needs_pool, same_bits, traced_peak


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def csv_writer_dataset(d, path, label_column="label"):
    """Reference: the csv.writer loop write_dataset_csv used before it streamed
    joined rows, kept verbatim so the two can be compared byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if d.labeled:
            writer.writerow(list(d.feature_names) + [label_column])
            for row, label in zip(d.X, d.y):
                writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
        else:
            writer.writerow(list(d.feature_names))
            for row in d.X:
                writer.writerow([repr(float(v)) for v in row])


# -0.0, subnormals, the smallest normal, and both sides of the magnitudes
# where repr switches between positional and exponent notation (1e16, 1e-4)
EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072004e-308, 2.2250738585072014e-308,
               9999999999999998.0, 1e16, -1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
               1e-05, 0.1 + 0.2, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
# names csv must quote: delimiter, quote char, line breaks; and ones it must not
QUOTED_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", " padded ", "plain", "", "é"]


def written_bytes(writer, d, path, **kwargs):
    writer(d, path, **kwargs)
    return path.read_bytes()


class TestWriteDatasetCsv:
    @given(
        st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
            st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True)
            | st.permutations(QUOTED_NAMES).map(lambda names: names[:n]),
            st.lists(
                st.lists(st.sampled_from(EDGE_VALUES) | st.floats(allow_subnormal=True),
                         min_size=n, max_size=n),
                min_size=1, max_size=6,
            ),
            st.booleans(),
        ))
    )
    @settings(max_examples=150, deadline=None)
    # column statistics of NaN, infinite and near-maximal values warn; X is kept as given
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bytes_equal_csv_writer(self, tmp_path_factory, case):
        names, rows, labeled = case
        X = np.array(rows)
        y = np.where(np.arange(len(X)) % 2, 1.0, -1.0) if labeled else None
        d = make_dataset(X, y=y, feature_names=names)
        tmp = tmp_path_factory.mktemp("write")
        assert (written_bytes(write_dataset_csv, d, tmp / "new.csv")
                == written_bytes(csv_writer_dataset, d, tmp / "old.csv"))

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_non_float64_cells_written_as_floats(self, tmp_path, labeled, dtype):
        X = np.array([[1, -2, 3], [40, 0, -6]], dtype=dtype)
        d = Dataset(feature_names=("a", "b", "c"), X=X,
                    y=np.array([1.0, -1.0]) if labeled else None,
                    raw_mean=np.zeros(3), raw_std=np.ones(3))
        assert (written_bytes(write_dataset_csv, d, tmp_path / "new.csv", label_column="y")
                == written_bytes(csv_writer_dataset, d, tmp_path / "old.csv", label_column="y"))
        assert b"40.0,0.0,-6.0" in (tmp_path / "new.csv").read_bytes()

    @pytest.mark.parametrize("labeled", [True, False])
    def test_no_feature_columns(self, tmp_path, labeled):
        d = make_dataset(np.zeros((2, 0)), y=[1.0, -1.0] if labeled else None)
        assert (written_bytes(write_dataset_csv, d, tmp_path / "new.csv")
                == written_bytes(csv_writer_dataset, d, tmp_path / "old.csv"))

    @pytest.mark.parametrize("labeled", [True, False])
    def test_synthetic_cohort(self, tmp_path, labeled):
        spec = SyntheticSpec(n_samples=300, n_groups=10, group_size=20,
                             within_group_noise=0.3, n_informative_groups=3,
                             true_weight_scale=1.0, label_noise=0.05, seed=3)
        d = generate(spec)
        if not labeled:
            d = make_dataset(d.X, feature_names=d.feature_names)
        assert (written_bytes(write_dataset_csv, d, tmp_path / "new.csv")
                == written_bytes(csv_writer_dataset, d, tmp_path / "old.csv"))

    def test_feature_named_as_label_column_refused(self, tmp_path):
        # the header used to repeat the name, and load_dataset refused the file
        d = make_dataset([[1.0, 2.0], [3.0, 4.0]], y=[1, -1], feature_names=["label", "b"])
        with pytest.raises(ValueError, match="label column 'label' is also a feature name"):
            write_dataset_csv(d, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()
        write_dataset_csv(d, tmp_path / "d.csv", label_column="y")
        assert load_dataset(tmp_path / "d.csv", label_column="y").feature_names == ("label", "b")


def record_formatting_pids(monkeypatch, path):
    """Append the pid of the process that formats each cell to ``path``."""
    def recording_repr(value):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return repr(value)

    monkeypatch.setattr(data, "repr", recording_repr, raising=False)


@needs_pool
class TestPooledWrite:
    """Cohorts of ``_POOLED_WRITE_CELLS`` cells or more are formatted in row
    chunks of about ``_WRITE_CHUNK_CELLS`` cells by pool workers and written in
    row order, byte for byte as the serial write."""

    @given(
        st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(
            st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True)
            | st.permutations(QUOTED_NAMES).map(lambda names: names[:n]),
            st.lists(
                st.lists(st.sampled_from(EDGE_VALUES) | st.floats(allow_subnormal=True),
                         min_size=n, max_size=n),
                min_size=1, max_size=8,
            ),
            st.booleans(),
            # 1 cell: each row wider than a chunk, one row a job; 10**6: one job
            st.sampled_from([1, 4, 9, 10**6]),
        ))
    )
    @example((["a"], [[1.5]], True, 1))  # one row
    @example(([], [[], [], []], True, 1))  # no feature columns
    @example(([], [[], [], []], False, 1))
    @example((QUOTED_NAMES[:3], [[0.5, -0.0, 1e16]] * 7, False, 4))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bytes_equal_csv_writer(self, tmp_path_factory, case):
        names, rows, labeled, chunk_cells = case
        X = np.array(rows).reshape(len(rows), len(names))
        y = np.where(np.arange(len(X)) % 2, 1.0, -1.0) if labeled else None
        d = make_dataset(X, y=y, feature_names=names)
        with pytest.MonkeyPatch.context() as m:
            force_workers(m, 2)
            m.setattr(data, "_POOLED_WRITE_CELLS", 0)
            m.setattr(data, "_WRITE_CHUNK_CELLS", chunk_cells)
            tmp = tmp_path_factory.mktemp("write")
            assert (written_bytes(write_dataset_csv, d, tmp / "new.csv")
                    == written_bytes(csv_writer_dataset, d, tmp / "old.csv"))
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def cohort(self):
        spec = SyntheticSpec(n_samples=40, n_groups=2, group_size=3, n_informative_groups=1, seed=5)
        return generate(spec)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_chunks_formatted_in_workers(self, tmp_path, monkeypatch, cohort, labeled):
        d = cohort if labeled else make_dataset(cohort.X, feature_names=cohort.feature_names)
        expected = written_bytes(csv_writer_dataset, d, tmp_path / "old.csv")
        pids = tmp_path / "pids"
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(data, "_POOLED_WRITE_CELLS", d.X.size)
        monkeypatch.setattr(data, "_WRITE_CHUNK_CELLS", 30)  # 5 rows: 8 jobs
        record_formatting_pids(monkeypatch, pids)
        assert written_bytes(write_dataset_csv, d, tmp_path / "new.csv") == expected
        formatters = list(map(int, pids.read_text(encoding="utf-8").split()))
        assert len(formatters) == d.X.size and os.getpid() not in formatters
        assert multiprocessing.active_children() == []

    def test_failed_write_keeps_row_order_and_stops_the_pool(self, tmp_path, monkeypatch,
                                                              cohort):
        expected = written_bytes(csv_writer_dataset, cohort, tmp_path / "old.csv")
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(data, "_POOLED_WRITE_CELLS", 0)
        monkeypatch.setattr(data, "_WRITE_CHUNK_CELLS", 30)  # 5 rows: 8 jobs
        real_open = open

        class FillingDisk:
            """A file whose disk fills after the first three chunks."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def writelines(self, chunks):
                for i, text in enumerate(chunks):
                    if i == 3:
                        raise OSError(28, "No space left on device")
                    self.fh.write(text)

        monkeypatch.setattr(data, "open", FillingDisk, raising=False)
        with pytest.raises(OSError, match="No space left") as failure:
            write_dataset_csv(cohort, tmp_path / "new.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + 15 and expected.startswith(written)
        # the traceback still holds the writer's frame, and with it the chunks
        assert failure.traceback and multiprocessing.active_children() == []

    def test_below_threshold_formats_in_parent(self, tmp_path, monkeypatch, cohort):
        expected = written_bytes(csv_writer_dataset, cohort, tmp_path / "old.csv")
        pids = tmp_path / "pids"
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(data, "_POOLED_WRITE_CELLS", cohort.X.size + 1)
        monkeypatch.setattr(data, "_WRITE_CHUNK_CELLS", 30)
        monkeypatch.setattr(data, "imap_in_order", None)  # starting a pool would fail
        record_formatting_pids(monkeypatch, pids)
        assert written_bytes(write_dataset_csv, cohort, tmp_path / "new.csv") == expected
        assert pids.read_text(encoding="utf-8").split() == [str(os.getpid())] * cohort.X.size


class TestColumnStatisticsWaitForStandardize:
    """Building or loading a cohort holds no column-statistic temporary."""

    @pytest.fixture
    def X(self):
        return np.random.default_rng(11).normal(size=(2000, 500))

    def test_make_dataset_traced_peak(self, X):
        d, peak = traced_peak(lambda: make_dataset(X))
        assert d.X is X and peak <= 0.02 * X.nbytes  # 0.009; 1.01 with the std

    @pytest.mark.parametrize("labeled, bound", [(True, 2.1), (False, 1.25)])
    def test_load_dataset_traced_peak(self, tmp_path, X, labeled, bound):
        # labeled: the parsed rows and X without the label column, 2.02;
        # unlabeled: the parsed rows, 1.19; each 1.0 more with the std
        y = np.where(np.arange(len(X)) % 2, 1.0, -1.0) if labeled else None
        write_dataset_csv(make_dataset(X, y=y), tmp_path / "d.csv")
        label = "label" if labeled else None
        d, peak = traced_peak(lambda: load_dataset(tmp_path / "d.csv", label_column=label))
        assert d.X.tobytes() == X.tobytes() and peak <= bound * X.nbytes


class TestLoadDataset:
    def test_two_row_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f2,label\n1,2,1\n3,4,-1\n")
        d = load_dataset(p, label_column="label")
        assert d.n_samples == 2 and d.n_features == 2
        assert d.raw_mean is None and d.raw_std is None
        # population std of {1,3} and {2,4} is 1
        np.testing.assert_allclose(standardize(d).raw_std, [1.0, 1.0])
        np.testing.assert_array_equal(d.y, [1.0, -1.0])

    def test_no_label_column_gives_unlabeled(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f2\n1,2\n3,4\n")
        d = load_dataset(p)
        assert d.y is None and not d.labeled

    def test_duplicate_column_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f1,label\n1,2,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(p, label_column="label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,label\nxyz,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(p, label_column="label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        p = write_csv(tmp_path / "d.csv", f"f1,f2,label\n1,2,1\n3,{cell},-1\n")
        with pytest.raises(ValueError, match=f"non-finite value '{cell}' at row 3, column 'f2'"):
            load_dataset(p, label_column="label")

    def test_non_finite_label_and_unlabeled_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,label\n1,nan\n")
        with pytest.raises(ValueError, match="non-finite value 'nan' at row 2, column 'label'"):
            load_dataset(p, label_column="label")
        p = write_csv(tmp_path / "u.csv", "f1,f2\n1,2\ninf,4\n")
        with pytest.raises(ValueError, match="at row 3, column 'f1'"):
            load_dataset(p)

    def test_label_outside_accepted_set(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,label\n1,2\n")
        with pytest.raises(ValueError, match="label value"):
            load_dataset(p, label_column="label")

    def test_zero_labels_mapped_with_warning(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,label\n1,0\n2,1\n3,0\n")
        with pytest.warns(UserWarning, match="2 label value"):
            d = load_dataset(p, label_column="label")
        np.testing.assert_array_equal(d.y, [-1.0, 1.0, -1.0])

    def test_ragged_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f2,label\n1,2,1\n3,-1\n")
        with pytest.raises(ValueError, match="row 3 has 2 fields, expected 3"):
            load_dataset(p, label_column="label")
        p = write_csv(tmp_path / "w.csv", "f1,f2\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="row 2 has 3 fields, expected 2"):
            load_dataset(p)

    @pytest.mark.parametrize(
        "text,row",
        [("f1,f2\n1,2\n\n3,4\n", 3), ("f1,f2\r\n1,2\r\n3,4\r\n\r\n", 4), ("f1,f2\n\n", 2)],
    )
    def test_blank_line_rejected(self, tmp_path, text, row):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(ValueError, match=f"row {row} has 0 fields, expected 2"):
            load_dataset(p)

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f2\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(p)

    def test_quoted_and_padded_numeric_cells(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", 'f1,f2,label\n"1.5", 2e-3 ,"-1"\n-.5,+7,1\n')
        d = load_dataset(p, label_column="label")
        np.testing.assert_array_equal(d.X, [[1.5, 2e-3], [-0.5, 7.0]])
        np.testing.assert_array_equal(d.y, [-1.0, 1.0])

    @pytest.mark.parametrize("cell", ["1_000", "\uff11", "0x10", "1,5", "", "1.5.2"])
    def test_cells_outside_ascii_float_syntax_rejected(self, tmp_path, cell):
        # float() accepts "1_000" and the full-width digit one; the loader does
        # not, and names the cell instead of reading a number from it
        p = write_csv(tmp_path / "d.csv", f'f1,f2\n1,2\n3,"{cell}"\n')
        with pytest.raises(ValueError, match=f"non-numeric value {cell!r} at row 3, column 'f2'"):
            load_dataset(p)

    def test_first_fault_in_row_order_named(self, tmp_path):
        # a non-finite cell is reported only once every row parses, as before
        p = write_csv(tmp_path / "d.csv", "f1,f2\nnan,1\n2,x\n")
        with pytest.raises(ValueError, match="non-numeric value 'x' at row 3, column 'f2'"):
            load_dataset(p)
        p = write_csv(tmp_path / "e.csv", "f1,f2\n1,inf\nnan,1\n")
        with pytest.raises(ValueError, match="non-finite value 'inf' at row 2, column 'f2'"):
            load_dataset(p)

    @given(st.text(alphabet="0123456789.eE+-_ inaf\uff11", max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_every_rejected_cell_is_located(self, tmp_path_factory, cell):
        p = write_csv(tmp_path_factory.mktemp("cell") / "d.csv", f"f1,f2\n0,{cell}\n")
        try:
            d = load_dataset(p)
        except ValueError as e:
            assert "row 2" in str(e)
        else:
            assert d.X[0, 1] == float(cell)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    @example([-0.0, 5e-324, 2.2250738585072009e-308, 0.1 + 0.2, -1.7976931348623157e308])
    # column statistics of values near the float maximum overflow; X does not
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, values):
        X = np.array(values).reshape(-1, 1) * np.array([1.0, -1.0])
        d = make_dataset(X, y=np.where(np.arange(len(X)) % 2, 1.0, -1.0))
        path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
        write_dataset_csv(d, path)
        assert load_dataset(path, label_column="label").X.tobytes() == X.tobytes()

    def test_roundtrip_through_csv(self, tmp_path):
        d = make_dataset(np.array([[0.25, -1.5], [3.125, 2.0]]), y=[1, -1], feature_names=["a", "b"])
        write_dataset_csv(d, tmp_path / "d.csv")
        d2 = load_dataset(tmp_path / "d.csv", label_column="label")
        np.testing.assert_array_equal(d.X, d2.X)
        np.testing.assert_array_equal(d.y, d2.y)
        assert d.feature_names == d2.feature_names


class TestStandardize:
    def test_basic_columns(self):
        d = make_dataset(np.array([[1.0, 5.0], [3.0, 5.0]]))
        s = standardize(d)
        np.testing.assert_allclose(s.X[:, 0], [-1.0, 1.0])
        # constant column becomes all zeros, raw_std entry stays 0
        np.testing.assert_allclose(s.X[:, 1], [0.0, 0.0])
        assert s.raw_std[0] == 1.0 and s.raw_std[1] == 0.0

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        s = standardize(make_dataset(rng.normal(3.0, 2.5, size=(40, 6))))
        assert np.all(np.abs(s.X.mean(axis=0)) < 1e-12)
        np.testing.assert_allclose(s.X.std(axis=0), 1.0, atol=1e-12)

    def test_double_standardization_rejected(self):
        s = standardize(make_dataset(np.array([[1.0], [3.0]])))
        with pytest.raises(ValueError, match="already standardized"):
            standardize(s)

    def test_idempotent_in_effect(self):
        rng = np.random.default_rng(6)
        s = standardize(make_dataset(rng.normal(size=(30, 4)) * 7 + 2))
        again = (s.X - s.X.mean(axis=0)) / s.X.std(axis=0)
        assert np.max(np.abs(again - s.X)) < 1e-12

    def test_standardize_like_uses_reference_stats(self):
        ref = standardize(make_dataset(np.array([[0.0], [2.0]])))  # mean 1, std 1
        other = make_dataset(np.array([[3.0], [5.0]]))
        s = standardize_like(other, ref)
        np.testing.assert_allclose(s.X[:, 0], [2.0, 4.0])
        assert s.raw_mean is ref.raw_mean and s.raw_std is ref.raw_std

    def test_standardize_like_rejects_unstandardized_reference(self):
        ref = make_dataset(np.array([[0.0], [2.0]]))
        with pytest.raises(ValueError, match="reference dataset is not standardized"):
            standardize_like(make_dataset(np.array([[3.0], [5.0]])), ref)

    # rejected before any statistic is computed, so without numpy's warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cells, message", [
        ([[np.inf, 1.0], [0.0, 2.0]], "non-finite value inf at row 0, column 'f0'"),
        ([[0.0, 1.0], [3.0, np.nan]], "non-finite value nan at row 1, column 'f1'"),
    ], ids=["inf", "nan"])
    def test_non_finite_cell_rejected(self, cells, message):
        with np.errstate(invalid="ignore"):  # make_dataset keeps non-finite cells
            d = make_dataset(cells, y=[1, -1])
        with pytest.raises(ValueError, match=message):
            standardize(d)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_standardize_like_rejects_non_finite_cell(self):
        ref = standardize(make_dataset([[0.0, 1.0], [2.0, 3.0]]))
        with np.errstate(invalid="ignore"):
            d = make_dataset([[0.0, 1.0], [-np.inf, 2.0]])
        with pytest.raises(ValueError, match="non-finite value -inf at row 1, column 'f0'"):
            standardize_like(d, ref)

    @pytest.mark.parametrize("value, m", [(1.1, 200), (0.1, 3), (-2.7, 41)])
    def test_constant_column_without_binary_form_becomes_zeros(self, value, m):
        # the column's rounded mean differs from its value by an ulp; its std
        # used to come out a few ulps, not 0, and the column standardized to +-1
        X = np.column_stack([np.full(m, value), np.arange(m, dtype=float)])
        d = standardize(make_dataset(X))
        assert d.raw_std[0] == 0.0 and d.raw_std[1] == X[:, 1].std()
        assert np.all(d.X[:, 0] == 0.0)
        validation = make_dataset(np.column_stack([np.full(4, value + 0.1), np.arange(4.0)]))
        assert np.all(standardize_like(validation, d).X[:, 0] == 0.0)
        ensemble = BootstrapEnsemble(weights=np.ones((2, 2)), seeds=(0, 1), model_tag="t")
        assert feature_importance(ensemble, d.raw_std).importance[0] == 0.0

    # rejected before any statistic is computed, so without numpy's warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_standardize_like_rejects_a_reference_column_holding_inf(self):
        # raw mean inf and raw std nan used to erase the cohort's column to zeros;
        # a reference takes its statistics from standardize, which refuses the cell
        with np.errstate(invalid="ignore"):  # make_dataset keeps non-finite cells
            ref = make_dataset([[np.inf, 1.0], [0.0, 3.0]])
        with pytest.raises(ValueError, match="non-finite value inf at row 0, column 'f0'"):
            standardize(ref)

    @staticmethod
    def two_buffers(X, mean, std):
        # the form that held a zeros buffer beside the centered copy
        centered = X - mean
        return np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)

    def test_same_bits_as_two_buffer_form(self):
        rng = np.random.default_rng(9)
        X = rng.normal(2.0, 3.0, size=(40, 4))
        X[:, 1] = 0.7  # a constant column
        s = standardize(make_dataset(X))
        assert same_bits(s.X, self.two_buffers(X, s.raw_mean, s.raw_std))
        # the reference holds column 2 constant; its column 0 has mean +0.0, so the
        # cell -0.0 centers to -0.0
        ref_X = rng.normal(size=(30, 4))
        ref_X[:, 0] = np.tile([-1.5, 1.5], 15)
        ref_X[:, 2] = -4.0
        ref = standardize(make_dataset(ref_X))
        other = rng.normal(size=(25, 4))
        other[0, 0] = -0.0
        got = standardize_like(make_dataset(other), ref).X
        want = self.two_buffers(other, ref.raw_mean, ref.raw_std)
        assert ref.raw_std[2] == 0.0 and np.signbit(want[0, 0]) and same_bits(got, want)

    def test_traced_peak_is_one_cohort(self):
        d = make_dataset(np.random.default_rng(10).normal(size=(2000, 500)))
        ref = standardize(d)
        for rescale in (standardize, lambda d: standardize_like(d, ref)):
            _, peak = traced_peak(lambda: rescale(d))
            assert peak <= 1.1 * d.X.nbytes  # 2.01 with a zeros buffer beside the copy


def same_bytes(a, b):
    return a is b is None or np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestDerivedCohorts:
    """Standardized and aligned copies change only what their derivation names."""

    def test_standardize_like_itself_equals_standardize(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            m, n = rng.integers(1, 30), rng.integers(1, 8)
            X = rng.normal(rng.normal(size=n), rng.exponential(size=n), size=(m, n))
            X[:, rng.random(n) < 0.2] = rng.normal()  # constant columns become zeros
            y = np.where(rng.random(m) < 0.5, 1.0, -1.0) if rng.random() < 0.5 else None
            d = make_dataset(X, y=y)
            names = sorted(rng.choice(d.feature_names, size=rng.integers(1, n + 1), replace=False))
            idx = [d.feature_names.index(c) for c in names]
            s = standardize(d)
            like = standardize_like(d, s)
            aligned = align_common_features(d, make_dataset(np.zeros((1, len(names))),
                                                            feature_names=names))[0]
            assert s.X.tobytes() == like.X.tobytes()
            assert same_bytes(s.raw_mean, X.mean(axis=0))
            assert same_bytes(s.raw_std, np.where((X == X[0]).all(axis=0), 0.0, X.std(axis=0)))
            for c in (s, like):
                assert c.feature_names == d.feature_names and same_bytes(c.y, d.y)
                assert same_bytes(c.raw_mean, s.raw_mean) and same_bytes(c.raw_std, s.raw_std)
            assert aligned.raw_mean is None and aligned.raw_std is None
            assert aligned.feature_names == tuple(names)
            assert same_bytes(aligned.X, X[:, idx]) and same_bytes(aligned.y, y)

    def test_standardize_like_equals_standardize_on_aligned_augment(self, tmp_path):
        # the augment cohort loads C-ordered and aligns F-ordered, so its column
        # means computed at load once differed from standardize's in the last bit
        write_bundle(DEFAULT_SPEC, tmp_path)
        cohorts = [load_dataset(tmp_path / name, label_column=label) for name, label in
                   (("train.csv", "label"), ("validation.csv", "label"), ("augment.csv", None))]
        augment = align_common_features(*cohorts)[2]
        s = standardize(augment)
        like = standardize_like(augment, s)
        assert same_bits(like.X, s.X)
        assert same_bytes(like.raw_mean, s.raw_mean) and same_bytes(like.raw_std, s.raw_std)


class TestAlignCommonFeatures:
    def make(self, names):
        return make_dataset(np.arange(2 * len(names), dtype=float).reshape(2, -1), feature_names=names)

    def test_standardized_cohort_rejected(self):
        # selecting columns would reorder X but not the statistics it was scaled by
        a, b = self.make(["z", "a"]), self.make(["a", "z"])
        with pytest.raises(ValueError, match="aligned before they are standardized"):
            align_common_features(standardize(a), b)

    def test_intersection(self):
        a, b = self.make(["f1", "f2", "f3"]), self.make(["f2", "f3", "f4"])
        a2, b2 = align_common_features(a, b)
        assert a2.feature_names == b2.feature_names == ("f2", "f3")

    def test_lexicographic_order(self):
        a, b = self.make(["z", "a", "m"]), self.make(["m", "z", "a"])
        a2, b2 = align_common_features(a, b)
        assert a2.feature_names == ("a", "m", "z")
        assert b2.feature_names == ("a", "m", "z")

    def test_disjoint_errors(self):
        with pytest.raises(ValueError, match="no feature names"):
            align_common_features(self.make(["f1"]), self.make(["f2"]))

    def test_commutative_column_sets(self):
        a, b = self.make(["f1", "f2", "f3"]), self.make(["f0", "f2", "f3"])
        a2, _ = align_common_features(a, b)
        b3, _ = align_common_features(b, a)
        assert a2.feature_names == b3.feature_names

    def test_columns_and_labels_carried(self):
        a = make_dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), y=[1, -1], feature_names=["x", "y"])
        b = make_dataset(np.array([[9.0, 8.0]]), feature_names=["y", "z"])
        a2, b2 = align_common_features(a, b)
        np.testing.assert_array_equal(a2.X, [[2.0], [4.0]])
        np.testing.assert_array_equal(a2.y, a.y)
        np.testing.assert_array_equal(b2.X, [[9.0]])
        assert b2.y is None


class TestDatasetInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            make_dataset(np.zeros((1, 2)), feature_names=["a", "a"])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            make_dataset(np.zeros((2, 1)), y=[1, 2])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_dataset(np.zeros((2, 1)), y=[1.0])

    # standardize_like used to read these from its reference, and erase the columns
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stat, values, message", [
        ("raw_mean", [1.0, -np.inf], "raw_mean is -inf at column 'f1'"),
        ("raw_std", [1.0, np.nan], "raw_std is nan at column 'f1'"),
        ("raw_std", [np.inf, 1.0], "raw_std is inf at column 'f0'"),
        ("raw_std", [1.0, -0.5], "raw_std is -0.5 at column 'f1'"),
        ("raw_std", [1.0], "raw_mean and raw_std must both hold one entry per column"),
    ])
    def test_bad_statistic_rejected(self, stat, values, message):
        s = standardize(make_dataset([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(s, **{stat: np.array(values)})

    def test_statistics_set_together(self):
        d = make_dataset(np.zeros((2, 2)))
        assert d.raw_mean is None and d.raw_std is None
        with pytest.raises(ValueError, match="must both hold one entry per column"):
            replace(d, raw_std=np.ones(2))


class TestLaplacian:
    def test_single_edge(self):
        g = FeatureGraph(edges=(("f1", "f2", 1.0),))
        lap = build_laplacian(g, ["f1", "f2"])
        np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_edge_list(self):
        lap = build_laplacian(FeatureGraph(edges=()), ["f1", "f2", "f3"])
        np.testing.assert_array_equal(lap, np.zeros((3, 3)))

    def test_constant_vector_in_null_space(self):
        g = FeatureGraph(edges=(("a", "b", 2.0), ("b", "c", 0.5)))
        lap = build_laplacian(g, ["a", "b", "c"])
        theta = np.full(3, 3.7)
        assert abs(theta @ lap @ theta) < 1e-12

    def test_unresolvable_endpoint(self):
        g = FeatureGraph(edges=(("a", "nope", 1.0),))
        with pytest.raises(ValueError, match="nope"):
            build_laplacian(g, ["a", "b"])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FeatureGraph(edges=(("a", "a", 1.0),))

    def test_self_loop_in_tsv_names_path_and_row(self, tmp_path):
        # the file's self-loop used to read only "self-loop on 'f2'"
        path = tmp_path / "g.tsv"
        path.write_text("name_a\tname_b\tweight\nf1\tf2\t1\nf2\tf2\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="g.tsv: self-loop on 'f2' at row 3$"):
            load_feature_graph(path)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=r"edge \('a', 'b'\) weight must be >= 0 and finite"):
            FeatureGraph(edges=(("a", "b", -0.5),))

    def test_graph_tsv_roundtrip(self, tmp_path):
        g = FeatureGraph(edges=(("a", "b", 1.5), ("b", "c", 0.25)))
        write_feature_graph(g, tmp_path / "g.tsv")
        g2 = load_feature_graph(tmp_path / "g.tsv")
        assert g2.edges == g.edges

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match=r"edge \('a', 'b'\) weight must be >= 0 and finite"):
            FeatureGraph(edges=(("a", "b", w),))

    @pytest.mark.parametrize("w", [True, "1"])
    def test_bool_and_string_weight_rejected(self, w):
        # a bool used to be taken as 1.0, and a string failed the comparison
        with pytest.raises(ValueError, match=rf"edge \('a', 'b'\) weight .*, got {w!r}$"):
            FeatureGraph(edges=(("a", "b", w),))

    def test_same_bits_as_two_buffer_form(self):
        names = ["a", "b", "c", "d", "isolated"]
        edges = (("a", "b", 0.3), ("b", "c", 2.5), ("b", "a", 0.1), ("d", "c", 1e-3),
                 ("a", "d", 7.0))  # a repeated edge, with non-unit weights
        adj = np.zeros((5, 5))
        for a, b, w in edges:
            i, j = names.index(a), names.index(b)
            adj[i, j] += w
            adj[j, i] += w
        got = build_laplacian(FeatureGraph(edges=edges), names)
        assert same_bits(got, np.diag(adj.sum(axis=1)) - adj)

    def test_traced_peak_is_one_matrix(self):
        names = [f"f{i}" for i in range(500)]
        g = FeatureGraph(edges=tuple((a, b, 0.5) for a, b in zip(names, names[1:])))
        lap, peak = traced_peak(lambda: build_laplacian(g, names))
        assert peak <= 1.1 * lap.nbytes  # 2.02 with the degree matrix as a second buffer

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "-2"])
    def test_bad_weight_in_tsv_names_row(self, tmp_path, cell):
        # a NaN weight used to load and surface later as a non-finite loss
        path = tmp_path / "g.tsv"
        path.write_text(f"name_a\tname_b\tweight\na\tb\t1.0\nb\tc\t{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"g.tsv: negative or non-finite weight '{cell}' at row 3$"):
            load_feature_graph(path)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    names = [f"f{i}" for i in range(n)]
    n_edges = draw(st.integers(min_value=0, max_value=20))
    edges = []
    for _ in range(n_edges):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        w = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        edges.append((names[i], names[j], w))
    return names, FeatureGraph(edges=tuple(edges))


class TestLaplacianProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_zero_row_sums(self, case):
        names, g = case
        lap = build_laplacian(g, names)
        np.testing.assert_array_equal(lap, lap.T)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9)

    @given(random_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_positive_semidefinite_probes(self, case, seed):
        names, g = case
        lap = build_laplacian(g, names)
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((100, len(names)))
        quad = np.einsum("ij,jk,ik->i", probes, lap, probes)
        assert np.all(quad >= -1e-10 * max(1.0, np.abs(lap).max()))
