"""Dataset loading, standardization, alignment, and Laplacian construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_two_row_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "f1,f2,label\n1,2,1\n3,4,-1\n")
        d = load_dataset(p, label_column="label")
        assert d.n_samples == 2 and d.n_features == 2
        # population std of {1,3} and {2,4} is 1
        np.testing.assert_allclose(d.raw_std, [1.0, 1.0])
        np.testing.assert_array_equal(d.y, [1.0, -1.0])
        assert not d.standardized

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
        ref = make_dataset(np.array([[0.0], [2.0]]))  # mean 1, std 1
        other = make_dataset(np.array([[3.0], [5.0]]))
        s = standardize_like(other, ref)
        np.testing.assert_allclose(s.X[:, 0], [2.0, 4.0])
        assert s.standardized


class TestAlignCommonFeatures:
    def make(self, names):
        return make_dataset(np.arange(2 * len(names), dtype=float).reshape(2, -1), feature_names=names)

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


class TestLaplacian:
    def test_single_edge(self):
        g = FeatureGraph(edges=(("f1", "f2", 1.0),))
        lap = build_laplacian(g, ["f1", "f2"])
        np.testing.assert_array_equal(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_edge_list(self):
        lap = build_laplacian(FeatureGraph(edges=()), ["f1", "f2", "f3"])
        np.testing.assert_array_equal(lap.matrix, np.zeros((3, 3)))

    def test_constant_vector_in_null_space(self):
        g = FeatureGraph(edges=(("a", "b", 2.0), ("b", "c", 0.5)))
        lap = build_laplacian(g, ["a", "b", "c"])
        theta = np.full(3, 3.7)
        assert abs(theta @ lap.matrix @ theta) < 1e-12

    def test_unresolvable_endpoint(self):
        g = FeatureGraph(edges=(("a", "nope", 1.0),))
        with pytest.raises(ValueError, match="nope"):
            build_laplacian(g, ["a", "b"])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FeatureGraph(edges=(("a", "a", 1.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FeatureGraph(edges=(("a", "b", -0.5),))

    def test_graph_tsv_roundtrip(self, tmp_path):
        g = FeatureGraph(edges=(("a", "b", 1.5), ("b", "c", 0.25)))
        write_feature_graph(g, tmp_path / "g.tsv")
        g2 = load_feature_graph(tmp_path / "g.tsv")
        assert g2.edges == g.edges


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
        lap = build_laplacian(g, names).matrix
        np.testing.assert_array_equal(lap, lap.T)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9)

    @given(random_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_positive_semidefinite_probes(self, case, seed):
        names, g = case
        lap = build_laplacian(g, names).matrix
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((100, len(names)))
        quad = np.einsum("ij,jk,ik->i", probes, lap, probes)
        assert np.all(quad >= -1e-10 * max(1.0, np.abs(lap).max()))
