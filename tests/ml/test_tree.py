"""Tests for the decision-tree classifier."""

import pickle

import numpy as np
import pytest

from repro.ml.datasets import make_blobs
from repro.ml.tree import DecisionTreeClassifier, gini_impurity


class TestGini:
    def test_pure_set_is_zero(self):
        assert gini_impurity(np.array([1, 1, 1])) == 0.0

    def test_balanced_binary_is_half(self):
        assert gini_impurity(np.array([0, 1, 0, 1])) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert gini_impurity(np.array([])) == 0.0


class TestFitting:
    def test_separable_data_is_learned_perfectly(self):
        dataset = make_blobs(n_rows=100, separation=8.0, noise=0.5, seed=0)
        tree = DecisionTreeClassifier().fit(dataset.data, dataset.labels)
        assert tree.score(dataset.data, dataset.labels) == 1.0

    def test_xor_requires_depth(self, noisy_parity):
        dataset = noisy_parity(n_rows=200, flip_fraction=0.0, seed=1)
        shallow = DecisionTreeClassifier(max_depth=1).fit(dataset.data, dataset.labels)
        deep = DecisionTreeClassifier(max_depth=6).fit(dataset.data, dataset.labels)
        assert deep.score(dataset.data, dataset.labels) > shallow.score(
            dataset.data, dataset.labels)

    def test_max_depth_respected(self):
        dataset = make_blobs(n_rows=150, seed=2)
        tree = DecisionTreeClassifier(max_depth=2).fit(dataset.data, dataset.labels)
        assert tree.depth() <= 2

    def test_min_samples_split(self):
        dataset = make_blobs(n_rows=60, seed=4)
        strict = DecisionTreeClassifier(min_samples_split=50).fit(
            dataset.data, dataset.labels)
        loose = DecisionTreeClassifier(min_samples_split=2).fit(
            dataset.data, dataset.labels)
        def nodes(node):
            return 0 if node is None else 1 + nodes(node.left) + nodes(node.right)

        assert nodes(strict.root) <= nodes(loose.root)

    def test_single_feature_input(self):
        data = [[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]
        labels = [0, 0, 0, 1, 1, 1]
        tree = DecisionTreeClassifier().fit(data, labels)
        assert tree.predict([[1.5], [11.5]]).tolist() == [0, 1]

    def test_1d_array_is_reshaped(self):
        tree = DecisionTreeClassifier().fit(np.array([0.0, 1.0, 10.0, 11.0]),
                                            np.array([0, 0, 1, 1]))
        assert tree.n_features_ == 1

    def test_errors_on_bad_input(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([], [])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1.0]], [0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_predict_wrong_feature_count(self):
        dataset = make_blobs(n_rows=40, seed=0)
        tree = DecisionTreeClassifier().fit(dataset.data, dataset.labels)
        with pytest.raises(ValueError):
            tree.predict([[1.0, 2.0, 3.0]])

    def test_string_labels(self):
        data = [[0.0], [1.0], [10.0], [11.0]]
        labels = ["low", "low", "high", "high"]
        tree = DecisionTreeClassifier().fit(data, labels)
        assert tree.predict([[0.5]])[0] == "low"
        assert set(tree.classes_) == {"low", "high"}


class TestPickling:
    def test_fitted_tree_round_trips_through_pickle(self):
        """The paper's UDFs pickle fitted models into the result table."""
        dataset = make_blobs(n_rows=80, seed=5)
        tree = DecisionTreeClassifier(random_state=0).fit(dataset.data, dataset.labels)
        clone = pickle.loads(pickle.dumps(tree))
        assert np.array_equal(clone.predict(dataset.data), tree.predict(dataset.data))
