"""Tests for the random-forest classifier (the sklearn stand-in of Listing 1)."""

import pickle

import numpy as np
import pytest

from repro.ml.datasets import make_blobs
from repro.ml.forest import RandomForestClassifier


class TestConstruction:
    def test_n_estimators_positional_like_the_paper(self):
        """Listing 1 constructs ``RandomForestClassifier(n)``."""
        forest = RandomForestClassifier(7)
        assert forest.n_estimators == 7

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(0)

    def test_max_features_resolution(self):
        assert RandomForestClassifier(1, max_features="sqrt")._resolve_max_features(9) == 3
        assert RandomForestClassifier(1, max_features=5)._resolve_max_features(3) == 3
        assert RandomForestClassifier(1, max_features=None)._resolve_max_features(4) is None
        with pytest.raises(ValueError):
            RandomForestClassifier(1, max_features="bogus")._resolve_max_features(4)


class TestFitPredict:
    def test_fits_all_estimators(self):
        dataset = make_blobs(n_rows=60, seed=1)
        forest = RandomForestClassifier(5, random_state=0).fit(dataset.data, dataset.labels)
        assert len(forest.estimators_) == 5

    def test_separable_data_high_accuracy(self):
        dataset = make_blobs(n_rows=120, separation=6.0, noise=0.8, seed=2)
        forest = RandomForestClassifier(10, random_state=0).fit(dataset.data, dataset.labels)
        assert forest.score(dataset.data, dataset.labels) >= 0.95

    def test_reproducible_with_random_state(self, noisy_parity):
        dataset = noisy_parity(n_rows=150, seed=3)
        a = RandomForestClassifier(5, random_state=7).fit(dataset.data, dataset.labels)
        b = RandomForestClassifier(5, random_state=7).fit(dataset.data, dataset.labels)
        assert np.array_equal(a.predict(dataset.data), b.predict(dataset.data))

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(3).predict([[1.0, 2.0]])

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(3).fit([], [])

    def test_more_trees_do_not_hurt_on_noisy_data(self, noisy_parity):
        dataset = noisy_parity(n_rows=300, flip_fraction=0.1, seed=5)
        small = RandomForestClassifier(1, random_state=0, max_depth=4).fit(
            dataset.data, dataset.labels)
        big = RandomForestClassifier(15, random_state=0, max_depth=4).fit(
            dataset.data, dataset.labels)
        assert big.score(dataset.data, dataset.labels) >= \
            small.score(dataset.data, dataset.labels) - 0.05


class TestPickling:
    def test_pickle_roundtrip(self):
        """train_rnforest pickles the fitted forest into its result (Listing 1)."""
        dataset = make_blobs(n_rows=80, seed=6)
        forest = RandomForestClassifier(4, random_state=0).fit(dataset.data, dataset.labels)
        blob = pickle.dumps(forest)
        clone = pickle.loads(blob)
        assert np.array_equal(clone.predict(dataset.data), forest.predict(dataset.data))
        assert clone.n_estimators == 4
