"""Tests for the dataset helpers."""

import numpy as np
import pytest

from repro.ml.datasets import make_blobs


class TestDatasets:
    def test_make_blobs_shape(self):
        dataset = make_blobs(n_rows=55, n_features=3, n_classes=4, seed=1)
        assert dataset.data.shape == (55, 3)
        assert set(np.unique(dataset.labels)) == {0, 1, 2, 3}
        assert dataset.n_rows == 55 and dataset.n_features == 3

    def test_make_blobs_deterministic(self):
        a = make_blobs(n_rows=30, seed=9)
        b = make_blobs(n_rows=30, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_make_blobs_validates_rows(self):
        with pytest.raises(ValueError):
            make_blobs(n_rows=1, n_classes=3)
