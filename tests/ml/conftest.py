"""Shared fixtures for the ``repro.ml`` tests."""

import numpy as np
import pytest

from repro.ml.datasets import ClassificationDataset


@pytest.fixture()
def noisy_parity():
    """Factory: XOR-like parity of two thresholded features, a fraction of the
    labels flipped -- a dataset no single split separates."""
    def make(n_rows: int = 200, *, flip_fraction: float = 0.05,
             seed: int = 0) -> ClassificationDataset:
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, size=(n_rows, 2))
        labels = ((data[:, 0] > 0) ^ (data[:, 1] > 0)).astype(int)
        labels ^= (rng.random(n_rows) < flip_fraction).astype(int)
        return ClassificationDataset(data=data, labels=labels, n_classes=2)

    return make
