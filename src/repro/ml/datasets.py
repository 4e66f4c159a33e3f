"""Synthetic classification datasets for the paper's classifier example.

The paper does not specify the training data behind ``train_rnforest``; the
reproduction generates Gaussian-blob classification problems (the standard
substitute) so that the nested-UDF experiment (Listing 3) has a training and a
testing set to store in the database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ClassificationDataset:
    """Feature matrix plus labels, with helpers to flatten into SQL columns."""

    data: np.ndarray
    labels: np.ndarray
    n_classes: int

    @property
    def n_rows(self) -> int:
        return len(self.data)

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


def make_blobs(n_rows: int = 200, n_features: int = 2, n_classes: int = 2, *,
               separation: float = 3.0, noise: float = 1.0,
               seed: int | None = 0) -> ClassificationDataset:
    """Gaussian blobs, one per class, arranged on a circle."""
    if n_rows < n_classes:
        raise ValueError("need at least one row per class")
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * np.pi, n_classes, endpoint=False)
    centers = np.zeros((n_classes, n_features))
    centers[:, 0] = separation * np.cos(angles)
    if n_features > 1:
        centers[:, 1] = separation * np.sin(angles)
    rows_per_class = [n_rows // n_classes] * n_classes
    for index in range(n_rows % n_classes):
        rows_per_class[index] += 1
    data_parts = []
    label_parts = []
    for label, count in enumerate(rows_per_class):
        points = rng.normal(loc=centers[label], scale=noise, size=(count, n_features))
        data_parts.append(points)
        label_parts.append(np.full(count, label))
    data = np.vstack(data_parts)
    labels = np.concatenate(label_parts)
    order = rng.permutation(len(data))
    return ClassificationDataset(data=data[order], labels=labels[order].astype(int),
                                 n_classes=n_classes)
