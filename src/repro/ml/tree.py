"""A from-scratch CART decision-tree classifier.

The paper's running example (Listings 1 and 3) trains an sklearn
``RandomForestClassifier`` inside a UDF, pickles the fitted model into the
result table, and evaluates it from a nested UDF.  scikit-learn is not
available offline, so :mod:`repro.ml` provides a small, picklable classifier
with the same ``fit`` / ``predict`` surface; the devUDF workflow only needs a
model object that can round-trip through ``pickle`` and be scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np


@dataclass
class TreeNode:
    """A node of the decision tree."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    prediction: Any = None
    samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def gini_impurity(labels: np.ndarray) -> float:
    """Gini impurity of a label vector."""
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    proportions = counts / counts.sum()
    return float(1.0 - np.sum(proportions ** 2))


def _majority(labels: np.ndarray) -> Any:
    values, counts = np.unique(labels, return_counts=True)
    return values[int(np.argmax(counts))]


@dataclass
class DecisionTreeClassifier:
    """CART classifier with Gini splits.

    Parameters mirror the sklearn names the paper's UDF code would pass.
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: int | None = None
    random_state: int | None = None
    root: TreeNode | None = field(default=None, repr=False)
    n_features_: int = 0
    classes_: list[Any] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, data: Sequence[Sequence[float]], labels: Sequence[Any]
            ) -> "DecisionTreeClassifier":
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        target = np.asarray(labels)
        if len(matrix) != len(target):
            raise ValueError(
                f"data has {len(matrix)} rows but labels has {len(target)}"
            )
        if len(matrix) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = matrix.shape[1]
        self.classes_ = sorted(np.unique(target).tolist())
        rng = np.random.default_rng(self.random_state)
        self.root = self._build(matrix, target, depth=0, rng=rng)
        return self

    def _build(self, matrix: np.ndarray, target: np.ndarray, *, depth: int,
               rng: np.random.Generator) -> TreeNode:
        node = TreeNode(samples=len(target), impurity=gini_impurity(target),
                        prediction=_majority(target))
        if (
            node.impurity == 0.0
            or len(target) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(matrix, target, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = matrix[:, feature] <= threshold
        if mask.all() or (~mask).all():
            return node
        node.feature = feature
        node.threshold = float(threshold)
        node.left = self._build(matrix[mask], target[mask], depth=depth + 1, rng=rng)
        node.right = self._build(matrix[~mask], target[~mask], depth=depth + 1, rng=rng)
        return node

    def _best_split(self, matrix: np.ndarray, target: np.ndarray,
                    rng: np.random.Generator) -> tuple[int, float] | None:
        n_features = matrix.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            features = rng.choice(n_features, size=self.max_features, replace=False)
        else:
            features = np.arange(n_features)
        best: tuple[int, float] | None = None
        best_score = float("inf")
        parent_size = len(target)
        for feature in features:
            column = matrix[:, feature]
            candidates = np.unique(column)
            if len(candidates) <= 1:
                continue
            midpoints = (candidates[:-1] + candidates[1:]) / 2.0
            for threshold in midpoints:
                mask = column <= threshold
                left, right = target[mask], target[~mask]
                if len(left) == 0 or len(right) == 0:
                    continue
                score = (
                    len(left) / parent_size * gini_impurity(left)
                    + len(right) / parent_size * gini_impurity(right)
                )
                if score < best_score:
                    best_score = score
                    best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict(self, data: Sequence[Sequence[float]]) -> np.ndarray:
        if self.root is None:
            raise ValueError("classifier is not fitted")
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        if matrix.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {matrix.shape[1]}"
            )
        return np.array([self._predict_row(row) for row in matrix])

    def _predict_row(self, row: np.ndarray) -> Any:
        node = self.root
        assert node is not None
        while not node.is_leaf:
            assert node.feature is not None and node.threshold is not None
            node = node.left if row[node.feature] <= node.threshold else node.right
            assert node is not None
        return node.prediction

    def score(self, data: Sequence[Sequence[float]], labels: Sequence[Any]) -> float:
        predictions = self.predict(data)
        target = np.asarray(labels)
        return float(np.mean(predictions == target))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        def walk(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)
