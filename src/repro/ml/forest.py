"""A from-scratch random-forest classifier (the sklearn stand-in).

``RandomForestClassifier(n_estimators)`` is exactly the constructor call the
paper's ``train_rnforest`` UDF makes (Listing 1); the nested UDF of Listing 3
then sweeps ``n_estimators`` to pick the best classifier.  This implementation
keeps that interface: bootstrap-sampled CART trees with feature subsampling
and majority voting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .tree import DecisionTreeClassifier


@dataclass
class RandomForestClassifier:
    """Bagged CART trees with majority voting."""

    n_estimators: int = 10
    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: str | int | None = "sqrt"
    random_state: int | None = None
    estimators_: list[DecisionTreeClassifier] = field(default_factory=list, repr=False)
    classes_: list[Any] = field(default_factory=list)
    n_features_: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def fit(self, data: Sequence[Sequence[float]], labels: Sequence[Any]
            ) -> "RandomForestClassifier":
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        target = np.asarray(labels)
        if len(matrix) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if len(matrix) != len(target):
            raise ValueError("data and labels length mismatch")
        self.n_features_ = matrix.shape[1]
        self.classes_ = sorted(np.unique(target).tolist())
        max_features = self._resolve_max_features(self.n_features_)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        n_rows = len(matrix)
        for index in range(self.n_estimators):
            bootstrap = rng.integers(0, n_rows, size=n_rows)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                random_state=None if self.random_state is None
                else self.random_state + index,
            )
            tree.fit(matrix[bootstrap], target[bootstrap])
            self.estimators_.append(tree)
        return self

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict(self, data: Sequence[Sequence[float]]) -> np.ndarray:
        if not self.estimators_:
            raise ValueError("classifier is not fitted")
        votes = np.stack([tree.predict(data) for tree in self.estimators_])
        predictions = []
        for column in votes.T:
            values, counts = np.unique(column, return_counts=True)
            predictions.append(values[int(np.argmax(counts))])
        return np.array(predictions)

    def score(self, data: Sequence[Sequence[float]], labels: Sequence[Any]) -> float:
        predictions = self.predict(data)
        target = np.asarray(labels)
        return float(np.mean(predictions == target))
