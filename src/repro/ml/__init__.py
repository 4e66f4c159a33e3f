"""``repro.ml`` — a small, picklable ML library (the scikit-learn stand-in).

The paper's example UDFs train an sklearn ``RandomForestClassifier`` inside
the database and pickle the fitted model into the result (Listings 1 and 3).
This package provides a from-scratch decision tree and random forest with the
same ``fit`` / ``predict`` / pickle behaviour so those UDFs run unmodified in
spirit.
"""

from .datasets import ClassificationDataset, make_blobs
from .forest import RandomForestClassifier
from .tree import DecisionTreeClassifier, TreeNode, gini_impurity

__all__ = [
    "ClassificationDataset",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "TreeNode",
    "gini_impurity",
    "make_blobs",
]
