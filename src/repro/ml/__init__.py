"""Downstream ML models and utilities (the workload's ``M``).

The paper trains logistic regression with elastic-net regularization
(alpha = 0.5, lambda = 0.01, 10 iterations — Figure 8's caption) as the
primary downstream model, a decision tree as the "data scientists often
prefer trees" alternative (Section 5.2), and a 3-layer MLP for the
TFT+Beam comparison (Figure 7B). All are implemented from scratch on
numpy, standing in for MLlib / distributed TF. Inside a run the
model may train on :func:`training_lanes` cores (the run's ``cpu``);
the MLP shards its rows over them.
"""

from repro.ml.lanes import lanes, training_lanes
from repro.ml.logistic import LogisticRegression
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.mlp import MLPClassifier
from repro.ml.metrics import accuracy_score, f1_score
from repro.ml.preprocess import standardize, train_test_split

__all__ = [
    "DecisionTreeClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "accuracy_score",
    "f1_score",
    "lanes",
    "standardize",
    "train_test_split",
    "training_lanes",
]
