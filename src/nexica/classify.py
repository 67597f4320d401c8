"""Ensemble-of-trees classifier and ROC evaluation over count features.

The forest is self-contained and fully deterministic for a fixed seed:
CART trees with Gini impurity, bootstrap samples the size of the
training set, square-root feature subsampling per split, unlimited
depth, and a minimum of two samples per split.  A prediction is the
fraction of trees voting for the positive class.  Determinism holds
regardless of how training is parallelized because every tree draws
from its own spawned seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, ParameterError, TrainingError

COUNT_FEATURES = ("a00", "a01", "a10", "a11")
ALL_FEATURES = COUNT_FEATURES + ("p_c",)


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    vote: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Vote of this tree for each row of ``x``."""
        node = np.zeros(x.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            n = node[idx]
            goes_left = x[idx, self.feature[n]] <= self.threshold[n]
            node[idx] = np.where(goes_left, self.left[n], self.right[n])
            active[idx] = self.feature[node[idx]] >= 0
        return self.vote[node]


@dataclass
class ForestModel:
    trees: list[_Tree]
    n_trees: int
    seed: int
    feature_mask: tuple[int, ...]
    n_features_full: int

    def model_hash(self) -> str:
        """Stable digest of the trained trees, for determinism checks."""
        h = hashlib.sha256()
        h.update(json.dumps([self.n_trees, self.seed, list(self.feature_mask)]).encode())
        for t in self.trees:
            for arr in (t.feature, t.threshold, t.left, t.right, t.vote):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "seed": self.seed,
            "feature_mask": list(self.feature_mask),
            "n_features_full": self.n_features_full,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "vote": t.vote.tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestModel":
        trees = [
            _Tree(
                np.asarray(t["feature"], dtype=np.int32),
                np.asarray(t["threshold"], dtype=np.float64),
                np.asarray(t["left"], dtype=np.int32),
                np.asarray(t["right"], dtype=np.int32),
                np.asarray(t["vote"], dtype=np.int8),
            )
            for t in d["trees"]
        ]
        return cls(
            trees, d["n_trees"], d["seed"], tuple(d["feature_mask"]), d["n_features_full"]
        )


@dataclass
class RocResult:
    """ROC curve with trapezoidal AUC; fold statistics when cross-validated."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    fold_aucs: list[float] | None = None
    auc_std: float | None = None


def _grow_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> _Tree:
    n, d = x.shape
    max_features = max(1, int(np.sqrt(d)))
    feature, threshold, left, right, vote = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(0)
        return len(feature) - 1

    def majority(idx: np.ndarray) -> int:
        pos = int(np.count_nonzero(y[idx]))
        return 1 if pos * 2 > idx.size else 0

    root = new_node()
    stack = [(root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        vote[node] = majority(idx)
        pos = int(np.count_nonzero(y[idx]))
        if pos == 0 or pos == idx.size or idx.size < 2:
            continue
        candidates = rng.choice(d, size=max_features, replace=False)
        best = None  # (weighted_gini, feature, threshold, order, split_at)
        for f in candidates:
            col = x[idx, f]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            ones = np.cumsum(y[idx][order])
            ks = np.flatnonzero(xs[1:] > xs[:-1]) + 1
            if ks.size == 0:
                continue
            n_l = ks.astype(np.float64)
            n_r = idx.size - n_l
            p1_l = ones[ks - 1] / n_l
            p1_r = (pos - ones[ks - 1]) / n_r
            gini = n_l * (1.0 - p1_l**2 - (1.0 - p1_l) ** 2) + n_r * (
                1.0 - p1_r**2 - (1.0 - p1_r) ** 2
            )
            k = int(np.argmin(gini))
            score = gini[k] / idx.size
            if best is None or score < best[0]:
                split = int(ks[k])
                best = (score, int(f), (xs[split - 1] + xs[split]) / 2.0, order, split)
        if best is None:
            continue  # every candidate feature constant: leaf
        _, f, thr, order, split = best
        feature[node] = f
        threshold[node] = thr
        l_id, r_id = new_node(), new_node()
        left[node], right[node] = l_id, r_id
        stack.append((r_id, idx[order[split:]]))
        stack.append((l_id, idx[order[:split]]))
    return _Tree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(vote, dtype=np.int8),
    )


def train_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int = 1000,
    seed: int = 0,
    feature_mask: tuple[int, ...] | None = None,
) -> ForestModel:
    """Train a bootstrap ensemble of CART trees on the masked features."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int8)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ParameterError("features must be (n, d) with one label per row")
    if not np.all(np.isfinite(x)):
        raise ParameterError("features must be finite")
    if n_trees < 1:
        raise ParameterError("n_trees must be >= 1")
    mask = tuple(range(x.shape[1])) if feature_mask is None else tuple(feature_mask)
    if not mask or min(mask) < 0 or max(mask) >= x.shape[1]:
        raise ParameterError(f"feature mask {mask} out of range for d={x.shape[1]}")
    classes = np.unique(y)
    if classes.size < 2:
        raise TrainingError("training set contains a single class")
    if not np.all(np.isin(classes, (0, 1))):
        raise ParameterError("labels must be 0 or 1")

    xm = x[:, mask]
    n = xm.shape[0]
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, n)
        trees.append(_grow_tree(xm[boot], y[boot], rng))
    return ForestModel(trees, n_trees, seed, mask, x.shape[1])


def predict_proba(model: ForestModel, features: np.ndarray) -> np.ndarray | float:
    """Fraction of trees voting positive, per input row.

    Accepts a single feature vector (returns a float) or an (n, d) matrix
    (returns an array).  The input carries the full feature width; the
    model applies its own mask.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.n_features_full:
        raise ConsistencyError(
            f"model expects {model.n_features_full} features, got {x.shape[1]}"
        )
    xm = np.ascontiguousarray(x[:, model.feature_mask])
    votes = np.zeros(xm.shape[0])
    for t in model.trees:
        votes += t.apply(xm)
    votes /= len(model.trees)
    return float(votes[0]) if single else votes


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocResult:
    """ROC curve and trapezoidal AUC of a score against binary labels.

    Equal scores collapse into one threshold, producing diagonal curve
    segments; the integer-accumulated trapezoid then equals the tie-aware
    Mann-Whitney statistic exactly.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise ParameterError("scores and labels must be equal-length vectors")
    if not np.all(np.isfinite(s)):
        raise ParameterError("scores must be finite")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC undefined: need at least one of each class")

    order = np.argsort(-s, kind="stable")
    ss = s[order]
    ys = y[order]
    boundary = np.flatnonzero(np.diff(ss)) + 1
    ends = np.append(boundary, ss.size)
    tp = np.cumsum(ys)[ends - 1]
    fp = ends - tp
    thresholds = ss[ends - 1]

    trap2 = 0  # twice the un-normalized area, exact in integers
    prev_tp = 0
    prev_fp = 0
    for t, f in zip(tp.tolist(), fp.tolist()):
        trap2 += (f - prev_fp) * (t + prev_tp)
        prev_tp, prev_fp = t, f
    auc = trap2 / (2 * n_pos * n_neg)

    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    return RocResult(thresholds, fpr, tpr, auc)


def stratified_fold_ids(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic class-proportion-preserving fold assignment."""
    y = np.asarray(labels)
    if folds < 2:
        raise ParameterError("folds must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ids = np.empty(y.shape[0], dtype=np.int32)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < folds:
            raise TrainingError(
                f"class {cls} has {idx.size} samples; cannot stratify {folds} folds"
            )
        perm = rng.permutation(idx)
        ids[perm] = np.arange(perm.size) % folds
    return ids


def cross_validate(
    features: np.ndarray,
    labels: np.ndarray,
    folds: int = 5,
    n_trees: int = 1000,
    seed: int = 0,
    feature_mask: tuple[int, ...] | None = None,
) -> RocResult:
    """Stratified k-fold evaluation of the forest.

    Out-of-fold scores are pooled for the headline ROC/AUC; the spread is
    the sample standard deviation of the per-fold AUCs.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int8)
    fold_ids = stratified_fold_ids(y, folds, seed)
    root = np.random.SeedSequence(seed)
    fold_seeds = [int(c.generate_state(1, dtype=np.uint32)[0]) for c in root.spawn(folds)]
    oof = np.zeros(y.shape[0])
    fold_aucs = []
    for k in range(folds):
        test = fold_ids == k
        model = train_forest(
            x[~test], y[~test], n_trees=n_trees, seed=fold_seeds[k], feature_mask=feature_mask
        )
        scores = predict_proba(model, x[test])
        oof[test] = scores
        fold_aucs.append(roc_auc(scores, y[test]).auc)
    pooled = roc_auc(oof, y)
    pooled.fold_aucs = fold_aucs
    pooled.auc_std = float(np.std(fold_aucs, ddof=1))
    return pooled


def feature_ablation(
    count_features: np.ndarray,
    labels: np.ndarray,
    folds: int = 5,
    n_trees: int = 1000,
    seed: int = 0,
) -> list[tuple[tuple[str, ...], float]]:
    """Cross-validated AUC for all 15 nonempty subsets of the four counts."""
    x = np.asarray(count_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ParameterError("expected the four count features as columns")
    rows = []
    for bits in range(1, 16):
        mask = tuple(i for i in range(4) if bits & (1 << i))
        result = cross_validate(
            x, labels, folds=folds, n_trees=n_trees, seed=seed, feature_mask=mask
        )
        names = tuple(COUNT_FEATURES[i] for i in mask)
        rows.append((names, result.auc))
    return rows
