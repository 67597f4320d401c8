"""Ensemble-of-trees classifier and ROC evaluation over count features.

The forest is self-contained and fully deterministic for a fixed seed:
CART trees with Gini impurity, bootstrap samples the size of the
training set, square-root feature subsampling per split, unlimited
depth, and a minimum of two samples per split.  A prediction is the
fraction of trees voting for the positive class.

Trees grow level by level, a batch of trees at a time, and their nodes
are numbered breadth first.  Each feature is rank-encoded once per
training set, and each bootstrap becomes integer row weights, so the
weighted counts at every cut are the counts of the duplicated rows and
the exact argsort search picks the same split.  Every tree draws from
its own spawned generator: first its bootstrap, then, once per level,
the candidate features of all its splittable nodes in breadth-first
order.  A tree therefore does not depend on which trees share its batch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, ParameterError, TrainingError

COUNT_FEATURES = ("a00", "a01", "a10", "a11")


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


@dataclass
class RocResult:
    """ROC curve with trapezoidal AUC; fold statistics when cross-validated."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    fold_aucs: list[float] | None = None
    auc_std: float | None = None


_BATCH_DRAWS = 2**15  # bootstrap draws grown together in one batch of trees
# An entry's packed weight holds its bootstrap count in the low 32 bits and
# its count of positives above them.  Sums over a batch stay exact while
# the batch holds fewer than 2**31 draws.
_LOW = 0xFFFFFFFF


def _binary_labels(labels) -> np.ndarray:
    """``labels`` as int8; a label other than 0 or 1 is a ``ParameterError``
    naming it, raised before the cast could wrap 256 to 0."""
    y = np.asarray(labels)
    bad = y[(y != 0) & (y != 1)]
    if bad.size:
        raise ParameterError(f"labels must be 0 or 1, got {bad.ravel().tolist()[0]!r}")
    return y.astype(np.int8)


def _candidates(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """Candidate features of ``m`` nodes of one level, in draw order."""
    k = max(1, int(np.sqrt(d)))
    return rng.random((m, d)).argsort(axis=1, kind="stable")[:, :k]


def _splittable(size: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Nodes holding both classes and at least two samples."""
    return (pos > 0) & (pos < size) & (size >= 2)


def _best_splits(rank, cum, before, inside, node_of, size, pos, drawn):
    """Best cut of every drawn node along one attribute list.

    The list holds the live entries ordered by (open node, rank), and
    ``cum`` is the running sum of their packed weights.  A cut may fall
    after any position whose rank differs from the next one in the same
    node.  The packed sums there are the exact left-side counts and
    positives of the duplicated bootstrap rows, fed into the same float
    expression as a per-node sort; each node keeps its first Gini
    minimum.  Returns the nodes with a cut, the position of each cut, its
    packed left sum and its Gini score normalised by node size.
    """
    cut = np.flatnonzero((rank[1:] != rank[:-1]) & inside)
    nb = node_of[cut]
    ok = drawn[nb]
    cut, nb = cut[ok], nb[ok]
    if cut.size == 0:
        return nb, cut, cut, np.empty(0)
    left = cum[cut] - before[nb]
    ones = left >> 32
    n_l = (left & _LOW).astype(np.float64)
    n_r = size[nb] - n_l
    p1_l = ones / n_l
    p1_r = (pos[nb] - ones) / n_r
    gini = n_l * (1.0 - p1_l**2 - (1.0 - p1_l) ** 2) + n_r * (
        1.0 - p1_r**2 - (1.0 - p1_r) ** 2
    )
    count = np.bincount(nb)
    nodes = np.flatnonzero(count)
    count = count[nodes]
    first = np.cumsum(count) - count
    low = np.repeat(np.minimum.reduceat(gini, first), count)
    best = np.minimum.reduceat(np.where(gini == low, np.arange(nb.size), nb.size), first)
    return nodes, cut[best], left[best], gini[best] / size[nodes]


def _grow_batch(
    ranks: np.ndarray,
    values: np.ndarray,
    orders: np.ndarray,
    y: np.ndarray,
    rngs: list[np.random.Generator],
) -> list[_Tree]:
    """Grow one tree per generator, all of them together, level by level.

    ``ranks[j]`` is each row's rank among the distinct values
    ``values[j]`` of feature ``j``, and ``orders[j]`` lists the rows by
    that rank.  Each tree's bootstrap becomes integer row weights.  An
    entry is one (tree, row) pair of positive weight, and each feature
    keeps an attribute list of the live entries ordered by (open node,
    rank); a node's entries sit at the same positions of every list.
    Each level finds the splits of all open nodes with one pass per list,
    then partitions every list stably into the next level's open nodes,
    so no list is sorted by value twice.  Entries of nodes that stop
    splitting leave the lists.
    """
    n, d, n_t = y.size, ranks.shape[0], len(rngs)
    boot = np.stack([np.bincount(r.integers(0, n, n), minlength=n) for r in rngs])
    root_pos = boot @ y
    votes = [(np.arange(n_t), np.zeros(n_t, dtype=np.int64), 2 * root_pos > n)]
    splits = []
    next_id = np.ones(n_t, dtype=np.int64)

    # open nodes of the current level, in (tree, breadth-first) order
    tree = np.flatnonzero(_splittable(np.full(n_t, n), root_pos))
    nid = np.zeros(tree.size, dtype=np.int64)
    size = np.full(tree.size, n, dtype=np.int64)
    pos = root_pos[tree]
    live = np.zeros(boot.shape, dtype=bool)
    live[tree] = boot[tree] > 0
    cnt = live[tree].sum(axis=1)
    packed = (boot * (1 + (y.astype(np.int64) << 32)))[live]
    del boot
    entry = np.cumsum(live, dtype=np.int32).reshape(live.shape) - 1
    ents = np.empty((d, packed.size), dtype=np.int32)
    lists = np.empty((d, packed.size), dtype=ranks.dtype)
    for j in range(d):
        cell = np.flatnonzero(live[:, orders[j]])
        row = orders[j][cell % n]
        ents[j] = entry[cell // n, row]
        lists[j] = ranks[j, row]
    del entry, live, cell, row

    while tree.size:
        m = tree.size
        bounds = np.flatnonzero(np.diff(tree, prepend=-1, append=-1))
        cand = np.concatenate(
            [_candidates(rngs[tree[a]], b - a, d) for a, b in zip(bounds[:-1], bounds[1:])]
        )
        drawn = np.zeros((d, m), dtype=bool)
        drawn[cand, np.arange(m)[:, None]] = True
        start = np.cumsum(cnt) - cnt
        node_of = np.repeat(np.arange(m), cnt)
        inside = node_of[1:] == node_of[:-1]
        score = np.full((d, m), np.inf)
        at = np.zeros((d, m), dtype=np.int64)
        below = np.zeros((d, m), dtype=np.int64)
        for j in range(d):
            weights = packed[ents[j]]
            cum = np.cumsum(weights)
            before = cum[start] - weights[start]
            del weights
            s, at[j, s], below[j, s], score[j, s] = _best_splits(
                lists[j], cum, before, inside, node_of, size, pos, drawn[j]
            )
            del cum

        # first strict minimum across each node's candidates, in draw order
        node = np.arange(m)
        f = cand[node, score[cand, node[:, None]].argmin(axis=1)]
        s = np.flatnonzero(np.isfinite(score[f, node]))
        if s.size == 0:
            break
        f = f[s]
        cut = at[f, s]
        below = below[f, s]
        threshold = (values[f, lists[f, cut]] + values[f, lists[f, cut + 1]]) / 2.0

        # children in breadth-first order: (left, right) of each split
        t_s = tree[s]
        left = next_id[t_s] + 2 * (np.arange(s.size) - np.searchsorted(t_s, t_s))
        next_id += 2 * np.bincount(t_s, minlength=n_t)
        splits.append((t_s, nid[s], f, threshold, left))
        n_l, ones = below & _LOW, below >> 32
        cnt_l = cut - start[s] + 1
        c_tree = np.repeat(t_s, 2)
        c_nid = np.column_stack([left, left + 1]).ravel()
        c_size = np.column_stack([n_l, size[s] - n_l]).ravel()
        c_pos = np.column_stack([ones, pos[s] - ones]).ravel()
        c_cnt = np.column_stack([cnt_l, cnt[s] - cnt_l]).ravel()
        votes.append((c_tree, c_nid, 2 * c_pos > c_size))
        keep = _splittable(c_size, c_pos)
        n_next = int(np.count_nonzero(keep))
        slot = np.where(keep, np.cumsum(keep) - 1, n_next).reshape(-1, 2)

        # route each entry of a split node to its child's slot among the
        # next open nodes; every other entry gets n_next and drops out
        dest = np.full(packed.size, n_next, dtype=np.min_scalar_type(n_next))
        split_of = np.full(m, -1)
        split_of[s] = np.arange(s.size)
        p = np.flatnonzero(np.repeat(split_of >= 0, cnt))
        sp = split_of[node_of[p]]
        dest[ents[f[sp], p]] = np.where(p <= cut[sp], slot[sp, 0], slot[sp, 1])
        del node_of, inside, p, sp

        # stable partition of every list by destination
        tree, nid, size, pos, cnt = (a[keep] for a in (c_tree, c_nid, c_size, c_pos, c_cnt))
        order = np.argsort(dest[ents], axis=1, kind="stable")[:, : cnt.sum()]
        order += np.arange(0, ents.size, ents.shape[1])[:, None]
        ents = ents.ravel()[order]
        lists = lists.ravel()[order]
        del dest, order

    off = np.append(0, np.cumsum(next_id))
    feature = np.full(off[-1], -1, dtype=np.int32)
    threshold = np.zeros(off[-1])
    left = np.full(off[-1], -1, dtype=np.int32)
    vote = np.zeros(off[-1], dtype=np.int8)
    for t, i, v in votes:
        vote[off[t] + i] = v
    for t, i, f, thr, lft in splits:
        g = off[t] + i
        feature[g], threshold[g], left[g] = f, thr, lft
    right = np.where(feature >= 0, left + 1, -1).astype(np.int32)
    return [
        _Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], vote[a:b])
        for a, b in zip(off[:-1], off[1:])
    ]


def train_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int = 1000,
    seed: int = 0,
    feature_mask: tuple[int, ...] | None = None,
    _batch_draws: int = _BATCH_DRAWS,
) -> ForestModel:
    """Train a bootstrap ensemble of CART trees on the masked features."""
    x = np.asarray(features, dtype=np.float64)
    y = _binary_labels(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ParameterError("features must be (n, d) with one label per row")
    if not np.all(np.isfinite(x)):
        raise ParameterError("features must be finite")
    if n_trees < 1:
        raise ParameterError("n_trees must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    mask = tuple(range(x.shape[1])) if feature_mask is None else tuple(feature_mask)
    if not mask or min(mask) < 0 or max(mask) >= x.shape[1]:
        raise ParameterError(f"feature mask {mask} out of range for d={x.shape[1]}")
    if np.unique(y).size < 2:
        raise TrainingError("training set contains a single class")

    n = x.shape[0]
    columns = [np.unique(x[:, j], return_inverse=True) for j in mask]
    values = np.zeros((len(mask), max(v.size for v, _ in columns)))
    for j, (v, _) in enumerate(columns):
        values[j, : v.size] = v
    ranks = np.stack([r for _, r in columns]).astype(np.min_scalar_type(values.shape[1]))
    orders = np.argsort(ranks, axis=1, kind="stable")
    del columns
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_trees)]
    per_batch = max(1, _batch_draws // n)
    trees = []
    for b in range(0, n_trees, per_batch):
        trees += _grow_batch(ranks, values, orders, y, rngs[b : b + per_batch])
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
    Mann-Whitney statistic exactly.  It is accumulated in int64, which
    holds twice the area, at most ``2 * n_pos * n_neg``, for fewer than
    2**32 scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ParameterError("scores and labels must be equal-length vectors")
    if s.size >= 2**32:
        raise ParameterError(f"{s.size} scores: the exact AUC needs fewer than 2**32")
    y = _binary_labels(y)
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
    tp = np.cumsum(ys, dtype=np.int64)[ends - 1]
    fp = ends - tp
    thresholds = ss[ends - 1]

    # twice the un-normalized area, exact in integers
    trap2 = int(np.dot(np.diff(fp, prepend=0), tp + np.append(0, tp[:-1])))
    auc = trap2 / (2 * n_pos * n_neg)

    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    return RocResult(thresholds, fpr, tpr, auc)


def stratified_fold_ids(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic class-proportion-preserving fold assignment."""
    y = _binary_labels(labels)
    if folds < 2:
        raise ParameterError("folds must be >= 2")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
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
    y = _binary_labels(labels)
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
