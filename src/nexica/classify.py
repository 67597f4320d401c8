"""Ensemble-of-trees classifier and ROC evaluation over count features.

The forest is self-contained and fully deterministic for a fixed seed:
CART trees with Gini impurity, bootstrap samples the size of the
training set, square-root feature subsampling per split, unlimited
depth, and a minimum of two samples per split.  A prediction is the
fraction of trees voting for the positive class.

Every forest grows through one engine, ``grow_fits``.  It takes one
shared matrix and a list of fits: a fit is its training rows of the
matrix in dataset order, their labels, a seed, the rows it scores, and
whether its trees come back.  ``train_forest`` is one kept fit, a
``CrossValidation`` is one fit per fold, and a pipeline run hands the
folds of both its cross-validations to one call.

Each masked column of the matrix is rank-encoded once per call; a fit
lists its rows by those ranks, so rows outside a fit change none of its
trees.  Trees grow level by level, a batch of trees at a time, and their
nodes are numbered breadth first.  Each bootstrap, drawn over its fit's
rows, becomes integer row weights, so the weighted counts at every cut
are the counts of the duplicated rows and the exact argsort search picks
the same split; a threshold is the midpoint of two adjacent values of
the node's own rows.  Every tree draws from its own spawned generator:
first its bootstrap, then, once per level, the candidate features of all
its splittable nodes in breadth-first order.  A tree therefore does not
depend on which trees share its batch.

``grow_fits`` cuts the trees of all fits, in fit order, into one
contiguous slice per usable core by their bootstrap draws, so each slice
carries about equal draws, or into one slice when all draws fit within
``_BATCH_DRAWS``.  It cuts each slice into batches within that budget (a
tree above it is a batch of its own) and hands the slices to
``_slices.in_slices``, the fork helper the column writer shares: this
process grows the first slice, and one forked child per further slice
grows each other one.  The process that grows a tree also scores it, and
sends back each fit's positive votes on its score rows, summed in int64,
plus the trees of the fits that keep them.  Growth stays in this process
with one usable core or one slice, without ``os.fork`` or
``os.sched_getaffinity``, while another thread is alive, or when a fork
fails.  The trees, the scores and every output are the same either way.
A dead child is a ``TrainingError``.  The peak RSS of this process
(``ru_maxrss``) does not count the children.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._slices import in_slices, usable_cores
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

    def metrics(self) -> dict:
        """The fields a metrics file holds: ``auc``, and when cross-validated
        ``auc_std`` and ``fold_aucs``."""
        fields = {"auc": self.auc, "auc_std": self.auc_std, "fold_aucs": self.fold_aucs}
        return {k: v for k, v in fields.items() if v is not None}


@dataclass
class Fit:
    """One forest of a pass over a shared (n, d) matrix: trained on its
    ``rows`` of the matrix, in dataset order, with their 0/1 ``labels``,
    grown from ``seed`` and voting on its ``score`` rows; with ``keep``
    the pass returns its trees too."""

    rows: np.ndarray
    labels: np.ndarray
    seed: int
    score: np.ndarray
    keep: bool = False


@dataclass(eq=False)
class _Set:
    """A fit's training rows as ``_grow_batch`` reads them."""

    y: np.ndarray  # int8 labels
    orders: np.ndarray  # (d, n) positions of the rows, by rank of each feature
    ranks: np.ndarray  # (d, n) ranks of the rows in that order


_BATCH_DRAWS = 2**16  # at most this many bootstrap draws grow in one batch of trees
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
    cut = np.flatnonzero((rank[1:] != rank[:-1]) & inside & drawn[node_of[:-1]])
    nb = node_of[cut]
    if cut.size == 0:
        return nb, cut, cut, np.empty(0)
    # one side at a time, to hold fewer cut-sized arrays at once
    left = cum[cut] - before[nb]
    ones = left >> 32
    n_l = (left & _LOW).astype(np.float64)
    del left
    p1_l = ones / n_l
    gini = n_l * (1.0 - p1_l**2 - (1.0 - p1_l) ** 2)
    n_r = size[nb] - n_l
    del n_l, p1_l
    p1_r = (pos[nb] - ones) / n_r
    del ones
    gini += n_r * (1.0 - p1_r**2 - (1.0 - p1_r) ** 2)
    del n_r, p1_r
    count = np.bincount(nb)
    nodes = np.flatnonzero(count)
    count = count[nodes]
    first = np.cumsum(count) - count
    low = np.repeat(np.minimum.reduceat(gini, first), count)
    best = np.minimum.reduceat(np.where(gini == low, np.arange(nb.size), nb.size), first)
    cut = cut[best]
    return nodes, cut, cum[cut] - before[nodes], gini[best] / size[nodes]


def _grow_batch(values: np.ndarray, trees: list[tuple[_Set, np.random.Generator]]) -> list[_Tree]:
    """Grow one tree per (training set, generator) pair, all of them
    together, level by level.

    ``values[j]`` holds the distinct values of feature ``j`` of the shared
    matrix, which the sets' ranks index.  The trees of one set are
    consecutive, and each tree's bootstrap, ``n`` draws over its set's
    ``n`` rows, becomes int32 row weights.  An entry is one (tree, row)
    pair of positive weight, and each feature keeps an attribute list of
    the live entries ordered by (open node, rank); a node's entries sit at
    the same positions of every list.  Each level finds the splits of all
    open nodes with one pass per list, then partitions every list stably
    into the next level's open nodes, so no list is sorted by value twice.
    Entries of nodes that stop splitting leave the lists.
    """
    d, n_t = values.shape[0], len(trees)
    rngs = [r for _, r in trees]
    groups, a = [], 0  # (first tree, end, set, bootstrap counts) of each set's trees
    for s, pairs in groupby(trees, key=lambda pair: pair[0]):
        own = [r for _, r in pairs]
        boot = np.empty((len(own), s.y.size), dtype=np.int32)
        for i, r in enumerate(own):
            boot[i] = np.bincount(r.integers(0, s.y.size, s.y.size), minlength=s.y.size)
        groups.append((a, a + len(own), s, boot))
        a += len(own)
    root_size = np.concatenate([np.full(b - a, s.y.size) for a, b, s, _ in groups])
    root_pos = np.concatenate([(boot @ s.y).astype(np.int64) for _, _, s, boot in groups])
    votes = [(np.arange(n_t), np.zeros(n_t, dtype=np.int64), 2 * root_pos > root_size)]
    splits = []
    next_id = np.ones(n_t, dtype=np.int64)

    # open nodes of the current level, in (tree, breadth-first) order
    grows = _splittable(root_size, root_pos)
    tree = np.flatnonzero(grows)
    nid = np.zeros(tree.size, dtype=np.int64)
    size, pos = root_size[tree], root_pos[tree]
    cnt = np.concatenate([np.count_nonzero(boot, axis=1) for *_, boot in groups])[tree]
    packed = np.empty(int(cnt.sum()), dtype=np.int64)
    ents = np.empty((d, packed.size), dtype=np.int32)
    lists = np.empty((d, packed.size), dtype=trees[0][0].ranks.dtype)
    at = 0
    for a, b, s, boot in groups:
        live = (boot > 0) & grows[a:b, None]
        end = at + int(np.count_nonzero(live))
        weight = np.broadcast_to(1 + (s.y.astype(np.int64) << 32), live.shape)
        packed[at:end] = boot[live] * weight[live]
        entry = np.cumsum(live, dtype=np.int32).reshape(live.shape) + np.int32(at - 1)
        for j in range(d):
            ranked = live[:, s.orders[j]]
            ents[j, at:end] = entry[:, s.orders[j]][ranked]
            lists[j, at:end] = np.broadcast_to(s.ranks[j], live.shape)[ranked]
        at = end
    del groups, boot, live, weight, entry, ranked

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
        del node_of, inside

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
        splits_here = np.zeros(m, dtype=bool)
        splits_here[s] = True
        p = np.flatnonzero(np.repeat(splits_here, cnt))
        sp = np.repeat(np.arange(s.size), cnt[s])  # the split of each position p
        slot = slot.astype(dest.dtype)
        dest[ents[f[sp], p]] = np.where(p <= cut[sp], slot[sp, 0], slot[sp, 1])
        del p, sp

        # stable partition of every list by destination, one list at a time,
        # into the front of its own row
        tree, nid, size, pos, cnt = (a[keep] for a in (c_tree, c_nid, c_size, c_pos, c_cnt))
        kept = int(cnt.sum())
        for j in range(d):
            order = np.argsort(dest[ents[j]], kind="stable")[:kept]
            ents[j, :kept], lists[j, :kept] = ents[j, order], lists[j, order]
        ents, lists = ents[:, :kept], lists[:, :kept]
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


def _mask(d: int, feature_mask) -> tuple[int, ...]:
    """The columns a forest reads of a d-column matrix: all by default."""
    mask = tuple(range(d)) if feature_mask is None else tuple(feature_mask)
    if not mask or min(mask) < 0 or max(mask) >= d:
        raise ParameterError(f"feature mask {mask} out of range for d={d}")
    return mask


def _matrix(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """``features`` as a float64 (n, d) matrix and ``labels`` as int8, one per row."""
    x = np.asarray(features, dtype=np.float64)
    y = _binary_labels(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ParameterError("features must be (n, d) with one label per row")
    return x, y


def _training_set(ranks: np.ndarray, fit: Fit) -> _Set:
    """``fit``'s training rows listed by their ``ranks`` in the shared encoding."""
    fit_ranks = ranks[:, fit.rows]
    orders = np.argsort(fit_ranks, axis=1, kind="stable")
    return _Set(_binary_labels(fit.labels), orders.astype(np.min_scalar_type(fit.rows.size)),
                np.take_along_axis(fit_ranks, orders, axis=1))


def _slices(draws: np.ndarray, cores: int) -> list[list[list[int]]]:
    """Cut trees of ``draws`` bootstrap draws each, in order, into contiguous
    slices of about equal draws, at most ``cores`` of them: a tree goes to
    the slice its middle draw falls in, and a slice no tree falls in is
    dropped, so the first slice starts at the first tree.  All draws within
    ``_BATCH_DRAWS`` make one slice.  Each slice is cut greedily into
    batches: a tree starts a new batch when adding it would take the batch
    past ``_BATCH_DRAWS``.  Returns each slice's batches of tree indices."""
    total = int(draws.sum())
    if total <= _BATCH_DRAWS:
        cores = 1
    slice_of = ((2 * np.cumsum(draws) - draws) * cores // (2 * total)).tolist()
    slices, held, last = [], 0, -1
    for t, (n, w) in enumerate(zip(draws.tolist(), slice_of)):
        if w != last:
            slices.append([])
        if w != last or held + n > _BATCH_DRAWS:
            slices[-1].append([])
            held = 0
        slices[-1][-1].append(t)
        held, last = held + n, w
    return slices


def grow_fits(
    x: np.ndarray, fits: list[Fit], n_trees: int, feature_mask: tuple[int, ...] | None = None
) -> tuple[list[np.ndarray], list[list[_Tree]]]:
    """Grow ``n_trees`` trees for each of ``fits`` on the masked columns of
    the (n, d) matrix ``x``, all in one pass.  Returns each fit's positive
    votes (int64) on its ``score`` rows, and its trees (empty unless the
    fit keeps them)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ParameterError("features must be finite")
    if n_trees < 1:
        raise ParameterError("n_trees must be >= 1")
    for fit in fits:
        if fit.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {fit.seed}")
    mask = _mask(x.shape[1], feature_mask)
    if any(np.unique(fit.labels).size < 2 for fit in fits):
        raise TrainingError("training set contains a single class")
    if not fits:
        return [], []

    columns = [np.unique(x[:, j], return_inverse=True) for j in mask]
    values = np.zeros((len(mask), max(v.size for v, _ in columns)))
    for j, (v, _) in enumerate(columns):
        values[j, : v.size] = v
    ranks = np.stack([r for _, r in columns]).astype(np.min_scalar_type(values.shape[1]))
    del columns
    trees = [(k, np.random.default_rng(c))
             for k, fit in enumerate(fits) for c in np.random.SeedSequence(fit.seed).spawn(n_trees)]
    slices = _slices(np.repeat([fit.rows.size for fit in fits], n_trees), usable_cores())

    def grow(batches):
        """Each fit's votes on its score rows from one slice's trees, with the
        trees it keeps.  The batches come in fit order, so a fit's training
        set and masked score rows are built once, and dropped once a later
        fit's batch starts."""
        cache, result = {}, {}
        for batch in batches:
            for k in [k for k in cache if k < batch[0][0]]:
                del cache[k]
            for k, _ in batch:
                if k not in cache:
                    cache[k] = (_training_set(ranks, fits[k]),
                                np.ascontiguousarray(x[fits[k].score][:, mask]))
            grown = _grow_batch(values, [(cache[k][0], r) for k, r in batch])
            for (k, _), tree in zip(batch, grown):
                v, mine = result.setdefault(k, (np.zeros(fits[k].score.size, dtype=np.int64), []))
                v += tree.apply(cache[k][1])
                if fits[k].keep:
                    mine.append(tree)
        return result

    votes = [np.zeros(fit.score.size, dtype=np.int64) for fit in fits]
    kept = [[] for _ in fits]

    def take(result):
        for k, (v, mine) in result.items():
            votes[k] += v
            kept[k].extend(mine)

    jobs = [[[trees[t] for t in batch] for batch in batches] for batches in slices]
    in_slices(grow, jobs, take, _dead_worker)
    return votes, kept


def _dead_worker(pid: int, status: int) -> TrainingError:
    return TrainingError(f"forest worker {pid} exited with status {status}")


def train_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int = 1000,
    seed: int = 0,
    feature_mask: tuple[int, ...] | None = None,
) -> ForestModel:
    """Train a bootstrap ensemble of CART trees on the masked features."""
    x, y = _matrix(features, labels)
    fit = Fit(np.arange(y.size), y, seed, np.arange(0), keep=True)
    _, (trees,) = grow_fits(x, [fit], n_trees, feature_mask)
    return ForestModel(trees, n_trees, seed, _mask(x.shape[1], feature_mask), x.shape[1])


def predict_proba(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Fraction of trees voting positive, per row of an (n, d) matrix.

    The input carries the full feature width; the model applies its own
    mask.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError(f"features must be an (n, d) matrix, got shape {x.shape}")
    if x.shape[1] != model.n_features_full:
        raise ConsistencyError(
            f"model expects {model.n_features_full} features, got {x.shape[1]}"
        )
    x = np.ascontiguousarray(x[:, model.feature_mask])
    votes = np.zeros(x.shape[0], dtype=np.int64)
    for t in model.trees:
        votes += t.apply(x)
    return votes / len(model.trees)


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


class CrossValidation:
    """Stratified k-fold evaluation of the forest on the ``rows`` of a shared
    matrix with their ``labels``: one fit per fold, trained on the other
    folds' rows and scoring its own, each from a seed spawned from ``seed``."""

    def __init__(self, rows: np.ndarray, labels: np.ndarray, folds: int, seed: int):
        self.rows = np.asarray(rows)
        self.labels = _binary_labels(labels)
        self.fold_ids = stratified_fold_ids(self.labels, folds, seed)
        root = np.random.SeedSequence(seed)
        seeds = [int(c.generate_state(1, dtype=np.uint32)[0]) for c in root.spawn(folds)]
        self.fits = []
        for k, fold_seed in enumerate(seeds):
            train = self.fold_ids != k
            self.fits.append(
                Fit(self.rows[train], self.labels[train], fold_seed, self.rows[~train])
            )

    def roc(self, votes: list[np.ndarray], n_trees: int) -> RocResult:
        """The ROC of the pooled out-of-fold scores, from each fit's votes;
        the spread is the sample standard deviation of the per-fold AUCs."""
        oof = np.zeros(self.labels.size)
        fold_aucs = []
        for k, fold_votes in enumerate(votes):
            test = self.fold_ids == k
            oof[test] = fold_votes / n_trees
            fold_aucs.append(roc_auc(oof[test], self.labels[test]).auc)
        pooled = roc_auc(oof, self.labels)
        pooled.fold_aucs = fold_aucs
        pooled.auc_std = float(np.std(fold_aucs, ddof=1))
        return pooled


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
    x, y = _matrix(features, labels)
    cv = CrossValidation(np.arange(y.size), y, folds, seed)
    return cv.roc(grow_fits(x, cv.fits, n_trees, feature_mask)[0], n_trees)


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
