import os
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import classify
from nexica.classify import (
    cross_validate,
    feature_ablation,
    predict_proba,
    roc_auc,
    stratified_fold_ids,
    train_forest,
)
from nexica.errors import ConsistencyError, DomainError, ParameterError, TrainingError

from oracles import grow_tree_reference, mann_whitney_auc


# --- ROC / AUC ---------------------------------------------------------------

def test_roc_perfect_and_reversed():
    assert roc_auc([0.9, 0.1], [1, 0]).auc == 1.0
    assert roc_auc([0.1, 0.9], [1, 0]).auc == 0.0


def test_roc_tie_convention():
    assert roc_auc([0.5, 0.5], [1, 0]).auc == 0.5


def test_roc_single_class_error():
    with pytest.raises(DomainError):
        roc_auc([0.3, 0.7], [1, 1])


def test_roc_equals_mann_whitney_exactly():
    rng = np.random.default_rng(0)
    for _ in range(400):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse score grid forces plenty of ties
        scores = rng.integers(0, int(rng.integers(2, 12)), n) / 7.0
        result = roc_auc(scores, labels)
        oracle = mann_whitney_auc(scores.tolist(), labels.tolist())
        assert result.auc == float(oracle)


def test_roc_is_exact_on_a_large_tied_input():
    rng = np.random.default_rng(4)
    n = 150_000
    labels = (rng.random(n) < 0.4).astype(np.int64)
    scores = rng.integers(0, 50, n) / 7.0
    # grouped Mann-Whitney: each positive beats the negatives below its score
    # and ties with the negatives at it
    pos, neg = Counter(scores[labels == 1].tolist()), Counter(scores[labels == 0].tolist())
    twice, below = 0, 0
    for v in sorted(set(pos) | set(neg)):
        twice += pos[v] * (2 * below + neg[v])
        below += neg[v]
    n_pos, n_neg = sum(pos.values()), sum(neg.values())
    assert roc_auc(scores, labels).auc == float(Fraction(twice, 2 * n_pos * n_neg))


def test_roc_rejects_inputs_too_long_for_the_exact_trapezoid():
    n = 2**32  # zero-stride views: nothing of this length is allocated
    with pytest.raises(ParameterError, match=r"fewer than 2\*\*32"):
        roc_auc(np.broadcast_to(0.5, n), np.broadcast_to(np.int64(1), n))


def test_roc_curve_is_monotone_and_integrates_to_auc():
    rng = np.random.default_rng(3)
    scores = rng.random(150)
    labels = rng.integers(0, 2, 150)
    labels[0], labels[1] = 0, 1
    roc = roc_auc(scores, labels)
    assert np.all(np.diff(roc.fpr) >= 0)
    assert np.all(np.diff(roc.tpr) >= 0)
    assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
    assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
    assert np.isclose(np.trapezoid(roc.tpr, roc.fpr), roc.auc, atol=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 30, 120).astype(float)
    labels = rng.integers(0, 2, 120)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels).auc
    for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s**3):
        assert roc_auc(transform(scores / 30.0), labels).auc == base


def test_roc_auc_trivial_cases():
    labels = np.array([1, 0, 1, 0])
    assert roc_auc(labels.astype(float), labels).auc == 1.0
    assert roc_auc(np.full(4, 2.0), labels).auc == 0.5


# --- forest ------------------------------------------------------------------

def _separable(n=40, seed=0):
    # separable along every feature, so even out-of-bag points classify
    # cleanly whichever feature a split samples
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    x = np.column_stack([y * 10.0 + rng.normal(0, 0.5, n) for _ in range(3)])
    return x, y


def test_single_tree_fits_two_points():
    x = np.array([[0.0, 5.0], [1.0, -5.0]])
    y = np.array([0, 1])
    # seed chosen so the bootstrap draw contains both points
    model = train_forest(x, y, n_trees=1, seed=1)
    scores = predict_proba(model, x)
    assert scores[0] == 0.0 and scores[1] == 1.0


def test_training_is_deterministic():
    x, y = _separable()
    h1 = train_forest(x, y, n_trees=30, seed=9).model_hash()
    h2 = train_forest(x, y, n_trees=30, seed=9).model_hash()
    h3 = train_forest(x, y, n_trees=30, seed=10).model_hash()
    assert h1 == h2
    assert h1 != h3


def test_train_set_scores_on_separable_data():
    x, y = _separable()
    model = train_forest(x, y, n_trees=50, seed=1)
    scores = predict_proba(model, x)
    assert np.all(scores[y == 1] >= 0.9)
    assert np.all(scores[y == 0] <= 0.1)


def test_predict_proba_is_vote_fraction():
    x = np.array([[0.0], [1.0], [0.25]])
    y = np.array([0, 1, 0])
    model = train_forest(x, y, n_trees=2, seed=3)
    p = predict_proba(model, np.array([[0.6]]))
    assert p.shape == (1,) and p[0] in (0.0, 0.5, 1.0)  # two votes -> quantized fractions
    with pytest.raises(ParameterError):
        predict_proba(model, np.array([0.6]))
    all_pos = predict_proba(model, np.array([[1.0]] * 4))
    assert np.all((all_pos * 2) == np.round(all_pos * 2))


def test_predict_proba_invariant_to_tree_order():
    x, y = _separable(seed=4)
    model = train_forest(x, y, n_trees=20, seed=5)
    scores = predict_proba(model, x)
    model.trees = list(reversed(model.trees))
    assert np.array_equal(predict_proba(model, x), scores)


def _reference_trees(x, y, n_trees, seed, feature_mask):
    xm = np.asarray(x, dtype=np.float64)[:, list(feature_mask)]
    n = xm.shape[0]
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, n)
        yield grow_tree_reference(xm, y, boot, rng)


@st.composite
def _training_sets(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):  # few distinct values: ties, duplicated rows, constant columns
        levels = draw(st.integers(1, 4))
        cells = st.integers(0, levels - 1).map(float)
    else:
        cells = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=n))
    x = np.array([pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                                                 max_size=n))])
    if draw(st.booleans()):  # equal-Gini candidates: copies and mirrors of column 0
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
        x = x[:, :1] * np.array(signs)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    y[:2] = (0, 1)
    mask = tuple(draw(st.permutations(range(d)))[: draw(st.integers(1, d))])
    return x, y, mask


def _among_other_rows(x, seed):
    """``x`` shuffled among up to twice as many other rows, whose values lie
    between, on and beyond those of ``x`` in each column; with the row that
    each row of ``x`` became."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 2 * len(x) + 1))
    other = np.empty((m, x.shape[1]))
    for j in range(x.shape[1]):
        v = np.unique(x[:, j])
        other[:, j] = rng.choice(np.concatenate([(v[:-1] + v[1:]) / 2, v, v - 1, v + 1]), m)
    perm = rng.permutation(len(x) + m)
    where = np.empty_like(perm)
    where[perm] = np.arange(perm.size)
    return np.concatenate([x, other])[perm], where[: len(x)]


@settings(max_examples=150, deadline=None)
@given(data=_training_sets(), n_trees=st.integers(1, 6), seed=st.integers(0, 2**16),
       batch_draws=st.integers(1, 200), other_rows=st.integers(0, 2**16))
def test_forest_grows_the_reference_trees(data, n_trees, seed, batch_draws, other_rows):
    """``train_forest``, and a fit over a matrix with rows outside its
    training rows, grow the reference trees of the training rows alone."""
    x, y, mask = data
    shared, rows = _among_other_rows(x, other_rows)
    fit = classify.Fit(rows, y, seed, rows, keep=True)
    with mock.patch.object(classify, "_BATCH_DRAWS", batch_draws):
        model = train_forest(x, y, n_trees=n_trees, seed=seed, feature_mask=mask)
        (votes,), (trees,) = classify.grow_fits(shared, [fit], n_trees, mask)
    refs = list(_reference_trees(x, y, n_trees, seed, mask))
    for grown in (model.trees, trees):
        for tree, ref in zip(grown, refs, strict=True):
            for name in ("feature", "threshold", "left", "right", "vote"):
                got, want = getattr(tree, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(votes, sum(ref.apply(x[:, list(mask)]).astype(np.int64) for ref in refs))


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(st.integers(1, 3000), min_size=1, max_size=60),
       cores=st.integers(1, 4), budget=st.integers(1, 5000))
def test_batches_hold_equal_draws_within_the_budget(draws, cores, budget):
    """Trees in order, in one batch when their draws fit the budget, else
    cut into a multiple of the cores' count of batches unless every tree
    is its own batch; a batch of two trees or more holds at most the
    budget's draws."""
    draws = np.array(draws)
    with mock.patch.object(classify, "_BATCH_DRAWS", budget):
        bounds = classify._batch_bounds(draws, cores)
    starts, ends = (np.array([b[i] for b in bounds]) for i in (0, 1))
    assert starts[0] == 0 and ends[-1] == draws.size and np.array_equal(starts[1:], ends[:-1])
    if draws.sum() <= budget:
        assert len(bounds) == 1
    else:
        assert len(bounds) % cores == 0 or len(bounds) == draws.size
    for a, b in bounds:
        assert b - a <= 1 or draws[a:b].sum() <= budget


def test_model_hash_does_not_depend_on_batching():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 30, (300, 4)).astype(float)
    y = (rng.random(300) < x[:, 0] / 40).astype(np.int8)
    with mock.patch.object(classify, "_BATCH_DRAWS", 1):
        one_by_one = train_forest(x, y, n_trees=12, seed=3)
    with mock.patch.object(classify, "_BATCH_DRAWS", 300 * 12):
        all_at_once = train_forest(x, y, n_trees=12, seed=3)
    assert one_by_one.model_hash() == all_at_once.model_hash()
    assert one_by_one.model_hash() == train_forest(x, y, n_trees=12, seed=3).model_hash()


@pytest.fixture(scope="module")
def many_batches():
    """A set whose forests grow in several batches, with the default run's
    model hash and cross-validated ROC.  A batch holds at most 2**16
    bootstrap draws, and the batches are the fewest such that their count
    is a multiple of the usable cores.  The 12 trees of 8,000 rows (96,000
    draws) are 2 batches on one or two cores and 3 on three; the 60 trees
    of the 5 folds of 6,400 rows (384,000 draws) are 6 on one to three."""
    rng = np.random.default_rng(31)
    x = rng.integers(0, 40, (8000, 4)).astype(float)
    y = ((x[:, 0] + x[:, 1] > 40) ^ (rng.random(8000) < 0.03)).astype(np.int8)
    model_hash = train_forest(x, y, n_trees=12, seed=6).model_hash()
    return x, y, model_hash, cross_validate(x, y, folds=5, n_trees=12, seed=6)


@pytest.mark.parametrize("cores, children", [({0}, 0), ({0, 1, 2}, 2)],
                         ids=["in_process", "two_children"])
def test_forest_does_not_depend_on_the_usable_cores(monkeypatch, many_batches, cores, children):
    x, y, model_hash, roc = many_batches
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    train_forest(x[:500], y[:500], n_trees=12, seed=6)  # 6,000 draws: one batch, no fork
    assert not forks
    assert train_forest(x, y, n_trees=12, seed=6).model_hash() == model_hash
    got = cross_validate(x, y, folds=5, n_trees=12, seed=6)
    assert len(forks) == 2 * children
    assert (got.auc, got.fold_aucs, got.auc_std) == (roc.auc, roc.fold_aucs, roc.auc_std)
    for name in ("thresholds", "fpr", "tpr"):
        assert np.array_equal(getattr(got, name), getattr(roc, name)), name


@pytest.mark.parametrize("where, error, message", [
    ("child", ValueError, "^injected$"),
    ("parent", ValueError, "^injected$"),
    ("child", TrainingError, "exited with status 3$"),
])
def test_a_failing_worker_fails_the_call_and_leaves_no_child(monkeypatch, many_batches, where,
                                                            error, message):
    x, y = many_batches[:2]
    parent, grow = os.getpid(), classify._grow_batch

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            if error is TrainingError:
                os._exit(3)
            raise ValueError("injected")
        return grow(*args)

    monkeypatch.setattr(classify, "_grow_batch", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for call in (lambda: train_forest(x, y, n_trees=12, seed=6),
                 lambda: cross_validate(x, y, folds=5, n_trees=12, seed=6)):
        with pytest.raises(error, match=message):
            call()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_single_class_training_error():
    with pytest.raises(TrainingError):
        train_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), n_trees=2)


def test_mask_mismatch_error():
    x, y = _separable()
    model = train_forest(x, y, n_trees=2, seed=0, feature_mask=(0, 1))
    with pytest.raises(ConsistencyError):
        predict_proba(model, x[:, :2])


def test_bad_mask_rejected():
    x, y = _separable()
    with pytest.raises(ParameterError):
        train_forest(x, y, n_trees=2, feature_mask=(0, 7))


# --- cross validation ----------------------------------------------------------

def test_stratified_folds_balance_classes():
    y = np.array([1] * 10 + [0] * 40)
    ids = stratified_fold_ids(y, 5, seed=0)
    for k in range(5):
        fold = ids == k
        assert y[fold].sum() == 2
        assert fold.sum() == 10


def test_stratification_error_when_too_few_positives():
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(TrainingError):
        stratified_fold_ids(y, 5, seed=0)


@pytest.mark.parametrize("labels, bad", [([0, 256, 1, 0, 257, 1], "256"),
                                         ([0, 2, 1, 0, 1, 1], "2"),
                                         ([0, 1, 0.5, 0, 1, 1], "0.5"),
                                         ([0, 1, 1, 0, -1, 1], "-1")])
@pytest.mark.parametrize("call", [
    lambda y: train_forest(np.arange(12.0).reshape(6, 2), y, n_trees=2),
    lambda y: cross_validate(np.arange(12.0).reshape(6, 2), y, folds=2, n_trees=2),
    lambda y: roc_auc(np.arange(6.0), y),
    lambda y: stratified_fold_ids(y, 2, seed=0),
], ids=["train_forest", "cross_validate", "roc_auc", "stratified_fold_ids"])
def test_a_label_other_than_0_or_1_is_rejected_before_any_cast(call, labels, bad):
    """An int8 cast would turn 256 into 0 and 257 into 1, and a label of 2
    would sit in neither class; each function names the first bad label."""
    with pytest.raises(ParameterError, match=f"labels must be 0 or 1, got {bad}$"):
        call(labels)
    with pytest.raises(ParameterError, match=f"labels must be 0 or 1, got {bad}$"):
        call(np.array(labels))


def test_cv_on_perfectly_predictive_feature():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, 60)
    y[:5], y[5:10] = 1, 0
    x = np.column_stack([y.astype(float), rng.normal(size=60)])
    result = cross_validate(x, y, folds=5, n_trees=20, seed=2)
    assert result.auc == 1.0
    assert result.fold_aucs == [1.0] * 5
    assert result.auc_std == 0.0


def test_cv_null_is_near_half():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(300, 4))
    y = rng.integers(0, 2, 300)
    result = cross_validate(x, y, folds=5, n_trees=40, seed=7)
    assert 0.35 < result.auc < 0.65


def test_cv_reports_fold_statistics():
    x, y = _separable(n=60, seed=8)
    result = cross_validate(x, y, folds=3, n_trees=15, seed=4)
    assert len(result.fold_aucs) == 3
    assert result.auc_std is not None
    assert 0.9 <= result.auc <= 1.0


def test_feature_ablation_finds_informative_feature():
    rng = np.random.default_rng(23)
    n = 60
    y = np.repeat([0, 1], n // 2)
    informative = y * 100.0 + rng.normal(0, 1, n)
    noise = [rng.normal(0, 1, n) for _ in range(3)]
    x = np.column_stack([informative, *noise])
    rows = feature_ablation(x, y, folds=3, n_trees=10, seed=1)
    assert len(rows) == 15
    for names, auc in rows:
        if "a00" in names:  # column 0 carries the label
            assert auc == 1.0


def test_feature_ablation_needs_four_columns():
    with pytest.raises(ParameterError):
        feature_ablation(np.zeros((10, 3)), np.zeros(10, dtype=int))
