from fractions import Fraction

import numpy as np
import pytest

from nexica.classify import (
    cross_validate,
    feature_ablation,
    predict_proba,
    roc_auc,
    stratified_fold_ids,
    train_forest,
)
from nexica.errors import ConsistencyError, DomainError, ParameterError, TrainingError

from oracles import mann_whitney_auc


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
    p = predict_proba(model, np.array([0.6]))
    assert p in (0.0, 0.5, 1.0)  # two votes -> quantized fractions
    all_pos = predict_proba(model, np.array([[1.0]] * 4))
    assert np.all((all_pos * 2) == np.round(all_pos * 2))


def test_predict_proba_invariant_to_tree_order():
    x, y = _separable(seed=4)
    model = train_forest(x, y, n_trees=20, seed=5)
    scores = predict_proba(model, x)
    model.trees = list(reversed(model.trees))
    assert np.array_equal(predict_proba(model, x), scores)


def test_model_dict_roundtrip_preserves_hash():
    import json

    from nexica.classify import ForestModel

    x, y = _separable(seed=6)
    model = train_forest(x, y, n_trees=8, seed=2, feature_mask=(0, 2))
    clone = ForestModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert clone.model_hash() == model.model_hash()
    assert np.array_equal(predict_proba(clone, x), predict_proba(model, x))


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
