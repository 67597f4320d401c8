"""Rule-derived ground truth and the count-feature classifier.

Lays 14 stations along one road (traffic toward higher indices), labels
every candidate tuple with the propagation rules, assembles a balanced
dataset, and compares the four-count forest against thresholding the
single estimated causal probability.  Ends with the 15-subset feature
ablation.
"""

import numpy as np

from nexica import (
    DatasetSpec,
    SynthSpec,
    build_dataset,
    cross_validate,
    feature_ablation,
    full_dataset,
    generate_network,
    label_pairs,
    roc_auc,
    sweep,
)
from nexica.pipeline import dataset_features
from nexica.synth import line_geometry

# Plant causality consistent with the geometry: cause g stations
# downstream of the effect at lag g (one free-flow minute per station).
edges = tuple(
    (e + gap, e, gap, pc)
    for e, gap, pc in [(0, 1, 0.6), (2, 2, 0.7), (5, 1, 0.5), (7, 3, 0.65), (9, 2, 0.8), (11, 1, 0.7)]
)
spec = SynthSpec(n_stations=14, n_slots=52_416, p_s=0.05, edges=edges, seed=9)
series, truth = generate_network(spec)
meta, matrix = line_geometry(spec)

rules = DatasetSpec(ratio=1, l_max=8)
labels = label_pairs(meta, matrix, rules)
print(f"candidate tuples: {len(labels.labeled) + len(labels.pool)}")
print(f"rule positives:   {len(labels.positives())}")
print(f"rule negatives:   {len(labels.negatives())} immediate, pool of {len(labels.pool)}")

balanced = build_dataset(labels, ratio=1)
print(f"balanced set:     {len(balanced.pairs)} tuples, "
      f"min negative drive time {balanced.min_negative_drive_time:.1f} min")

table = sweep(series, l_max=8, tau=0)
x, y = dataset_features(table, balanced.pairs)

forest = cross_validate(x, y, folds=5, n_trees=300, seed=1, feature_mask=(0, 1, 2, 3))
scalar = roc_auc(x[:, 4], y)
print(f"\nforest on counts a00..a11: AUC {forest.auc:.4f} +/- {forest.auc_std:.4f}")
print(f"scalar threshold on p_c:   AUC {scalar.auc:.4f}")

full = full_dataset(labels)
xf, yf = dataset_features(table, full.pairs)
full_cv = cross_validate(xf, yf, folds=5, n_trees=300, seed=1, feature_mask=(0, 1, 2, 3))
print(f"full dataset ({len(full.pairs)} tuples): AUC {full_cv.auc:.4f}")

print("\nfeature ablation over the four counts (balanced set):")
rows = feature_ablation(x[:, :4], y, folds=5, n_trees=120, seed=2)
for names, auc in sorted(rows, key=lambda r: (len(r[0]), r[0])):
    print(f"  {'+'.join(names):<20} {auc:.4f}")
