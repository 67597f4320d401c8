"""Rule-derived ground-truth labels for candidate (cause, effect, lag) tuples.

Positives are chosen conservatively: both stations on the same road and
direction, the cause downstream of the effect (congestion propagates
upstream, against travel), and the lag inside the window implied by the
free-flow drive time between them and the congestion propagation speed.
Pairs differing in both road and direction are immediate negatives at
every lag, as are qualifying pairs at lags outside their expected window.
Everything else lands in an unlabeled pool, sorted by descending drive
time; ratio'd datasets draw their negatives from the far end of that
pool, where a causal connection is least plausible.

Every rule is an array operation over the ``(N, N)`` station pairs and
their lags; labeled tuples travel as the columns of one ``LabeledPairs``.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .ingest import SLOT_MINUTES, DriveTimeMatrix, StationMeta

log = logging.getLogger(__name__)

RULE_POSITIVE = "upstream-propagation"
RULE_CROSS = "cross-road-direction"
RULE_OFF_LAG = "off-expected-lag"
RULE_DISTANT = "distant-pool"
RULE_RESIDUAL = "residual-pool"
RULES = (RULE_POSITIVE, RULE_CROSS, RULE_OFF_LAG, RULE_DISTANT, RULE_RESIDUAL)


@dataclass(frozen=True, eq=False)
class LabeledPairs:
    """Labeled (cause, effect, lag) tuples as equal-length columns.

    ``cause``, ``effect`` and ``rule`` are object arrays of ``str``, so each
    row refers to a shared station id or ``RULE_*`` string instead of
    holding a copy; ``label`` is 1 for a positive and 0 for a negative.
    Any sequences are accepted and converted to the column dtypes.
    """

    cause: np.ndarray
    effect: np.ndarray
    lag: np.ndarray
    label: np.ndarray
    rule: np.ndarray
    drive_time: np.ndarray

    COLUMNS = {"cause": object, "effect": object, "lag": np.int64,
              "label": np.int8, "rule": object, "drive_time": np.float64}

    def __post_init__(self):
        for name, dtype in self.COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in self.COLUMNS}) != 1 or self.lag.ndim != 1:
            raise ValidationError("labeled pair columns must be 1-D and of equal length")

    def __len__(self) -> int:
        return len(self.lag)

    def take(self, rows) -> "LabeledPairs":
        """The rows selected by a slice, a boolean mask or an index array."""
        return LabeledPairs(*(getattr(self, name)[rows] for name in self.COLUMNS))

    def positives(self) -> "LabeledPairs":
        return self.take(self.label == 1)

    def negatives(self) -> "LabeledPairs":
        return self.take(self.label == 0)

    def concat(self, other: "LabeledPairs") -> "LabeledPairs":
        return LabeledPairs(*(
            np.concatenate([getattr(self, name), getattr(other, name)]) for name in self.COLUMNS
        ))


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of the labeling rules and dataset assembly.

    ``free_flow_speed_kph`` converts the drive-time matrix back to a
    distance, from which the propagation time at ``propagation_speed_kph``
    (roughly how fast congestion backs up along a highway) gives the
    expected lag window ``{base, .., base + soft_threshold}``.
    """

    ratio: int = 1
    l_max: int = 8
    propagation_speed_kph: float = 20.0
    free_flow_speed_kph: float = 100.0
    soft_threshold: int = 1

    def __post_init__(self):
        if self.ratio < 1:
            raise ParameterError("ratio must be >= 1")
        if self.l_max < 1:
            raise ParameterError("l_max must be >= 1")
        if self.propagation_speed_kph <= 0 or self.free_flow_speed_kph <= 0:
            raise ParameterError("speeds must be positive")
        if self.soft_threshold < 0:
            raise ParameterError("soft_threshold must be >= 0")


@dataclass
class GroundTruth:
    """Output of the labeling pass over all candidate tuples.

    ``pool`` holds the unlabeled tuples in draw order; its rows carry label
    0 and ``RULE_RESIDUAL``, the labels ``full_dataset`` gives them."""

    labeled: LabeledPairs
    pool: LabeledPairs

    def positives(self) -> LabeledPairs:
        return self.labeled.positives()

    def negatives(self) -> LabeledPairs:
        return self.labeled.negatives()


@dataclass
class GroundTruthDataset:
    """A training/evaluation dataset assembled from labels and pool."""

    pairs: LabeledPairs

    @property
    def min_negative_drive_time(self) -> float:
        """Shortest drive time among the negatives; NaN without negatives."""
        negative = self.pairs.drive_time[self.pairs.label == 0]
        return float(negative.min()) if negative.size else math.nan


def label_pairs(
    meta: list[StationMeta], matrix: DriveTimeMatrix, spec: DatasetSpec
) -> GroundTruth:
    """Rule-derived labels for every (cause, effect, lag) tuple over the given stations.

    Labeled tuples run over causes, then effects, then lags, in the order
    of ``meta``.  A pair qualifies for positives when the effect-to-cause
    drive is strictly shorter than the cause-to-effect one (equal drives
    leave the flow direction ambiguous).  Its expected window starts at the
    effect-to-cause drive converted to a distance at free-flow speed, then
    to slots at the propagation speed, rounded half up; it spans
    ``soft_threshold`` more lags and is clamped to [1, l_max].  Tuples
    neither clearly positive nor clearly negative go to the pool, sorted by
    descending drive time (ties broken by tuple id so output order is
    stable).  Qualifying pairs whose window is empty (too far apart at
    l_max) also go to the pool rather than being asserted negative.
    """
    for m in meta:
        if m.station_id not in matrix:
            log.warning("station %s missing from drive-time matrix; excluded", m.station_id)
    usable = [m for m in meta if m.station_id in matrix]
    ids = np.array([m.station_id for m in usable], dtype=object)
    at = np.array([matrix.index(m.station_id) for m in usable], dtype=np.int64)
    drive = matrix.minutes[np.ix_(at, at)]  # drive[c, e]: minutes from cause to effect
    road = np.array([m.road for m in usable], dtype=object)
    direction = np.array([m.direction for m in usable], dtype=object)

    distinct = ids[:, None] != ids[None, :]
    same_road = road[:, None] == road[None, :]
    same_direction = direction[:, None] == direction[None, :]
    cross = distinct & ~same_road & ~same_direction

    distance_km = drive.T * spec.free_flow_speed_kph / 60.0
    propagation_minutes = distance_km / spec.propagation_speed_kph * 60.0
    base = np.floor(propagation_minutes / SLOT_MINUTES + 0.5)[..., None]
    lags = np.arange(1, spec.l_max + 1)
    in_window = (lags >= base) & (lags <= base + spec.soft_threshold)
    qualifies = (
        distinct & same_road & same_direction & (drive.T < drive) & in_window.any(axis=2)
    )

    is_labeled = np.broadcast_to((cross | qualifies)[..., None], in_window.shape)
    c, e, k = np.nonzero(is_labeled)
    positive = qualifies[c, e] & in_window[c, e, k]
    rule = np.array([RULE_OFF_LAG, RULE_POSITIVE, RULE_CROSS], dtype=object)  # by label, then cross
    labeled = LabeledPairs(
        ids[c], ids[e], lags[k], positive, rule[np.where(cross[c, e], 2, positive)], drive[c, e]
    )

    in_pool = np.broadcast_to((distinct & ~cross & ~qualifies)[..., None], in_window.shape)
    c, e, k = np.nonzero(in_pool)
    rank = np.unique(ids, return_inverse=True)[1]
    order = np.lexsort((k, rank[e], rank[c], -drive[c, e]))
    c, e, k = c[order], e[order], k[order]
    pool = LabeledPairs(
        ids[c], ids[e], lags[k], np.zeros(len(k), np.int8),
        np.full(len(k), RULE_RESIDUAL, dtype=object), drive[c, e],
    )
    return GroundTruth(labeled, pool)


def build_dataset(truth: GroundTruth, ratio: int) -> GroundTruthDataset:
    """All positives plus the ``ratio`` x |positives| farthest pool tuples.

    Negatives are the drive-time-descending prefix of the pool, so raising
    the ratio only ever appends nearer (riskier) negatives.
    """
    if ratio < 1:
        raise ParameterError("ratio must be >= 1")
    positives = truth.positives()
    want = ratio * len(positives)
    if want > len(truth.pool):
        log.warning(
            "pool has %d tuples, %d requested; taking all", len(truth.pool), want
        )
    negatives = truth.pool.take(slice(want))
    negatives = dataclasses.replace(
        negatives, rule=np.full(len(negatives), RULE_DISTANT, dtype=object)
    )
    return GroundTruthDataset(positives.concat(negatives))


def full_dataset(truth: GroundTruth) -> GroundTruthDataset:
    """Every candidate tuple, with the whole pool treated as negative."""
    return GroundTruthDataset(truth.labeled.concat(truth.pool))
