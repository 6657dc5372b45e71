"""Leave-one-user-out folds with stream-level stratified train/validation splits.

Splitting by individual windows would leak: neighboring windows overlap
heavily, so random assignment puts near-duplicates on both sides. The unit
of assignment is therefore a stream: a maximal run of identically labeled
minutes, capped at ``STREAM_CAP_MINUTES`` (30). Development streams are packed
greedily per class toward an 80/20 train/validation split (``VAL_FRACTION``
of the minutes validate); a bag joins a side only when its whole 12-minute
span lies in streams of that side, so train and validation window intervals
never intersect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bags import BagDataset, SessionFeatures, UNLABELED
from .geo import WINDOW_MINUTES

__all__ = ["StreamRef", "SplitSpec", "label_streams", "loso_folds", "split_bags"]

STREAM_CAP_MINUTES = 30
VAL_FRACTION = 0.2  # share of each class's development minutes held for validation
TRAIN = 0
VAL = 1
NONE = -1


@dataclass(frozen=True)
class StreamRef:
    """A contiguous single-label run of minutes inside one session."""

    session: int  # index into the feature list
    start: int  # first minute (inclusive)
    stop: int  # last minute (exclusive)
    label: int
    user: str

    @property
    def minutes(self) -> int:
        return self.stop - self.start


@dataclass
class SplitSpec:
    """One leave-one-user-out fold."""

    test_user: str
    train_streams: list[StreamRef]
    val_streams: list[StreamRef]
    seed: int


def label_streams(features: list[SessionFeatures]) -> list[StreamRef]:
    """Maximal single-label runs per session, chopped to at most ``STREAM_CAP_MINUTES``."""
    streams: list[StreamRef] = []
    for s, feat in enumerate(features):
        labels = feat.labels
        m = 0
        while m < len(labels):
            if labels[m] == UNLABELED:
                m += 1
                continue
            stop = m
            while stop < len(labels) and labels[stop] == labels[m]:
                stop += 1
            for piece in range(m, stop, STREAM_CAP_MINUTES):
                end = min(piece + STREAM_CAP_MINUTES, stop)
                streams.append(StreamRef(session=s, start=piece, stop=end, label=int(labels[m]), user=feat.user))
            m = stop
    return streams


def _pack_dev_streams(streams: list[StreamRef], seed: int) -> tuple[list[StreamRef], list[StreamRef]]:
    """Greedy per-class balance toward ``VAL_FRACTION`` of the minutes in validation.

    Streams are taken largest-first (ties shuffled by seed) and each goes to
    the relatively emptier side, so every class ends close to the same
    train/validation ratio and the class distributions of the two sides
    match. Equal-weight streams are plentiful (runs are capped), which is
    where the seed actually shuffles the split.
    """
    rng = np.random.default_rng(seed)
    train: list[StreamRef] = []
    val: list[StreamRef] = []
    by_label: dict[int, list[StreamRef]] = {}
    for stream in streams:
        by_label.setdefault(stream.label, []).append(stream)
    for label in sorted(by_label):
        group = by_label[label]
        order = rng.permutation(len(group))
        group = [group[i] for i in order]
        group.sort(key=lambda s: -s.minutes)  # stable: ties stay shuffled
        val_w = train_w = 0.0
        for stream in group:
            w = float(stream.minutes)
            if len(group) > 1 and val_w * (1.0 - VAL_FRACTION) < train_w * VAL_FRACTION:
                val.append(stream)
                val_w += w
            else:
                train.append(stream)
                train_w += w
    return train, val


def loso_folds(features: list[SessionFeatures], seed: int = 0) -> list[SplitSpec]:
    """One fold per user: that user tests, the rest split by streams with
    ``VAL_FRACTION`` (20%) of each class's minutes in validation."""
    users = sorted({feat.user for feat in features})
    if len(users) < 2:
        raise ValueError("leave-one-user-out needs at least two users")
    streams = label_streams(features)
    folds = []
    for i, test_user in enumerate(users):
        dev = [s for s in streams if s.user != test_user]
        train, val = _pack_dev_streams(dev, seed + i)
        folds.append(SplitSpec(test_user=test_user, train_streams=train, val_streams=val, seed=seed))
    return folds


def _side_maps(dataset: BagDataset, spec: SplitSpec) -> list[np.ndarray]:
    maps = [np.full(feat.n_minutes, NONE, dtype=np.int64) for feat in dataset.features]
    for side, streams in ((TRAIN, spec.train_streams), (VAL, spec.val_streams)):
        for stream in streams:
            maps[stream.session][stream.start : stream.stop] = side
    return maps


def split_bags(
    dataset: BagDataset, spec: SplitSpec, span_minutes: int = WINDOW_MINUTES
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign bag indices to (train, validation, test).

    Test-user bags all test. A development bag lands on a side only if every
    minute of its span [target - span + 1, target] belongs to streams of that
    side; bags straddling a boundary are dropped, which is what keeps the
    train and validation window intervals disjoint. Single-window datasets
    pass ``span_minutes=1``.
    """
    side = _side_maps(dataset, spec)
    train_idx, val_idx, test_idx = [], [], []
    for i, ref in enumerate(dataset.refs):
        feat = dataset.features[ref.session]
        if feat.user == spec.test_user:
            test_idx.append(i)
            continue
        span = side[ref.session][max(0, ref.target - span_minutes + 1) : ref.target + 1]
        if np.all(span == TRAIN):
            train_idx.append(i)
        elif np.all(span == VAL):
            val_idx.append(i)
    return np.array(train_idx, dtype=np.int64), np.array(val_idx, dtype=np.int64), np.array(test_idx, dtype=np.int64)
