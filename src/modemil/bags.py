"""Sessions, per-minute features, and bag construction.

A session holds placement-tagged 10 Hz acceleration streams, one location
stream, and one mode label per minute. Preprocessing turns it into cached
per-minute features: a spectrogram per (placement, minute) and a location
window per target minute. A bag targets one minute and packs the three most
recent one-minute spectrograms of one placement together with the 12-minute
location window ending at the target; sliding the target by one minute gives
the next bag. Targets need 12 minutes of history, so a session of M labeled
minutes yields at most M - 11 bags per placement.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .accel import SAMPLE_RATE_HZ, SPEC_BLOCK, SPEC_SHAPE, WINDOW_SAMPLES, band_table, mask_augment, minute_spectrograms
from .geo import LOC_SEQ_SHAPE, N_SCALARS, WINDOW_MINUTES, LocStream, fill_gaps, loc_features
from .nn.checkpoint import _Entries, load_arrays, save_arrays

__all__ = [
    "Session",
    "SessionFeatures",
    "BagRef",
    "BagDataset",
    "preprocess_session",
    "build_bags",
    "build_windows",
    "mixed_streams",
    "save_sessions",
    "load_sessions",
    "save_features",
    "load_features",
    "UNLABELED",
]

UNLABELED = -1
N_ACCEL_INSTANCES = 3


@dataclass
class Session:
    """One contiguous recording of one user."""

    user: str
    session_id: str
    accel: dict[str, np.ndarray]  # placement -> (n_samples, 3) at 10 Hz
    labels: np.ndarray  # (n_minutes,) mode index, UNLABELED where unknown
    location: LocStream | None = None
    start_time: float = 0.0
    accel_rate: float = SAMPLE_RATE_HZ  # preprocessing takes this rate only

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n_minutes(self) -> int:
        return len(self.labels)


@dataclass
class SessionFeatures:
    """Cached per-minute features of one session; float64 spectrograms (an older cache's) are rounded to float32."""

    user: str
    session_id: str
    placements: tuple[str, ...]
    spectrograms: np.ndarray  # (n_placements, n_minutes, 51, 51, 2) float32
    loc_matrix: np.ndarray  # (n_minutes, 10, 2), zeros before minute 11
    loc_scalars: np.ndarray  # (n_minutes, 5)
    loc_avail: np.ndarray  # (n_minutes,) availability fraction of the window
    labels: np.ndarray  # (n_minutes,)

    def __post_init__(self):
        self.spectrograms = np.asarray(self.spectrograms, dtype=np.float32)

    @property
    def n_minutes(self) -> int:
        return len(self.labels)


def preprocess_session(session: Session) -> SessionFeatures:
    """Compute spectrograms and location windows for every minute of a session.

    Each placement stream is cut into ``SPEC_BLOCK``-minute blocks, and worker
    threads, one per CPU the process may use, share the blocks and the
    location windows. Each job writes only its own slice; the numpy passes a
    block is made of release the interpreter lock. The features do not depend
    on the block size or the number of workers.
    """
    if session.accel_rate != SAMPLE_RATE_HZ:
        raise ValueError(f"{session.session_id}: acceleration at {session.accel_rate} Hz, not {SAMPLE_RATE_HZ:g} Hz")
    bands = band_table()
    minutes = session.n_minutes
    placements = tuple(sorted(session.accel))
    streams = [_checked_stream(session, placement) for placement in placements]
    specs = np.empty((len(placements), minutes, *SPEC_SHAPE), dtype=np.float32)
    loc_matrix = np.zeros((minutes, *LOC_SEQ_SHAPE))
    loc_scalars = np.zeros((minutes, N_SCALARS))
    loc_avail = np.zeros(minutes)

    def spectrogram_block(p: int, m0: int) -> None:
        samples = streams[p][m0 * WINDOW_SAMPLES : (m0 + SPEC_BLOCK) * WINDOW_SAMPLES]
        minute_spectrograms(samples, session.accel_rate, bands, specs[p, m0 : m0 + SPEC_BLOCK])

    def location_windows() -> None:
        grid = fill_gaps(session.location, session.start_time, minutes)
        for m in range(WINDOW_MINUTES - 1, minutes):
            window = loc_features(grid, m - (WINDOW_MINUTES - 1))
            loc_matrix[m] = window.matrix
            loc_scalars[m] = window.scalars
            loc_avail[m] = window.availability

    with ThreadPoolExecutor(_worker_count()) as pool:
        jobs = [pool.submit(location_windows)] if session.location is not None and minutes > 0 else []
        for p in range(len(placements)):
            jobs += [pool.submit(spectrogram_block, p, m0) for m0 in range(0, minutes, SPEC_BLOCK)]
        for job in jobs:
            job.result()
    return SessionFeatures(
        user=session.user,
        session_id=session.session_id,
        placements=placements,
        spectrograms=specs,
        loc_matrix=loc_matrix,
        loc_scalars=loc_scalars,
        loc_avail=loc_avail,
        labels=session.labels.copy(),
    )


def _checked_stream(session: Session, placement: str) -> np.ndarray:
    """A placement's samples over the labeled minutes, which must be present and finite."""
    samples = np.asarray(session.accel[placement], dtype=np.float64)
    minutes = session.n_minutes
    if len(samples) < minutes * WINDOW_SAMPLES:
        raise ValueError(f"{session.session_id}/{placement}: {len(samples)} samples for {minutes} labeled minutes")
    samples = samples[: minutes * WINDOW_SAMPLES]
    finite = np.isfinite(samples).reshape(minutes, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"{session.session_id}/{placement}: minute {np.argmin(finite)} holds non-finite samples")
    return samples


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BagRef:
    """Provenance of one bag: where each instance comes from.

    ``stream`` identifies the recording stream the bag slides along (the
    placement row for pure-placement datasets, the virtual stream index for
    mixed ones); sequence smoothing groups by it.
    """

    session: int  # index into the dataset's feature list
    placement_rows: tuple[int, ...]  # per accel instance, oldest first
    target: int  # target minute; accel minutes are target-2..target
    label: int
    stream: int = 0


class BagDataset:
    """Bags over a list of preprocessed sessions.

    The dataset stores references, not copies; ``batch`` gathers the arrays
    and optionally applies masking augmentation per acceleration instance.
    """

    def __init__(self, features: list[SessionFeatures], refs: list[BagRef]):
        self.features = features
        self.refs = refs

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def n_instances(self) -> int:
        return len(self.refs[0].placement_rows) if self.refs else N_ACCEL_INSTANCES

    def placement_names(self, ref: BagRef) -> tuple[str, ...]:
        placements = self.features[ref.session].placements
        return tuple(placements[row] for row in ref.placement_rows)

    def batch(
        self,
        indices,
        augment_rng: np.random.Generator | None = None,
        placement_rng: np.random.Generator | None = None,
    ) -> dict:
        """Gather bag arrays for the given indices.

        ``augment_rng`` applies stripe masking per acceleration instance;
        ``placement_rng`` redraws one placement per bag uniformly (used by
        the pre-training protocol, which samples one acceleration stream out
        of the available placements per bag per epoch).
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = len(indices)
        n_inst = self.n_instances
        acc = np.empty((n, n_inst, *SPEC_SHAPE), dtype=np.float32)
        loc_seq = np.empty((n, *LOC_SEQ_SHAPE))
        loc_scalars = np.empty((n, N_SCALARS))
        labels = np.empty(n, dtype=np.int64)
        for b, i in enumerate(indices):
            ref = self.refs[i]
            feat = self.features[ref.session]
            rows = ref.placement_rows
            if placement_rng is not None:
                rows = (int(placement_rng.integers(0, len(feat.placements))),) * n_inst
            for k, row in enumerate(rows):
                minute = ref.target - (n_inst - 1 - k)
                spec = feat.spectrograms[row, minute]
                acc[b, k] = mask_augment(spec, augment_rng) if augment_rng is not None else spec
            loc_seq[b] = feat.loc_matrix[ref.target]
            loc_scalars[b] = feat.loc_scalars[ref.target]
            labels[b] = ref.label
        return {"acc": acc, "loc_seq": loc_seq, "loc_scalars": loc_scalars, "labels": labels}


def _check_instances(n_instances: int) -> None:
    if not 1 <= n_instances <= WINDOW_MINUTES:
        raise ValueError(f"n_instances must lie in [1, {WINDOW_MINUTES}]")


def _stream_refs(s: int, feat: SessionFeatures, rows_per_minute, stream: int, n_instances: int, first_target: int):
    """Refs of one stream, one per labeled target minute from ``first_target`` on.

    ``rows_per_minute`` names the placement row that fills each minute; a bag
    takes the rows of its ``n_instances`` most recent minutes, oldest first.
    """
    return [
        BagRef(s, tuple(int(r) for r in rows_per_minute[m - n_instances + 1 : m + 1]), m, int(feat.labels[m]), stream)
        for m in range(first_target, feat.n_minutes)
        if feat.labels[m] != UNLABELED
    ]


def _placement_bags(features, placement, n_instances: int, first_target: int) -> BagDataset:
    refs: list[BagRef] = []
    for s, feat in enumerate(features):
        if placement is not None and placement not in feat.placements:
            raise ValueError(f"session {feat.session_id!r} has no placement {placement!r}, only {feat.placements}")
        rows = range(len(feat.placements)) if placement is None else [feat.placements.index(placement)]
        for row in rows:
            refs += _stream_refs(s, feat, [row] * feat.n_minutes, row, n_instances, first_target)
    return BagDataset(features, refs)


def build_bags(
    features: list[SessionFeatures],
    placement: str | None = None,
    n_instances: int = N_ACCEL_INSTANCES,
) -> BagDataset:
    """Bags for one placement, or for every placement when ``placement`` is None.

    Bags are emitted in deterministic order (session, placement, target) and
    only for labeled target minutes with the full 12-minute history available
    inside the session. Missing location leaves the bag's location instance
    masked; it is still emitted. ``n_instances`` is the ablation knob for the
    number of successive one-minute acceleration windows per bag (at most the
    12-minute history).
    """
    _check_instances(n_instances)
    return _placement_bags(features, placement, n_instances, WINDOW_MINUTES - 1)


def build_windows(features: list[SessionFeatures], placement: str | None = None) -> BagDataset:
    """Single-window dataset: one one-minute instance per labeled minute.

    This is the acceleration-encoder pre-training corpus; no location history
    is needed, so every labeled minute of every placement qualifies.
    """
    return _placement_bags(features, placement, 1, 0)


def mixed_streams(
    features: list[SessionFeatures],
    n_streams: int,
    rng: np.random.Generator,
    dwell_mean: float = 10.0,
    n_instances: int = N_ACCEL_INSTANCES,
) -> BagDataset:
    """Bags over virtual streams that hop between placements.

    Each virtual stream assigns every minute a placement; the placement is
    redrawn uniformly at boundaries whose dwell times are geometric with the
    given mean (in one-minute windows), so switching is memoryless and
    reproducible from the rng. Every window stays traceable to exactly one
    source placement through the bag's placement rows.
    """
    _check_instances(n_instances)
    refs: list[BagRef] = []
    for s, feat in enumerate(features):
        n_placements = len(feat.placements)
        for v in range(n_streams):
            choice = np.empty(feat.n_minutes, dtype=np.int64)
            m = 0
            while m < feat.n_minutes:
                row = int(rng.integers(0, n_placements))
                dwell = feat.n_minutes if not np.isfinite(dwell_mean) else int(rng.geometric(1.0 / dwell_mean))
                choice[m : m + dwell] = row
                m += dwell
            refs += _stream_refs(s, feat, choice, v, n_instances, WINDOW_MINUTES - 1)
    return BagDataset(features, refs)


_FEATURE_ARRAYS = ("spectrograms", "loc_matrix", "loc_scalars", "loc_avail", "labels")  # per session
_LOCATION_ARRAYS = ("times", "lats", "lons")  # per session with location


def save_features(path, features: list[SessionFeatures]) -> None:
    """Cache preprocessed per-minute features in the named-tensor container."""
    arrays: dict[str, np.ndarray] = {}
    meta = []
    for i, f in enumerate(features):
        meta.append({"user": f.user, "session_id": f.session_id, "placements": list(f.placements)})
        arrays.update({f"s{i}/{name}": getattr(f, name) for name in _FEATURE_ARRAYS})
    save_arrays(path, arrays, meta={"kind": "features", "sessions": meta})


def load_features(path) -> list[SessionFeatures]:
    """Features a cache holds; float64 spectrograms (an older cache) load rounded to float32."""
    arrays, entries = _session_entries(path, "features")
    return [
        SessionFeatures(
            user=entry["user"],
            session_id=entry["session_id"],
            placements=tuple(entry["placements"]),
            **{name: arrays[f"s{i}/{name}"] for name in _FEATURE_ARRAYS},
        )
        for i, entry in enumerate(entries)
    ]


def _session_entries(path, kind: str):
    """Arrays and per-session metadata of an archive of ``kind``; reading a field a session's
    entry lacks raises a ``ValueError`` naming the file, the entry and the field."""
    arrays, meta = load_arrays(path, kind)
    return arrays, [_Entries(entry, path, f"sessions[{i}] field") for i, entry in enumerate(meta["sessions"])]


# -- session serialization -------------------------------------------------------


def save_sessions(path, sessions: list[Session]) -> None:
    """Persist sessions in the named-tensor container (round-trip exact)."""
    arrays: dict[str, np.ndarray] = {}
    meta = []
    for i, s in enumerate(sessions):
        entry = {
            "user": s.user,
            "session_id": s.session_id,
            "start_time": s.start_time,
            "accel_rate": s.accel_rate,
            "placements": sorted(s.accel),
            "has_location": s.location is not None,
        }
        arrays.update({f"session{i}/accel/{placement}": s.accel[placement] for placement in sorted(s.accel)})
        arrays[f"session{i}/labels"] = s.labels
        if s.location is not None:
            arrays.update({f"session{i}/loc/{name}": getattr(s.location, name) for name in _LOCATION_ARRAYS})
        meta.append(entry)
    save_arrays(path, arrays, meta={"kind": "sessions", "sessions": meta})


def load_sessions(path) -> list[Session]:
    arrays, entries = _session_entries(path, "sessions")
    sessions = []
    for i, entry in enumerate(entries):
        location = None
        if entry["has_location"]:
            fixes = {name: arrays[f"session{i}/loc/{name}"] for name in _LOCATION_ARRAYS}
            location = LocStream(**fixes, session_id=entry["session_id"])
        sessions.append(
            Session(
                user=entry["user"],
                session_id=entry["session_id"],
                accel={p: arrays[f"session{i}/accel/{p}"] for p in entry["placements"]},
                labels=arrays[f"session{i}/labels"],
                location=location,
                start_time=entry["start_time"],
                accel_rate=entry["accel_rate"],
            )
        )
    return sessions
