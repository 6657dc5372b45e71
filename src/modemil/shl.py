"""Dataset ingestion from the SHL-preview directory layout.

Expected layout: ``<root>/<user>/<recording>/`` containing per-placement
``{Bag,Hand,Hips,Torso}_Motion.txt``, a ``Label.txt`` and a ``Location.txt``.
All files are whitespace-separated numeric text with timestamps in
milliseconds in the first column; the motion columns, the coarse label
column and the latitude/longitude columns are configurable through
``ColumnMap`` for generic columnar exports.

Sampling is reduced at ingest time: motion is block-averaged from the input
rate down to 10 Hz (the averaging acts as the anti-alias guard), labels
become one majority label per minute (ties resolved toward the mode seen
earlier in the minute), and location keeps, per minute, the fix nearest its
tick within half a minute, the earliest on a tie, one minute per fix
(``geo.nearest_fixes``, the rule ``fill_gaps`` applies too).
Raw coarse labels 1..8 map to mode indices 0..7; label 0 means unlabeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import PLACEMENTS
from .accel import SAMPLE_RATE_HZ, WINDOW_SAMPLES
from .bags import UNLABELED, Session
from .geo import SLOT_SECONDS, WINDOW_MINUTES, LocStream, nearest_fixes

__all__ = ["ColumnMap", "ingest", "ingest_report"]


@dataclass(frozen=True)
class ColumnMap:
    """Zero-based column indices inside the text files."""

    time: int = 0
    acc: tuple[int, int, int] = (1, 2, 3)
    label: int = 1
    lat: int = 3
    lon: int = 4


def _block_mean_decimate(values: np.ndarray, factor: int) -> np.ndarray:
    n = (len(values) // factor) * factor
    return values[:n].reshape(-1, factor, values.shape[1]).mean(axis=1)


def _minute_labels(raw: np.ndarray, rows_per_minute: int) -> np.ndarray:
    """Majority label per minute; ties go to the label seen earliest."""
    minutes = len(raw) // rows_per_minute
    out = np.full(minutes, UNLABELED, dtype=np.int64)
    for m in range(minutes):
        chunk = raw[m * rows_per_minute : (m + 1) * rows_per_minute]
        values, first_pos, counts = np.unique(chunk, return_index=True, return_counts=True)
        best = counts.max()
        tied = values[counts == best]
        positions = first_pos[counts == best]
        raw_label = int(tied[np.argmin(positions)])
        out[m] = raw_label - 1 if raw_label >= 1 else UNLABELED
    return out


def _load_columns(path: Path, columns: tuple[int, ...]) -> np.ndarray:
    data = np.loadtxt(path, usecols=columns, ndmin=2)
    if not len(data):
        raise ValueError(f"{path}: empty file")
    return data


def ingest(
    root,
    column_map: ColumnMap = ColumnMap(),
    accel_rate_in: float = 100.0,
    placements: tuple[str, ...] = PLACEMENTS,
) -> list[Session]:
    """Parse every ``<user>/<recording>`` under ``root`` into sessions.

    A recording without a Label file is skipped; a missing placement motion
    file leaves that placement absent from the session (flagged in the ingest
    report). Raises when no session can be built at all, or when
    ``accel_rate_in`` is not a whole multiple of 10 Hz, which block averaging
    needs.
    """
    root = Path(root)
    factor = accel_rate_in / SAMPLE_RATE_HZ
    if not (factor >= 1 and float(factor).is_integer()):
        raise ValueError(f"accel_rate_in={accel_rate_in} Hz is not a whole multiple of {SAMPLE_RATE_HZ:g} Hz")
    factor = int(factor)
    sessions: list[Session] = []
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []:
        for rec_dir in sorted(p for p in user_dir.iterdir() if p.is_dir()):
            label_path = rec_dir / "Label.txt"
            if not label_path.exists():
                continue
            label_rows = _load_columns(label_path, (column_map.time, column_map.label))
            start = label_rows[0, 0] / 1000.0
            rows_per_minute = int(round(SLOT_SECONDS * accel_rate_in))
            labels = _minute_labels(label_rows[:, 1].astype(np.int64), rows_per_minute)
            n_minutes = len(labels)
            if n_minutes == 0:
                continue

            accel: dict[str, np.ndarray] = {}
            for placement in placements:
                motion_path = rec_dir / f"{placement}_Motion.txt"
                if not motion_path.exists():
                    continue
                rows = _load_columns(motion_path, (column_map.time,) + column_map.acc)
                stream = _block_mean_decimate(rows[:, 1:4], factor)
                n_keep = min(len(stream) // WINDOW_SAMPLES, n_minutes)
                if n_keep == 0:
                    continue
                accel[placement] = stream[: n_keep * WINDOW_SAMPLES]
            if not accel:
                continue
            n_minutes = min(n_minutes, min(len(a) // WINDOW_SAMPLES for a in accel.values()))
            labels = labels[:n_minutes]
            accel = {p: a[: n_minutes * WINDOW_SAMPLES] for p, a in accel.items()}

            location = None
            loc_path = rec_dir / "Location.txt"
            if loc_path.exists():
                rows = _load_columns(loc_path, (column_map.time, column_map.lat, column_map.lon))
                times = rows[:, 0] / 1000.0
                chosen = nearest_fixes(times, start, n_minutes)
                chosen = chosen[chosen >= 0]
                if len(chosen):
                    try:
                        location = LocStream(times=times[chosen], lats=rows[chosen, 1], lons=rows[chosen, 2])
                    except ValueError as exc:
                        raise ValueError(f"{loc_path}: {exc}") from exc

            sessions.append(
                Session(
                    user=user_dir.name,
                    session_id=f"{user_dir.name}/{rec_dir.name}",
                    accel=accel,
                    labels=labels,
                    location=location,
                    start_time=start,
                )
            )
    if not sessions:
        raise ValueError(f"no ingestible sessions under {root}")
    return sessions


def ingest_report(sessions: list[Session]) -> dict:
    """Counts in the shape the dataset documentation quotes them, over ``PLACEMENTS``."""
    frames = {p: 0 for p in PLACEMENTS}
    missing = []
    labels = 0
    location_windows = 0
    for s in sessions:
        labels += int(np.sum(s.labels != UNLABELED))
        for p in PLACEMENTS:
            if p in s.accel:
                frames[p] += len(s.accel[p]) // WINDOW_SAMPLES
            else:
                missing.append(f"{s.session_id}:{p}")
        location_windows += max(0, s.n_minutes - (WINDOW_MINUTES - 1))
    return {
        "sessions": len(sessions),
        "accel_frames_per_placement": frames,
        "labels": labels,
        "location_windows": location_windows,
        "missing_placements": missing,
    }
