"""Location preprocessing: gap handling and location-invariant features.

Fixes arrive nominally once per minute. One rule puts them on the minute
grid (``nearest_fixes``): a slot takes the fix nearest its tick within half
a minute, the earliest on a tie, and no fix serves two minutes. Short losses
(fewer than three missing minute slots) are linearly interpolated; longer
losses leave the affected slots flagged unavailable and their derived
features at the masking value 0. A 12-minute window yields a 10x2 matrix of
(speed, speed derivative) rows plus five scalars: mean/std of speed,
mean/std of the speed derivative, and movability (net displacement over
distance travelled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EARTH_RADIUS_M",
    "WINDOW_MINUTES",
    "N_FEATURE_ROWS",
    "LOC_SEQ_SHAPE",
    "N_SCALARS",
    "LocStream",
    "MinuteGrid",
    "LocWindow",
    "haversine",
    "nearest_fixes",
    "fill_gaps",
    "loc_features",
    "movability",
]

EARTH_RADIUS_M = 6_371_000.0
WINDOW_MINUTES = 12
N_FEATURE_ROWS = 10
LOC_SEQ_SHAPE = (N_FEATURE_ROWS, 2)  # (speed, speed derivative) rows of a window
N_SCALARS = 5
SLOT_SECONDS = 60.0  # the minute: one label, one acceleration window and one location slot
MAX_INTERP_SLOTS = 2  # gaps of >= 3 missing minutes are masked, not interpolated


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=np.float64)) for v in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    return float(d) if np.ndim(d) == 0 else d


@dataclass
class LocStream:
    """Raw location fixes for one recording session."""

    times: np.ndarray  # seconds, strictly increasing
    lats: np.ndarray  # degrees
    lons: np.ndarray  # degrees
    session_id: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.lats = np.asarray(self.lats, dtype=np.float64)
        self.lons = np.asarray(self.lons, dtype=np.float64)
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("fix timestamps must be strictly increasing")
        if np.any(np.abs(self.lats) > 90.0) or np.any(np.abs(self.lons) > 180.0):
            raise ValueError("coordinates out of range")


@dataclass
class MinuteGrid:
    """Per-minute positions with an availability mask.

    The distance, duration and speed of each step between neighbouring slots
    are computed once, at construction, for every window to slice.
    """

    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    available: np.ndarray
    step: np.ndarray = field(init=False, repr=False)  # meters, slot n to n + 1
    dt: np.ndarray = field(init=False, repr=False)  # seconds
    speed: np.ndarray = field(init=False, repr=False)  # m/s

    def __post_init__(self):
        self.step = haversine(self.lats[:-1], self.lons[:-1], self.lats[1:], self.lons[1:])
        self.dt = np.diff(self.times)
        self.speed = self.step / self.dt


def nearest_fixes(times: np.ndarray, start: float, n_slots: int) -> np.ndarray:
    """Per slot of the ``SLOT_SECONDS`` grid from ``start``, the index of its fix, or -1.

    A fix belongs only to the slot ``rint((t - start) / SLOT_SECONDS)``, and
    only within half a slot of its tick, so no fix serves two slots. Of one
    slot's fixes the nearest wins, the earliest on a tie. ``times`` need not
    be sorted: slot order is time order, so the picked fixes strictly increase.
    """
    slot = np.rint((times - start) / SLOT_SECONDS)
    delta = np.abs(times - (start + slot * SLOT_SECONDS))
    fixes = np.nonzero((delta <= SLOT_SECONDS / 2.0) & (slot >= 0) & (slot < n_slots))[0]
    fixes = fixes[np.lexsort((times[fixes], delta[fixes], slot[fixes]))]  # stable: index breaks the last ties
    slots = slot[fixes].astype(np.int64)
    first = np.diff(slots, prepend=-1) != 0
    picks = np.full(n_slots, -1, dtype=np.int64)
    picks[slots[first]] = fixes[first]
    return picks


def fill_gaps(stream: LocStream, grid_start: float, n_slots: int) -> MinuteGrid:
    """Snap fixes to the grid of ``SLOT_SECONDS`` slots, interpolating only across
    short losses.

    A slot is directly covered by the fix ``nearest_fixes`` picks for it. Runs
    of at most two uncovered slots between covered ones are filled by linear
    interpolation of latitude/longitude; longer runs and uncovered slots at
    the stream edges are flagged unavailable and left at 0.
    """
    ticks = grid_start + SLOT_SECONDS * np.arange(n_slots)
    picks = nearest_fixes(stream.times, grid_start, n_slots)
    available = picks >= 0
    lats, lons = np.zeros((2, n_slots))
    lats[available], lons[available] = stream.lats[picks[available]], stream.lons[picks[available]]
    idx = np.nonzero(available)[0]
    for left, right in zip(idx[:-1], idx[1:]):
        missing = right - left - 1
        if 0 < missing <= MAX_INTERP_SLOTS:
            frac = np.arange(1, missing + 1) / (missing + 1)
            lats[left + 1 : right] = lats[left] + frac * (lats[right] - lats[left])
            lons[left + 1 : right] = lons[left] + frac * (lons[right] - lons[left])
            available[left + 1 : right] = True
    return MinuteGrid(times=ticks, lats=lats, lons=lons, available=available)


@dataclass
class LocWindow:
    """Features of one 12-minute location window."""

    matrix: np.ndarray  # (10, 2) speed and speed-derivative rows
    scalars: np.ndarray  # mean_v, std_v, mean_dv, std_dv, movability
    available: np.ndarray  # (12,) per-minute availability

    @property
    def availability(self) -> float:
        return float(self.available.mean())


def movability(lats: np.ndarray, lons: np.ndarray) -> float:
    """Net displacement over total path length; 0 when there is no movement."""
    if len(lats) < 2:
        return 0.0
    return _net_over_path(lats, lons, haversine(lats[:-1], lons[:-1], lats[1:], lons[1:]))


def _net_over_path(lats: np.ndarray, lons: np.ndarray, steps: np.ndarray) -> float:
    total = float(np.sum(steps))
    if total == 0.0:
        return 0.0
    net = haversine(lats[0], lons[0], lats[-1], lons[-1])
    return float(net / total)


def loc_features(grid: MinuteGrid, start_slot: int = 0) -> LocWindow:
    """Feature window over 12 consecutive minute slots of a grid.

    Speeds pair consecutive slots, derivatives need two prior speeds, so the
    rows cover slots 2..11: row n-2 holds (v[n], a[n]). Entries that touch an
    unavailable slot stay at the masking value 0; scalars are computed over
    the defined entries only and a window with fewer than two available fixes
    comes back fully masked.
    """
    sl = slice(start_slot, start_slot + WINDOW_MINUTES)
    lats, lons, avail = grid.lats[sl], grid.lons[sl], grid.available[sl]
    if len(lats) != WINDOW_MINUTES:
        raise ValueError(f"window needs {WINDOW_MINUTES} slots")
    matrix = np.zeros(LOC_SEQ_SHAPE)
    scalars = np.zeros(N_SCALARS)
    window = LocWindow(matrix=matrix, scalars=scalars, available=avail.copy())
    if avail.sum() < 2:
        return window

    steps = slice(start_slot, start_slot + WINDOW_MINUTES - 1)
    speed, dt = grid.speed[steps], grid.dt[steps]  # v[n] for n = 1..11
    v_ok = avail[:-1] & avail[1:]
    accel = np.diff(speed) / dt[1:]  # a[n] for n = 2..11
    a_ok = v_ok[:-1] & v_ok[1:]

    matrix[:, 0] = np.where(v_ok[1:], speed[1:], 0.0)
    matrix[:, 1] = np.where(a_ok, accel, 0.0)

    if v_ok.any():
        v = speed[v_ok]
        scalars[0], scalars[1] = v.mean(), v.std()
    if a_ok.any():
        a = accel[a_ok]
        scalars[2], scalars[3] = a.mean(), a.std()
    # A window without gaps has its path's steps on the grid already.
    scalars[4] = _net_over_path(lats, lons, grid.step[steps]) if avail.all() else movability(lats[avail], lons[avail])
    return window
