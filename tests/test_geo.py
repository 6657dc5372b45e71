"""Location preprocessing: distance, gap handling, invariant features."""

import numpy as np
import pytest

from modemil.geo import (
    EARTH_RADIUS_M,
    SLOT_SECONDS,
    LocStream,
    LocWindow,
    MinuteGrid,
    fill_gaps,
    haversine,
    loc_features,
    movability,
    nearest_fixes,
)


def law_of_cosines_distance(lat1, lon1, lat2, lon2):
    """Independent spherical oracle."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlon = np.radians(lon2 - lon1)
    central = np.arccos(np.clip(np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(dlon), -1.0, 1.0))
    return EARTH_RADIUS_M * central


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert haversine(52.1, 13.3, 52.1, 13.3) == 0.0

    def test_equatorial_antipodes(self):
        assert abs(haversine(0.0, 0.0, 0.0, 180.0) - np.pi * EARTH_RADIUS_M) < 1.0
        assert abs(haversine(0.0, 0.0, 0.0, 180.0) - 20_015_087.0) < 1000.0

    def test_warsaw_to_rome_against_oracle(self):
        d = haversine(52.2296756, 21.0122287, 41.8919300, 12.5113300)
        oracle = law_of_cosines_distance(52.2296756, 21.0122287, 41.8919300, 12.5113300)
        assert abs(d - oracle) / oracle < 1e-3

    def test_random_pairs_against_oracle(self):
        rng = np.random.default_rng(0)
        lat1, lat2 = rng.uniform(-89, 89, (2, 1000))
        lon1, lon2 = rng.uniform(-180, 180, (2, 1000))
        d = haversine(lat1, lon1, lat2, lon2)
        oracle = law_of_cosines_distance(lat1, lon1, lat2, lon2)
        mask = oracle > 1.0
        assert np.all(np.abs(d[mask] - oracle[mask]) / oracle[mask] < 1e-3)

    def test_vectorized_matches_scalar(self):
        d = haversine(np.array([0.0, 10.0]), np.array([0.0, 20.0]), np.array([1.0, 11.0]), np.array([1.0, 21.0]))
        assert d.shape == (2,)
        assert abs(d[0] - haversine(0.0, 0.0, 1.0, 1.0)) < 1e-9


def minute_stream(lats, lons, start=0.0, drop=()):
    keep = [i for i in range(len(lats)) if i not in drop]
    return LocStream(
        times=start + 60.0 * np.array(keep, dtype=float),
        lats=np.asarray(lats, dtype=float)[keep],
        lons=np.asarray(lons, dtype=float)[keep],
    )


class TestFillGaps:
    def test_no_gaps_is_identity(self):
        lats = np.linspace(45.0, 45.01, 12)
        lons = np.linspace(9.0, 9.01, 12)
        grid = fill_gaps(minute_stream(lats, lons), 0.0, 12)
        assert grid.available.all()
        np.testing.assert_allclose(grid.lats, lats)
        np.testing.assert_allclose(grid.lons, lons)

    def test_single_missing_minute_interpolates_midpoint(self):
        lats = np.linspace(45.0, 45.011, 12)
        lons = np.linspace(9.0, 9.011, 12)
        grid = fill_gaps(minute_stream(lats, lons, drop=(5,)), 0.0, 12)
        assert grid.available[5]
        assert abs(grid.lats[5] - (lats[4] + lats[6]) / 2.0) < 1e-12
        assert abs(grid.lons[5] - (lons[4] + lons[6]) / 2.0) < 1e-12

    def test_two_missing_minutes_interpolate(self):
        lats = np.linspace(45.0, 45.011, 12)
        lons = np.full(12, 9.0)
        grid = fill_gaps(minute_stream(lats, lons, drop=(4, 5)), 0.0, 12)
        assert grid.available[4] and grid.available[5]
        np.testing.assert_allclose(grid.lats[4:6], lats[3] + np.array([1, 2]) / 3.0 * (lats[6] - lats[3]), atol=1e-12)

    def test_long_gap_flags_slots_unavailable(self):
        lats = np.linspace(45.0, 45.02, 20)
        lons = np.full(20, 9.0)
        grid = fill_gaps(minute_stream(lats, lons, drop=(6, 7, 8, 9, 10)), 0.0, 20)
        assert not grid.available[6:11].any()
        assert grid.available[:6].all() and grid.available[11:].all()

    def test_edge_gaps_never_extrapolate(self):
        lats = np.linspace(45.0, 45.01, 12)
        lons = np.full(12, 9.0)
        grid = fill_gaps(minute_stream(lats, lons, drop=(0, 11)), 0.0, 12)
        assert not grid.available[0] and not grid.available[11]


def straight_path(n=12, speed=10.0, lat0=20.0):
    # northward along a meridian: exact great-circle, constant step length
    step_deg = np.degrees(speed * 60.0 / EARTH_RADIUS_M)
    lats = lat0 + step_deg * np.arange(n)
    lons = np.full(n, 7.0)
    return lats, lons


class TestLocFeatures:
    def test_stationary_window_is_all_zero(self):
        grid = fill_gaps(minute_stream(np.full(12, 45.0), np.full(12, 9.0)), 0.0, 12)
        window = loc_features(grid)
        np.testing.assert_array_equal(window.matrix, 0.0)
        np.testing.assert_array_equal(window.scalars, 0.0)  # movability 0/0 -> 0
        assert window.availability == 1.0

    def test_straight_constant_speed_path(self):
        lats, lons = straight_path(speed=10.0)
        grid = fill_gaps(minute_stream(lats, lons), 0.0, 12)
        window = loc_features(grid)
        np.testing.assert_allclose(window.matrix[:, 0], 10.0, rtol=1e-6)
        assert abs(window.scalars[4] - 1.0) < 1e-6  # movability
        assert window.scalars[1] < 1e-6  # speed std

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(1)
        lats = 45.0 + np.cumsum(rng.normal(scale=1e-3, size=12))
        lons = 9.0 + np.cumsum(rng.normal(scale=1e-3, size=12))
        grid = fill_gaps(minute_stream(lats, lons), 0.0, 12)
        window = loc_features(grid)

        d = haversine(lats[:-1], lons[:-1], lats[1:], lons[1:])
        v = d / 60.0
        a = np.diff(v) / 60.0
        np.testing.assert_allclose(window.matrix[:, 0], v[1:], atol=1e-10)
        np.testing.assert_allclose(window.matrix[:, 1], a, atol=1e-10)
        expected = [
            v.mean(),
            v.std(),
            a.mean(),
            a.std(),
            haversine(lats[0], lons[0], lats[-1], lons[-1]) / d.sum(),
        ]
        np.testing.assert_allclose(window.scalars, expected, atol=1e-10)

    def test_fewer_than_two_fixes_masks_everything(self):
        grid = MinuteGrid(
            times=60.0 * np.arange(12),
            lats=np.zeros(12),
            lons=np.zeros(12),
            available=np.zeros(12, dtype=bool),
        )
        grid.available[3] = True
        window = loc_features(grid)
        np.testing.assert_array_equal(window.matrix, 0.0)
        np.testing.assert_array_equal(window.scalars, 0.0)

    def test_unavailable_slots_zero_their_rows(self):
        lats, lons = straight_path(speed=5.0)
        stream = minute_stream(lats, lons, drop=(4, 5, 6))
        grid = fill_gaps(stream, 0.0, 12)
        window = loc_features(grid)
        # speeds at rows for n=5,6,7 touch unavailable slots
        assert window.matrix[3, 0] == 0.0 and window.matrix[4, 0] == 0.0
        assert window.availability == pytest.approx(9 / 12)


class TestInvariants:
    def test_longitude_shift_invariance(self):
        rng = np.random.default_rng(2)
        lats = 45.0 + np.cumsum(rng.normal(scale=1e-3, size=12))
        lons = 9.0 + np.cumsum(rng.normal(scale=1e-3, size=12))
        a = loc_features(fill_gaps(minute_stream(lats, lons), 0.0, 12))
        b = loc_features(fill_gaps(minute_stream(lats, lons + 117.0), 0.0, 12))
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(a.scalars, b.scalars, rtol=1e-6, atol=1e-12)

    def test_movability_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lats = rng.uniform(-60, 60) + np.cumsum(rng.normal(scale=1e-3, size=12))
            lons = rng.uniform(-170, 170) + np.cumsum(rng.normal(scale=1e-3, size=12))
            assert movability(lats, lons) <= 1.0 + 1e-12

    def test_speed_scale_consistency(self):
        rng = np.random.default_rng(4)
        dlat = rng.normal(scale=1e-4, size=12)
        dlon = rng.normal(scale=1e-4, size=12)
        base = loc_features(fill_gaps(minute_stream(10 + np.cumsum(dlat), 10 + np.cumsum(dlon)), 0.0, 12))
        doubled = loc_features(
            fill_gaps(minute_stream(10 + 2 * np.cumsum(dlat), 10 + 2 * np.cumsum(dlon)), 0.0, 12)
        )
        np.testing.assert_allclose(doubled.matrix[:, 0], 2.0 * base.matrix[:, 0], rtol=1e-6)


def test_loc_stream_validation():
    with pytest.raises(ValueError):
        LocStream(times=[0.0, 0.0], lats=[0.0, 0.0], lons=[0.0, 0.0])
    with pytest.raises(ValueError):
        LocStream(times=[0.0], lats=[95.0], lons=[0.0])


def test_loc_window_is_dataclass_with_availability():
    window = LocWindow(matrix=np.zeros((10, 2)), scalars=np.zeros(5), available=np.ones(12, dtype=bool))
    assert window.availability == 1.0


def per_fix_fill_gaps(stream, grid_start, n_slots):
    """fill_gaps as it stood with a loop over the fixes: the byte reference for ``nearest_fixes``."""
    ticks = grid_start + SLOT_SECONDS * np.arange(n_slots)
    lats = np.zeros(n_slots)
    lons = np.zeros(n_slots)
    covered = np.zeros(n_slots, dtype=bool)
    if len(stream.times):
        slot = np.rint((stream.times - grid_start) / SLOT_SECONDS).astype(np.int64)
        near = np.abs(stream.times - (grid_start + slot * SLOT_SECONDS)) <= SLOT_SECONDS / 2.0
        best = np.full(n_slots, np.inf)
        for i in np.nonzero(near & (slot >= 0) & (slot < n_slots))[0]:
            s = slot[i]
            delta = abs(stream.times[i] - ticks[s])
            if delta < best[s]:
                best[s] = delta
                lats[s], lons[s] = stream.lats[i], stream.lons[i]
                covered[s] = True
    available = covered.copy()
    idx = np.nonzero(covered)[0]
    for left, right in zip(idx[:-1], idx[1:]):
        missing = right - left - 1
        if 0 < missing <= 2:
            frac = np.arange(1, missing + 1) / (missing + 1)
            lats[left + 1 : right] = lats[left] + frac * (lats[right] - lats[left])
            lons[left + 1 : right] = lons[left] + frac * (lons[right] - lons[left])
            available[left + 1 : right] = True
    return MinuteGrid(times=ticks, lats=lats, lons=lons, available=available)


def tie_heavy_times(rng, start, n_slots):
    """Fix times that put the snapping rule's edge cases on one stream: a half-second lattice,
    pairs equidistant from a tick, fixes exactly half a minute off a tick, and fixes off the grid."""
    lattice = start + 0.5 * rng.integers(-240, 2 * 60 * n_slots + 240, size=rng.integers(0, 3 * n_slots + 2))
    ticks = start + SLOT_SECONDS * rng.integers(-2, n_slots + 2, size=n_slots)
    offsets = 0.5 * rng.integers(0, 61, size=n_slots)
    halves = start + SLOT_SECONDS * rng.integers(-1, n_slots + 1, size=n_slots // 2)
    edges = start + np.array([-SLOT_SECONDS, -31.0, -30.0, SLOT_SECONDS * n_slots - 30.0, SLOT_SECONDS * n_slots + 29.5])
    times = np.concatenate([lattice, ticks - offsets, ticks + offsets, halves - 30.0, halves + 30.0, edges])
    return np.unique(times)


@pytest.mark.parametrize("start", [0.0, -90.0, -37.25, 12.5, 1e5 + 0.75])
def test_fill_gaps_is_byte_equal_to_the_per_fix_loop_on_tie_heavy_streams(start):
    rng = np.random.default_rng(int(abs(start) * 4) % 1000)
    for n_slots in [0, 1, 2, 5, 12, 40] * 20:
        times = tie_heavy_times(rng, start, n_slots)
        stream = LocStream(times=times, lats=rng.uniform(-90, 90, len(times)), lons=rng.uniform(-180, 180, len(times)))
        grid, expected = fill_gaps(stream, start, n_slots), per_fix_fill_gaps(stream, start, n_slots)
        for name in ("times", "lats", "lons", "available", "step", "dt", "speed"):
            a, b = getattr(grid, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestNearestFixes:
    def test_one_slot_per_fix_and_the_earliest_wins_a_tie(self):
        # 90 s and 150 s lie half a minute either side of the 120 s tick; rint puts both there
        assert nearest_fixes(np.array([90.0, 150.0]), 0.0, 4).tolist() == [-1, -1, 0, -1]
        # a fix half a minute off two ticks serves one of them only
        assert nearest_fixes(np.array([30.0, 150.0, 270.0]), 0.0, 5).tolist() == [0, -1, 1, -1, 2]
        # the nearer fix wins; fixes nearer a tick before or past the grid count for nothing
        assert nearest_fixes(np.array([-31.0, 55.0, 62.0, 100.0, 269.0]), 0.0, 4).tolist() == [-1, 2, 3, -1]

    def test_unsorted_and_repeated_times_pick_the_sorted_streams_fixes(self):
        rng = np.random.default_rng(7)
        times = tie_heavy_times(rng, -12.5, 30)
        picks = nearest_fixes(times, -12.5, 30)
        order = rng.permutation(np.concatenate([np.arange(len(times)), np.arange(len(times))]))
        shuffled = nearest_fixes(times[order], -12.5, 30)
        assert np.array_equal(shuffled >= 0, picks >= 0)
        assert times[order][shuffled[shuffled >= 0]].tobytes() == times[picks[picks >= 0]].tobytes()
        # of two rows with one time the first in the file is kept
        first_row = {t: i for i, t in reversed(list(enumerate(times[order])))}
        assert all(first_row[times[order][i]] == i for i in shuffled[shuffled >= 0])
