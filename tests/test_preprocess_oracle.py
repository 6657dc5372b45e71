"""Blocked, threaded preprocessing against a per-minute reference, byte for byte.

The reference below is the one-window-at-a-time preprocessing: each minute's
magnitude/jerk channels and spectrogram on their own, and each location
window computing its own steps. ``preprocess_session`` computes the same
features in blocks of minutes on worker threads; every array it returns must
have the reference's bytes, whatever the block boundaries, the placement
count, or the number of workers. Spectrograms are stored in float32, so the
reference rounds each float64 image once; every other field stays float64.
"""

import sys

import numpy as np
import pytest

from modemil import MODES, accel, bags
from modemil.accel import (
    LOG_EPS,
    N_SEGMENTS,
    SEGMENT_HOP,
    SEGMENT_SAMPLES,
    SPEC_BLOCK,
    SPEC_SHAPE,
    WINDOW_SAMPLES,
    band_table,
    magnitude_jerk,
    spectrogram,
)
from modemil.bags import Session, preprocess_session
from modemil.geo import LOC_SEQ_SHAPE, N_SCALARS, WINDOW_MINUTES, LocWindow, fill_gaps, haversine, movability
from modemil.synth import SynthConfig, synth_generate

FIELDS = ("spectrograms", "loc_matrix", "loc_scalars", "loc_avail", "labels")
PLACEMENTS = ("Bag", "Hand", "Hips", "Torso")


# -- the per-minute reference ------------------------------------------------------


def ref_magnitude_jerk(samples, previous_sample=None, f_s=10.0):
    magnitude = np.linalg.norm(samples, axis=1)
    diffs = np.diff(samples, axis=0)
    jerk_tail = np.linalg.norm(diffs, axis=1) * f_s
    if previous_sample is not None:
        first = np.linalg.norm(samples[0] - np.asarray(previous_sample, dtype=np.float64)) * f_s
    else:
        first = jerk_tail[0] if len(jerk_tail) else 0.0
    jerk = np.concatenate(([first], jerk_tail))
    return np.stack([magnitude, jerk], axis=1)


def ref_spectrogram(window, bands):
    k = np.arange(SEGMENT_SAMPLES)
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / SEGMENT_SAMPLES)
    seg_index = SEGMENT_HOP * np.arange(N_SEGMENTS)[:, None] + np.arange(SEGMENT_SAMPLES)[None, :]
    out = np.empty((N_SEGMENTS, bands.n_bands, 2))
    for ch in range(2):
        segments = window[:, ch][seg_index] * taper
        power = np.abs(np.fft.rfft(segments, axis=1)) ** 2
        banded = np.add.reduceat(power, bands.bin_ranges[:, 0], axis=1)
        out[:, :, ch] = np.log(banded + LOG_EPS)
    return out


def ref_loc_features(grid, start_slot):
    sl = slice(start_slot, start_slot + WINDOW_MINUTES)
    lats, lons = grid.lats[sl], grid.lons[sl]
    times, avail = grid.times[sl], grid.available[sl]
    matrix = np.zeros(LOC_SEQ_SHAPE)
    scalars = np.zeros(N_SCALARS)
    window = LocWindow(matrix=matrix, scalars=scalars, available=avail.copy())
    if avail.sum() < 2:
        return window
    step = haversine(lats[:-1], lons[:-1], lats[1:], lons[1:])
    dt = np.diff(times)
    speed = step / dt
    v_ok = avail[:-1] & avail[1:]
    accel = np.diff(speed) / dt[1:]
    a_ok = v_ok[:-1] & v_ok[1:]
    matrix[:, 0] = np.where(v_ok[1:], speed[1:], 0.0)
    matrix[:, 1] = np.where(a_ok, accel, 0.0)
    if v_ok.any():
        v = speed[v_ok]
        scalars[0], scalars[1] = v.mean(), v.std()
    if a_ok.any():
        a = accel[a_ok]
        scalars[2], scalars[3] = a.mean(), a.std()
    scalars[4] = movability(lats[avail], lons[avail])
    return window


def ref_preprocess(session):
    bands = band_table()
    minutes = session.n_minutes
    placements = tuple(sorted(session.accel))
    specs = np.zeros((len(placements), minutes, *SPEC_SHAPE))
    for p, placement in enumerate(placements):
        samples = np.asarray(session.accel[placement], dtype=np.float64)
        for m in range(minutes):
            start = m * WINDOW_SAMPLES
            previous = samples[start - 1] if start > 0 else None
            window = ref_magnitude_jerk(samples[start : start + WINDOW_SAMPLES], previous, session.accel_rate)
            specs[p, m] = ref_spectrogram(window, bands)
    loc_matrix = np.zeros((minutes, *LOC_SEQ_SHAPE))
    loc_scalars = np.zeros((minutes, N_SCALARS))
    loc_avail = np.zeros(minutes)
    if session.location is not None and minutes > 0:
        grid = fill_gaps(session.location, session.start_time, minutes)
        for m in range(WINDOW_MINUTES - 1, minutes):
            window = ref_loc_features(grid, m - (WINDOW_MINUTES - 1))
            loc_matrix[m] = window.matrix
            loc_scalars[m] = window.scalars
            loc_avail[m] = window.availability
    return dict(
        spectrograms=specs.astype(np.float32),  # each float64 value rounded once
        loc_matrix=loc_matrix,
        loc_scalars=loc_scalars,
        loc_avail=loc_avail,
        labels=session.labels,
    )


# -- sessions ----------------------------------------------------------------------


def _session(minutes=40, n_placements=2, seed=0, **config):
    base = dict(
        placements=PLACEMENTS[:n_placements], n_users=1, minutes_per_session=minutes, dwell_mean_minutes=3.0
    )
    return synth_generate(SynthConfig(**{**base, **config}), np.random.default_rng(seed))[0]


def _truncated(session, minutes, extra_samples=0):
    return Session(
        user=session.user,
        session_id=session.session_id,
        accel={p: a[: minutes * WINDOW_SAMPLES + extra_samples] for p, a in session.accel.items()},
        labels=session.labels[:minutes],
        location=session.location,
        start_time=session.start_time,
    )


def _assert_bytes_equal(session):
    features = preprocess_session(session)
    expected = ref_preprocess(session)
    assert features.placements == tuple(sorted(session.accel))
    for name in FIELDS:
        got, want = getattr(features, name), expected[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    return features


@pytest.fixture(scope="module")
def all_modes():
    session = _session(minutes=80, seed=2, corruption_rate=0.1)
    assert set(session.labels.tolist()) == set(range(len(MODES)))
    return session


def test_all_modes_with_location_gaps_and_corruption(all_modes):
    grid = fill_gaps(all_modes.location, all_modes.start_time, all_modes.n_minutes)
    assert grid.available.sum() > len(all_modes.location.times)  # short gaps interpolated
    assert not grid.available.all()  # long gaps masked
    features = _assert_bytes_equal(all_modes)
    window_avail = features.loc_avail[WINDOW_MINUTES - 1 :]
    assert (window_avail < 1.0).any() and (window_avail == 1.0).any()


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_bytes_do_not_depend_on_the_worker_count(all_modes, monkeypatch, workers):
    # More workers than CPUs and a short switch interval: each job writes only its own slice.
    monkeypatch.setattr(bags, "_worker_count", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_bytes_equal(all_modes)
    finally:
        sys.setswitchinterval(interval)


def test_session_without_location():
    session = _session(minutes=30)
    session.location = None
    features = _assert_bytes_equal(session)
    assert not features.loc_matrix.any() and not features.loc_scalars.any()


@pytest.mark.parametrize("minutes", [1, SPEC_BLOCK - 1, SPEC_BLOCK, SPEC_BLOCK + 1, 2 * SPEC_BLOCK + 1])
def test_session_lengths_around_the_block(minutes):
    _assert_bytes_equal(_truncated(_session(minutes=40, seed=minutes), minutes))


def test_trailing_extra_samples_are_ignored():
    session = _truncated(_session(minutes=40, seed=3), 20, extra_samples=WINDOW_SAMPLES // 2 + 7)
    assert len(session.accel["Bag"]) > session.n_minutes * WINDOW_SAMPLES
    _assert_bytes_equal(session)


@pytest.mark.parametrize("n_placements", [1, 2, 3, 4])
def test_placement_counts(n_placements):
    _assert_bytes_equal(_session(minutes=SPEC_BLOCK + 5, n_placements=n_placements, seed=10 + n_placements))


def test_multi_bin_bands_keep_their_sums():
    bands = band_table(6)
    assert (np.diff(bands.bin_ranges, axis=1) > 1).any()
    samples = _session(minutes=2, seed=4).accel["Bag"]
    for m in range(2):
        start = m * WINDOW_SAMPLES
        previous = samples[start - 1] if start else None
        window = ref_magnitude_jerk(samples[start : start + WINDOW_SAMPLES], previous)
        assert spectrogram(window, bands).tobytes() == ref_spectrogram(window, bands).tobytes()


def test_channel_stream_has_each_minutes_bits():
    # Blocks compute the stream's jerk without the sample before the block, so only
    # each window's first jerk value may differ from a one-window call; the test
    # below shows no image reads it.
    samples = _session(minutes=2 * SPEC_BLOCK + 1, seed=6).accel["Bag"]
    minutes = len(samples) // WINDOW_SAMPLES
    windows = [samples[m * WINDOW_SAMPLES : (m + 1) * WINDOW_SAMPLES] for m in range(minutes)]
    want = [ref_magnitude_jerk(w, samples[m * WINDOW_SAMPLES - 1] if m else None) for m, w in enumerate(windows)]
    for m, w in enumerate(windows):
        assert magnitude_jerk(w, samples[m * WINDOW_SAMPLES - 1] if m else None).tobytes() == want[m].tobytes()
    for m0 in (0, 1, SPEC_BLOCK):
        got = accel._magnitude_jerk(samples[m0 * WINDOW_SAMPLES :], None, 10.0).T.reshape(-1, WINDOW_SAMPLES, 2)
        ref = np.stack(want[m0:])
        assert got[:, :, 0].tobytes() == ref[:, :, 0].tobytes()
        assert got[:, 1:, 1].tobytes() == ref[:, 1:, 1].tobytes()


def test_no_image_reads_the_sample_before_its_window():
    # Sample 0 of a window lies only in segment 0, at the taper's first coefficient.
    assert accel._hann(SEGMENT_SAMPLES)[0] == 0.0
    rng = np.random.default_rng(7)
    bands = band_table()
    window = _session(minutes=2, seed=7).accel["Bag"][WINDOW_SAMPLES : 2 * WINDOW_SAMPLES]
    want = spectrogram(magnitude_jerk(window, None), bands).tobytes()
    previous = [rng.normal(scale=s, size=3) for s in (1.0, 10.0, 1e3)] + [np.array([1e150, -1e150, 1e150])]
    for prev in previous + [window[0], -window[0]]:
        channels = magnitude_jerk(window, prev)
        assert np.isfinite(channels).all()
        assert spectrogram(channels, bands).tobytes() == want
