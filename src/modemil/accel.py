"""Acceleration preprocessing: magnitude/jerk channels and banded spectrograms.

A one-minute window of 3-axis samples at 10 Hz becomes a 600x2 matrix of
(magnitude, jerk) values, then a 51x51x2 log-power image: 51 overlapping
10-second segments by 51 frequency bands by the two channels. Band widths
follow a doubling rule clipped at one DFT bin; at the default resolution
(0.1 Hz bins, 51 bands over 51 bins) every band is a single bin and the
final band edge is the 5 Hz Nyquist frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SAMPLE_RATE_HZ",
    "WINDOW_SAMPLES",
    "SEGMENT_SAMPLES",
    "SEGMENT_HOP",
    "N_SEGMENTS",
    "N_BANDS",
    "SPEC_SHAPE",
    "LOG_EPS",
    "BandTable",
    "band_table",
    "magnitude_jerk",
    "spectrogram",
    "minute_spectrograms",
    "SPEC_BLOCK",
    "mask_augment",
]

SAMPLE_RATE_HZ = 10.0
WINDOW_SAMPLES = 600
SEGMENT_SAMPLES = 100  # 10 s at 10 Hz
SEGMENT_HOP = 10  # 9 s overlap
N_SEGMENTS = 1 + (WINDOW_SAMPLES - SEGMENT_SAMPLES) // SEGMENT_HOP
N_BANDS = 51
SPEC_SHAPE = (N_SEGMENTS, N_BANDS, 2)  # one minute's image: segments x bands x (magnitude, jerk)
LOG_EPS = 1e-7
SPEC_BLOCK = 16  # minutes per batched spectrogram job: about 650 KB of segments per channel, inside L2


@dataclass(frozen=True)
class BandTable:
    """Frequency band layout: edges in Hz and the DFT bins of each band.

    ``edges`` has ``n_bands + 1`` strictly increasing entries ending at the
    Nyquist frequency; ``bin_ranges`` holds per-band half-open [start, stop)
    DFT bin index ranges that partition all bins of the segment DFT.
    """

    edges: np.ndarray
    bin_ranges: np.ndarray

    @property
    def n_bands(self) -> int:
        return len(self.bin_ranges)

    def band_of(self, freq_hz: float) -> int:
        """Index of the band whose (lower, upper] interval contains freq_hz."""
        idx = int(np.searchsorted(self.edges, freq_hz, side="left")) - 1
        if not 0 <= idx < self.n_bands:
            raise ValueError(f"{freq_hz} Hz is outside (0, {self.edges[-1]}] Hz")
        return idx


def band_table(n_bands: int = N_BANDS) -> BandTable:
    """Build the band layout over the one-sided DFT bins of a ``SEGMENT_SAMPLES``
    segment at ``SAMPLE_RATE_HZ``.

    Widths (in bins) double from band to band where the remaining bin budget
    allows it, never drop below one bin, and the last band is clipped so the
    table ends exactly at Nyquist. With 51 bands over 51 bins the doubling is
    never affordable and every band is one bin wide.
    """
    total_bins = SEGMENT_SAMPLES // 2 + 1
    if n_bands > total_bins:
        raise ValueError(f"{n_bands} bands exceed the {total_bins} available DFT bins")
    widths = np.empty(n_bands, dtype=np.int64)
    assigned = 0
    for i in range(n_bands - 1):
        cap = (total_bins - assigned) // (n_bands - i)
        want = 1 if i == 0 else 2 * widths[i - 1]
        widths[i] = max(1, min(want, cap))
        assigned += widths[i]
    widths[n_bands - 1] = total_bins - assigned

    stops = np.cumsum(widths)
    starts = np.concatenate(([0], stops[:-1]))
    bin_ranges = np.stack([starts, stops], axis=1)

    edges = np.empty(n_bands + 1)
    edges[0] = 0.0
    edges[1:] = (stops - 0.5) * (SAMPLE_RATE_HZ / SEGMENT_SAMPLES)
    edges[-1] = SAMPLE_RATE_HZ / 2.0  # Nyquist
    return BandTable(edges=edges, bin_ranges=bin_ranges)


def magnitude_jerk(
    samples: np.ndarray,
    previous_sample: np.ndarray | None = None,
    f_s: float = SAMPLE_RATE_HZ,
) -> np.ndarray:
    """Orientation-free channels of a window of 3-axis samples.

    Magnitude is the per-sample Euclidean norm (gravity retained); jerk is the
    norm of the sample-to-sample difference scaled by the sampling rate. The
    first jerk value uses ``previous_sample`` (the last sample before the
    window) when given, otherwise it copies the second jerk value; no
    spectrogram reads that value (see ``minute_spectrograms``).

    Returns an (n, 2) matrix of (magnitude, jerk).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of 3-axis samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("window contains non-finite samples")
    return _magnitude_jerk(samples, previous_sample, f_s).T


def _magnitude_jerk(samples: np.ndarray, previous_sample, f_s: float) -> np.ndarray:
    """(2, n) magnitude and jerk rows of a stream of samples.

    The first jerk value is the 1-D norm of the step from ``previous_sample``
    (a dot product, whose rounding differs from the row norms') or, without
    one, a copy of the second value.
    """
    out = np.empty((2, len(samples)))
    out[0] = _row_norms(samples)
    out[1, 1:] = _row_norms(np.diff(samples, axis=0)) * f_s
    if previous_sample is not None:
        out[1, 0] = np.linalg.norm(samples[0] - np.asarray(previous_sample, dtype=np.float64)) * f_s
    elif len(samples):
        out[1, 0] = out[1, 1] if len(samples) > 1 else 0.0
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) array, summing the squares in
    the order of ``np.linalg.norm(v, axis=1)``: (x0² + x1²) + x2²."""
    squares = v * v
    total = squares[:, 0] + squares[:, 1]
    total += squares[:, 2]
    return np.sqrt(total, out=total)


def _hann(n: int) -> np.ndarray:
    """Periodic Hann taper of ``n`` points; its first coefficient is exactly 0.0."""
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)


def spectrogram(window: np.ndarray, bands: BandTable | None = None) -> np.ndarray:
    """Log-power spectrogram image of a (600, 2) magnitude/jerk window.

    Per channel: 51 Hann-windowed 10-second segments hopped by 1 second, a
    one-sided power spectrum per segment, band powers summed per the band
    table, then log(power + eps). Output is (segments, bands, channels) =
    (51, 51, 2).
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (WINDOW_SAMPLES, 2):
        raise ValueError(f"expected a ({WINDOW_SAMPLES}, 2) window, got {window.shape}")
    bands = bands or band_table()
    out = np.empty((1, N_SEGMENTS, bands.n_bands, 2))
    _log_power(window.T, bands, out)
    return out[0]


def minute_spectrograms(samples: np.ndarray, f_s: float, bands: BandTable, out: np.ndarray) -> None:
    """Spectrograms of up to ``SPEC_BLOCK`` consecutive one-minute windows of a
    3-axis stream, written into ``out`` (minutes, segments, bands, 2).

    Each image has the bits of ``spectrogram(magnitude_jerk(window, previous,
    f_s), bands)``, rounded once to ``out``'s dtype (float32 in
    ``preprocess_session``), for its window whatever ``previous`` is, as long as the
    jerk it gives is finite: it sets only the jerk of the window's sample 0,
    which lies only in segment 0, where ``_hann(SEGMENT_SAMPLES)[0] == 0.0``.
    So no sample before the block is read. The caller checks the samples are
    finite.
    """
    _log_power(_magnitude_jerk(samples, None, f_s), bands, out)


def _log_power(channels: np.ndarray, bands: BandTable, out: np.ndarray) -> None:
    """Write the images of the consecutive one-minute windows of a
    (2, minutes * 600) magnitude/jerk stream into ``out``, every window's
    segments of a channel through one batched FFT.

    Every band of the default table is one bin, where ``reduceat`` is a copy,
    so it runs only for tables with wider bands.
    """
    minutes = len(out)
    taper = _hann(SEGMENT_SAMPLES)
    segments = np.empty((minutes, N_SEGMENTS, SEGMENT_SAMPLES))
    widths = bands.bin_ranges[:, 1] - bands.bin_ranges[:, 0]
    for ch in range(2):
        windows = channels[ch].reshape(minutes, WINDOW_SAMPLES)
        view = sliding_window_view(windows, SEGMENT_SAMPLES, axis=1)[:, ::SEGMENT_HOP]
        power = np.abs(np.fft.rfft(np.multiply(view, taper, out=segments), axis=2))
        np.square(power, out=power)
        if np.any(widths > 1):
            power = np.add.reduceat(power, bands.bin_ranges[:, 0], axis=2)
        power += LOG_EPS
        out[:, :, :, ch] = np.log(power, out=power)


def mask_augment(spec: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stripe-masking augmentation for a (time, band, channel) spectrogram.

    Draws 0-2 frequency stripes of width 0-5 band rows and 0-2 time stripes of
    length 0-5 segment columns, uniformly positioned, and applies the same
    stripes to both channels. Masked cells take their channel's mean over the
    unmasked cells. Draw order: stripe counts (frequency then time), then per
    stripe its extent and position.

    A float32 image comes back in float32, its fill the float64 channel mean
    rounded once; any other input is taken as float64.
    """
    spec = np.asarray(spec)
    if spec.dtype != np.float32:
        spec = spec.astype(np.float64, copy=False)
    n_time, n_band, n_ch = spec.shape
    k_f = int(rng.integers(0, 3))
    k_t = int(rng.integers(0, 3))
    band_mask = np.zeros(n_band, dtype=bool)
    time_mask = np.zeros(n_time, dtype=bool)
    for _ in range(k_f):
        width = int(rng.integers(0, 6))
        if width:
            start = int(rng.integers(0, n_band - width + 1))
            band_mask[start : start + width] = True
    for _ in range(k_t):
        length = int(rng.integers(0, 6))
        if length:
            start = int(rng.integers(0, n_time - length + 1))
            time_mask[start : start + length] = True
    if not band_mask.any() and not time_mask.any():
        return spec.copy()
    cell_mask = time_mask[:, None] | band_mask[None, :]
    out = spec.copy()
    for ch in range(n_ch):
        fill = spec[:, :, ch][~cell_mask].mean(dtype=np.float64)
        out[:, :, ch][cell_mask] = fill
    return out

