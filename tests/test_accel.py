"""Acceleration preprocessing: channels, band layout, spectrogram, masking."""

import numpy as np
import pytest

from modemil.accel import (
    LOG_EPS,
    N_BANDS,
    N_SEGMENTS,
    SEGMENT_HOP,
    SEGMENT_SAMPLES,
    WINDOW_SAMPLES,
    band_table,
    magnitude_jerk,
    mask_augment,
    spectrogram,
)


class TestMagnitudeJerk:
    def test_constant_gravity(self):
        samples = np.tile([0.0, 0.0, 9.81], (600, 1))
        out = magnitude_jerk(samples, previous_sample=samples[0])
        np.testing.assert_allclose(out[:, 0], 9.81)
        np.testing.assert_allclose(out[:, 1], 0.0)

    def test_alternating_axis(self):
        samples = np.zeros((600, 3))
        samples[:, 0] = np.where(np.arange(600) % 2 == 0, 1.0, -1.0)
        out = magnitude_jerk(samples, previous_sample=np.array([-1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out[:, 0], 1.0)
        np.testing.assert_allclose(out[:, 1], 2.0 * 10.0)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(600, 3))
        previous = rng.normal(size=3)
        out = magnitude_jerk(samples, previous)
        mag = np.array([np.sqrt(np.sum(s * s)) for s in samples])
        full = np.vstack([previous, samples])
        jerk = np.array([np.sqrt(np.sum((full[i + 1] - full[i]) ** 2)) * 10.0 for i in range(600)])
        np.testing.assert_allclose(out[:, 0], mag, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], jerk, atol=1e-12)

    def test_first_jerk_copies_second_without_history(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(600, 3))
        out = magnitude_jerk(samples, previous_sample=None)
        assert out[0, 1] == out[1, 1]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(600, 3))
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = samples @ rotation.T
        a = magnitude_jerk(samples, samples[0])
        b = magnitude_jerk(rotated, rotated[0])
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rejects_nonfinite(self):
        samples = np.zeros((600, 3))
        samples[5, 1] = np.nan
        with pytest.raises(ValueError):
            magnitude_jerk(samples)


class TestBandTable:
    def test_edges_increase_and_end_at_nyquist(self):
        bands = band_table()
        assert np.all(np.diff(bands.edges) > 0)
        assert bands.edges[0] == 0.0
        assert bands.edges[-1] == 5.0
        assert len(bands.edges) == N_BANDS + 1

    def test_widths_nondecreasing(self):
        for n_bands in (4, 6, 13, 26, 51):
            bands = band_table(n_bands=n_bands)
            widths = bands.bin_ranges[:, 1] - bands.bin_ranges[:, 0]
            assert np.all(np.diff(widths) >= 0), n_bands
            assert np.all(widths >= 1)

    def test_partitions_every_dft_bin(self):
        for n_bands in (5, 17, 51):
            bands = band_table(n_bands=n_bands)
            seen = np.zeros(SEGMENT_SAMPLES // 2 + 1, dtype=int)
            for start, stop in bands.bin_ranges:
                seen[start:stop] += 1
            assert np.all(seen == 1), n_bands

    def test_doubling_when_resolution_permits(self):
        bands = band_table(n_bands=6)
        widths = (bands.bin_ranges[:, 1] - bands.bin_ranges[:, 0]).tolist()
        assert widths == [1, 2, 4, 8, 16, 20]  # doubling, last clipped at Nyquist

    def test_too_many_bands_raises(self):
        with pytest.raises(ValueError):
            band_table(n_bands=52)

    def test_band_of(self):
        bands = band_table()
        for freq in (0.5, 1.0, 2.0, 4.0):
            idx = bands.band_of(freq)
            assert bands.edges[idx] < freq <= bands.edges[idx + 1]


def dft_power_oracle(window_channel):
    """Per-segment power spectrum by explicit complex exponential sums."""
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(SEGMENT_SAMPLES) / SEGMENT_SAMPLES)
    n_bins = SEGMENT_SAMPLES // 2 + 1
    out = np.empty((N_SEGMENTS, n_bins))
    n = np.arange(SEGMENT_SAMPLES)
    for s in range(N_SEGMENTS):
        seg = window_channel[s * SEGMENT_HOP : s * SEGMENT_HOP + SEGMENT_SAMPLES] * taper
        for k in range(n_bins):
            c = np.sum(seg * np.exp(-2j * np.pi * k * n / SEGMENT_SAMPLES))
            out[s, k] = np.abs(c) ** 2
    return out


class TestSpectrogram:
    def test_zero_input_is_log_eps(self):
        out = spectrogram(np.zeros((WINDOW_SAMPLES, 2)))
        np.testing.assert_allclose(out, np.log(LOG_EPS))

    def test_output_shape_on_noise(self):
        rng = np.random.default_rng(3)
        out = spectrogram(rng.normal(size=(WINDOW_SAMPLES, 2)))
        assert out.shape == (51, 51, 2)
        assert np.all(np.isfinite(out))

    def test_pure_tone_lands_in_its_band(self):
        bands = band_table()
        t = np.arange(WINDOW_SAMPLES) / 10.0
        window = np.zeros((WINDOW_SAMPLES, 2))
        window[:, 0] = np.sin(2.0 * np.pi * 2.0 * t)
        out = spectrogram(window, bands)
        tone_band = bands.band_of(2.0)
        assert np.all(out[:, :, 0].argmax(axis=1) == tone_band)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(4)
        window = rng.normal(size=(WINDOW_SAMPLES, 2))
        bands = band_table()
        out = spectrogram(window, bands)
        for ch in range(2):
            power = dft_power_oracle(window[:, ch])
            banded = np.array([power[:, a:b].sum(axis=1) for a, b in bands.bin_ranges]).T
            np.testing.assert_allclose(out[:, :, ch], np.log(banded + LOG_EPS), atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        window = rng.normal(size=(WINDOW_SAMPLES, 2))
        np.testing.assert_array_equal(spectrogram(window), spectrogram(window))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            spectrogram(np.zeros((599, 2)))


class ScriptedRng:
    """Plays back a fixed list of integers draws (duck-typed rng)."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high):
        return self.values.pop(0)


class TestMaskAugment:
    def test_zero_stripes_is_identity(self):
        rng = np.random.default_rng(6)
        spec = rng.normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([0, 0]))
        np.testing.assert_array_equal(out, spec)
        assert out is not spec

    def test_zero_width_stripes_are_identity(self):
        rng = np.random.default_rng(7)
        spec = rng.normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([2, 2, 0, 0, 0, 0]))
        np.testing.assert_array_equal(out, spec)

    def test_geometry_bound(self):
        rng = np.random.default_rng(8)
        spec = rng.normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([1, 1, 5, 10, 5, 20]))
        changed = np.sum(out[:, :, 0] != spec[:, :, 0])
        assert changed <= 5 * 51 + 5 * 51

    def test_masked_cells_take_channel_mean(self):
        rng = np.random.default_rng(9)
        spec = rng.normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([1, 0, 3, 10]))
        band_mask = np.zeros(51, dtype=bool)
        band_mask[10:13] = True
        for ch in range(2):
            fill = spec[:, ~band_mask, ch].mean()
            np.testing.assert_allclose(out[:, band_mask, ch], fill)
            np.testing.assert_array_equal(out[:, ~band_mask, ch], spec[:, ~band_mask, ch])

    def test_identical_stripes_on_both_channels(self):
        rng = np.random.default_rng(10)
        spec = rng.normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([2, 1, 4, 7, 3, 30, 5, 11]))
        np.testing.assert_array_equal(out[:, :, 0] != spec[:, :, 0], out[:, :, 1] != spec[:, :, 1])

    def test_stripe_counts_uniform_over_draws(self):
        rng = np.random.default_rng(11)
        spec = rng.normal(size=(51, 51, 2))

        counts = np.zeros(3)

        class CountingRng:
            def __init__(self, inner):
                self.inner = inner
                self.first = True

            def integers(self, low, high):
                value = int(self.inner.integers(low, high))
                if self.first:  # first draw per call is the frequency-stripe count
                    counts[value] += 1
                    self.first = False
                return value

        n = 100_000
        for _ in range(n):
            mask_augment(spec[:, :, :1], CountingRng(rng))
        freqs = counts / n
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.02)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(12)
        spec = rng.normal(size=(51, 51, 2))
        a = mask_augment(spec, np.random.default_rng(42))
        b = mask_augment(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_float32_window_gives_the_float64_result_rounded_once(self):
        spec = np.random.default_rng(13).normal(scale=4.0, size=(51, 51, 2)).astype(np.float32)
        for seed in range(20):
            got = mask_augment(spec, np.random.default_rng(seed))
            want = mask_augment(spec.astype(np.float64), np.random.default_rng(seed)).astype(np.float32)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_float64_fill_is_the_plain_channel_mean(self):
        spec = np.random.default_rng(14).normal(size=(51, 51, 2))
        out = mask_augment(spec, ScriptedRng([1, 1, 3, 10, 2, 20]))
        cell_mask = np.zeros((51, 51), dtype=bool)
        cell_mask[:, 10:13] = cell_mask[20:22] = True
        assert out.dtype == np.float64
        for ch in range(2):
            fill = spec[:, :, ch][~cell_mask].mean()
            assert out[:, :, ch][cell_mask].tobytes() == np.full(cell_mask.sum(), fill).tobytes()
            assert out[:, :, ch][~cell_mask].tobytes() == spec[:, :, ch][~cell_mask].tobytes()

