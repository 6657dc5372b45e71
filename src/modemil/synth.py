"""Synthetic session generator for dataset-free verification.

Each mode has a signal template: an oscillatory acceleration component of a
characteristic frequency and amplitude on top of gravity, plus a speed range
for the location trajectory. Both modalities are generated consistently (the
per-minute displacement follows the drawn speed along a slowly turning
bearing), so recomputing speeds from the emitted coordinates recovers the
configured values. Optional per-minute corruption replaces acceleration
windows with loud sensor noise, and per-mode location availability produces
multi-minute signal gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import MODES, PLACEMENTS, check_field_types
from .accel import SAMPLE_RATE_HZ, WINDOW_SAMPLES
from .bags import Session
from .geo import EARTH_RADIUS_M, SLOT_SECONDS, LocStream

__all__ = ["ModeTemplate", "SynthConfig", "synth_generate", "DEFAULT_TEMPLATES"]

GRAVITY = 9.81


@dataclass(frozen=True)
class ModeTemplate:
    """How one transportation mode looks to both sensors."""

    accel_freq: float  # Hz of the dominant body/vehicle oscillation (0 = none)
    accel_amp: float
    accel_noise: float
    speed_range: tuple[float, float]  # m/s
    bearing_wobble: float = 0.1  # radians per minute
    loc_availability: float = 1.0

    def __post_init__(self):
        check_field_types(self)


DEFAULT_TEMPLATES: dict[str, ModeTemplate] = {
    "still": ModeTemplate(0.0, 0.0, 0.05, (0.0, 0.0), bearing_wobble=0.0),
    "walk": ModeTemplate(2.0, 2.0, 0.3, (1.2, 1.6), bearing_wobble=0.3),
    "run": ModeTemplate(3.0, 5.0, 0.5, (2.5, 3.5), bearing_wobble=0.2),
    "bike": ModeTemplate(1.2, 1.2, 0.4, (4.0, 7.0)),
    "car": ModeTemplate(0.3, 0.8, 0.3, (8.0, 25.0)),
    "bus": ModeTemplate(0.45, 1.0, 0.35, (5.0, 15.0)),
    "train": ModeTemplate(0.2, 0.6, 0.3, (20.0, 45.0), bearing_wobble=0.02),
    "subway": ModeTemplate(0.25, 0.7, 0.3, (10.0, 35.0), bearing_wobble=0.02, loc_availability=0.15),
}


@dataclass
class SynthConfig:
    modes: tuple[str, ...] = MODES
    placements: tuple[str, ...] = PLACEMENTS
    n_users: int = 3
    sessions_per_user: int = 1
    minutes_per_session: int = 120
    dwell_mean_minutes: float = 8.0
    corruption_rate: float = 0.0  # chance a (placement, minute) is loud garbage
    corruption_amp: float = 15.0
    loc_availability: float = 1.0  # global multiplier on per-mode availability
    gap_mean_minutes: float = 4.0
    start_lat: float = 45.0
    start_lon: float = 9.0
    templates: dict[str, ModeTemplate] = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        for broken, message in (
            (not self.modes, "modes must not be empty"),
            (self.n_users < 1, "n_users must be >= 1"),
            (self.sessions_per_user < 1, "sessions_per_user must be >= 1"),
            (self.minutes_per_session < 1, "minutes_per_session must be >= 1"),
            # mean lengths of geometric draws, whose success probability 1 / mean must lie in (0, 1]
            (not self.dwell_mean_minutes >= 1.0, "dwell_mean_minutes must be >= 1"),
            (not self.gap_mean_minutes >= 1.0, "gap_mean_minutes must be >= 1"),
            (not 0.0 <= self.corruption_rate <= 1.0, "corruption_rate must lie in [0, 1]"),
            (not 0.0 <= self.loc_availability <= 1.0, "loc_availability must lie in [0, 1]"),
        ):
            if broken:
                raise ValueError(message)
        for name, keys in (("modes", self.modes), ("templates", self.templates)):
            if not set(keys) <= set(MODES):
                raise ValueError(f"unknown {name} {sorted(set(keys) - set(MODES))}; choose from {MODES}")
        unused = sorted(set(self.templates) - set(self.modes))
        if unused:
            raise ValueError(f"unused templates {unused}: their modes are not in modes {self.modes}")

    def template(self, mode: str) -> ModeTemplate:
        return self.templates.get(mode, DEFAULT_TEMPLATES[mode])


def _mode_segments(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-minute labels: mode dwell times are geometric, modes never repeat."""
    labels = np.empty(config.minutes_per_session, dtype=np.int64)
    m = 0
    previous = -1
    while m < config.minutes_per_session:
        mode = int(rng.integers(0, len(config.modes)))
        if len(config.modes) > 1 and mode == previous:
            continue
        dwell = int(rng.geometric(1.0 / config.dwell_mean_minutes))
        labels[m : m + dwell] = mode
        previous = mode
        m += dwell
    return labels


def _accel_stream(
    config: SynthConfig,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One placement's 10 Hz 3-axis stream following the per-minute labels."""
    minutes = len(labels)
    t = np.arange(minutes * WINDOW_SAMPLES) / SAMPLE_RATE_HZ
    out = np.zeros((minutes * WINDOW_SAMPLES, 3))
    out[:, 2] = GRAVITY
    # Oscillation mostly along gravity (bodies bounce vertically), with a
    # placement-specific lateral component and phase.
    axis = np.array([0.25 * rng.normal(), 0.25 * rng.normal(), 1.0])
    axis /= np.linalg.norm(axis)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    for m in range(minutes):
        template = config.template(config.modes[labels[m]])
        sl = slice(m * WINDOW_SAMPLES, (m + 1) * WINDOW_SAMPLES)
        if rng.random() < config.corruption_rate:
            out[sl] = GRAVITY * np.array([0.0, 0.0, 1.0]) + config.corruption_amp * rng.normal(size=(WINDOW_SAMPLES, 3))
            continue
        if template.accel_amp > 0.0 and template.accel_freq > 0.0:
            wave = template.accel_amp * np.sin(2.0 * np.pi * template.accel_freq * t[sl] + phase)
            out[sl] += wave[:, None] * axis
        out[sl] += template.accel_noise * rng.normal(size=(WINDOW_SAMPLES, 3))
    return out


def _trajectory(
    config: SynthConfig,
    labels: np.ndarray,
    start_time: float,
    rng: np.random.Generator,
) -> LocStream:
    """Per-minute fixes whose step lengths match the per-mode drawn speeds."""
    minutes = len(labels)
    lat = np.radians(config.start_lat + rng.uniform(-1.0, 1.0))
    lon = np.radians(config.start_lon + rng.uniform(-1.0, 1.0))
    bearing = rng.uniform(0.0, 2.0 * np.pi)
    speed = 0.0
    previous_label = -1
    lats, lons = np.empty(minutes), np.empty(minutes)
    available = np.ones(minutes, dtype=bool)
    for m in range(minutes):
        template = config.template(config.modes[labels[m]])
        if labels[m] != previous_label:
            lo, hi = template.speed_range
            speed = rng.uniform(lo, hi)
            previous_label = labels[m]
        availability = template.loc_availability * config.loc_availability
        if availability < 1.0 and rng.random() < (1.0 - availability) / config.gap_mean_minutes:
            gap = int(rng.geometric(1.0 / config.gap_mean_minutes))
            available[m : m + gap] = False
        bearing += template.bearing_wobble * rng.normal()
        step = speed * SLOT_SECONDS
        lat = lat + (step / EARTH_RADIUS_M) * np.cos(bearing)
        lon = lon + (step / EARTH_RADIUS_M) * np.sin(bearing) / np.cos(lat)
        lats[m], lons[m] = np.degrees(lat), np.degrees(lon)
    times = start_time + SLOT_SECONDS * np.arange(minutes)
    return LocStream(times=times[available], lats=lats[available], lons=lons[available])


def synth_generate(config: SynthConfig, rng: np.random.Generator) -> list[Session]:
    """Sessions with ground-truth labels and modality-consistent signals.

    Session labels are indices into the global eight-mode alphabet even when
    the config restricts generation to a subset of modes.
    """
    to_global = np.array([MODES.index(m) for m in config.modes], dtype=np.int64)
    sessions = []
    for u in range(config.n_users):
        for s in range(config.sessions_per_user):
            labels = _mode_segments(config, rng)
            accel = {p: _accel_stream(config, labels, rng) for p in config.placements}
            location = _trajectory(config, labels, start_time=0.0, rng=rng)
            sessions.append(
                Session(
                    user=f"user{u + 1}",
                    session_id=f"user{u + 1}-s{s + 1}",
                    accel=accel,
                    labels=to_global[labels],
                    location=location,
                    start_time=0.0,
                )
            )
    return sessions
