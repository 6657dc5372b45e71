"""Transportation-mode recognition from low-rate acceleration and location.

Subpackages and modules:

- ``modemil.nn``: float64 tensors with reverse-mode autodiff, layers, Adam
- ``modemil.accel``: magnitude/jerk extraction and log-banded spectrograms
- ``modemil.geo``: location gap handling and invariant trajectory features
- ``modemil.model``: modality encoders, gated attention pooling, classifiers
- ``modemil.hmm``: transition estimation and Viterbi smoothing
- ``modemil.shl`` / ``modemil.bags`` / ``modemil.splits`` / ``modemil.synth``:
  dataset ingestion, bag construction, leave-one-user-out splitting and a
  synthetic session generator
- ``modemil.train`` / ``modemil.metrics`` / ``modemil.experiments``: training
  loops, evaluation metrics and the experiment harness
- ``modemil.cli``: command-line entry point
"""

from dataclasses import fields

__version__ = "0.1.0"

MODES = ("still", "walk", "run", "bike", "car", "bus", "train", "subway")
N_MODES = len(MODES)
PLACEMENTS = ("Bag", "Hand", "Hips", "Torso")

__all__ = ["MODES", "N_MODES", "PLACEMENTS", "__version__", "checked_keys", "check_field_types"]

_FIELD_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}


def checked_keys(cls, values: dict) -> dict:
    """``values``, whose keys must name fields of the dataclass ``cls``; the error names any other."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return values


def check_field_types(config) -> None:
    """Each ``str``, ``bool``, ``int`` or ``float`` field of the dataclass ``config`` against its
    annotation (a string, as under ``from __future__ import annotations``); ``X | None`` also takes
    None, an int passes as a float and a bool is no number. Other fields are left to the caller."""
    for f in fields(config):
        value, (kind, _, optional) = getattr(config, f.name), f.type.partition(" | ")
        if kind not in _FIELD_TYPES or (value is None and optional == "None"):
            continue
        if not isinstance(value, _FIELD_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
