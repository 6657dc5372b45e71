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

__all__ = ["MODES", "N_MODES", "PLACEMENTS", "__version__", "checked_keys"]


def checked_keys(cls, values: dict) -> dict:
    """``values``, whose keys must name fields of the dataclass ``cls``; the error names any other."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return values
