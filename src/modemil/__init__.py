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

from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

__version__ = "0.1.0"

MODES = ("still", "walk", "run", "bike", "car", "bus", "train", "subway")
N_MODES = len(MODES)
PLACEMENTS = ("Bag", "Hand", "Hips", "Torso")

__all__ = ["MODES", "N_MODES", "PLACEMENTS", "__version__", "load_config", "check_field_types"]


def load_config(cls, values):
    """The dataclass ``cls`` that the JSON object ``values`` describes. A list becomes a tuple field;
    a ``dict[str, C]`` field's objects are read as ``C``, an error in one naming its path."""
    if not isinstance(values, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {values!r}")
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for problem, keys in (("unknown", set(values) - names), ("missing", required - set(values))):
        if keys:
            raise ValueError(f"{problem} {cls.__name__} keys: {', '.join(sorted(keys))}")
    hints = get_type_hints(cls)
    return cls(**{name: _loaded(name, hints[name], value) for name, value in values.items()})


def _loaded(name: str, kind, value):
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple and isinstance(value, list):
        return tuple(value)
    if origin is dict and is_dataclass(args[1]) and isinstance(value, dict):
        return {key: _nested(f"{name}.{key}", args[1], item) for key, item in value.items()}
    return value


def _nested(path: str, cls, values):
    try:
        return load_config(cls, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _matches(value, kind) -> bool:
    """Whether ``value`` is of the resolved annotation ``kind``; an int passes as a float, a bool is no number."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return any(_matches(value, arg) for arg in args)
    if origin is tuple:  # tuple[X, ...] takes any length
        args = args[:1] * len(value) if args[-1] is Ellipsis and isinstance(value, tuple) else args
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_matches, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(_matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items())
    return isinstance(value, (int, float) if kind is float else kind) and (kind is bool or not isinstance(value, bool))


def check_field_types(config) -> None:
    """Each field of the dataclass ``config`` against its resolved annotation; the error quotes it as written."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        if not _matches(value := getattr(config, f.name), hints[f.name]):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
