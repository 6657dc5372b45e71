"""Sequence smoothing: transition estimation and Viterbi decoding.

States are the eight transportation modes. Transition probabilities come
from bigram counts over labeled training sessions (no transitions across
session boundaries) with add-one smoothing; start probabilities are uniform;
per-minute classifier probability rows act as emission scores after clamping
and row renormalization. Decoding runs in log space and breaks ties toward
the lowest state index.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import MODES, N_MODES

__all__ = [
    "estimate_transitions",
    "viterbi",
    "viterbi_streams",
    "save_transitions",
    "load_transitions",
]

EMISSION_FLOOR = 1e-7


def estimate_transitions(label_sequences) -> np.ndarray:
    """Row-stochastic ``N_MODES`` x ``N_MODES`` transition matrix from per-session
    label sequences.

    Bigrams are counted within each sequence only; every count starts at one
    (add-one smoothing), which keeps unseen transitions decodable.
    """
    sequences = [np.asarray(s, dtype=np.int64) for s in label_sequences]
    if not sequences:
        raise ValueError("at least one labeled session is required")
    counts = np.ones((N_MODES, N_MODES))
    for seq in sequences:
        if len(seq) and (seq.min() < 0 or seq.max() >= N_MODES):
            raise ValueError("label outside the state alphabet")
        if len(seq) >= 2:
            np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
    return counts / counts.sum(axis=1, keepdims=True)


def _log_emissions(emissions: np.ndarray) -> np.ndarray:
    e = np.asarray(emissions, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("emissions must be (steps, states)")
    e = np.clip(e, EMISSION_FLOOR, None)
    e = e / e.sum(axis=1, keepdims=True)
    return np.log(e)


def viterbi(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Most likely state path for one session's probability rows.

    ``emissions`` is (steps, states); rows are clamped and renormalized before
    the log-space recursion, so scaling a row by a positive constant cannot
    change the decoded path. Returns the argmax path, lowest state on ties.
    """
    log_e = _log_emissions(emissions)
    steps, n_states = log_e.shape
    transitions = np.asarray(transitions, dtype=np.float64)
    if transitions.shape != (n_states, n_states):
        raise ValueError("transition matrix shape mismatch")
    if start is None:
        start = np.full(n_states, 1.0 / n_states)
    log_t = np.log(np.clip(transitions, 1e-300, None))
    score = np.log(np.asarray(start, dtype=np.float64)) + log_e[0]
    back = np.zeros((steps, n_states), dtype=np.int64)
    for t in range(1, steps):
        candidates = score[:, None] + log_t  # (from, to)
        back[t] = candidates.argmax(axis=0)
        score = candidates[back[t], np.arange(n_states)] + log_e[t]
    path = np.zeros(steps, dtype=np.int64)
    path[-1] = int(score.argmax())
    for t in range(steps - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def viterbi_streams(probs, sessions, streams, targets, transitions: np.ndarray) -> np.ndarray:
    """Decode each (session, stream) group of rows in target order, aligned with the
    rows. The grouping sort is stable: rows with equal targets keep their order."""
    order = np.lexsort((targets, streams, sessions))
    keys = np.column_stack((sessions, streams))[order]
    starts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
    smoothed = np.empty(len(order), dtype=np.int64)
    for group in np.split(order, starts) if len(order) else []:
        smoothed[group] = viterbi(probs[group], transitions)
    return smoothed


def save_transitions(path, transitions: np.ndarray) -> None:
    """Write the matrix as text: a ``MODES``-order header line then 8 numeric rows."""
    transitions = np.asarray(transitions, dtype=np.float64)
    lines = ["# " + " ".join(MODES)]
    for row in transitions:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_transitions(path) -> tuple[np.ndarray, tuple[str, ...]]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing mode-order header")
    modes = tuple(lines[0][1:].split())
    matrix = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    if matrix.shape != (len(modes), len(modes)):
        raise ValueError("matrix shape does not match the header")
    return matrix, modes
