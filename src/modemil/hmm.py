"""Sequence smoothing: transition estimation and Viterbi decoding.

States are the eight transportation modes. Transition probabilities come
from bigram counts over labeled training sessions (no transitions across
session boundaries) with add-one smoothing; start probabilities are uniform;
per-minute classifier probability rows act as emission scores after clamping
and row renormalization. Decoding runs in log space and breaks ties toward
the lowest state index.

``viterbi_streams`` decodes every (session, stream) group in one
recursion over a packed layout, one step for all groups alive at that step,
and ``viterbi`` is its one-group case. The paths are byte-equal to decoding
each group alone with the per-step recursion. Memory is rows x states plus
a states x states scratch block per group longer than one row. Rows holding
a NaN, an inf or a negative value are rejected, not decoded.
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


def _log_emissions(e: np.ndarray) -> np.ndarray:
    """Clamp, renormalize and take the log of ``e``'s rows, in place."""
    np.clip(e, EMISSION_FLOOR, None, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return np.log(e, out=e)


def _emission_rows(emissions) -> np.ndarray:
    e = np.asarray(emissions, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("emissions must be (steps, states)")
    return e


def _first_bad_row(e: np.ndarray) -> int | None:
    """Index of the first row holding a NaN, an inf or a negative value, if any."""
    valid = np.isfinite(e) & (e >= 0.0)
    if valid.all():
        return None
    return int(valid.all(axis=1).argmin())


def _decode(e: np.ndarray, rows: np.ndarray, lengths, transitions, start=None) -> np.ndarray:
    """Viterbi paths, aligned with ``e``'s rows, of the groups that ``rows`` lists
    one after another in step order, with the given ``lengths``.

    All groups share one max-product recursion over a packed layout: groups
    are sorted longest first and packed row ``offsets[t] + g`` holds step
    ``t`` of group ``g``, so the groups alive at each step are a prefix. A
    step is one broadcast add of the scores and log transitions, ``argmax``
    over the previous state into the back-pointers, a gather of the element
    it picked into the scores, and an add of the step's log emissions: the
    arithmetic of decoding each group alone, so paths are byte-equal to
    that, ties going to the lowest state. Memory is rows x states, plus a
    (groups longer than one row) x states x states scratch buffer.
    """
    n_states = e.shape[1]
    transitions = np.asarray(transitions, dtype=np.float64)
    if transitions.shape != (n_states, n_states):
        raise ValueError("transition matrix shape mismatch")
    if start is None:
        start = np.full(n_states, 1.0 / n_states)
    n_rows = len(rows)
    if n_rows == 0:
        return np.empty(0, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_groups = len(lengths)

    by_length = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(by_length)
    rank[by_length] = np.arange(n_groups)
    sorted_lengths = lengths[by_length]
    live = n_groups - np.cumsum(np.bincount(sorted_lengths))[: sorted_lengths[0]]  # groups alive per step
    offsets = np.concatenate(([0], np.cumsum(live)))
    group = np.repeat(np.arange(n_groups), lengths)
    step = np.arange(n_rows) - (np.cumsum(lengths) - lengths)[group]
    source = np.empty(n_rows, dtype=np.intp)  # e's row at each packed row
    source[offsets[step] + rank[group]] = rows
    log_e = _log_emissions(e[source])
    # Runs of steps [t0, t1) over which the same groups stay alive.
    starts = (np.flatnonzero(np.diff(live[1:], prepend=-1)) + 1).tolist()
    live, offsets = live.tolist(), offsets.tolist()
    runs = [(t0, t1, live[t0]) for t0, t1 in zip(starts, starts[1:] + [len(live)])]

    log_t = np.log(np.clip(transitions, 1e-300, None)).T.copy()  # (to, from)
    score = np.log(np.asarray(start, dtype=np.float64)) + log_e[:n_groups]
    final = np.empty_like(score)
    back = np.empty((n_rows, n_states), dtype=np.intp)
    most = runs[0][2] if runs else 0
    candidates = np.empty((most, n_states, n_states))  # (group, to, from)
    picked = np.empty((most, n_states), dtype=np.intp)
    base = np.arange(0, candidates.size, n_states).reshape(most, n_states)
    width = n_groups
    for t0, t1, alive in runs:
        final[alive:width] = score[alive:]
        score, candidates, picked, base = score[:alive], candidates[:alive], picked[:alive], base[:alive]
        width, expanded = alive, score[:, None, :]
        packed = slice(offsets[t0], offsets[t1])
        for step_back, step_e in zip(
            back[packed].reshape(-1, alive, n_states), log_e[packed].reshape(-1, alive, n_states)
        ):
            np.add(expanded, log_t, out=candidates)
            candidates.argmax(axis=2, out=step_back)
            np.add(step_back, base, out=picked)
            candidates.take(picked, out=score, mode="clip")  # in range; "raise" would buffer ``out``
            score += step_e
    final[:width] = score

    # Back-pointers become flat indices into ``back`` one step earlier, so
    # the backtrack is one gather per step over every live group.
    back += ((np.arange(n_rows) - np.repeat([0] + live[:-1], live)) * n_states)[:, None]
    back = back.ravel()
    flat = np.empty(n_rows, dtype=np.intp)
    last = np.take(offsets, sorted_lengths - 1) + np.arange(n_groups)
    flat[last] = last * n_states + final.argmax(axis=1)
    for t0, t1, alive in reversed(runs):
        prev = offsets[t0 - 1]
        steps = [flat[prev : prev + alive], *flat[offsets[t0] : offsets[t1]].reshape(-1, alive)]
        for src, dst in zip(steps[:0:-1], steps[-2::-1]):
            back.take(src, out=dst, mode="clip")
    paths = np.empty(len(e), dtype=np.int64)
    paths[source] = flat - np.arange(n_rows) * n_states
    return paths


def viterbi(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Most likely state path for one session's probability rows.

    ``emissions`` is (steps, states); rows are clamped and renormalized before
    the log-space recursion, so scaling a row by a positive constant cannot
    change the decoded path. Returns the argmax path, lowest state on ties.
    Raises ``ValueError`` naming the first row that holds a NaN, an inf or a
    negative value.
    """
    e = _emission_rows(emissions)
    row = _first_bad_row(e)
    if row is not None:
        raise ValueError(f"emission row {row} holds a NaN, an inf or a negative value")
    return _decode(e, np.arange(len(e)), [len(e)], transitions, start)


def viterbi_streams(probs, sessions, streams, targets, transitions: np.ndarray) -> np.ndarray:
    """Decode each (session, stream) group of rows in target order, aligned with the
    rows. The grouping sort is stable: rows with equal targets keep their order.

    Raises ``ValueError`` when ``probs`` and the key arrays differ in length, or
    naming the (session, stream, target) of a row that holds a NaN, an inf or
    a negative value.
    """
    e = _emission_rows(probs)
    sessions, streams, targets = np.asarray(sessions), np.asarray(streams), np.asarray(targets)
    if not len(e) == len(sessions) == len(streams) == len(targets):
        raise ValueError(
            f"probs has {len(e)} rows but sessions, streams and targets have "
            f"{len(sessions)}, {len(streams)} and {len(targets)}"
        )
    row = _first_bad_row(e)
    if row is not None:
        raise ValueError(
            f"row {row} (session {sessions[row]}, stream {streams[row]}, target {targets[row]}) "
            "holds a NaN, an inf or a negative value"
        )
    order = np.lexsort((targets, streams, sessions))
    keys = np.column_stack((sessions, streams))[order]
    bounds = np.concatenate(([0], np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1, [len(order)]))
    return _decode(e, order, np.diff(bounds), transitions)


def save_transitions(path, transitions: np.ndarray) -> None:
    """Write the matrix as text: a ``MODES``-order header line then 8 numeric rows."""
    transitions = np.asarray(transitions, dtype=np.float64)
    lines = ["# " + " ".join(MODES)]
    for row in transitions:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_transitions(path) -> np.ndarray:
    """Read a matrix ``save_transitions`` wrote, whose header must list ``MODES``
    in order; every error names ``path``."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing mode-order header")
    modes = tuple(lines[0][1:].split())
    if modes != MODES:
        raise ValueError(f"{path}: the header lists the modes {' '.join(modes)}, expected {' '.join(MODES)}")
    try:
        matrix = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    except ValueError as exc:  # a non-number, or rows of unequal length
        raise ValueError(f"{path}: {exc}") from exc
    if matrix.shape != (N_MODES, N_MODES):
        raise ValueError(f"{path}: matrix shape {matrix.shape} does not match the header")
    bad = np.argwhere(~(np.isfinite(matrix) & (matrix >= 0.0)))
    if len(bad):
        row, col = bad[0]
        value = float(matrix[row, col])
        raise ValueError(f"{path}: row {row}, column {col} is {value}; entries must be finite and non-negative")
    return matrix
