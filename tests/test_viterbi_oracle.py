"""Byte oracle: the packed decoder against the per-step recursion, one group at a time.

``reference_viterbi`` is the per-step Viterbi recursion that decoded each
(session, stream) group on its own before all groups shared one packed
recursion. Every case here compares paths with ``tobytes()``, so a changed
tie-break, a changed rounding order or a mis-packed row fails.
"""

import tracemalloc

import numpy as np
import pytest

from modemil.hmm import estimate_transitions, viterbi, viterbi_streams


def reference_viterbi(emissions, transitions, start=None):
    e = np.asarray(emissions, dtype=np.float64)
    e = np.clip(e, 1e-7, None)
    e = e / e.sum(axis=1, keepdims=True)
    log_e = np.log(e)
    steps, n_states = log_e.shape
    transitions = np.asarray(transitions, dtype=np.float64)
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


def reference_streams(probs, sessions, streams, targets, transitions):
    """``reference_viterbi`` on each (session, stream) group in stable target order."""
    probs = np.asarray(probs, dtype=np.float64)
    order = np.lexsort((targets, streams, sessions))
    keys = np.column_stack((sessions, streams))[order]
    starts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
    smoothed = np.empty(len(order), dtype=np.int64)
    for group in np.split(order, starts) if len(order) else []:
        smoothed[group] = reference_viterbi(probs[group], transitions)
    return smoothed


def assert_same_paths(probs, sessions, streams, targets, transitions):
    got = viterbi_streams(probs, sessions, streams, targets, transitions)
    want = reference_streams(probs, sessions, streams, targets, transitions)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def sticky(rng, stick=0.9):
    t = rng.dirichlet(np.ones(8), size=8) * (1.0 - stick) + np.eye(8) * stick
    return t / t.sum(axis=1, keepdims=True)


def streams_of(lengths, rng):
    """Keys for one (session, stream) group per length, rows shuffled across groups."""
    group = np.repeat(np.arange(len(lengths)), lengths)
    targets = np.concatenate([rng.permutation(n) for n in lengths])
    order = rng.permutation(len(group))
    return (group // 3)[order], (group % 3)[order], targets[order]


@pytest.mark.parametrize("seed", [1, 2, 1701])
def test_ragged_groups_including_one_row_groups(seed):
    rng = np.random.default_rng(seed)
    n = 40
    lengths = np.concatenate([np.arange(1, n + 1), np.ones(7, dtype=int), rng.integers(1, n, size=20)])
    sessions, streams, targets = streams_of(rng.permutation(lengths), rng)
    probs = rng.dirichlet(np.ones(8) * 0.5, size=len(sessions))
    assert_same_paths(probs, sessions, streams, targets, sticky(rng))


@pytest.mark.parametrize("seed", [1, 2, 1701])
def test_shuffled_rows_with_duplicate_targets(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 60, size=12)
    group = np.repeat(np.arange(len(lengths)), lengths)
    targets = np.concatenate([rng.integers(0, n // 2 + 1, size=n) for n in lengths])
    order = rng.permutation(len(group))
    sessions, streams, targets = (group // 4)[order], (group % 4)[order], targets[order]
    assert len(np.unique(np.column_stack((sessions, streams, targets)), axis=0)) < len(targets)
    probs = rng.dirichlet(np.ones(8) * 0.3, size=len(group))
    assert_same_paths(probs, sessions, streams, targets, rng.dirichlet(np.ones(8) * 0.3, size=8))


@pytest.mark.parametrize("seed", [1, 2, 1701])
def test_seventy_two_streams_of_seven_hundred_twenty_minutes(seed):
    """The preprocess_smooth benchmark's job shape: 20% of labels flipped, kept label at 0.9."""
    rng = np.random.default_rng(seed)
    n_streams, minutes = 72, 720
    truth = np.repeat(rng.integers(0, 8, size=(n_streams, minutes // 40)), 40, axis=1)
    noisy = np.where(rng.random(truth.shape) < 0.2, rng.integers(0, 8, size=truth.shape), truth)
    probs = np.full((n_streams * minutes, 8), 0.1 / 7.0)
    probs[np.arange(len(probs)), noisy.ravel()] = 0.9
    transitions = estimate_transitions(list(truth[: n_streams // 2]))
    group = np.repeat(np.arange(n_streams), minutes)
    sessions, streams, targets = group // 12, group % 12, np.tile(np.arange(minutes), n_streams)
    assert_same_paths(probs, sessions, streams, targets, transitions)


@pytest.mark.parametrize("seed", [1, 2, 1701])
def test_one_stream_of_six_hundred_eighty_nine_minutes(seed):
    """The c6_fusion benchmark's job shape, through both entry points."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(8) * 0.2, size=689)
    transitions = sticky(rng)
    assert viterbi(probs, transitions).tobytes() == reference_viterbi(probs, transitions).tobytes()
    keys = np.zeros(689, dtype=np.int64)
    assert_same_paths(probs, keys, keys, rng.permutation(689), transitions)


def test_ties_go_to_the_lowest_state():
    rng = np.random.default_rng(3)
    sessions, streams, targets = streams_of(rng.integers(1, 30, size=15), rng)
    uniform_rows = np.full((len(sessions), 8), 0.125)
    uniform_t = np.full((8, 8), 0.125)
    assert_same_paths(uniform_rows, sessions, streams, targets, uniform_t)
    # Rows tied between two or more states, under uniform and sticky transitions.
    tied = np.zeros((len(sessions), 8))
    for i in range(len(tied)):
        tied[i, rng.choice(8, size=rng.integers(2, 5), replace=False)] = 0.5
    assert_same_paths(tied, sessions, streams, targets, uniform_t)
    assert_same_paths(tied, sessions, streams, targets, sticky(rng))


def test_all_zero_rows_are_clamped():
    rng = np.random.default_rng(4)
    sessions, streams, targets = streams_of(rng.integers(1, 30, size=10), rng)
    probs = rng.dirichlet(np.ones(8), size=len(sessions))
    probs[rng.random(len(probs)) < 0.3] = 0.0
    assert_same_paths(probs, sessions, streams, targets, sticky(rng))
    assert_same_paths(np.zeros_like(probs), sessions, streams, targets, sticky(rng))
    # Entries on both sides of the 1e-7 floor, so that the clamp decides paths.
    tiny = 10.0 ** rng.uniform(-9.0, -5.0, size=probs.shape)
    tiny[rng.random(probs.shape) < 0.2] = 0.0
    assert_same_paths(tiny, sessions, streams, targets, rng.dirichlet(np.ones(8), size=8))


def test_transition_matrix_with_zero_entries():
    rng = np.random.default_rng(5)
    sessions, streams, targets = streams_of(rng.integers(1, 50, size=10), rng)
    probs = rng.dirichlet(np.ones(8), size=len(sessions))
    transitions = sticky(rng)
    transitions[:, 3] = 0.0
    transitions[5, :] = 0.0
    transitions[5, 5] = 1.0
    assert_same_paths(probs, sessions, streams, targets, transitions)


def test_custom_start():
    rng = np.random.default_rng(6)
    transitions = sticky(rng)
    for steps in (1, 2, 17, 300):
        probs = rng.dirichlet(np.ones(8), size=steps)
        for start in (rng.dirichlet(np.ones(8)), np.eye(8)[6], np.full(8, 0.125)):
            with np.errstate(divide="ignore"):  # log(0) for the one-hot start
                got, want = viterbi(probs, transitions, start), reference_viterbi(probs, transitions, start)
            assert got.tobytes() == want.tobytes()


def test_list_inputs():
    rng = np.random.default_rng(7)
    sessions, streams, targets = streams_of(rng.integers(1, 20, size=8), rng)
    probs = rng.dirichlet(np.ones(8), size=len(sessions))
    transitions = sticky(rng)
    args = (probs.tolist(), sessions.tolist(), streams.tolist(), targets.tolist(), transitions.tolist())
    assert_same_paths(*args)
    assert viterbi(probs[:9].tolist(), args[-1]).tobytes() == reference_viterbi(probs[:9], transitions).tobytes()


def test_empty_input():
    transitions = np.full((8, 8), 0.125)
    got = viterbi_streams(np.zeros((0, 8)), [], [], [], transitions)
    assert got.dtype == np.int64 and got.shape == (0,)
    assert viterbi(np.zeros((0, 8)), transitions).shape == (0,)


def test_peak_memory_grows_with_rows_not_longest_times_groups():
    """One 5,000-minute stream beside 500 one-minute ones: a layout padded to the
    longest stream would hold 501 x 5,000 x 8 scores and back-pointers (about
    320 MB); the packed one holds 5,500 rows."""
    rng = np.random.default_rng(8)
    lengths = [5000] + [1] * 500
    sessions, streams, targets = streams_of(lengths, rng)
    probs = rng.dirichlet(np.ones(8), size=len(sessions))
    transitions = sticky(rng)
    tracemalloc.start()
    try:
        got = viterbi_streams(probs, sessions, streams, targets, transitions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert got.tobytes() == reference_streams(probs, sessions, streams, targets, transitions).tobytes()
