"""Transition estimation and Viterbi decoding against exhaustive search."""

import itertools

import numpy as np
import pytest

from modemil.hmm import estimate_transitions, load_transitions, save_transitions, viterbi, viterbi_streams


def brute_force_path(emissions, transitions, start):
    """Score every path; ties resolve to the lexicographically smallest."""
    e = np.clip(emissions, 1e-7, None)
    e = e / e.sum(axis=1, keepdims=True)
    log_e, log_t, log_s = np.log(e), np.log(transitions), np.log(start)
    best_path, best_score = None, -np.inf
    steps, n = emissions.shape
    for path in itertools.product(range(n), repeat=steps):
        score = log_s[path[0]] + log_e[0, path[0]]
        for t in range(1, steps):
            score += log_t[path[t - 1], path[t]] + log_e[t, path[t]]
        if score > best_score + 1e-12:
            best_path, best_score = path, score
    return np.array(best_path)


class TestEstimateTransitions:
    def test_constant_session_closed_form(self):
        length = 20
        t = estimate_transitions([np.full(length, 3)])
        assert t[3, 3] == pytest.approx((length - 1 + 1) / (length - 1 + 8))
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_labels_converge_to_uniform(self):
        rng = np.random.default_rng(0)
        t = estimate_transitions([rng.integers(0, 8, size=2_000_000)])
        np.testing.assert_allclose(t, 1.0 / 8.0, atol=0.0025)

    def test_rows_always_stochastic(self):
        rng = np.random.default_rng(1)
        sequences = [rng.integers(0, 8, size=rng.integers(2, 50)) for _ in range(10)]
        t = estimate_transitions(sequences)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(t > 0)  # add-one smoothing leaves no zero transition

    def test_no_cross_session_transitions(self):
        # two sessions ending/starting with (0, 1) contribute no 0->1 bigram
        t_two = estimate_transitions([np.array([2, 0]), np.array([1, 2])])
        t_one = estimate_transitions([np.array([2, 0, 1, 2])])
        assert t_one[0, 1] > t_two[0, 1]

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            estimate_transitions([])

    def test_label_outside_alphabet_raises(self):
        with pytest.raises(ValueError):
            estimate_transitions([np.array([0, 9])])


class TestViterbi:
    def test_uniform_model_reduces_to_argmax(self):
        rng = np.random.default_rng(2)
        emissions = rng.uniform(0.01, 1.0, size=(30, 8))
        path = viterbi(emissions, np.full((8, 8), 1.0 / 8.0))
        np.testing.assert_array_equal(path, emissions.argmax(axis=1))

    def test_sticky_chain_corrects_isolated_flip(self):
        eps = 1e-3
        transitions = np.full((8, 8), eps)
        np.fill_diagonal(transitions, 1.0 - 7 * eps)
        emissions = np.full((9, 8), 0.1 / 7.0)
        emissions[:, 2] = 0.9
        emissions[4] = 0.1 / 7.0
        emissions[4, 5] = 0.9  # one noisy dissent in a constant run
        path = viterbi(emissions, transitions)
        np.testing.assert_array_equal(path, np.full(9, 2))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        start = np.full(8, 1.0 / 8.0)
        for trial in range(100):
            steps = int(rng.integers(1, 7))
            emissions = rng.uniform(0.0, 1.0, size=(steps, 8))
            transitions = rng.dirichlet(np.ones(8), size=8)
            path = viterbi(emissions, transitions, start)
            expected = brute_force_path(emissions, transitions, start)
            np.testing.assert_array_equal(path, expected, err_msg=f"trial {trial}")

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        emissions = rng.uniform(0.01, 1.0, size=(40, 8))
        transitions = rng.dirichlet(np.ones(8), size=8)
        base = viterbi(emissions, transitions)
        scaled = viterbi(emissions * 731.0, transitions)
        np.testing.assert_array_equal(base, scaled)

    def test_path_dominates_stepwise_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            emissions = rng.uniform(0.001, 1.0, size=(20, 8))
            transitions = rng.dirichlet(np.ones(8) * 0.5, size=8)
            path = viterbi(emissions, transitions)
            greedy = emissions.argmax(axis=1)

            def score(p):
                e = emissions / emissions.sum(axis=1, keepdims=True)
                s = np.log(1.0 / 8.0) + np.log(e[0, p[0]])
                for t in range(1, len(p)):
                    s += np.log(transitions[p[t - 1], p[t]]) + np.log(e[t, p[t]])
                return s

            assert score(path) >= score(greedy) - 1e-9

    def test_all_zero_emission_row_is_decodable(self):
        emissions = np.zeros((5, 8))
        transitions = np.full((8, 8), 1.0 / 8.0)
        path = viterbi(emissions, transitions)
        assert path.shape == (5,)
        np.testing.assert_array_equal(path, 0)  # uniform everything, lowest-index ties

    def test_tie_break_on_lowest_state(self):
        emissions = np.full((3, 8), 0.125)
        transitions = np.full((8, 8), 0.125)
        np.testing.assert_array_equal(viterbi(emissions, transitions), 0)


def test_transition_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    matrix = rng.dirichlet(np.ones(8), size=8)
    path = tmp_path / "transitions.txt"
    save_transitions(path, matrix)
    np.testing.assert_allclose(load_transitions(path), matrix, atol=1e-15)
    assert path.read_text().splitlines()[0] == "# still walk run bike car bus train subway"


def per_key_streams(probs, sessions, streams, targets, transitions):
    """Reference grouping: scan every row for each (session, stream) key."""
    smoothed = np.empty(len(probs), dtype=np.int64)
    keys = list(zip(sessions, streams))
    for key in sorted(set(keys)):
        positions = [i for i, k in enumerate(keys) if k == key]
        positions.sort(key=lambda i: targets[i])
        smoothed[positions] = viterbi(probs[positions], transitions)
    return smoothed


def test_viterbi_streams_matches_per_key_loop_on_shuffled_rows():
    rng = np.random.default_rng(8)
    transitions = rng.dirichlet(np.ones(8) * 0.3, size=8)
    sessions, streams, targets = [], [], []
    for session in range(3):
        for stream in range(3):
            n = int(rng.integers(1, 40))
            sessions += [session] * n
            streams += [stream] * n
            # Duplicate targets: row order decides which is decoded first.
            targets += list(rng.integers(0, n // 2 + 1, size=n))
    sessions, streams, targets = np.array(sessions), np.array(streams), np.array(targets)
    probs = rng.dirichlet(np.ones(8) * 0.5, size=len(sessions))
    order = rng.permutation(len(sessions))
    args = (probs[order], sessions[order], streams[order], targets[order], transitions)
    assert len(np.unique(targets)) < len(targets)
    np.testing.assert_array_equal(viterbi_streams(*args), per_key_streams(*args))
    assert viterbi_streams(probs[:0], sessions[:0], streams[:0], targets[:0], transitions).shape == (0,)
