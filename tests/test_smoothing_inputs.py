"""Bad smoothing input fails loudly: mismatched keys, non-finite or negative rows
and transition entries, and a transition file in another mode order are rejected
with the offending row or file named."""

import numpy as np
import pytest

from modemil import MODES
from modemil.cli import main
from modemil.hmm import load_transitions, save_transitions, viterbi, viterbi_streams
from modemil.nn import save_arrays

TRANSITIONS = np.full((8, 8), 0.125)


def keyed_rows(n=12):
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(8), size=n)
    sessions = np.arange(n) // 6
    streams = np.zeros(n, dtype=np.int64)
    targets = 100 + np.arange(n) % 6
    return probs, sessions, streams, targets


def test_key_arrays_of_another_length_are_named():
    probs, sessions, streams, targets = keyed_rows()
    with pytest.raises(ValueError, match="probs has 12 rows but sessions, streams and targets have 11, 12 and 12"):
        viterbi_streams(probs, sessions[:-1], streams, targets, TRANSITIONS)
    with pytest.raises(ValueError, match="probs has 11 rows"):
        viterbi_streams(probs[:-1], sessions, streams, targets, TRANSITIONS)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-12])
def test_bad_row_names_its_session_stream_and_target(value):
    probs, sessions, streams, targets = keyed_rows()
    probs[8, 3] = value
    with pytest.raises(ValueError, match=r"row 8 \(session 1, stream 0, target 102\) holds a NaN, an inf or a negative"):
        viterbi_streams(probs, sessions, streams, targets, TRANSITIONS)
    with pytest.raises(ValueError, match="emission row 8 holds"):
        viterbi(probs, TRANSITIONS)


def transitions_with(tmp_path, value):
    """A saved uniform matrix whose row 2, column 5 reads ``value``."""
    path = tmp_path / "transitions.txt"
    save_transitions(path, TRANSITIONS)
    lines = path.read_text().splitlines()
    cells = lines[3].split()
    cells[5] = value
    lines[3] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-0.25"])
def test_load_transitions_names_file_row_and_column(tmp_path, value):
    path = transitions_with(tmp_path, value)
    with pytest.raises(ValueError, match=rf"{path}: row 2, column 5 is {value}"):
        load_transitions(path)


def test_load_transitions_names_file_of_a_non_number(tmp_path):
    path = transitions_with(tmp_path, "x")
    with pytest.raises(ValueError, match=rf"{path}: could not convert string to float: 'x'"):
        load_transitions(path)


def test_smooth_exits_1_naming_the_predictions_file(tmp_path, capsys):
    probs, sessions, streams, targets = keyed_rows()
    probs[4, 0] = np.nan
    predictions = tmp_path / "predictions.npz"
    keys = {"session": sessions, "stream": streams, "target": targets}
    save_arrays(predictions, {"probs": probs, **keys}, meta={"kind": "predictions"})
    transitions = tmp_path / "transitions.txt"
    save_transitions(transitions, TRANSITIONS)
    argv = ["smooth", "--predictions", str(predictions), "--transitions", str(transitions)]
    assert main(argv + ["--out", str(tmp_path / "smoothed.npz")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictions}: row 4 (session 0, stream 0, target 104) holds a NaN")
    assert not (tmp_path / "smoothed.npz").exists()

    save_arrays(predictions, {"probs": np.abs(np.nan_to_num(probs)), **keys}, meta={"kind": "predictions"})
    transitions.write_text(transitions.read_text().replace("0.125", "-0.125", 1))
    assert main(argv + ["--out", str(tmp_path / "smoothed.npz")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {transitions}: row 0, column 0 is -0.125")


def test_smooth_names_missing_key_arrays(tmp_path, capsys):
    probs, sessions, _, targets = keyed_rows()
    predictions = tmp_path / "predictions.npz"
    save_arrays(predictions, {"probs": probs, "session": sessions, "target": targets}, meta={"kind": "predictions"})
    transitions = tmp_path / "transitions.txt"
    save_transitions(transitions, TRANSITIONS)
    argv = ["smooth", "--predictions", str(predictions), "--transitions", str(transitions)]
    assert main(argv + ["--out", str(tmp_path / "smoothed.npz")]) == 1
    assert capsys.readouterr().err == f"error: {predictions}: missing array 'stream'\n"


@pytest.mark.parametrize("modes", [MODES[::-1], MODES[:4]])
def test_smooth_exits_1_on_transitions_in_another_mode_order(tmp_path, capsys, modes):
    probs, sessions, streams, targets = keyed_rows()
    predictions = tmp_path / "predictions.npz"
    keys = {"session": sessions, "stream": streams, "target": targets}
    save_arrays(predictions, {"probs": probs, **keys}, meta={"kind": "predictions"})
    transitions = tmp_path / "transitions.txt"
    matrix = np.full((len(modes), len(modes)), 1.0 / len(modes))
    transitions.write_text("\n".join(["# " + " ".join(modes)] + [" ".join(map(str, row)) for row in matrix]) + "\n")
    message = f"{transitions}: the header lists the modes {' '.join(modes)}, expected {' '.join(MODES)}"
    with pytest.raises(ValueError) as raised:
        load_transitions(transitions)
    assert str(raised.value) == message
    argv = ["smooth", "--predictions", str(predictions), "--transitions", str(transitions)]
    assert main(argv + ["--out", str(tmp_path / "smoothed.npz")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "smoothed.npz").exists()
