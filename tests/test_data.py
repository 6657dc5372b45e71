"""Dataset plumbing: synthetic generation, bags, splits, ingestion, round-trips."""

import hashlib
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from modemil import MODES, load_config
from modemil.accel import WINDOW_SAMPLES, band_table, magnitude_jerk, spectrogram
from modemil.bags import (
    UNLABELED,
    BagRef,
    Session,
    build_bags,
    build_windows,
    load_features,
    load_sessions,
    mixed_streams,
    preprocess_session,
    save_features,
    save_sessions,
)
from modemil.geo import WINDOW_MINUTES, haversine
from modemil.nn import load_arrays, save_arrays
from modemil.shl import ColumnMap, ingest, ingest_report
from modemil.splits import label_streams, loso_folds, split_bags
from modemil.synth import DEFAULT_TEMPLATES, ModeTemplate, SynthConfig, synth_generate
from modemil.train import TrainConfig


def small_config(**overrides):
    base = dict(
        modes=("still", "walk", "run", "car"),
        placements=("Hips", "Torso"),
        n_users=2,
        sessions_per_user=1,
        minutes_per_session=60,
        dwell_mean_minutes=15.0,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynth:
    def test_deterministic_per_seed(self):
        cfg = small_config()
        a = synth_generate(cfg, np.random.default_rng(1))
        b = synth_generate(cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(a[0].labels, b[0].labels)
        np.testing.assert_array_equal(a[0].accel["Hips"], b[0].accel["Hips"])
        np.testing.assert_array_equal(a[0].location.lats, b[0].location.lats)

    def test_labels_are_global_mode_indices(self):
        sessions = synth_generate(small_config(modes=("run", "subway")), np.random.default_rng(2))
        seen = set(np.unique(np.concatenate([s.labels for s in sessions])))
        assert seen <= {MODES.index("run"), MODES.index("subway")}

    def test_stationary_sessions_have_flat_location_and_dc_spectrum(self):
        cfg = small_config(modes=("still",), placements=("Hips",), n_users=1, minutes_per_session=20)
        session = synth_generate(cfg, np.random.default_rng(3))[0]
        feat = preprocess_session(session)
        assert np.all(np.abs(feat.loc_matrix) < 0.02)
        spec = feat.spectrograms[0, 12]  # linear-power share of the DC band
        power = np.exp(spec[:, :, 0])
        assert np.all(power[:, 0] > 0.5 * power.sum(axis=1))

    def test_walk_sessions_peak_at_two_hertz(self):
        cfg = small_config(modes=("walk",), placements=("Hips",), n_users=1, minutes_per_session=20)
        session = synth_generate(cfg, np.random.default_rng(4))[0]
        feat = preprocess_session(session)
        bands = band_table()
        tone_band = bands.band_of(2.0)
        spec = feat.spectrograms[0, 10][:, :, 0]
        # dominant band above the gravity line's Hann mainlobe (bands 0-1)
        assert np.all(spec[:, 2:].argmax(axis=1) + 2 == tone_band)

    def test_speeds_match_configured_range_within_two_percent(self):
        from modemil.synth import ModeTemplate

        cfg = small_config(
            modes=("car",),
            placements=("Hips",),
            n_users=1,
            minutes_per_session=40,
            templates={"car": ModeTemplate(0.3, 0.8, 0.3, (12.0, 12.0))},
        )
        session = synth_generate(cfg, np.random.default_rng(5))[0]
        loc = session.location
        d = haversine(loc.lats[:-1], loc.lons[:-1], loc.lats[1:], loc.lons[1:])
        dt = np.diff(loc.times)
        steps = d[dt == 60.0] / 60.0
        assert len(steps) > 10
        np.testing.assert_allclose(steps, 12.0, rtol=0.02)

    def test_low_availability_creates_long_gaps(self):
        cfg = small_config(modes=("subway",), placements=("Hips",), n_users=1, minutes_per_session=120)
        session = synth_generate(cfg, np.random.default_rng(6))[0]
        assert len(session.location.times) < 0.7 * 120

    def test_config_json_round_trip(self):
        cfg = small_config(corruption_rate=0.2, templates={"run": ModeTemplate(3.0, 5.0, 0.5, (2.5, 3.0))})
        clone = load_config(SynthConfig, json.loads(json.dumps(asdict(cfg))))
        assert clone == cfg

    def test_config_json_names_unknown_keys_and_modes(self):
        with pytest.raises(ValueError, match=r"^unknown SynthConfig keys: n_user, seed$"):
            load_config(SynthConfig, {"n_user": 2, "seed": 1, "n_users": 2})
        with pytest.raises(ValueError, match=r"^templates\.run: unknown ModeTemplate keys: freq$"):
            load_config(SynthConfig, {"templates": {"run": {"freq": 3.0, "speed_range": [2.0, 3.0]}}})
        with pytest.raises(ValueError, match=r"^unknown modes \['plane'\]; choose from \('still', "):
            load_config(SynthConfig, {"modes": ["still", "plane"]})
        with pytest.raises(ValueError, match=r"^unknown modes \['Walk', 'plane'\]"):
            small_config(modes=("plane", "Walk", "run"))
        templates = {mode: asdict(DEFAULT_TEMPLATES[mode]) for mode in ("walk", "bike", "still")}
        with pytest.raises(ValueError, match=r"^unused templates \['bike', 'walk'\]: their modes are not in modes \('still',\)$"):
            load_config(SynthConfig, {"modes": ["still"], "templates": templates})

    def test_config_values_are_checked_against_their_field_types(self):
        for make, message in (
            (lambda: load_config(SynthConfig, {"n_users": "2"}), "n_users must be int, got '2'"),
            (lambda: small_config(minutes_per_session=60.0), "minutes_per_session must be int, got 60.0"),
            (lambda: small_config(corruption_rate=True), "corruption_rate must be float, got True"),
            (lambda: ModeTemplate(1.0, "2", 0.1, (1.0, 2.0)), "accel_amp must be float, got '2'"),
            (lambda: TrainConfig(lr=True), "lr must be float, got True"),
            (lambda: load_config(TrainConfig, {"batch_size": "32"}), "batch_size must be int, got '32'"),
            (lambda: TrainConfig(stop_accuracy="0.9"), "stop_accuracy must be float | None, got '0.9'"),
            (lambda: small_config(placements=["Hips"]), "placements must be tuple[str, ...], got ['Hips']"),
            (lambda: ModeTemplate(1, 2, 0, (1.0, True)), "speed_range must be tuple[float, float], got (1.0, True)"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()
        for templates in ({1: DEFAULT_TEMPLATES["run"]}, {"run": {"accel_freq": 3.0}}):
            with pytest.raises(ValueError, match=r"^templates must be dict\[str, ModeTemplate\], got \{"):
                small_config(templates=templates)
        # an int passes as a float, and None where the annotation allows it
        assert small_config(dwell_mean_minutes=8).dwell_mean_minutes == 8
        assert ModeTemplate(2, 2, 0, (1, 2)).accel_freq == 2
        assert TrainConfig(lr=1, stop_accuracy=None).lr == 1

    @pytest.mark.parametrize(
        "config, seed, expected",
        [
            # sha256 of every session field, recorded while synth kept its own copies of the
            # sample rate and the minute length: the default config and the criterion-6 corpus
            (SynthConfig(), 0, "d0ca0707baec33f20bedda2c894b8fc3ca61ba9bb67b15a544fef1cc369615c4"),
            (
                SynthConfig(
                    modes=("still", "walk", "run", "car"),
                    placements=("Hips",),
                    n_users=3,
                    minutes_per_session=700,
                    dwell_mean_minutes=30.0,
                    corruption_rate=0.2,
                ),
                42,
                "59dbdacc9aee38bb29a4b17b1f231f290301ece01eeb68b6831f01743c589007",
            ),
        ],
    )
    def test_generated_sessions_stay_byte_equal(self, config, seed, expected):
        digest = hashlib.sha256()
        for s in synth_generate(config, np.random.default_rng(seed)):
            digest.update(f"{s.user}/{s.session_id}/{s.start_time!r}/{s.accel_rate!r}".encode())
            arrays = [s.labels, s.location.times, s.location.lats, s.location.lons]
            for p in sorted(s.accel):
                digest.update(p.encode())
                arrays.append(s.accel[p])
            for a in arrays:
                digest.update(f"{a.dtype}{a.shape}".encode())
                digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == expected


class TestBags:
    def test_fifteen_minute_session_yields_four_bags(self):
        labels = np.full(15, 2)
        rng = np.random.default_rng(7)
        session = Session(
            user="u1",
            session_id="u1-s1",
            accel={"Hips": rng.normal(size=(15 * 600, 3))},
            labels=labels,
        )
        bags = build_bags([preprocess_session(session)])
        assert len(bags) == 4
        assert [r.target for r in bags.refs] == [11, 12, 13, 14]

    def test_non_finite_sample_names_session_placement_and_minute(self):
        rng = np.random.default_rng(7)
        accel = {"Hips": rng.normal(size=(40 * 600, 3)), "Torso": rng.normal(size=(40 * 600, 3))}
        accel["Torso"][23 * 600 + 599, 2] = np.inf  # minute 23's last sample
        accel["Torso"][31 * 600, 0] = np.nan
        accel["Torso"][40 * 600 - 1, 1] = np.nan
        session = Session(user="u1", session_id="u1-s1", accel=accel, labels=np.full(40, 2))
        with pytest.raises(ValueError, match=r"^u1-s1/Torso: minute 23 holds non-finite samples$"):
            preprocess_session(session)
        # samples past the labeled minutes are not read
        accel["Torso"] = np.concatenate([rng.normal(size=(40 * 600, 3)), np.full((5, 3), np.nan)])
        preprocess_session(session)

    @pytest.mark.parametrize("rate", [20.0, 100.0, 9.99, float("nan")])
    def test_session_not_at_10_hz_is_rejected(self, rate):
        # at 20 Hz a 600-sample "minute" is 30 s long, and only the stream's first half would be read
        accel = {"Hips": np.zeros((30 * 600, 3))}
        session = Session(user="u1", session_id="u1-s1", accel=accel, labels=np.full(30, 2), accel_rate=rate)
        with pytest.raises(ValueError, match=rf"^u1-s1: acceleration at {rate} Hz, not 10 Hz$"):
            preprocess_session(session)

    def test_bag_count_never_exceeds_label_count(self):
        sessions = synth_generate(small_config(), np.random.default_rng(8))
        feats = [preprocess_session(s) for s in sessions]
        bags = build_bags(feats, placement="Hips")
        assert len(bags) <= sum(f.n_minutes for f in feats)

    def test_missing_location_emits_masked_bags(self):
        rng = np.random.default_rng(9)
        session = Session(
            user="u1",
            session_id="u1-s1",
            accel={"Hips": rng.normal(size=(20 * 600, 3))},
            labels=np.full(20, 1),
            location=None,
        )
        bags = build_bags([preprocess_session(session)])
        batch = bags.batch(np.arange(len(bags)))
        np.testing.assert_array_equal(batch["loc_seq"], 0.0)
        np.testing.assert_array_equal(batch["loc_scalars"], 0.0)

    def test_unlabeled_minutes_are_skipped(self):
        rng = np.random.default_rng(10)
        labels = np.full(20, 3)
        labels[15] = -1
        session = Session(user="u", session_id="s", accel={"Hips": rng.normal(size=(20 * 600, 3))}, labels=labels)
        bags = build_bags([preprocess_session(session)])
        assert all(r.target != 15 for r in bags.refs)
        assert len(bags) == 8

    def test_deterministic_and_idempotent(self):
        sessions = synth_generate(small_config(), np.random.default_rng(11))
        feats = [preprocess_session(s) for s in sessions]
        a = build_bags(feats)
        b = build_bags(feats)
        assert a.refs == b.refs
        batch_a = a.batch([0, 5, 10])
        batch_b = b.batch([0, 5, 10])
        np.testing.assert_array_equal(batch_a["acc"], batch_b["acc"])

    def test_instance_count_sweep_knob(self):
        sessions = synth_generate(small_config(minutes_per_session=30), np.random.default_rng(19))
        feats = [preprocess_session(s) for s in sessions]
        for n in (1, 3, 6, 12):
            bags = build_bags(feats, placement="Hips", n_instances=n)
            assert bags.n_instances == n
            batch = bags.batch([0, 1])
            assert batch["acc"].shape == (2, n, 51, 51, 2)
            # instance minutes are the n most recent before the target
            ref = bags.refs[0]
            assert ref.target - (n - 1) >= 0
        with pytest.raises(ValueError):
            build_bags(feats, n_instances=13)

    def test_build_windows_covers_every_labeled_minute(self):
        sessions = synth_generate(small_config(), np.random.default_rng(12))
        feats = [preprocess_session(s) for s in sessions]
        windows = build_windows(feats)
        expected = sum(int((f.labels >= 0).sum()) * len(f.placements) for f in feats)
        assert len(windows) == expected
        assert windows.n_instances == 1

    def test_placement_resampling_uses_every_placement(self):
        sessions = synth_generate(small_config(), np.random.default_rng(13))
        feats = [preprocess_session(s) for s in sessions]
        bags = build_bags(feats, placement="Hips")
        rng = np.random.default_rng(0)
        base = bags.batch([0], placement_rng=None)["acc"]
        seen_different = False
        for _ in range(8):
            alt = bags.batch([0], placement_rng=rng)["acc"]
            if not np.array_equal(alt, base):
                seen_different = True
        assert seen_different


class TestMixedStreams:
    def test_infinite_dwell_reduces_to_one_placement(self):
        sessions = synth_generate(small_config(), np.random.default_rng(14))
        feats = [preprocess_session(s) for s in sessions]
        mixed = mixed_streams(feats, n_streams=1, rng=np.random.default_rng(3), dwell_mean=np.inf)
        for ref in mixed.refs:
            assert len(set(ref.placement_rows)) == 1

    def test_every_window_traceable_to_one_placement(self):
        sessions = synth_generate(small_config(), np.random.default_rng(15))
        feats = [preprocess_session(s) for s in sessions]
        mixed = mixed_streams(feats, n_streams=2, rng=np.random.default_rng(4))
        names = {n for ref in mixed.refs for n in mixed.placement_names(ref)}
        assert names <= {"Hips", "Torso"}

    def test_instance_count_takes_the_most_recent_minutes(self):
        sessions = synth_generate(small_config(), np.random.default_rng(17))
        feats = [preprocess_session(s) for s in sessions]
        three = mixed_streams(feats, n_streams=2, rng=np.random.default_rng(6))
        five = mixed_streams(feats, n_streams=2, rng=np.random.default_rng(6), n_instances=5)
        assert five.n_instances == 5 and len(five) == len(three)
        for ref3, ref5 in zip(three.refs, five.refs):
            assert ref5.placement_rows[-3:] == ref3.placement_rows
        with pytest.raises(ValueError):
            mixed_streams(feats, n_streams=1, rng=np.random.default_rng(6), n_instances=13)

    def test_placement_frequency_is_uniform(self):
        cfg = small_config(placements=("Bag", "Hand", "Hips", "Torso"), minutes_per_session=400, n_users=1)
        sessions = synth_generate(cfg, np.random.default_rng(16))
        feats = [preprocess_session(s) for s in sessions]
        mixed = mixed_streams(feats, n_streams=4, rng=np.random.default_rng(5), dwell_mean=3.0)
        rows = np.array([ref.placement_rows[-1] for ref in mixed.refs])
        freqs = np.bincount(rows, minlength=4) / len(rows)
        assert np.all(np.abs(freqs - 0.25) < 0.02)


# The three bag builders as they were before they shared one loop; the
# builders must emit the same refs, in the same order.


def reference_build_bags(features, placement=None, n_instances=3):
    refs = []
    for s, feat in enumerate(features):
        rows = range(len(feat.placements)) if placement is None else [feat.placements.index(placement)]
        for row in rows:
            for m in range(WINDOW_MINUTES - 1, feat.n_minutes):
                if feat.labels[m] == UNLABELED:
                    continue
                refs.append(BagRef(s, (row,) * n_instances, m, int(feat.labels[m]), row))
    return refs


def reference_build_windows(features, placement=None):
    refs = []
    for s, feat in enumerate(features):
        rows = range(len(feat.placements)) if placement is None else [feat.placements.index(placement)]
        for row in rows:
            for m in range(feat.n_minutes):
                if feat.labels[m] == UNLABELED:
                    continue
                refs.append(BagRef(s, (row,), m, int(feat.labels[m]), row))
    return refs


def reference_mixed_streams(features, n_streams, rng, dwell_mean=10.0, n_instances=3):
    refs = []
    for s, feat in enumerate(features):
        n_placements = len(feat.placements)
        for v in range(n_streams):
            choice = np.empty(feat.n_minutes, dtype=np.int64)
            m = 0
            while m < feat.n_minutes:
                row = int(rng.integers(0, n_placements))
                dwell = feat.n_minutes if not np.isfinite(dwell_mean) else int(rng.geometric(1.0 / dwell_mean))
                choice[m : m + dwell] = row
                m += dwell
            for m in range(WINDOW_MINUTES - 1, feat.n_minutes):
                if feat.labels[m] == UNLABELED:
                    continue
                rows = tuple(int(choice[m - (n_instances - 1 - k)]) for k in range(n_instances))
                refs.append(BagRef(s, rows, m, int(feat.labels[m]), v))
    return refs


@pytest.fixture(scope="module")
def builder_feats():
    cfg = small_config(placements=("Hand", "Hips", "Torso"), minutes_per_session=40)
    features = [preprocess_session(s) for s in synth_generate(cfg, np.random.default_rng(23))]
    features[0].labels[[11, 12, 20, 39]] = UNLABELED  # unlabeled targets, first and last included
    features[1].labels[:5] = UNLABELED  # unlabeled minutes in a window's history only
    return features


def _ref_types(refs):
    return {(type(r.session), type(r.target), type(r.label), type(r.stream)) for r in refs} | {
        type(row) for r in refs for row in r.placement_rows
    }


class TestBagBuilderOracle:
    @pytest.mark.parametrize("n_instances", [1, 3, 5, 12])
    @pytest.mark.parametrize("placement", [None, "Hips"])
    def test_build_bags(self, builder_feats, placement, n_instances):
        refs = build_bags(builder_feats, placement=placement, n_instances=n_instances).refs
        assert refs and refs == reference_build_bags(builder_feats, placement, n_instances)
        assert _ref_types(refs) == {(int, int, int, int), int}

    @pytest.mark.parametrize("placement", [None, "Torso"])
    def test_build_windows(self, builder_feats, placement):
        refs = build_windows(builder_feats, placement=placement).refs
        assert refs and refs == reference_build_windows(builder_feats, placement)
        assert _ref_types(refs) == {(int, int, int, int), int}

    @pytest.mark.parametrize("n_instances", [1, 3, 5, 12])
    @pytest.mark.parametrize("dwell_mean", [2.0, np.inf])
    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_mixed_streams(self, builder_feats, n_streams, dwell_mean, n_instances):
        got = mixed_streams(builder_feats, n_streams, np.random.default_rng(8), dwell_mean, n_instances).refs
        expected = reference_mixed_streams(builder_feats, n_streams, np.random.default_rng(8), dwell_mean, n_instances)
        assert got and got == expected
        assert _ref_types(got) == {(int, int, int, int), int}


@pytest.fixture(scope="module")
def feats():
    cfg = small_config(n_users=3, sessions_per_user=2, minutes_per_session=200, dwell_mean_minutes=20.0)
    return [preprocess_session(s) for s in synth_generate(cfg, np.random.default_rng(17))]


class TestSplits:

    def test_one_fold_per_user(self, feats):
        folds = loso_folds(feats, seed=0)
        assert [f.test_user for f in folds] == ["user1", "user2", "user3"]

    def test_single_user_raises(self, feats):
        with pytest.raises(ValueError):
            loso_folds(feats[:1], seed=0)

    def test_streams_are_single_label_and_capped(self, feats):
        for stream in label_streams(feats):
            labels = feats[stream.session].labels[stream.start : stream.stop]
            assert len(set(labels.tolist())) == 1
            assert stream.minutes <= 30

    def test_no_test_user_leakage(self, feats):
        bags = build_bags(feats)
        for fold in loso_folds(feats, seed=1):
            train_idx, val_idx, test_idx = split_bags(bags, fold)
            users = [feats[r.session].user for r in bags.refs]
            assert not any(users[i] == fold.test_user for i in np.concatenate([train_idx, val_idx]))
            assert all(users[i] == fold.test_user for i in test_idx)

    def test_train_val_window_intervals_disjoint(self, feats):
        bags = build_bags(feats)
        fold = loso_folds(feats, seed=2)[0]
        train_idx, val_idx, _ = split_bags(bags, fold)

        def spans(indices):
            return {
                (bags.refs[i].session, m)
                for i in indices
                for m in range(bags.refs[i].target - 11, bags.refs[i].target + 1)
            }

        assert not (spans(train_idx) & spans(val_idx))
        assert len(train_idx) > 0 and len(val_idx) > 0

    def test_validation_class_distribution_close_to_training(self, feats):
        # distribution of the realized stream split, per class, in minutes
        for seed in range(5):
            for fold in loso_folds(feats, seed=seed):
                train_minutes = np.zeros(8)
                val_minutes = np.zeros(8)
                for s in fold.train_streams:
                    train_minutes[s.label] += s.minutes
                for s in fold.val_streams:
                    val_minutes[s.label] += s.minutes
                diff = np.abs(train_minutes / train_minutes.sum() - val_minutes / val_minutes.sum())
                assert diff.max() <= 0.05 + 1e-9

    def test_validation_fraction_near_twenty_percent(self, feats):
        fold = loso_folds(feats, seed=0)[0]
        val = sum(s.minutes for s in fold.val_streams)
        train = sum(s.minutes for s in fold.train_streams)
        assert 0.12 <= val / (train + val) <= 0.30


def write_shl_tree(root, users=("User1", "User2"), minutes=2, rate=100):
    """Fabricate a miniature SHL-preview layout."""
    rng = np.random.default_rng(0)
    rows = minutes * 60 * rate
    for u, user in enumerate(users):
        rec = root / user / "220617"
        rec.mkdir(parents=True)
        t_ms = (np.arange(rows) * (1000 / rate)).astype(np.int64)
        label_col = np.full(rows, 1 + u)
        np.savetxt(rec / "Label.txt", np.column_stack([t_ms, label_col]), fmt="%d")
        for placement in ("Bag", "Hand", "Hips", "Torso"):
            if user == "User2" and placement == "Hand":
                continue  # exercise the missing-placement path
            acc = rng.normal(size=(rows, 3)) + [0.0, 0.0, 9.81]
            extra = rng.normal(size=(rows, 2))  # unused trailing columns
            np.savetxt(rec / f"{placement}_Motion.txt", np.column_stack([t_ms, acc, extra]), fmt="%.6f")
        n_fix = minutes * 60
        t_loc = (np.arange(n_fix) * 1000).astype(np.int64)
        lat = 45.0 + 1e-5 * np.arange(n_fix)
        lon = 9.0 + 1e-5 * np.arange(n_fix)
        loc = np.column_stack([t_loc, np.zeros(n_fix), np.full(n_fix, 5.0), lat, lon, np.zeros(n_fix)])
        np.savetxt(rec / "Location.txt", loc, fmt="%.6f")


class TestIngest:
    def test_parses_sessions_and_counts(self, tmp_path):
        write_shl_tree(tmp_path)
        sessions = ingest(tmp_path)
        assert len(sessions) == 2
        report = ingest_report(sessions)
        assert report["accel_frames_per_placement"]["Bag"] == 4
        assert report["labels"] == 4
        assert "User2/220617:Hand" in report["missing_placements"]
        # 100 Hz decimated to 10 Hz, one minute = 600 samples
        assert sessions[0].accel["Hips"].shape == (2 * 600, 3)

    def test_block_mean_guards_decimation(self, tmp_path):
        write_shl_tree(tmp_path, users=("User1",), minutes=1)
        session = ingest(tmp_path)[0]
        # constant gravity on z survives averaging exactly
        assert abs(session.accel["Bag"][:, 2].mean() - 9.81) < 0.05

    def test_location_decimated_to_one_per_minute(self, tmp_path):
        write_shl_tree(tmp_path, users=("User1",), minutes=2)
        session = ingest(tmp_path)[0]
        assert len(session.location.times) == 2
        assert np.all(np.diff(session.location.times) == 60.0)

    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(ValueError):
            ingest(tmp_path / "nothing")

    @pytest.mark.parametrize("rate", [64, 5, 0, 15.5, float("nan")])
    def test_rate_not_a_whole_multiple_of_10_hz_raises(self, tmp_path, rate):
        # 64 Hz would block-average 6 rows into a 10.67 Hz stream labeled 10 Hz; 5 Hz
        # would divide by a zero factor
        write_shl_tree(tmp_path, users=("User1",), minutes=1, rate=64)
        with pytest.raises(ValueError, match=f"accel_rate_in={rate} Hz is not a whole multiple of 10 Hz"):
            ingest(tmp_path, accel_rate_in=rate)

    def test_round_trip_preserves_bags(self, tmp_path):
        write_shl_tree(tmp_path)
        sessions = ingest(tmp_path)
        path = tmp_path / "sessions.npz"
        save_sessions(path, sessions)
        reloaded = load_sessions(path)
        bags_a = build_bags([preprocess_session(s) for s in sessions])
        bags_b = build_bags([preprocess_session(s) for s in reloaded])
        assert bags_a.refs == bags_b.refs
        if len(bags_a):
            a = bags_a.batch(np.arange(len(bags_a)))
            b = bags_b.batch(np.arange(len(bags_b)))
            np.testing.assert_array_equal(a["acc"], b["acc"])

    def test_custom_column_map(self, tmp_path):
        rec = tmp_path / "U" / "r1"
        rec.mkdir(parents=True)
        rate, rows = 10, 600 * 2
        t_ms = (np.arange(rows) * 100).astype(np.int64)
        rng = np.random.default_rng(1)
        pad = np.zeros(rows)
        # generic columnar export: time in column 3, label in column 1
        np.savetxt(rec / "Label.txt", np.column_stack([pad, np.full(rows, 2), pad, t_ms]), fmt="%d")
        acc = rng.normal(size=(rows, 3))
        np.savetxt(rec / "Hips_Motion.txt", np.column_stack([acc[:, ::-1], t_ms]), fmt="%.6f")
        mapping = ColumnMap(time=3, acc=(2, 1, 0))
        sessions = ingest(tmp_path, column_map=mapping, accel_rate_in=rate, placements=("Hips",))
        np.testing.assert_allclose(sessions[0].accel["Hips"], acc[: len(sessions[0].accel["Hips"])], atol=1e-6)


def test_archive_readers_name_the_file_and_a_missing_entry(tmp_path):
    sessions = synth_generate(small_config(minutes_per_session=20), np.random.default_rng(18))
    path = tmp_path / "sessions.npz"
    name = re.escape(str(path))
    save_sessions(path, sessions)
    with pytest.raises(ValueError, match=rf"^{name}: not a features archive$"):
        load_features(path)
    arrays, meta = load_arrays(path)
    del arrays["session1/loc/lats"]
    save_arrays(path, arrays, meta=meta)
    with pytest.raises(ValueError, match=rf"^{name}: missing array 'session1/loc/lats'$"):
        load_sessions(path)
    save_arrays(path, arrays, meta={"kind": "sessions"})
    with pytest.raises(ValueError, match=rf"^{name}: missing metadata field 'sessions'$"):
        load_sessions(path)
    with pytest.raises(ValueError, match=rf"^{name}: not a model archive$"):
        load_arrays(path, "model")
    # without a kind any archive reads, and membership tests and .get still answer for absent entries
    arrays, meta = load_arrays(path)
    assert "session1/loc/lats" not in arrays and arrays.get("x") is None and meta.get("config") is None


def test_feature_cache_round_trip(tmp_path):
    sessions = synth_generate(small_config(minutes_per_session=30), np.random.default_rng(18))
    feats = [preprocess_session(s) for s in sessions]
    path = tmp_path / "features.npz"
    save_features(path, feats)
    reloaded = load_features(path)
    assert len(reloaded) == len(feats)
    np.testing.assert_array_equal(reloaded[0].spectrograms, feats[0].spectrograms)
    np.testing.assert_array_equal(reloaded[0].labels, feats[0].labels)
    assert reloaded[0].placements == feats[0].placements


def test_spectrograms_are_float32_from_preprocessing_to_the_batch():
    features = [preprocess_session(s) for s in synth_generate(small_config(), np.random.default_rng(20))]
    assert all(f.spectrograms.dtype == np.float32 for f in features)
    assert all(f.loc_matrix.dtype == f.loc_scalars.dtype == f.loc_avail.dtype == np.float64 for f in features)
    bags = build_bags(features)
    for rng in (None, np.random.default_rng(0)):
        batch = bags.batch(np.arange(8), augment_rng=rng)
        assert batch["acc"].dtype == np.float32
        assert batch["loc_seq"].dtype == batch["loc_scalars"].dtype == np.float64


def test_float64_feature_cache_loads_to_the_float32_bytes(tmp_path):
    # A cache written before spectrograms were float32 holds each float64 image;
    # it must load to the bytes of a cache of the same sessions written now.
    sessions = synth_generate(small_config(minutes_per_session=20), np.random.default_rng(21))
    new, old = tmp_path / "features.npz", tmp_path / "features64.npz"
    save_features(new, [preprocess_session(s) for s in sessions])
    arrays, meta = load_arrays(new)
    bands = band_table()
    for i, session in enumerate(sessions):
        specs64 = np.stack(
            [
                [
                    spectrogram(magnitude_jerk(stream[m * WINDOW_SAMPLES : (m + 1) * WINDOW_SAMPLES]), bands)
                    for m in range(session.n_minutes)
                ]
                for stream in (session.accel[p] for p in sorted(session.accel))
            ]
        )
        arrays[f"s{i}/spectrograms"] = specs64
    save_arrays(old, arrays, meta=meta)
    assert new.stat().st_size < 0.6 * old.stat().st_size
    for a, b in zip(load_features(old), load_features(new), strict=True):
        assert (a.user, a.session_id, a.placements) == (b.user, b.session_id, b.placements)
        for name in ("spectrograms", "loc_matrix", "loc_scalars", "loc_avail", "labels"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.spectrograms.dtype == np.float32


@pytest.mark.parametrize("field", ["user", "session_id", "placements"])
def test_session_entry_without_a_field_names_the_file_and_the_field(tmp_path, field):
    sessions = synth_generate(small_config(minutes_per_session=20), np.random.default_rng(22))
    features = [preprocess_session(s) for s in sessions]
    for save, load, items in ((save_sessions, load_sessions, sessions), (save_features, load_features, features)):
        path = tmp_path / f"{load.__name__}.npz"
        save(path, items)
        arrays, meta = load_arrays(path)
        del meta["sessions"][1][field]
        save_arrays(path, arrays, meta=meta)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: missing sessions\[1\] field '{field}'$"):
            load(path)
