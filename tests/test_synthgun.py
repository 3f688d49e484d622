"""Synthesizer contracts: pulse shapes, class-conditional sampling,
scene composition, and dataset generation determinism, at any number of
synthesis threads, with the workers joined and bounded when a clip fails."""

import hashlib
import json
import threading

import numpy as np
import pytest

from gunshot_bench import dsp, models
from gunshot_bench import synthgun as sg
from gunshot_bench.errors import InvalidParam
from gunshot_bench.manifest import load_manifest
from gunshot_bench.wavio import write_wav


def spectral_peak_hz(samples, nfft=16384, rate=44100):
    spec = np.abs(np.fft.rfft(samples, nfft))
    return spec.argmax() * rate / nfft


class TestMuzzleBlast:
    def test_4ms_pulse_length_and_peak(self):
        x = sg.synth_impulse(1000.0, 4.0, 1.0)
        assert len(x) == 177
        peak = spectral_peak_hz(x)
        assert 794.0 <= peak <= 1260.0   # within 1/3 octave of 1 kHz

    def test_zero_amplitude(self):
        x = sg.synth_impulse(800.0, 5.0, 0.0)
        assert len(x) == int(np.ceil(0.005 * 44100))
        np.testing.assert_array_equal(x, 0.0)

    def test_shotgun_band(self):
        x = sg.synth_impulse(500.0, 10.0, 0.5)
        assert 100.0 <= spectral_peak_hz(x) <= 800.0

    def test_max_sample_equals_amplitude(self):
        x = sg.synth_impulse(1200.0, 4.0, 0.37)
        np.testing.assert_allclose(np.abs(x).max(), 0.37, atol=1e-12)


class TestShockwave:
    def test_300us_n_wave(self):
        x = sg.synth_shockwave(300.0, 1.0)
        assert len(x) == 13
        assert abs(x.mean()) < 1e-6

    def test_zero_amplitude(self):
        x = sg.synth_shockwave(300.0, 0.0)
        np.testing.assert_array_equal(x, 0.0)

    def test_200us_lower_bound(self):
        assert len(sg.synth_shockwave(200.0, 1.0)) in (8, 9)

    def test_shape_ramps_and_flips(self):
        x = sg.synth_shockwave(1000.0, 1.0)   # 44 samples, clear shape
        n = len(x)
        first, second = x[: n // 2 - 1], x[n // 2 + 1 :]
        assert np.all(np.diff(first) > 0) and np.all(np.diff(second) > 0)
        assert first[-1] > 0 > second[0]


def _count_pulses(samples, thresh_ratio=0.35):
    """Count well-separated peaks above a threshold."""
    env = np.abs(samples)
    thresh = env.max() * thresh_ratio
    above = env > thresh
    onsets = 0
    gap = 0
    min_gap = int(0.02 * 44100)
    armed = True
    for v in above:
        if v and armed:
            onsets += 1
            armed = False
            gap = 0
        elif not v:
            gap += 1
            if gap > min_gap:
                armed = True
    return onsets


class TestSynthShot:
    def test_shotgun_never_has_shockwave(self):
        spec = sg.DEFAULT_CLASS_SPECS[sg.FirearmClass.SHOTGUN]
        for i in range(200):
            event, _ = sg.synth_shot(spec, np.random.default_rng(i))
            assert not event.has_shockwave
            assert event.shockwave_duration_us is None

    def test_machine_gun_burst_spacing(self):
        spec = sg.DEFAULT_CLASS_SPECS[sg.FirearmClass.MACHINE_GUN]
        event, x = sg.synth_shot(spec, np.random.default_rng(3))
        count = event.burst_count
        rate = event.burst_rate_hz
        assert count >= 3
        pulses = _count_pulses(x)
        assert pulses >= 3
        # overall burst length must match count / rate within jitter slack
        expected = (count - 1) / rate
        assert abs(len(x) / 44100 - expected) / expected < 0.25

    def test_sampled_params_within_spec(self):
        for fc, spec in sg.DEFAULT_CLASS_SPECS.items():
            event, _ = sg.synth_shot(spec, np.random.default_rng(hash(fc.value) % 2**31))
            lo, hi = spec.peak_freq_range
            assert lo <= event.peak_freq <= hi
            lo, hi = spec.blast_duration_range
            assert lo <= event.blast_duration_ms <= hi
            if event.has_shockwave:
                assert 200.0 <= event.shockwave_duration_us <= 400.0

    def test_deterministic_given_seed(self):
        spec = sg.DEFAULT_CLASS_SPECS[sg.FirearmClass.RIFLE]
        a = sg.synth_shot(spec, np.random.default_rng(77))
        b = sg.synth_shot(spec, np.random.default_rng(77))
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()

    def test_pistol_blast_durations_within_band(self):
        spec = sg.DEFAULT_CLASS_SPECS[sg.FirearmClass.HANDGUN_PISTOL]
        durs = [sg.synth_shot(spec, np.random.default_rng([1, i]))[0].blast_duration_ms
                for i in range(1000)]
        assert min(durs) >= 3.0 and max(durs) <= 5.0


class TestComposeScene:
    def test_empty_scene_noise_rms_convention(self):
        cfg = sg.SceneConfig(snr_db=20.0)
        x = sg.compose_scene([], cfg, np.random.default_rng(0))
        rms = float(np.sqrt((x ** 2).mean()))
        # reference RMS 1.0 -> noise RMS = 10^(-snr/20)
        np.testing.assert_allclose(rms, 0.1, rtol=0.05)

    def test_high_snr_matches_dry_mix(self):
        pulse = sg.synth_impulse(800.0, 5.0, 0.5)
        cfg = sg.SceneConfig(snr_db=40.0)
        wet = sg.compose_scene([(0.1, pulse)], cfg, np.random.default_rng(1))
        dry = np.zeros(int(sg.CLIP_SECONDS * 44100))
        dry[4410 : 4410 + len(pulse)] = pulse
        # the first 0.5 s: the noise of the whole scene would grow with its length
        window = slice(0, 22050)
        corr = np.corrcoef(wet[window], dry[window])[0, 1]
        assert corr >= 0.99

    def test_inverse_distance_scaling(self):
        pulse = sg.synth_impulse(800.0, 5.0, 0.5)
        out = {}
        for d in (1.0, 2.0):
            cfg = sg.SceneConfig(snr_db=80.0, distance_m=d)
            out[d] = sg.compose_scene([(0.1, pulse)], cfg, np.random.default_rng(2))
        ratio = np.abs(out[2.0]).max() / np.abs(out[1.0]).max()
        np.testing.assert_allclose(ratio, 0.5, atol=1e-6)

    def test_overflow_raises(self):
        pulse = sg.synth_impulse(800.0, 5.0, 0.5)
        with pytest.raises(InvalidParam,
                           match=r"event at 1\.999s \(\+0\.005s\) exceeds 2\.000s scene"):
            sg.compose_scene([(1.999, pulse)], sg.SceneConfig(), np.random.default_rng(0))

    def test_reverb_adds_delayed_copies(self):
        pulse = sg.synth_impulse(800.0, 4.0, 0.5)
        cfg = sg.SceneConfig(snr_db=80.0, reverb_delay_ms=50.0, reverb_decay=0.5, reverb_taps=2)
        wet = sg.compose_scene([(0.05, pulse)], cfg, np.random.default_rng(3))
        env = np.abs(wet)
        base = int(0.05 * 44100)
        d = int(0.05 * 44100)
        peak0 = env[base : base + 300].max()
        peak1 = env[base + d : base + d + 300].max()
        np.testing.assert_allclose(peak1 / peak0, 0.5, atol=0.05)

    def test_non_finite_event_rejected(self):
        pulse = sg.synth_impulse(800.0, 5.0, 0.5)
        pulse[3] = np.nan
        with pytest.raises(InvalidParam):
            sg.compose_scene([(0.05, pulse)], sg.SceneConfig(),
                             np.random.default_rng(0))

    def test_clipping_guard(self):
        pulse = sg.synth_impulse(800.0, 5.0, 2.0)
        cfg = sg.SceneConfig(snr_db=60.0)
        out = sg.compose_scene([(0.05, pulse)], cfg, np.random.default_rng(4))
        assert np.abs(out).max() <= 0.99 + 1e-12


class TestGenerateDataset:
    def test_counts_and_manifest(self, tmp_path):
        counts = {fc: 4 for fc in sg.CLASS_ORDER}
        rows = sg.generate_dataset(counts, 4, True, tmp_path, seed=7)
        assert len(rows) == 24
        assert len(list((tmp_path / "wav").glob("*.wav"))) == 24
        loaded = load_manifest(tmp_path / "manifest.jsonl")
        assert loaded == rows
        assert sum(1 for r in loaded if r.detection_label == "gunshot") == 20

    def test_reference_mix_handgun_largest(self):
        counts = sg.reference_counts(0.05)
        assert max(counts, key=counts.get) == sg.FirearmClass.HANDGUN_PISTOL
        assert sum(counts.values()) == 173

    def test_same_seed_identical_bytes(self, tmp_path):
        counts = {sg.FirearmClass.RIFLE: 2, sg.FirearmClass.SHOTGUN: 2}
        sg.generate_dataset(counts, 2, False, tmp_path / "a", seed=5)
        sg.generate_dataset(counts, 2, False, tmp_path / "b", seed=5)
        man_a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
        man_b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
        assert man_a == man_b
        for wav in sorted((tmp_path / "a" / "wav").glob("*.wav")):
            twin = tmp_path / "b" / "wav" / wav.name
            assert wav.read_bytes() == twin.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        counts = {sg.FirearmClass.RIFLE: 1}
        sg.generate_dataset(counts, 0, True, tmp_path / "a", seed=1)
        sg.generate_dataset(counts, 0, True, tmp_path / "b", seed=2)
        a = next((tmp_path / "a" / "wav").glob("*.wav")).read_bytes()
        b = next((tmp_path / "b" / "wav").glob("*.wav")).read_bytes()
        assert a != b

    def test_negative_counts_rejected(self, tmp_path):
        with pytest.raises(InvalidParam):
            sg.generate_dataset({sg.FirearmClass.RIFLE: -1}, 0, True, tmp_path, 0)


def reference_generate_dataset(class_counts, negatives, clean, out_dir, seed):
    """generate_dataset written out as two loops, shots then negatives, each
    spelling out its draws from the clip's rng and building its manifest
    row by hand."""
    out_dir.joinpath("wav").mkdir(parents=True)
    rows = []
    idx = 0
    for fc in sg.CLASS_ORDER:
        for _ in range(class_counts.get(fc, 0)):
            rng = np.random.default_rng([seed, idx])
            _, shot = sg.synth_shot(sg.DEFAULT_CLASS_SPECS[fc], rng)
            cfg = sg._sample_scene_config(rng, clean)
            onset = sg._sample_onset(rng, len(shot) / sg.SAMPLE_RATE)
            scene = sg.compose_scene([(onset, shot)], cfg, rng)
            clip_id = f"{idx:05d}_{fc.value}"
            rel = f"wav/{clip_id}.wav"
            write_wav(out_dir / rel, scene, sg.SAMPLE_RATE)
            rows.append({"id": clip_id, "path": rel, "detection_label": "gunshot",
                         "class": fc.value})
            idx += 1
    for _ in range(negatives):
        rng = np.random.default_rng([seed, idx])
        cfg = sg._sample_scene_config(rng, clean)
        events = []
        if rng.random() < 2.0 / 3.0:
            impulse = sg._distractor(rng)
            events = [(sg._sample_onset(rng, len(impulse) / sg.SAMPLE_RATE), impulse)]
        scene = sg.compose_scene(events, cfg, rng)
        clip_id = f"{idx:05d}_background"
        rel = f"wav/{clip_id}.wav"
        write_wav(out_dir / rel, scene, sg.SAMPLE_RATE)
        rows.append({"id": clip_id, "path": rel, "detection_label": "no_gunshot",
                     "class": None})
        idx += 1
    with open(out_dir / "manifest.jsonl", "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("per_class,negatives,clean", [
    (2, 3, True),      # clean
    (2, 3, False),     # noisy
    (2, 0, True),      # guns only
    (0, 6, False),     # negatives only
], ids=["clean", "noisy", "guns-only", "negatives-only"])
def test_generate_dataset_matches_two_loop_reference(tmp_path, per_class, negatives, clean):
    counts = {fc: per_class for fc in sg.CLASS_ORDER}
    sg.generate_dataset(counts, negatives, clean, tmp_path / "new", seed=3)
    reference_generate_dataset(counts, negatives, clean, tmp_path / "ref", seed=3)
    names = sorted(p.relative_to(tmp_path / "ref") for p in (tmp_path / "ref").rglob("*.*"))
    assert len(names) == 5 * per_class + negatives + 1
    assert names == sorted(p.relative_to(tmp_path / "new")
                           for p in (tmp_path / "new").rglob("*.*"))
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name


def _cnn_window_s():
    """(start, end) in seconds of the frames that the CNN's center crop keeps
    of a CLIP_SECONDS clip: the start of the first kept frame's window and
    the end of the last's."""
    n = int(round(sg.CLIP_SECONDS * sg.SAMPLE_RATE))
    frames = 1 + (n - dsp.WIN_SAMPLES) // dsp.HOP_SAMPLES
    numbered = np.repeat(np.arange(frames, dtype=float)[:, None], dsp.N_MELS, axis=1)
    kept = models.JointCnnModel().prepare_input(numbered)[:, 0]
    first, last = int(kept[0]), int(kept[-1])
    np.testing.assert_array_equal(kept, np.arange(first, last + 1))    # a crop, no padding
    assert len(kept) == models.T_FIXED_DEFAULT
    return (first * dsp.HOP_SAMPLES / sg.SAMPLE_RATE,
            (last * dsp.HOP_SAMPLES + dsp.WIN_SAMPLES) / sg.SAMPLE_RATE)


@pytest.mark.parametrize("clean", [True, False], ids=["clean", "noisy"])
def test_every_shot_starts_in_the_frames_the_cnn_reads(clean):
    # a clip's label holds only if the CNN's crop sees its shot: replay shot
    # clips' draws in synth_clip's order and check where the first shot
    # lands, from the shockwave's start to the end of its muzzle blast
    start_s, end_s = _cnn_window_s()
    assert 0.24 < start_s < end_s < 1.75

    def check(onset, blast_end_s, what):
        assert start_s <= onset and onset + blast_end_s <= end_s, (what, onset)

    for k, spec in enumerate(sg.DEFAULT_CLASS_SPECS.values()):
        for i in range(30):
            rng = np.random.default_rng([k, i])
            event, shot = sg.synth_shot(spec, rng)
            sg._sample_scene_config(rng, clean)
            onset = sg._sample_onset(rng, len(shot) / sg.SAMPLE_RATE)
            check(onset, event.onset + event.blast_duration_ms / 1000.0, (spec.firearm, i))
    # the longest burst a machine gun fires (every shot, every gap 10% long,
    # the latest shockwave lead, the longest blast) does not fit between the
    # margins, so its onset is pinned to the first one
    spec = sg.DEFAULT_CLASS_SPECS[sg.FirearmClass.MACHINE_GUN]
    blast_end_s = 1.0e-3 + spec.blast_duration_range[1] / 1000.0
    longest_s = (spec.burst.count_range[1] - 1) * 1.1 / spec.burst.rate_hz_range[0] + blast_end_s
    assert longest_s > sg.CLIP_SECONDS - 2 * sg.ONSET_MARGIN_S
    onset = sg._sample_onset(np.random.default_rng(0), longest_s)
    check(onset, blast_end_s, "longest machine-gun burst")


# sha256 of every file generate_dataset writes for one clip of each class and
# three negatives at seed 11, recorded before the synthesizer moved from
# AudioClip objects to sample arrays; the two-loop reference above moves with
# the code, these do not. A manifest row holds no synthesis setting, so both
# mixes write the same manifest.
PINNED_SHA256 = {
    "clean": {
        "manifest.jsonl": "ff7e9250fde15e6a3fe986b0ab25b5c0f2defa96e8fc8c7eac8964bf5247e4c8",
        "wav/00000_rifle.wav": "8dd04c4d869bb8438fec0ec8ada798d69f8931001d4a695386372af8cfe8b5e1",
        "wav/00001_submachine_gun.wav":
            "6e8d5200521c7e90fd99a282fc52b7abae84d8d5e8f2e924453c1f165cba29dc",
        "wav/00002_handgun_pistol.wav":
            "a4665ba96e84e42e4e3baff77f5240659d9fd1abbf5deebaee643a63dc1379df",
        "wav/00003_machine_gun.wav":
            "8c842ce8439cdda5b9b0eb9041621fb3f9cadab24e83754f4e152c572d298af7",
        "wav/00004_shotgun.wav": "312206e453035675d7c12533c1f3fa9ef438649f285baadbfe0c60a6cc6535e8",
        "wav/00005_background.wav":
            "bf166cdc57ba434b3691f80ea21a6c8196525ed643a5b3fd0d6b5aad83dc9c56",
        "wav/00006_background.wav":
            "ada4edcad1e2da387463cd209555945e631d84290c1694947a3c2b7278ba7cba",
        "wav/00007_background.wav":
            "e0f2dcfe99e6470c0485a3cf188aa344688b8d2a6f14208805028169186667ba",
    },
    "noisy": {
        "manifest.jsonl": "ff7e9250fde15e6a3fe986b0ab25b5c0f2defa96e8fc8c7eac8964bf5247e4c8",
        "wav/00000_rifle.wav": "2f7d7cb64f4d422797565519546ae81950d6f60412265da70562952fd6dcd38f",
        "wav/00001_submachine_gun.wav":
            "1842dcb982311bf12a265f36a193581d53a74bf6b88b9e6eaa737dc7a39f53fb",
        "wav/00002_handgun_pistol.wav":
            "f34ad375acc9e85d8b28abfef0a222583200a4973e9ea819554bdb8effde308b",
        "wav/00003_machine_gun.wav":
            "ee8eaaa3015ed6915bbb4f8d5a32191fad40044548e6d30e24aef9df7d83fdc9",
        "wav/00004_shotgun.wav": "97b2d890ba905a56a2c50223e5afbab1fb9a6cc849afe8eb35c246c7efc17dd0",
        "wav/00005_background.wav":
            "4bde0caad6f51092facd9ef90c346b17658568503d9b8bfe4a4a5e5db9dbaa8b",
        "wav/00006_background.wav":
            "b7d54c8765e593a7aa3fc99d35d1700818fee2ecd1ba28109f0f5213d6e7788a",
        "wav/00007_background.wav":
            "1657b839ca3bf84270f4cb976009fcf9816479ac34c7829cff66884cb3a1040b",
    },
}


@pytest.mark.parametrize("mix", ["clean", "noisy"])
def test_generate_dataset_writes_pinned_bytes(tmp_path, mix):
    sg.generate_dataset({fc: 1 for fc in sg.CLASS_ORDER}, 3, mix == "clean", tmp_path, seed=11)
    found = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(tmp_path.rglob("*.*"))}
    assert found == PINNED_SHA256[mix]


@pytest.mark.parametrize("clean", [True, False], ids=["clean", "noisy"])
def test_generate_dataset_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch,
                                                                  clean):
    # two clips of each class, the bursts of the two automatic ones among
    # them, and four negatives: more clips than are ever in flight
    counts = {fc: 2 for fc in sg.CLASS_ORDER}
    for threads in (1, 2):
        monkeypatch.setattr(sg, "SYNTH_THREADS", threads)
        sg.generate_dataset(counts, 4, clean, tmp_path / str(threads), seed=4)
    one, two = tmp_path / "1", tmp_path / "2"
    names = sorted(p.relative_to(one) for p in one.rglob("*.*"))
    assert len(names) == 5 * 2 + 4 + 1
    assert names == sorted(p.relative_to(two) for p in two.rglob("*.*"))
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def _fail_the_nth_clip(monkeypatch, n):
    """Make synth_clip's n-th call raise InvalidParam; returns the list of
    calls, which the workers append to under one lock."""
    synth_clip, calls, lock = sg.synth_clip, [], threading.Lock()

    def failing(firearm, rng, clean):
        with lock:
            calls.append(firearm)
            nth = len(calls) == n
        if nth:
            raise InvalidParam(f"call {n} fails")
        return synth_clip(firearm, rng, clean)

    monkeypatch.setattr(sg, "synth_clip", failing)
    return calls


def test_generate_dataset_joins_its_workers(tmp_path, monkeypatch):
    before = threading.active_count()
    sg.generate_dataset({sg.FirearmClass.RIFLE: 6}, 6, True, tmp_path / "ok", seed=1)
    assert threading.active_count() == before
    _fail_the_nth_clip(monkeypatch, 5)
    with pytest.raises(InvalidParam, match="call 5 fails"):
        sg.generate_dataset({sg.FirearmClass.RIFLE: 6}, 6, True, tmp_path / "failed", seed=1)
    assert threading.active_count() == before


def test_generate_dataset_stops_within_the_in_flight_bound_after_a_failing_clip(tmp_path,
                                                                               monkeypatch):
    # the writer reads the failure when it reaches the failed clip; by then
    # fewer than 2 * SYNTH_THREADS later clips were submitted, and no more are
    calls = _fail_the_nth_clip(monkeypatch, 5)
    with pytest.raises(InvalidParam, match="call 5 fails"):
        sg.generate_dataset({}, 60, True, tmp_path, seed=1)
    assert 5 <= len(calls) <= 5 + 2 * sg.SYNTH_THREADS


class TestClassSpecs:
    def test_default_specs_validate(self):
        for spec in sg.DEFAULT_CLASS_SPECS.values():
            for lo, hi in (spec.peak_freq_range, spec.blast_duration_range,
                           spec.spl_at_1m_range):
                assert 0 < lo < hi, spec
            assert spec.peak_freq_range[1] < sg.SAMPLE_RATE / 2
            assert 0.0 <= spec.shockwave_prob <= 1.0
            if spec.burst is not None:
                lo, hi = spec.burst.rate_hz_range
                assert 0 < lo < hi and 1 <= spec.burst.count_range[0] <= spec.burst.count_range[1]

    def test_exactly_five_classes(self):
        assert len(sg.FirearmClass) == 5
        assert len(sg.DEFAULT_CLASS_SPECS) == 5

    def test_burst_only_on_automatic_classes(self):
        for fc, spec in sg.DEFAULT_CLASS_SPECS.items():
            has_burst = spec.burst is not None
            assert has_burst == (fc in (sg.FirearmClass.MACHINE_GUN,
                                        sg.FirearmClass.SUBMACHINE_GUN))

    def test_spl_amplitude_anchor(self):
        assert sg.spl_to_amplitude(165.0) == 1.0
        np.testing.assert_allclose(sg.spl_to_amplitude(159.0), 10 ** (-6 / 20))
