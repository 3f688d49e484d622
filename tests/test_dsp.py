"""DSP contracts: FFT against an independent reference, STFT framing,
mel filterbank geometry, spectrogram behavior (the band-grouped filterbank
product against the dense one, and a frame selection against the full
spectrogram's rows), autocorrelation, k-means,
BoAW encoding, summary stats, and input normalization; blocked k-means
and resampling give the whole-matrix bytes in a bounded working set."""

import math
import tracemalloc

import numpy as np
import pytest

from gunshot_bench import dsp
from gunshot_bench.errors import InvalidParam, MalformedFile, UnsupportedFormat
from gunshot_bench.synthgun import AudioClip, synth_impulse


class TestFft:
    @pytest.mark.parametrize("n", [2, 8, 64, 1024])
    def test_matches_reference(self, n):
        x = np.random.default_rng(n).normal(size=n)
        np.testing.assert_allclose(dsp.fft(x), np.fft.fft(x), atol=1e-9)

    def test_round_trip(self):
        for trial in range(5):
            x = np.random.default_rng(trial).normal(size=1024)
            back = dsp.ifft(dsp.fft(x)).real
            assert np.abs(back - x).max() / np.abs(x).max() < 1e-9

    def test_batched(self):
        x = np.random.default_rng(0).normal(size=(7, 256))
        np.testing.assert_allclose(dsp.fft(x), np.fft.fft(x, axis=-1), atol=1e-9)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidParam):
            dsp.fft(np.zeros(100))


class TestStft:
    def test_frame_count_2048(self):
        clip = AudioClip(np.random.default_rng(0).normal(size=2048))
        assert dsp.stft(clip).shape == (3, 513)

    def test_too_short(self):
        with pytest.raises(UnsupportedFormat, match="need at least 1024 samples, got 1000"):
            dsp.stft(AudioClip(np.zeros(1000)))

    def test_pure_tone_hits_exact_bin(self):
        # 1378.125 Hz = bin 32 * 44100 / 1024 exactly
        t = np.arange(4096) / 44100.0
        clip = AudioClip(np.sin(2 * np.pi * 1378.125 * t))
        spec = np.abs(dsp.stft(clip))
        assert np.all(spec.argmax(axis=1) == 32)

    def test_parseval(self):
        x = np.random.default_rng(1).normal(size=1024)
        windowed = x * dsp.hann_window(1024)
        spec = dsp.stft(AudioClip(x))[0]
        mags = np.abs(spec) ** 2
        e_freq = (mags[0] + mags[-1] + 2.0 * mags[1:-1].sum()) / 1024.0
        e_time = (windowed ** 2).sum()
        assert abs(e_freq - e_time) / e_time < 1e-6

    def test_frame_count_formula_random_lengths(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1024, 20000))
            clip = AudioClip(rng.normal(size=n))
            expected = 1 + (n - 1024) // 512
            assert dsp.stft(clip).shape[0] == expected


class TestMelScale:
    def test_zero(self):
        assert dsp.hz_to_mel(0.0) == 0.0

    def test_700hz(self):
        np.testing.assert_allclose(dsp.hz_to_mel(700.0), 781.17, atol=0.01)

    def test_round_trip(self):
        for f in (100.0, 1000.0, 10000.0):
            back = float(dsp.mel_to_hz(dsp.hz_to_mel(f)))
            assert abs(back - f) / f < 1e-9


class TestFilterbank:
    def setup_method(self):
        self.bank = dsp.default_filterbank()

    def test_shape(self):
        assert self.bank.weights.shape == (128, 513)

    def test_full_coverage(self):
        freqs = np.arange(513) * 44100 / 1024
        inner = (freqs > 0) & (freqs < 22050)
        coverage = self.bank.weights.sum(axis=0)
        assert np.all(coverage[inner] > 0)

    def test_rows_unimodal(self):
        for row in self.bank.weights:
            nz = np.flatnonzero(row)
            if len(nz) == 0:
                continue
            seg = row[nz[0] : nz[-1] + 1]
            d = np.diff(seg)
            # rises then falls: no increase after the first decrease
            falling = False
            for step in d:
                if step < -1e-15:
                    falling = True
                elif step > 1e-15:
                    assert not falling, "filter row is not unimodal"

    def test_adjacent_filters_overlap(self):
        c = self.bank.center_freqs
        assert np.all(np.diff(c) > 0)
        # triangle i spans (pt[i], pt[i+2]): neighbor peaks fall inside it
        pts = dsp.mel_to_hz(np.linspace(0, dsp.hz_to_mel(22050.0), 130))
        assert np.all(pts[2:-1] < pts[3:])  # each filter overlaps the next span


class TestMelSpectrogram:
    def test_silence_hits_floor(self):
        mel = dsp.mel_spectrogram(AudioClip(np.zeros(4096)))
        np.testing.assert_allclose(mel.frames, np.log(1e-10), atol=1e-12)

    def test_scaling_shifts_by_log4(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8192) * 0.2
        a = dsp.mel_spectrogram(AudioClip(x)).frames
        b = dsp.mel_spectrogram(AudioClip(2.0 * x)).frames
        strong = a > np.log(1e-10) + 8.0
        np.testing.assert_allclose((b - a)[strong], np.log(4.0), atol=1e-6)

    def test_shotgun_band_energy(self):
        blast = synth_impulse(500.0, 10.0, 0.8)
        padded = AudioClip(np.concatenate([np.zeros(256), blast,
                                           np.zeros(2048 - 256 - len(blast))]))
        mel = dsp.mel_spectrogram(padded)
        bank = dsp.default_filterbank()
        frame = mel.frames[np.unravel_index(mel.frames.argmax(), mel.frames.shape)[0]]
        center = bank.center_freqs[int(frame.argmax())]
        assert 100.0 <= center <= 800.0

    def test_translation_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6 * 512 + 1024)
        shifted = np.concatenate([np.zeros(512), x])
        a = dsp.mel_spectrogram(AudioClip(x)).frames
        b = dsp.mel_spectrogram(AudioClip(shifted)).frames
        np.testing.assert_allclose(b[1 : a.shape[0] + 1], a, atol=1e-6)

    def test_selected_frames_are_the_full_rows_bit_for_bit(self):
        rng = np.random.default_rng(5)
        clip = AudioClip(rng.normal(size=88200) * 0.3)
        full = dsp.mel_spectrogram(clip).frames
        for frames in (rng.permutation(len(full))[:32], [57], np.arange(len(full))):
            selected = dsp.mel_spectrogram(clip, frames).frames
            assert selected.tobytes() == full[frames].tobytes()

    def test_band_groups_hold_every_weight(self):
        weights = dsp.default_filterbank().weights
        groups = dsp._filterbank_groups()
        bands = [band + i for band, _, w in groups for i in range(w.shape[1])]
        assert bands == list(range(dsp.N_MELS))
        rebuilt = np.zeros_like(weights)
        for band, lo, w in groups:
            rebuilt[band : band + w.shape[1], lo : lo + len(w)] = w.T
        assert rebuilt.tobytes() == weights.tobytes()
        # band 0's triangle ends below the first bin past 0 Hz: it has no
        # nonzero weight, and its group still holds its zero column
        assert np.flatnonzero(~weights.any(axis=1)).tolist() == [0]

    def test_band_groups_give_the_dense_product(self):
        spec = dsp.stft(np.random.default_rng(6).normal(size=88200))
        power = spec.real**2 + spec.imag**2
        dense = power @ dsp.default_filterbank().weights.T
        for rows in (slice(None), slice(3, 4)):
            np.testing.assert_allclose(dsp._filterbank_product(power[rows]), dense[rows],
                                       rtol=1e-12, atol=0)


class TestAutocorrelation:
    def test_r0_is_one(self):
        clip = AudioClip(np.random.default_rng(0).normal(size=1000))
        r = dsp.autocorrelation(clip, 10)
        np.testing.assert_allclose(r[0], 1.0, atol=1e-12)

    def test_periodic_burst_peak_at_period(self):
        # impulse train at 10 Hz -> autocorrelation peak near lag 4410
        x = np.zeros(44100)
        for k in range(10):
            x[k * 4410] = 1.0
        r = dsp.autocorrelation(AudioClip(x), 6000)
        window = r[4000:5000]
        assert abs((4000 + int(window.argmax())) - 4410) <= 2
        assert window.max() > 0.5

    def test_white_noise_decorrelates(self):
        clip = AudioClip(np.random.default_rng(7).normal(size=44100))
        r = dsp.autocorrelation(clip, 44099)
        assert np.abs(r[1:]).max() < 0.1

    def test_matches_direct_oracle(self):
        x = np.random.default_rng(5).normal(size=300)
        r = dsp.autocorrelation(AudioClip(x), 20)
        direct = np.array([(x[: 300 - l] * x[l:]).sum() / 300 for l in range(21)])
        direct /= direct[0]
        np.testing.assert_allclose(r, direct, atol=1e-9)

    def test_zero_clip(self):
        r = dsp.autocorrelation(AudioClip(np.zeros(100)), 5)
        np.testing.assert_array_equal(r, np.zeros(6))

    def test_fft_length_is_the_next_5_smooth_number(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1
        for n in list(range(1, 3000)) + [88200 + 2048 + 1]:
            m = dsp._fft_len(n)
            assert m >= n and smooth(m) and not any(smooth(j) for j in range(n, m)), n
        assert dsp._fft_len(88200 + 2048 + 1) == 91125    # a 2 s clip at the default lag


class TestKmeans:
    def test_distinct_points_zero_inertia(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        cb = dsp.kmeans_fit(pts, k=4, seed=0)
        assert cb.inertia_history[-1] < 1e-12

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(200, 3)) * 0.05 + np.array([0.0, 0.0, 0.0])
        b = rng.normal(size=(200, 3)) * 0.05 + np.array([5.0, 5.0, 5.0])
        cb = dsp.kmeans_fit(np.vstack([a, b]), k=2, seed=1)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cb.centroids, key=lambda m: m[0])
        for m, g in zip(means, got):
            assert np.abs(m - g).max() < 0.1

    def test_inertia_monotone(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 8))
        cb = dsp.kmeans_fit(x, k=10, iters=30, seed=3)
        h = cb.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_deterministic(self):
        x = np.random.default_rng(4).normal(size=(100, 4))
        a = dsp.kmeans_fit(x, k=5, seed=9).centroids
        b = dsp.kmeans_fit(x, k=5, seed=9).centroids
        np.testing.assert_array_equal(a, b)

    def test_insufficient_data(self):
        with pytest.raises(InvalidParam, match="3 descriptors for k=4"):
            dsp.kmeans_fit(np.zeros((3, 2)), k=4)

    @pytest.mark.parametrize("n,distinct", [
        (5 * dsp.KMEANS_BLOCK // 2, None), (2 * dsp.KMEANS_BLOCK + 1, None),
        (2 * dsp.KMEANS_BLOCK + 1, 9),    # fewer distinct rows than clusters: some stay empty
    ], ids=[str(5 * dsp.KMEANS_BLOCK // 2), str(2 * dsp.KMEANS_BLOCK + 1), "empty-clusters"])
    def test_blocks_match_the_whole_matrix_fit(self, n, distinct):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 16))
        x[n // 2 :] = np.round(x[n // 2 :], 1)    # repeated rows give distance ties
        if distinct:
            x = x[rng.integers(distinct, size=n)]
        got = dsp.kmeans_fit(x, k=12, iters=20, seed=7)
        centroids, history = kmeans_whole_matrix(x, k=12, iters=20, seed=7)
        np.testing.assert_array_equal(got.centroids, centroids)
        assert got.inertia_history == history
        if distinct:
            assert np.bincount(dsp._nearest(x, got.centroids)[0], minlength=12).min() == 0

    def test_working_set_is_bounded_by_blocks(self):
        x = np.random.default_rng(0).normal(size=(5 * dsp.KMEANS_BLOCK, 128))
        tracemalloc.start()
        try:
            dsp.kmeans_fit(x, k=16, iters=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2, peak


def kmeans_whole_matrix(x, k, iters, seed):
    """kmeans_fit with every distance taken over the whole [n, k] matrix: the
    oracle for the blocked fit. Returns (centroids, inertia history)."""
    def sq_dists(x, c):
        return np.maximum((x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :]
                          - 2.0 * (x @ c.T), 0.0)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, d))
    centroids[0] = x[rng.integers(n)]
    d2 = sq_dists(x, centroids[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        centroids[i] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    assign = sq_dists(x, centroids).argmin(axis=1)
    history = []
    for _ in range(max(1, iters)):
        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
        dist = sq_dists(x, centroids)
        history.append(float(dist.min(axis=1).sum()))
        new_assign = dist.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids, history


class TestBoaw:
    def _codebook(self):
        rng = np.random.default_rng(0)
        return dsp.BoawCodebook(rng.normal(size=(4, 128)))

    def test_histogram_sums_to_one(self):
        cb = self._codebook()
        frames = np.random.default_rng(1).normal(size=(37, 128))
        hist = dsp.boaw_encode(frames, cb).values
        np.testing.assert_allclose(hist.sum(), 1.0, atol=1e-9)
        assert np.all(hist >= 0)

    def test_single_frame_one_hot(self):
        cb = self._codebook()
        hist = dsp.boaw_encode(cb.centroids[2:3], cb).values
        np.testing.assert_array_equal(hist, [0, 0, 1, 0])

    def test_all_frames_nearest_centroid_three(self):
        cb = self._codebook()
        frames = np.tile(cb.centroids[3], (11, 1)) + 1e-6
        hist = dsp.boaw_encode(frames, cb).values
        np.testing.assert_array_equal(hist, [0, 0, 0, 1])

    def test_matches_bruteforce_assignment(self):
        cb = self._codebook()
        frames = np.random.default_rng(2).normal(size=(50, 128))
        expect = np.zeros(4)
        for f in frames:
            d = ((cb.centroids - f) ** 2).sum(axis=1)
            expect[int(d.argmin())] += 1
        np.testing.assert_allclose(dsp.boaw_encode(frames, cb).values, expect / 50)

    def test_dimension_mismatch(self):
        cb = self._codebook()
        with pytest.raises(InvalidParam, match="frame dim 64 != codebook dim 128"):
            dsp.boaw_encode(np.zeros((5, 64)), cb)


class TestMelStats:
    def test_constant_spectrogram_zero_std(self):
        frames = np.full((10, 128), 3.0)
        v = dsp.mel_stats(frames).values
        assert v.shape == (256,)
        np.testing.assert_allclose(v[:128], 3.0)
        np.testing.assert_allclose(v[128:], 0.0)

    def test_single_frame(self):
        frame = np.random.default_rng(0).normal(size=(1, 128))
        v = dsp.mel_stats(frame).values
        np.testing.assert_allclose(v[:128], frame[0])
        np.testing.assert_allclose(v[128:], 0.0)

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(1).normal(size=(10, 128))
        v = dsp.mel_stats(x).values
        mean = x.sum(axis=0) / 10
        var = ((x - mean) ** 2).sum(axis=0) / 10
        np.testing.assert_allclose(v[:128], mean, atol=1e-9)
        np.testing.assert_allclose(v[128:], np.sqrt(var), atol=1e-9)


def resample_single_gather(x, sr_in, sr_out, half_width=32):
    """dsp.resample with every output's window gathered in one [n_out, 2w+2]
    matrix: the oracle for the blocked gather."""
    x = np.asarray(x, dtype=np.float64)
    g = math.gcd(int(sr_in), int(sr_out))
    up, down = sr_out // g, sr_in // g
    fc = min(1.0, up / down)
    w = int(np.ceil(half_width / fc))
    n_out = int(np.ceil(len(x) * up / down))
    pos = np.arange(n_out) * down
    n0 = pos // up
    phase = pos % up
    offs = np.arange(-w, w + 2)
    t = (np.arange(up)[:, None] / up) - offs[None, :]
    kernel = fc * np.sinc(fc * t) * dsp._hann_taper(t, w + 1)
    kernel /= kernel.sum(axis=1, keepdims=True)
    xp = np.concatenate([np.zeros(w + 1), x, np.zeros(w + 2)])
    windows = xp[n0[:, None] + (offs[None, :] + w + 1)]
    return (windows * kernel[phase]).sum(axis=1)


class TestResample:
    @staticmethod
    def _input_for(n_out, sr_in):
        # the shortest input that resamples to at least n_out samples at
        # 44.1 kHz (from 22.05 kHz only even counts are reachable)
        n = n_out * sr_in // dsp.SAMPLE_RATE
        while int(np.ceil(n * dsp.SAMPLE_RATE / sr_in)) < n_out:
            n += 1
        return np.random.default_rng(n_out).uniform(-1, 1, size=n)

    @pytest.mark.parametrize("sr_in", [48000, 22050, 96000])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_blocks_match_the_single_gather(self, sr_in, blocks, extra):
        n_out = blocks * dsp.RESAMPLE_BLOCK + extra
        x = self._input_for(n_out, sr_in)
        y = dsp.resample(x, sr_in, dsp.SAMPLE_RATE)
        assert len(y) - n_out in (0, 1)
        assert y.tobytes() == resample_single_gather(x, sr_in, dsp.SAMPLE_RATE).tobytes()

    @pytest.mark.parametrize("sr_in", [48000, 22050, 96000])
    def test_small_blocks_match_the_single_gather(self, sr_in, monkeypatch):
        monkeypatch.setattr(dsp, "RESAMPLE_BLOCK", 7)
        x = np.random.default_rng(5).uniform(-1, 1, size=1001)
        y = dsp.resample(x, sr_in, dsp.SAMPLE_RATE)
        assert y.tobytes() == resample_single_gather(x, sr_in, dsp.SAMPLE_RATE).tobytes()

    @pytest.mark.parametrize("sr_in", [8000, 22050, 48000, 96000])
    def test_same_bytes_at_any_block_size(self, sr_in, monkeypatch):
        x = np.random.default_rng(sr_in).uniform(-1, 1, size=int(1.1 * sr_in))
        outputs = []
        for block in (1024, 4096, 10**9):    # the last is one block
            monkeypatch.setattr(dsp, "RESAMPLE_BLOCK", block)
            outputs.append(dsp.resample(x, sr_in, dsp.SAMPLE_RATE).tobytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestNormalizeInput:
    def test_identity_path_only_quantizes(self):
        x = np.random.default_rng(0).uniform(-0.9, 0.9, size=5000)
        clip = dsp.normalize_input(AudioClip(x, 44100))
        assert clip.sample_rate == 44100
        assert np.abs(clip.samples - x).max() <= 0.5 / 32767 + 1e-12

    def test_upsample_doubles_length(self):
        n = 3001
        clip = dsp.normalize_input(AudioClip(np.zeros(n), 22050))
        assert abs(len(clip.samples) - 2 * n) <= 2

    def test_48k_sine_keeps_frequency(self):
        t = np.arange(24000) / 48000.0
        x = 0.7 * np.sin(2 * np.pi * 1000.0 * t)
        clip = dsp.normalize_input(AudioClip(x, 48000))
        y = clip.samples
        rising = np.flatnonzero((y[:-1] < 0) & (y[1:] >= 0))
        # average period between first and last crossing avoids edge bias
        span_s = (rising[-1] - rising[0]) / 44100.0
        freq = (len(rising) - 1) / span_s
        assert abs(freq - 1000.0) / 1000.0 < 0.001

    def test_stereo_averaged(self):
        x = np.stack([np.ones(1000), -np.ones(1000)], axis=1)
        clip = dsp.normalize_input(AudioClip(x, 44100))
        np.testing.assert_allclose(clip.samples, 0.0, atol=1e-12)

    def test_unsupported_channels(self):
        with pytest.raises(UnsupportedFormat):
            dsp.normalize_input(AudioClip(np.zeros((100, 3)), 44100))

    def test_unsupported_rate(self):
        with pytest.raises(UnsupportedFormat):
            dsp.normalize_input(AudioClip(np.zeros(100), 4000))

    def test_working_set_of_a_stereo_48k_clip(self):
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2 * 48000, 2))
        tracemalloc.start()
        try:
            dsp.normalize_input(AudioClip(x, 48000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes, peak

    def test_samples_on_16bit_grid(self):
        x = np.random.default_rng(1).uniform(-1, 1, 2000)
        clip = dsp.normalize_input(AudioClip(x, 44100))
        np.testing.assert_allclose(clip.samples * 32767, np.rint(clip.samples * 32767),
                                   atol=1e-9)


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.feat"
        values = np.random.default_rng(0).normal(size=(7, 128)).astype(np.float32)
        dsp.save_feature(path, values, {"id": "x", "kind": "mel", "source_hash": "abc"})
        loaded, hdr = dsp.load_feature(path)
        np.testing.assert_array_equal(loaded, values)
        assert hdr["id"] == "x" and hdr["kind"] == "mel"
        assert hdr["shape"] == [7, 128]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"nope")
        with pytest.raises(MalformedFile, match="not a feature cache file"):
            dsp.load_feature(path)

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "x.feat"
        dsp.save_feature(path, np.arange(6, dtype=np.float32).reshape(2, 3),
                         {"id": "x", "kind": "mel", "source_hash": "abc"})
        blob = path.read_bytes()
        return path, blob, 8 + int.from_bytes(blob[4:8], "little")

    @pytest.mark.parametrize("delta", [-24, -12, -4, -1, 4])
    def test_payload_not_of_the_header_shape(self, tmp_path, delta):
        # the [2, 3] payload is 24 bytes: cut short (all of it at -24) or long
        path, blob, _ = self._saved(tmp_path)
        path.write_bytes(blob[:delta] if delta < 0 else blob + bytes(delta))
        with pytest.raises(MalformedFile, match=f"{24 + delta} payload bytes do not hold shape"):
            dsp.load_feature(path)
        assert dsp.read_feature_header(path)["shape"] == [2, 3]   # the header alone passes

    @pytest.mark.parametrize("header,message", [
        (b'{"shape": [2, 3]', "Expecting"),
        (b'{"version": 1}', "missing key 'shape'"),
        (b'{"shape": [2, 3]}', "missing key 'version'"),
        (b'{"shape": [2, 3], "version": 2}', "unsupported feature version 2"),
        (b'{"shape": [2, "3"], "version": 1}', "do not hold shape"),
        (b'{"shape": [-2, -3], "version": 1}', "do not hold shape"),
    ])
    def test_header_that_fails_its_check(self, tmp_path, header, message):
        path, blob, header_end = self._saved(tmp_path)
        path.write_bytes(blob[:4] + len(header).to_bytes(4, "little") + header
                         + blob[header_end:])
        with pytest.raises(MalformedFile, match=message) as e:
            dsp.load_feature(path)
        assert str(e.value).startswith(f"{path}:")
