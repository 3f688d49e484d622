"""Correctness checks computed apart from the program.

Each check recomputes a result with its own code (numpy / scipy, or a
direct formula) and compares it with what the pipeline wrote or returned.
None of them compares against a stored copy of earlier output. A failed
check raises CheckFailed with a message naming what disagreed.
"""

import json
import wave

import numpy as np
from scipy.signal import get_window

LOGMEL_TOL = 1e-9          # float64 log-mel vs an rfft recomputation
CACHE_F32_TOL = 1e-4       # float32 feature caches vs the float64 reference
AUTOCORR_TOL = 1e-12       # float64 autocorrelation vs direct dot products
AP_TOL = 1e-12
# A band-limited resampler keeps the passband: after 44.1 kHz -> 48 kHz and
# back, the part of the signal below 90% of the 44.1 kHz Nyquist frequency
# must come back with an RMS error under 1% (-40 dB) of its RMS, plus the
# noise of the two 16-bit requantizations on the way (q / sqrt(12) each).
RESAMPLE_PASSBAND = 0.9
RESAMPLE_REL_RMS = 1e-2
RESAMPLE_QUANT_RMS = 2.0 / 32767.0 / np.sqrt(12.0)
RESAMPLE_EDGE = 256        # samples at each end where zero padding rings


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- files, read with the standard library alone ----------------------------

def read_pcm16(path):
    """(float samples [n] or [n, ch], rate) from a 16-bit PCM WAV file."""
    with wave.open(str(path), "rb") as w:
        require(w.getsampwidth() == 2, f"{path}: not 16-bit PCM")
        ch, rate = w.getnchannels(), w.getframerate()
        data = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    x = data.astype(np.float64) / 32767.0
    return (x.reshape(-1, ch) if ch > 1 else x), rate


def read_feature_cache(path):
    """(float32 values, header) of a feature cache: magic, u32 header
    length, JSON header, little-endian float32 payload."""
    blob = open(path, "rb").read()
    require(blob[:4] == b"GSBF", f"{path}: bad magic")
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8 : 8 + hlen])
    values = np.frombuffer(blob[8 + hlen :], dtype="<f4")
    return values.reshape(header["shape"]), header


# -- log-mel -----------------------------------------------------------------

def logmel_reference(x, weights, win=1024, hop=512, eps=1e-10):
    """Periodic-Hann framed power spectrum from numpy.fft.rfft, through the
    given mel filterbank weights [n_mels, win//2 + 1], then log(mel + eps)."""
    n_frames = 1 + (len(x) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    spec = np.fft.rfft(x[idx] * get_window("hann", win), axis=1)
    power = spec.real**2 + spec.imag**2
    return np.log(power @ weights.T + eps)


def check_logmel(clip_id, samples, program_frames, weights):
    ref = logmel_reference(samples, weights)
    require(program_frames.shape == ref.shape,
            f"log-mel {clip_id}: shape {program_frames.shape} != {ref.shape}")
    err = float(np.max(np.abs(program_frames - ref)))
    require(err <= LOGMEL_TOL, f"log-mel {clip_id}: max |diff| {err:.3g} > {LOGMEL_TOL}")
    return ref


def check_cached_frames(clip_id, cached, ref):
    err = float(np.max(np.abs(cached.astype(np.float64) - ref)))
    require(err <= CACHE_F32_TOL, f"mel cache {clip_id}: max |diff| {err:.3g}")


def check_melstats_cache(clip_id, cached, ref_frames):
    ref = np.concatenate([ref_frames.mean(axis=0), ref_frames.std(axis=0)])
    err = float(np.max(np.abs(cached.astype(np.float64) - ref)))
    require(err <= CACHE_F32_TOL, f"melstats cache {clip_id}: max |diff| {err:.3g}")


# -- autocorrelation -----------------------------------------------------------

def autocorr_reference(x, max_lag):
    """r[l] = sum_n x[n] x[n+l] / N by direct lagged dot products, / r[0]."""
    n = len(x)
    r = np.array([np.dot(x[: n - lag], x[lag:]) for lag in range(max_lag + 1)]) / n
    return r / r[0] if r[0] > 0 else r


def check_autocorr(clip_id, samples, program_r, cached_r):
    ref = autocorr_reference(samples, len(program_r) - 1)
    err = float(np.max(np.abs(program_r - ref)))
    require(err <= AUTOCORR_TOL, f"autocorr {clip_id}: max |diff| {err:.3g} > {AUTOCORR_TOL}")
    err = float(np.max(np.abs(cached_r.astype(np.float64) - ref)))
    require(err <= CACHE_F32_TOL, f"autocorr cache {clip_id}: max |diff| {err:.3g}")


# -- resampling ----------------------------------------------------------------

def _lowpass(x, keep):
    spec = np.fft.rfft(x)
    spec[int(len(spec) * keep):] = 0.0
    return np.fft.irfft(spec, len(x))


def check_resampled(clip_id, normalized, source):
    """normalized: the program's 44.1 kHz mono output for a 48 kHz stereo
    file made from `source` (44.1 kHz mono)."""
    n = min(len(normalized), len(source))
    require(abs(len(normalized) - len(source)) <= 1,
            f"resample {clip_id}: length {len(normalized)} vs source {len(source)}")
    a = _lowpass(normalized[:n], RESAMPLE_PASSBAND)[RESAMPLE_EDGE : n - RESAMPLE_EDGE]
    b = _lowpass(source[:n], RESAMPLE_PASSBAND)[RESAMPLE_EDGE : n - RESAMPLE_EDGE]
    rms = float(np.sqrt(np.mean(b * b)))
    err = float(np.sqrt(np.mean((a - b) ** 2)))
    require(rms > 0 and err <= RESAMPLE_REL_RMS * rms + RESAMPLE_QUANT_RMS,
            f"resample {clip_id}: passband RMS error {err:.3g} vs signal RMS {rms:.3g}")
    return err / rms


# -- scores, reports, histories --------------------------------------------------

def average_precision(scores, positive):
    """Mean over positives of precision at their rank; scores sorted
    descending, ties kept in input order. None without positives."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if positive[i]:
            hits += 1
            total += hits / rank
    return total / hits if hits else None


def check_report_ap(report, scores, true_class, class_names):
    """scores [n, K] from the inference pass on the test clips, in split order."""
    aps = {}
    for k, name in enumerate(class_names):
        aps[name] = average_precision(list(scores[:, k]), [c == k for c in true_class])
        got = report["ap_per_class"][name]
        require((got is None) == (aps[name] is None)
                and (got is None or abs(got - aps[name]) <= AP_TOL),
                f"AP {name}: report {got} != recomputed {aps[name]}")
    defined = [a for a in aps.values() if a is not None]
    m_ap = sum(defined) / len(defined)
    require(abs(report["mean_ap"] - m_ap) <= AP_TOL,
            f"mAP: report {report['mean_ap']} != recomputed {m_ap}")
    return m_ap


def check_confusions(report, true_class, n_classes):
    """Detection and overall-type confusions sum to the subset size with
    rows equal to the manifest label counts; the relevant-type confusion
    counts the detected true gunshots by class."""
    n = len(true_class)
    n_neg = sum(c is None for c in true_class)
    per_class = [sum(c == k for c in true_class) for k in range(n_classes)]
    det = np.array(report["detection"]["confusion"])
    require(det.sum() == n, f"detection confusion sums to {det.sum()}, subset has {n}")
    require(det.sum(axis=1).tolist() == [n_neg, n - n_neg],
            f"detection confusion rows {det.sum(axis=1).tolist()} != {[n_neg, n - n_neg]}")
    ovr = np.array(report["type_overall"]["confusion"])
    require(ovr.sum() == n, f"overall confusion sums to {ovr.sum()}, subset has {n}")
    require(ovr.sum(axis=1).tolist() == per_class + [n_neg],
            f"overall confusion rows {ovr.sum(axis=1).tolist()} != {per_class + [n_neg]}")
    rel = np.array(report["type_relevant"]["confusion"])
    detected = det[1, 1]
    require(rel.sum() == detected,
            f"relevant confusion sums to {rel.sum()}, {detected} gunshots detected")
    require(all(rel.sum(axis=1) <= np.array(per_class)), "relevant confusion row over support")


def chance_map(true_class, n_classes):
    """Expected AP of a random ranking is about the positive share: the
    mAP a classifier must beat."""
    n = len(true_class)
    shares = [sum(c == k for c in true_class) / n for k in range(n_classes)]
    defined = [s for s in shares if s > 0]
    return sum(defined) / len(defined)


def check_svm_history(history):
    for entry in history:
        obj = entry["objective"]
        require(all(b <= a for a, b in zip(obj, obj[1:])),
                f"SVM machine {entry['machine']}: objective history increases")


def check_cnn_history(history):
    first, last = history[0]["train_loss"], history[-1]["train_loss"]
    require(last < first, f"CNN train loss did not fall: {first} -> {last}")
