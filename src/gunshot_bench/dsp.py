"""Feature extraction pipeline: normalization to 44.1 kHz mono 16-bit,
log-mel spectrograms (128 bands, 1024-sample window, 512 hop), waveform
autocorrelation, and bag-of-audio-words encoding.

Spectra come from numpy.fft: `stft` takes the real FFT of Hann-windowed
frames, and `autocorrelation` the real FFT of the clip zero-padded to the
next 2^a 3^b 5^c length. The resampler is a windowed-sinc polyphase filter.

The log-mel multiplies the power spectrum by the filterbank MEL_GROUP_BANDS
adjacent bands at a time, over only the bins those bands' triangles cover:
the 128 x 513 filterbank holds 1009 nonzero weights, so the groups do about
14x fewer multiply-adds than one dense product, and for a 2 s clip each
group's product is small enough that OpenBLAS runs it on the calling
thread, where a dense one is split over its threads and waits for them. `stft` and `mel_spectrogram`
take an optional frame selection, whose rows are the full spectrogram's
rows bit for bit: frames are transformed one by one, and a product row
gets the same bits at any matrix height of two rows or more.

Working sets stay bounded: k-means and BoAW encoding compute distances over
KMEANS_BLOCK descriptor rows at a time, and the resampler gathers its input
windows RESAMPLE_BLOCK outputs at a time. Beyond its n descriptors of
length d, a k-means fit then holds O(KMEANS_BLOCK x (d + k)) for its
distances at any n, O(n) for assignments, and one cluster's rows while it
averages them; beyond an n-sample clip, the resampler holds
O(n + RESAMPLE_BLOCK x taps). Rows are independent, so blocking changes no
value: a row of a matrix product gets the same bits at any matrix height.

Values the code can work out are not stored: a mel spectrogram has
SAMPLE_RATE / HOP_SAMPLES frames per second, and a BoAW codebook's word
count k and descriptor length d are the shape of its centroids. Feature
caches are checked when read: a bad magic, a header that does not parse or
holds no shape or version, another version, or a payload that does not hold
the shape raises MalformedFile naming the file.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, MalformedFile, UnsupportedFormat
from .manifest import read_json
from .synthgun import SAMPLE_RATE, AudioClip
from .wavio import float_to_pcm16, pcm16_to_float

WIN_SAMPLES = 1024          # ~23.2 ms at 44.1 kHz
HOP_SAMPLES = 512           # ~11.6 ms
N_MELS = 128
LOG_EPS = 1e-10

FEATURE_MAGIC = b"GSBF"
FEATURE_VERSION = 1


# ---------------------------------------------------------------------------
# FFT (power-of-two lengths, batched over leading axes)
# ---------------------------------------------------------------------------

def _pow2_last_axis(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise InvalidParam(f"FFT length must be a power of two, got {n}")
    return x


def fft(x):
    """Forward DFT of the last axis (length must be a power of two)."""
    return np.fft.fft(_pow2_last_axis(x))


def ifft(x):
    """Inverse DFT of the last axis."""
    return np.fft.ifft(_pow2_last_axis(x))


def _fft_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT splits into its
    fastest radices."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:    # p35 times the smallest power of two >= n / p35
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def hann_window(n):
    """The periodic n-point Hann window, computed once per n (read-only)."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


def frame_count(n):
    """T = 1 + (n - WIN_SAMPLES) // HOP_SAMPLES, the frames of an n-sample
    clip; UnsupportedFormat if n is under one window."""
    if n < WIN_SAMPLES:
        raise UnsupportedFormat(f"need at least {WIN_SAMPLES} samples, got {n}")
    return 1 + (n - WIN_SAMPLES) // HOP_SAMPLES


def stft(clip, frames=None):
    """Hann-windowed one-sided spectrum, complex [T, WIN_SAMPLES//2 + 1], of
    the frame_count(n) frames of an n-sample clip; given `frames` (indices
    into those T), only those rows, in that order, with the same bits."""
    x = np.asarray(clip.samples if isinstance(clip, AudioClip) else clip, dtype=np.float64)
    if x.ndim != 1:
        raise UnsupportedFormat("stft expects a mono clip")
    frame_count(len(x))    # refuses a clip under one window
    windows = np.lib.stride_tricks.sliding_window_view(x, WIN_SAMPLES)[::HOP_SAMPLES]
    if frames is not None:
        windows = windows[frames]
    return np.fft.rfft(windows * hann_window(WIN_SAMPLES))


# ---------------------------------------------------------------------------
# mel filterbank
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass
class MelFilterbank:
    weights: np.ndarray       # [N_MELS, WIN_SAMPLES//2 + 1]


@functools.lru_cache(maxsize=1)
def default_filterbank():
    """N_MELS triangular filters over the WIN_SAMPLES-point spectrum, with
    centers uniformly spaced on the mel scale from 0 Hz to Nyquist.

    Each triangle is scaled to unit area (in Hz), so broadband noise maps to
    a roughly flat mel vector.
    """
    pts = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))
    bins = np.arange(WIN_SAMPLES // 2 + 1) * (SAMPLE_RATE / WIN_SAMPLES)
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rise = (bins[None, :] - lo) / (ctr - lo)
    fall = (hi - bins[None, :]) / (hi - ctr)
    weights = np.maximum(0.0, np.minimum(rise, fall))
    weights *= 2.0 / (hi - lo)
    return MelFilterbank(weights)


# ---------------------------------------------------------------------------
# mel spectrogram
# ---------------------------------------------------------------------------

@dataclass
class MelSpectrogram:
    frames: np.ndarray        # [T, n_mels] log energies, one frame per HOP_SAMPLES


MEL_GROUP_BANDS = 8    # adjacent mel bands per filterbank product in mel_spectrogram


@functools.lru_cache(maxsize=1)
def _filterbank_groups():
    """(first band, first bin, weights [bins, bands]) of each group of
    MEL_GROUP_BANDS adjacent bands of the default filterbank: the group's
    weights over the bins from its first to its last nonzero one, computed
    once (read-only). A band with no nonzero bin keeps its zero column."""
    weights = default_filterbank().weights
    groups = []
    for band in range(0, N_MELS, MEL_GROUP_BANDS):
        block = weights[band : band + MEL_GROUP_BANDS]
        covered = np.flatnonzero(block.any(axis=0))
        lo, hi = covered[0], covered[-1] + 1
        w = np.ascontiguousarray(block[:, lo:hi].T)
        w.flags.writeable = False
        groups.append((band, lo, w))
    return tuple(groups)


def _filterbank_product(power):
    """power [T, WIN_SAMPLES//2 + 1] @ default_filterbank().weights.T, one
    band group at a time. A single row is computed as two, because numpy
    sends a one-row product to BLAS's gemv, which sums in another order
    than the gemm that computes every taller one."""
    rows = power if len(power) != 1 else np.repeat(power, 2, axis=0)
    mel = np.empty((len(rows), N_MELS))
    for band, lo, w in _filterbank_groups():
        np.matmul(rows[:, lo : lo + len(w)], w, out=mel[:, band : band + w.shape[1]])
    return mel[: len(power)]


def mel_spectrogram(clip, frames=None):
    """Log-scaled mel spectrogram: power spectrum x the default filterbank,
    then log(x + eps). Given `frames` (indices into the clip's frames), only
    those rows, in that order, bit for bit the full spectrogram's rows."""
    if isinstance(clip, AudioClip) and clip.sample_rate != SAMPLE_RATE:
        raise InvalidParam(f"expected a {SAMPLE_RATE} Hz clip, got {clip.sample_rate}")
    spec = stft(clip, frames)
    mel = _filterbank_product(spec.real**2 + spec.imag**2)
    return MelSpectrogram(np.log(mel + LOG_EPS))


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def autocorrelation(clip, max_lag):
    """Biased autocorrelation r[l] = sum_n x[n]x[n+l] / N, scaled so r[0] = 1
    when the clip has energy. Computed via the FFT for speed."""
    x = np.asarray(clip.samples if isinstance(clip, AudioClip) else clip, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise InvalidParam("empty clip")
    if not 0 <= max_lag < n:
        raise InvalidParam(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    nfft = _fft_len(n + max_lag + 1)
    spec = np.fft.rfft(x, nfft)
    r = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1] / n
    if r[0] > 0:
        r = r / r[0]
    return r


# ---------------------------------------------------------------------------
# bag of audio words
# ---------------------------------------------------------------------------

@dataclass
class BoawCodebook:
    centroids: np.ndarray            # [k, d]
    inertia_history: list = field(default_factory=list)


KMEANS_BLOCK = 1024    # descriptor rows per distance block in kmeans_fit and boaw_encode


def _nearest(x, c):
    """(index, squared distance) of each row's nearest centroid, ties to the
    lowest index, computed KMEANS_BLOCK rows at a time."""
    cc = (c * c).sum(axis=1)
    assign = np.empty(len(x), dtype=np.intp)
    dmin = np.empty(len(x))
    for i in range(0, len(x), KMEANS_BLOCK):
        sl = slice(i, i + KMEANS_BLOCK)
        xb = x[sl]
        d2 = np.maximum((xb * xb).sum(axis=1)[:, None] + cc[None, :] - 2.0 * (xb @ c.T), 0.0)
        assign[sl] = d2.argmin(axis=1)
        dmin[sl] = d2.min(axis=1)
    return assign, dmin


def kmeans_fit(descriptors, k, iters=50, seed=0):
    """Lloyd's algorithm with k-means++ seeding; deterministic for a fixed seed.

    Ties in assignment go to the lowest centroid index; empty clusters keep
    their previous centroid. inertia_history records the total squared
    distance after each iteration (non-increasing).
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidParam("descriptors must be [n, d]")
    n, d = x.shape
    if k < 2:
        raise InvalidParam("k must be >= 2")
    if n < k:
        raise InvalidParam(f"{n} descriptors for k={k}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, d))
    centroids[0] = x[rng.integers(n)]
    _, d2 = _nearest(x, centroids[:1])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = x[idx]
        for j in range(0, n, KMEANS_BLOCK):
            sl = slice(j, j + KMEANS_BLOCK)
            np.minimum(d2[sl], ((x[sl] - centroids[i]) ** 2).sum(axis=1), out=d2[sl])

    assign, _ = _nearest(x, centroids)
    history = []
    for _ in range(max(1, iters)):
        order = np.argsort(assign, kind="stable")    # each cluster's rows in index order
        for c, rows in enumerate(np.split(order, np.searchsorted(assign[order], np.arange(1, k)))):
            if len(rows):
                centroids[c] = x[rows].mean(axis=0)
        new_assign, dmin = _nearest(x, centroids)
        history.append(float(dmin.sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return BoawCodebook(centroids, history)


def boaw_encode(mel, codebook):
    """Histogram of nearest-centroid assignments over frames, L1-normalized."""
    frames = mel.frames if isinstance(mel, MelSpectrogram) else np.asarray(mel, dtype=np.float64)
    k, d = codebook.centroids.shape
    if frames.ndim != 2:
        raise InvalidParam("expected [T, d] frames")
    if frames.shape[1] != d:
        raise InvalidParam(f"frame dim {frames.shape[1]} != codebook dim {d}")
    assign, _ = _nearest(frames, codebook.centroids)
    hist = np.bincount(assign, minlength=k).astype(np.float64)
    return FeatureVector(hist / len(frames))


# ---------------------------------------------------------------------------
# summary features
# ---------------------------------------------------------------------------

@dataclass
class FeatureVector:
    values: np.ndarray


def mel_stats(mel):
    """Per-band mean and standard deviation over time, concatenated (2*n_mels)."""
    frames = mel.frames if isinstance(mel, MelSpectrogram) else np.asarray(mel, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise InvalidParam("expected a nonempty [T, n_mels] spectrogram")
    return FeatureVector(np.concatenate([frames.mean(axis=0), frames.std(axis=0)]))


# ---------------------------------------------------------------------------
# input normalization
# ---------------------------------------------------------------------------

def _hann_taper(t, width):
    w = np.zeros_like(t)
    inside = np.abs(t) < width
    w[inside] = 0.5 + 0.5 * np.cos(np.pi * t[inside] / width)
    return w


RESAMPLE_BLOCK = 1024    # output samples per window gather in resample
RESAMPLE_HALF_WIDTH = 32  # kernel half-width in zero crossings of its sinc


def resample(x, sr_in, sr_out):
    """Rational-rate windowed-sinc polyphase resampling.

    Each output sample is the dot product of one [2w+2] window of the input
    with one phase of the kernel. The windows, with their positions and
    phases, are gathered RESAMPLE_BLOCK outputs at a time, so the gathered
    matrix stays small for any clip length; rows are independent, so the
    blocks give the same values bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    g = math.gcd(int(sr_in), int(sr_out))
    up, down = sr_out // g, sr_in // g
    if up == down:
        return x.copy()
    fc = min(1.0, up / down)               # cutoff relative to input Nyquist
    w = int(np.ceil(RESAMPLE_HALF_WIDTH / fc))   # kernel half-width in input samples
    n_out = int(np.ceil(len(x) * up / down))

    offs = np.arange(-w, w + 2)
    t = (np.arange(up)[:, None] / up) - offs[None, :]
    kernel = fc * np.sinc(fc * t) * _hann_taper(t, w + 1)
    kernel /= kernel.sum(axis=1, keepdims=True)   # exact unit DC gain per phase

    xp = np.concatenate([np.zeros(w + 1), x, np.zeros(w + 2)])
    taps = offs + w + 1
    out = np.empty(n_out)
    for i in range(0, n_out, RESAMPLE_BLOCK):
        pos = np.arange(i, min(i + RESAMPLE_BLOCK, n_out)) * down
        windows = xp[(pos // up)[:, None] + taps]
        out[i : i + len(pos)] = (windows * kernel[pos % up]).sum(axis=1)
    return out


def quantize16(x):
    """Snap samples to the 16-bit grid of a WAV file and rescale to [-1, 1]."""
    return pcm16_to_float(float_to_pcm16(x))


def normalize_input(clip):
    """Normalize any supported clip to 44.1 kHz mono on the 16-bit grid."""
    x = np.asarray(clip.samples, dtype=np.float64)
    if not 8000 <= clip.sample_rate <= 192000:
        raise UnsupportedFormat(f"sample rate {clip.sample_rate} outside 8k..192k")
    if x.ndim == 2:
        if x.shape[1] != 2:
            raise UnsupportedFormat(f"expected 1 or 2 channels, got {x.shape[1]}")
        x = x.mean(axis=1)
    elif x.ndim != 1:
        raise UnsupportedFormat("samples must be [n] or [n, 2]")
    if clip.sample_rate != SAMPLE_RATE:
        x = resample(x, clip.sample_rate, SAMPLE_RATE)
    return AudioClip(quantize16(x), SAMPLE_RATE, clip.meta)


# ---------------------------------------------------------------------------
# feature cache files: JSON header + row-major float32 little-endian payload
# ---------------------------------------------------------------------------

def save_feature(path, values, header):
    """Write one feature cache file.

    header must carry at least {id, kind}; shape and version are filled in.
    """
    arr = np.asarray(values, dtype="<f4")
    hdr = dict(header)
    hdr["shape"] = list(arr.shape)
    hdr["version"] = FEATURE_VERSION
    blob = json.dumps(hdr, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(len(blob).to_bytes(4, "little"))
        f.write(blob)
        f.write(arr.tobytes())


def _read_header(f, path):
    """The header of the feature cache open as `f`, read up to the payload;
    MalformedFile naming `path` if the magic is wrong, the header does not
    parse or lacks shape or version, or the version is not FEATURE_VERSION."""
    if f.read(4) != FEATURE_MAGIC:
        raise MalformedFile(f"{path}: not a feature cache file")
    hlen = int.from_bytes(f.read(4), "little")
    hdr = read_json(path, {"shape": list, "version": int}, text=f.read(hlen))
    if hdr["version"] != FEATURE_VERSION:
        raise MalformedFile(f"{path}: unsupported feature version {hdr['version']}")
    return hdr


def load_feature(path):
    """Read a feature cache file -> (float32 array, header dict); also
    MalformedFile if the payload does not hold the header's shape."""
    with open(path, "rb") as f:
        hdr = _read_header(f, path)
        payload = f.read()
    shape = hdr["shape"]
    if not all(type(n) is int and n >= 0 for n in shape) or len(payload) != 4 * math.prod(shape):
        raise MalformedFile(f"{path}: {len(payload)} payload bytes do not hold shape {shape}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy(), hdr


def read_feature_header(path):
    """The checked header of a feature cache file; its payload is not read."""
    with open(path, "rb") as f:
        return _read_header(f, path)
