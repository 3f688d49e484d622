"""Minimal PCM WAV I/O: 16-bit signed little-endian, via the stdlib wave module.

Float samples live in [-1, 1] and map symmetrically onto the int16 grid
(scale 32767 both directions), so write -> read round-trips exactly on
already-quantized data.
"""

import wave

import numpy as np

PCM_SCALE = 32767.0


def float_to_pcm16(x):
    """Clamp to [-1, 1] and quantize to int16."""
    x = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
    return np.rint(x * PCM_SCALE).astype("<i2")


def pcm16_to_float(raw):
    return np.asarray(raw, dtype=np.float64) / PCM_SCALE


def write_wav(path, samples, sample_rate=44100):
    """Write a mono 16-bit PCM WAV file."""
    data = float_to_pcm16(samples)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(sample_rate))
        w.writeframes(data.tobytes())


def read_wav(source):
    """Read a 16-bit PCM WAV file, from a path or a binary file object.

    Returns (samples, sample_rate); samples are float64 in [-1, 1],
    shape (n,) for mono or (n, channels) for multi-channel files.
    """
    with wave.open(source if hasattr(source, "read") else str(source), "rb") as w:
        channels = w.getnchannels()
        width = w.getsampwidth()
        rate = w.getframerate()
        n = w.getnframes()
        raw = w.readframes(n)
    if width != 2:
        raise ValueError(f"only 16-bit PCM supported, got sample width {width}")
    data = np.frombuffer(raw, dtype="<i2")
    if channels > 1:
        data = data.reshape(-1, channels)
    return pcm16_to_float(data), rate
