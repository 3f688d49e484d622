"""WAV I/O contracts: exact round trips on the int16 grid, from a path or
from the file's bytes, clamping of out-of-range input, and refusal of
sample widths other than 16 bits."""

import io
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gunshot_bench.wavio import PCM_SCALE, float_to_pcm16, read_wav, write_wav

FIXTURE_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

pcm_values = st.lists(st.integers(-32767, 32767), max_size=2000)
rates = st.sampled_from([8000, 22050, 44100, 48000, 96000])


@FIXTURE_OK
@given(pcm=pcm_values, rate=rates)
def test_round_trip_exact_on_int16_grid(tmp_path, pcm, rate):
    samples = np.asarray(pcm, dtype=np.float64) / PCM_SCALE
    path = tmp_path / "clip.wav"
    write_wav(path, samples, rate)
    back, back_rate = read_wav(path)
    assert back_rate == rate
    assert back.shape == samples.shape
    np.testing.assert_array_equal(back, samples)
    from_bytes, _ = read_wav(io.BytesIO(path.read_bytes()))
    np.testing.assert_array_equal(from_bytes, samples)


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=200))
def test_float_to_pcm16_clamps(values):
    x = np.asarray(values)
    pcm = float_to_pcm16(x)
    assert pcm.dtype == np.dtype("<i2")
    assert np.all(np.abs(pcm.astype(np.int64)) <= 32767)
    np.testing.assert_array_equal(pcm[x >= 1.0], 32767)
    np.testing.assert_array_equal(pcm[x <= -1.0], -32767)
    inside = np.abs(x) < 1.0
    np.testing.assert_array_equal(pcm[inside], np.rint(x[inside] * PCM_SCALE))


@FIXTURE_OK
@given(frames=st.binary(max_size=256), channels=st.integers(1, 2))
def test_read_wav_rejects_8_bit_pcm(tmp_path, frames, channels):
    path = tmp_path / "u8.wav"
    frames = frames[: len(frames) // channels * channels]
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(1)
        w.setframerate(44100)
        w.writeframes(frames)
    with pytest.raises(ValueError, match="16-bit"):
        read_wav(path)
