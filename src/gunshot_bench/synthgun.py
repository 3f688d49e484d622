"""Physically-motivated synthesis of labeled gunshot and background clips.

A shot is modeled as a muzzle blast (Friedlander pulse band-shaped around a
class-typical peak frequency) optionally preceded by a ballistic shockwave
(a ~200-400 microsecond N-wave); automatic weapons emit bursts. Scenes mix
events with comb-filter reverberation, 1/distance attenuation, and white
noise at a target SNR. `synth_clip` is the recipe for one dataset clip, a
shot scene or a background scene, and `generate_dataset` applies it to every
clip of a class mix. Generation is a pure function of (arguments, seed):
every clip derives its own RNG stream from (seed, clip index), so clips
synthesize on SYNTH_THREADS worker threads (numpy's Gaussian draw, most of a
clip's time, releases the GIL) while the calling thread writes them in plan
order, with the bytes of a one-thread run.

Every clip lasts CLIP_SECONDS. It and `models.T_FIXED_DEFAULT`, the frames
the CNN crops from a clip's log-mel, are two halves of one contract: the
crop sees every onset (ONSET_MARGIN_S), so a clip's label holds for what the
CNN reads. A test in tests/test_synthgun.py checks it.

Everything here works at SAMPLE_RATE on plain float64 sample arrays: the
pulse and shot synthesizers return one, `compose_scene` mixes
(onset seconds, samples) events into one, and `generate_dataset` writes
them as WAVs. `AudioClip` is the container of a clip read from disk, at its
own rate, for the features in `dsp`.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InvalidParam
from .manifest import GUNSHOT, NO_GUNSHOT, FirearmClass, ManifestRow, write_manifest
from .wavio import write_wav

SAMPLE_RATE = 44100
CLIP_SECONDS = 2.0    # every generated clip; see ONSET_MARGIN_S

# SPL -> linear amplitude anchor: 165 dB maps to 1.0 full scale.
SPL_REFERENCE_DB = 165.0

# acoustic ranges that overlap no firearm class band, for distractor impulses
THUMP_FREQ_RANGE = (30.0, 80.0)
CLICK_FREQ_RANGE = (4000.0, 12000.0)

BANDPASS_Q = 2.5    # quality factor of the band shaping of every impulse

SYNTH_THREADS = 2    # worker threads that synthesize clips in generate_dataset


@dataclass(frozen=True)
class BurstSpec:
    rate_hz_range: tuple      # shots per second
    count_range: tuple        # inclusive (min, max) shots per burst


@dataclass(frozen=True)
class FirearmClassSpec:
    firearm: FirearmClass
    peak_freq_range: tuple    # Hz
    blast_duration_range: tuple  # ms
    spl_at_1m_range: tuple    # dB
    shockwave_prob: float     # chance that a shot is supersonic
    burst: BurstSpec | None = None


# Typical acoustic characteristics per firearm category: spectral peak band,
# per-shot blast duration, source level at 1 m, and shockwave likelihood.
DEFAULT_CLASS_SPECS = {
    FirearmClass.RIFLE: FirearmClassSpec(
        FirearmClass.RIFLE, (200.0, 1500.0), (5.0, 8.0), (167.0, 171.0),
        0.9),
    FirearmClass.SUBMACHINE_GUN: FirearmClassSpec(
        FirearmClass.SUBMACHINE_GUN, (400.0, 2200.0), (3.0, 4.0), (160.0, 166.0),
        0.5, BurstSpec((12.0, 15.0), (3, 8))),
    FirearmClass.HANDGUN_PISTOL: FirearmClassSpec(
        FirearmClass.HANDGUN_PISTOL, (500.0, 2000.0), (3.0, 5.0), (159.0, 164.0),
        0.1),
    FirearmClass.MACHINE_GUN: FirearmClassSpec(
        FirearmClass.MACHINE_GUN, (300.0, 1800.0), (3.0, 5.0), (165.0, 170.0),
        0.9, BurstSpec((10.0, 12.0), (8, 15))),
    FirearmClass.SHOTGUN: FirearmClassSpec(
        FirearmClass.SHOTGUN, (100.0, 800.0), (8.0, 12.0), (161.0, 165.0),
        0.0),
}

# Reference recording-count mix used by the "paper-ratio" dataset preset.
REFERENCE_CLASS_MIX = {
    FirearmClass.RIFLE: 892,
    FirearmClass.SUBMACHINE_GUN: 522,
    FirearmClass.HANDGUN_PISTOL: 1105,
    FirearmClass.MACHINE_GUN: 543,
    FirearmClass.SHOTGUN: 396,
}


def spl_to_amplitude(spl_db):
    return float(10.0 ** ((spl_db - SPL_REFERENCE_DB) / 20.0))


@dataclass
class AudioClip:
    """A recorded clip: samples, [n] or [n, channels], at its own rate."""
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    meta: dict = field(default_factory=dict)


@dataclass
class ShotEvent:
    onset: float              # seconds, blast start within its clip
    firearm: FirearmClass
    peak_freq: float          # Hz
    blast_duration_ms: float
    amplitude: float          # linear
    has_shockwave: bool
    shockwave_duration_us: float | None = None
    burst_count: int = 1
    burst_rate_hz: float | None = None    # shots per second; None for one shot


@dataclass
class SceneConfig:
    duration_s: float = CLIP_SECONDS
    snr_db: float = 40.0
    reverb_delay_ms: float = 0.0
    reverb_decay: float = 0.0     # per-tap geometric factor, in [0, 1)
    reverb_taps: int = 0
    distance_m: float = 1.0       # >= 1 m


# ---------------------------------------------------------------------------
# waveform primitives
# ---------------------------------------------------------------------------

def _biquad_bandpass(x, center_hz):
    """Second-order IIR bandpass (direct form I), peak at center_hz."""
    w0 = 2.0 * np.pi * center_hz / SAMPLE_RATE
    alpha = np.sin(w0) / (2.0 * BANDPASS_Q)
    a0 = 1.0 + alpha
    b0, b1, b2 = alpha / a0, 0.0, -alpha / a0
    a1, a2 = -2.0 * np.cos(w0) / a0, (1.0 - alpha) / a0
    y = np.empty_like(x)
    x1 = x2 = y1 = y2 = 0.0
    for i, xi in enumerate(x):
        yi = b0 * xi + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        x2, x1 = x1, xi
        y2, y1 = y1, yi
        y[i] = yi
    return y


def synth_impulse(peak_freq, duration_ms, amplitude):
    """Band-shaped Friedlander pulse, for muzzle blasts and distractors alike:
    instant rise, exponential decay crossing zero once, band-shaped so the
    spectral peak lands within 1/3 octave of peak_freq. The samples have
    max |sample| = amplitude and length ceil(duration * rate)."""
    duration_s = duration_ms / 1000.0
    n = int(np.ceil(duration_s * SAMPLE_RATE))
    if amplitude == 0.0:
        return np.zeros(n)
    t = np.arange(n) / SAMPLE_RATE
    t0 = duration_s / 4.0    # positive phase; the tail decays within the clip
    pulse = (1.0 - t / t0) * np.exp(-t / t0)
    shaped = _biquad_bandpass(pulse, peak_freq)
    peak = np.abs(shaped).max()
    if peak > 0:
        shaped *= amplitude / peak
    return shaped


def synth_shockwave(duration_us, amplitude):
    """Ballistic N-wave: linear up-ramp, sign flip, linear return; zero mean."""
    n = max(2, int(round(duration_us * 1e-6 * SAMPLE_RATE)))
    if amplitude == 0.0:
        return np.zeros(n)
    u = (np.arange(n) + 0.5) / n
    v = np.where(u < 0.5, 2.0 * u, np.where(u > 0.5, 2.0 * u - 2.0, 0.0))
    v -= v.mean()
    return amplitude * v


# ---------------------------------------------------------------------------
# shots and scenes
# ---------------------------------------------------------------------------

def synth_shot(spec, rng):
    """Sample one trigger pull from a class spec.

    Returns (ShotEvent, samples). Burst classes place count shots at
    1/rate spacing with +-10% inter-onset jitter; each supersonic shot is
    preceded by its shockwave 0.2-1.0 ms before the blast."""
    peak_freq = float(rng.uniform(*spec.peak_freq_range))
    duration_ms = float(rng.uniform(*spec.blast_duration_range))
    spl = float(rng.uniform(*spec.spl_at_1m_range))
    amplitude = spl_to_amplitude(spl)
    has_shock = bool(rng.random() < spec.shockwave_prob)
    shock_dur_us = float(rng.uniform(200.0, 400.0)) if has_shock else None
    lead_s = float(rng.uniform(0.2e-3, 1.0e-3)) if has_shock else 0.0
    shock_amp = amplitude * float(rng.uniform(0.3, 0.9)) if has_shock else 0.0

    if spec.burst is not None:
        lo, hi = spec.burst.count_range
        count = int(rng.integers(lo, hi + 1))
        rate = float(rng.uniform(*spec.burst.rate_hz_range))
        gaps = (1.0 / rate) * (1.0 + rng.uniform(-0.1, 0.1, size=max(0, count - 1)))
        onsets_s = np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        count, rate = 1, None
        onsets_s = np.zeros(1)

    blast = synth_impulse(peak_freq, duration_ms, amplitude)
    lead_n = int(round(lead_s * SAMPLE_RATE))
    shock = synth_shockwave(shock_dur_us, shock_amp) if has_shock else np.zeros(0)

    total = int(round(onsets_s[-1] * SAMPLE_RATE)) + lead_n + len(blast)
    out = np.zeros(total)
    for onset_s in onsets_s:
        i0 = int(round(onset_s * SAMPLE_RATE))
        if has_shock:
            out[i0 : i0 + len(shock)] += shock
        out[i0 + lead_n : i0 + lead_n + len(blast)] += blast

    event = ShotEvent(
        onset=lead_s, firearm=spec.firearm, peak_freq=peak_freq,
        blast_duration_ms=duration_ms, amplitude=amplitude,
        has_shockwave=has_shock, shockwave_duration_us=shock_dur_us,
        burst_count=count, burst_rate_hz=rate,
    )
    return event, out


def compose_scene(events, config, rng):
    """Mix (onset seconds, samples) events into a scene's samples.

    Pipeline: sum at onsets -> 1/distance scaling -> feed-forward comb reverb
    (taps at multiples of delay with geometric decay) -> white noise sized so
    event RMS over the active region sits snr_db above the noise RMS. With no
    events the SNR reference is full scale (RMS 1.0). The mix is peak-scaled
    to 0.99 only if it would clip. An event that overruns the scene, or
    samples that are not finite, raise InvalidParam."""
    sr = SAMPLE_RATE
    n = int(round(config.duration_s * sr))
    mix = np.zeros(n)
    for onset_s, samples in events:
        i0 = int(round(onset_s * sr))
        if i0 < 0 or i0 + len(samples) > n:
            raise InvalidParam(
                f"event at {onset_s:.3f}s (+{len(samples) / sr:.3f}s) exceeds "
                f"{config.duration_s:.3f}s scene")
        mix[i0 : i0 + len(samples)] += samples

    mix /= config.distance_m

    taps, decay = config.reverb_taps, config.reverb_decay
    if taps > 0 and config.reverb_delay_ms > 0 and decay > 0:
        d = int(round(config.reverb_delay_ms * sr / 1000.0))
        if d > 0:
            wet = mix.copy()
            for k in range(1, taps + 1):
                shift = k * d
                if shift >= n:
                    break
                wet[shift:] += (decay ** k) * mix[: n - shift]
            mix = wet

    if events:
        peak = np.abs(mix).max()
        active = np.abs(mix) > 1e-4 * peak if peak > 0 else np.zeros(n, bool)
        ref_rms = float(np.sqrt((mix[active] ** 2).mean())) if active.any() else 0.0
    else:
        ref_rms = 1.0
    noise_rms = ref_rms * 10.0 ** (-config.snr_db / 20.0)
    # standard_normal * rms draws rng.normal(0, rms)'s stream and bits,
    # without its loc add
    out = mix + rng.standard_normal(n) * noise_rms if noise_rms > 0 else mix

    peak = np.abs(out).max()
    if peak > 0.99:
        out = out * (0.99 / peak)
    if not np.isfinite(out).all():
        raise InvalidParam("scene contains non-finite samples")
    return out


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

CLASS_ORDER = list(FirearmClass)

# Event onsets stay inside the window that the CNN's center crop of
# models.T_FIXED_DEFAULT (128) frames sees of a CLIP_SECONDS clip, about
# 0.244..1.741 s, so labels hold for what the CNN reads.
ONSET_MARGIN_S = 0.26


def reference_counts(scale):
    """Class counts proportional to the reference recording mix."""
    return {fc: int(round(REFERENCE_CLASS_MIX[fc] * scale)) for fc in CLASS_ORDER}


def _sample_scene_config(rng, clean):
    if clean:
        return SceneConfig(snr_db=float(rng.uniform(30.0, 50.0)))
    # keyword arguments evaluate left to right: snr, delay, decay, taps, distance
    return SceneConfig(
        snr_db=float(rng.uniform(0.0, 15.0)),
        reverb_delay_ms=float(rng.uniform(20.0, 80.0)),
        reverb_decay=float(rng.uniform(0.2, 0.6)),
        reverb_taps=int(rng.integers(2, 7)),
        distance_m=float(rng.uniform(1.0, 50.0)),
    )


def _sample_onset(rng, event_len_s):
    lo = ONSET_MARGIN_S
    hi = max(lo, CLIP_SECONDS - ONSET_MARGIN_S - event_len_s)
    return float(rng.uniform(lo, hi)) if hi > lo else lo


def _distractor(rng):
    """Door-slam-like or click-like impulse with an out-of-band spectrum."""
    if rng.random() < 0.5:
        freq = float(rng.uniform(*THUMP_FREQ_RANGE))
        dur_ms = float(rng.uniform(25.0, 60.0))
    else:
        freq = float(rng.uniform(*CLICK_FREQ_RANGE))
        dur_ms = float(rng.uniform(1.0, 5.0))
    amp = float(rng.uniform(0.2, 0.8))
    return synth_impulse(freq, dur_ms, amp)


def synth_clip(firearm, rng, clean):
    """One dataset clip's samples: a scene around one trigger pull of
    `firearm`, or, for firearm=None, a background scene of noise alone or
    noise and one out-of-band impulse distractor. The clip is a pure function
    of the arguments and the state of rng, which it draws from in a fixed
    order."""
    if firearm is not None:
        _, shot = synth_shot(DEFAULT_CLASS_SPECS[firearm], rng)
        cfg = _sample_scene_config(rng, clean)
        events = [(_sample_onset(rng, len(shot) / SAMPLE_RATE), shot)]
    else:
        cfg = _sample_scene_config(rng, clean)
        events = []
        if rng.random() < 2.0 / 3.0:    # impulse distractor; else pure noise
            impulse = _distractor(rng)
            events = [(_sample_onset(rng, len(impulse) / SAMPLE_RATE), impulse)]
    return compose_scene(events, cfg, rng)


def generate_dataset(class_counts, negatives, clean, out_dir, seed):
    """Write CLIP_SECONDS WAV files plus a line-delimited manifest; returns
    the ManifestRows.

    clean=True: SNR >= 30 dB, no reverb, 1 m. clean=False: SNR in [0, 15] dB,
    reverb on, distances in [1, 50] m. Clips come class by class in
    CLASS_ORDER, then the negatives. Deterministic: clip i uses rng stream
    (seed, i), whichever thread draws it.

    SYNTH_THREADS workers run synth_clip, at most 2 * SYNTH_THREADS clips
    ahead of the writer; only the calling thread writes, WAVs in plan order
    and then the manifest. If a clip raises, the workers finish the clips
    already submitted and are joined before the exception leaves."""
    for fc, cnt in class_counts.items():
        if cnt < 0:
            raise InvalidParam(f"negative count for {fc}")
    if negatives < 0:
        raise InvalidParam("negative count of negatives")

    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    plan = [fc for fc in CLASS_ORDER for _ in range(class_counts.get(fc, 0))]
    plan += [None] * negatives

    rows = []
    with ThreadPoolExecutor(SYNTH_THREADS) as pool:
        # submitted lazily: each clip written lets one more start
        clips = (pool.submit(synth_clip, fc, np.random.default_rng([seed, idx]), clean)
                 for idx, fc in enumerate(plan))
        pending = deque(islice(clips, 2 * SYNTH_THREADS))
        for idx, fc in enumerate(plan):
            scene = pending.popleft().result()
            pending.extend(islice(clips, 1))
            class_name = None if fc is None else fc.value
            clip_id = f"{idx:05d}_{class_name or 'background'}"
            rel = f"wav/{clip_id}.wav"
            write_wav(out_dir / rel, scene, SAMPLE_RATE)
            rows.append(ManifestRow(clip_id, rel, NO_GUNSHOT if fc is None else GUNSHOT,
                                    class_name))
    write_manifest(out_dir / "manifest.jsonl", rows)
    return rows
