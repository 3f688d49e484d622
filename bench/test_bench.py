"""Fast test of the benchmark itself: every workload's steps, checks and
failure counting on tiny inputs, the checks against the program's own
functions, and the refusal to run without the program's sources.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gunshot_bench import dsp, evaluation, synthgun  # noqa: E402

TINY_ARGS = ("--preset", "paper-ratio", "--scale", 0.004, "--negatives", 5)   # 14 + 5 clips
TINY_CLIPS = 19
TINY_SPLITS = {"clean-cnn": (0.4, 0.2, 0.4), "clean-svm": (0.5, 0.0, 0.5)}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "GENERATE_ARGS", TINY_ARGS)
    monkeypatch.setattr(workloads, "SPLITS", TINY_SPLITS)
    monkeypatch.setattr(workloads, "SETUPS", 2)
    monkeypatch.setattr(workloads, "CNN_EPOCHS", 3)
    # A handful of test clips gives no classifier a reliable edge over
    # chance; test_chance_map covers that check on its own.
    monkeypatch.setattr(checks, "chance_map", lambda true_class, n_classes: 0.0)
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    return tmp_path


# operations per round besides the inference passes' one per clip (one round)
PIPELINE_OPS = {"clean-cnn": 3 + 1, "clean-svm": 11 + 2}


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_workload_runs_checks_and_counts_failures(tiny, capsys, name):
    result = bench_run.run_one(name, seed=3, seconds=0.0, trace=0)
    out, err = capsys.readouterr()
    assert json.loads(out.strip().splitlines()[-1]) == result
    assert result["correct"] is True, err
    assert result["attempted"] == PIPELINE_OPS[name] + workloads.INFER_PASSES * TINY_CLIPS
    assert result["failed"] == len(workloads.FAULTS[name])
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tiny / ".bench_work").exists() or not any((tiny / ".bench_work").iterdir())


def test_traced_run_reports_every_per_layer_metric(tiny, capsys):
    result = bench_run.run_one("clean-svm", seed=3, seconds=0.0, trace=1)
    assert result["correct"] is True, capsys.readouterr().err
    assert result["failed"] == len(workloads.FAULTS["clean-svm"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [n for n, _, _ in tracing.per_layer_metric_specs()]
    assert m["dsp.mel_per_clip"] == pytest.approx(4 / 3)   # boaw computes mel twice
    assert m["wavio.read_wav_per_clip"] == pytest.approx(4 / 3)
    assert m["cli.cache_hit_ratio"] == 1.0
    assert m["models.svm_sweeps"] > 0 and m["dsp.kmeans_iters"] > 0
    assert m["dsp.autocorrelation_s"] > 0 and m["synthgun.generate_dataset_s"] > 0
    assert m["nncore.conv2d_s"] == 0.0 and m["models.cnn_train_s"] == 0.0
    assert len(list((tiny / ".bench_out").glob("trace-clean-svm-3.json"))) == 1


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(s) for s in tracing.per_layer_metric_specs()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "clean-svm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks agree with the program where it is right ----------------------

def _clip(seed=0, n=44100):
    rng = np.random.default_rng(seed)
    return synthgun.AudioClip(dsp.quantize16(0.3 * rng.standard_normal(n)), 44100, {})


def test_logmel_reference_matches_program():
    clip = _clip()
    frames = dsp.mel_spectrogram(clip).frames
    checks.check_logmel("x", clip.samples, frames, dsp.default_filterbank().weights)
    with pytest.raises(checks.CheckFailed):
        checks.check_logmel("x", clip.samples, frames + 1e-6, dsp.default_filterbank().weights)


def test_autocorr_reference_matches_program():
    clip = _clip(1, 8192)
    r = dsp.autocorrelation(clip, 256)
    checks.check_autocorr("x", clip.samples, r, r.astype(np.float32))
    with pytest.raises(checks.CheckFailed):
        checks.check_autocorr("x", clip.samples, np.roll(r, 1), r.astype(np.float32))


def test_resample_check_accepts_band_limited_and_rejects_nearest_sample():
    rng = np.random.default_rng(2)
    t = np.arange(44100) / 44100.0
    source = dsp.quantize16(0.2 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.standard_normal(len(t)))
    from scipy.signal import resample_poly
    up = resample_poly(source, 160, 147)
    back = dsp.normalize_input(synthgun.AudioClip(np.stack([up, up], axis=1), 48000, {}))
    checks.check_resampled("x", back.samples, source)
    crude = up[(np.arange(len(source)) * 48000 // 44100)]       # nearest-sample rate change
    with pytest.raises(checks.CheckFailed):
        checks.check_resampled("x", crude, source)


def test_average_precision_matches_program_on_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 4, size=40).astype(float)
    positive = rng.random(40) < 0.3
    assert checks.average_precision(list(scores), list(positive)) == pytest.approx(
        evaluation.average_precision(scores, positive), abs=1e-12)


def test_chance_map():
    assert checks.chance_map([0, 0, 1, None], 5) == pytest.approx((0.5 + 0.25) / 2)
