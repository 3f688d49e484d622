"""CLI exit codes for inputs the pipeline cannot use: each ends in its
documented code and a one-line message, never in a traceback; SVM
evaluation and training honour their flags and rerun byte for byte."""

import json

import pytest

from gunshot_bench import cli


def test_cnn_without_validation_clips_exits_usage(tmp_path, capsys):
    data, mel = tmp_path / "data", tmp_path / "mel"
    assert cli.main(["generate", "--out", str(data), "--per-class", "4",
                     "--negatives", "4", "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["featurize", "--manifest", str(data / "manifest.jsonl"),
                     "--kind", "mel", "--out", str(mel)]) == cli.EXIT_OK
    # the 60/20/20 split of 4 clips per class puts none in validation
    code = cli.main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--features", str(mel), "--out", str(tmp_path / "cnn"),
                     "--model", "cnn", "--seed", "1"])
    assert code == cli.EXIT_USAGE
    assert "validation" in capsys.readouterr().err


def test_scene_overflow_exits_usage(tmp_path, capsys):
    code = cli.main(["generate", "--out", str(tmp_path / "data"), "--preset", "paper-ratio",
                     "--scale", "0.025", "--negatives", "25", "--duration", "1.5",
                     "--seed", "2"])
    assert code == cli.EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err


@pytest.fixture(scope="module")
def melstats_data(tmp_path_factory):
    """The 140-clip dataset of `generate --per-class 20 --negatives 40 --seed 1`
    with its melstats caches."""
    root = tmp_path_factory.mktemp("melstats")
    data, feats = root / "data", root / "melstats"
    assert cli.main(["generate", "--out", str(data), "--per-class", "20",
                     "--negatives", "40", "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["featurize", "--manifest", str(data / "manifest.jsonl"),
                     "--kind", "melstats", "--out", str(feats)]) == cli.EXIT_OK
    return data / "manifest.jsonl", feats


def _train_svm(manifest, feats, out):
    assert cli.main(["train", "--manifest", str(manifest), "--features", str(feats),
                     "--out", str(out), "--model", "svm", "--seed", "1"]) == cli.EXIT_OK


def test_svm_evaluate_honours_threshold(melstats_data, tmp_path):
    manifest, feats = melstats_data
    _train_svm(manifest, feats, tmp_path / "svm")
    confusions = []
    for threshold in ("0.0", "5.0"):
        out = tmp_path / f"eval_{threshold}"
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "svm"),
                         "--manifest", str(manifest), "--features", str(feats),
                         "--out", str(out), "--split", str(tmp_path / "svm" / "split.json"),
                         "--threshold", threshold]) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["threshold"] == float(threshold)
        confusions.append(report["detection"]["confusion"])
    assert confusions[0] != confusions[1]


def test_svm_train_rerun_is_byte_identical(melstats_data, tmp_path):
    manifest, feats = melstats_data
    for run in ("a", "b"):
        _train_svm(manifest, feats, tmp_path / run)
    for name in ("model.meta.json", "model.ckpt", "history.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
