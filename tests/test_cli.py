"""CLI exit codes for inputs the pipeline cannot use: each ends in its
documented code and a one-line message, never in a traceback (an
unreadable WAV, a checkpoint with any one byte flipped or cut at any
length, a feature cache cut short, with a bad
magic, or of another kind or shape than the rest of its directory, a
model directory that cannot be used or a JSON file or manifest line that
does not parse, lacks a key or holds a value of the wrong type fails with
the I/O code, a flag or a split no training can use, or an SVM evaluated
on features of another length, with the usage code, a CNN whose training
overflows with the numeric code); a WAV that
featurize cannot use fails only its own clip; a refused command leaves
no config.json and a failed generate no dataset; training reads no
test-split cache; SVM evaluation, training and cross-validation honour
their flags, rerun byte for byte and report machines stopped by the
sweep cap, and cross-validation's folds, solved in one run, have the bytes
of folds fitted one at a time; every command runs end to end on a tiny
dataset, the CNN included; and the CNN pipeline gives the same bytes when rerun in a
fresh process on another number of BLAS threads; a manifest id that
would write outside --out is refused; a fresh-process featurize
reuses the memory each clip frees instead of faulting it in again;
plain np.load reads a checkpoint's entries in the model's order; a
manifest whose rows hold only ids, paths and labels, one of its WAVs 48 kHz
stereo, runs every command, and rows and a model.meta.json with keys that
no command reads give the same report; model.meta.json holds only what
load_model and evaluate read; generate refuses a class mix given two
ways, and evaluate a --subset without a --split; an SVM run refuses a flag
only the CNN reads; and a config.json records only the knobs the run
used."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest

from gunshot_bench import cli, dsp, evaluation, models, nncore, wavio
from gunshot_bench.errors import MalformedFile
from gunshot_bench.manifest import (CLASS_NAMES, N_CLASSES, load_manifest, manifest_digest,
                                    write_json)


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
    assert not (tmp_path / "cnn").exists()


# a burst of this mix does not fit its 1.5 s clip after 63 clips are written
OVERFLOWING_MIX = ["--preset", "paper-ratio", "--scale", "0.025", "--negatives", "25",
                   "--duration", "1.5", "--seed", "2"]


def test_scene_overflow_exits_usage(tmp_path, capsys):
    code = cli.main(["generate", "--out", str(tmp_path / "data"), *OVERFLOWING_MIX])
    assert code == cli.EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []    # neither the dataset nor its staging copy


def test_generate_into_an_existing_directory(tmp_path):
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept")
    for out in (fresh, existing):
        assert cli.main(["generate", "--out", str(out), "--per-class", "1",
                         "--seed", "1"]) == cli.EXIT_OK
    files = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert (sorted(p.relative_to(existing) for p in existing.rglob("*") if p.is_file())
            == sorted(files + [Path("notes.txt")]))
    for name in files:
        if name.name != "config.json":    # it echoes the output path
            assert (fresh / name).read_bytes() == (existing / name).read_bytes(), name
    # a run that fails part way leaves the existing dataset as it was
    before = {p: p.read_bytes() for p in existing.rglob("*") if p.is_file()}
    assert cli.main(["generate", "--out", str(existing), *OVERFLOWING_MIX]) == cli.EXIT_USAGE
    assert {p: p.read_bytes() for p in existing.rglob("*") if p.is_file()} == before
    assert sorted(tmp_path.iterdir()) == [existing, fresh]


@pytest.mark.parametrize("args", [
    ["--preset", "paper-ratio", "--scale", "0"],
    ["--preset", "paper-ratio", "--scale", "1e-6"],
    ["--per-class", "0"],
    ["--duration", "nan"],
    ["--duration", "inf"],
    # class-mix flags that do not go together
    ["--preset", "paper-ratio", "--per-class", "3"],
    ["--per-class", "3", "--scale", "0.5"],
    ["--per-class", "-1"],
    ["--negatives", "-1"],
])
def test_generate_zero_clips_exits_usage(args, tmp_path, capsys):
    assert cli.main(["generate", "--out", str(tmp_path / "data"), *args]) == cli.EXIT_USAGE
    assert not (tmp_path / "data" / "manifest.jsonl").exists()
    assert not (tmp_path / "data").exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith(("error:", "gsb generate: error:"))


def test_featurize_empty_manifest_exits_usage(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    code = cli.main(["featurize", "--manifest", str(manifest), "--kind", "boaw",
                     "--out", str(tmp_path / "boaw")])
    assert code == cli.EXIT_USAGE
    assert "lists no clips" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--autocorr-lag", "-5"), ("--boaw-k", "1"), ("--boaw-k", "0"),
])
def test_bad_featurize_flag_exits_usage(flag, value, tmp_path, capsys):
    # the manifest does not exist: the flag must be refused before it is read
    code = cli.main(["featurize", "--manifest", str(tmp_path / "none.jsonl"),
                     "--kind", "autocorr", "--out", str(tmp_path), flag, value])
    assert code == cli.EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err.splitlines()[-1]


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """The 5 clips of `generate --per-class 1 --seed 1`, 2 s each."""
    data = tmp_path_factory.mktemp("tiny") / "data"
    assert cli.main(["generate", "--out", str(data), "--per-class", "1",
                     "--seed", "1"]) == cli.EXIT_OK
    return data / "manifest.jsonl"


@pytest.mark.parametrize("kind,flag,value,message", [
    ("boaw", "--boaw-k", "100000", "descriptors for k=100000"),
    ("autocorr", "--autocorr-lag", "200000", "max_lag must be in [0, 88199]"),
])
def test_featurize_flag_the_clips_cannot_meet_exits_usage(tiny_data, tmp_path, capsys,
                                                          kind, flag, value, message):
    code = cli.main(["featurize", "--manifest", str(tiny_data), "--kind", kind,
                     "--out", str(tmp_path), flag, value])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "config.json").exists()


def test_featurize_unreadable_wav_fails_with_io(tiny_data, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data.parent, data)
    first = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    (data / first["path"]).write_bytes(b"not a wav file")
    code = cli.main(["featurize", "--manifest", str(data / "manifest.jsonl"),
                     "--kind", "autocorr", "--out", str(tmp_path / "autocorr")])
    assert code == cli.EXIT_IO
    captured = capsys.readouterr()
    assert "4 computed, 0 up-to-date, 1 failed" in captured.out
    assert f"FAILED {first['id']}:" in captured.err


def _too_short(wav):
    wavio.write_wav(wav, np.zeros(1000))    # under one 1024-sample window


def _three_channels(wav):
    with wave.open(str(wav), "wb") as w:
        w.setnchannels(3)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(bytes(2 * 3 * 44100))


def _at_4_khz(wav):
    wavio.write_wav(wav, np.zeros(8000), sample_rate=4000)


@pytest.mark.parametrize("damage,message", [
    (_too_short, "need at least 1024 samples, got 1000"),
    (_three_channels, "expected 1 or 2 channels, got 3"),
    (_at_4_khz, "sample rate 4000 outside 8k..192k"),
], ids=["shorter-than-one-window", "three-channels", "4-khz"])
def test_featurize_unusable_wav_fails_that_clip_only(tiny_data, tmp_path, capsys, damage,
                                                     message):
    # a WAV that decodes but that featurize cannot use fails its own clip,
    # as an unreadable one does; it does not abort the run
    manifest, clip_id, _ = _damage_first_wav(tiny_data, tmp_path, damage)
    code = cli.main(["featurize", "--manifest", str(manifest), "--kind", "autocorr",
                     "--out", str(tmp_path / "autocorr")])
    assert code == cli.EXIT_IO
    captured = capsys.readouterr()
    assert "4 computed, 0 up-to-date, 1 failed" in captured.out
    assert captured.err.splitlines() == [f"  FAILED {clip_id}: {message}"]


def _damage_first_wav(tiny_data, tmp_path, damage):
    """A copy of tiny_data whose first WAV `damage` rewrites; returns the
    copy's manifest, the clip's id and its WAV."""
    data = tmp_path / "data"
    shutil.copytree(tiny_data.parent, data)
    first = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    wav = data / first["path"]
    damage(wav)
    return data / "manifest.jsonl", first["id"], wav


def _cut_in_header(wav):
    # leaves the stdlib reader an EOFError, whose message is empty
    wav.write_bytes(wav.read_bytes()[:20])


def _as_24_bit(wav):
    with wave.open(str(wav), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(3)
        w.setframerate(44100)
        w.writeframes(bytes(3 * 44100))


def test_featurize_wav_cut_in_its_header_is_named_in_the_failed_line(tiny_data, tmp_path,
                                                                     capsys):
    manifest, clip_id, wav = _damage_first_wav(tiny_data, tmp_path, _cut_in_header)
    code = cli.main(["featurize", "--manifest", str(manifest), "--kind", "melstats",
                     "--out", str(tmp_path / "melstats")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.splitlines() == [f"  FAILED {clip_id}: {wav}: EOFError"]


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


def test_evaluate_empty_subset_exits_usage(melstats_data, tmp_path, capsys):
    manifest, feats = melstats_data
    _train_svm(manifest, feats, tmp_path / "svm")
    split = json.loads((tmp_path / "svm" / "split.json").read_text())
    split["train_ids"] += split["val_ids"]
    split["val_ids"] = []
    (tmp_path / "split.json").write_text(json.dumps(split))
    code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "svm"),
                     "--manifest", str(manifest), "--features", str(feats),
                     "--out", str(tmp_path / "eval"), "--split", str(tmp_path / "split.json"),
                     "--subset", "val"])
    assert code == cli.EXIT_USAGE
    assert "the val subset is empty" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "report.json").exists()
    assert not (tmp_path / "eval" / "config.json").exists()


def test_evaluate_subset_needs_a_split(melstats_data, tmp_path, capsys):
    manifest, feats = melstats_data
    _train_svm(manifest, feats, tmp_path / "svm")
    evaluate = ["evaluate", "--checkpoint", str(tmp_path / "svm"), "--manifest", str(manifest),
                "--features", str(feats), "--out"]
    capsys.readouterr()
    assert cli.main([*evaluate, str(tmp_path / "val"), "--subset", "val"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--split" in err[0], err
    assert not (tmp_path / "val").exists()
    # without a split every clip is scored and the report names no subset;
    # with one, the subset is test unless --subset names another
    split = str(tmp_path / "svm" / "split.json")
    for out, extra, subset, size in (("all", [], None, 140),
                                     ("test", ["--split", split], "test", 28)):
        assert cli.main([*evaluate, str(tmp_path / out), *extra]) == cli.EXIT_OK
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["config"]["subset"] == subset
        assert np.sum(report["detection"]["confusion"]) == size


def test_svm_train_stores_its_threshold(melstats_data, tmp_path):
    manifest, feats = melstats_data
    for name, extra in (("default", []), ("given", ["--threshold", "1.5"])):
        assert cli.main(["train", "--manifest", str(manifest), "--features", str(feats),
                         "--out", str(tmp_path / name), "--model", "svm", "--seed", "1",
                         *extra]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / name), "--manifest",
                         str(manifest), "--features", str(feats), "--out",
                         str(tmp_path / f"eval_{name}")]) == cli.EXIT_OK
    for name, threshold in (("default", 0.0), ("given", 1.5)):
        assert json.loads((tmp_path / name / "model.meta.json").read_text())["threshold"] \
            == threshold
        assert json.loads((tmp_path / f"eval_{name}" / "report.json").read_text())["threshold"] \
            == threshold


def test_svm_train_rerun_is_byte_identical(melstats_data, tmp_path):
    manifest, feats = melstats_data
    for run in ("a", "b"):
        _train_svm(manifest, feats, tmp_path / run)
    for name in ("model.meta.json", "model.ckpt", "history.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_evaluate_truncated_checkpoint_exits_io(melstats_data, tmp_path, capsys):
    manifest, feats = melstats_data
    _train_svm(manifest, feats, tmp_path / "svm")
    ckpt = tmp_path / "svm" / "model.ckpt"
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    capsys.readouterr()
    code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "svm"),
                     "--manifest", str(manifest), "--features", str(feats),
                     "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("I/O failure:") and "model.ckpt" in err[0]
    assert not (tmp_path / "eval").exists()


@pytest.fixture(scope="module")
def feature_params_data(tmp_path_factory):
    """The 18 clips of `generate --per-class 3 --negatives 3 --seed 1`."""
    data = tmp_path_factory.mktemp("params") / "data"
    assert cli.main(["generate", "--out", str(data), "--per-class", "3",
                     "--negatives", "3", "--seed", "1"]) == cli.EXIT_OK
    return data / "manifest.jsonl"


@pytest.mark.parametrize("kind,flag,value,message", [
    ("autocorr", "--autocorr-lag", "100", "length 101; the model was trained on length 2049"),
    ("boaw", "--boaw-k", "8", "length 8; the model was trained on length 64"),
], ids=["autocorr", "boaw"])
def test_evaluate_features_of_another_length_exits_usage(feature_params_data, tmp_path, capsys,
                                                         kind, flag, value, message):
    manifest = feature_params_data
    for name, extra in (("train_feats", []), ("eval_feats", [flag, value])):
        assert cli.main(["featurize", "--manifest", str(manifest), "--kind", kind,
                         "--out", str(tmp_path / name), *extra]) == cli.EXIT_OK
    _train_svm(manifest, tmp_path / "train_feats", tmp_path / "svm")
    capsys.readouterr()
    code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "svm"),
                     "--manifest", str(manifest), "--features", str(tmp_path / "eval_feats"),
                     "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0], err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("flag,value", [
    ("--epochs", "0"), ("--batch-size", "0"), ("--lr", "nan"), ("--lr", "abc"),
    ("--patience", "-1"), ("--input-frames", "0"), ("--threshold", "inf"),
])
def test_bad_train_flag_exits_usage(flag, value, tmp_path, capsys):
    for command in ("train", "crossval"):
        code = cli.main([command, "--manifest", "m", "--features", "f",
                         "--out", str(tmp_path), "--model", "svm", flag, value])
        assert code == cli.EXIT_USAGE
        assert f"argument {flag}:" in capsys.readouterr().err.splitlines()[-1]


def test_generate_records_only_the_class_mix_it_used(tmp_path):
    parse = cli.build_parser().parse_args
    args = parse(["generate", "--out", "d"])
    assert cli._class_counts(args) == {fc: cli.PER_CLASS for fc in cli.CLASS_ORDER}
    assert args.per_class == cli.PER_CLASS
    # a --per-class equal to its default is still a second class mix
    with pytest.raises(SystemExit):
        parse(["generate", "--out", "d", "--preset", "paper-ratio", "--per-class", "20"])
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--preset", "paper-ratio",
                     "--scale", "0.01", "--seed", "1"]) == cli.EXIT_OK
    config = json.loads((data / "config.json").read_text())
    assert config["per_class"] is None and config["scale"] == 0.01


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """The 60 clips of `generate --per-class 10 --negatives 10 --seed 1`
    with mel and melstats caches; the crossval pool holds 8 of each class."""
    root = tmp_path_factory.mktemp("small")
    data = root / "data"
    assert cli.main(["generate", "--out", str(data), "--per-class", "10",
                     "--negatives", "10", "--seed", "1"]) == cli.EXIT_OK
    for kind in ("mel", "melstats"):
        assert cli.main(["featurize", "--manifest", str(data / "manifest.jsonl"),
                         "--kind", kind, "--out", str(root / kind)]) == cli.EXIT_OK
    return data / "manifest.jsonl", root


@pytest.mark.parametrize("model,kind,extra", [
    ("svm", "melstats", []),
    ("cnn", "mel", ["--epochs", "1", "--input-frames", "16"]),
])
def test_train_reads_no_test_split_cache(small_data, tmp_path, model, kind, extra):
    manifest, root = small_data
    feats = tmp_path / kind
    shutil.copytree(root / kind, feats)

    def train(out):
        return cli.main(["train", "--manifest", str(manifest), "--features", str(feats),
                         "--out", str(tmp_path / out), "--model", model, "--seed", "1",
                         *extra])

    assert train("all") == cli.EXIT_OK
    for clip_id in json.loads((tmp_path / "all" / "split.json").read_text())["test_ids"]:
        (feats / f"{clip_id}.feat").unlink()
    assert train("no_test") == cli.EXIT_OK
    assert ((tmp_path / "all" / "model.ckpt").read_bytes()
            == (tmp_path / "no_test" / "model.ckpt").read_bytes())


def _crossval(manifest, feats, out, model, *extra):
    return cli.main(["crossval", "--manifest", str(manifest), "--features", str(feats),
                     "--out", str(out), "--model", model, "--seed", "1", *extra])


@pytest.mark.parametrize("model,kind", [("svm", "mel"), ("cnn", "melstats")])
def test_crossval_wrong_feature_kind_exits_usage(small_data, tmp_path, capsys, model, kind):
    manifest, root = small_data
    assert _crossval(manifest, root / kind, tmp_path, model) == cli.EXIT_USAGE
    assert f"{model} needs" in capsys.readouterr().err
    code = cli.main(["train", "--manifest", str(manifest), "--features", str(root / kind),
                     "--out", str(tmp_path / "train"), "--model", model])
    assert code == cli.EXIT_USAGE
    assert f"{model} needs" in capsys.readouterr().err
    assert not (tmp_path / "config.json").exists()
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "3"), ("--lr", "5"), ("--patience", "0"), ("--input-frames", "4"),
])
def test_cnn_only_flag_on_an_svm_run_exits_usage(small_data, tmp_path, capsys, flag, value):
    manifest, root = small_data
    for command in ("train", "crossval"):
        out = tmp_path / command
        code = cli.main([command, "--manifest", str(manifest), "--features",
                         str(root / "melstats"), "--out", str(out), "--model", "svm",
                         flag, value])
        assert code == cli.EXIT_USAGE
        assert f"{flag} applies only to --model cnn" in capsys.readouterr().err
        assert not out.exists()


def test_train_config_records_only_the_flags_the_model_read(small_data, tmp_path):
    manifest, root = small_data
    cnn_only = ("batch_size", "lr", "patience", "input_frames")
    assert cli.main(["train", "--manifest", str(manifest), "--features", str(root / "melstats"),
                     "--out", str(tmp_path / "svm"), "--model", "svm"]) == cli.EXIT_OK
    config = json.loads((tmp_path / "svm" / "config.json").read_text())
    assert {name: config[name] for name in cnn_only} == dict.fromkeys(cnn_only)
    # a CNN run records each default it used, as one that gave it does
    args = cli.build_parser().parse_args(["train", "--manifest", "m", "--features", "f",
                                          "--out", "o", "--model", "cnn", "--lr", "0.01"])
    cli._resolve_cnn_flags(args)
    assert {name: getattr(args, name) for name in cnn_only} == {
        "batch_size": 16, "lr": 0.01, "patience": 5, "input_frames": models.T_FIXED_DEFAULT}


def test_crossval_k_above_pool_exits_usage(small_data, tmp_path, capsys):
    manifest, root = small_data
    assert _crossval(manifest, root / "melstats", tmp_path, "svm", "--k", "50") == cli.EXIT_USAGE
    assert "exceeds the 48 clips" in capsys.readouterr().err
    assert not (tmp_path / "config.json").exists()


def test_svm_reports_machines_stopped_at_the_cap(small_data, tmp_path, capsys):
    manifest, root = small_data
    lines = {}
    for epochs in ("1", "1000"):
        assert cli.main(["train", "--manifest", str(manifest), "--features",
                         str(root / "melstats"), "--out", str(tmp_path / epochs),
                         "--model", "svm", "--seed", "1", "--epochs", epochs]) == cli.EXIT_OK
        lines[epochs] = [x for x in capsys.readouterr().err.splitlines()
                         if x.startswith("svm:")]
    assert lines["1"] == [
        "svm: 6 of 6 machines stopped at the 1-sweep cap before KKT tolerance 1e-06"]
    assert lines["1000"] == []
    code = _crossval(manifest, root / "melstats", tmp_path / "cv", "svm", "--epochs", "1")
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"svm fold {i}: 6 of 6 machines stopped at the 1-sweep cap before KKT tolerance 1e-06"
        for i in range(5)]


def test_cnn_crossval_validation_is_stratified(small_data, tmp_path, monkeypatch):
    manifest, root = small_data
    seen = []

    def fake_cnn_train(model, train_set, val_set, **knobs):
        seen.append((np.concatenate([train_set.y_type, val_set.y_type]), val_set.y_type))
        return []

    monkeypatch.setattr(models, "cnn_train", fake_cnn_train)
    assert _crossval(manifest, root / "mel", tmp_path, "cnn", "--input-frames", "16") == cli.EXIT_OK
    assert len(seen) == 5
    for fold_types, val_types in seen:
        labels, counts = np.unique(fold_types, return_counts=True)
        assert set(labels[counts >= 5]) <= set(val_types)


@pytest.fixture(scope="module")
def trained_models(small_data, tmp_path_factory):
    """Model directories of a 1-epoch CNN and a melstats SVM on small_data."""
    manifest, root = small_data
    out = tmp_path_factory.mktemp("trained")
    for model, kind, extra in (("cnn", "mel", ["--epochs", "1", "--input-frames", "16"]),
                               ("svm", "melstats", [])):
        assert cli.main(["train", "--manifest", str(manifest), "--features", str(root / kind),
                         "--out", str(out / model), "--model", model, "--seed", "1",
                         *extra]) == cli.EXIT_OK
    return out


def _break_meta(d, other):
    (d / "model.meta.json").write_text("{")


def _swap_checkpoint(d, other):
    shutil.copy(other / "model.ckpt", d / "model.ckpt")


def _unknown_model(d, other):
    meta = json.loads((d / "model.meta.json").read_text())
    (d / "model.meta.json").write_text(json.dumps({**meta, "model": "forest"}))


def _shorten_scaler_std(d, other):
    arrays = nncore.load_checkpoint(d / "model.ckpt")
    arrays["scaler_std"] = arrays["scaler_std"][:-1]
    nncore.save_checkpoint(d / "model.ckpt", arrays)


@pytest.mark.parametrize("model,damage,entry", [
    ("cnn", _break_meta, "model.meta.json"),
    ("cnn", _swap_checkpoint, "conv1.w"),
    ("svm", _swap_checkpoint, "weights"),
    ("svm", _unknown_model, "'forest'"),
    ("svm", _shorten_scaler_std, "scaler_std"),
])
def test_evaluate_unusable_model_directory_exits_io(small_data, trained_models, tmp_path,
                                                    capsys, model, damage, entry):
    manifest, root = small_data
    model_dir = tmp_path / model
    shutil.copytree(trained_models / model, model_dir)
    damage(model_dir, trained_models / ("svm" if model == "cnn" else "cnn"))
    capsys.readouterr()
    code = cli.main(["evaluate", "--checkpoint", str(model_dir), "--manifest", str(manifest),
                     "--features", str(root / "melstats"), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"I/O failure: {model_dir}:"), err
    assert entry in err[0]
    assert not (tmp_path / "eval").exists()


def _refused(model_dir, damaged):
    """Whether cli.load_model refuses each damaged version of model_dir's
    model.ckpt with a MalformedFile that names the directory."""
    ckpt = model_dir / "model.ckpt"
    for blob in damaged:
        ckpt.write_bytes(blob)
        try:
            cli.load_model(model_dir)
        except MalformedFile as e:
            yield str(model_dir) in str(e)
        else:
            yield False


def _flipped(blob, i):
    return blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :]


def test_every_flipped_byte_and_every_cut_of_a_checkpoint_is_refused(tmp_path):
    # an SVM with a detector over 3 features: a directory-entry flip that
    # plain np.load accepts would drop det_weight and det_bias silently
    rng = np.random.default_rng(0)
    write_json(tmp_path / "model.meta.json", {"model": "svm", "feature_kind": "melstats"})
    nncore.save_checkpoint(tmp_path / "model.ckpt", {
        "weights": rng.normal(size=(cli.N_CLASSES, 3)), "biases": rng.normal(size=cli.N_CLASSES),
        "scaler_mean": rng.normal(size=3), "scaler_std": rng.uniform(1, 2, 3),
        "det_weight": rng.normal(size=3), "det_bias": rng.normal(size=1)})
    cli.load_model(tmp_path)
    blob = (tmp_path / "model.ckpt").read_bytes()
    every = range(len(blob))
    assert [i for i, ok in zip(every, _refused(tmp_path, (_flipped(blob, i) for i in every)))
            if not ok] == []
    assert [n for n, ok in zip(every, _refused(tmp_path, (blob[:n] for n in every)))
            if not ok] == []


def test_sampled_flips_and_cuts_of_a_cnn_checkpoint_are_refused(trained_models, tmp_path):
    model_dir = tmp_path / "cnn"
    shutil.copytree(trained_models / "cnn", model_dir)
    blob = (model_dir / "model.ckpt").read_bytes()
    # the zip directory sits in the last 2 KB; the rest is entry headers and values
    rng = np.random.default_rng(1)
    picks = sorted({*rng.choice(len(blob) - 2048, 64, replace=False).tolist(),
                    *range(len(blob) - 2048, len(blob), 8)})
    assert [i for i, ok in zip(picks, _refused(model_dir, (_flipped(blob, i) for i in picks)))
            if not ok] == []
    assert [n for n, ok in zip(picks, _refused(model_dir, (blob[:n] for n in picks)))
            if not ok] == []


@pytest.mark.parametrize("model", ["cnn", "svm"])
def test_checkpoint_is_a_plain_npz_of_the_model_arrays(trained_models, model):
    bundle, _ = cli.load_model(trained_models / model)
    if model == "cnn":
        expected = bundle.named_arrays()
        assert list(expected) == list(models.JointCnnModel(t_frames=16).named_arrays())
    else:
        svm, scaler = bundle
        expected = {"weights": svm.weights, "biases": svm.biases, "scaler_mean": scaler.mean,
                    "scaler_std": scaler.std, "det_weight": svm.det_weight,
                    "det_bias": [svm.det_bias]}
    with np.load(trained_models / model / "model.ckpt") as npz:
        assert npz.files == list(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(npz[name], values)


def test_model_meta_holds_what_load_model_and_evaluate_read(trained_models):
    keys = {"cnn": {"model", "feature_kind", "threshold", "input_frames"},
            "svm": {"model", "feature_kind", "threshold"}}
    for model, want in keys.items():
        assert set(json.loads((trained_models / model / "model.meta.json").read_text())) == want


@pytest.mark.parametrize("model", ["cnn", "svm"])
def test_manifest_and_model_directory_with_unread_keys_give_the_same_report(
        small_data, trained_models, tmp_path, model):
    # each manifest row and model.meta.json as earlier versions wrote them,
    # with the synthesis settings, the class list, the seed and n_mels or c
    manifest, root = small_data
    data = tmp_path / "data"
    data.mkdir()
    (data / "wav").symlink_to(manifest.parent / "wav")
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    (data / "manifest.jsonl").write_text("".join(
        json.dumps({**row, "duration_s": 2.0, "clean": True, "seed": 1}) + "\n" for row in rows))
    model_dir = tmp_path / model
    shutil.copytree(trained_models / model, model_dir)
    meta = json.loads((model_dir / "model.meta.json").read_text())
    meta.update(class_list=CLASS_NAMES, seed=1, **({"n_mels": dsp.N_MELS} if model == "cnn"
                                                   else {"c": 1.0}))
    write_json(model_dir / "model.meta.json", meta)
    reports = []
    for out, m, d in (("now", manifest, trained_models / model),
                      ("before", data / "manifest.jsonl", model_dir)):
        assert cli.main(["evaluate", "--checkpoint", str(d), "--manifest", str(m),
                         "--features", str(_features({"root": root}, model)),
                         "--out", str(tmp_path / out), "--split", str(d / "split.json"),
                         *(["--threshold", "0.5"] if model == "cnn" else [])]) == cli.EXIT_OK
        report = json.loads((tmp_path / out / "report.json").read_text())
        del report["dataset_hash"]    # the digest of the manifest's bytes
        reports.append(report)
    assert reports[0] == reports[1]


def _as_48_khz_stereo(wav):
    samples, rate = wavio.read_wav(wav)
    t = np.arange(len(samples) * 48000 // rate) / 48000
    mono = np.interp(t, np.arange(len(samples)) / rate, samples)
    with wave.open(str(wav), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(48000)
        w.writeframes(wavio.float_to_pcm16(np.stack([mono, 0.5 * mono], axis=1)).tobytes())


def test_manifest_of_recordings_runs_end_to_end(tmp_path):
    # a hand-written manifest: each row holds only its id, path and labels
    # (no class key for a clip without a gunshot), and one WAV is 48 kHz stereo
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--per-class", "5", "--negatives", "5",
                     "--seed", "1"]) == cli.EXIT_OK
    rows = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    manifest = data / "recordings.jsonl"
    keys = ("id", "path", "detection_label", "class")
    manifest.write_text("".join(json.dumps({k: row[k] for k in keys if row[k] is not None}) + "\n"
                                for row in rows))
    _as_48_khz_stereo(data / rows[0]["path"])
    for kind in ("mel", "melstats"):
        assert cli.main(["featurize", "--manifest", str(manifest), "--kind", kind,
                         "--out", str(tmp_path / kind)]) == cli.EXIT_OK
    for model, kind, extra in (("svm", "melstats", []),
                               ("cnn", "mel", ["--epochs", "1", "--input-frames", "16",
                                               "--threshold", "0.5"])):
        assert cli.main(["train", "--manifest", str(manifest), "--features",
                         str(tmp_path / kind), "--out", str(tmp_path / model), "--model", model,
                         "--seed", "1", *extra]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / model), "--manifest",
                         str(manifest), "--features", str(tmp_path / kind), "--out",
                         str(tmp_path / f"eval_{model}"), "--split",
                         str(tmp_path / model / "split.json")]) == cli.EXIT_OK
        assert "mean_ap" in json.loads((tmp_path / f"eval_{model}" / "report.json").read_text())


def test_non_finite_activation_in_cnn_training_exits_numeric(small_data, tmp_path, capsys):
    # the last step leaves the parameters finite but so large that the
    # validation forward overflows
    manifest, root = small_data
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--manifest", str(manifest), "--features", str(root / "mel"),
                         "--out", str(tmp_path), "--model", "cnn", "--seed", "1",
                         "--epochs", "1", "--batch-size", "64", "--lr", "1e150",
                         "--input-frames", "32"])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:"), err


def _put(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _features(d, model):
    return d["root"] / ("mel" if model == "cnn" else "melstats")


def _train_argv(d, *extra, model="svm", features=None):
    features = features or _features(d, model)
    return ["train", "--manifest", d["manifest"], "--features", features,
            "--out", d["tmp"] / "out", "--model", model, "--seed", "1", *extra]


def _with_split(text):
    return lambda d: _train_argv(d, "--split", _put(d["tmp"] / "split.json", text))


def _with_split_ids(edit, command="train"):
    """train, or evaluate the melstats SVM, with the split that its training
    wrote, the id lists changed by `edit`"""
    def argv(d):
        split = json.loads((d["trained"] / "svm" / "split.json").read_text())
        edit(split)
        path = _put(d["tmp"] / "split.json", json.dumps(split))
        if command == "train":
            return _train_argv(d, "--split", path)
        return ["evaluate", "--checkpoint", d["trained"] / "svm", "--manifest", d["manifest"],
                "--features", _features(d, "svm"), "--out", d["tmp"] / "eval", "--split", path]
    return argv


def _featurize_manifest(text):
    return lambda d: ["featurize", "--manifest", _put(d["tmp"] / "manifest.jsonl", text),
                      "--kind", "melstats", "--out", d["tmp"] / "feats"]


def _with_index(text):
    return lambda d: _train_argv(d, features=_put(d["tmp"] / "f" / "index.json", text).parent)


def _evaluate_meta(model, edit):
    def argv(d):
        model_dir = d["tmp"] / model
        shutil.copytree(d["trained"] / model, model_dir)
        meta = json.loads((model_dir / "model.meta.json").read_text())
        edit(meta)
        _put(model_dir / "model.meta.json", json.dumps(meta))
        return ["evaluate", "--checkpoint", model_dir, "--manifest", d["manifest"],
                "--features", _features(d, model), "--out", d["tmp"] / "eval"]
    return argv


def _boaw_with_first_wav(damage):
    def argv(d):
        manifest, _, _ = _damage_first_wav(d["tiny"], d["tmp"], damage)
        return ["featurize", "--manifest", manifest, "--kind", "boaw", "--boaw-k", "4",
                "--out", d["tmp"] / "boaw"]
    return argv


def _with_first_id(tiny_data, tmp_path, rid):
    """A copy of tiny_data whose first clip has id `rid`; returns its manifest."""
    data = tmp_path / "data"
    shutil.copytree(tiny_data.parent, data)
    lines = (data / "manifest.jsonl").read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "id": rid})
    (data / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    return data / "manifest.jsonl"


def _featurize_with_first_id(rid):
    return lambda d: ["featurize", "--manifest", _with_first_id(d["tiny"], d["tmp"], rid),
                      "--kind", "melstats", "--out", d["tmp"] / "feats"]


def _cut_payload(blob):
    header_end = 8 + int.from_bytes(blob[4:8], "little")
    return blob[: header_end + (len(blob) - header_end) // 2]


def _bad_magic(blob):
    return b"JUNK" + blob[4:]


def _cache_of(kind, shape):
    """A damage that puts a `kind` cache of zeros of `shape` in place of the
    cache, as a featurize run of another kind or flag into the same
    directory would."""
    def damage(blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "other.feat"
            dsp.save_feature(path, np.zeros(shape), {"id": "other", "kind": kind,
                                                     "source_hash": ""})
            return path.read_bytes()
    return damage


def _with_damaged_cache(command, ids, damage, model="svm", nth=0):
    """`command` (train, evaluate or crossval of the melstats SVM, or train
    of the CNN) on a copy of the model's caches in which `damage` rewrote the
    cache of the `nth` id of the `ids` list of the trained model's split: a
    clip the command reads. Records that cache's path as the file the error
    must name."""
    def argv(d):
        split_path = d["trained"] / model / "split.json"
        feats = d["tmp"] / "feats"
        shutil.copytree(_features(d, model), feats)
        victim = feats / f"{json.loads(split_path.read_text())[ids][nth]}.feat"
        victim.write_bytes(damage(victim.read_bytes()))
        d["named"] = victim
        if model == "cnn":
            return _train_argv(d, "--input-frames", "16", "--epochs", "1", model="cnn",
                               features=feats)
        if command == "train":
            return _train_argv(d, features=feats)
        if command == "evaluate":
            return ["evaluate", "--checkpoint", d["trained"] / "svm", "--manifest",
                    d["manifest"], "--features", feats, "--out", d["tmp"] / "eval",
                    "--split", split_path]
        return ["crossval", "--manifest", d["manifest"], "--features", feats, "--out",
                d["tmp"] / "cv", "--model", "svm", "--seed", "1", "--k", "2"]
    return argv


@pytest.mark.parametrize("make_argv,code,label", [
    (_with_split('{"train_ids": ['), cli.EXIT_IO, "I/O failure:"),
    (_with_split('{"train_ids": [], "test_ids": [], "seed": 1}'), cli.EXIT_IO, "I/O failure:"),
    (_featurize_manifest('{"id": "x"\n'), cli.EXIT_IO, "I/O failure:"),
    (_featurize_manifest('{"id": "x"}\n'), cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("svm", lambda m: m.pop("feature_kind")), cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("cnn", lambda m: m.pop("input_frames")), cli.EXIT_IO, "I/O failure:"),
    (_with_index("{"), cli.EXIT_IO, "I/O failure:"),
    (_with_index("[]"), cli.EXIT_IO, "I/O failure:"),
    (_with_index('{"count": 1}'), cli.EXIT_IO, "I/O failure:"),
    (lambda d: _train_argv(d, "--input-frames", "4", "--epochs", "1", model="cnn"),
     cli.EXIT_USAGE, "error:"),
    (_boaw_with_first_wav(_cut_in_header), cli.EXIT_IO, "I/O failure:"),
    (_boaw_with_first_wav(_as_24_bit), cli.EXIT_IO, "I/O failure:"),
    (_with_split('{"train_ids": [], "val_ids": [], "test_ids": [], "seed": 1}'),
     cli.EXIT_USAGE, "error:"),
    (_with_split('{"train_ids": 5, "val_ids": [], "test_ids": [], "seed": 1}'),
     cli.EXIT_IO, "I/O failure:"),
    (_featurize_manifest('{"id": "x", "path": 5, "detection_label": "no_gunshot"}\n'),
     cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("cnn", lambda m: m.update(input_frames="x")), cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("cnn", lambda m: m.update(input_frames=True)), cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("cnn", lambda m: m.update(input_frames=16.0)), cli.EXIT_IO, "I/O failure:"),
    (_evaluate_meta("svm", lambda m: m.update(feature_kind=3)), cli.EXIT_IO, "I/O failure:"),
    (_with_split_ids(lambda s: s["train_ids"].extend(s["test_ids"])),
     cli.EXIT_USAGE, "error:"),
    (_with_split_ids(lambda s: s["train_ids"].append("nope")), cli.EXIT_USAGE, "error:"),
    (_with_split_ids(lambda s: s["val_ids"].append(s["val_ids"][0])),
     cli.EXIT_USAGE, "error:"),
    (_with_split_ids(lambda s: s["test_ids"].extend(s["train_ids"]), "evaluate"),
     cli.EXIT_USAGE, "error:"),
    (_featurize_manifest('{"id": "x", "path": "x.wav", "detection_label": "maybe"}\n'),
     cli.EXIT_USAGE, "error:"),
    (_featurize_with_first_id("../escaped"), cli.EXIT_USAGE, "error:"),
    (_featurize_with_first_id(""), cli.EXIT_USAGE, "error:"),
    (_with_damaged_cache("train", "train_ids", _cut_payload), cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("evaluate", "test_ids", _cut_payload), cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("crossval", "val_ids", _cut_payload), cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("train", "train_ids", _bad_magic), cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("train", "train_ids", _cache_of("autocorr", 2049), nth=1),
     cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("train", "train_ids", _cache_of("melstats", 100), nth=1),
     cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("train", "train_ids", _cache_of("melstats", 100)),
     cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("evaluate", "test_ids", _cache_of("autocorr", 2049)),
     cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("crossval", "val_ids", _cache_of("melstats", 100)),
     cli.EXIT_IO, "I/O failure:"),
    (_with_damaged_cache("train", "train_ids", _cache_of("mel", (171, 64)), "cnn", nth=1),
     cli.EXIT_IO, "I/O failure:"),
], ids=["split-not-json", "split-without-val_ids", "manifest-line-not-json",
        "manifest-line-without-path", "svm-meta-without-feature_kind",
        "cnn-meta-without-input_frames", "index-not-json", "index-not-an-object",
        "index-without-kind", "cnn-input-frames-below-the-pools", "boaw-truncated-wav",
        "boaw-24-bit-wav", "svm-empty-train-split", "split-train_ids-not-a-list",
        "manifest-path-not-a-string", "cnn-meta-input_frames-not-an-int",
        "cnn-meta-input_frames-true", "cnn-meta-input_frames-a-float",
        "svm-meta-feature_kind-not-a-string", "split-test-ids-also-in-train",
        "split-names-an-unknown-clip", "split-lists-a-clip-twice",
        "evaluate-split-train-ids-also-in-test",
        "manifest-detection_label-unknown", "manifest-id-outside-the-out-dir",
        "manifest-id-empty", "train-cache-payload-cut", "evaluate-cache-payload-cut",
        "crossval-cache-payload-cut", "train-cache-bad-magic", "train-cache-of-another-kind",
        "train-cache-of-another-length", "train-first-cache-of-another-length",
        "evaluate-cache-of-another-kind", "crossval-cache-of-another-length",
        "cnn-train-cache-of-another-band-count"])
def test_unusable_input_exits_with_its_code_and_one_line(small_data, trained_models, tiny_data,
                                                         tmp_path, capsys, make_argv, code, label):
    manifest, root = small_data
    d = {"manifest": manifest, "root": root, "trained": trained_models, "tiny": tiny_data,
         "tmp": tmp_path}
    argv = make_argv(d)
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(label), err
    assert str(d.get("named", "")) in err[0]


@pytest.mark.parametrize("rid", ["../escaped", "../../escaped", "a/../../escaped"])
def test_manifest_id_outside_the_out_dir_writes_nothing(tiny_data, tmp_path, capsys, rid):
    manifest = _with_first_id(tiny_data, tmp_path, rid)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code = cli.main(["featurize", "--manifest", str(manifest), "--kind", "melstats",
                     "--out", str(tmp_path / "a" / "feats")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and repr(rid) in err[0], err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def svm_crossval(melstats_data, tmp_path_factory):
    manifest, feats = melstats_data
    out = tmp_path_factory.mktemp("crossval")
    assert _crossval(manifest, feats, out, "svm") == cli.EXIT_OK
    return out


def test_svm_crossval_fold_reports(svm_crossval):
    folds = json.loads((svm_crossval / "aggregate.json").read_text())["folds"]
    assert len(folds) == 5
    for fold in folds:
        report = json.loads((svm_crossval / f"fold{fold['fold']}" / "report.json").read_text())
        assert report["model_meta"]["feature_kind"] == "melstats"
        assert np.sum(report["detection"]["confusion"]) == fold["test_size"]


def test_svm_crossval_rerun_is_byte_identical(melstats_data, svm_crossval, tmp_path):
    manifest, feats = melstats_data
    assert _crossval(manifest, feats, tmp_path, "svm") == cli.EXIT_OK
    name = "aggregate.json"
    assert (tmp_path / name).read_bytes() == (svm_crossval / name).read_bytes()


def test_svm_crossval_folds_equal_folds_fitted_alone(melstats_data, svm_crossval, tmp_path,
                                                      monkeypatch):
    """crossval solves the 5 folds' machines in one solver run; each fold's
    report, and the aggregate, has the bytes of folds fitted one at a time."""
    manifest, feats = melstats_data
    runs = []
    solve = models._train_svms

    def counted(problems, *args):
        runs.append(len(problems))
        return solve(problems, *args)

    monkeypatch.setattr(models, "_train_svms", counted)
    assert _crossval(manifest, feats, tmp_path / "batched", "svm") == cli.EXIT_OK
    assert runs == [5]
    monkeypatch.setattr(models, "SVM_BATCH_BYTES", 0)     # every fold alone
    assert _crossval(manifest, feats, tmp_path / "alone", "svm") == cli.EXIT_OK
    assert runs == [5] + [1] * 5
    for out in (tmp_path / "batched", tmp_path / "alone"):
        assert (out / "aggregate.json").read_bytes() == \
            (svm_crossval / "aggregate.json").read_bytes()

    rows = load_manifest(manifest)
    split = evaluation.stratified_split(rows, seed=1)
    pool = [r for r in rows if r.id in set(split.train_ids) | set(split.val_ids)]
    folds = evaluation.kfold(evaluation.strata(pool), k=5, seed=1)
    assert len({len(fold) for fold in folds}) > 1
    cached = cli._load_features(feats, pool, "melstats")
    by_id = {r.id: r for r in pool}
    for i, fold in enumerate(folds):
        train_rows = [by_id[x] for j, other in enumerate(folds) if j != i for x in other]
        x = np.stack([cached[r.id] for r in train_rows])
        scaler = models.Standardizer.fit(x)
        svm = models.svm_train(scaler.transform(x), cli._labels_for(train_rows), epochs=30,
                               n_classes=N_CLASSES)
        report = cli.evaluate_rows((svm, scaler), {"model": "svm", "feature_kind": "melstats"},
                                   [by_id[x] for x in fold], cached, 0.0,
                                   dataset_hash=manifest_digest(manifest), split_seed=1,
                                   config={"fold": i})
        write_json(tmp_path / f"alone{i}.json", report)
        expected = (tmp_path / f"alone{i}.json").read_bytes()
        for out in (svm_crossval, tmp_path / "batched", tmp_path / "alone"):
            assert (out / f"fold{i}" / "report.json").read_bytes() == expected


def test_svm_crossval_honours_threshold(melstats_data, tmp_path):
    manifest, feats = melstats_data
    confusions = []
    for threshold in ("0.0", "5.0"):
        out = tmp_path / threshold
        assert _crossval(manifest, feats, out, "svm", "--threshold", threshold) == cli.EXIT_OK
        reports = [json.loads((out / f"fold{i}" / "report.json").read_text()) for i in range(5)]
        assert all(r["threshold"] == float(threshold) for r in reports)
        confusions.append([r["detection"]["confusion"] for r in reports])
    assert confusions[0] != confusions[1]


def _run_pipeline(root):
    """Every command on a 30-clip dataset; returns {command and target: exit code}."""
    data = root / "data"
    manifest = str(data / "manifest.jsonl")
    codes = {"generate": cli.main(["generate", "--out", str(data), "--per-class", "5",
                                   "--negatives", "5", "--seed", "1"])}
    for kind in cli.FEATURE_KINDS:
        codes[f"featurize {kind}"] = cli.main([
            "featurize", "--manifest", manifest, "--kind", kind, "--out", str(root / kind),
            "--boaw-k", "8", "--seed", "1"])
    models_by_kind = {"melstats": ["svm"], "boaw": ["svm"], "autocorr": ["svm"],
                      "mel": ["cnn", "--epochs", "1", "--input-frames", "32"]}
    for kind, model in models_by_kind.items():
        ckpt = root / f"{model[0]}_{kind}"
        codes[f"train {kind}"] = cli.main([
            "train", "--manifest", manifest, "--features", str(root / kind),
            "--out", str(ckpt), "--seed", "1", "--model", *model])
        codes[f"evaluate {kind}"] = cli.main([
            "evaluate", "--checkpoint", str(ckpt), "--manifest", manifest,
            "--features", str(root / kind), "--out", str(root / f"eval_{kind}"),
            "--split", str(ckpt / "split.json"), "--threshold", "0.5"])
    codes["crossval"] = _crossval(manifest, root / "melstats", root / "crossval", "svm")
    return codes


def test_pipeline_runs_end_to_end_and_reruns_byte_for_byte(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for root in runs:
        codes = _run_pipeline(root)
        assert codes == dict.fromkeys(codes, cli.EXIT_OK)
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    # each command writes config.json; generate 30 WAVs and a manifest, featurize
    # 30 caches and an index, train 4 files, evaluate 2 reports, crossval 5 + 1
    assert len(files) == 32 + 4 * 32 + 4 * 5 + 4 * 3 + 7
    assert files == sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    for name in files:
        if name.name != "config.json":    # it echoes the output paths
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def _fresh_process_env(**extra):
    """The environment plus `extra`, importing the package under test."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                         os.environ.get("PYTHONPATH")])))


def _run_cnn_pipeline_in_fresh_processes(root, hash_seed, blas_threads):
    """generate, featurize --kind mel, train --model cnn and evaluate, each as
    its own `python -m gunshot_bench.cli` process with the given
    PYTHONHASHSEED and OpenBLAS thread count, importing the package under
    test."""
    env = _fresh_process_env(PYTHONHASHSEED=str(hash_seed),
                             OPENBLAS_NUM_THREADS=str(blas_threads))
    manifest, mel, ckpt = root / "data" / "manifest.jsonl", root / "mel", root / "cnn"
    for argv in (
        ["generate", "--out", root / "data", "--per-class", "4", "--negatives", "6",
         "--seed", "1"],
        ["featurize", "--manifest", manifest, "--kind", "mel", "--out", mel],
        ["train", "--manifest", manifest, "--features", mel, "--out", ckpt, "--model", "cnn",
         "--seed", "1", "--epochs", "2", "--batch-size", "4", "--input-frames", "32"],
        ["evaluate", "--checkpoint", ckpt, "--manifest", manifest, "--features", mel,
         "--out", root / "eval", "--split", ckpt / "split.json", "--threshold", "0.5"],
    ):
        subprocess.run([sys.executable, "-m", "gunshot_bench.cli", *map(str, argv)],
                       env=env, check=True, capture_output=True)


def test_cnn_pipeline_reruns_byte_for_byte_in_a_fresh_process(tmp_path):
    # boaw is left out: its codebook sample still hashes with Python's
    # per-process salt (the benchmark fault boaw-rerun-bytes). The two runs
    # also differ in BLAS threads: at --input-frames 32 and batch 4, conv1's
    # 16x9 by 9x16384 GEMM is large enough for OpenBLAS to split.
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for n, root in enumerate(runs, start=1):
        _run_cnn_pipeline_in_fresh_processes(root, hash_seed=n, blas_threads=n)
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    assert {"cnn/model.ckpt", "cnn/history.json", "eval/report.json"} <= set(map(str, files))
    for name in files:
        if name.name != "config.json":    # it echoes the output paths
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# featurize --kind melstats as a warm-up, then --kind mel, in one process;
# prints the minor page faults of the second run
_FAULTS_OF_A_MEL_FEATURIZE = """
import resource, sys
from gunshot_bench import cli
manifest, out = sys.argv[1:]
def featurize(kind):
    assert cli.main(["featurize", "--manifest", manifest, "--kind", kind,
                     "--out", out + "/" + kind]) == 0
featurize("melstats")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
featurize("mel")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_featurize_reuses_freed_memory_in_a_fresh_process(tmp_path):
    # with glibc's default policy each clip's freed arrays go back to the OS
    # and the next clip faults them in again: about 390 minor faults per clip
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--per-class", "5", "--negatives", "5",
                     "--seed", "1"]) == cli.EXIT_OK
    clips = len((data / "manifest.jsonl").read_text().splitlines())
    assert clips == 30
    proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_MEL_FEATURIZE,
                           str(data / "manifest.jsonl"), str(tmp_path)],
                          env=_fresh_process_env(), check=True, capture_output=True, text=True)
    faults = int(proc.stdout.splitlines()[-1])
    assert faults < 100 * clips, f"{faults / clips:.0f} minor faults per clip"
