"""CLI exit codes for inputs the pipeline cannot use: each ends in its
documented code and a one-line message, never in a traceback."""

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
