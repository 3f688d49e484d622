"""Operator-facing pipeline: generate -> featurize -> train -> evaluate,
plus k-fold cross-validation. Once a command has checked its input, it
echoes its fully-resolved config (defaults and seeds included) into the
output directory, so a refused run leaves no config behind; rerunning an
identical config reproduces identical outputs byte for byte. `featurize`
echoes it next to the caches once every clip is done, because it finds a
flag the clips cannot meet (more codewords than descriptors, a lag beyond a
clip) only while fitting the codebook or computing a clip. A feature
directory is its caches: each cache's header holds its kind, and the
commands that read a directory take its kind from the first cache they
read. `generate` moves its dataset into place only once every clip is
written, so a failed run leaves none behind.

Exit codes: 0 ok, 2 usage error (including flags that do not go together:
`generate --preset` with `--per-class`, `generate --scale` without
`--preset`, `evaluate --subset` without `--split`, `train` or `crossval
--model svm` with a flag only the CNN reads; and data the command
cannot use, such as a manifest row whose detection_label is neither gunshot
nor no_gunshot or whose id is not one plain file name, or a split that
names a clip the manifest lacks or lists one clip twice, in one list or
across two), 3 I/O failure (including a checkpoint not the exact .npz of its
entries, a model directory that cannot be used, or a feature cache that
fails its check: a bad magic, a header that does not parse, another
version, a payload cut short of its shape, or another kind or shape than
the first cache read, the frame count of a mel cache aside), 4 numeric
failure.
Each error class carries its code (see `errors`). A file that does not
parse, or lacks a key the command needs or holds it with the wrong type (a
manifest line, a split, `model.meta.json`, a WAV), exits 3.
`featurize` decides whether a cache is up to date from its header alone:
its source_hash covers the clip's WAV bytes, the feature parameters (kind,
window, hop, mel bands and the kind's own flags) and, for boaw, the
centroids of the codebook that encoded it, so a codebook fit to another
manifest recomputes every cache.
"""

import argparse
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
import wave as wave_mod
from pathlib import Path

import numpy as np

from . import dsp, evaluation, models, nncore, synthgun
from .errors import (GunshotBenchError, InvalidParam, IOFailure, MalformedFile, NumericFailure,
                     UsageError)
from .manifest import (GUNSHOT, N_CLASSES, NEGATIVE_LABEL, NO_GUNSHOT, load_manifest,
                       manifest_digest, read_json, require_keys, write_json)
from .synthgun import CLASS_ORDER
from .wavio import read_wav

EXIT_OK = 0
EXIT_USAGE = UsageError.exit_code
EXIT_IO = IOFailure.exit_code
EXIT_NUMERIC = NumericFailure.exit_code

FEATURE_KINDS = ("mel", "melstats", "boaw", "autocorr")
DEFAULT_AUTOCORR_LAG = 2048


def _echo_config(args, out_dir, command):
    """Write the resolved config for provenance/reruns."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved["command"] = command
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", resolved)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

PER_CLASS = 20         # --per-class of a run that gives neither it nor --preset
PRESET_SCALE = 0.05    # --scale of a --preset run that gives none


def _class_counts(args):
    """Clips per class: --per-class of each (PER_CLASS when not given), or
    the --preset mix at --scale (PRESET_SCALE when not given); a default is
    written back to args so that config.json records it, and only the one
    the run uses. argparse refuses --preset with --per-class."""
    if args.preset is None:
        if args.scale is not None:
            raise UsageError("--scale applies only to a --preset class mix")
        if args.per_class is None:
            args.per_class = PER_CLASS
        return {fc: args.per_class for fc in CLASS_ORDER}
    if args.scale is None:
        args.scale = PRESET_SCALE
    return synthgun.reference_counts(args.scale)


def cmd_generate(args):
    out_dir = Path(args.out)
    counts = _class_counts(args)
    if sum(counts.values()) + args.negatives == 0:
        raise UsageError("nothing to generate: the requested class mix has 0 clips")
    # Build the dataset beside out_dir and move it in once every clip is
    # written, so a run that fails part way (a scene the synthesizer
    # refuses, a full disk) leaves no partial dataset. A new out_dir is one
    # rename; into an existing one the files move one by one, manifest last.
    staging = out_dir.parent / f".{out_dir.name}.partial-{os.getpid()}"
    try:
        _echo_config(args, staging, "generate")
        rows = synthgun.generate_dataset(counts, args.negatives, not args.noisy,
                                         staging, args.seed)
        if not out_dir.exists():
            staging.rename(out_dir)
        else:
            for src in sorted(staging.rglob("*"), key=lambda p: p.name == "manifest.jsonl"):
                if src.is_file():
                    dest = out_dir / src.relative_to(staging)
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(src, dest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    hist = {fc.value: counts.get(fc, 0) for fc in CLASS_ORDER}
    print(f"wrote {len(rows)} clips to {out_dir}")
    print(f"class histogram: {json.dumps(hist)} + {json.dumps({NO_GUNSHOT: args.negatives})}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def _source_hash(wav_bytes, params):
    h = hashlib.sha256(wav_bytes)
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()


def _extract(kind, clip, boaw_codebook=None, autocorr_lag=DEFAULT_AUTOCORR_LAG):
    mel = dsp.mel_spectrogram(clip)
    if kind == "mel":
        return mel.frames
    if kind == "melstats":
        return dsp.mel_stats(mel).values
    if kind == "boaw":
        return dsp.boaw_encode(mel, boaw_codebook).values
    return dsp.autocorrelation(clip, autocorr_lag)


def _load_clip(base, row, wav_bytes):
    """The clip of `row`, decoded from `wav_bytes`, the bytes read from its
    WAV (and hashed, in featurize); MalformedFile naming the WAV if they do
    not decode."""
    try:
        samples, rate = read_wav(io.BytesIO(wav_bytes))
    except (wave_mod.Error, EOFError, ValueError) as e:
        raise MalformedFile(f"{base / row.path}: {str(e) or type(e).__name__}") from None
    clip = synthgun.AudioClip(samples, rate, {"id": row.id})
    if rate != dsp.SAMPLE_RATE or samples.ndim != 1:
        clip = dsp.normalize_input(clip)
    return clip


BOAW_FRAMES_PER_CLIP = 32    # log-mel frames each clip gives the codebook fit


def _fit_boaw_codebook(base, rows, k, seed):
    """Codebook over a deterministic subsample of log-mel frames, written
    into one preallocated matrix so the descriptors are held once. Each
    clip's mel is computed for its sampled frames only: the draw needs only
    the clip's frame count, and the selected rows are the full mel's rows
    bit for bit."""
    frames = np.empty((len(rows) * BOAW_FRAMES_PER_CLIP, dsp.N_MELS))
    filled = 0
    for row in rows:
        clip = _load_clip(base, row, (base / row.path).read_bytes())
        n_frames = dsp.frame_count(len(clip.samples))
        rng = np.random.default_rng([seed, hash(row.id) & 0x7FFFFFFF])
        take = min(BOAW_FRAMES_PER_CLIP, n_frames)
        picked = rng.choice(n_frames, size=take, replace=False)
        frames[filled : filled + take] = dsp.mel_spectrogram(clip, picked).frames
        filled += take
    return dsp.kmeans_fit(frames[:filled], k=k, iters=25, seed=seed)


def cmd_featurize(args):
    manifest_path = Path(args.manifest)
    rows = load_manifest(manifest_path)
    if not rows:
        raise UsageError(f"manifest {manifest_path} lists no clips")
    base = manifest_path.parent

    # what each cache's source_hash covers besides its WAV bytes
    params = {"kind": args.kind, "win": dsp.WIN_SAMPLES, "hop": dsp.HOP_SAMPLES,
              "n_mels": dsp.N_MELS}
    codebook = None
    if args.kind == "boaw":
        codebook = _fit_boaw_codebook(base, rows, args.boaw_k, args.seed)
        params.update(boaw_k=args.boaw_k, boaw_seed=args.seed,
                      codebook=hashlib.sha256(codebook.centroids.tobytes()).hexdigest())
    if args.kind == "autocorr":
        params.update(max_lag=args.autocorr_lag)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    computed = skipped = 0
    corrupt = []
    for row in rows:
        dest = out_dir / f"{row.id}.feat"
        try:
            wav_bytes = (base / row.path).read_bytes()
        except OSError as e:
            corrupt.append((row.id, str(e)))
            continue
        src_hash = _source_hash(wav_bytes, params)
        if dest.exists():
            try:
                hdr = dsp.read_feature_header(dest)
                if hdr.get("source_hash") == src_hash:
                    skipped += 1
                    continue
            except (MalformedFile, OSError):
                pass
        try:
            clip = _load_clip(base, row, wav_bytes)
            values = _extract(args.kind, clip, codebook, args.autocorr_lag)
        except InvalidParam:
            raise    # a flag the clip cannot meet, such as a lag beyond its length
        except ValueError as e:
            corrupt.append((row.id, str(e)))
            continue
        dsp.save_feature(dest, values, {"id": row.id, "kind": args.kind,
                                        "source_hash": src_hash})
        computed += 1

    _echo_config(args, out_dir, "featurize")
    print(f"featurize: {computed} computed, {skipped} up-to-date, "
          f"{len(corrupt)} failed")
    for cid, msg in corrupt:
        print(f"  FAILED {cid}: {msg}", file=sys.stderr)
    return EXIT_IO if corrupt else EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

CNN_DEFAULTS = {"batch_size": 16, "lr": 1e-3, "patience": 5}


def _resolve_cnn_flags(args):
    """Flags only the CNN reads: an SVM run given one exits 2, and a CNN run
    gets the default of each it was not given, written back to args so that
    config.json records it."""
    for name, default in CNN_DEFAULTS.items():
        if getattr(args, name) is None:
            if args.model == "cnn":
                setattr(args, name, default)
        elif args.model != "cnn":
            raise UsageError(f"--{name.replace('_', '-')} applies only to --model cnn")


def _load_features(features_dir, rows):
    """(features, kind): the cached features of `rows` only, kept as the
    cache's float32 (every consumer casts to float64, which is exact), and
    the kind in the first cache's header, None for no rows. MalformedFile
    naming the first cache if its header holds no kind, or naming a cache
    and the first one read when their kinds or shapes differ (for `mel`,
    whose frame count follows the clip's length, their band counts)."""
    feats, kind, first = {}, None, None
    for row in rows:
        path = Path(features_dir) / f"{row.id}.feat"
        if not path.exists():
            raise UsageError(f"missing feature cache for {row.id}; run featurize first")
        values, hdr = dsp.load_feature(path)
        if first is None:
            kind, first = require_keys(hdr, {"kind": str}, path)["kind"], (path, values.shape)
            fixed = slice(1, None) if kind == "mel" else slice(None)
        if hdr.get("kind") != kind:
            raise MalformedFile(f"{path}: cache of kind {hdr.get('kind')!r}; "
                                f"{first[0]} is of kind {kind!r}")
        if values.shape[fixed] != first[1][fixed]:
            raise MalformedFile(f"{path}: shape {values.shape} does not match "
                                f"{first[0]}'s {first[1]}")
        feats[row.id] = values
    return feats, kind


def _labels_for(rows):
    """The gun-type label of each row, NEGATIVE_LABEL for no gunshot."""
    return np.array([r.class_index if r.class_index is not None
                     else NEGATIVE_LABEL for r in rows])


def _split_rows(rows, split):
    """The (train, val, test) rows of `split`; InvalidParam naming the first
    id that no row has or that the split lists twice, so no clip reaches
    two subsets."""
    by_id = {r.id: r for r in rows}
    seen = set()
    for i in split.train_ids + split.val_ids + split.test_ids:
        if not isinstance(i, str) or i not in by_id:
            raise InvalidParam(f"split names clip {i!r}, which the manifest lacks")
        if i in seen:
            raise InvalidParam(f"split lists clip {i!r} twice")
        seen.add(i)
    pick = lambda ids: [by_id[i] for i in ids]
    return pick(split.train_ids), pick(split.val_ids), pick(split.test_ids)


def _mel_set(rows, feats):
    return models.LabeledMelSet([feats[r.id] for r in rows], _labels_for(rows))


def _check_kind(model, kind):
    """UsageError unless `model` reads `kind`; None (no cache read) passes."""
    if kind is not None and (model == "cnn") != (kind == "mel"):
        need = "kind=mel" if model == "cnn" else "vector (melstats/boaw/autocorr)"
        raise UsageError(f"{model} needs {need} features, found {kind}")


def _fit(args, kind, row_sets, val_rows, feats):
    """Train `--model` on each list of training rows in `row_sets` and yield
    (bundle, meta, arrays, history) for each, in order, writing nothing:
    bundle has the shape `load_model` returns, arrays are the checkpoint's
    contents. The CNN takes one list and early-stops on val_rows. The SVM
    solves the lists of each run that models.svm_batches picks in one solver
    run, and each fit has the bytes of a fit of its list alone."""
    for train_rows in row_sets:
        if not train_rows:
            raise InvalidParam(f"{args.model} training needs train clips, got 0")
    meta = {"model": args.model, "feature_kind": kind}
    if args.model == "cnn":
        (train_rows,) = row_sets
        model = models.JointCnnModel(seed=args.seed)
        history = models.cnn_train(model, _mel_set(train_rows, feats), _mel_set(val_rows, feats),
                                   epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                                   patience=args.patience, seed=args.seed)
        meta.update(threshold=args.threshold)
        yield model, meta, model.named_arrays(), history
        return

    meta.update(threshold=0.0 if args.threshold is None else args.threshold)
    for run in models.svm_batches([len(rows) for rows in row_sets]):
        scalers, problems = [], []
        for rows in (row_sets[p] for p in run):
            x = np.stack([feats[r.id] for r in rows])
            scalers.append(models.Standardizer.fit(x))
            problems.append((scalers[-1].transform(x), _labels_for(rows)))
        knobs = {"epochs": args.epochs, "n_classes": N_CLASSES}
        # a run of one goes through svm_train, the entry point the benchmark traces
        svms = ([models.svm_train(*problems[0], **knobs)] if len(problems) == 1
                else models.svm_train_batch(problems, **knobs))
        for svm, scaler in zip(svms, scalers):
            arrays = {
                "weights": svm.weights, "biases": svm.biases,
                "scaler_mean": scaler.mean, "scaler_std": scaler.std,
            }
            if svm.det_weight is not None:
                arrays["det_weight"] = svm.det_weight
                arrays["det_bias"] = np.array([svm.det_bias])
            history = [{"machine": i, "objective": h}
                       for i, h in enumerate(svm.objective_history)]
            yield (svm, scaler), meta, arrays, history


def _say_capped(who, svm, epochs):
    """Tell stderr how many of the SVM's machines the sweep cap stopped."""
    capped = svm.converged.count(False)
    if capped:
        print(f"{who}: {capped} of {len(svm.converged)} machines stopped at the "
              f"{epochs}-sweep cap before KKT tolerance {models.SVM_KKT_TOL:g}",
              file=sys.stderr)


def cmd_train(args):
    _resolve_cnn_flags(args)
    out_dir = Path(args.out)
    rows = load_manifest(Path(args.manifest))
    if args.split:
        split = evaluation.SplitSpec.load(args.split)
    else:
        split = evaluation.stratified_split(rows, seed=args.seed)
    train_rows, val_rows, _ = _split_rows(rows, split)
    feats, kind = _load_features(args.features, train_rows + val_rows)
    _check_kind(args.model, kind)

    t0 = time.perf_counter()
    [(bundle, meta, arrays, history)] = _fit(args, kind, [train_rows], val_rows, feats)
    seconds = round(time.perf_counter() - t0, 3)
    if args.model == "svm":
        _say_capped("svm", bundle[0], args.epochs)

    _echo_config(args, out_dir, "train")
    split.save(out_dir / "split.json")
    nncore.save_checkpoint(out_dir / "model.ckpt", arrays)
    write_json(out_dir / "model.meta.json", meta)
    write_json(out_dir / "history.json", history)
    print(f"trained {args.model} in {seconds}s; "
          f"checkpoint at {out_dir / 'model.ckpt'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def load_model(checkpoint_dir):
    """The (bundle, meta) that `train` wrote to checkpoint_dir: a
    JointCnnModel or an (SvmModel, Standardizer) pair. A directory that
    cannot be used raises MalformedFile naming it and the bad entry."""
    checkpoint_dir = Path(checkpoint_dir)
    meta = read_json(checkpoint_dir / "model.meta.json", {"model": str, "feature_kind": str},
                     f"{checkpoint_dir}: model.meta.json")
    arrays = nncore.load_checkpoint(checkpoint_dir / "model.ckpt")
    kind = meta["model"]
    if kind == "cnn":
        model = models.JointCnnModel(seed=0)
        shapes = {name: a.shape for name, a in model.named_arrays().items()}
    elif kind == "svm":
        d = np.shape(arrays.get("weights"))[-1:]    # the feature length
        shapes = {"weights": (N_CLASSES, *d), "biases": (N_CLASSES,),
                  "scaler_mean": d, "scaler_std": d}
        if "det_weight" in arrays or "det_bias" in arrays:
            shapes.update(det_weight=d, det_bias=(1,))
    else:
        raise MalformedFile(f"{checkpoint_dir}: model.meta.json names no known "
                            f"model ({kind!r})")
    for name, shape in shapes.items():
        found = arrays[name].shape if name in arrays else "no entry"
        if found != shape:
            raise MalformedFile(f"{checkpoint_dir}: model.ckpt entry {name}: "
                                f"expected shape {shape}, found {found}")
    if kind == "cnn":
        model.load_arrays(arrays)
        return model, meta
    svm = models.SvmModel(
        weights=arrays["weights"], biases=arrays["biases"],
        det_weight=arrays.get("det_weight"),
        det_bias=float(arrays["det_bias"][0]) if "det_bias" in arrays else 0.0)
    scaler = models.Standardizer(arrays["scaler_mean"], arrays["scaler_std"])
    return (svm, scaler), meta


def evaluate_rows(model_bundle, meta, rows, feats, threshold, *, dataset_hash, split_seed,
                  config):
    """The report of the model on `rows`, predicting one clip at a time."""
    if meta["model"] == "cnn":
        preds = [models.cnn_forward(model_bundle, feats[r.id], threshold=threshold)
                 for r in rows]
    else:
        svm, scaler = model_bundle
        preds = [models.svm_prediction(svm, scaler.transform(feats[r.id]), threshold=threshold)
                 for r in rows]
    return evaluation.build_report(
        [r.class_index for r in rows], [p.detected for p in preds],
        [int(np.argmax(p.type_posteriors)) for p in preds], np.stack([p.scores for p in preds]),
        threshold=threshold, dataset_hash=dataset_hash, split_seed=split_seed,
        model_meta={k: meta[k] for k in ("model", "feature_kind")}, config=config)


def cmd_evaluate(args):
    if args.split:
        args.subset = args.subset or "test"
    elif args.subset:
        raise UsageError("--subset picks clips of a --split; give the split too")
    out_dir = Path(args.out)
    rows = load_manifest(Path(args.manifest))
    model_bundle, meta = load_model(args.checkpoint)
    threshold = args.threshold if args.threshold is not None else meta.get("threshold", 0.5)

    split_seed = None
    if args.split:
        split = evaluation.SplitSpec.load(args.split)
        split_seed = split.seed
        train_rows, val_rows, test_rows = _split_rows(rows, split)
        subset = {"train": train_rows, "val": val_rows, "test": test_rows}[args.subset]
        if args.subset == "train":
            print("WARNING: evaluating on the training split (leakage)", file=sys.stderr)
    else:
        subset = rows
    if not subset:
        raise UsageError(f"no clips to evaluate: the {args.subset} subset is empty"
                         if args.split else f"manifest {args.manifest} lists no clips")

    feats, kind = _load_features(args.features, subset)
    if kind != meta["feature_kind"]:
        raise UsageError(f"feature kind {kind} does not match model ({meta['feature_kind']})")
    if meta["model"] == "svm":
        # a cache of the right kind featurized with another --autocorr-lag or --boaw-k
        want = model_bundle[0].weights.shape[1]
        other = {f.shape[-1] for f in feats.values()} - {want}
        if other:
            raise UsageError(f"{args.features} holds features of length {min(other)}; "
                             f"the model was trained on length {want}")
    _echo_config(args, out_dir, "evaluate")

    report = evaluate_rows(
        model_bundle, meta, subset, feats, threshold,
        dataset_hash=manifest_digest(args.manifest), split_seed=split_seed,
        config={"subset": args.subset, "threshold": threshold})
    write_json(out_dir / "report.json", report)
    text = evaluation.render_text_report(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------

def cmd_crossval(args):
    _resolve_cnn_flags(args)
    out_dir = Path(args.out)
    rows = load_manifest(Path(args.manifest))
    split = evaluation.stratified_split(rows, seed=args.seed)
    pool_ids = set(split.train_ids) | set(split.val_ids)
    pool = [r for r in rows if r.id in pool_ids]
    if args.k > len(pool):
        raise UsageError(f"--k {args.k} exceeds the {len(pool)} clips in the pool")
    folds = evaluation.kfold(evaluation.strata(pool), k=args.k, seed=args.seed)
    feats, kind = _load_features(args.features, pool)
    _check_kind(args.model, kind)
    _echo_config(args, out_dir, "crossval")
    by_id = {r.id: r for r in pool}
    default = 0.5 if args.model == "cnn" else 0.0    # a probability vs an SVM margin
    threshold = default if args.threshold is None else args.threshold
    dataset_hash = manifest_digest(args.manifest)

    train_sets = [[by_id[x] for j, other in enumerate(folds) if j != i for x in other]
                  for i in range(len(folds))]

    def cnn_fits():
        for rows in train_sets:
            val_split = evaluation.stratified_split(rows, ratios=(0.8, 0.2, 0.0), seed=args.seed)
            train_rows, val_rows, _ = _split_rows(rows, val_split)
            yield from _fit(args, kind, [train_rows], val_rows, feats)

    # the SVM solves every fold's machines in as few solver runs as
    # models.svm_batches allows; each fold is then evaluated in order
    fits = _fit(args, kind, train_sets, [], feats) if args.model == "svm" else cnn_fits()
    fold_metrics = []
    for i, (fold, (bundle, meta, _, _)) in enumerate(zip(folds, fits)):
        if args.model == "svm":
            _say_capped(f"svm fold {i}", bundle[0], args.epochs)
        fold_dir = out_dir / f"fold{i}"
        fold_dir.mkdir(exist_ok=True)
        test_rows = [by_id[x] for x in fold]
        report = evaluate_rows(bundle, meta, test_rows, feats, threshold,
                               dataset_hash=dataset_hash, split_seed=args.seed,
                               config={"fold": i})
        write_json(fold_dir / "report.json", report)
        fold_metrics.append({
            "fold": i,
            "test_size": len(test_rows),
            "detection_f1_gunshot": report["detection"]["per_class"][GUNSHOT]["f1"],
            "type_macro_f1_overall": evaluation.macro_f1(report["type_overall"]["per_class"]),
            "type_macro_f1_relevant": evaluation.macro_f1(report["type_relevant"]["per_class"]),
            "mean_ap": report["mean_ap"],
        })

    keys = ["detection_f1_gunshot", "type_macro_f1_overall",
            "type_macro_f1_relevant", "mean_ap"]
    aggregate = {}
    for key in keys:
        vals = [m[key] for m in fold_metrics if m[key] is not None]
        aggregate[key] = {"mean": float(np.mean(vals)) if vals else None,
                          "std": float(np.std(vals)) if vals else None}
    write_json(out_dir / "aggregate.json", {"folds": fold_metrics, "aggregate": aggregate})
    print(json.dumps(aggregate, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, accept, what):
    """An argparse `type=`: a value `convert` or `accept` refuses exits 2."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = convert.__name__    # argparse prints "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_finite = _checked(float, math.isfinite, "a finite number")


def _add_train_flags(p):
    p.add_argument("--model", choices=("svm", "cnn"), required=True)
    p.add_argument("--epochs", type=_positive_int, default=30,
                   help="cnn: training epochs; svm: maximum dual-solver sweeps "
                        "per machine (stops earlier once converged)")
    cnn_only = lambda name: f"cnn only (default {CNN_DEFAULTS[name]})"
    p.add_argument("--batch-size", type=_positive_int, help=cnn_only("batch_size"))
    p.add_argument("--lr", type=_positive, help=cnn_only("lr"))
    p.add_argument("--patience", type=_non_negative_int, help=cnn_only("patience"))
    p.add_argument("--threshold", type=_finite, default=None,
                   help="decision threshold; cnn default 0.5, svm 0.0")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsb",
        description="Synthetic gunshot audio benchmark pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a labeled WAV dataset")
    g.add_argument("--out", required=True)
    mix = g.add_mutually_exclusive_group()
    mix.add_argument("--per-class", type=_non_negative_int,
                     help=f"clips per gun class (default {PER_CLASS})")
    mix.add_argument("--preset", choices=("paper-ratio",))
    g.add_argument("--scale", type=_positive,
                   help=f"scale factor for the preset class mix (default {PRESET_SCALE})")
    g.add_argument("--negatives", type=_non_negative_int, default=0)
    g.add_argument("--noisy", action="store_true",
                   help="low SNR, reverb, random distances (default is clean)")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("featurize", help="extract feature caches for a manifest")
    f.add_argument("--manifest", required=True)
    f.add_argument("--kind", choices=FEATURE_KINDS, required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--boaw-k", type=_checked(int, lambda v: v >= 2, "an integer >= 2"),
                   default=64)
    f.add_argument("--autocorr-lag", type=_non_negative_int, default=DEFAULT_AUTOCORR_LAG)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=cmd_featurize)

    t = sub.add_parser("train", help="train a classifier on cached features")
    t.add_argument("--manifest", required=True)
    t.add_argument("--features", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--split", help="reuse an existing split file")
    t.add_argument("--seed", type=int, default=0)
    _add_train_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint, emit reports")
    e.add_argument("--checkpoint", required=True,
                   help="training output directory (model.ckpt + model.meta.json)")
    e.add_argument("--manifest", required=True)
    e.add_argument("--features", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--split")
    e.add_argument("--subset", choices=("train", "val", "test"),
                   help="subset of --split to score (default test)")
    e.add_argument("--threshold", type=_finite, default=None)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("crossval", help="k-fold cross-validation over train+val")
    c.add_argument("--manifest", required=True)
    c.add_argument("--features", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--k", type=int, default=5)
    c.add_argument("--seed", type=int, default=0)
    _add_train_flags(c)
    c.set_defaults(func=cmd_crossval)

    return parser


@functools.cache
def _keep_freed_memory():
    """Let malloc reuse the memory that a clip or a training step frees
    instead of handing it back to the OS and faulting it in again: never
    trim the heap (a command is one short process), and mmap only blocks of
    32 MB and up, glibc's own ceiling for its dynamic mmap threshold. Setting
    either value turns that dynamic threshold off, and its 128 KB start
    would then mmap every large array afresh, so both are set. And keep to
    the one main arena: glibc gives each thread that allocates its own, so
    the memory a worker thread (generate's synthesizers) frees would stay
    in that worker's arena, never trimmed either and out of the main
    thread's reach, and each worker's arena would add to the peak. A no-op
    where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, -1)             # M_TRIM_THRESHOLD: never
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-8, 1)              # M_ARENA_MAX: the main arena only


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except GunshotBenchError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"{IOFailure.label}: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
