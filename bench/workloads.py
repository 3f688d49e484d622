"""The benchmark's workloads, driven through `cli.main` and the public
functions of each module.

A run builds its inputs from the workload seed (set-up, repeated SETUPS
times), then repeats whole rounds of the same operations until the
measuring time is used, then reports. Each round runs the pipeline on a
cold feature cache in a fresh directory, then the fault probes, then the
inference pass, and checks every output it produces.

Operations, counted in `attempted`: each `gsb` command of the pipeline,
each fault probe, and each clip of the inference pass. The only operations
that fail are the fault probes (FAULTS). Each fails on every round today,
so the failed share of a run depends neither on its length nor its seed.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

import checks
from gunshot_bench import cli, dsp, evaluation, manifest, models, synthgun, wavio

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS = 3                 # set-ups per run; setup_s is their median
CNN_EPOCHS = 8             # with --patience equal, so every round does the same work
CNN_BATCH = 4              # small batches: enough SGD steps for a steady test mAP
CNN_LR = 0.005
CNN_THRESHOLD = 0.5
INFER_PASSES = 2           # the latency samples then span a longer stretch of the run
SVM_KINDS = ("melstats", "boaw", "autocorr")
PHONE_RATE = 48000
PHONE_NOISE = 1e-3         # uncorrelated channel noise of the stereo re-encode
PHONE_CHECKED = 8          # clips per run re-encoded as 48 kHz stereo and normalized back
AUTOCORR_CHECKED = 4       # clips per round checked against direct dot products
BOAW_PROBE_CLIPS = 4
BOAW_PROBE_K = 16

# Known faults, each kept in one workload as an operation that fails.
FAULTS = {
    "clean-cnn": ("eval-default-threshold",),
    "clean-svm": ("boaw-rerun-bytes", "truncated-cache"),
}


# Both workloads build the same make-up of inputs: 200 clean 2 s clips in
# the paper's class mix, 45 of them without a gunshot.
GENERATE_ARGS = ("--preset", "paper-ratio", "--scale", 0.045, "--negatives", 45)
# train/val/test shares of the stratified split (the SVM uses no val set)
SPLITS = {"clean-cnn": (0.4, 0.1, 0.5), "clean-svm": (0.5, 0.0, 0.5)}


class OpFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def gsb(*argv):
    """Run one `gsb` command in this process and return its stdout.

    A nonzero exit raises OpFailed; an exception escapes as it would from
    the console script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise OpFailed(f"gsb {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def gsb_fresh_process(*argv):
    """Run one `gsb` command in a new interpreter; True if it exited 0.

    PYTHONHASHSEED is removed from the child's environment, so string
    hashing is salted per process as it is in a user's shell."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "gunshot_bench.cli", *map(str, argv)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    return proc.returncode == 0


def featurize_counts(stdout):
    """(computed, up-to-date, failed) from `gsb featurize` output."""
    m = re.search(r"featurize: (\d+) computed, (\d+) up-to-date, (\d+) failed", stdout)
    if not m:
        raise OpFailed(f"unexpected featurize output: {stdout!r}")
    return tuple(int(v) for v in m.groups())


def f32(values):
    """Round to float32 as the feature cache stores values, so the scores
    of the inference pass equal those `gsb evaluate` computes from it."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# per-run state
# ---------------------------------------------------------------------------

@dataclass
class Run:
    name: str              # the workload
    seed: int
    work: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    rounds: list = field(default_factory=list)     # per-round figures
    latencies: list = field(default_factory=list)  # seconds, every clip of every round
    test_map: float = None
    reports: dict = field(default_factory=dict)    # name -> report.json bytes of round 1
    manifest: Path = None
    split: Path = None
    rows: list = None

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    def note(self, key, value):
        if self.tracer is not None:
            self.tracer.note(key, value)

    def timed(self, *argv):
        """One pipeline operation -> (seconds, stdout). Failures end the run."""
        self.attempted += 1
        t0 = time.perf_counter()
        out = gsb(*argv)
        return time.perf_counter() - t0, out

    def probe(self, fault, fn):
        """One fault-probe operation; fn returns True when the operation worked."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as e:          # the faults end in escaping exceptions
            ok = False
            self.failures.setdefault(fault, f"{type(e).__name__}: {e}")
        if not ok:
            self.failed += 1
            self.failures.setdefault(fault, "operation did not complete")


# ---------------------------------------------------------------------------
# set-up: synthesis and the split
# ---------------------------------------------------------------------------

def setup(run):
    """Build the inputs SETUPS times, timing each; keep the last set."""
    for i in range(SETUPS):
        base = run.work / f"data{i}"
        t0 = time.perf_counter()
        gsb("generate", "--out", base, *GENERATE_ARGS, "--seed", run.seed)
        run.setup_s.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            shutil.rmtree(base)
    run.phase("other")
    run.manifest = path = base / "manifest.jsonl"
    run.rows = manifest.load_manifest(path)
    split = evaluation.stratified_split(run.rows, ratios=SPLITS[run.name], seed=run.seed)
    run.split = base / "split.json"
    split.save(run.split)
    probe_rows = path.read_text().splitlines()[:BOAW_PROBE_CLIPS]
    (base / "probe_manifest.jsonl").write_text("\n".join(probe_rows) + "\n")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _featurize(run, rd, kind):
    out = rd / f"feat_{kind}"
    seconds, stdout = run.timed("featurize", "--manifest", run.manifest, "--kind", kind,
                                "--out", out, "--seed", run.seed)
    counts = featurize_counts(stdout)
    checks.require(counts == (len(run.rows), 0, 0),
                   f"cold featurize {kind}: (computed, up-to-date, failed) = {counts}")
    return seconds, out


def _train(run, feats, out, model, *extra):
    seconds, _ = run.timed("train", "--manifest", run.manifest, "--features", feats,
                           "--out", out, "--split", run.split, "--model", model,
                           "--seed", run.seed, *extra)
    return seconds


def _evaluate(run, ckpt, feats, out, *extra):
    run.timed("evaluate", "--checkpoint", ckpt, "--manifest", run.manifest,
              "--features", feats, "--out", out, "--split", run.split,
              "--subset", "test", *extra)
    return out / "report.json"


def _cnn_args():
    return ("--epochs", CNN_EPOCHS, "--patience", CNN_EPOCHS, "--batch-size", CNN_BATCH,
            "--lr", CNN_LR)


def round_clean_cnn(run, rd):
    t0 = time.perf_counter()
    featurize_s, mel = _featurize(run, rd, "mel")
    train_s = _train(run, mel, rd / "cnn", "cnn", *_cnn_args())
    report = _evaluate(run, rd / "cnn", mel, rd / "eval_cnn", "--threshold", CNN_THRESHOLD)
    pipeline_s = time.perf_counter() - t0

    run.probe("eval-default-threshold", lambda: gsb(
        "evaluate", "--checkpoint", rd / "cnn", "--manifest", run.manifest,
        "--features", mel, "--out", rd / "eval_default", "--split", run.split) is not None)

    scores = inference_pass(run, rd / "cnn", {"mel": mel})
    run.phase("other")
    checks.check_cnn_history(read_json(rd / "cnn" / "history.json"))
    check_reference_report(run, "cnn", report, scores)
    return {"pipeline_s": pipeline_s, "featurize_s": featurize_s, "kinds": 1,
            "train_s": train_s}


def round_clean_svm(run, rd):
    t0 = time.perf_counter()
    feats, featurize_s = {}, 0.0
    for kind in SVM_KINDS:
        seconds, feats[kind] = _featurize(run, rd, kind)
        featurize_s += seconds
    _, stdout = run.timed("featurize", "--manifest", run.manifest, "--kind", "melstats",
                          "--out", feats["melstats"], "--seed", run.seed)
    counts = featurize_counts(stdout)
    checks.require(counts == (0, len(run.rows), 0),
                   f"warm featurize: (computed, up-to-date, failed) = {counts}")
    run.note("cli.cache_hit_ratio", counts[1] / (counts[0] + counts[1]))
    train_s, reports = 0.0, {}
    for kind in SVM_KINDS:
        train_s += _train(run, feats[kind], rd / f"svm_{kind}", "svm")
    for kind in SVM_KINDS:
        reports[kind] = _evaluate(run, rd / f"svm_{kind}", feats[kind], rd / f"eval_{kind}")
    seconds, _ = run.timed("crossval", "--manifest", run.manifest, "--features",
                           feats["melstats"], "--out", rd / "crossval", "--model", "svm",
                           "--seed", run.seed)
    train_s += seconds
    pipeline_s = time.perf_counter() - t0

    run.probe("boaw-rerun-bytes", lambda: boaw_rerun_identical(run, rd))
    run.probe("truncated-cache", lambda: truncated_cache_recomputed(run, rd, feats["melstats"]))

    scores = inference_pass(run, rd / "svm_melstats", feats)
    run.phase("other")
    for kind in SVM_KINDS:
        checks.check_svm_history(read_json(rd / f"svm_{kind}" / "history.json"))
        if kind != "melstats":
            check_report(run, f"svm_{kind}", reports[kind])
    check_crossval(run, rd / "crossval")
    check_reference_report(run, "svm_melstats", reports["melstats"], scores)
    return {"pipeline_s": pipeline_s, "featurize_s": featurize_s, "kinds": len(SVM_KINDS),
            "train_s": train_s}


ROUNDS = {"clean-cnn": round_clean_cnn, "clean-svm": round_clean_svm}


# ---------------------------------------------------------------------------
# fault probes
# ---------------------------------------------------------------------------

def boaw_rerun_identical(run, rd):
    """Two fresh-process `featurize --kind boaw` runs on the same clips
    should write the same bytes."""
    probe = run.manifest.parent / "probe_manifest.jsonl"
    outs = [rd / "boaw_a", rd / "boaw_b"]
    for out in outs:
        if not gsb_fresh_process("featurize", "--manifest", probe, "--kind", "boaw",
                                 "--boaw-k", BOAW_PROBE_K, "--out", out, "--seed", run.seed):
            return False
    files = sorted(p.name for p in outs[0].glob("*.feat"))
    return files and all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                         for f in files)


def truncated_cache_recomputed(run, rd, feats):
    """A cache entry whose payload was cut short (header kept) should be
    recomputed by the next featurize, so training on the cache works."""
    copy = rd / "feat_truncated"
    shutil.copytree(feats, copy)
    victim = copy / f"{run.rows[0].id}.feat"
    blob = victim.read_bytes()
    header_end = 8 + int.from_bytes(blob[4:8], "little")
    victim.write_bytes(blob[: header_end + (len(blob) - header_end) // 2])
    computed, _, _ = featurize_counts(gsb(
        "featurize", "--manifest", run.manifest, "--kind", "melstats", "--out", copy,
        "--seed", run.seed))
    gsb("train", "--manifest", run.manifest, "--features", copy, "--out",
        rd / "svm_truncated", "--split", run.split, "--model", "svm", "--seed", run.seed)
    return computed == 1


# ---------------------------------------------------------------------------
# inference pass: WAV on disk -> Prediction, one clip at a time
# ---------------------------------------------------------------------------

def inference_pass(run, ckpt, feats):
    """Time every clip from its WAV file to a Prediction with a model loaded
    once, INFER_PASSES times over all clips. The first pass checks each
    clip's features right after its timing ends; later passes must predict
    the same scores.

    Returns {clip id: per-class ranking scores} as `gsb evaluate` ranks them."""
    bundle, meta = cli.load_model(ckpt)
    base = run.manifest.parent
    weights = dsp.default_filterbank().weights
    scores = {}
    for n_pass in range(INFER_PASSES):
        for i, row in enumerate(run.rows):
            run.attempted += 1
            t0 = time.perf_counter()
            samples, rate = wavio.read_wav(base / row.path)
            clip = synthgun.AudioClip(samples, rate, {"id": row.id})
            mel = dsp.mel_spectrogram(clip)
            if meta["model"] == "cnn":
                pred = models.cnn_forward(bundle, f32(mel.frames), threshold=CNN_THRESHOLD)
            else:
                svm, scaler = bundle
                x = scaler.transform(f32(dsp.mel_stats(mel).values))
                pred = models.svm_prediction(svm, x)
            run.latencies.append(time.perf_counter() - t0)

            run.phase("other")
            checks.require(isinstance(pred, models.Prediction), f"{row.id}: no Prediction")
            if meta["model"] == "cnn":
                clip_scores = pred.p_gunshot * pred.type_posteriors
            else:
                clip_scores = models.svm_predict(svm, x)[0]
            if n_pass == 0:
                scores[row.id] = clip_scores
                check_clip(run, i, row, clip, mel.frames, feats, weights)
            else:
                checks.require(np.array_equal(clip_scores, scores[row.id]),
                               f"{row.id}: scores differ between inference passes")
            run.phase("round")
    return scores


def check_clip(run, i, row, clip, frames, feats, weights):
    own, _ = checks.read_pcm16(run.manifest.parent / row.path)
    checks.require(np.array_equal(own, clip.samples), f"{row.id}: WAV decode differs")
    ref = checks.check_logmel(row.id, clip.samples, frames, weights)
    if "mel" in feats:
        cached, _ = checks.read_feature_cache(feats["mel"] / f"{row.id}.feat")
        checks.check_cached_frames(row.id, cached, ref)
    if "melstats" in feats:
        cached, _ = checks.read_feature_cache(feats["melstats"] / f"{row.id}.feat")
        checks.check_melstats_cache(row.id, cached, ref)
    if "autocorr" in feats and i < AUTOCORR_CHECKED:
        cached, _ = checks.read_feature_cache(feats["autocorr"] / f"{row.id}.feat")
        program = dsp.autocorrelation(clip, len(cached) - 1)
        checks.check_autocorr(row.id, clip.samples, program, cached)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _test_rows(run):
    by_id = {r.id: r for r in run.rows}
    return [by_id[i] for i in read_json(run.split)["test_ids"]]


def check_report(run, name, path):
    """Confusions match the test labels; the report is the same every round."""
    blob = path.read_bytes()
    first = run.reports.setdefault(name, blob)
    checks.require(blob == first, f"{name}: report.json differs from round 1")
    report = json.loads(blob)
    true_class = [r.class_index for r in _test_rows(run)]
    checks.check_confusions(report, true_class, len(manifest.CLASS_NAMES))
    return report, true_class


def check_reference_report(run, name, path, scores):
    """AP/mAP recomputed from the inference pass's scores; mAP above chance."""
    report, true_class = check_report(run, name, path)
    test = _test_rows(run)
    checks.check_report_ap(report, np.stack([scores[r.id] for r in test]), true_class,
                           manifest.CLASS_NAMES)
    chance = checks.chance_map(true_class, len(manifest.CLASS_NAMES))
    checks.require(report["mean_ap"] > chance,
                   f"{name}: test mAP {report['mean_ap']:.3f} not above chance {chance:.3f}")
    run.test_map = report["mean_ap"]


def check_crossval(run, out):
    folds = read_json(out / "aggregate.json")["folds"]
    for fold in folds:
        report = read_json(out / f"fold{fold['fold']}" / "report.json")
        det = np.array(report["detection"]["confusion"])
        checks.require(det.sum() == fold["test_size"],
                       f"crossval fold {fold['fold']}: confusion sums to {det.sum()}")


def check_reproducible(run, rd):
    """A fresh-process rerun of `gsb train --model svm` writes the same
    model.ckpt bytes as the round's in-process run."""
    out = rd / "svm_rerun"
    ok = gsb_fresh_process("train", "--manifest", run.manifest, "--features",
                           rd / "feat_melstats", "--out", out, "--split", run.split,
                           "--model", "svm", "--seed", run.seed)
    checks.require(ok, "fresh-process svm train failed")
    checks.require((out / "model.ckpt").read_bytes()
                   == (rd / "svm_melstats" / "model.ckpt").read_bytes(),
                   "fresh-process svm train wrote a different model.ckpt")


def write_pcm16(path, samples, rate):
    """Write float samples [n] or [n, channels] in [-1, 1] as 16-bit PCM."""
    x = np.asarray(samples, dtype=np.float64)
    pcm = np.rint(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1 if x.ndim == 1 else x.shape[1])
        w.setsampwidth(2)
        w.setframerate(int(rate))
        w.writeframes(pcm.tobytes())


def check_phone_resampling(run, out):
    """A phone's 48 kHz stereo recording, normalized by the program, keeps
    the passband of the 44.1 kHz clip it was made from.

    The re-encode is scipy's polyphase resampler; the channels carry the
    signal plus and minus a small seeded noise, so their mean is the
    resampled signal."""
    out.mkdir()
    rng = np.random.default_rng([run.seed, PHONE_RATE])
    for row in run.rows[:PHONE_CHECKED]:
        source, rate = checks.read_pcm16(run.manifest.parent / row.path)
        g = np.gcd(PHONE_RATE, rate)
        y = resample_poly(source, PHONE_RATE // g, rate // g)
        noise = PHONE_NOISE * rng.standard_normal(len(y))
        write_pcm16(out / f"{row.id}.wav", np.stack([y + noise, y - noise], axis=1), PHONE_RATE)
        samples, rate = wavio.read_wav(out / f"{row.id}.wav")
        clip = dsp.normalize_input(synthgun.AudioClip(samples, rate, {"id": row.id}))
        checks.check_resampled(row.id, clip.samples, source)


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def run_workload(run, seconds):
    """Set up, then whole rounds while another round fits in `seconds`."""
    run.phase("setup")
    setup(run)
    round_fn = ROUNDS[run.name]
    rd = run.work / "round"
    started = time.perf_counter()
    while True:
        shutil.rmtree(rd, ignore_errors=True)
        rd.mkdir()
        run.phase("round")
        t0 = time.perf_counter()
        run.rounds.append(round_fn(run, rd))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    run.phase("other")
    if run.name == "clean-svm":
        check_reproducible(run, rd)
        check_phone_resampling(run, rd / "phone")
