"""Span tracing around the public functions of each gunshot_bench module.

The tracer replaces a function by a wrapper in every package module that
binds it (so `from .wavio import read_wav` in `cli` is wrapped as well),
records one span per call in memory, and restores the originals on exit.
Nothing inside the program changes: calls the program makes through a
closure or a method (the autodiff backward closures, `forward_graph`) are
part of the span that encloses them.

Per-layer metrics are reported per pipeline round: the work of the timed
rounds is divided by the number of rounds, and the work of set-up (dataset
synthesis) by the number of set-ups. A `_s` metric is self time: the span's
duration minus the time its child spans cover.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function, span name). The span name is the per-layer metric stem.
TRACED = [
    ("nncore", "conv2d", "nncore.conv2d"),
    ("nncore", "maxpool2d", "nncore.maxpool2d"),
    ("nncore", "relu", "nncore.relu"),
    ("nncore", "dense", "nncore.dense"),
    ("nncore", "backward", "nncore.backward"),
    ("nncore", "sgd_step", "nncore.sgd_step"),
    ("nncore", "save_checkpoint", "nncore.save_checkpoint"),
    ("nncore", "load_checkpoint", "nncore.load_checkpoint"),
    ("models", "cnn_train", "models.cnn_train"),
    ("models", "batch_loss_graph", "models.batch_loss_graph"),
    ("models", "cnn_forward", "models.cnn_forward"),
    ("models", "svm_train", "models.svm_train"),
    ("models", "svm_prediction", "models.svm_prediction"),
    ("dsp", "fft", "dsp.fft"),
    ("dsp", "ifft", "dsp.fft"),
    ("dsp", "stft", "dsp.stft"),
    ("dsp", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("dsp", "autocorrelation", "dsp.autocorrelation"),
    ("dsp", "kmeans_fit", "dsp.kmeans_fit"),
    ("dsp", "boaw_encode", "dsp.boaw_encode"),
    ("dsp", "save_feature", "dsp.save_feature"),
    ("dsp", "load_feature", "dsp.load_feature"),
    ("dsp", "read_feature_header", "dsp.read_feature_header"),
    ("wavio", "write_wav", "wavio.write_wav"),
    ("wavio", "read_wav", "wavio.read_wav"),
    ("synthgun", "generate_dataset", "synthgun.generate_dataset"),
    ("cli", "cmd_featurize", "cli.featurize"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_crossval", "cli.crossval"),
    ("manifest", "load_manifest", "manifest.load_manifest"),
    ("evaluation", "build_report", "evaluation.build_report"),
    ("evaluation", "average_precision", "evaluation.average_precision"),
    ("evaluation", "kfold", "evaluation.kfold"),
]

# Per-layer metrics that are not self times: name -> (unit, better).
COUNTED = {
    "nncore.conv2d_flops": ("flop", "lower"),
    "models.cnn_samples_per_s": ("samples/s", "higher"),
    "models.svm_sweeps": ("count", "lower"),
    "models.svm_capped_machines": ("count", "lower"),
    "dsp.fft_points": ("count", "lower"),
    "dsp.kmeans_iters": ("count", "lower"),
    "dsp.mel_per_clip": ("calls/clip", "lower"),
    "wavio.read_wav_per_clip": ("calls/clip", "lower"),
    "cli.cache_hit_ratio": ("ratio", "higher"),
}


def _span_names():
    return list(dict.fromkeys(name for _, _, name in TRACED))


def per_layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{name}_s", "s", "lower") for name in _span_names()]
    specs += [(name, unit, better) for name, (unit, better) in COUNTED.items()]
    return specs


def _shape(t):
    return getattr(t, "data", t).shape


def _conv2d_flops(args, kwargs):
    x, w = args[0], args[1]
    stride = int(kwargs.get("stride", args[3] if len(args) > 3 else 1))
    pad = int(kwargs.get("pad", args[4] if len(args) > 4 else 0))
    bsz, cin, h, wdt = _shape(x)
    cout, _, kh, kw = _shape(w)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    return 2 * bsz * cout * ho * wo * cin * kh * kw


class Tracer:
    """Records spans and counts; use as a context manager around a workload.

    `phase` is "setup", "round" or "other"; only the first two enter the
    per-layer metrics (the correctness checks run in "other")."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self._stack = []
        self.phase = "other"
        self.counts = defaultdict(float)     # (phase, key) -> value
        self.noted = {}
        self._patched = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        importlib.import_module("gunshot_bench.cli")     # imports every package module
        package = [m for n, m in sys.modules.items()
                   if n == "gunshot_bench" or n.startswith("gunshot_bench.")]
        for mod_name, fn_name, span in TRACED:
            original = getattr(importlib.import_module(f"gunshot_bench.{mod_name}"), fn_name)
            wrapper = self._wrap(span, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, span, fn):
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [span, time.perf_counter(), None, parent, self.phase]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, value=1):
        self.counts[(self.phase, key)] += value

    def _inside(self, span):
        return any(self.spans[i][0] == span for i in self._stack)

    # -- counts taken at the call boundaries ---------------------------------

    def _after_nncore_conv2d(self, args, kwargs, result):
        self._count("nncore.conv2d_flops", _conv2d_flops(args, kwargs))

    def _after_dsp_fft(self, args, kwargs, result):
        self._count("dsp.fft_points", result.size)

    def _after_dsp_kmeans_fit(self, args, kwargs, result):
        self._count("dsp.kmeans_iters", len(result.inertia_history))

    def _after_dsp_mel_spectrogram(self, args, kwargs, result):
        if self._inside("cli.featurize"):
            self._count("featurize.mel_calls")

    def _after_wavio_read_wav(self, args, kwargs, result):
        if self._inside("cli.featurize"):
            self._count("featurize.read_wav_calls")

    def _after_dsp_save_feature(self, args, kwargs, result):
        if self._inside("cli.featurize"):
            self._count("featurize.features_computed")

    def _after_models_cnn_train(self, args, kwargs, result):
        train_set = args[1] if len(args) > 1 else kwargs["train_set"]
        self._count("models.cnn_samples", len(result) * len(train_set))

    def _after_models_svm_train(self, args, kwargs, result):
        cap = kwargs.get("epochs", args[3] if len(args) > 3 else 100)
        for history in result.objective_history:
            sweeps = len(history) - 1          # one entry before the first sweep
            self._count("models.svm_sweeps", sweeps)
            self._count("models.svm_capped_machines", int(sweeps >= cap))

    def note(self, key, value):
        """A value the workload measures at a call boundary it owns."""
        self.noted[key] = value

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """(phase, span name) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            if end is not None:
                out[(phase, name)] += (end - start) - child[i]
        return out

    def inclusive_time(self, span, phase="round"):
        return sum(e - s for n, s, e, _, p in self.spans
                   if n == span and p == phase and e is not None)

    def per_layer_metrics(self, rounds, setups):
        """Every per-layer metric, per round (set-up work per set-up)."""

        def per_unit(table, key):
            return table.get(("setup", key), 0.0) / setups + table.get(("round", key), 0.0) / rounds

        selfs = self.self_times()
        counts = dict(self.counts)
        out = {}
        for name in _span_names():
            out[f"{name}_s"] = per_unit(selfs, name)
        for key in ("nncore.conv2d_flops", "models.svm_sweeps", "models.svm_capped_machines",
                    "dsp.fft_points", "dsp.kmeans_iters"):
            out[key] = per_unit(counts, key)
        cnn_time = self.inclusive_time("models.cnn_train")
        samples = counts.get(("round", "models.cnn_samples"), 0.0)
        out["models.cnn_samples_per_s"] = samples / cnn_time if cnn_time > 0 else 0.0
        computed = counts.get(("round", "featurize.features_computed"), 0.0)
        for key, calls in (("dsp.mel_per_clip", "featurize.mel_calls"),
                           ("wavio.read_wav_per_clip", "featurize.read_wav_calls")):
            out[key] = counts.get(("round", calls), 0.0) / computed if computed else 0.0
        out["cli.cache_hit_ratio"] = float(self.noted.get("cli.cache_hit_ratio", 0.0))
        return {name: out[name] for name, _, _ in per_layer_metric_specs()}

    def dump(self):
        """Spans as JSON-ready records (written out when the run ends)."""
        return [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                for n, s, e, p, ph in self.spans]
