"""Evaluation protocol: stratified 60/20/20 splits and k folds, per-class
precision/recall/F1, average precision and mAP, and the two gun-type metric
conditionings:

- "overall": every true gunshot counts; a detection miss is a false negative
  for its true class and a typed false alarm is a false positive for the
  predicted class.
- "relevant": restricted to examples that are true gunshots AND were
  detected as gunshots, so it isolates the type head.

Zero-division convention throughout: 0/0 -> 0, flagged in the report.

The report is a plain dict of JSON values: `report.json` is `write_json` of
it, and `render_text_report` turns it into the text table.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .manifest import (CLASS_NAMES, GUNSHOT, N_CLASSES, NEGATIVE_LABEL, NO_GUNSHOT, read_json,
                       write_json)

SCHEMA_VERSION = 1
DETECTION_NAMES = [NO_GUNSHOT, GUNSHOT]


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    train_ids: list
    val_ids: list
    test_ids: list
    seed: int

    def to_dict(self):
        return {"train_ids": self.train_ids, "val_ids": self.val_ids,
                "test_ids": self.test_ids, "seed": self.seed}

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        """The split in file `path`; MalformedFile if a field is missing or
        of the wrong type."""
        d = read_json(path, {"train_ids": list, "val_ids": list, "test_ids": list,
                             "seed": int})
        return cls(d["train_ids"], d["val_ids"], d["test_ids"], d["seed"])


def strata(rows):
    """Group row ids by stratum (class name, or no_gunshot), fixed order."""
    groups = {name: [] for name in CLASS_NAMES + [NO_GUNSHOT]}
    for r in rows:
        key = r.class_name if r.class_name else NO_GUNSHOT
        groups[key].append(r.id)
    return {k: v for k, v in groups.items() if v}


def stratified_split(rows, ratios=(0.6, 0.2, 0.2), seed=0):
    """Per-class shuffle and proportional allocation; remainders go to train."""
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise InvalidParam("ratios must be three values summing to 1")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for _, ids in strata(rows).items():
        ids = list(ids)
        rng.shuffle(ids)
        n = len(ids)
        n_val = int(np.floor(n * ratios[1]))
        n_test = int(np.floor(n * ratios[2]))
        n_train = n - n_val - n_test
        train += ids[:n_train]
        val += ids[n_train : n_train + n_val]
        test += ids[n_train + n_val :]
    return SplitSpec(train, val, test, seed)


def kfold(ids_by_class, k=5, seed=0):
    """Stratified k folds, a list of k id lists: per-class shuffle, then the
    classes' ids in turn dealt round-robin over the folds, so each id lands
    in the currently smallest fold (ties to the lowest index). Overall fold
    sizes stay within one of each other and each class is spread across
    folds."""
    if k < 2:
        raise InvalidParam("k must be >= 2")
    rng = np.random.default_rng(seed)
    order = []
    for ids in ids_by_class.values():
        ids = list(ids)
        rng.shuffle(ids)
        order += ids
    return [order[i::k] for i in range(k)]


# ---------------------------------------------------------------------------
# confusion-matrix metrics
# ---------------------------------------------------------------------------

def prf1(confusion):
    """Per-class (precision, recall, F1) from a K x K confusion matrix
    (rows true, columns predicted). 0/0 -> 0."""
    m = np.asarray(confusion, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParam("confusion matrix must be square")
    tp = np.diag(m)
    pred = m.sum(axis=0)
    supp = m.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(pred > 0, tp / pred, 0.0)
        r = np.where(supp > 0, tp / supp, 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return [(float(p[i]), float(r[i]), float(f1[i])) for i in range(m.shape[0])]


def average_precision(scores, positives):
    """Non-interpolated AP: mean of precision@rank over positive ranks.

    Sorting is by score descending with ties kept in input order. Returns
    None when there are no positives."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape:
        raise InvalidParam("scores and positives must align")
    n_pos = int(positives.sum())
    if n_pos == 0:
        return None
    hits = positives[np.argsort(-scores, kind="stable")]
    ranks = np.arange(1, len(scores) + 1)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].sum() / n_pos)


def mean_ap(per_class_ap):
    """Unweighted mean over classes whose AP is defined; None if none is."""
    defined = [a for a in per_class_ap if a is not None]
    return float(np.mean(defined)) if defined else None


# ---------------------------------------------------------------------------
# overall / relevant conditioning
# ---------------------------------------------------------------------------

def _as_arrays(true_class, pred_gun, pred_class):
    t = [NEGATIVE_LABEL if c is None else int(c) for c in true_class]
    return (np.asarray(t, dtype=np.int64), np.asarray(pred_gun, dtype=bool),
            np.asarray(pred_class, dtype=np.int64))


def _confusion(true_idx, pred_idx, size):
    """size x size counts of (true, predicted) index pairs."""
    m = np.zeros((size, size), dtype=np.int64)
    np.add.at(m, (true_idx, pred_idx), 1)
    return m


def overall_confusion(true_class, pred_gun, pred_class, n_classes=N_CLASSES):
    """(K+1)x(K+1) matrix; index K holds the no-gunshot row/column.
    A miss lands in column K of its true class row; a typed false alarm
    lands in row K under the predicted class."""
    t, g, c = _as_arrays(true_class, pred_gun, pred_class)
    return _confusion(np.where(t == NEGATIVE_LABEL, n_classes, t),
                      np.where(g, c, n_classes), n_classes + 1)


def overall_metrics(true_class, pred_gun, pred_class, n_classes=N_CLASSES):
    """Per-class P/R/F1 where detection errors propagate into the type task."""
    m = overall_confusion(true_class, pred_gun, pred_class, n_classes)
    return prf1(m)[:n_classes], m


def relevant_metrics(true_class, pred_gun, pred_class, n_classes=N_CLASSES):
    """Per-class P/R/F1 conditioned on correct detection: the K x K type
    confusion over true gunshots that were detected as gunshots. Also
    returns that matrix and the classes with zero support in it (reported
    as 0)."""
    t, g, c = _as_arrays(true_class, pred_gun, pred_class)
    keep = (t != NEGATIVE_LABEL) & g
    m = _confusion(t[keep], c[keep], n_classes)
    zero_support = [CLASS_NAMES[i] for i in range(n_classes) if m[i].sum() == 0]
    return prf1(m), m, zero_support


def detection_confusion(true_is_gun, pred_is_gun):
    """2x2 matrix ordered [no_gunshot, gunshot] on both axes."""
    return _confusion(np.asarray(true_is_gun, dtype=bool).astype(np.intp),
                      np.asarray(pred_is_gun, dtype=bool).astype(np.intp), 2)


# ---------------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------------

def _prf_block(names, triples):
    return {name: {"precision": p, "recall": r, "f1": f1}
            for name, (p, r, f1) in zip(names, triples)}


def build_report(true_class, pred_gun, pred_class, scores, *, threshold=0.5,
                 dataset_hash="", split_seed=None, model_meta=None, config=None):
    """The full evaluation report, as a dict of JSON values.

    true_class: per-example class index or None; pred_gun: decided detection;
    pred_class: argmax type index; scores: [n, K] ranking scores for AP."""
    t_arr = _as_arrays(true_class, pred_gun, pred_class)[0]
    det_conf = detection_confusion(t_arr != NEGATIVE_LABEL, pred_gun)
    det_prf = prf1(det_conf)

    ov_prf, ov_conf = overall_metrics(true_class, pred_gun, pred_class)
    rel_prf, rel_conf, zero_support = relevant_metrics(true_class, pred_gun, pred_class)

    scores = np.asarray(scores, dtype=np.float64)
    ap = {name: average_precision(scores[:, ci], t_arr == ci)
          for ci, name in enumerate(CLASS_NAMES)}

    flags = []
    if zero_support:
        flags.append("zero_support_relevant:" + ",".join(zero_support))
    if any(v is None for v in ap.values()):
        flags.append("undefined_ap:" + ",".join(k for k, v in ap.items() if v is None))

    return {
        "schema_version": SCHEMA_VERSION,
        "dataset_hash": dataset_hash,
        "split_seed": split_seed,
        "model_meta": model_meta or {},
        "threshold": float(threshold),
        "detection": {"confusion": det_conf.tolist(),
                      "per_class": _prf_block(DETECTION_NAMES, det_prf)},
        "type_overall": {"confusion": ov_conf.tolist(),
                         "per_class": _prf_block(CLASS_NAMES, ov_prf)},
        "type_relevant": {"confusion": rel_conf.tolist(),
                          "per_class": _prf_block(CLASS_NAMES, rel_prf),
                          "zero_support": zero_support},
        "ap_per_class": ap,
        "mean_ap": mean_ap(list(ap.values())),
        "flags": flags,
        "config": config or {},
    }


def macro_f1(per_class_block):
    return float(np.mean([v["f1"] for v in per_class_block.values()]))


def _fmt(x):
    return "   n/a" if x is None else f"{x:6.3f}"


def render_text_report(report):
    """Fixed-width tables: detection block, then gun-type block with the
    Overall and Relevant variants side by side, then AP/mAP."""
    lines = []
    lines.append("Gunshot Detection")
    lines.append(f"{'Class':<16}{'Precision':>10}{'Recall':>10}{'F1':>10}")
    for name in DETECTION_NAMES:
        b = report["detection"]["per_class"][name]
        lines.append(f"{name:<16}{b['precision']:>10.3f}{b['recall']:>10.3f}{b['f1']:>10.3f}")
    lines.append("")
    lines.append("Gun Type Classification (Overall / Relevant)")
    lines.append(f"{'Class':<16}{'P-ovr':>8}{'P-rel':>8}{'R-ovr':>8}{'R-rel':>8}"
                 f"{'F1-ovr':>8}{'F1-rel':>8}{'AP':>8}")
    for name in CLASS_NAMES:
        o = report["type_overall"]["per_class"][name]
        r = report["type_relevant"]["per_class"][name]
        ap = report["ap_per_class"][name]
        lines.append(f"{name:<16}{o['precision']:>8.3f}{r['precision']:>8.3f}"
                     f"{o['recall']:>8.3f}{r['recall']:>8.3f}"
                     f"{o['f1']:>8.3f}{r['f1']:>8.3f}{_fmt(ap):>8}")
    lines.append("")
    lines.append(f"mAP: {_fmt(report['mean_ap']).strip()}")
    if report["flags"]:
        lines.append("flags: " + "; ".join(report["flags"]))
    return "\n".join(lines) + "\n"

