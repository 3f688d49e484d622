"""Metric and split contracts: stratified splits, fold plans, PRF1 against
counting oracles, AP/mAP worked examples and invariances, and the
overall/relevant conditioning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gunshot_bench import evaluation as ev
from gunshot_bench.errors import InvalidParam
from gunshot_bench.manifest import CLASS_NAMES, ManifestRow, read_json, write_json


def make_rows(per_class, negatives):
    rows = []
    i = 0
    for name in CLASS_NAMES:
        for _ in range(per_class):
            rows.append(ManifestRow(f"c{i:04d}", f"wav/c{i:04d}.wav", "gunshot", name))
            i += 1
    for _ in range(negatives):
        rows.append(ManifestRow(f"c{i:04d}", f"wav/c{i:04d}.wav", "no_gunshot", None))
        i += 1
    return rows


class TestStratifiedSplit:
    def test_ten_per_class_gives_622(self):
        rows = make_rows(10, 10)
        split = ev.stratified_split(rows, seed=1)
        by_id = {r.id: r for r in rows}
        for ids, want in ((split.train_ids, 6), (split.val_ids, 2), (split.test_ids, 2)):
            per = {}
            for x in ids:
                key = by_id[x].class_name or "no_gunshot"
                per[key] = per.get(key, 0) + 1
            assert all(v == want for v in per.values())

    def test_deterministic(self):
        rows = make_rows(7, 5)
        a = ev.stratified_split(rows, seed=3)
        b = ev.stratified_split(rows, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_union_and_disjointness_random_sizes(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            rows = make_rows(int(rng.integers(3, 20)), int(rng.integers(0, 15)))
            split = ev.stratified_split(rows, seed=trial)
            tr, va, te = map(set, (split.train_ids, split.val_ids, split.test_ids))
            assert not (tr & va) and not (tr & te) and not (va & te)
            assert tr | va | te == {r.id for r in rows}

    def test_bad_ratios(self):
        with pytest.raises(InvalidParam):
            ev.stratified_split(make_rows(5, 0), ratios=(0.5, 0.2, 0.2))

    def test_round_trip_file(self, tmp_path):
        split = ev.stratified_split(make_rows(5, 5), seed=2)
        split.save(tmp_path / "s.json")
        again = ev.SplitSpec.load(tmp_path / "s.json")
        assert again.to_dict() == split.to_dict()


def greedy_kfold(ids_by_class, k, seed):
    """Reference fold plan: per-class shuffle, then each id to the currently
    smallest fold, ties to the lowest index."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for ids in ids_by_class.values():
        ids = list(ids)
        rng.shuffle(ids)
        for x in ids:
            folds[int(np.argmin([len(f) for f in folds]))].append(x)
    return folds


@st.composite
def ids_by_class(draw):
    sizes = draw(st.lists(st.integers(0, 25), min_size=1, max_size=6))
    return {f"class{c}": [f"c{c}x{i}" for i in range(n)] for c, n in enumerate(sizes)}


class TestKfold:
    @given(ids_by_class(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_matches_greedy_reference(self, ids, k, seed):
        assert ev.kfold(ids, k=k, seed=seed) == greedy_kfold(ids, k, seed)

    def test_25_items_five_folds_of_five(self):
        folds = ev.kfold({"a": [f"x{i}" for i in range(25)]}, k=5, seed=0)
        assert sorted(len(f) for f in folds) == [5] * 5

    def test_small_class_spread_across_folds(self):
        folds = ev.kfold({"a": list("abcdefghij"), "b": ["p", "q", "r"]}, k=5, seed=1)
        fold_of = {}
        for i, fold in enumerate(folds):
            for x in fold:
                fold_of[x] = i
        assert len({fold_of["p"], fold_of["q"], fold_of["r"]}) == 3

    def test_union_complete_and_balanced(self):
        ids = {c: [f"{c}{i}" for i in range(n)] for c, n in
               (("a", 17), ("b", 9), ("c", 4))}
        folds = ev.kfold(ids, k=5, seed=2)
        everything = [x for f in folds for x in f]
        assert sorted(everything) == sorted(x for v in ids.values() for x in v)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_train_ids_complement(self):
        # a fold's training ids are the other folds' ids: with the fold
        # itself they make up every id, and none is in two folds
        folds = ev.kfold({"a": [f"x{i}" for i in range(10)]}, k=5, seed=3)
        for i in range(5):
            train_ids = [x for j, f in enumerate(folds) if j != i for x in f]
            assert sorted(train_ids + folds[i]) == sorted(f"x{j}" for j in range(10))


class TestPrf1:
    def test_diagonal_is_perfect(self):
        triples = ev.prf1(np.diag([5, 3, 2]))
        for p, r, f1 in triples:
            assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_detection_table_ratios(self):
        # gunshot support 100 with 91 hits, 20 false alarms
        conf = np.array([[216, 20], [9, 91]])
        (_, _, _), (p, r, f1) = ev.prf1(conf)
        assert round(p, 2) == 0.82
        assert round(r, 2) == 0.91
        assert round(f1, 2) == 0.86

    def test_empty_row_zero_by_convention(self):
        conf = np.array([[0, 0], [3, 7]])
        (p0, r0, f0), _ = ev.prf1(conf)
        assert (r0, f0) == (0.0, 0.0)

    def test_matches_counting_oracle_200_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(5, 60))
            truth = rng.integers(0, k, n)
            pred = rng.integers(0, k, n)
            conf = np.zeros((k, k), dtype=int)
            for t, q in zip(truth, pred):
                conf[t, q] += 1
            triples = ev.prf1(conf)
            for c in range(k):
                tp = int(((truth == c) & (pred == c)).sum())
                fp = int(((truth != c) & (pred == c)).sum())
                fn = int(((truth == c) & (pred != c)).sum())
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                np.testing.assert_allclose(triples[c], (p, r, f1), atol=1e-12)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        ap = ev.average_precision([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert ap == 1.0

    def test_worked_example(self):
        ap = ev.average_precision([0.9, 0.8, 0.7], [True, False, True])
        np.testing.assert_allclose(ap, (1.0 + 2.0 / 3.0) / 2.0, atol=1e-12)
        assert round(ap, 4) == 0.8333

    def test_no_positives_undefined(self):
        assert ev.average_precision([0.5, 0.4], [False, False]) is None

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.normal(size=30)
            pos = rng.random(30) < 0.3
            if not pos.any():
                pos[0] = True
            a = ev.average_precision(scores, pos)
            b = ev.average_precision(np.exp(scores) * 3 + 1, pos)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_ties_broken_by_id(self):
        # equal scores rank in input order, which is the clips' id order
        assert ev.average_precision([0.5, 0.5], [True, False]) == 1.0
        assert ev.average_precision([0.5, 0.5], [False, True]) == 0.5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            scores = np.round(rng.random(n), 2)   # force ties sometimes
            pos = rng.random(n) < 0.4
            if not pos.any():
                continue
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            hits = 0
            total = 0.0
            for rank, i in enumerate(order, start=1):
                if pos[i]:
                    hits += 1
                    total += hits / rank
            np.testing.assert_allclose(ev.average_precision(scores, pos),
                                       total / pos.sum(), atol=1e-12)


class TestMeanAp:
    def test_all_ones(self):
        assert ev.mean_ap([1.0] * 5) == 1.0

    def test_headline_magnitude(self):
        np.testing.assert_allclose(ev.mean_ap([0.4, 0.6, 0.5, 0.7, 0.7]), 0.58)

    def test_undefined_class_excluded(self):
        np.testing.assert_allclose(ev.mean_ap([1.0, None, 0.5, 0.5, 1.0]), 0.75)

    def test_random_scores_near_class_prior(self):
        rng = np.random.default_rng(3)
        maps = []
        for _ in range(50):
            truth = np.repeat(np.arange(5), 20)
            scores = rng.random((100, 5))
            aps = [ev.average_precision(scores[:, c], truth == c) for c in range(5)]
            maps.append(ev.mean_ap(aps))
        assert abs(float(np.mean(maps)) - 0.2) < 0.05


def overall_prf1_loop(confusion, n_classes):
    """Reference overall P/R/F1: one class at a time from the (K+1)x(K+1)
    matrix, ignoring the no-gunshot row and column."""
    tp = np.diag(confusion)[:n_classes]
    pred = confusion.sum(axis=0)[:n_classes]
    supp = confusion.sum(axis=1)[:n_classes]
    out = []
    for i in range(n_classes):
        p = tp[i] / pred[i] if pred[i] > 0 else 0.0
        r = tp[i] / supp[i] if supp[i] > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        out.append((float(p), float(r), float(f1)))
    return out


@st.composite
def detections(draw):
    """(n_classes, true_class, pred_gun, pred_class) of one random run."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 60))
    truth = draw(st.lists(st.none() | st.integers(0, k - 1), min_size=n, max_size=n))
    pred_gun = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pred_class = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return k, truth, pred_gun, pred_class


class TestOverallRelevant:
    @given(detections())
    def test_overall_matches_loop_reference_bit_for_bit(self, run):
        k, truth, pred_gun, pred_class = run
        triples, conf = ev.overall_metrics(truth, pred_gun, pred_class, n_classes=k)
        hexes = lambda ts: [tuple(map(float.hex, t)) for t in ts]
        assert hexes(triples) == hexes(overall_prf1_loop(conf, k))

    def test_perfect_pipeline_all_ones(self):
        truth = [0, 1, 2, 3, 4, None, None]
        pred_gun = [True] * 5 + [False] * 2
        pred_class = [0, 1, 2, 3, 4, 0, 0]
        triples, _ = ev.overall_metrics(truth, pred_gun, pred_class)
        for t in triples:
            assert t == (1.0, 1.0, 1.0)

    def test_missed_half_rifles_halves_recall(self):
        truth = [0] * 4 + [1] * 4
        pred_gun = [True, True, False, False] + [True] * 4
        pred_class = [0, 0, 0, 0, 1, 1, 1, 1]
        triples, _ = ev.overall_metrics(truth, pred_gun, pred_class)
        assert triples[0][1] == 0.5      # rifle recall halves
        assert triples[1][1] == 1.0

    def test_false_alarm_counts_against_predicted_class(self):
        truth = [None, 2]
        pred_gun = [True, True]
        pred_class = [2, 2]
        triples, conf = ev.overall_metrics(truth, pred_gun, pred_class)
        assert triples[2][0] == 0.5      # precision 1 tp / (1 tp + 1 fp)
        assert conf[5, 2] == 1           # no-gunshot row, predicted class 2

    def test_relevant_restricted_to_detected_positives(self):
        truth = [0, 0, 1, None]
        pred_gun = [True, False, True, True]
        pred_class = [0, 1, 1, 1]
        triples, conf, zero = ev.relevant_metrics(truth, pred_gun, pred_class)
        assert conf.sum() == 2           # only the two detected positives
        # the false alarm (true None, detected) is excluded from relevant
        assert triples[0] == (1.0, 1.0, 1.0)
        assert triples[1] == (1.0, 1.0, 1.0)

    def test_perfect_detector_relevant_equals_overall_on_positives(self):
        rng = np.random.default_rng(4)
        truth = list(rng.integers(0, 5, 40))
        pred_gun = [True] * 40
        pred_class = list(rng.integers(0, 5, 40))
        ov, _ = ev.overall_metrics(truth, pred_gun, pred_class)
        rel, _, _ = ev.relevant_metrics(truth, pred_gun, pred_class)
        np.testing.assert_allclose(ov, rel, atol=1e-12)

    def test_missed_class_zero_support_flagged(self):
        truth = [4, 4, 0]
        pred_gun = [False, False, True]
        pred_class = [4, 4, 0]
        _, _, zero = ev.relevant_metrics(truth, pred_gun, pred_class)
        assert "shotgun" in zero

    def test_matches_bruteforce_filter_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = 30
            truth = [None if rng.random() < 0.3 else int(rng.integers(0, 5))
                     for _ in range(n)]
            pred_gun = list(rng.random(n) < 0.7)
            pred_class = list(rng.integers(0, 5, n))
            _, conf, _ = ev.relevant_metrics(truth, pred_gun, pred_class)
            expect = np.zeros((5, 5), dtype=int)
            for t, g, c in zip(truth, pred_gun, pred_class):
                if t is not None and g:
                    expect[t, c] += 1
            np.testing.assert_array_equal(conf, expect)

    def test_overall_and_detection_match_counting_oracle(self):
        rng = np.random.default_rng(10)
        for n in range(30):
            truth = [None if rng.random() < 0.3 else int(rng.integers(0, 5))
                     for _ in range(n)]
            pred_gun = list(rng.random(n) < 0.7)
            pred_class = list(rng.integers(0, 5, n))
            overall = np.zeros((6, 6), dtype=int)
            detection = np.zeros((2, 2), dtype=int)
            for t, g, c in zip(truth, pred_gun, pred_class):
                overall[5 if t is None else t, c if g else 5] += 1
                detection[int(t is not None), int(g)] += 1
            np.testing.assert_array_equal(
                ev.overall_confusion(truth, pred_gun, pred_class), overall)
            np.testing.assert_array_equal(
                ev.detection_confusion([t is not None for t in truth], pred_gun), detection)

    def test_relevant_set_subset_of_positives(self):
        rng = np.random.default_rng(6)
        truth = [None if rng.random() < 0.5 else int(rng.integers(0, 5))
                 for _ in range(50)]
        pred_gun = list(rng.random(50) < 0.5)
        pred_class = list(rng.integers(0, 5, 50))
        _, conf, _ = ev.relevant_metrics(truth, pred_gun, pred_class)
        n_positives = sum(1 for t in truth if t is not None)
        assert conf.sum() <= n_positives

    def test_overall_recall_never_exceeds_relevant(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            truth = [None if rng.random() < 0.3 else int(rng.integers(0, 5))
                     for _ in range(60)]
            pred_gun = list(rng.random(60) < 0.8)
            pred_class = list(rng.integers(0, 5, 60))
            ov, _ = ev.overall_metrics(truth, pred_gun, pred_class)
            rel, conf, _ = ev.relevant_metrics(truth, pred_gun, pred_class)
            for c in range(5):
                if conf[c].sum() > 0:
                    assert ov[c][1] <= rel[c][1] + 1e-12


class TestReport:
    def _report(self):
        rng = np.random.default_rng(8)
        truth = [None if rng.random() < 0.3 else int(rng.integers(0, 5))
                 for _ in range(40)]
        pred_gun = list(rng.random(40) < 0.7)
        pred_class = list(rng.integers(0, 5, 40))
        scores = rng.random((40, 5))
        return ev.build_report(truth, pred_gun, pred_class, scores,
                               threshold=0.5, dataset_hash="deadbeef",
                               split_seed=3, model_meta={"model": "cnn"})

    def test_round_trip(self, tmp_path):
        report = self._report()
        write_json(tmp_path / "r.json", report)
        assert read_json(tmp_path / "r.json", {}) == report

    def test_text_table_has_all_rows(self):
        text = ev.render_text_report(self._report())
        for name in CLASS_NAMES + ["no_gunshot", "gunshot", "mAP"]:
            assert name in text

    def test_deterministic_bytes(self, tmp_path):
        write_json(tmp_path / "a.json", self._report())
        write_json(tmp_path / "b.json", self._report())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert ev.render_text_report(self._report()) == ev.render_text_report(self._report())
