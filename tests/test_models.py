"""Classifier contracts: SVM training/prediction behavior, joint CNN
forward/loss/training semantics, and prediction plumbing."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gunshot_bench import models, nncore as nn
from gunshot_bench.errors import InvalidParam, NonFiniteLoss

from helpers import detection_f1, gradcheck


def toy_two_class(n=20, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n // 2, 2)) + [gap, 0.0]
    b = rng.normal(size=(n // 2, 2)) + [-gap, 0.0]
    x = np.vstack([a, b])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


class TestSvm:
    def test_separable_two_class_perfect(self):
        x, y = toy_two_class()
        model = models.svm_train(x, y, c=1.0, epochs=150)
        pred = np.array([models.svm_predict(model, xi)[1] for xi in x])
        assert (pred == y).mean() == 1.0

    def test_c_to_zero_scores_collapse_to_bias(self):
        x, y = toy_two_class()
        model = models.svm_train(x, y, c=1e-8, epochs=60)
        assert np.abs(model.weights).max() < 1e-3
        scores, _ = models.svm_predict(model, x[0])
        np.testing.assert_allclose(scores, model.biases, atol=1e-2)

    def test_objective_non_increasing(self):
        x, y = toy_two_class(seed=3)
        model = models.svm_train(x, y, c=1.0, epochs=80)
        for hist in model.objective_history:
            assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_hinge_objective_near_grid_oracle(self):
        x, y = toy_two_class(n=20, gap=2.0, seed=5)
        yy = np.where(y == 0, 1.0, -1.0)
        model = models.svm_train(x, y, c=1.0, epochs=400)
        got = models._hinge_objective(x, yy, model.weights[0], model.biases[0], 1.0)
        # coarse grid over (w1, w2, b)
        grid = np.linspace(-3.0, 3.0, 61)
        best = np.inf
        for w1 in grid:
            for w2 in grid:
                margins = 1.0 - yy * (x @ np.array([w1, w2]))
                for b in np.linspace(-2.0, 2.0, 41):
                    obj = (w1 * w1 + w2 * w2) / 2.0 + np.maximum(margins - yy * b, 0.0).sum()
                    if obj < best:
                        best = obj
        assert got <= best * 1.02

    def test_degenerate_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        y = np.zeros(10, dtype=int)
        with pytest.raises(InvalidParam, match="need >= 2 classes, got 1"):
            models.svm_train(x, y, n_classes=2)

    def test_missing_middle_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(12, 3))
        y = np.array([0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3])
        with pytest.raises(InvalidParam, match="class 1 has no training examples"):
            models.svm_train(x, y, n_classes=4)

    def test_tie_goes_to_lowest_class(self):
        model = models.SvmModel(weights=np.ones((3, 2)), biases=np.zeros(3),
                                det_weight=None, det_bias=0.0)
        _, best = models.svm_predict(model, np.array([0.3, -0.1]))
        assert best == 0

    def test_scores_match_hand_computed(self):
        w = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.5]])
        b = np.array([0.1, -0.2])
        model = models.SvmModel(w, b, None, 0.0)
        x = np.array([2.0, 3.0, -1.0])
        scores, best = models.svm_predict(model, x)
        np.testing.assert_allclose(scores, [2.0 - 2.0 + 0.1, -3.0 - 0.5 - 0.2])
        assert best == 0

    @pytest.mark.parametrize("negatives", [False, True])
    def test_prediction_scores_are_svm_predict_scores(self, negatives):
        # the detector is fit exactly when the labels hold both polarities
        x, y = toy_two_class(gap=1.0)
        if negatives:
            y[:4] = models.NEGATIVE_LABEL
        model = models.svm_train(x, y, epochs=50)
        assert (model.det_weight is not None) == negatives
        for row in np.random.default_rng(5).normal(size=(6, 2)):
            pred = models.svm_prediction(model, row)
            np.testing.assert_array_equal(pred.scores, models.svm_predict(model, row)[0])

    def test_non_support_point_removal_barely_moves_decision(self):
        x, y = toy_two_class(n=20, gap=4.0, seed=7)
        yy = np.where(y == 0, 1.0, -1.0)
        full = models.svm_train(x, y, c=1.0, epochs=3000)
        w, b = full.weights[0], full.biases[0]
        margins = yy * (x @ w + b)
        loose = int(np.argmax(margins))          # far outside the margin
        assert margins[loose] > 1.0
        keep = np.arange(len(x)) != loose
        reduced = models.svm_train(x[keep], y[keep], c=1.0, epochs=3000)
        held_out = np.random.default_rng(9).normal(size=(10, 2))
        s_full = held_out @ full.weights[0] + full.biases[0]
        s_red = held_out @ reduced.weights[0] + reduced.biases[0]
        assert np.abs(s_full - s_red).max() < 1e-3


def reference_binary_svm(x, y, c, max_sweeps, gram):
    """One machine solved alone, step by step: the solver `svm_train` ran per
    machine before the machines were stepped together. Returns
    (w, b, history, converged)."""
    n = len(y)
    pos = y > 0
    diag = np.diag(gram)
    alpha = np.zeros(n)
    grad = -np.ones(n)

    def kkt_state():
        viol = -y * grad
        up = np.where(pos, alpha < c, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < c)
        return viol, up, low

    def solution():
        viol, up, low = kkt_state()
        free = up & low
        if free.any():
            b = viol[free].mean()
        else:
            b = (viol[up].max() + viol[low].min()) / 2.0
        return x.T @ (alpha * y), float(b)

    history = [models._hinge_objective(x, y, *solution(), c)]
    converged = False
    for _ in range(max_sweeps):
        for _ in range(n):
            viol, up, low = kkt_state()
            i = int(np.argmax(np.where(up, viol, -np.inf)))
            if viol[i] - viol[low].min() < models.SVM_KKT_TOL:
                converged = True
                break
            gain = viol[i] - viol
            curvature = np.maximum(diag[i] + diag - 2.0 * gram[i], models._MIN_CURVATURE)
            j = int(np.argmax(np.where(low & (gain > 0), gain * gain / curvature, -np.inf)))
            room_i = c - alpha[i] if pos[i] else alpha[i]
            room_j = alpha[j] if pos[j] else c - alpha[j]
            step = min(gain[j] / curvature[j], room_i, room_j)
            old_i, old_j = alpha[i], alpha[j]
            alpha[i] += y[i] * step
            alpha[j] -= y[j] * step
            if step == room_i:
                alpha[i] = c if pos[i] else 0.0
            if step == room_j:
                alpha[j] = 0.0 if pos[j] else c
            grad += y * ((alpha[i] - old_i) * y[i] * gram[i]
                         + (alpha[j] - old_j) * y[j] * gram[j])
        history.append(min(history[-1], models._hinge_objective(x, y, *solution(), c)))
        if converged:
            break
    return (*solution(), history, converged)


def overlapping_classes(n_per_class=12, k=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=1.5, size=(k, d))
    x = np.concatenate([rng.normal(size=(n_per_class, d)) + mu for mu in centres])
    return x, np.repeat(np.arange(k), n_per_class)


def integer_tie_problem(n, seed):
    # small integer features make many violations equal, so argmax ties are
    # broken by index, and pair steps that end on a bound are common
    x = np.random.default_rng(seed).integers(-2, 3, size=(n, 3)).astype(float)
    return x, np.arange(n) % 4


def assert_machines_match_reference(fits, x, labels, c, epochs):
    """Every machine of each model in `fits`, all fit on (x, labels), equals
    the reference's lone machine bit for bit: weights, bias, history and
    converged flag. Returns the reference's (w, b, history, converged) per
    machine."""
    ys = [np.where(labels == cls, 1.0, -1.0) for cls in range(len(fits[0].biases))]
    if fits[0].det_weight is not None:
        ys.append(np.where(labels >= 0, 1.0, -1.0))
    ref = [reference_binary_svm(x, y, c, epochs, x @ x.T) for y in ys]
    for model in fits:
        weights, biases = list(model.weights), list(model.biases)
        if model.det_weight is not None:
            weights.append(model.det_weight)
            biases.append(model.det_bias)
        assert model.objective_history == [history for _, _, history, _ in ref]
        assert model.converged == [converged for *_, converged in ref]
        for (w, b, _, _), got_w, got_b in zip(ref, weights, biases, strict=True):
            # bytes, not ==, so that a zero of the other sign counts as a change
            assert got_w.tobytes() == w.tobytes()
            assert np.float64(got_b).tobytes() == np.float64(b).tobytes()
    return ref


def fit_with_each_pair_update(fit):
    """fit() once with each form of the solver's pair update: numpy arrays
    (SVM_VECTOR_MACHINES at 1), then Python floats (above any test's machine
    count). Returns the two results."""
    fits = []
    for machines in (1, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "SVM_VECTOR_MACHINES", machines)
            fits.append(fit())
    return fits


class TestBatchedSvmMatchesReference:
    """svm_train steps all machines together; each must equal, bit for bit,
    the machine solved alone by the reference, with either pair update."""

    def check(self, x, labels, c, epochs):
        # epochs=0 too: no sweep, so every history has one entry, no machine
        # converges and every a stays 0
        for sweeps in (0, epochs):
            fits = fit_with_each_pair_update(lambda: models.svm_train(x, labels, c=c,
                                                                      epochs=sweeps))
            ref = assert_machines_match_reference(fits, x, labels, c, sweeps)
        return ref

    def test_machines_converge_at_different_sweeps(self):
        x, y = overlapping_classes()
        ref = self.check(x, y, c=1.0, epochs=200)
        assert all(conv for *_, conv in ref)
        assert len({len(history) for _, _, history, _ in ref}) > 1

    def test_some_machines_capped(self):
        x, y = overlapping_classes(seed=1)
        ref = self.check(x, y, c=1.0, epochs=2)
        assert {conv for *_, conv in ref} == {True, False}

    def test_no_free_alpha(self):
        x, y = overlapping_classes(seed=2)
        self.check(x, y, c=1e-8, epochs=20)

    def test_duplicated_rows_hit_curvature_guard(self):
        # copies under another class pair points at zero distance with
        # opposite labels, so j is picked on the _MIN_CURVATURE floor
        x, y = overlapping_classes(n_per_class=6, k=3, seed=3)
        x, y = np.concatenate([x, x[:8]]), np.concatenate([y, (y[:8] + 1) % 3])
        self.check(x, y, c=1.0, epochs=50)

    def test_detector_with_negatives(self):
        x, y = overlapping_classes(seed=4)
        y[::5] = models.NEGATIVE_LABEL
        ref = self.check(x, y, c=0.5, epochs=40)
        assert len(ref) == 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integer_features_tie_and_hit_bounds_together(self, seed):
        ref = self.check(*integer_tie_problem(40, seed), c=1.0, epochs=60)
        assert all(conv for *_, conv in ref)

    def test_step_lands_exactly_on_a_bound(self):
        # at C = 1, a power of two, a + (C - a) rounds back to C for every
        # 0 <= a <= C, so a step that moved a point by its room would end on
        # the bound anyway; at C = 1.3 it need not, and some steps here
        # reach a bound where it does not
        self.check(*integer_tie_problem(30, 7), c=1.3, epochs=40)

    def test_benchmark_shaped_set(self):
        # 100 rows of 256 correlated features, 5 classes and the detector,
        # capped at 30 sweeps: some machines stop at the cap, others
        # converge at different sweeps
        rng = np.random.default_rng(5)
        y = np.repeat(np.arange(5), 20)
        y[::6] = models.NEGATIVE_LABEL
        z = rng.normal(size=(100, 8)) + rng.normal(size=(6, 8))[y + 1]
        x = (z[:, :, None] * rng.normal(size=(8, 256))).sum(axis=1) \
            + 0.1 * rng.normal(size=(100, 256))
        ref = self.check(x, y, c=1.0, epochs=30)
        converged = [conv for *_, conv in ref]
        assert len(ref) == 6 and set(converged) == {True, False}
        assert len({len(history) for _, _, history, conv in ref if conv}) > 1


class TestSvmTrainBatch:
    """svm_train_batch steps the machines of several problems together, with
    rows padded to the largest problem; each machine must equal, bit for
    bit, the machine solved alone by the reference, with either pair
    update."""

    def check(self, problems, c, epochs):
        # epochs=0 too, as in TestBatchedSvmMatchesReference.check
        for sweeps in (0, epochs):
            got = fit_with_each_pair_update(lambda: models.svm_train_batch(problems, c=c,
                                                                           epochs=sweeps))
            refs = [assert_machines_match_reference(fits, x, labels, c, sweeps)
                    for (x, labels), *fits in zip(problems, *got, strict=True)]
        return refs

    def test_integer_feature_ties_in_problems_of_different_sizes(self):
        problems = [integer_tie_problem(n, seed) for n, seed in ((40, 0), (37, 1), (41, 2))]
        refs = self.check(problems, c=1.0, epochs=60)
        assert all(conv for ref in refs for *_, conv in ref)

    def test_no_free_alpha(self):
        problems = [overlapping_classes(n_per_class=n, seed=seed)
                    for n, seed in ((10, 2), (12, 3))]
        self.check(problems, c=1e-8, epochs=20)

    def test_machines_converge_mid_sweep_beside_capped_ones(self):
        # a 36-row and a 48-row problem capped at 4 sweeps: some machines
        # converge within a sweep, others run into the cap
        problems = [overlapping_classes(n_per_class=n, seed=1) for n in (9, 12)]
        refs = self.check(problems, c=1.0, epochs=4)
        assert {conv for ref in refs for *_, conv in ref} == {True, False}
        # a machine whose objective fell after its last sweep stopped mid-sweep
        assert any(conv and history[-1] < history[-2]
                   for ref in refs for _, _, history, conv in ref)

    def test_problem_done_before_its_sweep_ends_beside_one_running_on(self):
        # the last machine of the 18-row problem converges within a sweep,
        # so at that sweep's end only the 48-row problem's machines still run
        problems = [overlapping_classes(n_per_class=6, k=3, seed=2),
                    overlapping_classes(n_per_class=12, seed=1)]
        refs = self.check(problems, c=1.0, epochs=5)
        assert all(conv for ref in refs for *_, conv in ref)

    def test_runs_split_by_batch_bytes(self, monkeypatch):
        problems = [integer_tie_problem(n, seed)
                    for n, seed in ((40, 3), (37, 4), (41, 5), (20, 6))]
        sizes = [len(x) for x, _ in problems]
        # Gram and curvature bytes of the first two problems, rows padded to 40
        monkeypatch.setattr(models, "SVM_BATCH_BYTES", 16 * 77 * 40)
        runs = models.svm_batches(sizes)
        assert runs == [[0, 1], [2, 3]]
        for run in runs:
            self.check([problems[p] for p in run], c=1.0, epochs=60)

    def test_batches(self, monkeypatch):
        monkeypatch.setattr(models, "SVM_BATCH_BYTES", 16 * 100 * 100)
        assert models.svm_batches([]) == []
        # a problem too large for the bound runs alone
        assert models.svm_batches([120, 50, 50, 100]) == [[0], [1, 2], [3]]
        assert models.svm_batches([40, 30, 20, 10]) == [[0, 1, 2, 3]]


class TestStandardizer:
    def test_fit_transform(self):
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(100, 4))
        sc = models.Standardizer.fit(x)
        z = sc.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_no_blowup(self):
        x = np.ones((10, 2))
        z = models.Standardizer.fit(x).transform(x)
        assert np.isfinite(z).all()


def _cnn(monkeypatch, seed, frames):
    """A JointCnnModel whose inputs are `frames` frames long, for one test:
    small inputs keep the CNN tests fast."""
    monkeypatch.setattr(models, "T_FIXED_DEFAULT", frames)
    return models.JointCnnModel(seed=seed)


class TestCnnForward:
    def test_zero_input_zero_heads_symmetric(self, monkeypatch):
        model = _cnn(monkeypatch, 0, 32)
        for name in ("det1.w", "det1.b", "det2.w", "det2.b",
                     "typ1.w", "typ1.b", "typ2.w", "typ2.b"):
            model.params[name][:] = 0.0
        mel = np.zeros((32, 128))
        pred = models.cnn_forward(model, mel)
        assert pred.p_gunshot == 0.5
        np.testing.assert_allclose(pred.type_posteriors, 0.2, atol=1e-12)

    def test_posteriors_sum_to_one(self, monkeypatch):
        model = _cnn(monkeypatch, 1, 32)
        mel = np.random.default_rng(0).normal(size=(40, 128))
        pred = models.cnn_forward(model, mel)
        np.testing.assert_allclose(pred.type_posteriors.sum(), 1.0, atol=1e-9)

    def test_wrong_band_count_rejected(self):
        model = models.JointCnnModel(seed=0)
        with pytest.raises(InvalidParam,
                           match=re.escape("expected [T, 128] frames, got (32, 64)")):
            models.cnn_forward(model, np.zeros((32, 64)))

    def test_crop_and_pad(self, monkeypatch):
        model = _cnn(monkeypatch, 0, 32)
        long = model.prepare_input(np.random.default_rng(0).normal(size=(50, 128)))
        short = model.prepare_input(np.random.default_rng(0).normal(size=(10, 128)))
        assert long.shape == (32, 128) and short.shape == (32, 128)

    def test_prediction_scores_are_p_times_posteriors(self, monkeypatch):
        model = _cnn(monkeypatch, 4, 16)
        rng = np.random.default_rng(3)
        for _ in range(4):
            pred = models.cnn_forward(model, rng.normal(size=(16, 128)))
            np.testing.assert_array_equal(pred.scores, pred.p_gunshot * pred.type_posteriors)

    def test_detection_head_scale_leaves_type_argmax(self, monkeypatch):
        model = _cnn(monkeypatch, 2, 32)
        mel = np.random.default_rng(1).normal(size=(32, 128))
        before = models.cnn_forward(model, mel).type_posteriors
        model.params["det1.w"] *= 2.0      # heads are independent after trunk
        after = models.cnn_forward(model, mel).type_posteriors
        np.testing.assert_array_equal(before, after)


class TestJointLoss:
    def test_lambda_zero_kills_type_gradient(self):
        model = models.JointCnnModel(seed=3)
        x = np.random.default_rng(0).normal(size=(2, 1, 16, 128))
        _, graph = models.batch_loss_graph(model, x, np.array([2, 4]), lambda_type=0.0,
                                           keep_caches=True)
        grads = nn.backward(*graph)
        for name in ("typ1.w", "typ1.b", "typ2.w", "typ2.b"):
            assert np.all(grads[name] == 0.0)

    def test_trunk_receives_gradient_from_both_heads(self):
        model = models.JointCnnModel(seed=4)
        x = np.abs(np.random.default_rng(1).normal(size=(4, 1, 16, 128))) + 0.1
        y_type = np.array([0, 1, 2, 3])

        def trunk_grad(lam, det_only):
            _, graph = models.batch_loss_graph(model, x, y_type, lam, keep_caches=True)
            return nn.backward(*graph)["conv3.w"]

        g_det_only = trunk_grad(0.0, True)       # only detection path
        g_joint = trunk_grad(1.0, False)         # both heads
        assert np.abs(g_det_only).sum() > 0
        assert np.abs(g_joint - g_det_only).sum() > 0   # type head adds its share

    def test_gradient_of_every_parameter_matches_finite_differences(self):
        # a [4, 1, 8, 8] batch with both heads active and a negative clip;
        # the 8x8 input halves to 4x4, 2x2 and 1x1 through the three pools
        model = models.JointCnnModel(seed=12)
        x = np.random.default_rng(4).normal(size=(4, 1, 8, 8))
        y_type = np.array([3, models.NEGATIVE_LABEL, 0, 4])

        def loss_and_grads(params):     # gradcheck perturbs model.params in place
            loss, graph = models.batch_loss_graph(model, x, y_type, 0.7, keep_caches=True)
            return loss, nn.backward(*graph)

        # every entry moves every pool window's candidates, so at the default
        # 1e-3 step some difference straddles a tie or a relu kink; at 1e-5
        # none does, and rounding stays far below FD_TOL
        assert len(model.params) == 14
        gradcheck(loss_and_grads, model.params, samples=12, step=1e-5)


class TestArrayParams:
    """JointCnnModel.forward on its parameter arrays, with the layer caches
    kept (a training step) and without (inference and the validation loss):
    the same values, and no activation kept by the second."""

    @staticmethod
    def _batch(n, t):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(n, 1, t, 128))
        y_type = np.where(np.arange(n) % 2 == 1, np.arange(n) % 5, models.NEGATIVE_LABEL)
        return x, y_type

    def test_eval_loss_keeps_no_activations(self, monkeypatch):
        # kept caches hold every layer's activations and im2col columns until
        # they are dropped; without them, only the largest single op's are
        # live at once
        model = _cnn(monkeypatch, 5, 32)
        x, y_type = self._batch(16, 32)

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        data = models.LabeledMelSet(list(x[:, 0]), y_type)
        kept = peak_bytes(lambda: models.batch_loss_graph(model, x, y_type, 1.0,
                                                          keep_caches=True))
        plain = peak_bytes(lambda: models._eval_loss(model, data, 1.0))
        assert plain < 0.6 * kept

    def test_trunk_relu_caches_the_pool_output(self):
        # relu's cache is its input, which in the trunk is memory the pool's
        # cache already holds, so a kept step stores no relu output
        model = models.JointCnnModel(seed=4)
        x, _ = self._batch(2, 16)
        *_, (trunk, _, _) = model.forward(x, keep_caches=True)
        relus = [i for i, (bwd, _, _) in enumerate(trunk) if bwd is nn.relu_backward]
        assert len(relus) == len(models.TRUNK_CHANNELS)
        for i in relus:
            assert trunk[i - 1][0] is nn.maxpool2d_backward
            _, pool_out, _, _ = trunk[i - 1][1]
            assert np.shares_memory(trunk[i][1], pool_out)

    @pytest.mark.parametrize("t", [32, 128])
    def test_backward_peak_stays_near_the_forward_caches(self, t):
        # backward frees each layer's cache once it has run, a conv's input
        # gradient is built one kernel tap at a time, and relu's cache is
        # the pool output the pool's cache holds: so the walk holds little
        # beyond the forward's caches. An im2col-sized input gradient beside
        # the columns, or a relu output kept as well, makes it 1.2x.
        model = models.JointCnnModel(seed=3)
        x, y_type = self._batch(4, t)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, graph = models.batch_loss_graph(model, x, y_type, 1.0, keep_caches=True)
            cache_bytes = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            nn.backward(*graph)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * cache_bytes, (peak, cache_bytes)

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_chunked_trunk_matches_the_whole_batch(self, n):
        # batch sizes that are not multiples of TRUNK_CHUNK: the forward that
        # keeps no cache runs the trunk in chunks, the training one over the
        # whole batch
        assert n % models.TRUNK_CHUNK
        model = models.JointCnnModel(seed=6)
        x, y_type = self._batch(n, 16)
        *kept, steps = model.forward(x, keep_caches=True)
        *plain, no_steps = model.forward(x)
        assert steps is not None and no_steps is None
        for a, b in zip(kept, plain, strict=True):
            assert a.tobytes() == b.tobytes()
        kept, graph = models.batch_loss_graph(model, x, y_type, 0.7, keep_caches=True)
        plain, no_graph = models.batch_loss_graph(model, x, y_type, 0.7)
        assert graph is not None and no_graph is None
        assert plain == kept


STATS_RTOL = 1e-13    # the input stats' largest error relative to exact sums


def _knobs(**given):
    """cnn_train's keyword arguments: `gsb train`'s defaults, `given` in their place."""
    return {"epochs": 30, "batch_size": 16, "lr": 1e-3, "patience": 5, "seed": 0, **given}


class TestCnnTrain:
    def _tiny_sets(self, n=12, t=16, seed=0):
        rng = np.random.default_rng(seed)
        mels, y_type = [], []
        for i in range(n):
            positive = i % 2 == 0
            base = np.full((t, 128), -10.0)
            if positive:
                band = 20 * (i % 5)
                base[:, band : band + 20] += 6.0
            mels.append(base + rng.normal(size=(t, 128)) * 0.1)
            y_type.append((i % 5) if positive else -1)
        k = int(n * 0.75)
        mk = models.LabeledMelSet
        return mk(mels[:k], np.array(y_type[:k])), mk(mels[k:], np.array(y_type[k:]))

    @staticmethod
    def _mel_set(n, frames, seed):
        rng = np.random.default_rng(seed)
        mels = [(rng.normal(size=(frames, 128)) * 3.0 - 7.0).astype(np.float32)
                for _ in range(n)]
        y_type = np.where(np.arange(n) % 2 == 1, np.arange(n) % 5, models.NEGATIVE_LABEL)
        return models.LabeledMelSet(mels, y_type)

    @staticmethod
    def _exact_stats(mels):
        """math.fsum mean and std of every value of `mels`, in float64."""
        flat = np.concatenate([np.ravel(m) for m in mels], dtype=np.float64)
        mean = math.fsum(flat) / flat.size
        return mean, math.sqrt(math.fsum((flat - mean) ** 2) / flat.size)

    def test_input_stats_equal_numpy_on_the_concatenated_mels(self, monkeypatch):
        train, val = self._mel_set(7, 24, seed=1), self._mel_set(3, 24, seed=2)
        train.mels[3] = train.mels[3][:11]          # clips of unequal length
        model = _cnn(monkeypatch, 0, 16)
        cfg = _knobs(epochs=1, batch_size=4)
        models.cnn_train(model, train, val, **cfg)
        flat = np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in train.mels])
        for got, want in ((model.input_mean, flat.mean()), (model.input_std, np.std(flat))):
            assert abs(got - want) <= STATS_RTOL * abs(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_stats_match_exact_sums(self, dtype):
        # 11 mels of unequal length, none a multiple of 8, whose values span
        # orders of magnitude, so the order of a float64 sum shows in its
        # low bits; float32 is the type of a mel cache
        rng = np.random.default_rng(9)
        shapes = [(frames, 13) for frames in (1, 13, 97, 211, 3, 45, 301, 5, 77, 129, 33)]
        mels = [(rng.normal(size=shape) * np.exp(2.0 * rng.normal(size=shape))).astype(dtype)
                for shape in shapes]
        for got, want in zip(models._input_stats(mels), self._exact_stats(mels), strict=True):
            assert abs(got - want) <= STATS_RTOL * abs(want), (got, want)

    def test_peak_memory_does_not_grow_by_a_float64_copy_per_clip(self, monkeypatch):
        # Mels 64x longer than the model's input would make a float64 copy
        # of the training mels the peak, growing by one copy per extra clip.
        # The stats hold one mel's float64 copy at a time, so 16 more clips
        # leave the peak where it was.
        frames, t = 512, 8
        val = self._mel_set(4, frames, seed=3)

        def peak(n):
            train = self._mel_set(n, frames, seed=4)
            model = _cnn(monkeypatch, 1, t)
            cfg = _knobs(epochs=1, batch_size=2)
            tracemalloc.start()
            try:
                models.cnn_train(model, train, val, **cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra_float64_bytes = 16 * frames * 128 * 8
        assert peak(24) - peak(8) < 0.25 * extra_float64_bytes

    def test_peak_memory_holds_one_steps_caches(self, monkeypatch):
        # A step's layer caches are freed as its backward runs, so no step's
        # caches are alive while the next step's forward builds its own;
        # holding the previous step's graph through the next forward makes
        # the peak about two steps' caches.
        t = 32
        train, val = self._mel_set(12, t, seed=5), self._mel_set(4, t, seed=6)
        model = _cnn(monkeypatch, 2, t)
        cfg = _knobs(epochs=1, batch_size=4)
        x = models._stack_inputs(model, train.mels[:4])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = models.batch_loss_graph(model, x, train.y_type[:4], 1.0, keep_caches=True)
            step_bytes = tracemalloc.get_traced_memory()[0] - before
            del graph
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            models.cnn_train(model, train, val, **cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * step_bytes, (peak, step_bytes)

    def test_non_finite_loss_reports_the_last_finite_batch_loss(self, monkeypatch):
        train, val = self._tiny_sets()
        finite = []
        real = models.batch_loss_graph

        def recording(*args, **kwargs):
            loss, graph = real(*args, **kwargs)
            finite.append(loss)
            return loss, graph

        monkeypatch.setattr(models, "batch_loss_graph", recording)
        model = _cnn(monkeypatch, 0, 16)
        cfg = _knobs(epochs=1, batch_size=3, lr=1e300)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss) as err:
            models.cnn_train(model, train, val, **cfg)
        assert finite, "the first batch's loss is finite"
        assert f"epoch 0, batch at {3 * len(finite)}" in str(err.value)
        assert f"last finite batch loss {finite[-1]!r}" in str(err.value)

    def test_parameter_overflow_ends_in_non_finite_loss(self, monkeypatch):
        # the first step's update itself leaves float64 range
        train, val = self._tiny_sets()
        model = _cnn(monkeypatch, 0, 16)
        cfg = _knobs(epochs=1, batch_size=3, lr=1e308)
        names = "|".join(map(re.escape, model.params))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteLoss, match=rf"batch at 0 \(last finite batch loss "
                                                   rf"none\): parameter ({names}) after sgd_step"):
            models.cnn_train(model, train, val, **cfg)

    def test_patience_zero_runs_exactly_one_epoch(self, monkeypatch):
        train, val = self._tiny_sets()
        model = _cnn(monkeypatch, 0, 16)
        cfg = _knobs(epochs=10, patience=0, seed=0)
        history = models.cnn_train(model, train, val, **cfg)
        assert len(history) == 1

    def test_same_seed_identical_history_and_params(self, monkeypatch):
        train, val = self._tiny_sets()
        runs = []
        for _ in range(2):
            model = _cnn(monkeypatch, 5, 16)
            cfg = _knobs(epochs=3, patience=3, seed=5)
            history = models.cnn_train(model, train, val, **cfg)
            digest = b"".join(a.tobytes() for a in model.params.values())
            runs.append((history, digest))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_training_loss_decreases(self, monkeypatch):
        train, val = self._tiny_sets(n=24)
        model = _cnn(monkeypatch, 1, 16)
        cfg = _knobs(epochs=10, lr=5e-3, patience=10, seed=1)
        history = models.cnn_train(model, train, val, **cfg)
        assert history[9]["train_loss"] < history[0]["train_loss"]

    def test_separable_set_reaches_f1(self, monkeypatch):
        train, val = self._tiny_sets(n=50, seed=2)
        model = _cnn(monkeypatch, 2, 16)
        cfg = _knobs(epochs=30, lr=1e-2, patience=30, seed=2)
        models.cnn_train(model, train, val, **cfg)
        decided = np.array([models.cnn_forward(model, m, threshold=0.5).detected
                            for m in val.mels], dtype=int)
        assert detection_f1((val.y_type >= 0).astype(int), decided) >= 0.95


class TestPrediction:
    def test_threshold_extremes(self, monkeypatch):
        model = _cnn(monkeypatch, 6, 16)
        rng = np.random.default_rng(2)
        mels = [rng.normal(size=(16, 128)) for _ in range(7)]
        assert all(models.cnn_forward(model, m, threshold=0.0).detected for m in mels)
        assert not any(models.cnn_forward(model, m, threshold=1.0 + 1e-9).detected
                       for m in mels)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_forward(self, monkeypatch, tmp_path):
        model = _cnn(monkeypatch, 7, 16)
        model.input_mean, model.input_std = -3.0, 2.0
        nn.save_checkpoint(tmp_path / "m.ckpt", model.named_arrays())
        twin = _cnn(monkeypatch, 99, 16)
        twin.load_arrays(nn.load_checkpoint(tmp_path / "m.ckpt"))
        mel = np.random.default_rng(3).normal(size=(16, 128))
        a = models.cnn_forward(model, mel)
        b = models.cnn_forward(twin, mel)
        assert a.p_gunshot == b.p_gunshot
        np.testing.assert_array_equal(a.type_posteriors, b.type_posteriors)
