"""Classifiers: a one-vs-rest linear SVM baseline and a joint
detection + gun-type CNN (shared conv trunk, two heads), with training loops.

A clip's only label is its gun type, 0..K-1, or NEGATIVE_LABEL for a clip
without a gunshot; its detection label is derived as type >= 0 wherever it
is needed (the manifest holds a class exactly when a clip has a gunshot).

The CNN reads a clip's log-mel cropped or padded to T_FIXED_DEFAULT frames,
a constant like the clip length (synthgun.CLIP_SECONDS), and standardized by
the training mels. Its SGD momentum and the weight of its type loss are the
constants MOMENTUM and LAMBDA_TYPE, since every caller uses one value (the
loss and the optimizer still take both as parameters); the SVM's C is
`svm_train`'s `c`, 1.0 by default.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nncore as nn
from .errors import InvalidParam, NonFiniteLoss, NonFiniteTensor
from .manifest import N_CLASSES, NEGATIVE_LABEL
from .dsp import LOG_EPS, N_MELS

PAD_VALUE = float(np.log(LOG_EPS))   # log-mel silence floor used for padding


# ---------------------------------------------------------------------------
# shared bits
# ---------------------------------------------------------------------------

@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.asarray(x, dtype=np.float64)
        return cls(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8))

    def transform(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


@dataclass
class Prediction:
    p_gunshot: float
    type_posteriors: np.ndarray      # 5-simplex
    detected: bool                   # the detection score reached the threshold
    scores: np.ndarray               # [K] ranking scores that AP is computed from


# ---------------------------------------------------------------------------
# SVM baseline
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    weights: np.ndarray              # [K, d] one-vs-rest machines
    biases: np.ndarray               # [K]
    det_weight: np.ndarray | None    # optional binary gunshot machine
    det_bias: float
    objective_history: list = field(default_factory=list)  # per machine
    converged: list = field(default_factory=list)  # per machine; not checkpointed


def _hinge_objective(x, y, w, b, c):
    """||w||^2 / (2C) + total hinge loss (sum form: points outside the margin
    contribute nothing, so dropping one leaves the objective unchanged)."""
    margins = 1.0 - y * (x @ w + b)
    return float((w @ w) / (2.0 * c) + np.maximum(margins, 0.0).sum())


SVM_KKT_TOL = 1e-6        # largest KKT violation left in a converged dual solution
_MIN_CURVATURE = 1e-12    # guards pairs of coincident points (zero curvature)
SVM_BATCH_BYTES = 32 << 20    # Gram and curvature bytes one batched solver run may hold
SVM_VECTOR_MACHINES = 18      # machines from which a solver run updates its pairs in numpy
_PAIR_SIGN = np.array([[1.0], [-1.0]])    # a_i y_i rises by the step, a_j y_j falls
_PENALTY = np.array([-np.inf, 0.0])     # indexed by whether a_t y_t may still move that way


def _curvature(gram):
    """||x_s - x_t||^2 of every pair of points, floored at _MIN_CURVATURE."""
    diag = np.diag(gram)
    return np.maximum(diag[:, None] + diag - 2.0 * gram, _MIN_CURVATURE)


def _train_svms(problems, c, max_sweeps):
    """Exact minimizers of ||w||^2 / (2C) + sum_i max(0, 1 - y_i (w . x_i + b))
    with b unregularized, one machine per row of each problem's [m_p, n_p]
    matrix of +-1 labels, for the (x [n_p, d], labels) pairs of `problems`,
    found by SMO on the dual (Platt 1998):

        min_a  a'Qa / 2 - sum(a),   Q_ij = y_i y_j x_i . x_j,
        s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0,

    with w = sum_i a_i y_i x_i. Each step takes i with the largest KKT
    violation and j by the second-order rule (Fan, Chen & Lin, JMLR 2005),
    and moves the pair to the dual optimum along the line that keeps
    sum a_i y_i fixed. The dual gradient G = Qa - 1 is updated in O(n) per
    step from the problem's Gram matrix K = x x'.

    The machines are independent, so all that are still running, of every
    problem, step together, and each step picks the same i and j and writes
    the same values, bit for bit, as a machine solved alone. The Gram and
    curvature rows of every problem are stacked in one flat array each,
    padded to the largest n_p, and a machine gathers its rows through its
    problem's first row; a lone problem is a run of one. Each running
    machine keeps rows of v = -y G, of ay = a_t y_t, of its upper bound hi,
    and of two penalties that are 0 or -inf: pu is 0 where ay may still rise
    (the "up" set), pl is 0 where it may still fall (the "low" set), and
    both are -inf in the padding. 0 <= a_t <= C puts ay in [hi - C, hi],
    with hi = C where y_t > 0 and -0.0, the a_t y_t of a_t = 0, where
    y_t < 0: so ay stays a_t y_t bit for bit, zeros included, and hi - C is
    0 or -C exactly. Then
    - i = argmax(v + pu), and the KKT violation is (v + pu)_i - min(v - pl).
      A 0 penalty changes a value at most in the sign of a zero, and argmax
      and argmin see the two zeros as equal;
    - j = argmax(gain |gain| / curvature), gain = (v + pu)_i - (v - pl),
      which is (v + pu)_i - v in low and -inf outside it and in the padding.
      A machine that gets this far has a violation >= SVM_KKT_TOL, so a
      point in low has gain >= SVM_KKT_TOL > 0. The points a lone machine
      leaves out (outside low, or gain <= 0) and the padding score -inf or
      <= 0, so none wins or ties;
    - the pair moves by min(min(gain_j / curvature_ij, room_i), room_j),
      with room_i = hi_i - ay_i and room_j = ay_j - lo_j, lo = hi - C: ay_i
      rises by it and ay_j falls by it, and a point whose room it equals
      lands exactly on its bound, so it leaves the candidate set instead of
      being picked again for a 0 step;
    - G += y S, S = (ay' - ay)_i K_i + (ay' - ay)_j K_j, becomes v -= S:
      with y = +-1, -y (G + y S) and -y G - S differ at most in the sign of
      a zero, as negation is exact and rounding symmetric. The padding's
      Gram entries are 0, so its v stays 0.
    A run of fewer than SVM_VECTOR_MACHINES machines updates each machine's
    pair in a loop on Python floats, which beats numpy calls on arrays this
    short; a larger run updates every running machine's pair at once, in a
    fixed number of numpy calls over [2, machines] arrays. Both forms give
    the same IEEE results.
    A machine freezes, and none of its entries is written again, once its
    KKT violation max_up(v) - min_low(v) is below SVM_KKT_TOL; the rest run
    on until they freeze or have made `max_sweeps` sweeps. A sweep is n_p
    steps of the machine's own problem: every machine has taken the same
    number of steps, so the machines of one problem end their sweeps
    together. w = x' ay, and b is the mean of v over free a_t, or the
    midpoint of the feasible KKT interval when no a_t is free (the C -> 0
    case).

    Returns, per problem, (w [m_p, d], b [m_p], histories, converged). A
    history holds the best primal objective seen so far, at the start,
    after every sweep the machine finished and when it froze, so it is
    non-increasing; converged[r] is False for a machine stopped by the
    sweep cap."""
    sizes = [len(x) for x, _ in problems]
    width = max(sizes)
    starts = np.cumsum([0] + sizes)[:-1]      # each problem's first row in gram and curvature
    # padded entries: Gram 0 keeps v at 0, and curvature 1 keeps the score finite
    gram, curvature = np.zeros((sum(sizes), width)), np.ones((sum(sizes), width))
    for (x, _), r0, n in zip(problems, starts, sizes):
        block = x @ x.T
        gram[r0 : r0 + n, :n] = block
        curvature[r0 : r0 + n, :n] = _curvature(block)
    owner = np.repeat(np.arange(len(problems)), [len(labels) for _, labels in problems])
    m, n_of = len(owner), np.take(sizes, owner)
    ys = np.zeros((m, width))
    for p, (_, labels) in enumerate(problems):
        ys[owner == p, : sizes[p]] = labels
    # the running machines: live holds their indices, and v, ay, hi, pu, pl
    # and row0 (the first row of the machine's problem in gram and
    # curvature) hold their rows. At a = 0, G = -1 and ay = 0 y_t.
    live, v, ay, row0 = np.arange(m), ys.copy(), 0.0 * ys, starts[owner]
    first = np.arange(m) * width       # flat index of each row
    hi = np.where(ys > 0, c, -0.0)
    points = np.arange(width) < n_of[:, None]
    pu, pl = (np.where(mask & points, 0.0, -np.inf) for mask in (ay < hi, ay > hi - c))
    penalty = _PENALTY.tolist()

    def record(sel):
        # the solution of each running machine picked by `sel`, and its best
        # primal objective so far
        for t in np.flatnonzero(sel).tolist():
            r, n = live[t], n_of[live[t]]
            x, y, a, vt = problems[owner[r]][0], ys[r, :n], ay[t, :n], v[t, :n]
            up, low = a < hi[t, :n], a > hi[t, :n] - c
            free = up & low
            b = vt[free].mean() if free.any() else (vt[up].max() + vt[low].min()) / 2.0
            solved[r] = x.T @ a, float(b)
            objective = _hinge_objective(x, y, *solved[r], c)
            histories[r].append(min(histories[r][-1:] + [objective]))   # none before the start

    def keep_rows(keep):
        nonlocal live, v, ay, hi, pu, pl, row0, first
        live, v, ay, hi, pu, pl, row0 = (t[keep] for t in (live, v, ay, hi, pu, pl, row0))
        first = np.arange(len(live)) * width       # flat index of each row

    solved, histories, converged = [None] * m, [[] for _ in range(m)], np.zeros(m, bool)
    record(np.ones(m, bool))      # the starting point
    keep_rows(np.full(m, max_sweeps > 0))      # with no sweep, every machine stops there

    def pair_arrays(i, j, gain, cur):
        # the new a_t y_t of every machine's pair, over [2, machines] arrays
        # (row 0 holds i, row 1 holds j), and the coefficients new - old of
        # its Gram rows; cur holds each machine's curvature row of i
        f = np.concatenate((i, j)).reshape(2, -1)
        f += first
        old, high = ay.take(f), hi.take(f)
        low = high - c
        target = np.where(_PAIR_SIGN > 0, high, low)
        room = target - old
        room *= _PAIR_SIGN                      # hi_i - ay_i, ay_j - lo_j
        step = gain.take(f[1])
        step /= cur.take(f[1])
        np.minimum(step, room[0], out=step)
        np.minimum(step, room[1], out=step)
        # land exactly on a bound the step reached, so the point leaves the
        # candidate set instead of being picked again for a 0 step
        new = step * _PAIR_SIGN
        new += old
        np.copyto(new, target, where=room == step)
        ay.put(f, new)
        pu.put(f, _PENALTY.take(new < high))      # a bool index takes entry 0 or 1
        pl.put(f, _PENALTY.take(new > low))
        new -= old
        return new.ravel()

    def pair_floats(i, j, gain, cur):
        # pair_arrays on Python floats, one machine at a time
        di, dj = [], []
        for t, (ii, jj) in enumerate(zip(i.tolist(), j.tolist())):
            old_i, old_j = ay.item(t, ii), ay.item(t, jj)
            hi_i, hi_j = hi.item(t, ii), hi.item(t, jj)
            lo_i, lo_j = hi_i - c, hi_j - c
            room_i, room_j = hi_i - old_i, old_j - lo_j
            # min(step, room_i, room_j) without the call: a tie keeps the earlier, as in min
            step_t = gain.item(t, jj) / cur.item(t, jj)
            if room_i < step_t:
                step_t = room_i
            if room_j < step_t:
                step_t = room_j
            ay[t, ii] = new_i = hi_i if step_t == room_i else old_i + step_t
            ay[t, jj] = new_j = lo_j if step_t == room_j else old_j - step_t
            pu[t, ii], pl[t, ii] = penalty[new_i < hi_i], penalty[new_i > lo_i]
            pu[t, jj], pl[t, jj] = penalty[new_j < hi_j], penalty[new_j > lo_j]
            di.append(new_i - old_i)
            dj.append(new_j - old_j)
        return np.array(di + dj)

    # numpy calls beat a loop on Python floats only over enough machines
    pair = pair_arrays if m >= SVM_VECTOR_MACHINES else pair_floats
    step = 0
    while len(live):
        # run to the next step at which a problem with running machines ends a sweep
        stop = min((step // n + 1) * n for n in set(n_of[live].tolist()))
        for _ in range(stop - step):
            vu, vl = v + pu, v - pl
            i, k = vu.argmax(axis=1), vl.argmin(axis=1)
            vi = vu.ravel()[first + i]
            done = vi - vl.ravel()[first + k] < SVM_KKT_TOL
            if any(done.tolist()):
                record(done)
                converged[live[done]] = True
                keep = ~done
                keep_rows(keep)
                i, vi, vl = i[keep], vi[keep], vl[keep]
                if not len(live):
                    break
            gi = i + row0      # the rows of i in gram and curvature
            gain = vi[:, None] - vl
            score = np.abs(gain)
            score *= gain
            cur = curvature.take(gi, axis=0)
            score /= cur
            j = score.argmax(axis=1)
            delta = gram.take(np.concatenate((gi, j + row0)), axis=0)
            delta *= pair(i, j, gain, cur)[:, None]
            delta[: len(i)] += delta[len(i) :]
            v -= delta[: len(i)]
        if not len(live):
            break
        step = stop
        n_live = n_of[live]
        ended = step % n_live == 0
        record(ended)
        keep_rows(~(ended & (step == max_sweeps * n_live)))
    return [(np.array([solved[r][0] for r in rows]), np.array([solved[r][1] for r in rows]),
             [histories[r] for r in rows], converged[rows].tolist())
            for rows in (np.flatnonzero(owner == p) for p in range(len(problems)))]


def svm_batches(sizes):
    """Runs of consecutive problems, as lists of indices, to solve together by
    svm_train_batch: a run grows while the Gram and curvature of its
    problems, each row padded to the run's largest row count, fit in
    SVM_BATCH_BYTES, and a problem too large for it is a run of one.
    Batching pays while a step's fixed numpy call cost outweighs its work on
    the padded rows: the run pays each call once for all its machines, and
    from SVM_VECTOR_MACHINES machines on that includes the pair update's. So
    it stops as the problems grow."""
    runs = []
    for p in range(len(sizes)):
        grown = runs[-1] + [p] if runs else [p]
        rows = [sizes[q] for q in grown]
        if len(grown) > 1 and 16 * sum(rows) * max(rows) <= SVM_BATCH_BYTES:
            runs[-1] = grown
        else:
            runs.append([p])
    return runs


def _svm_problem(features, labels, n_classes):
    """(x, the [m, n] +-1 labels of every machine, K, whether a detector is
    fit) of one svm_train problem; InvalidParam for one it cannot fit."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(labels) != len(x):
        raise InvalidParam("features must be [n, d] with one label per row")
    k = int(n_classes) if n_classes else int(labels.max()) + 1
    present = np.unique(labels[labels >= 0])
    if len(present) < 2:
        raise InvalidParam(f"need >= 2 classes, got {len(present)}")
    for cls in range(k):
        if not np.any(labels == cls):
            raise InvalidParam(f"class {cls} has no training examples")
    ys = [np.where(labels == cls, 1.0, -1.0) for cls in range(k)]
    y_det = np.where(labels >= 0, 1.0, -1.0)
    detector = len(np.unique(y_det)) == 2
    if detector:
        ys.append(y_det)
    return x, np.array(ys), k, detector


def svm_train_batch(problems, c=1.0, epochs=100, n_classes=None):
    """svm_train of each (features, labels) pair of `problems`, as a list of
    SvmModels: the machines of every problem are solved in one run of
    _train_svms, and each model equals its own svm_train bit for bit. Every
    problem is checked before any is solved. The run holds the Gram and
    curvature of every problem at once; svm_batches keeps that bounded."""
    fits = [_svm_problem(features, labels, n_classes) for features, labels in problems]
    out = []
    for (_, _, k, detector), (w, b, histories, converged) in zip(
            fits, _train_svms([(x, ys) for x, ys, _, _ in fits], c, epochs)):
        det_w, det_b = (w[k], float(b[k])) if detector else (None, 0.0)
        out.append(SvmModel(w[:k], b[:k], det_w, det_b, histories, converged))
    return out


def svm_train(features, labels, c=1.0, epochs=100, n_classes=None):
    """Fit one-vs-rest binary machines on standardized features.

    labels: int array; 0..K-1 are gun types, NEGATIVE_LABEL marks
    no-gunshot examples (negative for every machine). If both polarities of
    the detection task are present, a separate binary detector is fit too.

    Each machine is the exact minimizer of ||w||^2 / (2C) + sum of hinge
    losses with an unregularized bias, solved to a KKT violation of
    SVM_KKT_TOL or until `epochs` sweeps of the dual solver, whichever comes
    first. All machines share one Gram matrix and are solved together by
    _train_svms, as a run of one problem: they step at once, each freezes
    when it converges, and a fit's few machines (one per type and the
    detector, fewer than SVM_VECTOR_MACHINES) update their pairs on Python
    floats. The solver has no random visiting order, so the fit takes no
    seed."""
    return svm_train_batch([(features, labels)], c, epochs, n_classes)[0]


def svm_predict(model, feature):
    """Per-class decision scores w_c . x + b_c; argmax ties go to the lowest index."""
    x = np.asarray(feature, dtype=np.float64)
    scores = model.weights @ x + model.biases
    return scores, int(np.argmax(scores))


def svm_prediction(model, feature, threshold=0.0):
    """Wrap SVM scores as a Prediction (detector score -> pseudo-probability);
    detected iff the detector score reaches `threshold`."""
    scores, best = svm_predict(model, feature)
    if model.det_weight is not None:
        det_score = float(model.det_weight @ np.asarray(feature, float) + model.det_bias)
    else:
        det_score = float(scores[best])
    p = 1.0 / (1.0 + np.exp(-det_score))
    e = np.exp(scores - scores.max())
    posteriors = e / e.sum()
    return Prediction(p, posteriors, det_score >= threshold, scores)


# ---------------------------------------------------------------------------
# joint CNN
# ---------------------------------------------------------------------------

TRUNK_CHANNELS = (16, 32, 64)
HEAD_WIDTH = 32
T_FIXED_DEFAULT = 128    # frames of every CNN input; see synthgun.ONSET_MARGIN_S
TRUNK_CHUNK = 4        # clips per trunk pass when no cache is kept
MOMENTUM = 0.9         # SGD momentum of cnn_train
LAMBDA_TYPE = 1.0      # weight of the type loss in cnn_train's joint loss


class JointCnnModel:
    """Shared conv trunk (3x3 convs, 16->32->64 channels, 2x2 max pools,
    global average pool) feeding a sigmoid detection head and a softmax
    gun-type head. `params` maps each parameter name to its float64 array."""

    def __init__(self, seed=0):
        self.input_mean = 0.0
        self.input_std = 1.0
        rng = np.random.default_rng(seed)
        p = {}
        cin = 1
        for li, cout in enumerate(TRUNK_CHANNELS, start=1):
            p[f"conv{li}.w"] = self._he(rng, (cout, cin, 3, 3), cin * 9)
            p[f"conv{li}.b"] = np.zeros(cout)
            cin = cout
        trunk_out = TRUNK_CHANNELS[-1]
        for head, width_out in (("det", 1), ("typ", N_CLASSES)):
            p[f"{head}1.w"] = self._he(rng, (HEAD_WIDTH, trunk_out), trunk_out)
            p[f"{head}1.b"] = np.zeros(HEAD_WIDTH)
            p[f"{head}2.w"] = self._he(rng, (width_out, HEAD_WIDTH), HEAD_WIDTH)
            p[f"{head}2.b"] = np.zeros(width_out)
        self.params = p

    @staticmethod
    def _he(rng, shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def named_arrays(self):
        out = dict(self.params)
        out["input_stats"] = np.array([self.input_mean, self.input_std])
        return out

    def load_arrays(self, arrays):
        """Take every entry of named_arrays() from a loaded checkpoint whose
        entries have the shapes named_arrays() gives (cli.load_model checks)."""
        for name in self.params:
            self.params[name] = arrays[name].astype(np.float64)
        self.input_mean, self.input_std = map(float, arrays["input_stats"])

    # -- input handling -----------------------------------------------------

    def prepare_input(self, mel_frames):
        """Center-crop or pad log-mel frames to T_FIXED_DEFAULT, then standardize."""
        m = np.asarray(mel_frames, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != N_MELS:
            raise InvalidParam(f"expected [T, {N_MELS}] frames, got {m.shape}")
        t = T_FIXED_DEFAULT
        if m.shape[0] > t:
            start = (m.shape[0] - t) // 2
            m = m[start : start + t]
        elif m.shape[0] < t:
            padded = np.full((t, N_MELS), PAD_VALUE)
            start = (t - m.shape[0]) // 2
            padded[start : start + m.shape[0]] = m
            m = padded
        return (m - self.input_mean) / self.input_std

    # -- forward ------------------------------------------------------------

    def _layer(self, steps, forward, backward, x, names=(), **kwargs):
        """y of forward(x, *the named params, **kwargs); appends the layer's
        (backward, cache, names) step to `steps` unless it is None."""
        y, cache = forward(x, *(self.params[n] for n in names), **kwargs)
        if steps is not None:
            steps.append((backward, cache, names))
        return y

    def _trunk(self, x_batch, steps=None):
        """Conv/pool/relu trunk and global average pool: [B, 1, T, M] -> [B, 64]."""
        h = x_batch
        for li in range(1, len(TRUNK_CHANNELS) + 1):
            # the first conv reads the input clips, which need no gradient
            conv_backward = (nn.conv2d_backward if li > 1
                             else partial(nn.conv2d_backward, need_dx=False))
            h = self._layer(steps, nn.conv2d, conv_backward, h,
                            (f"conv{li}.w", f"conv{li}.b"), stride=1, pad=1)
            # relu(maxpool(x)) == maxpool(relu(x)) (values and gradients);
            # pooling first runs the activation on a 4x smaller tensor.
            h = self._layer(steps, nn.maxpool2d, nn.maxpool2d_backward, h, k=2, s=2)
            h = self._layer(steps, nn.relu, nn.relu_backward, h)
        return self._layer(steps, nn.global_avg_pool, nn.global_avg_pool_backward, h)

    def _head(self, h, head, steps):
        """dense, relu, dense: [B, 64] -> [B, out]."""
        h = self._layer(steps, nn.dense, nn.dense_backward, h, (f"{head}1.w", f"{head}1.b"))
        h = self._layer(steps, nn.relu, nn.relu_backward, h)
        return self._layer(steps, nn.dense, nn.dense_backward, h, (f"{head}2.w", f"{head}2.b"))

    def forward(self, x_batch, keep_caches=False):
        """x_batch: np [B, 1, T, M] (already standardized). Returns
        (p_gunshot [B], type_logits [B, 5], steps).

        With keep_caches (a training step), the trunk runs over the whole
        batch, and steps is (trunk, det, typ): the (layer backward, cache,
        parameter names) steps of the trunk and of each head, in forward
        order, as nncore.backward walks them. Without it (inference and the
        validation loss), steps is None, no cache outlives its layer, and the
        trunk runs over TRUNK_CHUNK clips at a time, so its im2col columns
        stay small at any batch size. A clip's trunk output does not depend
        on the clips beside it, so the chunked values equal the whole-batch
        ones bit for bit. The dense heads do round differently for different
        batch sizes, so they always see the whole batch."""
        if keep_caches:
            trunk, det, typ = [], [], []
            h = self._trunk(x_batch, trunk)
        else:
            trunk = det = typ = None
            h = np.concatenate([self._trunk(x_batch[i : i + TRUNK_CHUNK])
                                for i in range(0, len(x_batch), TRUNK_CHUNK)])
        p_gun = self._layer(det, nn.sigmoid, nn.sigmoid_backward, self._head(h, "det", det))
        if det is not None:
            det.append((np.reshape, p_gun.shape, ()))    # back from [B] to [B, 1]
        type_logits = self._head(h, "typ", typ)
        return p_gun.reshape(-1), type_logits, None if trunk is None else (trunk, det, typ)


def cnn_forward(model, mel_frames, threshold=0.5):
    """Run one clip through the joint CNN; deterministic. Detected iff
    p_gunshot reaches `threshold`; a class ranks by p_gunshot * its posterior."""
    x = model.prepare_input(mel_frames)[None, None, :, :]
    p_gun, logits, _ = model.forward(x)
    p, posteriors = float(p_gun[0]), nn.softmax(logits)[0]
    return Prediction(p, posteriors, p >= threshold, p * posteriors)


def batch_loss_graph(model, x_batch, y_type, lambda_type, keep_caches=False):
    """Joint loss over a batch: mean detection BCE (a clip is positive iff
    its y_type >= 0) plus lambda * masked type cross-entropy (positives
    only). Returns (loss, graph). With keep_caches, graph is the (trunk,
    heads) pair that nncore.backward takes: each head's steps end in its
    loss, paired with that loss's weight (1 and lambda). Without it, graph
    is None and the forward keeps no cache."""
    lam = float(lambda_type)
    p_gun, type_logits, steps = model.forward(x_batch, keep_caches)
    mask = (y_type >= 0).astype(np.float64)
    det_loss, det_cache = nn.bce(p_gun, mask)
    safe_cls = np.where(y_type >= 0, y_type, 0)
    type_loss, type_cache = nn.cross_entropy(type_logits, safe_cls, sample_weight=mask)
    loss = det_loss + type_loss * lam
    if steps is None:
        return loss, None
    trunk, det, typ = steps
    det.append((nn.bce_backward, det_cache, ()))
    typ.append((nn.cross_entropy_backward, type_cache, ()))
    return loss, (trunk, [(det, 1.0), (typ, lam)])


@dataclass
class LabeledMelSet:
    """Log-mel clips with their type labels (NEGATIVE_LABEL or 0..4)."""
    mels: list
    y_type: np.ndarray

    def __len__(self):
        return len(self.mels)


def _stack_inputs(model, mels):
    return np.stack([model.prepare_input(m) for m in mels])[:, None, :, :]


def _input_stats(mels):
    """Mean and std of every value of every mel, within float tolerance of
    np.mean / np.std of their never-built concatenation: numpy sums each mel
    in float64, in clip order, holding one mel's float64 deviations at a time."""
    n = sum(np.size(m) for m in mels)
    mean = sum(float(np.sum(m, dtype=np.float64)) for m in mels) / n
    squares = sum(float(np.sum(np.square(np.subtract(m, mean, dtype=np.float64))))
                  for m in mels)
    return mean, float(np.sqrt(squares / n))


EVAL_BATCH = 64       # clips per validation-loss batch


def _eval_loss(model, data, lam):
    """Mean joint loss over a LabeledMelSet. Each batch is stacked from
    data.mels only when it runs, and its forward keeps no cache, so the
    trunk runs in chunks."""
    total = 0.0
    for i in range(0, len(data), EVAL_BATCH):
        sl = slice(i, min(i + EVAL_BATCH, len(data)))
        loss, _ = batch_loss_graph(model, _stack_inputs(model, data.mels[sl]),
                                   data.y_type[sl], lam)
        total += loss * (sl.stop - sl.start)
    return total / len(data)


def cnn_train(model, train_set, val_set, *, epochs, batch_size, lr, patience, seed):
    """Minibatch SGD with momentum MOMENTUM, on the joint loss at LAMBDA_TYPE,
    for at most `epochs` epochs; it stops once `patience` epochs in a row
    have not lowered the best validation joint loss (patience 0 runs one
    epoch). `seed` draws each epoch's batch order.

    The input mean and std are taken over every training mel value; each
    batch is then standardized and stacked from the mels as it runs, so no
    float64 copy of either set is held. Memory beyond the mels themselves is
    one mel's float64 copy while the stats are taken, then the layer caches
    of one training step, which its backward frees layer by layer.

    Returns the training history; the model is left holding the best-val
    parameters. Raises InvalidParam if either set is empty, and
    NonFiniteLoss if the loss or a parameter leaves the finite domain; its
    message names the epoch and batch and the epoch's last finite batch
    loss, and for a parameter, its name."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise InvalidParam(f"cnn training needs train and validation clips, "
                           f"got {len(train_set)} and {len(val_set)}")
    rng = np.random.default_rng(seed)

    mean, std = _input_stats(train_set.mels)
    model.input_mean, model.input_std = mean, max(std, 1e-8)

    state = nn.OptimizerState(lr, MOMENTUM)
    n = len(train_set)

    history = []
    best_val = np.inf
    best_snapshot = None
    bad_epochs = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        last_finite = None
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            where = (f"epoch {epoch}, batch at {start} (last finite batch loss "
                     f"{'none' if last_finite is None else repr(last_finite)})")
            try:
                x = _stack_inputs(model, [train_set.mels[i] for i in idx])
                loss, graph = batch_loss_graph(model, x, train_set.y_type[idx],
                                               LAMBDA_TYPE, keep_caches=True)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"{where}: loss={loss}")
                nn.sgd_step(model.params, nn.backward(*graph), state)
            except NonFiniteTensor as e:
                raise NonFiniteLoss(f"{where}: {e}") from e
            last_finite = loss
            epoch_loss += last_finite * len(idx)
        train_loss = epoch_loss / n
        val_loss = _eval_loss(model, val_set, LAMBDA_TYPE)
        if not np.isfinite(val_loss):
            raise NonFiniteLoss(f"epoch {epoch}: validation loss={val_loss}")
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})

        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = {k: a.copy() for k, a in model.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= patience:
            break

    if best_snapshot is not None:
        model.params.update(best_snapshot)
    return history

