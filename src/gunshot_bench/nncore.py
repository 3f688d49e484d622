"""The joint CNN's layers and losses as plain float64 array functions, a
backward pass over the caches they keep, and momentum SGD.

Every forward returns `(y, cache)`. Its backward, `<name>_backward(g,
cache)`, takes the gradient of the loss with respect to y and returns the
input gradient, followed by one gradient per parameter for a layer that has
parameters (`dense_backward` returns `(dx, dw, db)`). A loss's backward takes
the loss's weight in the total loss. The cache holds only what the backward
reads:

- dense: its input and weights;
- conv2d: its im2col columns and the weights as one [Cout, Cin*kh*kw] matrix;
- maxpool2d: its input and output, channel-major;
- relu: its input, which after a pool is that pool's output;
- global_avg_pool: its input; sigmoid: its output;
- bce: its input, that input clamped, and the labels;
- cross_entropy: the shifted logits, the labels and their weights.

Work that only the backward needs (pooling tie masks, conv2d's input
gradient, one kernel tap at a time) is done there, so a forward whose cache
is dropped costs inference nothing extra. backward() walks the `(layer
backward, cache, parameter names)` steps that a network's forward kept, in
reverse, and returns every parameter's gradient by name. Each forward
checks its output for NaN/Inf and names itself in the NonFiniteTensor it
raises.

Memory layout: conv2d and maxpool2d take and return [B, C, H, W] arrays, but
their outputs (and the input gradients their backwards return) are views of
channel-major [C, B, H, W] memory. Elementwise ops such as relu keep that
layout, so a conv -> pool -> relu trunk does its padding, im2col, col2im and
pooling windows as plain slices. Any other layout is accepted and gives the
same values bit for bit; only the speed differs. global_avg_pool returns a
C-contiguous [B, C] array, and anything fed to dense must be C-contiguous
too: BLAS rounds differently for a transposed operand.

Checkpoints are uncompressed numpy .npz archives of float64 entries, in
order, written atomically and read back only in their exact bytes: zip's
CRC-32 plus that check catch truncation and corruption, not tampering.
"""

import io
import os
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .errors import InvalidParam, MalformedFile, NonFiniteTensor


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NonFiniteTensor(f"{what} contains NaN/Inf")
    return arr


def backward(trunk, heads):
    """Gradients of a multi-head network's loss, as a dict name -> array.

    trunk: the shared trunk's steps; heads: one (steps, loss weight) pair per
    head, whose last step is the head's loss. A step is the (layer backward,
    cache, parameter names) triple its forward kept, in forward order. Each
    head is walked in reverse from its loss weight, the heads' gradients at
    the trunk output are summed in head order, and the trunk is walked in
    reverse from that sum. Each step is popped from its list as it is
    walked, so a layer's cache is freed once its backward has run (unless
    the caller holds it elsewhere) and the lists are left empty."""
    grads = {}

    def walk(steps, g):
        while steps:
            bwd, cache, names = steps.pop()
            if names:
                g, *param_grads = bwd(g, cache)
                grads.update(zip(names, param_grads))
            else:
                g = bwd(g, cache)
        return g

    (steps, weight), *rest = heads
    g = walk(steps, weight)
    for steps, weight in rest:
        g = g + walk(steps, weight)
    walk(trunk, g)
    return grads


# ---------------------------------------------------------------------------
# neural-net layers
# ---------------------------------------------------------------------------

def dense(x, w, b):
    """Affine map: x[B,n] @ w[m,n]^T + b[m] -> [B,m]."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise InvalidParam("dense expects x[B,n], w[m,n], b[m]")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise InvalidParam(f"dense shapes incompatible: x{x.shape} w{w.shape} b{b.shape}")
    return _check_finite(x @ w.T + b, "dense output"), (x, w)


def dense_backward(g, cache):
    x, w = cache
    return g @ w, g.T @ x, g.sum(axis=0)


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation plus bias: x[B,Cin,H,W] * w[Cout,Cin,kh,kw] + b[Cout].

    Zero padding only. Output spatial dims are floor((H+2p-kh)/s)+1 etc.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise InvalidParam("conv2d expects x[B,Cin,H,W] and w[Cout,Cin,kh,kw]")
    bsz, cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise InvalidParam(f"conv2d channel mismatch: x has {cin}, w expects {cin_w}")
    if b.shape != (cout,):
        raise InvalidParam(f"conv2d bias must be [{cout}], got {b.shape}")
    s, p = int(stride), int(pad)
    ho = (h + 2 * p - kh) // s + 1
    wo = (wdt + 2 * p - kw) // s + 1
    if ho < 1 or wo < 1:
        raise InvalidParam("conv2d kernel larger than padded input")

    # Work in channel-major [Cin, B, H, W] memory: the transpose is free for
    # a conv2d or maxpool2d output, and padding, im2col and col2im are slices.
    xp = np.zeros((cin, bsz, h + 2 * p, wdt + 2 * p))
    xp[:, :, p : p + h, p : p + wdt] = x.transpose(1, 0, 2, 3)

    # im2col laid out [Cin*kh*kw, B*Ho*Wo] so both directions of the conv
    # are single large GEMMs.
    kdim = cin * kh * kw
    cols = np.empty((cin, kh, kw, bsz, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + s * ho : s, j : j + s * wo : s]
    cols_flat = cols.reshape(kdim, bsz * ho * wo)
    w2 = w.reshape(cout, kdim)
    out = w2 @ cols_flat
    out += b[:, None]
    y = out.reshape(cout, bsz, ho, wo).transpose(1, 0, 2, 3)
    return _check_finite(y, "conv2d output"), (cols_flat, w2, x.shape, w.shape, s, p)


def conv2d_backward(g, cache, need_dx=True):
    """(dx, dw, db) of conv2d. dx is None when need_dx is False, as for a
    layer that reads the network's input, which needs no gradient."""
    cols_flat, w2, (bsz, cin, h, wdt), w_shape, s, p = cache
    cout, _, kh, kw = w_shape
    ho, wo = g.shape[2:]
    g_flat = g.transpose(1, 0, 2, 3).reshape(cout, bsz * ho * wo)
    db = g.sum(axis=(0, 2, 3))
    dw = (g_flat @ cols_flat.T).reshape(w_shape)
    dx = None
    if need_dx:
        # One kernel tap at a time, so only one tap's [Cin, B*Ho*Wo] columns
        # live beside cols_flat. With more than one input channel a tap's
        # GEMM gives its rows of the one GEMM w2.T @ g_flat bit for bit (a
        # GEMM row's value does not depend on the matrix height). With one
        # it is a GEMV, which may round differently; the CNN never asks its
        # one-channel conv1 for dx.
        w_taps = w2.reshape(w_shape).transpose(2, 3, 0, 1).copy()   # [kh, kw, Cout, Cin]
        dxp = np.zeros((cin, bsz, h + 2 * p, wdt + 2 * p))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += (
                    (w_taps[i, j].T @ g_flat).reshape(cin, bsz, ho, wo))
        dx = dxp[:, :, p : p + h, p : p + wdt].transpose(1, 0, 2, 3)
    return dx, dw, db


def _pool_windows(a, k, s, ho, wo):
    """Each window tap of a channel-major [C, B, H, W] array as a strided
    view, in row-major window order."""
    return [a[:, :, i : i + s * ho : s, j : j + s * wo : s]
            for i in range(k) for j in range(k)]


def maxpool2d(x, k=2, s=2):
    """Windowed max. Backward routes the gradient to the window argmax
    (first occurrence in row-major window order on ties)."""
    if x.ndim != 4:
        raise InvalidParam("maxpool2d expects x[B,C,H,W]")
    h, w = x.shape[2:]
    k, s = int(k), int(s)
    if h < k or w < k:
        raise InvalidParam(f"maxpool2d window {k} larger than input {h}x{w}")
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1

    xt = x.transpose(1, 0, 2, 3)
    first, *rest = _pool_windows(xt, k, s, ho, wo)
    out = first.copy()
    for win in rest:
        np.maximum(out, win, out=out)
    return _check_finite(out.transpose(1, 0, 2, 3), "maxpool2d output"), (xt, out, k, s)


def maxpool2d_backward(g, cache):
    xt, out, k, s = cache
    ho, wo = out.shape[2:]
    gt = g.transpose(1, 0, 2, 3)
    dxt = np.zeros(xt.shape)
    unrouted = np.ones(out.shape, dtype=bool)
    for x_win, dx_win in zip(_pool_windows(xt, k, s, ho, wo),
                             _pool_windows(dxt, k, s, ho, wo)):
        hit = x_win == out
        hit &= unrouted
        unrouted ^= hit
        dx_win += gt * hit
    return dxt.transpose(1, 0, 2, 3)


def global_avg_pool(x):
    """Mean over the spatial dims: [B,C,H,W] -> [B,C]."""
    if x.ndim != 4:
        raise InvalidParam("global_avg_pool expects x[B,C,H,W]")
    # C-contiguous even for channel-major input: dense's GEMMs round
    # differently for a transposed operand.
    return _check_finite(np.ascontiguousarray(x.mean(axis=(2, 3))), "gap output"), x


def global_avg_pool_backward(g, x):
    h, w = x.shape[2:]
    dx = np.empty_like(x)     # keeps x's memory layout
    dx[...] = g[:, :, None, None] / (h * w)
    return dx


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x):
    """max(x, 0). The cache is x itself (x > 0 exactly where the output
    is), which after a pool is memory the pool's cache holds already."""
    return _check_finite(np.maximum(x, 0.0), "relu output"), x


def relu_backward(g, x):
    return g * (x > 0)


def sigmoid(x):
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _check_finite(out, "sigmoid output"), out


def sigmoid_backward(g, out):
    return g * out * (1.0 - out)


def softmax(x):
    """Stable softmax along the last axis; rows sum to 1. Inference only: the
    training loss takes logits (cross_entropy), so it has no backward."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return _check_finite(e / e.sum(axis=-1, keepdims=True), "softmax output")


# ---------------------------------------------------------------------------
# losses: forward (loss, cache); backward(weight, cache) -> input gradient
# ---------------------------------------------------------------------------

BCE_EPS = 1e-7


def bce(p, y):
    """Mean binary cross-entropy on probabilities, clamped to [1e-7, 1-1e-7].

    The clamp is flat, so examples saturated past it get zero gradient.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.shape:
        raise InvalidParam(f"bce label shape {y.shape} != prediction shape {p.shape}")
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    return _check_finite(loss, "bce output"), (p, pc, y)


def bce_backward(g, cache):
    p, pc, y = cache
    inside = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
    dp = (pc - y) / (pc * (1.0 - pc)) / pc.size
    return float(g) * dp * inside


def cross_entropy(logits, classes, sample_weight):
    """Softmax cross-entropy computed from logits via log-sum-exp.

    classes: int array [B]. sample_weight: per-example multiplier [B]; the
    loss is sum(w_i * ce_i) / B, so masked-out examples contribute zero loss
    and zero gradient.
    """
    if logits.ndim != 2:
        raise InvalidParam("cross_entropy expects logits[B,K]")
    b, k = logits.shape
    cls = np.asarray(classes, dtype=np.intp).reshape(-1)
    if cls.shape[0] != b:
        raise InvalidParam(f"cross_entropy got {cls.shape[0]} labels for batch of {b}")
    if cls.min() < 0 or cls.max() >= k:
        raise InvalidParam("class index out of range")
    w = np.asarray(sample_weight, dtype=np.float64).reshape(-1)
    if w.shape[0] != b:
        raise InvalidParam("sample_weight length mismatch")

    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    ce = lse - logits[np.arange(b), cls]
    loss = float((w * ce).sum() / b)
    return _check_finite(loss, "cross_entropy output"), (z, cls, w)


def cross_entropy_backward(g, cache):
    z, cls, w = cache
    b = len(cls)
    sm = np.exp(z)
    sm /= sm.sum(axis=1, keepdims=True)
    sm[np.arange(b), cls] -= 1.0
    return float(g) * sm * (w / b)[:, None]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class OptimizerState:
    """Momentum SGD state: one velocity buffer per parameter name, made by
    the first step."""

    def __init__(self, lr, momentum):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocities = None


def sgd_step(params, grads, state):
    """v <- momentum*v - lr*g;  p <- p + v, for each name of the params
    dict. Updates the param arrays in place, and names the first one that
    leaves the finite domain."""
    if state.velocities is None:
        state.velocities = {name: np.zeros_like(p) for name, p in params.items()}
    if not params.keys() == grads.keys() == state.velocities.keys():
        raise InvalidParam("params/grads/state names differ")
    for name, p in params.items():
        g, v = grads[name], state.velocities[name]
        if g.shape != p.shape or v.shape != p.shape:
            raise InvalidParam(f"gradient/velocity shape does not mirror parameter {name}")
        v *= state.momentum
        v -= state.lr * g
        p += v
        _check_finite(p, f"parameter {name} after sgd_step")
    return params


# ---------------------------------------------------------------------------
# checkpoint I/O: a numpy .npz archive, checked by re-serializing what was read
# ---------------------------------------------------------------------------

def _npz_bytes(named_arrays):
    """One uncompressed `<name>.npy` member of float64 LE values per entry,
    in order. zipfile dates every member 1980, so equal arrays, equal bytes."""
    buf = io.BytesIO()
    np.savez(buf, **{name: np.asarray(a, dtype="<f8") for name, a in named_arrays.items()})
    return buf.getvalue()


def save_checkpoint(path, named_arrays):
    """Write a dict name -> array as an .npz archive via a temporary file
    beside path, so a failed save keeps the old file and leaves no temp."""
    tmp = Path(f"{path}.tmp-{os.getpid()}")
    try:
        tmp.write_bytes(_npz_bytes(named_arrays))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Read a checkpoint; returns an ordered dict name -> float64 array.

    Raises MalformedFile unless the file is exactly what save_checkpoint
    writes for the entries read. Zip's CRC-32 alone misses a flipped
    directory byte that drops entries; two such archives differ in two
    bytes or more, so every single-byte flip and every cut is refused. So
    is a checkpoint another numpy or Python writes in other bytes: it is
    not guessed at (equal bytes checked only on Python 3.11.7, numpy 2.4.6)."""
    blob = Path(path).read_bytes()
    # zip's magic; np.load would read an .npy or pickle magic as such
    if blob[:4] != b"PK\x03\x04":
        raise MalformedFile(f"{path}: bad magic or truncated file")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            out = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, NotImplementedError,
            tokenize.TokenError) as e:    # what np.load raised on flipped or cut bytes
        raise MalformedFile(f"{path}: damaged .npz archive ({type(e).__name__}: {e})") from None
    if _npz_bytes(out) != blob:
        raise MalformedFile(f"{path}: checksum mismatch: not the archive its entries make")
    return out
