"""Dense/convolutional tensor ops with reverse-mode autodiff and momentum SGD.

Everything runs in float64 on numpy arrays. Every op takes Tensors or plain
arrays (an array is a Tensor that requires no gradient) and records a graph
node only when one of its inputs requires a gradient: a forward pass over
trainable Tensors records a single-use graph, and the same pass over plain
arrays records nothing and keeps no activation once the next op has read
it. backward() walks a graph in reverse topological order exactly once and
accumulates gradients into the participating leaves. Graphs are rebuilt per
step, so there is no reset API: calling backward twice on the same graph
raises.

Memory layout: conv2d and maxpool2d take and return [B, C, H, W] arrays, but
their outputs (and the gradients they pass to their inputs) are views of
channel-major [C, B, H, W] memory. Elementwise ops such as relu keep that
layout, so a conv -> pool -> relu trunk does its padding, im2col, col2im and
pooling windows as plain slices. Any other layout is accepted and gives the
same values bit for bit; only the speed differs. global_avg_pool returns a
C-contiguous [B, C] array, and anything fed to dense must be C-contiguous
too: BLAS rounds differently for a transposed operand.

Each op checks its own output for NaN/Inf once, when it wraps it in a Tensor.
"""

import hashlib
import struct

import numpy as np

from .errors import CorruptCheckpoint, NonFiniteTensor, ShapeMismatch

CHECKPOINT_MAGIC = b"GSBT"
CHECKPOINT_VERSION = 1


def _check_finite(arr, what="tensor"):
    if not np.isfinite(arr).all():
        raise NonFiniteTensor(f"{what} contains NaN/Inf")
    return arr


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_consumed")

    def __init__(self, data, requires_grad=False, what="tensor"):
        self.data = _check_finite(np.asarray(data, dtype=np.float64), what)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bwd = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data, parents, bwd, what):
    out = Tensor(data, what=what)
    live = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(live)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _accum(t, g):
    # First write aliases g (callers never mutate it afterwards); later
    # writes build a fresh array, so aliased buffers are only ever read.
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss node.

    Grad of the loss w.r.t. itself is 1. Each recorded node fires exactly
    once; the graph is single-use.
    """
    if not isinstance(loss, Tensor):
        raise ShapeMismatch("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._consumed:
        raise RuntimeError("backward already ran on this graph (single-use tape)")
    if not loss.requires_grad:
        raise RuntimeError("loss does not depend on any tracked parameter")

    # Iterative post-order DFS: reverse topological order, each node once.
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._bwd is not None:
            if node._consumed:
                raise RuntimeError("graph node already consumed (single-use tape)")
            node._bwd(node.grad)
            node._consumed = True
            node._bwd = None


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(out_data, (a, b), bwd, "add output")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(out_data, (a, b), bwd, "mul output")


def reshape(x, shape):
    x = _as_tensor(x)
    orig = x.data.shape
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(orig))

    return _from_op(out_data, (x,), bwd, "reshape output")


def tsum(x):
    """Sum of all entries, as a scalar node."""
    x = _as_tensor(x)

    def bwd(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _from_op(x.data.sum(), (x,), bwd, "sum output")


def tmean(x):
    x = _as_tensor(x)
    n = x.data.size

    def bwd(g):
        _accum(x, np.full_like(x.data, float(g) / n))

    return _from_op(x.data.mean(), (x,), bwd, "mean output")


# ---------------------------------------------------------------------------
# neural-net layers
# ---------------------------------------------------------------------------

def dense(x, w, b):
    """Affine map: x[B,n] @ w[m,n]^T + b[m] -> [B,m]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeMismatch("dense expects x[B,n], w[m,n], b[m]")
    if x.data.shape[1] != w.data.shape[1] or w.data.shape[0] != b.data.shape[0]:
        raise ShapeMismatch(
            f"dense shapes incompatible: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    out_data = x.data @ w.data.T + b.data

    def bwd(g):
        _accum(x, g @ w.data)
        _accum(w, g.T @ x.data)
        _accum(b, g.sum(axis=0))

    return _from_op(out_data, (x, w, b), bwd, "dense output")


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation plus bias: x[B,Cin,H,W] * w[Cout,Cin,kh,kw] + b[Cout].

    Zero padding only. Output spatial dims are floor((H+2p-kh)/s)+1 etc.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatch("conv2d expects x[B,Cin,H,W] and w[Cout,Cin,kh,kw]")
    bsz, cin, h, wdt = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ShapeMismatch(f"conv2d channel mismatch: x has {cin}, w expects {cin_w}")
    if b.data.shape != (cout,):
        raise ShapeMismatch(f"conv2d bias must be [{cout}], got {b.data.shape}")
    s, p = int(stride), int(pad)
    ho = (h + 2 * p - kh) // s + 1
    wo = (wdt + 2 * p - kw) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("conv2d kernel larger than padded input")

    # Work in channel-major [Cin, B, H, W] memory: the transpose is free for
    # a conv2d or maxpool2d output, and padding, im2col and col2im are slices.
    xp = np.zeros((cin, bsz, h + 2 * p, wdt + 2 * p))
    xp[:, :, p : p + h, p : p + wdt] = x.data.transpose(1, 0, 2, 3)

    # im2col laid out [Cin*kh*kw, B*Ho*Wo] so both directions of the conv
    # are single large GEMMs.
    kdim = cin * kh * kw
    cols = np.empty((cin, kh, kw, bsz, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + s * ho : s, j : j + s * wo : s]
    cols_flat = cols.reshape(kdim, bsz * ho * wo)
    w2 = w.data.reshape(cout, kdim)
    out = w2 @ cols_flat
    out += b.data[:, None]
    out_data = out.reshape(cout, bsz, ho, wo).transpose(1, 0, 2, 3)

    def bwd(g):
        g_flat = g.transpose(1, 0, 2, 3).reshape(cout, bsz * ho * wo)
        _accum(b, g.sum(axis=(0, 2, 3)))
        _accum(w, (g_flat @ cols_flat.T).reshape(w.data.shape))
        if x.requires_grad:
            dcols = (w2.T @ g_flat).reshape(cin, kh, kw, bsz, ho, wo)
            dxp = np.zeros((cin, bsz, h + 2 * p, wdt + 2 * p))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += dcols[:, i, j]
            _accum(x, dxp[:, :, p : p + h, p : p + wdt].transpose(1, 0, 2, 3))

    return _from_op(out_data, (x, w, b), bwd, "conv2d output")


def maxpool2d(x, k=2, s=2):
    """Windowed max. Backward routes the gradient to the window argmax
    (first occurrence in row-major window order on ties)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeMismatch("maxpool2d expects x[B,C,H,W]")
    bsz, c, h, w = x.data.shape
    k, s = int(k), int(s)
    if h < k or w < k:
        raise ShapeMismatch(f"maxpool2d window {k} larger than input {h}x{w}")
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1

    # Windows are strided views of channel-major [C, B, H, W] memory, taken
    # in row-major window order.
    taps = [(i, j) for i in range(k) for j in range(k)]

    def window(a, i, j):
        return a[:, :, i : i + s * ho : s, j : j + s * wo : s]

    xt = x.data.transpose(1, 0, 2, 3)
    out = window(xt, *taps[0]).copy()
    for i, j in taps[1:]:
        np.maximum(out, window(xt, i, j), out=out)
    out_data = out.transpose(1, 0, 2, 3)

    def bwd(g):
        gt = g.transpose(1, 0, 2, 3)
        dxt = np.zeros((c, bsz, h, w))
        unrouted = np.ones(out.shape, dtype=bool)
        for i, j in taps:
            hit = window(xt, i, j) == out
            hit &= unrouted
            unrouted ^= hit
            dx_win = window(dxt, i, j)
            dx_win += gt * hit
        _accum(x, dxt.transpose(1, 0, 2, 3))

    return _from_op(out_data, (x,), bwd, "maxpool2d output")


def global_avg_pool(x):
    """Mean over the spatial dims: [B,C,H,W] -> [B,C]."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeMismatch("global_avg_pool expects x[B,C,H,W]")
    h, w = x.data.shape[2], x.data.shape[3]
    # C-contiguous even for channel-major input: dense's GEMMs round
    # differently for a transposed operand.
    out_data = np.ascontiguousarray(x.data.mean(axis=(2, 3)))

    def bwd(g):
        dx = np.empty_like(x.data)     # keeps x's memory layout
        dx[...] = g[:, :, None, None] / (h * w)
        _accum(x, dx)

    return _from_op(out_data, (x,), bwd, "gap output")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x):
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        _accum(x, g * (out_data > 0))

    return _from_op(out_data, (x,), bwd, "relu output")


def sigmoid(x):
    x = _as_tensor(x)
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                        np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def bwd(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _from_op(out_data, (x,), bwd, "sigmoid output")


def softmax(x, axis=-1):
    """Stable softmax along an axis; rows sum to 1."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(x, out_data * (g - dot))

    return _from_op(out_data, (x,), bwd, "softmax output")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

BCE_EPS = 1e-7


def bce(p, y):
    """Mean binary cross-entropy on probabilities, clamped to [1e-7, 1-1e-7].

    The clamp is flat, so examples saturated past it get zero gradient.
    """
    p = _as_tensor(p)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.data.shape:
        raise ShapeMismatch(f"bce label shape {y.shape} != prediction shape {p.data.shape}")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    n = pc.size
    out_data = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean()
    inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)

    def bwd(g):
        dp = (pc - y) / (pc * (1.0 - pc)) / n
        _accum(p, float(g) * dp * inside)

    return _from_op(out_data, (p,), bwd, "bce output")


def cross_entropy(logits, classes, sample_weight=None):
    """Softmax cross-entropy computed from logits via log-sum-exp.

    classes: int array [B]. sample_weight (optional): per-example multiplier;
    the loss is sum(w_i * ce_i) / B, so masked-out examples contribute zero
    loss and zero gradient.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeMismatch("cross_entropy expects logits[B,K]")
    b, k = logits.data.shape
    cls = np.asarray(classes, dtype=np.intp).reshape(-1)
    if cls.shape[0] != b:
        raise ShapeMismatch(f"cross_entropy got {cls.shape[0]} labels for batch of {b}")
    if cls.min() < 0 or cls.max() >= k:
        raise ShapeMismatch("class index out of range")
    w = np.ones(b) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64).reshape(-1)
    if w.shape[0] != b:
        raise ShapeMismatch("sample_weight length mismatch")

    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    ce = lse - logits.data[np.arange(b), cls]
    out_data = float((w * ce).sum() / b)

    def bwd(g):
        sm = np.exp(z)
        sm /= sm.sum(axis=1, keepdims=True)
        sm[np.arange(b), cls] -= 1.0
        _accum(logits, float(g) * sm * (w / b)[:, None])

    return _from_op(out_data, (logits,), bwd, "cross_entropy output")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class OptimizerState:
    """Momentum SGD state: one velocity buffer per parameter."""

    def __init__(self, lr, momentum=0.0):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocities = None

    def init_for(self, params):
        self.velocities = [np.zeros_like(p.data) for p in params]


def sgd_step(params, grads, state):
    """v <- momentum*v - lr*g;  p <- p + v.  Updates params in place."""
    if state.velocities is None:
        state.init_for(params)
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ShapeMismatch("params/grads/state length mismatch")
    for p, g, v in zip(params, grads, state.velocities):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeMismatch("gradient/velocity shape does not mirror parameter")
        v *= state.momentum
        v -= state.lr * g
        p.data += v
        _check_finite(p.data, "parameter after sgd_step")
    return params


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# checkpoint I/O: ordered {name, shape, float64 LE values} + sha256 footer
# ---------------------------------------------------------------------------

def save_checkpoint(path, named_arrays):
    """Write an ordered list of named float64 arrays with a checksum footer.

    named_arrays: dict name -> array, or iterable of (name, array).
    """
    items = named_arrays.items() if isinstance(named_arrays, dict) else named_arrays
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, 0)]
    count = 0
    for name, arr in items:
        arr = np.asarray(arr, dtype="<f8")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
        count += 1
    chunks[1] = struct.pack("<II", CHECKPOINT_VERSION, count)
    payload = b"".join(chunks)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as f:
        f.write(payload)
        f.write(digest)


def load_checkpoint(path):
    """Read a checkpoint; returns an ordered dict name -> float64 array."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 44 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic or truncated file")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptCheckpoint(f"{path}: checksum mismatch")
    version, count = struct.unpack_from("<II", payload, 4)
    if version != CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {version}")
    out = {}
    off = 12
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", payload, off)
        off += 2
        name = payload[off : off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = struct.unpack_from("<B", payload, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", payload, off) if ndim else ()
        off += 4 * ndim
        size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        arr = np.frombuffer(payload, dtype="<f8", count=size, offset=off).reshape(shape)
        off += 8 * size
        out[name] = arr.astype(np.float64)
    if off != len(payload):
        raise CorruptCheckpoint(f"{path}: trailing bytes after last entry")
    return out

