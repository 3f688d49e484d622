"""Shared test utilities: finite-difference gradient checking, inputs safe
for it, and detection F1. A test that needs a labeled clip calls
`synthgun.synth_clip`, the recipe `generate_dataset` writes each clip with."""

import numpy as np

from gunshot_bench import nncore as nn

FD_STEP = 1e-3
FD_TOL = 1e-4


def numeric_grad(loss_fn, params, step=FD_STEP):
    """Central finite differences of a scalar loss w.r.t. each param tensor."""
    grads = []
    for t in params:
        g = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = t.data[idx]
            t.data[idx] = orig + step
            lp = float(loss_fn(params).data)
            t.data[idx] = orig - step
            lm = float(loss_fn(params).data)
            t.data[idx] = orig
            g[idx] = (lp - lm) / (2 * step)
        grads.append(g)
    return grads


def max_rel_err(a, b):
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(np.asarray(a, float), 1e-6)])
    return float((np.abs(a - b) / denom).max())


def gradcheck(loss_fn, params, tol=FD_TOL):
    """Assert analytic gradients match central finite differences."""
    loss = loss_fn(params)
    nn.zero_grads(params)
    nn.backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = numeric_grad(loss_fn, params)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e}"
    return worst


def safe_random(rng, shape, low=0.1, high=1.0):
    """Values bounded away from zero, so relu/maxpool kinks stay out of
    finite-difference reach."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def detection_f1(y_true, y_pred):
    tp = int(((y_pred == 1) & (y_true == 1)).sum())
    fp = int(((y_pred == 1) & (y_true == 0)).sum())
    fn = int(((y_pred == 0) & (y_true == 1)).sum())
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
