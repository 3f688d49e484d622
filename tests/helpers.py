"""Shared test utilities: finite-difference gradient checking, inputs safe
for it, and detection F1. Tests that need labeled clips write a dataset with
`gsb generate` (`cli.main`) or `synthgun.generate_dataset`."""

import numpy as np

FD_STEP = 1e-3
FD_TOL = 1e-4


def max_rel_err(a, b):
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(np.asarray(a, float), 1e-6)])
    return float((np.abs(a - b) / denom).max())


def gradcheck(loss_fn, params, tol=FD_TOL, samples=None, step=FD_STEP):
    """Assert that analytic gradients match central finite differences.

    loss_fn(params) returns (loss, grads): a float and a dict holding the
    gradient of every array of the params dict, under the same name. The
    differences perturb the arrays in place, one entry at a time, and put
    each entry back. With `samples`, that many entries of each larger array
    (drawn with a fixed seed) are checked; otherwise every entry is."""
    _, analytic = loss_fn(params)
    assert analytic.keys() == params.keys()
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, arr in params.items():
        entries = list(np.ndindex(arr.shape))
        if samples is not None and len(entries) > samples:
            entries = [entries[i] for i in rng.choice(len(entries), samples, replace=False)]
        numeric = []
        for idx in entries:
            orig = arr[idx]
            arr[idx] = orig + step
            lp = loss_fn(params)[0]
            arr[idx] = orig - step
            lm = loss_fn(params)[0]
            arr[idx] = orig
            numeric.append((lp - lm) / (2 * step))
        got = np.array([analytic[name][idx] for idx in entries])
        worst = max(worst, max_rel_err(got, np.array(numeric)))
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
