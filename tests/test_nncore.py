"""Layer and loss contracts: shape rules, worked examples, naive-loop and
finite-difference oracles for values and gradients, conv2d's input gradient
in the bytes of one GEMM and col2im, optimizer behavior, checkpoint
round-trips, and a checkpoint save that fails part way keeping the old
file."""

import numpy as np
import pytest

from gunshot_bench import nncore as nn
from gunshot_bench.errors import InvalidParam, MalformedFile, NonFiniteTensor

from helpers import gradcheck, safe_random


def conv_naive(x, w, b, stride, pad):
    """Direct six-loop cross-correlation oracle."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for bb in range(bsz):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = b[co]
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bb, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[bb, co, i, j] = acc
    return out


def conv_naive_backward(x, w, g, stride, pad):
    """Gradients (dx, dw, db) of conv_naive for the upstream gradient g,
    one output position and one kernel tap at a time."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp, dw, db = np.zeros_like(xp), np.zeros_like(w), np.zeros(cout)
    for bb, co, i, j in np.ndindex(g.shape):
        gv = g[bb, co, i, j]
        db[co] += gv
        for ci, u, v in np.ndindex(cin, kh, kw):
            dw[co, ci, u, v] += gv * xp[bb, ci, i * stride + u, j * stride + v]
            dxp[bb, ci, i * stride + u, j * stride + v] += gv * w[co, ci, u, v]
    return dxp[:, :, pad : pad + h, pad : pad + wd], dw, db


def maxpool_naive(x, g, k, s):
    """Window-by-window max and gradient routing to the first maximum in
    row-major window order."""
    bsz, c, h, w = x.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    out = np.empty((bsz, c, ho, wo))
    dx = np.zeros_like(x)
    for bb, cc, i, j in np.ndindex(bsz, c, ho, wo):
        win = x[bb, cc, i * s : i * s + k, j * s : j * s + k]
        u, v = np.unravel_index(np.argmax(win), win.shape)
        out[bb, cc, i, j] = win[u, v]
        dx[bb, cc, i * s + u, j * s + v] += g[bb, cc, i, j]
    return out, dx


def channel_major(a):
    """The same [B, C, H, W] values as a view of [C, B, H, W] memory, the
    layout conv2d and maxpool2d return."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


LAYOUTS = {"c_contiguous": np.ascontiguousarray, "channel_major": channel_major}


def run_both_layouts(forward, backward, x_np, g):
    """forward's output and backward's input gradient (upstream gradient g)
    for x_np given in each layout."""
    results = []
    for make in LAYOUTS.values():
        out, cache = forward(make(x_np))
        results.append((out, backward(g, cache)))
    return results


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out, _ = nn.conv2d(x, w, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_ones_kernel_counts(self):
        out, _ = nn.conv2d(np.ones((1, 1, 5, 5)), np.ones((1, 1, 3, 3)), np.zeros(1), pad=0)
        np.testing.assert_allclose(out, 9.0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = np.random.default_rng(42 + stride + pad)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got, _ = nn.conv2d(x, w, b, stride, pad)
        np.testing.assert_allclose(got, conv_naive(x, w, b, stride, pad), atol=1e-9)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_backward_matches_naive_oracle(self, stride, pad):
        rng = np.random.default_rng(52 + stride + pad)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, cache = nn.conv2d(x, w, b, stride, pad)
        g = rng.normal(size=out.shape)
        got = nn.conv2d_backward(g, cache)
        for name, have, want in zip(("dx", "dw", "db"), got,
                                    conv_naive_backward(x, w, g, stride, pad)):
            np.testing.assert_allclose(have, want, atol=1e-9, err_msg=name)
        dx, dw, db = nn.conv2d_backward(g, cache, need_dx=False)
        assert dx is None
        assert np.array_equal(dw, got[1]) and np.array_equal(db, got[2])

    def test_single_input_channel_dx_matches_naive_oracle(self):
        rng = np.random.default_rng(62)
        x, w = rng.normal(size=(2, 1, 7, 6)), rng.normal(size=(4, 1, 3, 3))
        out, cache = nn.conv2d(x, w, np.zeros(4), 1, 1)
        g = rng.normal(size=out.shape)
        np.testing.assert_allclose(nn.conv2d_backward(g, cache)[0],
                                   conv_naive_backward(x, w, g, 1, 1)[0], atol=1e-9)

    @pytest.mark.parametrize("bsz", [1, 4])
    @pytest.mark.parametrize("cin,cout,size", [(16, 32, 64), (32, 64, 32)])
    def test_dx_equals_the_one_gemm_col2im_bytes(self, cin, cout, size, bsz):
        # the CNN's conv layers that are asked for dx, at 128 input frames
        # (conv1 reads the input and is not): the input gradient built one
        # kernel tap at a time has the bytes of one GEMM over every tap's
        # columns followed by col2im
        rng = np.random.default_rng(cin + bsz)
        x = channel_major(rng.normal(size=(bsz, cin, size, size)))
        w, b = rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout)
        out, cache = nn.conv2d(x, w, b, 1, 1)
        g = channel_major(rng.normal(size=out.shape))
        dx, _, _ = nn.conv2d_backward(g, cache)

        g_flat = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        dcols = (w.reshape(cout, -1).T @ g_flat).reshape(cin, 3, 3, bsz, size, size)
        dxp = np.zeros((cin, bsz, size + 2, size + 2))
        for i in range(3):
            for j in range(3):
                dxp[:, :, i : i + size, j : j + size] += dcols[:, i, j]
        assert dx.tobytes() == dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3).tobytes()
        # the cache is left as it was, so a second backward gives the same
        assert nn.conv2d_backward(g, cache)[0].tobytes() == dx.tobytes()

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_same_result_for_both_input_layouts(self, stride, pad):
        rng = np.random.default_rng(17 + stride + pad)
        x = rng.normal(size=(2, 3, 7, 9))
        w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        g = rng.normal(size=np.shape(conv_naive(x, w, b, stride, pad)))
        (out_c, dx_c), (out_m, dx_m) = run_both_layouts(
            lambda t: nn.conv2d(t, w, b, stride, pad),
            lambda g, cache: nn.conv2d_backward(g, cache)[0], x, g)
        assert np.array_equal(out_c, out_m)
        assert np.array_equal(dx_c, dx_m)
        np.testing.assert_allclose(out_m, conv_naive(x, w, b, stride, pad), atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParam, match="conv2d channel mismatch: x has 2, w expects 5"):
            nn.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 5, 3, 3)), np.zeros(3))


class TestMaxpool:
    def test_constant_input(self):
        out, _ = nn.maxpool2d(np.full((1, 1, 4, 4), 2.5))
        np.testing.assert_allclose(out, 2.5)

    def test_small_example(self):
        out, _ = nn.maxpool2d(np.array([[1.0, 2.0], [3.0, 4.0]])[None, None])
        assert out.reshape(()) == 4.0

    def test_gradient_one_hot_per_window(self):
        rng = np.random.default_rng(3)
        out, cache = nn.maxpool2d(safe_random(rng, (1, 2, 4, 4)))
        dx = nn.maxpool2d_backward(np.ones_like(out), cache)
        g = dx.reshape(1, 2, 2, 2, 2, 2)
        # each 2x2 window routes exactly one unit of gradient
        assert np.all(g.sum(axis=(3, 5)) == 1.0)
        assert set(np.unique(dx)) <= {0.0, 1.0}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 1), (3, 2)])
    def test_matches_naive_loops(self, k, s, layout):
        rng = np.random.default_rng(10 * k + s)
        # odd H and W leave a remainder; values in {0..3} give many ties;
        # integer gradients sum exactly in any order where windows overlap
        x_np = rng.integers(0, 4, size=(2, 3, 7, 9)).astype(np.float64)
        ho, wo = (7 - k) // s + 1, (9 - k) // s + 1
        g = rng.integers(-3, 4, size=(2, 3, ho, wo)).astype(np.float64)
        out, cache = nn.maxpool2d(LAYOUTS[layout](x_np), k, s)
        want_out, want_dx = maxpool_naive(x_np, g, k, s)
        assert np.array_equal(out, want_out)
        assert np.array_equal(nn.maxpool2d_backward(g, cache), want_dx)

    def test_tie_routes_to_first_in_row_major(self):
        out, cache = nn.maxpool2d(np.full((1, 1, 2, 2), 7.0))
        dx = nn.maxpool2d_backward(np.ones_like(out), cache)
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


class TestGlobalAvgPool:
    def test_same_result_for_both_input_layouts(self):
        rng = np.random.default_rng(19)
        x, g = rng.normal(size=(2, 3, 7, 9)), rng.normal(size=(2, 3))
        (out_c, dx_c), (out_m, dx_m) = run_both_layouts(
            nn.global_avg_pool, nn.global_avg_pool_backward, x, g)
        assert np.array_equal(out_c, out_m)
        assert np.array_equal(dx_c, dx_m)
        np.testing.assert_allclose(out_m, x.mean(axis=(2, 3)), atol=1e-12)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_output_is_c_contiguous(self, layout):
        # dense's GEMMs round differently for a transposed operand
        x = LAYOUTS[layout](np.random.default_rng(20).normal(size=(4, 8, 5, 5)))
        assert nn.global_avg_pool(x)[0].flags["C_CONTIGUOUS"]


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        out, _ = nn.dense(x, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(out, x)

    def test_zero_weight_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        out, _ = nn.dense(np.ones((5, 3)), np.zeros((2, 3)), b)
        np.testing.assert_allclose(out, np.tile(b, (5, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
        got, _ = nn.dense(x, w, b)
        np.testing.assert_allclose(got, x @ w.T + b, atol=1e-9)


class TestActivations:
    def test_relu_same_result_for_both_input_layouts(self):
        rng = np.random.default_rng(21)
        x, g = rng.normal(size=(2, 3, 7, 9)), rng.normal(size=(2, 3, 7, 9))
        (out_c, dx_c), (out_m, dx_m) = run_both_layouts(nn.relu, nn.relu_backward, x, g)
        assert np.array_equal(out_c, out_m)
        assert np.array_equal(dx_c, dx_m)
        assert np.array_equal(out_m, np.maximum(x, 0.0))

    def test_softmax_uniform_logits(self):
        np.testing.assert_allclose(nn.softmax(np.zeros((1, 5))), 0.2)

    def test_sigmoid_zero(self):
        assert float(nn.sigmoid(np.array(0.0))[0]) == 0.5

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(nn.softmax(x), nn.softmax(x + 123.456), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(2).normal(size=(4, 7)) * 50
        np.testing.assert_allclose(nn.softmax(x).sum(axis=1), 1.0, atol=1e-9)


class TestLosses:
    def test_bce_at_half(self):
        for y in (0.0, 1.0):
            loss, _ = nn.bce(np.array([0.5]), np.array([y]))
            np.testing.assert_allclose(loss, np.log(2.0), atol=1e-12)

    def test_cross_entropy_uniform(self):
        loss, _ = nn.cross_entropy(np.zeros((1, 5)), np.array([3]))
        np.testing.assert_allclose(loss, np.log(5.0), atol=1e-12)

    def test_bce_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.2, 0.8, size=6)
        y = (rng.random(6) > 0.5).astype(float)

        def f(ps):
            loss, cache = nn.bce(ps["p"], y)
            return loss, {"p": nn.bce_backward(1.0, cache)}

        gradcheck(f, {"p": p})

    def test_cross_entropy_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        cls = rng.integers(0, 5, 4)
        w = rng.random(4)

        def f(ps):
            loss, cache = nn.cross_entropy(ps["logits"], cls, sample_weight=w)
            return loss, {"logits": nn.cross_entropy_backward(1.0, cache)}

        gradcheck(f, {"logits": logits})


class TestBackward:
    def test_dense_relu_chain_matches_fd(self):
        rng = np.random.default_rng(9)
        params = {"x": safe_random(rng, (3, 4)),
                  "w1": safe_random(rng, (5, 4)), "b1": safe_random(rng, (5,)),
                  "w2": safe_random(rng, (2, 5)), "b2": safe_random(rng, (2,))}

        def f(ps):
            z, dense1 = nn.dense(ps["x"], ps["w1"], ps["b1"])
            h, act = nn.relu(z)
            out, dense2 = nn.dense(h, ps["w2"], ps["b2"])
            dh, dw2, db2 = nn.dense_backward(np.full_like(out, 1.0 / out.size), dense2)
            dx, dw1, db1 = nn.dense_backward(nn.relu_backward(dh, act), dense1)
            return out.mean(), {"x": dx, "w1": dw1, "b1": db1, "w2": dw2, "b2": db2}

        gradcheck(f, params)


class TestSgd:
    def test_zero_momentum_is_plain_sgd(self):
        p = {"p": np.array([1.0, 2.0])}
        nn.sgd_step(p, {"p": np.array([0.5, -0.5])}, nn.OptimizerState(lr=0.1, momentum=0.0))
        np.testing.assert_allclose(p["p"], [0.95, 2.05])

    def test_zero_grad_keeps_params(self):
        p = {"p": np.array([1.0])}
        nn.sgd_step(p, {"p": np.zeros(1)}, nn.OptimizerState(lr=0.1, momentum=0.9))
        np.testing.assert_array_equal(p["p"], [1.0])

    def test_quadratic_bowl_converges(self):
        target = np.array([1.0, -2.0, 0.5])
        p = {"p": np.array([5.0, 5.0, 5.0])}
        st = nn.OptimizerState(lr=0.1, momentum=0.0)
        for _ in range(500):
            nn.sgd_step(p, {"p": 2.0 * (p["p"] - target)}, st)
        assert np.abs(p["p"] - target).max() < 1e-6

    def test_velocity_shape_mirrors_param(self):
        st = nn.OptimizerState(lr=0.1)
        nn.sgd_step({"p": np.zeros((2, 2))}, {"p": np.zeros((2, 2))}, st)
        assert st.velocities["p"].shape == (2, 2)


class TestFiniteGuard:
    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteTensor, match="relu output"):
            nn.relu(np.array([1.0, np.nan]))

    def test_op_output_check_names_the_op(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteTensor, match="dense output"):
            nn.dense(np.array([[1e308]]), np.array([[10.0]]), np.zeros(1))

    def test_ops_stay_finite_on_random_input(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 1, 8, 8))
        w = rng.normal(size=(4, 1, 3, 3))
        out, _ = nn.relu(nn.conv2d(x, w, np.zeros(4), pad=1)[0])
        assert np.isfinite(out).all()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
                  "scalar": np.array(2.5)}
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(path, arrays)
        loaded = nn.load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], np.asarray(arrays[k]))

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(path, {"w": np.ones(4)})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFile, match="checksum mismatch"):
            nn.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 64)
        with pytest.raises(MalformedFile, match="bad magic or truncated file"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("step", ["numpy.savez", "os.replace"])
    def test_a_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, step):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(path, {"w": np.ones(4)})
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(step, fail)
        with pytest.raises(OSError, match="no space left"):
            nn.save_checkpoint(path, {"w": np.zeros(4)})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]    # no temporary file left behind
