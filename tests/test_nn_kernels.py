"""Production conv/pool kernels against the reference kernels in ``nn_oracles``.

The fast kernels are pure data-movement rewrites: every GEMM keeps its
operands and every accumulation its order, so the bytes must not move.
Grids compare with ``tobytes()``; only overlapping max pools (stride <
kernel, used by no zoo model) accumulate shared gradient cells in a
different order and are compared with ``allclose``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro import ExperimentSpec
from repro.api.registry import build_mode
from repro.nn import Conv2d, MaxPool2d
from repro.nn import conv as conv_module
from repro.nn import functional as F
from tests import nn_oracles as oracle


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


# ---------------------------------------------------------------------------
# im2col / col2im / Conv2d
# ---------------------------------------------------------------------------

CONV_GRID = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2)))


@pytest.mark.parametrize("k,stride,pad", CONV_GRID)
def test_im2col_col2im_match_oracle_bitwise(k, stride, pad):
    rng = np.random.default_rng(k * 100 + stride * 10 + pad)
    for c, n in itertools.product((1, 3, 6), (1, 50, 256)):
        # Non-square (h != w) so a swapped axis cannot hide.
        x = rng.standard_normal((n, c, 7, 9)).astype(np.float32)
        want, want_hw = oracle.im2col(x, k, k, stride, pad)
        got, got_hw = F.im2col(x, k, k, stride, pad)
        assert got_hw == want_hw
        assert got.flags.c_contiguous, (c, n)
        assert _same_bytes(got, want), ("im2col", c, n)

        dcols = rng.standard_normal(want.shape).astype(np.float32)
        want_dx = oracle.col2im(dcols, x.shape, k, k, stride, pad)
        got_dx = F.col2im(dcols, x.shape, k, k, stride, pad)
        assert _same_bytes(got_dx, want_dx), ("col2im", c, n)


def test_im2col_reads_non_contiguous_inputs():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 9, 7, 4)).astype(np.float32).transpose(3, 0, 2, 1)
    assert not x.flags.c_contiguous
    for pad in (0, 2):
        want, _ = oracle.im2col(x, 3, 3, 1, pad)
        got, _ = F.im2col(x, 3, 3, 1, pad)
        assert _same_bytes(got, want)


@pytest.mark.parametrize("k,stride,pad", [(5, 1, 2), (3, 2, 1), (1, 1, 0)])
def test_conv2d_layer_matches_oracle_bitwise(k, stride, pad):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 3, 8, 8)).astype(np.float32)
    results = []
    for use_oracle in (True, False):
        layer = Conv2d(3, 4, k, stride=stride, padding=pad, rng=np.random.default_rng(0))
        if use_oracle:
            out = oracle._conv_forward(layer, x)
            dout = np.random.default_rng(4).standard_normal(out.shape).astype(np.float32)
            dx = oracle._conv_backward(layer, dout)
        else:
            out = layer.forward(x)
            dout = np.random.default_rng(4).standard_normal(out.shape).astype(np.float32)
            dx = layer.backward(dout)
        results.append((out, dx, layer.weight.grad.copy(), layer.bias.grad.copy()))
    for want, got in zip(*results):
        assert _same_bytes(got, want)


def test_conv2d_without_input_grad_keeps_parameter_grads():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 2, 6, 6)).astype(np.float32)
    grads = []
    for input_grad in (True, False):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        layer.input_grad = input_grad
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert (dx is None) == (not input_grad)
        grads.append((layer.weight.grad.copy(), layer.bias.grad.copy()))
    for want, got in zip(*grads):
        assert _same_bytes(got, want)


# ---------------------------------------------------------------------------
# MaxPool2d
# ---------------------------------------------------------------------------

def _tie_heavy(rng, shape) -> np.ndarray:
    """ReLU'd values on a coarse grid: exact-zero ties, duplicated maxima,
    signed zeros."""
    x = np.maximum(np.round(rng.standard_normal(shape) * 2) / 2, 0).astype(np.float32)
    x[rng.random(shape) < 0.2] = -0.0
    return x


def _pool_pair(x, dout, k, s):
    pool = MaxPool2d(k, stride=s)
    out = pool.forward(x)
    dx = pool.backward(dout)
    ref_out, argmax = oracle.maxpool_forward(x, k, s)
    ref_dx = oracle.maxpool_backward(dout, argmax, x.shape, k, s)
    return (out, dx), (ref_out, ref_dx)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n,c,h,w", [(1, 1, 6, 6), (50, 6, 12, 12), (7, 3, 13, 11)])
def test_maxpool_matches_argmax_oracle_bitwise(k, n, c, h, w):
    rng = np.random.default_rng(k * 1000 + n)
    x = _tie_heavy(rng, (n, c, h, w))
    x[0, 0, : 2 * k, : 2 * k] = 0.0  # all-zero windows
    x[0, 0, 0, 1] = -0.0  # a -0.0 after a +0.0 in the same window
    x[-1, -1, 0, 0] = 3.0
    x[-1, -1, 1, 1] = 3.0  # duplicated maximum in one window
    oh, ow = (h - k) // k + 1, (w - k) // k + 1
    dout = rng.standard_normal((n, c, oh, ow)).astype(np.float32)
    dout[0, 0, 0, 0] = -0.0
    (out, dx), (ref_out, ref_dx) = _pool_pair(x, dout, k, k)
    assert _same_bytes(out, ref_out)
    assert _same_bytes(dx, ref_dx)


@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_signed_zero_tie_keeps_first_sign(k):
    x = np.zeros((1, 1, k, k), dtype=np.float32)
    x.reshape(-1)[0] = -0.0
    (out, _), (ref_out, _) = _pool_pair(x, np.ones((1, 1, 1, 1), np.float32), k, k)
    assert np.signbit(out).all() and _same_bytes(out, ref_out)


@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_nan_takes_window_and_gradient_at_first_nan(k):
    rng = np.random.default_rng(9)
    x = _tie_heavy(rng, (2, 2, 2 * k, 2 * k))
    x[1, 1, k - 1, 0] = np.nan  # the window's first NaN, not its first element
    x[1, 1, k - 1, k - 1] = np.nan
    dout = rng.standard_normal((2, 2, 2, 2)).astype(np.float32)
    (out, dx), (ref_out, ref_dx) = _pool_pair(x, dout, k, k)
    assert np.isnan(out[1, 1, 0, 0])
    assert dx[1, 1, k - 1, 0] == dout[1, 1, 0, 0]
    assert dx[1, 1, k - 1, k - 1] == 0
    assert _same_bytes(out, ref_out)
    assert _same_bytes(dx, ref_dx)


@pytest.mark.parametrize("k,s", [(3, 2), (2, 1), (3, 1)])
def test_overlapping_maxpool_matches_oracle_to_rounding(k, s):
    rng = np.random.default_rng(11)
    x = _tie_heavy(rng, (5, 3, 11, 11))
    oh = (11 - k) // s + 1
    dout = rng.standard_normal((5, 3, oh, oh)).astype(np.float32)
    (out, dx), (ref_out, ref_dx) = _pool_pair(x, dout, k, s)
    assert _same_bytes(out, ref_out)  # the forward is a pure selection
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

TINY_CNN = dict(dataset="tiny", model="cnn", method="fedtrip", n_clients=4,
                clients_per_round=2, rounds=3, batch_size=20, lr=0.05,
                executor="serial", seed=3)


def _federate():
    spec = ExperimentSpec(**TINY_CNN)
    with build_mode(spec.mode, spec=spec, data=spec.build_data()) as engine:
        history = engine.run()
        weights = engine.server.flat_weights.tobytes()
    records = history.to_dict()["records"]
    for record in records:
        record.pop("wall_seconds")
        record.pop("phase_seconds")
    return json.dumps(records, sort_keys=True), weights


def test_tiny_cnn_federation_is_byte_identical_on_oracle_kernels(monkeypatch):
    production = _federate()
    with monkeypatch.context() as patch:
        oracle.install(patch)
        reference = _federate()
    assert production[0] == reference[0]
    assert production[1] == reference[1]


def test_model_first_conv_skips_its_input_gradient(monkeypatch):
    from repro.models import build_cnn

    model = build_cnn((1, 8, 8), 4, rng=np.random.default_rng(0))
    convs = [m for _, m in model.modules() if isinstance(m, Conv2d)]
    assert [c.input_grad for c in convs] == [False] + [True] * (len(convs) - 1)

    folds = []
    real_col2im = conv_module.col2im

    def counting_col2im(cols, *args):
        folds.append(cols.shape)
        return real_col2im(cols, *args)

    monkeypatch.setattr(conv_module, "col2im", counting_col2im)
    x = np.random.default_rng(1).standard_normal((5, 1, 8, 8)).astype(np.float32)
    logits = model.forward(x)
    assert model.backward(np.ones_like(logits)) is None
    assert len(folds) == len(convs) - 1
    assert all(float(np.abs(c.weight.grad).sum()) > 0 for c in convs)
