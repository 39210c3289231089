"""Reference conv/pool kernels that production ``repro.nn`` must match bit for bit.

These are the straightforward formulations the fast kernels replaced: an
``np.pad`` + strided-view im2col, an NCHW scatter col2im, and an ``argmax``
max pool with an ``np.add.at`` backward.  Tests compare production against
them with ``tobytes()``, and :func:`install` swaps them into the layer
classes so a whole federation can run on them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_size


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    dx_pad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dx_pad[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                patches[:, :, :, :, i, j]
            )
    return dx_pad[:, :, padding : padding + h, padding : padding + w]


def maxpool_forward(x: np.ndarray, k: int, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(out, argmax)``: each window's value at ``np.argmax`` of its
    row-major flattening, and that flat in-window index."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, s, 0)
    ow = conv_output_size(w, k, s, 0)
    sn, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, k, k), strides=(sn, sc, sh * s, sw * s, sh, sw)
    )
    flat = win.reshape(n, c, oh, ow, k * k)
    idx = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), idx


def maxpool_backward(
    dout: np.ndarray, argmax: np.ndarray, x_shape: Tuple[int, ...], k: int, s: int
) -> np.ndarray:
    """Scatter-add ``dout`` at each window's argmax, in window order."""
    n, c, _, _ = x_shape
    oh, ow = dout.shape[2], dout.shape[3]
    dx = np.zeros(x_shape, dtype=dout.dtype)
    oi = np.arange(oh)[None, None, :, None]
    oj = np.arange(ow)[None, None, None, :]
    rows = (oi * s + argmax // k).reshape(-1)
    cols = (oj * s + argmax % k).reshape(-1)
    ni = np.broadcast_to(np.arange(n)[:, None, None, None], argmax.shape).reshape(-1)
    ci = np.broadcast_to(np.arange(c)[None, :, None, None], argmax.shape).reshape(-1)
    np.add.at(dx, (ni, ci, rows, cols), dout.reshape(-1))
    return dx


# -- layer methods running on the oracles -------------------------------------

def _conv_forward(self, x):
    n = x.shape[0]
    k = self.kernel_size
    cols, (oh, ow) = im2col(x, k, k, self.stride, self.padding)
    out = cols @ self.weight.data.reshape(self.out_channels, -1).T
    if self.bias is not None:
        out += self.bias.data
    out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
    if self.training:
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (oh, ow)
    return np.ascontiguousarray(out)


def _conv_backward(self, dout):
    """The pre-skip backward: always folds the input gradient back."""
    n = self._x_shape[0]
    oh, ow = self._out_hw
    k = self.kernel_size
    dout_mat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
    self.weight.grad += (self._cols.T @ dout_mat).T.reshape(self.weight.data.shape)
    if self.bias is not None:
        self.bias.grad += dout_mat.sum(axis=0)
    dcols = dout_mat @ self.weight.data.reshape(self.out_channels, -1)
    dx = col2im(dcols, self._x_shape, k, k, self.stride, self.padding)
    self._cols = self._x_shape = self._out_hw = None
    return dx


def _pool_forward(self, x):
    out, idx = maxpool_forward(x, self.kernel_size, self.stride)
    if self.training:
        self._x_shape, self._argmax = x.shape, idx
    return out


def _pool_backward(self, dout):
    dx = maxpool_backward(dout, self._argmax, self._x_shape, self.kernel_size, self.stride)
    self._argmax = self._x_shape = None
    return dx


def install(monkeypatch) -> None:
    """Run every ``Conv2d`` and ``MaxPool2d`` on the oracle kernels for the
    rest of the test (``monkeypatch`` is pytest's fixture)."""
    from repro.nn import Conv2d, MaxPool2d

    monkeypatch.setattr(Conv2d, "forward", _conv_forward)
    monkeypatch.setattr(Conv2d, "backward", _conv_backward)
    monkeypatch.setattr(MaxPool2d, "forward", _pool_forward)
    monkeypatch.setattr(MaxPool2d, "backward", _pool_backward)
