"""Spatial pooling layers."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_size
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d"]


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Strided zero-copy view ``(N, C, oh, ow, k, k)`` over pooling windows."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _offset_slices(x: np.ndarray, k: int, stride: int) -> List[np.ndarray]:
    """The ``k*k`` strided views ``x[:, :, i::stride, j::stride]``, each
    ``(N, C, oh, ow)`` and cropped to the output grid, in row-major window
    order: view ``i*k + j`` holds element ``(i, j)`` of every window."""
    oh = conv_output_size(x.shape[2], k, stride, 0)
    ow = conv_output_size(x.shape[3], k, stride, 0)
    return [
        x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
        for i in range(k)
        for j in range(k)
    ]


class MaxPool2d(Module):
    """Max pooling with square windows.

    The forward pass is a chain of ``np.maximum`` over the ``k*k`` window
    offset slices (:func:`_offset_slices`), so no window is copied or
    gathered.  The window's first maximum in row-major order wins, the
    element ``np.argmax`` picks: the chain runs from the last offset to the
    first, and ``np.maximum`` keeps its second operand when both compare
    equal, so of tied ``+0.0``/``-0.0`` the earlier sign survives.  A NaN
    wins its window, and the first NaN takes the window's gradient.

    Training caches one first-match mask per offset; backward adds
    ``where(mask, dout, 0)`` back through the same slices into a zeroed
    gradient.  For non-overlapping windows (stride >= kernel, every pool in
    the model zoo) that is exactly a scatter-add at the argmax.  When
    windows overlap (stride < kernel) a cell shared by several windows
    accumulates their gradients in offset order rather than window order,
    which agrees with a scatter-add up to rounding.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._masks: Optional[List[np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        slices = _offset_slices(x, self.kernel_size, self.stride)
        out = slices[-1].copy()
        for s in reversed(slices[:-1]):
            np.maximum(out, s, out=out)
        if self.training:
            self._x_shape = x.shape
            self._masks = self._first_match_masks(slices, out)
        return out

    @staticmethod
    def _first_match_masks(slices: List[np.ndarray], out: np.ndarray) -> List[np.ndarray]:
        """Per offset, where that offset holds its window's first maximum
        (the first NaN, in a window holding one)."""
        has_nan = bool(np.isnan(out).any())
        masks: List[np.ndarray] = []
        taken = np.zeros(out.shape, dtype=bool)
        for s in slices[:-1]:
            hit = s == out
            if has_nan:
                hit |= np.isnan(s)
            masks.append(hit > taken)  # a hit not taken by an earlier offset
            taken |= hit
        masks.append(~taken)
        return masks

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._masks is None or self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        dx = np.zeros(self._x_shape, dtype=dout.dtype)
        for dx_s, mask in zip(_offset_slices(dx, self.kernel_size, self.stride), self._masks):
            dx_s += np.where(mask, dout, 0)
        self._masks = self._x_shape = None
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        oh = conv_output_size(h, self.kernel_size, self.stride, 0)
        ow = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, oh, ow)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        c, oh, ow = self.output_shape(input_shape)
        # One comparison per window element, counted as one FLOP.
        return c * oh * ow * self.kernel_size * self.kernel_size


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = _windows(x, self.kernel_size, self.stride)
        out = win.mean(axis=(-2, -1))
        if self.training:
            self._x_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        k = self.kernel_size
        dx = np.zeros(self._x_shape, dtype=dout.dtype)
        share = dout / (k * k)
        for dx_s in _offset_slices(dx, k, self.stride):
            dx_s += share
        self._x_shape = None
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        oh = conv_output_size(h, self.kernel_size, self.stride, 0)
        ow = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, oh, ow)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return c * oh * ow * self.kernel_size * self.kernel_size
