"""Stateless numerical kernels shared by layers and losses.

Everything here is a pure function on NumPy arrays, fully vectorized; the
im2col/col2im pair is the workhorse that turns convolution into one large
GEMM (the standard CPU strategy — one big BLAS call instead of nested Python
loops, per the HPC optimization guide).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "cosine_similarity",
    "conv_output_size",
    "im2col",
    "col2im",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """One-hot encode integer ``labels`` into shape ``(n, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Row-wise cosine similarity between ``(n, d)`` matrices."""
    an = np.linalg.norm(a, axis=1)
    bn = np.linalg.norm(b, axis=1)
    return np.einsum("nd,nd->n", a, b) / np.maximum(an * bn, eps)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a conv/pool dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into patch rows for GEMM-based convolution.

    Returns ``(cols, (oh, ow))`` where ``cols`` is C-contiguous with shape
    ``(N * oh * ow, C * kh * kw)``: one row per output pixel, sample-major,
    columns in ``(C, kh, kw)`` order.  One ``np.take`` gathers every row
    out of the flattened samples through a cached per-geometry index
    (:func:`_patch_index`); zero padding is a single zero column appended to
    the samples, so no padded copy of the input is ever built.
    """
    n, c, h, w = x.shape
    idx = _patch_index(c, h, w, kh, kw, stride, padding)
    flat = x.reshape(n, c * h * w)
    if padding > 0:
        flat = np.concatenate((flat, np.zeros((n, 1), dtype=x.dtype)), axis=1)
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    # Every index is in range; mode="wrap" only skips the bounds-error path.
    cols = flat.take(idx, axis=1, mode="wrap")
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


@functools.lru_cache(maxsize=64)
def _patch_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Read-only flat source index of one sample's :func:`im2col` rows.

    Entry ``(oy, ox, ci, i, j)`` (C order) points into the sample flattened
    as ``(C, H, W)``; taps on the zero padding point one past its end, at
    the zero column :func:`im2col` appends.
    """
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    oy, ox, ci, i, j = np.ix_(
        np.arange(oh), np.arange(ow), np.arange(c), np.arange(kh), np.arange(kw)
    )
    row = oy * stride + i - padding
    col = ox * stride + j - padding
    inside = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    idx = np.where(inside, (ci * h + row) * w + col, c * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch-row gradients back into an input-shaped gradient.

    Inverse scatter-add of :func:`im2col`: overlapping windows accumulate,
    kernel offset by kernel offset in ``(i, j)`` order starting from zero.
    The sums run in a padded ``(N, H, W, C)`` scratch, whose slices line up
    with the ``(N, oh, ow, C)`` patch planes of ``cols``; one transposing
    copy returns the C-contiguous ``(N, C, H, W)`` result.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    dx_pad = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            dx_pad[:, i:i_max:stride, j:j_max:stride] += patches[..., i, j]
    dx = dx_pad[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))
