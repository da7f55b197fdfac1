"""Numpy layers with exact forward/backward passes.

Shape conventions (batch first): dense layers take (N, D); 2D convolution
and pooling take (N, C, H, W). The 1D layers take (N, C, L) and are the
one-row case: they run the 2D kernels on an (N, C, 1, L) view, with a
(filters, channels, kernel) weight standing for (filters, channels, 1,
kernel). Convolutions are stride-1 "valid" cross-correlations: no padding,
so each axis shrinks by kernel - 1. Pooling windows do not overlap and
floor-truncate. A max pool keeps one boolean mask per window position,
routes each window's gradient to its first maximum, and writes the input
gradient through strided slices, one per window position (see _MaxPool).

Memory order: each kernel writes its output in the order the next step
reads, and the values never depend on it. A convolution's GEMMs write its
output and its input gradient channels-last, returned as (N, C, H, W)
views, and it pads its output gradient into a channels-last buffer. A max
pool keeps its input's order in its output, masks and input gradient, so
the gradient reaching a convolution's backward is already the
channels-last matrix its weight GEMM reads. Flatten copies to C order,
because the dense weights read (C, H, W) order.
"""
from __future__ import annotations

import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when a layer receives input of the wrong shape."""


def _check(condition: bool, layer: str, detail: str) -> None:
    if not condition:
        raise ShapeMismatchError(f"{layer}: {detail}")


class Layer:
    """Base layer; parameterless by default.

    needs_input_grad is cleared on the first layer of a network so the
    backward pass can skip the (often dominant) input-gradient work.
    """

    name = "layer"
    needs_input_grad = True

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class _Weighted(Layer):
    """A layer with one weight and one bias, and their gradients. _affine and
    _affine_backward are the (N, D) @ (D, U) step of the two dense kinds."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.weight = weight
        self.bias = bias

    def _affine(self, x):
        _check(x.ndim == 2 and x.shape[1] == self.weight.shape[0], self.name,
               f"expected (N, {self.weight.shape[0]}), got {x.shape}")
        self._x = x
        return x @ self.weight + self.bias

    def _affine_backward(self, grad):
        self._dw = self._x.T @ grad
        self._db = grad.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return grad @ self.weight.T

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self._dw, self._db]


class Dense(_Weighted):
    name = "dense"

    def forward(self, x, train, rng=None):
        return self._affine(x)

    def backward(self, grad):
        return self._affine_backward(grad)


class ReLU(Layer):
    name = "relu"

    def forward(self, x, train, rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad):
        return np.where(self._mask, grad, 0.0)


class Dropout(Layer):
    """Inverted dropout: active in train mode only; NetworkSpec checks the rate."""

    name = "dropout"

    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x, train, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Layer):
    name = "flatten"

    def forward(self, x, train, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also for 0 rows

    def backward(self, grad):
        return grad.reshape(self._shape)


class _Conv(_Weighted):
    """One stride-1 im2col cross-correlation over (N, C, H, W) inputs.

    Conv1D runs it on (N, C, 1, L) views; the column order (c, 1, k)
    equals (c, k), so both layers hand the same operands to the GEMMs.
    """

    def _correlate(self, x, weight):
        f, c, kh, kw = weight.shape
        _check(x.shape[2] >= kh and x.shape[3] >= kw, self.name,
               f"input {x.shape[2]}x{x.shape[3]} smaller than kernel {kh}x{kw}")
        n, _, h, w = x.shape
        oh, ow = h - kh + 1, w - kw + 1
        s0, s1, s2, s3 = x.strides
        win = np.lib.stride_tricks.as_strided(
            x, (n, c, oh, ow, kh, kw), (s0, s1, s2, s3, s2, s3)
        )
        self._cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
            n * oh * ow, c * kh * kw
        )
        out = self._cols @ weight.reshape(f, -1).T
        out += self.bias
        self._in_hw = (h, w)
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def _correlate_backward(self, grad, weight):
        f, c, kh, kw = weight.shape
        n, _, oh, ow = grad.shape
        h, w = self._in_hw
        gmat = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(n * oh * ow, f)
        self._dw = (gmat.T @ self._cols).reshape(self.weight.shape)
        self._db = gmat.sum(axis=0)
        if not self.needs_input_grad:
            return None
        gp = np.zeros((n, oh + 2 * (kh - 1), ow + 2 * (kw - 1), f)).transpose(0, 3, 1, 2)
        gp[:, :, kh - 1 : kh - 1 + oh, kw - 1 : kw - 1 + ow] = grad
        s0, s1, s2, s3 = gp.strides
        win = np.lib.stride_tricks.as_strided(
            gp, (n, f, h, w, kh, kw), (s0, s1, s2, s3, s2, s3)
        )
        cols_g = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
            n * h * w, f * kh * kw
        )
        rot = weight[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(f * kh * kw, c)
        return (cols_g @ rot).reshape(n, h, w, c).transpose(0, 3, 1, 2)


class Conv1D(_Conv):
    name = "conv1d"  # weight (filters, channels, kernel)

    def forward(self, x, train, rng=None):
        c = self.weight.shape[1]
        _check(x.ndim == 3 and x.shape[1] == c, self.name,
               f"expected (N, {c}, L), got {x.shape}")
        return self._correlate(x[:, :, None, :], self.weight[:, :, None, :])[:, :, 0, :]

    def backward(self, grad):
        dx = self._correlate_backward(grad[:, :, None, :], self.weight[:, :, None, :])
        return None if dx is None else dx[:, :, 0, :]


class Conv2D(_Conv):
    name = "conv2d"  # weight (filters, channels, kh, kw)

    def forward(self, x, train, rng=None):
        c = self.weight.shape[1]
        _check(x.ndim == 4 and x.shape[1] == c, self.name,
               f"expected (N, {c}, H, W), got {x.shape}")
        return self._correlate(x, self.weight)

    def backward(self, grad):
        return self._correlate_backward(grad, self.weight)


class _MaxPool(Layer):
    """One non-overlapping max pool over (N, C, H, W) with a (wh, ww) window.

    The forward pass views the input as (N, C, OH, wh, OW, ww); splitting
    axes copies nothing, whatever the strides. Each window position (i, j)
    is an (N, C, OH, OW) view, and the max is an np.maximum fold over those
    views, which runs in the input's memory order (a max over the two short
    window axes is several times slower on C-contiguous input). One boolean
    mask per position, in row-major order, marks where that position equals
    the max and no earlier one did, so each window's gradient goes to its
    first maximum; a window holding NaN pools to NaN and passes none. The
    backward pass writes np.where(mask, grad, 0) into the strided slice
    dx[:, :, i::wh, j::ww] of one zeroed dx; rows and columns past the last
    whole window get zeros; dx is allocated in the input's memory order.
    MaxPool1D is the (1, window) case on (N, C, 1, L) views.
    """

    def __init__(self, window: int):
        self.window = window

    def _pool(self, x, wh, ww):
        n, c, h, w = x.shape
        oh, ow = h // wh, w // ww
        _check(oh > 0 and ow > 0, self.name,
               f"window {wh}x{ww} larger than input {h}x{w}")
        xr = x[:, :, : oh * wh, : ow * ww].reshape(n, c, oh, wh, ow, ww)
        cells = [xr[:, :, :, i, :, j] for i, j in np.ndindex(wh, ww)]
        out = np.copy(cells[0])  # keeps the input's memory order
        for cell in cells[1:]:
            np.maximum(out, cell, out=out)
        free = np.ones_like(out, dtype=bool)
        self._masks = []
        for cell in cells:
            m = (cell == out) & free
            free &= ~m
            self._masks.append(m)
        self._in_hw = (h, w)
        self._in_axes = np.argsort(np.abs(x.strides), kind="stable")[::-1]  # outermost first
        return out

    def _pool_backward(self, grad, wh, ww):
        n, c, oh, ow = grad.shape
        shape = np.array((n, c, *self._in_hw))
        dx = np.zeros(shape[self._in_axes]).transpose(np.argsort(self._in_axes))
        for (i, j), m in zip(np.ndindex(wh, ww), self._masks):
            dx[:, :, i : oh * wh : wh, j : ow * ww : ww] = np.where(m, grad, 0.0)
        return dx


class MaxPool1D(_MaxPool):
    name = "maxpool1d"

    def forward(self, x, train, rng=None):
        _check(x.ndim == 3, self.name, f"expected (N, C, L), got {x.shape}")
        return self._pool(x[:, :, None, :], 1, self.window)[:, :, 0, :]

    def backward(self, grad):
        return self._pool_backward(grad[:, :, None, :], 1, self.window)[:, :, 0, :]


class MaxPool2D(_MaxPool):
    name = "maxpool2d"

    def forward(self, x, train, rng=None):
        _check(x.ndim == 4, self.name, f"expected (N, C, H, W), got {x.shape}")
        return self._pool(x, self.window, self.window)

    def backward(self, grad):
        return self._pool_backward(grad, self.window, self.window)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxOutput(_Weighted):
    """Final dense projection to class logits followed by softmax."""

    name = "softmax_output"

    def forward(self, x, train, rng=None):
        self._probs = softmax(self._affine(x))
        return self._probs

    def backward_from_labels(self, labels: np.ndarray) -> np.ndarray:
        """Gradient of mean cross-entropy with respect to the input."""
        n = labels.shape[0]
        dlogits = self._probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        return self._affine_backward(dlogits)

    def backward(self, grad):
        raise NotImplementedError("use backward_from_labels on the output layer")


CROSS_ENTROPY_EPS = 1e-12


def loss_crossentropy(probs: np.ndarray, labels: np.ndarray | int) -> float:
    """Mean negative log-likelihood of the true labels."""
    p = np.atleast_2d(probs)
    y = np.atleast_1d(np.asarray(labels, dtype=int))
    picked = p[np.arange(y.shape[0]), y]
    return float(-np.log(np.clip(picked, CROSS_ENTROPY_EPS, None)).mean())
