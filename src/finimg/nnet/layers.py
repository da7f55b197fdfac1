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

Saved state: a forward drops the last batch's _saved, then saves what its
backward reads: a conv its im2col columns, a max pool its masks, input size
and axis order, ReLU and dropout their masks, the dense kinds their input
(softmax output also its probabilities), Flatten its input shape. Backward
takes it through _take, which clears it, so only the gradients _dw and _db
outlive it; Network.predict clears every layer's state when it returns.

Layers do not check shapes: NetworkSpec.layer_shapes proves each layer's
input before it is built, and Network.forward checks each batch's shape.
"""
from __future__ import annotations

import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when a network receives input of the wrong shape."""


class Layer:
    """Base layer; parameterless by default.

    needs_input_grad is cleared on the first layer of a network so the
    backward pass can skip the (often dominant) input-gradient work.
    """

    name = "layer"
    needs_input_grad = True
    _saved: tuple | None = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take(self) -> tuple:
        saved, self._saved = self._saved, None
        if saved is None:
            raise ValueError(f"{self.name}: backward without a forward")
        return saved

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
        self._saved = (x,)
        return x @ self.weight + self.bias

    def _affine_backward(self, x, grad):
        self._dw = x.T @ grad
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
        return self._affine_backward(*self._take(), grad)


class ReLU(Layer):
    name = "relu"

    def forward(self, x, train, rng=None):
        self._saved = None  # frees the last mask before the new one is made
        self._saved = (x > 0,)
        return np.where(self._saved[0], x, 0.0)

    def backward(self, grad):
        return np.where(self._take()[0], grad, 0.0)


class Dropout(Layer):
    """Inverted dropout: active in train mode only; NetworkSpec checks the rate."""

    name = "dropout"

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train, rng=None):
        self._saved = (None,)  # the identity, unless a mask replaces it
        if not train or self.rate == 0.0:
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        self._saved = ((rng.random(x.shape) >= self.rate) / (1.0 - self.rate),)
        return x * self._saved[0]

    def backward(self, grad):
        (mask,) = self._take()
        return grad if mask is None else grad * mask


class Flatten(Layer):
    name = "flatten"

    def forward(self, x, train, rng=None):
        self._saved = (x.shape,)
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also for 0 rows

    def backward(self, grad):
        return grad.reshape(self._take()[0])


class _Conv(_Weighted):
    """One stride-1 im2col cross-correlation over (N, C, H, W) inputs.

    Conv1D runs it on (N, C, 1, L) views; the column order (c, 1, k)
    equals (c, k), so both layers hand the same operands to the GEMMs.
    """

    @staticmethod
    def _im2col(a, kh, kw):
        """The stride-1 kh x kw windows of (N, C, H, W) a, one channels-last row each."""
        n, c, h, w = a.shape
        s0, s1, s2, s3 = a.strides
        win = np.lib.stride_tricks.as_strided(
            a, (n, c, h - kh + 1, w - kw + 1, kh, kw), (s0, s1, s2, s3, s2, s3))
        return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, c * kh * kw)

    def _correlate(self, x, weight):
        self._saved = None
        f, c, kh, kw = weight.shape
        n, _, h, w = x.shape
        oh, ow = h - kh + 1, w - kw + 1
        cols = self._im2col(x, kh, kw)
        out = cols @ weight.reshape(f, -1).T
        out += self.bias
        self._saved = (cols,)
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def _correlate_backward(self, grad, weight):
        f, c, kh, kw = weight.shape
        n, _, oh, ow = grad.shape
        h, w = oh + kh - 1, ow + kw - 1
        gmat = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(n * oh * ow, f)
        # The columns are freed here, before the input gradient's are gathered.
        self._dw = (gmat.T @ self._take()[0]).reshape(self.weight.shape)
        self._db = gmat.sum(axis=0)
        if not self.needs_input_grad:
            return None
        gp = np.zeros((n, oh + 2 * (kh - 1), ow + 2 * (kw - 1), f)).transpose(0, 3, 1, 2)
        gp[:, :, kh - 1 : kh - 1 + oh, kw - 1 : kw - 1 + ow] = grad
        cols_g = self._im2col(gp, kh, kw)
        rot = weight[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(f * kh * kw, c)
        return (cols_g @ rot).reshape(n, h, w, c).transpose(0, 3, 1, 2)


class Conv1D(_Conv):
    name = "conv1d"  # weight (filters, channels, kernel)

    def forward(self, x, train, rng=None):
        return self._correlate(x[:, :, None, :], self.weight[:, :, None, :])[:, :, 0, :]

    def backward(self, grad):
        dx = self._correlate_backward(grad[:, :, None, :], self.weight[:, :, None, :])
        return None if dx is None else dx[:, :, 0, :]


class Conv2D(_Conv):
    name = "conv2d"  # weight (filters, channels, kh, kw)

    def forward(self, x, train, rng=None):
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
        self._saved = None
        n, c, h, w = x.shape
        oh, ow = h // wh, w // ww
        xr = x[:, :, : oh * wh, : ow * ww].reshape(n, c, oh, wh, ow, ww)
        cells = [xr[:, :, :, i, :, j] for i, j in np.ndindex(wh, ww)]
        out = np.copy(cells[0])  # keeps the input's memory order
        for cell in cells[1:]:
            np.maximum(out, cell, out=out)
        free = np.ones_like(out, dtype=bool)
        masks = []
        for cell in cells:
            m = (cell == out) & free
            free &= ~m
            masks.append(m)
        in_axes = np.argsort(np.abs(x.strides), kind="stable")[::-1]  # outermost first
        self._saved = (masks, (h, w), in_axes)
        return out

    def _pool_backward(self, grad, wh, ww):
        n, c, oh, ow = grad.shape
        masks, (h, w), in_axes = self._take()
        dx = np.zeros(np.array((n, c, h, w))[in_axes]).transpose(np.argsort(in_axes))
        for (i, j), m in zip(np.ndindex(wh, ww), masks):
            dx[:, :, i : oh * wh : wh, j : ow * ww : ww] = np.where(m, grad, 0.0)
        return dx


class MaxPool1D(_MaxPool):
    name = "maxpool1d"

    def forward(self, x, train, rng=None):
        return self._pool(x[:, :, None, :], 1, self.window)[:, :, 0, :]

    def backward(self, grad):
        return self._pool_backward(grad[:, :, None, :], 1, self.window)[:, :, 0, :]


class MaxPool2D(_MaxPool):
    name = "maxpool2d"

    def forward(self, x, train, rng=None):
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
        probs = softmax(self._affine(x))
        self._saved = (x, probs)
        return probs

    def backward_from_labels(self, labels: np.ndarray) -> np.ndarray:
        """Gradient of mean cross-entropy with respect to the input."""
        x, probs = self._take()
        n = labels.shape[0]
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        return self._affine_backward(x, dlogits)

    def backward(self, grad):
        raise NotImplementedError("use backward_from_labels on the output layer")


CROSS_ENTROPY_EPS = 1e-12


def loss_crossentropy(probs: np.ndarray, labels: np.ndarray | int) -> float:
    """Mean negative log-likelihood of the true labels."""
    p = np.atleast_2d(probs)
    y = np.atleast_1d(np.asarray(labels, dtype=int))
    picked = p[np.arange(y.shape[0]), y]
    return float(-np.log(np.clip(picked, CROSS_ENTROPY_EPS, None)).mean())
