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
because the dense weights read (C, H, W) order. A convolution's im2col
row holds its window in (kh, kw, c) order, the channels-last order of its
input, so the fill copies contiguous runs; the weights keep their stored
(f, c, kh, kw) layout, and the GEMMs read them in the columns' order.

Saved state: a forward drops the last batch's _saved, then, with train,
saves what its backward reads: a conv its im2col columns, a max pool its
masks, input size and axis order, ReLU and dropout their masks, the dense
kinds their input (softmax output also its probabilities), Flatten its
input shape. Backward takes it through _take, which clears it, so only the
gradients _dw and _db outlive it. forward(x, train=False) is the inference
pass: it saves nothing, so a conv's columns die when its forward returns,
a max pool runs the max fold alone and makes no masks, and a backward
after it raises.

Layers do not check shapes: NetworkSpec.layer_shapes proves each layer's
input before it is built, and Network.forward checks each input's shape.

Row lanes (see lanes.py): the work whose output rows each read only the
same rows of its inputs runs through by_rows, one contiguous range of
batch rows per lane, into buffers the calling thread allocates. That is
the im2col fills, the conv bias add, the copy of a conv's output gradient
into its padded buffer, the max pool forward and backward, and ReLU
forward and backward. ReLU and the pool backward write
np.where(mask, a, 0.0) in one pass, as a's bits times 0 or 1 (_select).
The conv forward and input-gradient GEMMs run through lanes.matmul, in
blocks cut at multiples of 64 rows, each of over 10**6 multiply-adds,
when the output has at least 32 columns: the one split that kept the
whole GEMM's bits, since OpenBLAS picks its kernels by operand shape
(see lanes.py). The dense and softmax GEMMs run whole (a batch row each
is too little work for a lane, and split 12-column softmax outputs gave
other bits), and so do the weight-gradient GEMMs (they sum over the
rows, and a 64-aligned column split of conv2's gave other bits). The
conv backward keeps its order: the weight-gradient GEMM, then the
columns are freed, then the input gradient's columns are gathered.
"""
from __future__ import annotations

import math

import numpy as np

from .lanes import by_rows, matmul


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

    def _affine(self, x, train):
        self._saved = (x,) if train else None
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
        return self._affine(x, train)

    def backward(self, grad):
        return self._affine_backward(*self._take(), grad)


class ReLU(Layer):
    name = "relu"

    def forward(self, x, train, rng=None):
        self._saved = None  # frees the last mask before the new one is made
        mask, out = np.empty_like(x, dtype=bool), np.empty_like(x)

        def fill(lo, hi):
            np.greater(x[lo:hi], 0, out=mask[lo:hi])
            _select(mask[lo:hi], x[lo:hi], out[lo:hi])

        by_rows(fill, x)
        self._saved = (mask,) if train else None
        return out

    def backward(self, grad):
        mask, dx = self._take()[0], np.empty_like(grad)
        by_rows(lambda lo, hi: _select(mask[lo:hi], grad[lo:hi], dx[lo:hi]), grad)
        return dx


def _select(mask, a, out):
    """out[...] = np.where(mask, a, 0.0), bit for bit and in one pass: a's
    bits times 1 where mask holds and 0 (the bits of 0.0) elsewhere."""
    bits = np.dtype(f"u{a.itemsize}")
    np.multiply(a.view(bits), mask.view(np.uint8), out=out.view(bits))


class Dropout(Layer):
    """Inverted dropout: active in train mode only; NetworkSpec checks the rate."""

    name = "dropout"

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train, rng=None):
        self._saved = (None,) if train else None  # the identity, unless a mask replaces it
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
        self._saved = (x.shape,) if train else None
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also for 0 rows

    def backward(self, grad):
        return grad.reshape(self._take()[0])


class _Conv(_Weighted):
    """One stride-1 im2col cross-correlation over (N, C, H, W) inputs.

    A column row holds one window in (kh, kw, c) order, the order of the
    channels-last input, so each of its kh runs of kw * c values is one
    contiguous run of the input. The GEMMs read the stored (f, c, kh, kw)
    weight in that order, and the weight gradient is folded back to the
    stored layout. Conv1D runs it on (N, C, 1, L) views; its column order
    (1, k, c) equals (k, c).
    """

    @staticmethod
    def _im2col(a, kh, kw):
        """The stride-1 kh x kw windows of (N, C, H, W) a, one (kh, kw, c) row each."""
        n, c, h, w = a.shape
        s0, s1, s2, s3 = a.strides
        win = np.lib.stride_tricks.as_strided(
            a, (n, h - kh + 1, w - kw + 1, kh, kw, c), (s0, s2, s3, s2, s3, s1))
        cols = np.empty(win.shape)
        by_rows(lambda lo, hi: np.copyto(cols[lo:hi], win[lo:hi]), win)
        return cols.reshape(-1, kh * kw * c)

    def _correlate(self, x, weight, train):
        self._saved = None
        f, c, kh, kw = weight.shape
        n, _, h, w = x.shape
        oh, ow = h - kh + 1, w - kw + 1
        cols = self._im2col(x, kh, kw)
        out = matmul(cols, weight.transpose(0, 2, 3, 1).reshape(f, -1).T)
        by_rows(lambda lo, hi: np.add(out[lo:hi], self.bias, out=out[lo:hi]), out)
        self._saved = (cols,) if train else None
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def _correlate_backward(self, grad, weight):
        f, c, kh, kw = weight.shape
        n, _, oh, ow = grad.shape
        h, w = oh + kh - 1, ow + kw - 1
        gmat = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(n * oh * ow, f)
        # The columns are freed here, before the input gradient's are gathered.
        dw = (gmat.T @ self._take()[0]).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        self._dw = np.ascontiguousarray(dw).reshape(self.weight.shape)
        self._db = gmat.sum(axis=0)
        if not self.needs_input_grad:
            return None
        gp = np.zeros((n, oh + 2 * (kh - 1), ow + 2 * (kw - 1), f)).transpose(0, 3, 1, 2)
        inner = gp[:, :, kh - 1 : kh - 1 + oh, kw - 1 : kw - 1 + ow]
        by_rows(lambda lo, hi: np.copyto(inner[lo:hi], grad[lo:hi]), grad)
        cols_g = self._im2col(gp, kh, kw)
        rot = weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * f, c)
        return matmul(cols_g, rot).reshape(n, h, w, c).transpose(0, 3, 1, 2)


class Conv1D(_Conv):
    """The one-row _Conv on (N, C, L) inputs, with a stored (filters,
    channels, kernel) weight; its columns hold each window in (k, c) order."""

    name = "conv1d"

    def forward(self, x, train, rng=None):
        return self._correlate(x[:, :, None, :], self.weight[:, :, None, :], train)[:, :, 0, :]

    def backward(self, grad):
        dx = self._correlate_backward(grad[:, :, None, :], self.weight[:, :, None, :])
        return None if dx is None else dx[:, :, 0, :]


class Conv2D(_Conv):
    name = "conv2d"  # weight (filters, channels, kh, kw)

    def forward(self, x, train, rng=None):
        return self._correlate(x, self.weight, train)

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
    dx[:, :, i::wh, j::ww] of one dx; rows and columns past the last whole
    window get zeros; dx is allocated in the input's memory order. An
    inference forward runs the same fold and makes no masks. MaxPool1D is
    the (1, window) case on (N, C, 1, L) views.
    """

    def __init__(self, window: int):
        self.window = window

    def _pool(self, x, wh, ww, train):
        """The pooled x; with train, also saves the masks for the backward."""
        self._saved = None
        n, c, h, w = x.shape
        oh, ow = h // wh, w // ww
        xr = x[:, :, : oh * wh, : ow * ww].reshape(n, c, oh, wh, ow, ww)
        cells = [xr[:, :, :, i, :, j] for i, j in np.ndindex(wh, ww)]
        out = np.empty_like(cells[0])  # in the input's memory order
        masks = [np.empty_like(out, dtype=bool) for _ in cells] if train else []
        free = np.empty_like(out, dtype=bool) if train else None

        def fill(lo, hi):
            o = out[lo:hi]
            # A 1-cell window pools to its cell: the max of a cell and itself.
            np.maximum(cells[0][lo:hi], cells[1 % len(cells)][lo:hi], out=o)
            for cell in cells[2:]:
                np.maximum(o, cell[lo:hi], out=o)
            for k, (cell, mask) in enumerate(zip(cells, masks)):
                m = mask[lo:hi]
                np.equal(cell[lo:hi], o, out=m)
                if k == 0:
                    f = free[lo:hi]
                    np.logical_not(m, out=f)
                else:
                    m &= f
                    f ^= m  # m lies inside f: this clears m's cells from f

        by_rows(fill, x)
        if train:
            in_axes = np.argsort(np.abs(x.strides), kind="stable")[::-1]  # outermost first
            self._saved = (masks, (h, w), in_axes)
        return out

    def _pool_backward(self, grad, wh, ww):
        n, c, oh, ow = grad.shape
        masks, (h, w), in_axes = self._take()
        dx = np.empty(np.array((n, c, h, w))[in_axes]).transpose(np.argsort(in_axes))

        def fill(lo, hi):
            dx[lo:hi, :, oh * wh :] = 0.0  # past the last whole window
            dx[lo:hi, :, :, ow * ww :] = 0.0
            for (i, j), m in zip(np.ndindex(wh, ww), masks):
                _select(m[lo:hi], grad[lo:hi], dx[lo:hi, :, i : oh * wh : wh, j : ow * ww : ww])

        by_rows(fill, dx)
        return dx


class MaxPool1D(_MaxPool):
    name = "maxpool1d"

    def forward(self, x, train, rng=None):
        return self._pool(x[:, :, None, :], 1, self.window, train)[:, :, 0, :]

    def backward(self, grad):
        return self._pool_backward(grad[:, :, None, :], 1, self.window)[:, :, 0, :]


class MaxPool2D(_MaxPool):
    name = "maxpool2d"

    def forward(self, x, train, rng=None):
        return self._pool(x, self.window, self.window, train)

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
        probs = softmax(self._affine(x, train))
        self._saved = (x, probs) if train else None
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
