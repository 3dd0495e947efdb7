"""Squeeze-and-excitation operators with verified analytic gradients.

There are two SE stages, named by the (C, F, T) axes they squeeze. Each is
one operator: squeeze the map to means over its axes, excite the means
through a d -> d/r -> d bottleneck (ReLU, then sigmoid), and gate the map by
the result. Channel SE averages over frequency and time, so each channel
gets one gate; frequency SE averages over channels, so each frequency bin
gets a gate recomputed independently for every time frame. The
multi-dimensional block runs frequency first, then channel. float32
input is read in place and widened exactly where it is read; all arithmetic
is float64, so the central-difference checks in gradcheck are meaningful.
The backward pass is the exact gradient of the forward, including the paths
through the squeeze means and the gates. Each backward runs the forward once
and reads its intermediates (means, hidden activations, gates) from the
forward's cache, so every squeeze and bottleneck is computed once per call.
No call writes into an array it was given.

Results of 1 MiB or more (the output y and the input gradient grad_x) are
views of buffers each thread keeps for reuse. A buffer is handed out again
only once nothing outside the pool refers to it: not the result, a slice or
view of it, nor a memoryview of it (a raw data address is no reference).
So a training loop that drops each step's results stops faulting their
pages in afresh, and a result that is still held keeps its values. A
thread keeps at most four such buffers and 32 MiB; a result that does not
fit is a fresh array, as is every result where the interpreter cannot
count references.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SeldkitError, ShapeMismatch


@dataclass(frozen=True)
class SeParams:
    """Excitation bottleneck weights: d -> d/r -> d.

    w1 is (d/r, d), b1 (d/r,), w2 (d, d/r), b2 (d,). The reduction ratio r
    must divide the squeezed dimension d.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if w1.ndim != 2:
            raise ShapeMismatch(f"w1 must be 2-D, got {w1.shape}")
        hidden, d = w1.shape
        if d == 0 or hidden == 0 or d % hidden != 0:
            raise SeldkitError(
                f"w1 shape {w1.shape}: the reduction ratio must divide d"
            )
        if b1.shape != (hidden,) or w2.shape != (d, hidden) or b2.shape != (d,):
            raise ShapeMismatch(
                f"inconsistent parameter shapes: w1 {w1.shape}, b1 {b1.shape}, "
                f"w2 {w2.shape}, b2 {b2.shape}"
            )
        for arr in (w1, b1, w2, b2):
            if not np.all(np.isfinite(arr)):
                raise SeldkitError("parameters contain non-finite values")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    def as_arrays(self) -> tuple:
        return self.w1, self.b1, self.w2, self.b2


def zero_params(d: int, r: int) -> SeParams:
    """All-zero excitation: the gate sits at sigmoid(0) = 0.5 everywhere."""
    hidden = _hidden_size(d, r)
    return SeParams(np.zeros((hidden, d)), np.zeros(hidden),
                    np.zeros((d, hidden)), np.zeros(d))


def random_params(rng, d: int, r: int) -> SeParams:
    hidden = _hidden_size(d, r)
    return SeParams(
        0.5 * rng.standard_normal((hidden, d)),
        0.5 * rng.standard_normal(hidden),
        0.5 * rng.standard_normal((d, hidden)),
        0.5 * rng.standard_normal(d),
    )


# The (C, F, T) axes each stage averages over. The first axis left over is
# the gated one, of size d; each of the m cells along the rest gets its own
# excitation (m = 1 for channel SE, m = T for frequency SE).
_CHANNEL_AXES = (1, 2)
_FREQ_AXES = (0,)


def _se_forward(axes: tuple, x, p: SeParams) -> np.ndarray:
    """Gate x by an excitation of its means over axes."""
    return _gate(_se(_as_tensor3(x), p, axes))


def _se_backward(axes: tuple, x, p: SeParams, grad_y) -> tuple:
    """Exact gradients of _se_forward: (grad_x, parameter gradients)."""
    x, grad_y = _as_pair(x, grad_y)
    return _se_grad(_se(x, p, axes), p, grad_y)


channel_se_forward = partial(_se_forward, _CHANNEL_AXES)
channel_se_backward = partial(_se_backward, _CHANNEL_AXES)
freq_se_forward = partial(_se_forward, _FREQ_AXES)
freq_se_backward = partial(_se_backward, _FREQ_AXES)


def multi_dim_se_forward(x, p_freq: SeParams, p_chan: SeParams) -> np.ndarray:
    """Frequency SE first, channel SE second."""
    inner = _gate(_se(_as_tensor3(x), p_freq, _FREQ_AXES))
    return _gate(_se(inner, p_chan, _CHANNEL_AXES), out=inner)


def multi_dim_se_backward(x, p_freq: SeParams, p_chan: SeParams,
                          grad_y) -> tuple:
    """Exact gradients of multi_dim_se_forward: (grad_x, frequency
    parameter gradients, channel parameter gradients)."""
    x, grad_y = _as_pair(x, grad_y)
    freq_cache = _se(x, p_freq, _FREQ_AXES)
    chan_cache = _se(_gate(freq_cache), p_chan, _CHANNEL_AXES)
    # the channel einsum is the gated map's last reader, so grad_inner
    # overwrites it and the whole backward holds one map
    grad_inner, grad_p_chan = _se_grad(chan_cache, p_chan, grad_y,
                                       out=chan_cache[0])
    del chan_cache
    grad_x, grad_p_freq = _se_grad(freq_cache, p_freq, grad_inner, out=grad_inner)
    return grad_x, grad_p_freq, grad_p_chan


def gradcheck(forward, backward, x, params) -> float:
    """Compare analytic gradients against central differences.

    params is a sequence of SeParams, one per stage, called the way the SE
    blocks are: forward(x, *params) must return a tensor y and
    backward(x, *params, grad_y) must return (grad_x, *param_grads), one
    SeParams of gradients per stage. The scalar probe loss is
    L = sum(y**2). Copies of x and the parameter arrays are perturbed by
    +/- 1e-5, x first, then each stage's w1, b1, w2, b2 in turn. Each
    entry's |analytic - numeric| is divided by its allowance: 1e-6 of the
    larger of the two, plus 64 ulps of the larger probe loss over the step,
    the rounding a sum of squares carries into the difference quotient.
    Returns the worst ratio, so a correct gradient reads at most 1 (nan if
    any gradient or loss is nan).
    """
    x = np.array(x, dtype=np.float64)
    params = [SeParams(*(a.copy() for a in p.as_arrays())) for p in params]
    arrays = [x] + [a for p in params for a in p.as_arrays()]

    grad_x, *param_grads = backward(x, *params, 2.0 * forward(x, *params))
    analytic = [np.asarray(grad_x)] + [a for g in param_grads for a in g.as_arrays()]

    worst, step = 0.0, 1e-5
    for arr, grads in zip(arrays, analytic, strict=True):
        if grads.shape != arr.shape:
            raise ShapeMismatch(
                f"backward returned gradient of shape {grads.shape} "
                f"for an array of shape {arr.shape}"
            )
        flat = arr.reshape(-1)
        for i, a in enumerate(grads.reshape(-1).tolist()):
            original = flat[i]
            flat[i] = original + step
            loss_hi = float((forward(x, *params) ** 2).sum())
            flat[i] = original - step
            loss_lo = float((forward(x, *params) ** 2).sum())
            flat[i] = original
            numeric = (loss_hi - loss_lo) / (2.0 * step)
            allowed = (1e-6 * max(abs(a), abs(numeric))
                       + 64 * np.finfo(float).eps * max(loss_hi, loss_lo) / step)
            # allowed is 0 only where both losses and both gradients are;
            # np.maximum, unlike max, keeps a nan
            worst = np.maximum(worst, abs(a - numeric) / allowed if a != numeric else 0.0)
    return float(worst)


# Blocks `seldkit gradcheck` verifies: forward(x, *params),
# backward(x, *params, grad_y) and the axes each parameter set's stage squeezes.
GRADCHECK_BLOCKS = {
    "channel": (channel_se_forward, channel_se_backward, (_CHANNEL_AXES,)),
    "freq": (freq_se_forward, freq_se_backward, (_FREQ_AXES,)),
    "multi": (multi_dim_se_forward, multi_dim_se_backward, (_FREQ_AXES, _CHANNEL_AXES)),
}


def gradcheck_params(rng, block: str, shape, r: int) -> list:
    """Random SeParams for each stage of GRADCHECK_BLOCKS[block] on a
    (C, F, T) shape, frequency first."""
    return [random_params(rng, shape[_gated_axis(axes)], r)
            for axes in GRADCHECK_BLOCKS[block][2]]


def _hidden_size(d: int, r: int) -> int:
    if r < 1 or d < 1 or d % r != 0:
        raise SeldkitError(f"reduction ratio {r} does not divide d={d}")
    return d // r


def _gated_axis(axes: tuple) -> int:
    return min(set(range(3)) - set(axes))


def _se(x: np.ndarray, p: SeParams, axes: tuple) -> tuple:
    """Squeeze the (C, F, T) x to float64 (d, m) means z and run the
    bottleneck on them: returns the cache _gate and _se_grad read (x, the
    squeezed axes, the shape that lifts (d, m) back onto x, z, a1, h and
    the gates s). The gated map itself is left to _gate, since a backward
    pass needs it only where a further SE stage reads it."""
    gated = _gated_axis(axes)
    if p.d != x.shape[gated]:
        raise ShapeMismatch(
            f"params expect d={p.d}, input has {'CFT'[gated]}={x.shape[gated]}"
        )
    gate_shape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    z = x.mean(axis=axes, dtype=np.float64).reshape(p.d, -1)
    a1 = p.w1 @ z + p.b1[:, None]
    h = np.maximum(a1, 0.0)
    s = _sigmoid(p.w2 @ h + p.b2[:, None])
    return x, axes, gate_shape, z, a1, h, s


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), computed in place in a: below about -709 exp
    overflows to inf and the gate is exactly 0, like scipy's expit."""
    with np.errstate(over="ignore"):
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        return np.reciprocal(a, out=a)


def _gate(cache: tuple, out=None) -> np.ndarray:
    """The output y of the _se call that made cache: x gated by s, written
    into out if given (x itself may be out), else into a _result array."""
    x, _, gate_shape, *_, s = cache
    if out is None:
        out = _result(x.shape)
    return np.multiply(s.reshape(gate_shape), x, out=out)


def _se_grad(cache: tuple, p: SeParams, grad_y: np.ndarray, out=None) -> tuple:
    """Exact gradients of _gate(cache) from the cache and a grad_y of x's
    shape: (grad_x, parameter gradients). grad_x is written into out if
    given (grad_y itself may be out), else into a _result array."""
    x, axes, gate_shape, z, a1, h, s = cache
    kept = "".join(c for a, c in enumerate("cft") if a not in axes)
    grad_s = np.einsum(f"cft,cft->{kept}", grad_y, x,
                       dtype=np.float64).reshape(s.shape)
    grad_a2 = grad_s * s * (1.0 - s)
    grad_w2 = grad_a2 @ h.T
    grad_h = p.w2.T @ grad_a2
    grad_a1 = grad_h * (a1 > 0)
    grad_w1 = grad_a1 @ z.T
    grad_z = p.w1.T @ grad_a1

    if out is None:
        out = _result(grad_y.shape)
    grad_x = np.multiply(s.reshape(gate_shape), grad_y, out=out)
    grad_x += grad_z.reshape(gate_shape) / (x.size // s.size)
    return grad_x, SeParams(grad_w1, grad_a1.sum(axis=1),
                            grad_w2, grad_a2.sum(axis=1))


# Reusable float64 result buffers, per thread (see the module docstring).
_POOL_MIN_BYTES = 1 << 20
_POOL_MAX_BUFFERS = 4
_POOL_MAX_BYTES = 32 << 20


class _Pool(threading.local):
    def __init__(self):
        self.buffers = []


_pool = _Pool()


def _refcounts(buffers: list) -> list:
    return [sys.getrefcount(buf) for buf in buffers]


# What _refcounts reads for a buffer only the pool's list refers to,
# measured the way _result reads it (how many references the call itself
# adds depends on the interpreter); None turns the pool off.
_FREE_REFS = (_refcounts([np.empty(0)])[0] if hasattr(sys, "getrefcount")
              else None)


def _result(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of shape: a view of a pooled buffer
    nothing else refers to, else a fresh array, pooled if it fits."""
    nbytes = 8 * math.prod(shape)
    if _FREE_REFS is None or nbytes < _POOL_MIN_BYTES:
        return np.empty(shape)
    buffers = _pool.buffers
    for i, refs in enumerate(_refcounts(buffers)):
        if refs == _FREE_REFS and buffers[i].shape == shape:
            buffers.append(buffers.pop(i))
            return buffers[-1].view()
    buf = np.empty(shape)
    if nbytes > _POOL_MAX_BYTES:
        return buf
    # forgetting the oldest buffers is safe: one still held simply stops
    # being reused
    buffers.append(buf)
    while (len(buffers) > _POOL_MAX_BUFFERS
           or sum(b.nbytes for b in buffers) > _POOL_MAX_BYTES):
        del buffers[0]
    return buf.view()


def _as_tensor3(x) -> np.ndarray:
    """x as a float32 or float64 array; float32 is kept as it is."""
    arr = np.asarray(x)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a (C, F, T) tensor, got shape {arr.shape}")
    return arr


def _as_pair(x, grad_y) -> tuple:
    x, grad_y = _as_tensor3(x), _as_tensor3(grad_y)
    if grad_y.shape != x.shape:
        raise ShapeMismatch(f"grad shape {grad_y.shape} != input {x.shape}")
    return x, grad_y
