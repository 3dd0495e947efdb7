"""Squeeze-and-excitation operators with verified analytic gradients.

Every SE variant is one operator over a (C, F, T) map: squeeze it to means
over some axes, excite the means through a d -> d/r -> d bottleneck (ReLU,
then sigmoid), and gate the map by the result. The variants differ only in
the axes they squeeze. Channel SE averages over frequency and time, so each
channel gets one gate; frequency SE averages over channels, so each
frequency bin gets a gate recomputed independently for every time frame.
The multi-dimensional block runs frequency first, then channel. float32
input is read in place and widened exactly where it is read; all arithmetic
is float64, so the central-difference checks in gradcheck are meaningful.
The backward pass is the exact gradient of the forward, including the paths
through the squeeze means and the gates. Each backward runs the forward once
and reads its intermediates (means, hidden activations, gates) from the
forward's cache, so every squeeze and bottleneck is computed once per call.
No call writes into an array it was given.
"""

from __future__ import annotations

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


# The (C, F, T) axes each variant averages over. The first axis left over is
# the gated one, of size d; each of the m cells along the rest gets its own
# excitation (m = 1 for channel SE, m = T for frequency SE).
_SQUEEZE_AXES = {"channel": (1, 2), "freq": (0,)}


def se_forward(x, p: SeParams, which: str) -> np.ndarray:
    """Gate x by an excitation of its means over the axes that variant
    `which` ("channel" or "freq") squeezes."""
    return _gate(_se(_as_tensor3(x), p, which))


def se_backward(x, p: SeParams, grad_y, which: str) -> tuple:
    """Exact gradients of se_forward: (grad_x, parameter gradients)."""
    x = _as_tensor3(x)
    grad_y = _as_grad(grad_y, x)
    return _se_grad(_se(x, p, which), p, grad_y)


channel_se_forward = partial(se_forward, which="channel")
channel_se_backward = partial(se_backward, which="channel")
freq_se_forward = partial(se_forward, which="freq")
freq_se_backward = partial(se_backward, which="freq")


def multi_dim_se_forward(x, p_freq: SeParams, p_chan: SeParams) -> np.ndarray:
    """Frequency SE first, channel SE second."""
    inner = _gate(_se(_as_tensor3(x), p_freq, "freq"))
    return _gate(_se(inner, p_chan, "channel"), out=inner)


def multi_dim_se_backward(x, p_freq: SeParams, p_chan: SeParams,
                          grad_y) -> tuple:
    """Exact gradients of multi_dim_se_forward: (grad_x, frequency
    parameter gradients, channel parameter gradients)."""
    x = _as_tensor3(x)
    grad_y = _as_grad(grad_y, x)
    freq_cache = _se(x, p_freq, "freq")
    chan_cache = _se(_gate(freq_cache), p_chan, "channel")
    grad_inner, grad_p_chan = _se_grad(chan_cache, p_chan, grad_y)
    del chan_cache  # frees the gated map before the frequency stage's temporaries
    grad_x, grad_p_freq = _se_grad(freq_cache, p_freq, grad_inner, out=grad_inner)
    return grad_x, grad_p_freq, grad_p_chan


def gradcheck(forward, backward, x, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central differences.

    params is a sequence of SeParams, one per stage, called the way the SE
    blocks are: forward(x, *params) must return a tensor y and
    backward(x, *params, grad_y) must return (grad_x, *param_grads), one
    SeParams of gradients per stage. The scalar probe loss is
    L = sum(y**2). Copies of x and the parameter arrays are perturbed, x
    first, then each stage's w1, b1, w2, b2 in turn. Returns the max over
    all input and parameter entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < eps < 1e-3:
        raise SeldkitError(f"eps {eps} outside (0, 1e-3)")
    x = np.array(x, dtype=np.float64)
    params = [SeParams(*(a.copy() for a in p.as_arrays())) for p in params]
    arrays = [x] + [a for p in params for a in p.as_arrays()]

    y = forward(x, *params)
    grad_x, *param_grads = backward(x, *params, 2.0 * y)
    analytic = [np.asarray(grad_x)] + [a for g in param_grads for a in g.as_arrays()]

    worst = 0.0
    for which, arr in enumerate(arrays):
        grads = analytic[which]
        if grads.shape != arr.shape:
            raise ShapeMismatch(
                f"backward returned gradient of shape {grads.shape} "
                f"for an array of shape {arr.shape}"
            )
        flat = arr.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            loss_hi = float((forward(x, *params) ** 2).sum())
            flat[i] = original - eps
            loss_lo = float((forward(x, *params) ** 2).sum())
            flat[i] = original
            numeric = (loss_hi - loss_lo) / (2.0 * eps)
            a = float(grads.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


# Blocks `seldkit gradcheck` verifies: forward(x, *params),
# backward(x, *params, grad_y) and the variant each parameter set is for.
GRADCHECK_BLOCKS = {
    "channel": (channel_se_forward, channel_se_backward, ("channel",)),
    "freq": (freq_se_forward, freq_se_backward, ("freq",)),
    "multi": (multi_dim_se_forward, multi_dim_se_backward, ("freq", "channel")),
}


def gradcheck_params(rng, block: str, shape, r: int) -> list:
    """Random SeParams for each stage of GRADCHECK_BLOCKS[block] on a
    (C, F, T) shape, frequency first."""
    return [random_params(rng, shape[_gated_axis(which)], r)
            for which in GRADCHECK_BLOCKS[block][2]]


def _hidden_size(d: int, r: int) -> int:
    if r < 1 or d < 1 or d % r != 0:
        raise SeldkitError(f"reduction ratio {r} does not divide d={d}")
    return d // r


def _squeeze_axes(which: str) -> tuple:
    try:
        return _SQUEEZE_AXES[which]
    except KeyError:
        raise SeldkitError(f"unknown SE variant {which!r}") from None


def _gated_axis(which: str) -> int:
    return min(set(range(3)) - set(_squeeze_axes(which)))


def _se(x: np.ndarray, p: SeParams, which: str) -> tuple:
    """Squeeze the (C, F, T) x to float64 (d, m) means z and run the
    bottleneck on them: returns the cache _gate and _se_grad read (x, the
    squeezed axes, the shape that lifts (d, m) back onto x, z, a1, h and
    the gates s). The gated map itself is left to _gate, since a backward
    pass needs it only where a further SE stage reads it."""
    axes = _squeeze_axes(which)
    gated = _gated_axis(which)
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
    into out if given (x itself may be out)."""
    x, _, gate_shape, *_, s = cache
    return np.multiply(s.reshape(gate_shape), x, out=out)


def _se_grad(cache: tuple, p: SeParams, grad_y: np.ndarray, out=None) -> tuple:
    """Exact gradients of _gate(cache) from the cache and a grad_y of x's
    shape: (grad_x, parameter gradients). grad_x is written into out if
    given (grad_y itself may be out)."""
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

    grad_x = np.multiply(s.reshape(gate_shape), grad_y, out=out)
    grad_x += grad_z.reshape(gate_shape) / (x.size // s.size)
    return grad_x, SeParams(grad_w1, grad_a1.sum(axis=1),
                            grad_w2, grad_a2.sum(axis=1))


def _as_tensor3(x) -> np.ndarray:
    """x as a float32 or float64 array; float32 is kept as it is."""
    arr = np.asarray(x)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a (C, F, T) tensor, got shape {arr.shape}")
    return arr


def _as_grad(grad_y, x: np.ndarray) -> np.ndarray:
    grad_y = _as_tensor3(grad_y)
    if grad_y.shape != x.shape:
        raise ShapeMismatch(f"grad shape {grad_y.shape} != input {x.shape}")
    return grad_y
