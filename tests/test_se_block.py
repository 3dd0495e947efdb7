"""Tests for the squeeze-and-excitation forwards, backwards, and gradcheck.

The all-zero parameter point doubles as a closed-form oracle: every gate
sits at sigmoid(0) = 0.5, so the forward is exactly x/2, and because
w2 = 0 cuts every path from w1/b1/w2 to the loss, those parameter
gradients must vanish identically, analytic and numeric alike.
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import helpers
import oracles
from seldkit import (
    SeParams,
    gradcheck,
    make_rng,
    multi_dim_se_backward,
    multi_dim_se_forward,
    zero_params,
)
from seldkit import se_block
from seldkit.errors import SeldkitError, ShapeMismatch
from seldkit.se_block import (
    GRADCHECK_BLOCKS,
    channel_se_backward,
    channel_se_forward,
    freq_se_backward,
    freq_se_forward,
    gradcheck_params,
    random_params,
    se_backward,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def loop_channel_se(x, p):
    """Scalar-loop recomputation of the channel SE forward."""
    n_c, n_f, n_t = x.shape
    hidden = p.b1.shape[0]
    z = [x[c].sum() / (n_f * n_t) for c in range(n_c)]
    h = [
        max(sum(p.w1[j, c] * z[c] for c in range(n_c)) + p.b1[j], 0.0)
        for j in range(hidden)
    ]
    y = np.zeros_like(x)
    for c in range(n_c):
        a2 = sum(p.w2[c, j] * h[j] for j in range(hidden)) + p.b2[c]
        s = 1.0 / (1.0 + math.exp(-a2))
        y[c] = s * x[c]
    return y


def loop_freq_se(x, p):
    """Scalar-loop recomputation of the frequency SE forward."""
    n_c, n_f, n_t = x.shape
    hidden = p.b1.shape[0]
    y = np.zeros_like(x)
    for t in range(n_t):
        z = [sum(x[c, f, t] for c in range(n_c)) / n_c for f in range(n_f)]
        h = [
            max(sum(p.w1[j, f] * z[f] for f in range(n_f)) + p.b1[j], 0.0)
            for j in range(hidden)
        ]
        for f in range(n_f):
            a2 = sum(p.w2[f, j] * h[j] for j in range(hidden)) + p.b2[f]
            s = 1.0 / (1.0 + math.exp(-a2))
            y[:, f, t] = s * x[:, f, t]
    return y


class TestSeParams:
    def test_shapes_and_d(self):
        p = zero_params(6, 3)
        assert p.w1.shape == (2, 6)
        assert p.b1.shape == (2,)
        assert p.w2.shape == (6, 2)
        assert p.b2.shape == (6,)
        assert p.d == 6
        assert len(p.as_arrays()) == 4

    def test_ratio_must_divide(self):
        with pytest.raises(SeldkitError):
            zero_params(6, 4)
        with pytest.raises(SeldkitError):
            zero_params(3, 2)
        with pytest.raises(SeldkitError):
            SeParams(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))

    def test_inconsistent_shapes(self):
        with pytest.raises(ShapeMismatch):
            SeParams(np.zeros((2, 4)), np.zeros(3), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ShapeMismatch):
            SeParams(np.zeros((2, 4)), np.zeros(2), np.zeros((2, 4)), np.zeros(4))
        with pytest.raises(ShapeMismatch):
            SeParams(np.zeros(4), np.zeros(2), np.zeros((4, 2)), np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(SeldkitError):
            SeParams(np.full((2, 4), np.inf), np.zeros(2),
                     np.zeros((4, 2)), np.zeros(4))

    def test_random_params_deterministic(self):
        a = random_params(rng_for(3), 6, 2)
        b = random_params(rng_for(3), 6, 2)
        assert_array_equal(a.w1, b.w1)
        assert_array_equal(a.b2, b.b2)


class TestChannelForward:
    def test_zero_params_halve_the_input(self):
        x = rng_for(4).standard_normal((4, 6, 5))
        assert_array_equal(channel_se_forward(x, zero_params(4, 2)), 0.5 * x)

    def test_zero_input_stays_zero(self):
        p = random_params(rng_for(5), 4, 2)
        assert_array_equal(channel_se_forward(np.zeros((4, 3, 2)), p), 0.0)

    def test_matches_loop_oracle(self):
        rng = rng_for(6)
        for _ in range(5):
            x = rng.standard_normal((4, 3, 2))
            p = random_params(rng, 4, 2)
            assert_allclose(channel_se_forward(x, p), loop_channel_se(x, p),
                            rtol=1e-12, atol=1e-15)

    def test_gate_shrinks_every_cell(self):
        rng = rng_for(7)
        x = rng.standard_normal((6, 4, 3))
        y = channel_se_forward(x, random_params(rng, 6, 2))
        assert np.all(np.abs(y) <= np.abs(x))
        assert np.all(np.sign(y) == np.sign(x))

    def test_squeeze_couples_distant_cells(self):
        rng = rng_for(8)
        x = rng.standard_normal((4, 5, 6))
        p = random_params(rng, 4, 2)
        bumped = x.copy()
        bumped[0, 4, 5] += 1.0
        before = channel_se_forward(x, p)
        after = channel_se_forward(bumped, p)
        assert after[0, 0, 0] != before[0, 0, 0]

    def test_saturated_bias_passes_input_through(self):
        rng = rng_for(9)
        x = rng.standard_normal((4, 6, 5))
        p = zero_params(4, 2)
        p = SeParams(p.w1, p.b1, p.w2, np.full(4, 30.0))
        assert_allclose(channel_se_forward(x, p), x, rtol=1e-9)

    def test_extreme_pre_activations_give_exact_gates_silently(self):
        # sigmoid(800) and sigmoid(-800) round to exactly 1 and 0; exp(800)
        # overflows on the way, which must not surface as a warning
        rng = rng_for(32)
        x = rng.standard_normal((4, 3, 2))
        p = zero_params(4, 2)
        p = SeParams(p.w1, p.b1, p.w2, np.array([800.0, -800.0, 800.0, -800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = channel_se_forward(x, p)
            grad_x, grad_p = channel_se_backward(x, p, np.ones_like(x))
        assert_array_equal(y[0::2], x[0::2])
        assert_array_equal(y[1::2], 0.0)
        assert_array_equal(grad_p.b2, 0.0)
        assert_array_equal(grad_x[0::2], 1.0)
        assert_array_equal(grad_x[1::2], 0.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            channel_se_forward(np.zeros((5, 3, 2)), zero_params(4, 2))
        with pytest.raises(ShapeMismatch):
            channel_se_forward(np.zeros((4, 3)), zero_params(4, 2))


class TestFreqForward:
    def test_zero_params_halve_the_input(self):
        x = rng_for(10).standard_normal((4, 6, 5))
        assert_array_equal(freq_se_forward(x, zero_params(6, 2)), 0.5 * x)

    def test_matches_loop_oracle(self):
        rng = rng_for(11)
        for _ in range(5):
            x = rng.standard_normal((3, 4, 2))
            p = random_params(rng, 4, 2)
            assert_allclose(freq_se_forward(x, p), loop_freq_se(x, p),
                            rtol=1e-12, atol=1e-15)

    def test_frames_are_independent(self):
        rng = rng_for(12)
        x = rng.standard_normal((3, 4, 5))
        p = random_params(rng, 4, 2)
        before = freq_se_forward(x, p)
        bumped = x.copy()
        bumped[:, :, 3] += 1.0
        after = freq_se_forward(bumped, p)
        keep = [t for t in range(5) if t != 3]
        assert_array_equal(after[:, :, keep], before[:, :, keep])
        assert not np.array_equal(after[:, :, 3], before[:, :, 3])

    def test_constant_time_gives_constant_gates(self):
        rng = rng_for(13)
        frame = rng.standard_normal((3, 4, 1))
        x = np.repeat(frame, 5, axis=2)
        y = freq_se_forward(x, random_params(rng, 4, 2))
        for t in range(1, 5):
            assert_array_equal(y[:, :, t], y[:, :, 0])

    def test_gates_on_frequency_axis(self):
        with pytest.raises(ShapeMismatch):
            freq_se_forward(np.zeros((4, 5, 2)), zero_params(4, 2))
        assert freq_se_forward(np.zeros((5, 4, 2)), zero_params(4, 2)).shape == \
            (5, 4, 2)


class TestMultiDim:
    def test_composition_is_freq_then_channel(self):
        rng = rng_for(14)
        x = rng.standard_normal((4, 6, 5))
        p_freq = random_params(rng, 6, 2)
        p_chan = random_params(rng, 4, 2)
        expected = channel_se_forward(freq_se_forward(x, p_freq), p_chan)
        assert_array_equal(multi_dim_se_forward(x, p_freq, p_chan), expected)

    def test_zero_params_quarter_the_input(self):
        x = rng_for(15).standard_normal((4, 6, 5))
        out = multi_dim_se_forward(x, zero_params(6, 2), zero_params(4, 2))
        assert_array_equal(out, 0.25 * x)

    def test_float32_backward_equals_its_float64_widening(self):
        # the backward caches a float32 input as given; widening is exact,
        # so every gradient keeps the bits of the float64 input's
        rng = rng_for(18)
        x = rng.standard_normal((4, 8, 5)).astype(np.float32)
        p_freq, p_chan = random_params(rng, 8, 2), random_params(rng, 4, 2)
        grad_y = rng.standard_normal(x.shape)
        got = se_block.multi_dim_se_backward(x, p_freq, p_chan, grad_y)
        want = se_block.multi_dim_se_backward(x.astype(np.float64), p_freq,
                                              p_chan, grad_y)
        assert_array_equal(got[0], want[0])
        for g, w in zip(got[1].as_arrays() + got[2].as_arrays(),
                        want[1].as_arrays() + want[2].as_arrays()):
            assert_array_equal(g, w)


class TestBackwardBasics:
    def test_zero_upstream_gradient(self):
        rng = rng_for(16)
        x = rng.standard_normal((4, 3, 2))
        p = random_params(rng, 4, 2)
        grad_x, grad_p = channel_se_backward(x, p, np.zeros_like(x))
        assert_array_equal(grad_x, 0.0)
        for arr in grad_p.as_arrays():
            assert_array_equal(arr, 0.0)

    def test_linear_in_upstream_gradient(self):
        rng = rng_for(17)
        x = rng.standard_normal((3, 4, 2))
        p = random_params(rng, 4, 2)
        grad_y = rng.standard_normal(x.shape)
        gx1, gp1 = freq_se_backward(x, p, grad_y)
        gx2, gp2 = freq_se_backward(x, p, 2.0 * grad_y)
        assert_allclose(gx2, 2.0 * gx1, rtol=1e-12)
        for a, b in zip(gp2.as_arrays(), gp1.as_arrays()):
            assert_allclose(a, 2.0 * b, rtol=1e-12, atol=1e-15)

    def test_dispatch_matches_direct_calls(self):
        rng = rng_for(18)
        x = rng.standard_normal((4, 4, 3))
        p = random_params(rng, 4, 2)
        grad_y = rng.standard_normal(x.shape)
        for which, direct in (("channel", channel_se_backward),
                              ("freq", freq_se_backward)):
            gx_a, gp_a = se_backward(x, p, grad_y, which)
            gx_b, gp_b = direct(x, p, grad_y)
            assert_array_equal(gx_a, gx_b)
            for a, b in zip(gp_a.as_arrays(), gp_b.as_arrays()):
                assert_array_equal(a, b)
        with pytest.raises(SeldkitError):
            se_backward(x, p, grad_y, "time")

    def test_gradient_shape_validation(self):
        x = np.zeros((4, 3, 2))
        with pytest.raises(ShapeMismatch):
            channel_se_backward(x, zero_params(4, 2), np.zeros((4, 3, 3)))
        with pytest.raises(ShapeMismatch):
            freq_se_backward(x, zero_params(3, 3), np.zeros((4, 3, 3)))
        # the gradient is checked before any forward work, so the
        # frequency params' wrong d (4 for F = 3) is never reached
        with pytest.raises(ShapeMismatch, match="grad shape"):
            multi_dim_se_backward(x, zero_params(4, 2), zero_params(4, 2),
                                  np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_multi_backward_chains_both_blocks(self, dtype):
        rng = rng_for(19)
        x = rng.standard_normal((4, 6, 5)).astype(dtype)
        p_freq = random_params(rng, 6, 2)
        p_chan = random_params(rng, 4, 2)
        grad_y = rng.standard_normal(x.shape)
        grad_x, gp_freq, gp_chan = multi_dim_se_backward(x, p_freq, p_chan, grad_y)
        inner = freq_se_forward(x, p_freq)
        grad_inner, expect_chan = channel_se_backward(inner, p_chan, grad_y)
        expect_x, expect_freq = freq_se_backward(x, p_freq, grad_inner)
        assert_array_equal(grad_x, expect_x)
        for a, b in zip(gp_freq.as_arrays(), expect_freq.as_arrays()):
            assert_array_equal(a, b)
        for a, b in zip(gp_chan.as_arrays(), expect_chan.as_arrays()):
            assert_array_equal(a, b)

    def test_multi_backward_excites_each_variant_once(self, monkeypatch):
        # the backward reads the forward's cached gates, so each bottleneck
        # ends in exactly one sigmoid: (6, 5) for frequency, (4, 1) for channel
        shapes = []
        sigmoid = se_block._sigmoid
        monkeypatch.setattr(se_block, "_sigmoid",
                            lambda a: shapes.append(a.shape) or sigmoid(a))
        rng = rng_for(25)
        x = rng.standard_normal((4, 6, 5))
        multi_dim_se_backward(x, random_params(rng, 6, 2),
                              random_params(rng, 4, 2), x)
        assert sorted(shapes) == [(4, 1), (6, 5)]


class TestAgainstUnfusedReference:
    # the benchmark's loader shape and ratios, then the gradcheck shape
    CASES = [((7, 200, 400), 4, 1), ((4, 6, 5), 2, 2)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape, r_freq, r_chan", CASES)
    def test_outputs_and_gradients_agree(self, dtype, shape, r_freq, r_chan):
        # einsum's summation order and the in-place sigmoid move the last
        # bits; an entry where grad_x cancels to near zero is compared at
        # the scale of its array
        rng = rng_for(30)
        x = rng.standard_normal(shape).astype(dtype)
        grad_y = rng.standard_normal(shape).astype(dtype)
        p_freq = random_params(rng, shape[1], r_freq)
        p_chan = random_params(rng, shape[0], r_chan)
        y, grad_x, g_freq, g_chan = oracles.unfused_multi_dim_se(
            x, p_freq, p_chan, grad_y)
        want = [y, grad_x, *g_freq, *g_chan]
        grad_x, g_freq, g_chan = multi_dim_se_backward(x, p_freq, p_chan, grad_y)
        got = [multi_dim_se_forward(x, p_freq, p_chan), grad_x,
               *g_freq.as_arrays(), *g_chan.as_arrays()]
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.float64
            assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.fixture
def empty_pool():
    se_block._pool.buffers.clear()
    yield se_block._pool.buffers
    se_block._pool.buffers.clear()


def loader_step_inputs(seed):
    """The benchmark's loader shape and ratios, float32 as read from disk."""
    rng = rng_for(seed)
    x = rng.standard_normal((7, 200, 400)).astype(np.float32)
    return x, random_params(rng, 200, 4), random_params(rng, 7, 1)


class TestSePathMemory:
    def test_float32_step_allocates_few_tensors(self, empty_pool):
        # one (7, 200, 400) float64 tensor is 4.3 MiB: with nothing to
        # reuse, the forward and the backward each allocate one, next to
        # the frequency stage's (F, T) temporaries (two maps read 10.1);
        # float32 input is never widened whole
        x, p_freq, p_chan = loader_step_inputs(31)
        grad_y = multi_dim_se_forward(x, p_freq, p_chan)
        peak = helpers.traced_peak_mib
        empty_pool.clear()
        assert peak(multi_dim_se_forward, x, p_freq, p_chan) <= 6.5
        empty_pool.clear()
        assert peak(multi_dim_se_backward, x, p_freq, p_chan, grad_y) <= 9.0

    def test_steady_step_allocates_no_tensor(self, empty_pool):
        # once a step's results are dropped, the next step writes into
        # their buffers: what is left is the temporaries, about 4.4 MiB
        x, p_freq, p_chan = loader_step_inputs(32)

        def step():
            y = multi_dim_se_forward(x, p_freq, p_chan)
            multi_dim_se_backward(x, p_freq, p_chan, y)

        step()
        y = multi_dim_se_forward(x, p_freq, p_chan)
        peak = helpers.traced_peak_mib
        assert peak(multi_dim_se_backward, x, p_freq, p_chan, y) <= 6.5
        del y
        assert peak(step) <= 6.5


class TestResultPool:
    def test_calibrated_at_import(self):
        assert isinstance(se_block._FREE_REFS, int)

    def test_dropped_result_buffer_is_reused(self, empty_pool):
        x, p_freq, p_chan = loader_step_inputs(40)
        y = multi_dim_se_forward(x, p_freq, p_chan)
        want, address = y.copy(), y.ctypes.data
        del y
        y = multi_dim_se_forward(x, p_freq, p_chan)
        assert y.ctypes.data == address
        assert [np.shares_memory(y, b) for b in empty_pool] == [True]
        assert_array_equal(y, want)

    def test_held_result_keeps_its_buffer_and_values(self, empty_pool):
        x, p_freq, p_chan = loader_step_inputs(41)
        held = multi_dim_se_forward(x, p_freq, p_chan)
        want = held.copy()
        later = [multi_dim_se_forward(x * k, p_freq, p_chan) for k in (2, 3)]
        later.append(multi_dim_se_backward(x, p_freq, p_chan, x)[0])
        for y in later:
            assert not np.shares_memory(y, held)
        assert_array_equal(held, want)

    @pytest.mark.parametrize("keep", [lambda y: y[0], memoryview,
                                      lambda y: y.reshape(-1)[::2]])
    def test_a_view_keeps_the_buffer_out_of_the_pool(self, empty_pool, keep):
        x, p_freq, p_chan = loader_step_inputs(42)
        y = multi_dim_se_forward(x, p_freq, p_chan)
        kept = keep(y)
        want = np.array(kept)
        del y
        for k in (2, 3):
            y = multi_dim_se_forward(x * k, p_freq, p_chan)
            assert not np.shares_memory(y, np.asarray(kept))
        assert_array_equal(np.asarray(kept), want)

    def test_threads_get_disjoint_buffers(self, empty_pool):
        # more threads than cores, switching often: each holds one result
        # while it makes the next, and every result must keep its values
        rng = rng_for(43)
        x = rng.standard_normal((7, 200, 200)).astype(np.float32)
        p_freq, p_chan = random_params(rng, 200, 4), random_params(rng, 7, 1)
        n = 4
        want = [multi_dim_se_forward(x * (k + 1), p_freq, p_chan).copy()
                for k in range(n)]
        barrier = threading.Barrier(n, timeout=60)
        addresses = [set() for _ in range(n)]
        errors = []

        def work(k):
            try:
                held = multi_dim_se_forward(x * (k + 1), p_freq, p_chan)
                for _ in range(6):
                    y = multi_dim_se_forward(x * (k + 1), p_freq, p_chan)
                    addresses[k].update((y.ctypes.data, held.ctypes.data))
                    assert_array_equal(held, want[k])
                    assert_array_equal(y, want[k])
                    held = y
                barrier.wait()  # every thread, and so every pool, alive
            except Exception as exc:
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        for k in range(n):
            assert len(addresses[k]) == 2
            for other in addresses[k + 1:]:
                assert not addresses[k] & other

    def test_retained_bytes_stay_under_the_budget(self, empty_pool):
        # channel SE over (7, 64, T): 3,584 result bytes per frame
        p = random_params(rng_for(44), 7, 1)
        for t in (290, 300, 600, 1200, 2400, 4800, 9000, 300, 9400):
            x = np.ones((7, 64, t), dtype=np.float32)
            y = channel_se_forward(x, p)
            assert len(empty_pool) <= se_block._POOL_MAX_BUFFERS
            assert sum(b.nbytes for b in empty_pool) <= se_block._POOL_MAX_BYTES
            pooled = any(np.shares_memory(y, b) for b in empty_pool)
            assert pooled == (se_block._POOL_MIN_BYTES <= y.nbytes
                              <= se_block._POOL_MAX_BYTES)
            del y

    def test_no_pool_without_reference_counts(self, empty_pool, monkeypatch):
        monkeypatch.setattr(se_block, "_FREE_REFS", None)
        x, p_freq, p_chan = loader_step_inputs(45)
        y = multi_dim_se_forward(x, p_freq, p_chan)
        multi_dim_se_backward(x, p_freq, p_chan, y)
        assert empty_pool == []

    def test_grad_x_never_shares_memory_with_grad_y(self, empty_pool):
        x, p_freq, p_chan = loader_step_inputs(46)
        grad_y = multi_dim_se_forward(x, p_freq, p_chan)
        grad_x = multi_dim_se_backward(x, p_freq, p_chan, grad_y)[0]
        assert not np.shares_memory(grad_x, grad_y)
        for which, p in (("freq", p_freq), ("channel", p_chan)):
            grad_x = se_backward(x, p, grad_y, which)[0]
            assert not np.shares_memory(grad_x, grad_y)
        # a grad_y only the call refers to is not handed out mid-call
        want = multi_dim_se_backward(x, p_freq, p_chan, grad_y.copy())
        del grad_x, grad_y
        got = multi_dim_se_backward(x, p_freq, p_chan,
                                    multi_dim_se_forward(x, p_freq, p_chan))
        for a, b in zip([got[0], *got[1].as_arrays(), *got[2].as_arrays()],
                        [want[0], *want[1].as_arrays(), *want[2].as_arrays()]):
            assert_array_equal(a, b)


class TestInputsUntouched:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_no_call_writes_into_its_arguments(self, dtype):
        rng = rng_for(33)
        x = rng.standard_normal((4, 6, 5)).astype(dtype)
        grad_y = rng.standard_normal(x.shape).astype(dtype)
        p_freq, p_chan = random_params(rng, 6, 2), random_params(rng, 4, 2)
        args = [x, grad_y, *p_freq.as_arrays(), *p_chan.as_arrays()]
        before = [a.copy() for a in args]
        calls = [
            lambda: multi_dim_se_forward(x, p_freq, p_chan),
            lambda: multi_dim_se_backward(x, p_freq, p_chan, grad_y),
            lambda: multi_dim_se_backward(x, p_freq, p_chan, x),
            lambda: channel_se_forward(x, p_chan),
            lambda: channel_se_backward(x, p_chan, grad_y),
            lambda: freq_se_forward(x, p_freq),
            lambda: freq_se_backward(x, p_freq, grad_y),
        ]
        for call in calls:
            call()
            for a, b in zip(args, before):
                assert a.dtype == b.dtype
                assert_array_equal(a, b)


class TestGradcheck:
    def test_zero_params_pass(self):
        rng = rng_for(20)
        x = rng.standard_normal((4, 6, 5))
        assert gradcheck(channel_se_forward, channel_se_backward, x,
                         [zero_params(4, 2)]) < 1e-6
        assert gradcheck(freq_se_forward, freq_se_backward, x,
                         [zero_params(6, 2)]) < 1e-6
        assert gradcheck(multi_dim_se_forward, multi_dim_se_backward, x,
                         [zero_params(6, 2), zero_params(4, 2)]) < 1e-6

    def test_zero_params_kill_the_parameter_paths(self):
        # w2 = 0 disconnects w1/b1/w2 from the loss, so their analytic
        # gradients are exact zeros and even a +/- eps nudge leaves the
        # loss bit-identical
        rng = rng_for(24)
        x = rng.standard_normal((4, 6, 5))
        p = zero_params(4, 2)
        y = channel_se_forward(x, p)
        _, grad_p = channel_se_backward(x, p, 2.0 * y)
        for arr in (grad_p.w1, grad_p.b1, grad_p.w2):
            assert_array_equal(arr, 0.0)
        loss = float((y ** 2).sum())
        # with w2 still zero, the excitation input can move freely
        nudged = SeParams(p.w1 + 1e-5, p.b1 - 1e-5, p.w2, p.b2)
        assert float((channel_se_forward(x, nudged) ** 2).sum()) == loss
        # with a1 = 0 the hidden layer is zero, so w2 has nothing to scale
        nudged = SeParams(p.w1, p.b1, p.w2 + 1e-5, p.b2)
        assert float((channel_se_forward(x, nudged) ** 2).sum()) == loss

    def test_random_params_channel(self):
        for seed in range(3):
            rng = rng_for(100 + seed)
            x = rng.standard_normal((4, 6, 5))
            for r in (2, 4):
                p = random_params(rng, 4, r)
                assert gradcheck(channel_se_forward, channel_se_backward, x,
                                 [p]) < 1e-6

    def test_random_params_freq(self):
        for seed in range(3):
            rng = rng_for(200 + seed)
            x = rng.standard_normal((3, 8, 4))
            for r in (2, 4):
                p = random_params(rng, 8, r)
                assert gradcheck(freq_se_forward, freq_se_backward, x,
                                 [p]) < 1e-6

    def test_random_params_multi(self):
        for seed in range(3):
            rng = rng_for(300 + seed)
            x = rng.standard_normal((4, 6, 5))
            params = [random_params(rng, 6, 2), random_params(rng, 4, 2)]
            assert gradcheck(multi_dim_se_forward, multi_dim_se_backward, x,
                             params) < 1e-6

    def test_twenty_seed_property(self):
        # the step stays below every hidden pre-activation of these draws
        # (closest is 1.5e-4), so no perturbation crosses the rectifier
        # kink where one-sided derivatives differ
        eps = 5e-5
        shapes = {"channel": ((4, 6, 5), 4), "freq": ((3, 8, 4), 4),
                  "multi": ((4, 6, 5), 2)}
        for name, (shape, r) in shapes.items():
            fwd, bwd, _ = GRADCHECK_BLOCKS[name]
            for seed in range(800, 820):
                rng = make_rng(seed)
                x = rng.standard_normal(shape)
                params = gradcheck_params(rng, name, shape, r)
                assert gradcheck(fwd, bwd, x, params, eps) < 1e-6

    def test_corrupted_backward_is_caught(self):
        rng = rng_for(21)
        x = rng.standard_normal((4, 6, 5))
        p = random_params(rng, 4, 2)

        def broken_bwd(x_in, p_in, grad_y):
            grad_x, grad_p = channel_se_backward(x_in, p_in, grad_y)
            return grad_x + 1e-3, grad_p

        assert gradcheck(channel_se_forward, broken_bwd, x, [p]) > 1e-6

    def test_does_not_mutate_inputs(self):
        rng = rng_for(22)
        x = rng.standard_normal((4, 3, 2))
        x_copy = x.copy()
        params = [random_params(rng, 3, 1), random_params(rng, 4, 2)]
        given = [x] + [a for p in params for a in p.as_arrays()]
        copies = [a.copy() for a in given]
        probed = []

        def forward(x_in, *p_in):
            probed.extend([x_in] + [a for p in p_in for a in p.as_arrays()])
            return multi_dim_se_forward(x_in, *p_in)

        gradcheck(forward, multi_dim_se_backward, x, params)
        assert_array_equal(x, x_copy)
        for a, b in zip(given, copies):
            assert_array_equal(a, b)
        # every perturbation lands in gradcheck's own copies
        assert not any(np.shares_memory(a, b) for a in probed for b in given)

    def test_eps_validation(self):
        x = np.zeros((2, 2, 2))
        params = [zero_params(2, 2)]
        with pytest.raises(SeldkitError):
            gradcheck(channel_se_forward, channel_se_backward, x, params, eps=0.0)
        with pytest.raises(SeldkitError):
            gradcheck(channel_se_forward, channel_se_backward, x, params, eps=1e-2)

    def test_wrong_gradient_shape_rejected(self):
        def transposing_bwd(x_in, p_in, grad_y):
            grad_x, grad_p = channel_se_backward(x_in, p_in, grad_y)
            return grad_x.transpose(0, 2, 1), grad_p

        x = np.zeros((4, 3, 2))
        with pytest.raises(ShapeMismatch):
            gradcheck(channel_se_forward, transposing_bwd, x, [zero_params(4, 2)])
