"""Autodiff core: pinned example values, error paths, and gradient sweeps."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix import tensor as T
from horizonmix import transformer as tr
from horizonmix.errors import InvalidMaskError, ShapeMismatchError
from horizonmix.rng import make_rng

import oracles
from gradcheck import GRADCHECK_CASES, build_case, grad_check, run_case
from horizons import horizon_set_from_list


class TestMatmul:
    """The matmul node of the oracles."""

    def test_identity(self):
        rng = make_rng(0, "matmul-identity")
        b = rng.standard_normal((3, 3))
        out = oracles.matmul(T.constant(np.eye(3)), T.constant(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case(self):
        a = T.constant([[1.0, 2.0], [3.0, 4.0]])
        b = T.constant([[0.0], [1.0]])
        np.testing.assert_array_equal(oracles.matmul(a, b).data, [[2.0], [4.0]])

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = make_rng(1, "matmul-grad")
        a = T.param(rng.standard_normal((3, 4)))
        b = T.constant(rng.standard_normal((4, 2)))
        T.backward(T.tsum(oracles.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=0, atol=1e-15)

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            oracles.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))

    def test_mixed_width_rejected(self):
        a = T.constant(np.zeros((2, 2), dtype=np.float32))
        b = T.constant(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(ShapeMismatchError, match="mixed float widths"):
            oracles.matmul(a, b)


class TestMaskedSoftmax:
    def test_uniform_logits(self):
        out = T.masked_softmax(T.constant([0.0, 0.0, 0.0]), np.array([True, True, True]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_masked_entry_exactly_zero(self):
        out = T.masked_softmax(T.constant([5.0, 5.0, -9.0]), np.array([True, True, False]))
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.0], atol=1e-15)
        assert out.data[2] == 0.0

    def test_two_entry_formula(self):
        out = T.masked_softmax(T.constant([1.0, 2.0]), np.array([True, True]))
        e = np.e
        np.testing.assert_allclose(out.data, [1 / (1 + e), e / (1 + e)], atol=1e-15)

    def test_all_invalid_slice_raises(self):
        logits = T.constant(np.zeros((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(InvalidMaskError):
            T.masked_softmax(logits, mask)

    def test_no_gradient_through_invalid_entries(self):
        logits = T.param([[1.0, 4.0, -2.0]])
        mask = np.array([[True, False, True]])
        T.backward(T.tsum(T.tpow(T.masked_softmax(logits, mask), 2.0)))
        assert logits.grad[0, 1] == 0.0

    def test_broadcast_mask_equals_the_full_mask(self):
        rng = make_rng(4, "broadcast-mask")
        grid = rng.random((5, 3)) < 0.6
        grid[:, 0] = True
        data = rng.standard_normal((2, 5, 3))
        logits = [T.param(data.copy()) for _ in range(2)]
        weights = rng.standard_normal((2, 5, 3))
        for a, mask in zip(logits, (grid, np.broadcast_to(grid, (2, 5, 3)))):
            T.backward(T.tsum(T.mul(T.masked_softmax(a, mask), T.constant(weights))))
        assert logits[0].grad.tobytes() == logits[1].grad.tobytes()
        assert (T.masked_softmax(logits[0], grid).data.tobytes()
                == T.masked_softmax(logits[1], np.broadcast_to(grid, (2, 5, 3))).data.tobytes())

    @pytest.mark.parametrize("mask, error", [
        (np.array([[True, False], [False, False]]), InvalidMaskError),
        (np.array([[False], [True]]), InvalidMaskError),
        (np.ones((3, 2), dtype=bool), ShapeMismatchError),
        (np.ones((1, 2, 2, 2), dtype=bool), ShapeMismatchError)],
        ids=["empty-row", "empty-broadcast-row", "wrong-rows", "extra-axis"])
    def test_mask_is_checked_on_its_own_shape(self, mask, error):
        with pytest.raises(error):
            T.masked_softmax(T.constant(np.zeros((4, 2, 2))), mask)

    @given(shift=st.floats(-50, 50), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_over_valid_entries(self, shift, seed):
        rng = make_rng(seed, "shift-invariance")
        logits = rng.standard_normal((4, 6))
        mask = rng.random((4, 6)) < 0.6
        mask[:, 0] = True  # keep every slice valid
        base = T.masked_softmax(T.constant(logits), mask).data
        shifted = T.masked_softmax(T.constant(np.where(mask, logits + shift, logits)), mask).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def _attention_bruteforce(q, k, v, mask=None):
    scores = q @ k.T / np.sqrt(q.shape[-1])
    if mask is not None:
        scores = scores + mask
    out = np.empty((q.shape[0], v.shape[1]))
    for i in range(scores.shape[0]):
        row = scores[i] - scores[i].max()
        w = np.exp(row)
        w /= w.sum()
        out[i] = w @ v
    return out


class TestAttention:
    """The per-lane attention node of the oracles."""

    def test_single_token_no_mask_returns_v(self):
        rng = make_rng(2, "attn-single")
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        np.testing.assert_allclose(
            oracles.attention(T.constant(q), T.constant(k), T.constant(v)).data, v, atol=1e-15
        )

    def test_identical_kv_tokens(self):
        rng = make_rng(3, "attn-identical")
        q = rng.standard_normal((1, 4))
        k = np.tile(rng.standard_normal((1, 4)), (2, 1))
        v = np.tile(rng.standard_normal((1, 4)), (2, 1))
        out = oracles.attention(T.constant(q), T.constant(k), T.constant(v)).data
        np.testing.assert_allclose(out, v[0:1], atol=1e-15)

    def test_random_case_vs_bruteforce(self):
        rng = make_rng(4, "attn-brute")
        q, k, v = (rng.standard_normal((4, 8)) for _ in range(3))
        mask = np.where(rng.random((4, 4)) < 0.3, T.NEG_INF, 0.0)
        mask[np.arange(4), np.arange(4)] = 0.0  # keep each row attendable
        ours = oracles.attention(T.constant(q), T.constant(k), T.constant(v), mask).data
        np.testing.assert_allclose(ours, _attention_bruteforce(q, k, v, mask), atol=1e-12)

    def test_fully_blocked_row_raises(self):
        rng = make_rng(5, "attn-blocked")
        q, k, v = (T.constant(rng.standard_normal((3, 4))) for _ in range(3))
        mask = np.zeros((3, 3))
        mask[1, :] = T.NEG_INF
        with pytest.raises(InvalidMaskError):
            oracles.attention(q, k, v, mask)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_mask_equals_no_mask(self, seed):
        rng = make_rng(seed, "attn-zero-mask")
        q, k, v = (T.constant(rng.standard_normal((5, 6))) for _ in range(3))
        with_mask = oracles.attention(q, k, v, np.zeros((5, 5))).data
        without = oracles.attention(q, k, v).data
        np.testing.assert_array_equal(with_mask, without)


# ---------------------------------------------------------------------------
# the fused ops against the tape composites they replaced
# ---------------------------------------------------------------------------


def gelu_composite(a):
    """The GELU node with out-of-place temporaries that the fused one replaced."""
    x = a.data
    x2 = x * x
    t = np.tanh(T._GELU_C * (x + 0.044715 * (x2 * x)))

    def bwd(g):
        dinner = T._GELU_C * (1.0 + 0.134145 * x2)
        a._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))

    return T._make(0.5 * x * (1.0 + t), (a,), bwd)


def layer_norm_composite(x, gamma, beta, eps=1e-5):
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    rstd = T.tpow(T.add(var, T.constant(eps, dtype=x.dtype)), -0.5)
    return T.add(T.mul(T.mul(centered, rstd), gamma), beta)


def softmax_node(a):
    """Stable softmax over the last axis as one node, as the tape had it."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return T._make(out_data, (a,), bwd)


def attention_composite(q, k, v, additive_mask=None):
    kt = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = T.mul(oracles.matmul(q, kt), T.constant(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype))
    if additive_mask is not None:
        scores = T.add(scores, T.constant(additive_mask, dtype=q.dtype))
    return oracles.matmul(softmax_node(scores), v)


def log_softmax_chain(logits):
    """The sub / texp / tsum / tlog / sub chain the classification head ran."""
    shifted = T.sub(logits, T.constant(logits.data.max(axis=-1, keepdims=True)))
    return T.sub(shifted, T.tlog(T.tsum(T.texp(shifted), axis=-1, keepdims=True)))


def _lane_shapes():
    """(B, lanes, heads, L, hd) of a lane pass and its (1, lanes, 1, L, L) mask.

    Horizons (1, 2, 3, 5) pack into lanes (5, 1) and (3, 2) of width 6, so
    the second lane ends in a pad row that sees only itself."""
    stream, _, _ = tr.lane_layout(horizon_set_from_list((1, 2, 3, 5)))
    mask = oracles.full_lane_masks(stream, n_context=3, with_time=True, dtype=np.float64)[None]
    assert (stream == -1).any()
    return (2, stream.shape[0], 2, mask.shape[-1], 4), mask


def _fused_vs_composite(fused, composite, params, seed):
    """Outputs and every input gradient of a random projection of both ops."""
    results = []
    for op in (fused, composite):
        T.zero_grads(params)
        out = op(*params)
        w = make_rng(seed, "fused-projection").standard_normal(out.shape)
        T.backward(T.tsum(T.mul(out, w)))
        results.append((out.data, [p.grad for p in params]))
    (out_f, grads_f), (out_c, grads_c) = results
    np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
    for gf, gc in zip(grads_f, grads_c):
        np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12)


def _lane_inputs(op, dtype=np.float64):
    """(fused op, composite, inputs) at the shapes of a lane pass."""
    shape, mask = _lane_shapes()
    b, lanes, _, length, _ = shape
    rng = make_rng(10, "fused", op)
    if op == "attention":
        inputs = [rng.standard_normal(shape) for _ in range(3)]
        fused = lambda *a: oracles.attention(*a, mask)  # noqa: E731
        composite = lambda *a: attention_composite(*a, mask)  # noqa: E731
    elif op == "layer_norm":
        inputs = [3.0 * rng.standard_normal((b, lanes, length, 16)) + 1.0,
                  1.0 + 0.1 * rng.standard_normal(16), rng.standard_normal(16)]
        fused, composite = T.layer_norm, layer_norm_composite
    else:
        inputs = [2.0 * rng.standard_normal((b, lanes, length, 32))]
        fused, composite = oracles.gelu, gelu_composite
    return fused, composite, [T.param(a.astype(dtype)) for a in inputs]


FUSED_OPS = ["attention", "layer_norm", "gelu"]


class TestFusedOps:
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_equals_composite_at_lane_shapes(self, op):
        fused, composite, params = _lane_inputs(op)
        _fused_vs_composite(fused, composite, params, 11)

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_forward_bit_identical_to_composite_at_float32(self, op):
        fused, composite, params = _lane_inputs(op, np.float32)
        np.testing.assert_array_equal(fused(*params).data, composite(*params).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_blocks_cover_a_ragged_tail(self, dtype):
        # more than two blocks, the last one partial
        x = make_rng(13, "gelu-blocks").standard_normal((5, oracles.GELU_BLOCK // 2 + 7)) * 3.0
        params = [T.param(x.astype(dtype))]
        if dtype == np.float64:
            _fused_vs_composite(oracles.gelu, gelu_composite, params, 13)
        else:
            np.testing.assert_array_equal(oracles.gelu(*params).data,
                                          gelu_composite(*params).data)

    @pytest.mark.parametrize("op", ["layer_norm", "gelu"])
    def test_backward_keeps_no_copy_of_its_input(self, op):
        # the rule rebuilds x̂ or tanh from x.data; any other array of x's
        # size it held would be one more activation per call
        fused, _, params = _lane_inputs(op, np.float32)
        x = params[0].data
        held = [cell.cell_contents for cell in fused(*params)._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        arrays += [t.data for t in held if isinstance(t, T.Tensor)]
        assert all(a is x for a in arrays if a.size >= x.size)

    @pytest.mark.parametrize("wide", ["gamma", "beta"])
    def test_layer_norm_rejects_an_affine_that_widens_x(self, wide):
        x = T.param(np.arange(12.0).reshape(3, 4))
        before = x.data.copy()
        affine = {"gamma": T.param(np.ones(4)), "beta": T.param(np.zeros(4))}
        affine[wide] = T.param(np.ones((2, 3, 4)))
        with pytest.raises(ShapeMismatchError, match="widen x"):
            T.layer_norm(x, affine["gamma"], affine["beta"])
        np.testing.assert_array_equal(x.data, before)

    def test_attention_mask_may_widen_the_batch(self):
        rng = make_rng(12, "fused-widen")
        q, k, v = (T.param(rng.standard_normal((4, 3))) for _ in range(3))
        mask = np.zeros((2, 4, 4))
        mask[1, :, 0] = T.NEG_INF
        _fused_vs_composite(lambda *a: oracles.attention(*a, mask),
                            lambda *a: attention_composite(*a, mask), [q, k, v], 12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_softmax_forward_bit_identical_to_chain(self, dtype):
        logits = make_rng(13, "fused-logsoftmax").standard_normal((2, 3, 4, 2, 8)) * 5.0
        x = T.constant(logits.astype(dtype))
        np.testing.assert_array_equal(T.log_softmax(x, axis=-1).data,
                                      log_softmax_chain(x).data)

    def test_log_softmax_gradient_equals_chain(self):
        x = T.param(make_rng(14, "fused-logsoftmax").standard_normal((3, 4, 8)))
        _fused_vs_composite(lambda a: T.log_softmax(a, axis=-1), log_softmax_chain, [x], 14)

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_one_tape_node(self, op):
        fused, _, params = _lane_inputs(op)
        assert len(T.linearize(fused(*params))) == len(params) + 1


def _mlp_inputs(shape, hidden, dtype=np.float64, seed=0):
    """[x, w1, b1, w2, b2] of an MLP from shape[-1] through `hidden` back to
    shape[-1], with weights at a scale that keeps the GELU in its curve."""
    rng = make_rng(seed, "mlp", shape, hidden)
    d = shape[-1]
    arrays = [2.0 * rng.standard_normal(shape), rng.standard_normal((d, hidden)) / np.sqrt(d),
              rng.standard_normal(hidden), rng.standard_normal((hidden, d)) / np.sqrt(hidden),
              rng.standard_normal(d)]
    return [T.param(a.astype(dtype)) for a in arrays]


def _mlp_shapes():
    """(x shape, hidden): lane shapes, and rows that walk three row blocks of
    T._BLOCK hidden elements, the last one partial."""
    shape, _ = _lane_shapes()
    b, lanes, _, length, _ = shape
    return [((b, lanes, length, 16), 32), ((2 * T._BLOCK // 256 + 101, 16), 256)]


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,hidden", _mlp_shapes())
    def test_forward_bit_identical_to_chain(self, shape, hidden, dtype):
        params = _mlp_inputs(shape, hidden, dtype)
        np.testing.assert_array_equal(T.mlp(*params).data, oracles.mlp_chain(*params).data)

    @pytest.mark.parametrize("shape,hidden", _mlp_shapes())
    def test_gradients_equal_chain(self, shape, hidden):
        # the weight and bias gradients sum block by block, so they agree
        # with the chain's one GEMM to rounding, relative to their scale
        params = _mlp_inputs(shape, hidden)
        w = make_rng(1, "mlp-projection").standard_normal(shape)
        grads = []
        for op in (T.mlp, oracles.mlp_chain):
            T.zero_grads(params)
            T.backward(T.tsum(T.mul(op(*params), w)))
            grads.append([p.grad for p in params])
        for gf, gc in zip(*grads):
            np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12 * np.abs(gc).max())

    def test_input_gradient_bit_identical_to_chain(self):
        # dx takes one GEMM per block, as the chain's per row; only the
        # weight and bias gradients sum in another order
        params = _mlp_inputs(*_mlp_shapes()[1], np.float32)
        g = make_rng(2, "mlp-g").standard_normal(params[0].shape).astype(np.float32)
        grads = []
        for op in (T.mlp, oracles.mlp_chain):
            T.zero_grads(params)
            T.backward(T.tsum(T.mul(op(*params), g)))
            grads.append((params[0].grad, params[4].grad))
        for gf, gc in zip(*grads):
            np.testing.assert_array_equal(gf, gc)

    @pytest.mark.parametrize("shape,hidden", _mlp_shapes())
    def test_residual_equals_add_bit_for_bit(self, shape, hidden):
        # the block's residual add, folded into the node: same forward, same
        # gradients of every input, the residual included
        params = _mlp_inputs(shape, hidden, np.float32)
        r = T.param(make_rng(3, "mlp-residual").standard_normal(shape).astype(np.float32))
        g = make_rng(4, "mlp-g").standard_normal(shape).astype(np.float32)
        outs, grads = [], []
        for op in (lambda: T.mlp(*params, residual=r), lambda: T.add(r, T.mlp(*params))):
            T.zero_grads(params + [r])
            out = op()
            outs.append(out.data.copy())
            T.backward(T.tsum(T.mul(out, g)))
            grads.append([p.grad for p in params + [r]])
        np.testing.assert_array_equal(*outs)
        for gf, ga in zip(*grads):
            np.testing.assert_array_equal(gf, ga)

    def test_residual_shape_mismatch_rejected(self):
        x, w1, b1, w2, b2 = _mlp_inputs((2, 3, 4), 5)
        with pytest.raises(ShapeMismatchError, match="residual"):
            T.mlp(x, w1, b1, w2, b2, residual=T.constant(np.zeros((2, 1, 4))))

    def test_backward_keeps_no_hidden_array(self):
        # only x and views of it: an array of rows x d_ff would be the hidden
        # activation the node exists to drop
        shape, hidden = _mlp_shapes()[1]
        params = _mlp_inputs(shape, hidden, np.float32)
        rows = math.prod(shape[:-1])
        held = [cell.cell_contents for cell in T.mlp(*params)._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        arrays += [t.data for t in held if isinstance(t, T.Tensor)]
        assert arrays and all(a.size < rows * hidden for a in arrays)

    def test_one_tape_node(self):
        params = _mlp_inputs(*_mlp_shapes()[0])
        assert len(T.linearize(T.mlp(*params))) == 6

    def test_constant_input_gets_no_gradient(self):
        # the encoder feeds observations as a constant
        params = _mlp_inputs(*_mlp_shapes()[0])
        x = T.constant(params[0].data)
        T.backward(T.tsum(T.mlp(x, *params[1:])))
        assert x.grad is None and all(p.grad is not None for p in params[1:])

    @pytest.mark.parametrize("case", ["inner", "hidden", "bias"])
    def test_shape_mismatch_rejected(self, case):
        x, w1, b1, w2, b2 = _mlp_inputs((2, 3, 4), 5)
        if case == "inner":
            x = T.constant(np.zeros((2, 3, 5)))
        elif case == "hidden":
            w2 = T.constant(np.zeros((6, 4)))
        else:
            b1 = T.constant(np.zeros((1, 5)))
        with pytest.raises(ShapeMismatchError):
            T.mlp(x, w1, b1, w2, b2)

    def test_mixed_width_rejected(self):
        x, w1, b1, w2, b2 = _mlp_inputs((2, 3, 4), 5)
        with pytest.raises(ShapeMismatchError, match="mixed float widths"):
            T.mlp(x, w1, b1, T.constant(w2.data.astype(np.float32)), b2)


class TestLinear:
    SHAPES = ((2, 5, 7, 16), (16, 24), (24,))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_composite(self, dtype):
        rng = make_rng(15, "linear-composite")
        x, w, b = (T.constant(rng.standard_normal(s).astype(dtype)) for s in self.SHAPES)
        np.testing.assert_array_equal(T.linear(x, w, b).data,
                                      oracles.linear_composite(x, w, b).data)

    def test_gradients_equal_composite(self):
        rng = make_rng(16, "linear-composite")
        params = [T.param(rng.standard_normal(s)) for s in self.SHAPES]
        _fused_vs_composite(T.linear, oracles.linear_composite, params, 16)

    def test_one_tape_node(self):
        params = [T.param(np.ones(s)) for s in self.SHAPES]
        assert len(T.linearize(T.linear(*params))) == len(params) + 1

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            T.linear(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))

    def test_bias_must_match_weight(self):
        with pytest.raises(ShapeMismatchError, match="bias"):
            T.linear(T.constant(np.zeros((2, 3))), T.constant(np.zeros((3, 4))),
                     T.constant(np.zeros((1, 4))))

    def test_mixed_width_rejected(self):
        x = T.constant(np.zeros((2, 2), dtype=np.float32))
        w = T.constant(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(ShapeMismatchError, match="mixed float widths"):
            T.linear(x, w)


# ---------------------------------------------------------------------------
# attention over a shared prefix plus lanes
# ---------------------------------------------------------------------------


def _prefix_lane_layout(with_time=True, n_context=3):
    """Lanes of horizons (1, 2, 3, 4, 6): (6, 1), (4, 2) and (3,), width 7,
    so two lanes end in pad rows."""
    stream, _, _ = tr.lane_layout(horizon_set_from_list((1, 2, 3, 4, 6)))
    assert (stream == -1).any()
    return stream, tr.lane_masks(stream, n_context, with_time, dtype=np.float64)


def per_lane_attention(q, k, v, heads, stream, n_context, with_time):
    """`T.attention` through the oracle: each lane gets its own copy of the
    prefix rows, the composite attention runs under the full lane masks, and
    the prefix output is read from lane 0."""
    b, r, d = q.shape
    lanes, width = stream.shape
    n_pre = r - lanes * width
    mask = oracles.full_lane_masks(stream, n_context, with_time, dtype=q.dtype)[None]

    def lane_sequences(a):
        lo = n_pre + width * np.arange(lanes)
        seqs = [T.concat([oracles.index(a, np.s_[:, :n_pre]),
                          oracles.index(a, np.s_[:, lo[j]:lo[j] + width])], axis=1)
                for j in range(lanes)]
        return oracles.split_heads(
            T.concat([T.reshape(x, (b, 1, n_pre + width, d)) for x in seqs], axis=1), heads)

    out = oracles.merge_heads(attention_composite(lane_sequences(q), lane_sequences(k),
                                                  lane_sequences(v), mask))
    return T.concat([oracles.index(out, np.s_[:, 0, :n_pre])]
                    + [oracles.index(out, np.s_[:, j, n_pre:]) for j in range(lanes)], axis=1)


def _prefix_lane_inputs(with_time, seed):
    """(stream, masks, [q, k, v]) of 2 examples and 2 heads of width 4."""
    stream, masks = _prefix_lane_layout(with_time)
    rows = masks[0].shape[0] + stream.size
    rng = make_rng(seed, "prefix-lanes", with_time)
    qkv = [T.param(rng.standard_normal((2, rows, 8))) for _ in range(3)]
    return stream, masks, qkv


class TestSharedPrefixAttention:
    @pytest.mark.parametrize("with_time", [True, False])
    def test_equals_per_lane_composite(self, with_time):
        stream, masks, qkv = _prefix_lane_inputs(with_time, 17)
        _fused_vs_composite(lambda *a: T.attention(*a, 2, *masks),
                            lambda *a: per_lane_attention(*a, 2, stream, 3, with_time), qkv, 17)

    def test_matches_row_by_row_bruteforce(self):
        _, (prefix_mask, lane_mask), qkv = _prefix_lane_inputs(True, 18)
        q, k, v = (a.data for a in qkv)
        out = T.attention(*qkv, 2, prefix_mask, lane_mask).data
        n_pre, (lanes, width) = prefix_mask.shape[0], lane_mask.shape[:2]
        for h in range(2):
            cols = slice(4 * h, 4 * h + 4)
            for i in range(2):
                pre = slice(0, n_pre)
                ref = _attention_bruteforce(q[i, pre, cols], k[i, pre, cols], v[i, pre, cols],
                                            prefix_mask)
                np.testing.assert_allclose(out[i, pre, cols], ref, rtol=0, atol=1e-12)
                for j in range(lanes):
                    own = slice(n_pre + j * width, n_pre + (j + 1) * width)
                    keys = np.r_[0:n_pre, own]
                    ref = _attention_bruteforce(q[i, own, cols], k[i, keys, cols],
                                                v[i, keys, cols], lane_mask[j])
                    np.testing.assert_allclose(out[i, own, cols], ref, rtol=0, atol=1e-12)

    def test_prefix_output_ignores_the_lanes(self):
        _, masks, qkv = _prefix_lane_inputs(True, 19)
        n_pre = masks[0].shape[0]
        base = T.attention(*qkv, 2, *masks).data
        for a in qkv:
            a.data[:, n_pre:] += 5.0
        moved = T.attention(*qkv, 2, *masks).data
        np.testing.assert_array_equal(moved[:, :n_pre], base[:, :n_pre])

    def test_one_tape_node(self):
        _, masks, qkv = _prefix_lane_inputs(True, 20)
        assert len(T.linearize(T.attention(*qkv, 2, *masks))) == 4

    @pytest.mark.parametrize("which", ["prefix", "lane"])
    def test_fully_blocked_row_raises(self, which):
        _, (prefix_mask, lane_mask), qkv = _prefix_lane_inputs(True, 22)
        if which == "prefix":
            prefix_mask[1, :] = T.NEG_INF
        else:
            lane_mask[2, 1, :] = T.NEG_INF
        with pytest.raises(InvalidMaskError):
            T.attention(*qkv, 2, prefix_mask, lane_mask)

    def test_mixed_width_rejected(self):
        _, masks, (q, k, v) = _prefix_lane_inputs(True, 23)
        k32 = T.constant(k.data.astype(np.float32))
        with pytest.raises(ShapeMismatchError, match="mixed float widths"):
            T.attention(q, k32, v, 2, *masks)

    @pytest.mark.parametrize("case", ["rows", "heads", "kv_shape"])
    def test_layout_mismatch_rejected(self, case):
        _, masks, (q, k, v) = _prefix_lane_inputs(True, 24)
        heads = 2
        if case == "rows":
            q, k, v = (T.constant(a.data[:, 1:]) for a in (q, k, v))
        elif case == "heads":
            heads = 3
        else:
            v = T.constant(v.data[:, :, :4])
        with pytest.raises(ShapeMismatchError):
            T.attention(q, k, v, heads, *masks)


class TestGradCheck:
    def test_square_at_three(self):
        x = T.param([3.0])
        err = grad_check(lambda: T.tsum(T.tpow(x, 2.0)), [x])
        assert err < 1e-8
        T.zero_grads([x])
        T.backward(T.tsum(T.tpow(x, 2.0)))
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_constant_function_zero_gradient(self):
        x = T.param([1.0, 2.0])
        c = T.constant([4.0])
        T.backward(T.tsum(T.add(T.mul(x, 0.0), c)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    @pytest.mark.parametrize("name", GRADCHECK_CASES)
    def test_registered_op(self, name):
        assert run_case(name) < 1e-6

    @pytest.mark.parametrize("name", GRADCHECK_CASES)
    def test_registered_op_float32_gradients(self, name):
        f, params = build_case(name, np.float32)
        T.backward(f())
        for p in params:
            assert p.grad is not None and p.grad.dtype == np.float32

    def test_float32_params_rejected(self):
        x = T.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: T.tsum(x), [x])


class TestGraphMechanics:
    def test_backward_requires_scalar_root(self):
        x = T.param(np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError, match="scalar"):
            T.backward(T.mul(x, x))

    def test_gradient_accumulates_across_uses(self):
        x = T.param([2.0])
        T.backward(T.tsum(T.add(T.mul(x, x), T.mul(x, 3.0))))
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)

    def test_diamond_graph_visits_each_node_once(self):
        x = T.param([1.5])
        y = T.mul(x, x)
        T.backward(T.tsum(T.add(y, y)))
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_shared_gradient_array_not_aliased(self):
        rng = make_rng(6, "alias")
        a = T.param(rng.standard_normal(4))
        b = T.param(rng.standard_normal(4))
        c = T.add(a, b)
        T.backward(T.tsum(T.add(c, T.mul(a, 2.0))))
        np.testing.assert_allclose(a.grad, np.full(4, 3.0), atol=1e-15)
        np.testing.assert_allclose(b.grad, np.ones(4), atol=1e-15)

    def test_train_width_preserved(self):
        x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = oracles.gelu(T.linear(x, x))
        assert out.data.dtype == np.float32
        T.backward(T.tsum(out))
        assert x.grad.dtype == np.float32

    def test_wrong_width_gradient_rejected(self):
        x = T.param(np.ones(3, dtype=np.float32))
        # a rule that hands its float32 parent a float64 gradient
        y = T._make(2.0 * x.data, (x,), lambda g: x._accumulate(g.astype(np.float64)))
        with pytest.raises(ShapeMismatchError, match="float64 gradient for a float32 tensor"):
            T.backward(T.tsum(y))

    def test_repeated_backward_sums_each_leafs_own_contributions(self):
        # no zero_grads in between: the second backward adds in place into
        # the arrays the first one stored, which must not be shared
        a, b, x = T.param([1.0, 2.0]), T.param([3.0, 4.0]), T.param([5.0, 6.0])
        weights = (np.array([1.0, 10.0]), np.array([100.0, 1000.0]))
        for w in weights:
            T.backward(T.tsum(T.mul(T.add(a, b), w)))
            T.backward(T.tsum(T.mul(T.add(x, x), w)))
        np.testing.assert_array_equal(a.grad, weights[0] + weights[1])
        np.testing.assert_array_equal(b.grad, weights[0] + weights[1])
        np.testing.assert_array_equal(x.grad, 2.0 * (weights[0] + weights[1]))

    def test_backward_frees_an_activation_before_upstream_rules_run(self):
        # x -> u -> y -> loss: once y's rule has run, nothing but the tape's
        # list held y, so its array is gone before u's rule runs
        x = T.param(np.arange(3.0))
        seen = []
        u = T._make(2.0 * x.data, (x,), lambda g: seen.append(y_data() is None))
        y = T.texp(u)
        y_data = weakref.ref(y.data)
        loss = T.tsum(y)
        del y
        T.backward(loss)
        assert seen == [True]

    def test_gather_rows_rejects_a_row_read_twice(self):
        a = T.param(np.ones((1, 3, 2)))
        with pytest.raises(ShapeMismatchError, match="more than once"):
            T.gather_rows(a, np.array([0, 2, 0]))
