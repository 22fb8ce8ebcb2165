"""Finite-difference verification of the backward rules.

`grad_check` compares reverse-mode gradients against central differences at
float64. `GRADCHECK_CASES` enumerates one scalar-valued function per
operation (including the composites, and the oracles of `oracles.py` that
the fused ops are tested against), so the test suite can sweep every
backward rule in a single parametrized pass.
"""

from __future__ import annotations

import numpy as np

from horizonmix import tensor as T
from horizonmix import transformer as tr
from horizonmix.mixture import balance_loss, validity_grid
from horizonmix.rng import make_rng

import oracles
from horizons import horizon_set_from_list


def grad_check(f, params, step: float = 1e-5, max_probes: int = 16, floor: float = 1e-8,
               seed: int = 0) -> float:
    """Max relative error between analytic and numeric gradients.

    f:      callable taking no arguments, returns a scalar Tensor built
            from `params` (re-invoked for every probe)
    params: list of float64 leaf tensors with requires_grad

    For each parameter up to `max_probes` entries are probed with central
    differences of width `step`; relative error uses `floor` to keep tiny
    gradients from blowing up the ratio.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters")
    T.zero_grads(params)
    out = f()
    T.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = make_rng(seed, "gradcheck-probes")
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= max_probes else rng.choice(n, size=max_probes, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            ana = a.reshape(-1)[i]
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), floor)
            worst = max(worst, rel)
    return worst


def _case_rng(name):
    return make_rng(7, "gradcheck", name)


def _randn(rng, *shape):
    return T.param(rng.standard_normal(shape))


def _build_cases():
    cases = {}

    def case(name):
        def deco(fn):
            cases[name] = fn
            return fn
        return deco

    @case("add")
    def _():
        rng = _case_rng("add")
        a, b = _randn(rng, 3, 4), _randn(rng, 3, 4)
        return lambda: T.tsum(T.add(a, b)), [a, b]

    @case("add_broadcast")
    def _():
        rng = _case_rng("add_broadcast")
        a, b = _randn(rng, 3, 4), _randn(rng, 4)
        return lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b]

    @case("sub")
    def _():
        rng = _case_rng("sub")
        a, b = _randn(rng, 2, 5), _randn(rng, 1, 5)
        return lambda: T.tsum(T.tpow(T.sub(a, b), 2.0)), [a, b]

    @case("mul")
    def _():
        rng = _case_rng("mul")
        a, b = _randn(rng, 4, 3), _randn(rng, 4, 1)
        return lambda: T.tsum(T.mul(a, b)), [a, b]

    @case("matmul")
    def _():
        rng = _case_rng("matmul")
        a, b = _randn(rng, 3, 4), _randn(rng, 4, 2)
        return lambda: T.tsum(oracles.matmul(a, b)), [a, b]

    @case("matmul_batched")
    def _():
        rng = _case_rng("matmul_batched")
        a, b = _randn(rng, 2, 3, 4), _randn(rng, 2, 4, 5)
        return lambda: T.tsum(T.tabs(oracles.matmul(a, b))), [a, b]

    @case("matmul_broadcast")
    def _():
        rng = _case_rng("matmul_broadcast")
        a, b = _randn(rng, 2, 3, 4), _randn(rng, 4, 5)
        return lambda: T.tsum(oracles.matmul(a, b)), [a, b]

    @case("reshape")
    def _():
        rng = _case_rng("reshape")
        a = _randn(rng, 2, 6)
        return lambda: T.tsum(T.tpow(T.reshape(a, (3, 4)), 3.0)), [a]

    @case("transpose")
    def _():
        rng = _case_rng("transpose")
        a = _randn(rng, 2, 3, 4)
        b = _randn(rng, 2, 4, 3)
        return lambda: T.tsum(T.mul(T.transpose(a, (0, 2, 1)), b)), [a, b]

    @case("broadcast_to")
    def _():
        rng = _case_rng("broadcast_to")
        a = _randn(rng, 1, 4)
        b = _randn(rng, 3, 4)
        return lambda: T.tsum(T.mul(T.broadcast_to(a, (3, 4)), b)), [a, b]

    @case("concat")
    def _():
        rng = _case_rng("concat")
        a, b = _randn(rng, 2, 3), _randn(rng, 2, 2)
        return lambda: T.tsum(T.tpow(T.concat([a, b], axis=1), 2.0)), [a, b]

    @case("index")
    def _():
        rng = _case_rng("index")
        a = _randn(rng, 4, 5)
        return lambda: T.tsum(T.texp(oracles.index(a, np.s_[1:3, ::2]))), [a]

    @case("take_rows")
    def _():
        rng = _case_rng("take_rows")
        a = _randn(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        return lambda: T.tsum(T.tpow(T.take_rows(a, idx), 2.0)), [a]

    @case("gather_rows")
    def _():
        rng = _case_rng("gather_rows")
        a = _randn(rng, 2, 5, 3)
        idx = np.array([[4, -1, 0], [-1, 2, 1]])  # row 3 unread, two outputs fixed at 0
        return lambda: T.tsum(T.tpow(T.gather_rows(a, idx), 2.0)), [a]

    @case("sum_axis")
    def _():
        rng = _case_rng("sum_axis")
        a = _randn(rng, 3, 4)
        return lambda: T.tsum(T.tpow(T.tsum(a, axis=0), 2.0)), [a]

    @case("sum_keepdims")
    def _():
        rng = _case_rng("sum_keepdims")
        a = _randn(rng, 3, 4)
        return lambda: T.tsum(T.mul(a, T.tsum(a, axis=1, keepdims=True))), [a]

    @case("mean")
    def _():
        rng = _case_rng("mean")
        a = _randn(rng, 3, 4)
        return lambda: T.tmean(T.mul(a, a)), [a]

    @case("mean_axis")
    def _():
        rng = _case_rng("mean_axis")
        a = _randn(rng, 3, 4)
        return lambda: T.tsum(T.texp(T.tmean(a, axis=1))), [a]

    @case("exp")
    def _():
        rng = _case_rng("exp")
        a = _randn(rng, 7)
        return lambda: T.tsum(T.texp(a)), [a]

    @case("log")
    def _():
        rng = _case_rng("log")
        a = T.param(np.abs(_case_rng("log").standard_normal((6,))) + 0.5)
        return lambda: T.tsum(T.tlog(a)), [a]

    @case("abs")
    def _():
        a = T.param(_case_rng("abs").standard_normal((8,)) + 3.0)  # away from kink
        return lambda: T.tsum(T.tabs(a)), [a]

    @case("pow")
    def _():
        a = T.param(np.abs(_case_rng("pow").standard_normal((5,))) + 0.5)
        return lambda: T.tsum(T.tpow(a, -0.5)), [a]

    @case("gelu")
    def _():
        rng = _case_rng("gelu")
        a = _randn(rng, 2, 5)
        return lambda: T.tsum(oracles.gelu(a)), [a]

    @case("log_softmax")
    def _():
        rng = _case_rng("log_softmax")
        a = _randn(rng, 2, 3, 5)
        b = _randn(rng, 2, 3, 5)
        return lambda: T.tsum(T.mul(T.log_softmax(a, axis=-1), b)), [a, b]

    @case("masked_softmax")
    def _():
        rng = _case_rng("masked_softmax")
        a = _randn(rng, 3, 5)
        b = _randn(rng, 3, 5)
        mask = np.array([[1, 1, 0, 1, 0], [1, 1, 1, 1, 1], [0, 0, 1, 0, 1]], dtype=bool)
        return lambda: T.tsum(T.mul(T.masked_softmax(a, mask), b)), [a, b]

    @case("linear")
    def _():
        rng = _case_rng("linear")
        x, w, b = _randn(rng, 4, 3), _randn(rng, 3, 2), _randn(rng, 2)
        return lambda: T.tsum(oracles.gelu(T.linear(x, w, b))), [x, w, b]

    @case("linear_rows")
    def _():
        # a (B, R, d) input, as the transformer feeds it
        rng = _case_rng("linear_rows")
        x, w, b = _randn(rng, 2, 3, 4), _randn(rng, 4, 5), _randn(rng, 5)
        return lambda: T.tsum(oracles.gelu(T.linear(x, w, b))), [x, w, b]

    @case("mlp")
    def _():
        rng = _case_rng("mlp")
        x, w1, b1 = _randn(rng, 2, 3, 4), _randn(rng, 4, 5), _randn(rng, 5)
        w2, b2 = _randn(rng, 5, 3), _randn(rng, 3)
        w = rng.standard_normal((2, 3, 3))
        return lambda: T.tsum(T.mul(T.mlp(x, w1, b1, w2, b2), w)), [x, w1, b1, w2, b2]

    @case("mlp_residual")
    def _():
        rng = _case_rng("mlp_residual")
        x, w1, b1 = _randn(rng, 2, 3, 4), _randn(rng, 4, 5), _randn(rng, 5)
        w2, b2, r = _randn(rng, 5, 3), _randn(rng, 3), _randn(rng, 2, 3, 3)
        w = rng.standard_normal((2, 3, 3))
        return (lambda: T.tsum(T.mul(T.mlp(x, w1, b1, w2, b2, residual=r), w)),
                [x, w1, b1, w2, b2, r])

    @case("layer_norm")
    def _():
        rng = _case_rng("layer_norm")
        x = _randn(rng, 3, 6)
        gamma = T.param(np.ones(6) + 0.1 * rng.standard_normal(6))
        beta = _randn(rng, 6)
        return lambda: T.tsum(T.tpow(T.layer_norm(x, gamma, beta), 2.0)), [x, gamma, beta]

    @case("attention")
    def _():
        rng = _case_rng("attention")
        q, k, v = _randn(rng, 2, 4, 3), _randn(rng, 2, 5, 3), _randn(rng, 2, 5, 3)
        mask = np.zeros((2, 4, 5))
        mask[:, :, 4] = T.NEG_INF
        mask[0, 1, :3] = T.NEG_INF
        return lambda: T.tsum(T.tabs(oracles.attention(q, k, v, mask))), [q, k, v]

    @case("attention_lane_mask")
    def _():
        # the per-lane oracle: (B, lanes, heads, L, hd) against a
        # (1, lanes, 1, L, L) full lane mask with a pad row, as in oracles.run
        rng = _case_rng("attention_lane_mask")
        stream, _, _ = tr.lane_layout(horizon_set_from_list((1, 2, 3)))
        mask = oracles.full_lane_masks(stream, n_context=2, with_time=True, dtype=np.float64)[None]
        length = mask.shape[-1]
        q, k, v = (_randn(rng, 2, stream.shape[0], 2, length, 3) for _ in range(3))
        w = rng.standard_normal(q.shape)  # a plain array: T.mul casts it to q's width
        return lambda: T.tsum(T.mul(oracles.attention(q, k, v, mask), w)), [q, k, v]

    @case("attention_prefix_lanes")
    def _():
        # flat (B, P + lanes W, d) rows with a time row, pad rows and lanes of
        # unequal horizons: (1, 2, 3, 4, 6) packs into lanes (6, 1), (4, 2) and
        # (3,) of width 7
        rng = _case_rng("attention_prefix_lanes")
        stream, _, _ = tr.lane_layout(horizon_set_from_list((1, 2, 3, 4, 6)))
        masks = tr.lane_masks(stream, n_context=2, with_time=True, dtype=np.float64)
        rows = masks[0].shape[0] + stream.size
        q, k, v = (_randn(rng, 2, rows, 4) for _ in range(3))
        w = rng.standard_normal(q.shape)
        return lambda: T.tsum(T.mul(T.attention(q, k, v, 2, *masks), w)), [q, k, v]

    @case("attention_unmasked")
    def _():
        rng = _case_rng("attention_unmasked")
        q, k, v = _randn(rng, 3, 4), _randn(rng, 6, 4), _randn(rng, 6, 4)
        return lambda: T.tmean(oracles.attention(q, k, v)), [q, k, v]

    @case("balance_loss")
    def _():
        # the gate's masked softmax over irregular horizons: intervals of
        # 1, 1, 2 and 3 steps with 4, 3, 2 and 1 active horizons
        rng = _case_rng("balance_loss")
        hs = horizon_set_from_list((1, 2, 4, 7))
        logits = _randn(rng, 3, 7, 4)
        mask = np.broadcast_to(validity_grid(hs), logits.shape)
        return lambda: balance_loss(T.masked_softmax(logits, mask), hs), [logits]

    return cases


_CASE_BUILDERS = _build_cases()
GRADCHECK_CASES = sorted(_CASE_BUILDERS)


def build_case(name: str, dtype=np.float64):
    """(f, params) of one case, with its params cast to dtype."""
    f, params = _CASE_BUILDERS[name]()
    for p in params:
        p.data = p.data.astype(dtype)
    return f, params


def run_case(name: str) -> float:
    return grad_check(*build_case(name))
