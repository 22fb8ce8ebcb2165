"""Multi-horizon transformer: lane layout, the padded-stream oracle, and
batching equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix import tensor as T
from horizonmix import transformer as tr
from horizonmix.encoder import encode, init_encoder_params
from horizonmix.errors import ConfigError
from horizonmix.mixture import build_horizon_set, validity_grid
from horizonmix.policy import ModelConfig
from horizonmix.rng import make_rng

import oracles
from horizons import horizon_set_from_list

def small_cfg(max_horizon=30, stride=None):
    return ModelConfig(layers=2, heads=2, d_model=32, d_ff=64, max_horizon=max_horizon,
                       stride=stride or max_horizon)


CFG = small_cfg()


def make_model(cfg=CFG, seed=0):
    return tr.init_transformer_params(seed, cfg, dtype=np.float64)


def make_ctx(b=3, c=4, d_model=32, seed=1):
    rng = make_rng(seed, "ctx")
    return T.constant(rng.standard_normal((b, c, d_model)))


# ---------------------------------------------------------------------------
# padded-stream oracle: one stream per horizon, each padded to H
# ---------------------------------------------------------------------------


def build_stream_masks(horizons, n_context: int, max_horizon: int, with_time: bool,
                       dtype=np.float32):
    """Additive attention masks (N, 1, L, L), one per padded horizon stream.

    Context rows attend to context only; the time token attends to context
    and itself; a valid action position attends to context, the time token,
    and every valid action position; an invalid position attends only to
    itself (its output is discarded, but a fully blocked row has no softmax).
    """
    horizons = list(horizons)
    if max(horizons) > max_horizon:
        raise ConfigError(f"horizon {max(horizons)} exceeds max horizon {max_horizon}")
    n = len(horizons)
    t = 1 if with_time else 0
    length = n_context + t + max_horizon
    a0 = n_context + t
    masks = np.full((n, 1, length, length), T.NEG_INF, dtype=dtype)
    for i, h in enumerate(horizons):
        m = masks[i, 0]
        m[:n_context, :n_context] = 0.0
        if with_time:
            m[n_context, :n_context] = 0.0
            m[n_context, n_context] = 0.0
        rows = np.arange(a0, a0 + h)
        m[np.ix_(rows, np.arange(0, a0))] = 0.0
        m[np.ix_(rows, rows)] = 0.0
        idx = np.arange(a0 + h, length)
        m[idx, idx] = 0.0
    return masks


def padded_forward(params, cfg, ctx, horizons, chunks=None, tau=None):
    """(B, N, H, d_model) hidden states of N padded streams of C + t + H rows."""
    masks = build_stream_masks(horizons, ctx.shape[1], cfg.max_horizon,
                               with_time=chunks is not None, dtype=ctx.data.dtype)
    if chunks is None:
        b, n = ctx.shape[0], len(horizons)
        q = T.broadcast_to(T.reshape(params["query"], (1, 1, 1, cfg.d_model)),
                           (b, n, cfg.max_horizon, cfg.d_model))
        return oracles.run(params, cfg, ctx, T.add(q, params["action_pos"]), None, masks)
    tokens = T.add(T.linear(chunks, params["action_lift.w"], params["action_lift.b"]),
                   params["action_pos"])
    feats = T.constant(tr.sinusoidal_features(tau, cfg.d_model))
    time_token = T.linear(feats, params["time_lift.w"], params["time_lift.b"])
    return oracles.run(params, cfg, ctx, tokens, time_token, masks)


def truncated_forward(params, cfg, ctx, chunk, tau, h):
    """Unpadded single-stream reference: sequence ends at horizon h."""
    masks = build_stream_masks([h], ctx.shape[1], h, with_time=True,
                               dtype=ctx.data.dtype)
    tokens = T.add(
        T.linear(T.constant(chunk[:, None, :h, :]), params["action_lift.w"],
                 params["action_lift.b"]),
        T.take_rows(params["action_pos"], np.arange(h)),
    )
    feats = T.constant(tr.sinusoidal_features(tau, cfg.d_model))
    time_token = T.linear(feats, params["time_lift.w"], params["time_lift.b"])
    return oracles.run(params, cfg, ctx, tokens, time_token, masks)


class TestMasks:
    def test_shapes_and_validity(self):
        masks = build_stream_masks([3, 6], n_context=4, max_horizon=6,
                                   with_time=True)
        assert masks.shape == (2, 1, 11, 11)
        valid = validity_grid(build_horizon_set(6, 3)).T
        np.testing.assert_array_equal(valid, [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]])

    def test_context_rows_see_context_only(self):
        masks = build_stream_masks([2, 4], n_context=3, max_horizon=4,
                                   with_time=True)
        for s in range(2):
            ctx_rows = masks[s, 0, :3]
            assert (ctx_rows[:, :3] == 0).all()
            assert (ctx_rows[:, 3:] == T.NEG_INF).all()

    def test_invalid_rows_self_only(self):
        masks = build_stream_masks([2, 4], n_context=3, max_horizon=4,
                                   with_time=False)
        row = masks[0, 0, 3 + 3]  # step 4 of the h=2 stream
        expect = np.full(7, T.NEG_INF)
        expect[6] = 0.0
        np.testing.assert_array_equal(row, expect)

    def test_valid_position_sets_nest_across_horizons(self):
        hs = build_horizon_set(30, 3)
        valid = validity_grid(hs).T
        for i in range(len(hs) - 1):
            assert set(np.flatnonzero(valid[i])) < set(np.flatnonzero(valid[i + 1]))

    def test_horizon_beyond_max_rejected(self):
        with pytest.raises(ConfigError):
            build_stream_masks([3, 31], 4, 30, with_time=True)


# (max horizon, stride): odd N with a pad lane, and the default even-N set
LANE_SETS = {
    "stride_12_4": (12, 4),
    "stride_15_3": (15, 3),
    "stride_30_3": (30, 3),
}


horizon_lists = st.lists(st.integers(1, 12), min_size=1, max_size=9,
                         unique=True).map(sorted)


class TestLanes:
    def test_stride_set_fills_lanes_without_pad(self):
        stream, _, _ = tr.lane_layout(build_horizon_set(30, 3))
        assert stream.shape == (5, 33)
        assert (stream >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(horizon_lists)
    def test_every_valid_pair_has_exactly_one_slot(self, hs):
        stream, step, source = tr.lane_layout(horizon_set_from_list(hs))
        assert (stream >= 0).sum() == sum(hs)
        assert source.shape == (len(hs), hs[-1])
        for i, h in enumerate(hs):
            for k in range(hs[-1]):
                slots = np.flatnonzero((stream == i) & (step == k))
                if k < h:
                    assert slots.tolist() == [source[i, k]]
                else:
                    assert slots.size == 0 and source[i, k] == -1

    @settings(max_examples=60, deadline=None)
    @given(horizon_lists)
    def test_sorted_streams_pair_outside_in(self, hs):
        stream, _, _ = tr.lane_layout(horizon_set_from_list(hs))
        n = len(hs)
        expect = [{j, n - 1 - j} for j in range((n + 1) // 2)]
        assert [set(np.unique(lane[lane >= 0])) for lane in stream] == expect
        assert stream.shape[1] == max(sum(hs[i] for i in lane) for lane in expect)

    @pytest.mark.parametrize("with_time", [True, False])
    def test_mask_visibility(self, with_time):
        stream, _, _ = tr.lane_layout(horizon_set_from_list([1, 2, 7, 30]))
        c = 3
        a0 = c + int(with_time)
        prefix, lane = (m == 0.0 for m in tr.lane_masks(stream, c, with_time, dtype=np.float64))
        n_lanes, width = stream.shape
        assert prefix.shape == (a0, a0) and lane.shape == (n_lanes, width, a0 + width)
        assert prefix[:c, :c].all() and not prefix[:c, c:].any()
        if with_time:
            assert prefix[c].all()
        for j, lane_streams in enumerate(stream):
            for r, i in enumerate(lane_streams):
                row = lane[j, r]
                if i < 0:  # pad rows see only themselves
                    expect = np.zeros_like(row)
                    expect[a0 + r] = True
                else:
                    expect = np.concatenate([np.ones(a0, bool), lane_streams == i])
                np.testing.assert_array_equal(row, expect)
        assert (stream < 0).any()

    @pytest.mark.parametrize("with_time", [True, False])
    def test_plan_is_built_once_and_read_only(self, with_time):
        hs = horizon_set_from_list([1, 2, 7, 30])
        plan = tr.lane_plan(hs, 3, with_time, np.dtype(np.float32))
        assert tr.lane_plan(horizon_set_from_list([1, 2, 7, 30]), 3, with_time,
                            np.dtype(np.float32)) is plan
        slot_step, (prefix, lane), gather = plan
        stream, step, source = tr.lane_layout(hs)
        masks = tr.lane_masks(stream, 3, with_time)
        np.testing.assert_array_equal(slot_step, np.maximum(step, 0).reshape(-1))
        np.testing.assert_array_equal(prefix, masks[0])
        np.testing.assert_array_equal(lane, masks[1])
        np.testing.assert_array_equal(gather, np.where(source >= 0,
                                                       source + 3 + int(with_time), -1))
        assert prefix.dtype == lane.dtype == np.float32
        for a in (slot_step, prefix, lane, gather):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    @pytest.mark.parametrize("head", ["flow", "regression"])
    def test_default_layout(self, head, monkeypatch):
        # C=8 context rows, the flow time row, and the stride-3 set in 5 lanes of 33
        cfg = ModelConfig()
        with_time = head == "flow"
        stream, _, _ = tr.lane_layout(cfg.horizon_set())
        prefix, lane = tr.lane_masks(stream, 8, with_time)
        p = 9 if with_time else 8
        assert prefix.shape == (p, p) and lane.shape == (5, 33, p + 33)
        rows = []
        attention = T.attention

        def recording(q, *args):
            rows.append(q.shape[1])
            return attention(q, *args)

        monkeypatch.setattr(T, "attention", recording)
        rng = make_rng(14, "default-layout")
        ctx = T.constant(rng.standard_normal((1, 8, 64)))
        chunk = tau = None
        if with_time:
            chunk, tau = rng.standard_normal((1, 30, 2)), rng.random(1)
        tr.forward_multi_horizon(make_model(cfg), cfg, ctx, chunk, tau)
        assert rows == [174 if with_time else 173] * cfg.layers

    @pytest.mark.parametrize("with_time", [True, False])
    def test_invalid_outputs_exactly_zero(self, with_time):
        cfg = small_cfg(15, 3)  # 5 streams: the median one has a lane with pad rows
        params = make_model(cfg)
        rng = make_rng(12, "invalid-zero")
        ctx = T.constant(rng.standard_normal((2, 4, 32)))
        chunk = tau = None
        if with_time:
            chunk, tau = rng.standard_normal((2, 15, 2)), rng.random(2)
        hidden = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau).data
        past = ~validity_grid(cfg.horizon_set()).T
        assert (hidden[:, past] == 0.0).all()
        assert (hidden[:, ~past] != 0.0).any(axis=-1).all()


def stacked(chunk, n):
    """The padded oracle's (B, N, H, d_a) input: the one chunk in every stream."""
    return T.constant(np.broadcast_to(chunk[:, None], (chunk.shape[0], n) + chunk.shape[1:]))


class TestMaskEquivalence:
    def test_padded_matches_truncated_64bit(self):
        cfg = small_cfg(30, 3)
        params = make_model(cfg)
        hs = cfg.horizon_set()
        rng = make_rng(2, "mask-equiv")
        for trial in range(5):
            ctx = T.constant(rng.standard_normal((2, 4, 32)))
            chunk = rng.standard_normal((2, 30, 2))
            tau = rng.random(2)
            hidden = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau)
            for i, h in enumerate(hs.horizons):
                ref = truncated_forward(params, cfg, ctx, chunk, tau, h)
                np.testing.assert_allclose(hidden.data[:, i, :h], ref.data[:, 0],
                                           atol=1e-12, rtol=0)

    @pytest.mark.parametrize("with_time", [True, False])
    @pytest.mark.parametrize("name", sorted(LANE_SETS))
    def test_packed_matches_padded_oracle_64bit(self, name, with_time):
        cfg = small_cfg(*LANE_SETS[name])
        hs = cfg.horizon_set().horizons
        params = make_model(cfg)
        rng = make_rng(13, "packed-vs-padded", name)
        ctx = T.constant(rng.standard_normal((2, 4, 32)))
        chunk = tau = stacked_chunk = None
        if with_time:
            chunk = rng.standard_normal((2, cfg.max_horizon, 2))
            tau = rng.random(2)
            stacked_chunk = stacked(chunk, len(hs))
        packed = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau).data
        padded = padded_forward(params, cfg, ctx, hs, stacked_chunk, tau).data
        for i, h in enumerate(hs):
            np.testing.assert_allclose(packed[:, i, :h], padded[:, i, :h], atol=1e-12, rtol=0)

    def test_rows_past_a_horizon_never_reach_its_stream(self):
        cfg = small_cfg(15, 3)  # odd N: the median stream's lane ends in pad rows
        params = make_model(cfg)
        rng = make_rng(3, "one-chunk")
        ctx = T.constant(rng.standard_normal((2, 4, 32)))
        chunk = rng.standard_normal((2, 15, 2))
        tau = rng.random(2)
        base = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau).data
        for i, h in enumerate(cfg.horizon_set().horizons):
            noisy = chunk.copy()
            noisy[:, h:] = 1e3 * rng.standard_normal(noisy[:, h:].shape)
            out = tr.forward_multi_horizon(params, cfg, ctx, noisy, tau).data
            np.testing.assert_array_equal(out[:, i, :h], base[:, i, :h])
            if h < 15:
                assert not np.array_equal(out[:, -1], base[:, -1])

    def test_single_horizon_set_is_plain_forward(self):
        params = make_model()
        rng = make_rng(4, "single")
        ctx = T.constant(rng.standard_normal((2, 4, 32)))
        chunk = rng.standard_normal((2, 30, 2))
        tau = rng.random(2)
        hidden = tr.forward_multi_horizon(params, CFG, ctx, chunk, tau)
        assert validity_grid(CFG.horizon_set()).all()
        ref = truncated_forward(params, CFG, ctx, chunk, tau, 30)
        np.testing.assert_allclose(hidden.data[:, 0], ref.data[:, 0], atol=1e-12, rtol=0)


class TestRegressionQueries:
    def test_mask_equivalence(self):
        cfg = small_cfg(12, 4)
        params = make_model(cfg)
        ctx = make_ctx(2, 4, 32, seed=5)
        hidden = tr.forward_multi_horizon(params, cfg, ctx)
        for i, h in enumerate(cfg.horizon_set().horizons):
            masks = build_stream_masks([h], 4, h, with_time=False)
            tokens = T.add(
                T.broadcast_to(T.reshape(params["query"], (1, 1, 1, 32)), (2, 1, h, 32)),
                T.take_rows(params["action_pos"], np.arange(h)),
            )
            ref = oracles.run(params, cfg, ctx, tokens, None, masks)
            np.testing.assert_allclose(hidden.data[:, i, :h], ref.data[:, 0],
                                       atol=1e-12, rtol=0)

    def test_zero_positional_embeddings_collapse_positions(self):
        cfg = small_cfg(6)
        params = make_model(cfg)
        params["action_pos"].data[:] = 0.0
        ctx = make_ctx(1, 4, 32, seed=6)
        hidden = tr.forward_multi_horizon(params, cfg, ctx)
        first = hidden.data[:, 0, 0]
        for k in range(1, 6):
            np.testing.assert_allclose(hidden.data[:, 0, k], first, atol=1e-12)

    def test_deterministic(self):
        cfg = small_cfg(30, 10)
        params = make_model(cfg)
        ctx = make_ctx(2, 4, 32, seed=7)
        a = tr.forward_multi_horizon(params, cfg, ctx)
        b = tr.forward_multi_horizon(params, cfg, ctx)
        np.testing.assert_array_equal(a.data, b.data)


class TestNonCausality:
    def test_swapping_positions_swaps_outputs(self):
        cfg = small_cfg(8)
        params = make_model(cfg)
        ctx = make_ctx(1, 4, 32, seed=8)
        rng = make_rng(9, "perm")
        chunk = rng.standard_normal((1, 8, 2))
        tau = np.array([0.3])
        out_a = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau)

        swapped = chunk.copy()
        swapped[:, [2, 5]] = swapped[:, [5, 2]]
        pos = params["action_pos"].data
        pos[[2, 5]] = pos[[5, 2]]
        out_b = tr.forward_multi_horizon(params, cfg, ctx, swapped, tau)
        pos[[2, 5]] = pos[[5, 2]]  # restore

        np.testing.assert_allclose(out_b.data[0, 0, [5, 2]], out_a.data[0, 0, [2, 5]],
                                   atol=1e-10)


ENC_CFG = ModelConfig(obs_dim=5, n_tasks=3, context_tokens=4, d_model=8, encoder_hidden=16)


class TestEncoder:
    def test_zero_weights_leave_positional_embeddings(self):
        params = init_encoder_params(0, ENC_CFG, dtype=np.float64)
        for name in ("encoder.w1", "encoder.w2", "encoder.task"):
            params[name].data[:] = 0.0
        out = encode(params, ENC_CFG, np.zeros((2, 5)), np.array([0, 2]))
        np.testing.assert_allclose(out.data, np.broadcast_to(params["encoder.pos"].data, (2, 4, 8)),
                                   atol=1e-15)

    def test_identical_observations_identical_contexts(self):
        params = init_encoder_params(1, ENC_CFG, dtype=np.float64)
        obs = make_rng(10, "obs").standard_normal((1, 5))
        a = encode(params, ENC_CFG, obs, np.array([1]))
        b = encode(params, ENC_CFG, obs, np.array([1]))
        np.testing.assert_array_equal(a.data, b.data)

    def test_nondegenerate_jacobian(self):
        params = init_encoder_params(2, ENC_CFG, dtype=np.float64)
        obs = make_rng(11, "obs2").standard_normal((1, 5))
        base = encode(params, ENC_CFG, obs, np.array([0])).data
        for j in range(5):
            bumped = obs.copy()
            bumped[0, j] += 1e-3
            out = encode(params, ENC_CFG, bumped, np.array([0])).data
            assert np.abs(out - base).max() > 0

    def test_dimension_mismatch_rejected(self):
        params = init_encoder_params(3, ENC_CFG)
        with pytest.raises(ConfigError):
            encode(params, ENC_CFG, np.zeros((2, 7)), np.array([0, 0]))

    def test_unknown_task_rejected(self):
        params = init_encoder_params(4, ENC_CFG)
        with pytest.raises(ConfigError):
            encode(params, ENC_CFG, np.zeros((1, 5)), np.array([3]))

    def test_negative_task_rejected(self):
        # numpy would wrap -1 around to the last task's embedding
        params = init_encoder_params(4, ENC_CFG)
        with pytest.raises(ConfigError, match="task id -1"):
            encode(params, ENC_CFG, np.zeros((2, 5)), np.array([0, -1]))
