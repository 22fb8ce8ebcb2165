"""Flow, regression, and classification heads against direct oracles."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix import heads as hd
from horizonmix import tensor as T
from horizonmix import transformer as tr
from horizonmix.errors import ConfigError
from horizonmix.mixture import build_horizon_set, fuse, gate, validity_grid
from horizonmix.policy import ModelConfig, Normalization, Policy
from horizonmix.rng import make_rng

CFG = ModelConfig(head="flow", layers=2, heads=2, d_model=32, d_ff=64,
                  context_tokens=4, encoder_hidden=32, max_horizon=6, stride=2,
                  obs_dim=5, n_tasks=3, d_a=2, bins=8, ode_steps=4)


def make_policy(head="flow", seed=0, **overrides):
    cfg = ModelConfig(**{**CFG.__dict__, "head": head, **overrides})
    return Policy.init(cfg, seed=seed, dtype=np.float64)


def make_batch(seed=0, b=3, cfg=CFG):
    rng = make_rng(seed, "batch")
    obs = rng.standard_normal((b, cfg.obs_dim))
    task_ids = rng.integers(0, cfg.n_tasks, size=b)
    chunks = rng.standard_normal((b, cfg.max_horizon, cfg.d_a))
    valid = np.ones((b, cfg.max_horizon), dtype=bool)
    return obs, task_ids, chunks, valid


class TestFlowTarget:
    def test_zero_noise(self):
        a = make_rng(1, "ft").standard_normal((6, 2))
        np.testing.assert_array_equal(hd.flow_target(np.zeros_like(a), a), a)

    def test_noise_equals_target(self):
        a = make_rng(2, "ft").standard_normal((6, 2))
        np.testing.assert_array_equal(hd.flow_target(a, a), np.zeros_like(a))

    def test_interpolant_velocity_finite_difference(self):
        rng = make_rng(3, "ft")
        eps, a = rng.standard_normal((2, 6, 2))
        u = hd.flow_target(eps, a)
        for tau in (0.2, 0.7):
            h = 1e-6
            x_hi = (1 - tau - h) * eps + (tau + h) * a
            x_lo = (1 - tau + h) * eps + (tau - h) * a
            np.testing.assert_allclose((x_hi - x_lo) / (2 * h), u, atol=1e-8)


class TestFlowLoss:
    def test_zero_output_model_matches_monte_carlo(self):
        policy = make_policy("flow")
        policy.params["head.w"].data[:] = 0.0
        policy.params["head.b"].data[:] = 0.0
        obs, task_ids, chunks, valid = make_batch(4)
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(5, "draw"))
        # replicate the draws to compute the sample statistic
        rng = make_rng(5, "draw")
        rng.random(3)
        eps = rng.standard_normal(chunks.shape)
        u = chunks - eps
        np.testing.assert_allclose(out.l_mix.item(), np.mean(u**2), atol=1e-10)
        expect_ind = sum(np.mean(u[:, :h] ** 2) for h in policy.horizons)
        np.testing.assert_allclose(out.l_ind.item(), expect_ind, atol=1e-10)

    def test_per_horizon_loss_ignores_rows_beyond_horizon(self):
        policy = make_policy("flow")
        obs, task_ids, chunks, valid = make_batch(6)
        bumped = chunks.copy()
        bumped[:, 2:, :] += 10.0  # rows beyond the first horizon (h=2)
        _, per_a, _ = self._raw_losses(policy, obs, task_ids, chunks, valid, seed=7)
        _, per_b, _ = self._raw_losses(policy, obs, task_ids, bumped, valid, seed=7)
        assert per_a.data[0] == pytest.approx(per_b.data[0], abs=1e-12)
        assert per_a.data[-1] != pytest.approx(per_b.data[-1], abs=1e-6)

    @staticmethod
    def _raw_losses(policy, obs, task_ids, chunks, valid, seed):
        out, alpha = policy.loss(obs, task_ids, chunks, valid, make_rng(seed, "d"))
        return out.l_mix, out.per_horizon, alpha

    def test_loss_components_match_direct_recomputation(self):
        policy = make_policy("flow", seed=2)
        obs, task_ids, chunks, valid = make_batch(8)
        valid[:, -2:] = False  # exercise dataset padding
        l_mix, per_h, alpha = self._raw_losses(policy, obs, task_ids, chunks, valid,
                                               seed=9)
        rng = make_rng(9, "d")
        tau = rng.random(3)
        eps = rng.standard_normal(chunks.shape)
        u = chunks - eps
        v = np.stack([
            policy.params["head.b"].data + h @ policy.params["head.w"].data
            for h in self._hidden(policy, obs, task_ids, chunks, tau, eps)
        ], axis=1)
        fused = np.einsum("bnkd,bkn->bkd", v, alpha.data)
        mse = ((fused - u) ** 2 * valid[..., None]).sum() / (valid.sum() * 2)
        np.testing.assert_allclose(l_mix.item(), mse, atol=1e-11)
        sv = validity_grid(policy.horizons).T
        for i in range(len(policy.horizons)):
            w = (sv[i][None] & valid)[..., None]
            ref = ((v[:, i] - u) ** 2 * w).sum() / (w.sum() * 2)
            np.testing.assert_allclose(per_h.data[i], ref, atol=1e-11)

    @staticmethod
    def _hidden(policy, obs, task_ids, chunks, tau, eps):
        ctx = policy.encode_context(obs, task_ids)
        x = (1 - tau)[:, None, None] * eps + tau[:, None, None] * chunks
        hidden = tr.forward_multi_horizon(policy.params, policy.cfg, ctx, x, tau)
        return [hidden.data[:, i] for i in range(len(policy.horizons))]


class TestFlowInfer:
    def _constant_field_policy(self, u, ode_steps=CFG.ode_steps):
        policy = make_policy("flow", seed=3, ode_steps=ode_steps)
        for name, p in policy.params.items():
            if name.startswith("head."):
                p.data[:] = 0.0
        policy.params["head.b"].data[:] = np.asarray(u)
        return policy

    def test_one_step_integration_of_constant_field(self):
        u = np.array([0.5, -1.25])
        policy = self._constant_field_policy(u, ode_steps=1)
        obs, task_ids, _, _ = make_batch(10, b=2)
        fused, per_h, _ = policy.predict(obs, task_ids, rng=make_rng(11, "n"))
        rng = make_rng(11, "n")
        eps = rng.standard_normal((2, 6, 2))
        np.testing.assert_allclose(fused, eps + u, atol=1e-12)
        np.testing.assert_allclose(per_h, np.broadcast_to(eps[:, None] + u, per_h.shape),
                                   atol=1e-12)

    def test_step_count_invariance_on_constant_field(self):
        u = np.array([0.5, -1.25])
        obs, task_ids, _, _ = make_batch(12, b=2)
        one, ten = (self._constant_field_policy(u, ode_steps=k).predict(
            obs, task_ids, rng=make_rng(13, "n"))[0] for k in (1, 10))
        np.testing.assert_allclose(one, ten, atol=1e-12)

    def test_single_horizon_fused_equals_own_trajectory(self):
        policy = make_policy("flow", stride=6)  # HorizonSet {6}
        obs, task_ids, _, _ = make_batch(14, b=2)
        fused, per_h, alpha = policy.predict(obs, task_ids, rng=make_rng(15, "n"))
        np.testing.assert_array_equal(fused, per_h[:, 0])
        np.testing.assert_array_equal(alpha, np.ones_like(alpha))

    @pytest.mark.parametrize("stride", [2, 1])  # N = 3 and N = 6 streams
    def test_per_horizon_predictions_follow_the_fused_trajectory(self, stride):
        policy = make_policy("flow", stride=stride)
        params, cfg, horizons = policy.params, policy.cfg, policy.horizons
        b, h_max = 2, cfg.max_horizon
        obs, task_ids, _, _ = make_batch(20, b=b)
        ctx = policy.encode_context(obs, task_ids)
        fused, per_h, alpha = hd.flow_infer(params, cfg, ctx, make_rng(21, "n"))

        eps = make_rng(21, "n").standard_normal((b, h_max, cfg.d_a))
        dtau = 1.0 / cfg.ode_steps
        x, own, alpha_sum = eps.copy(), [eps.copy() for _ in horizons], 0.0
        for s in range(cfg.ode_steps):
            tau = np.full(b, s * dtau)
            hidden = tr.forward_multi_horizon(params, cfg, ctx, x, tau)
            out = T.linear(hidden, params["head.w"], params["head.b"])
            a = gate(params, hidden, horizons, cfg.fusion)
            for i, h in enumerate(horizons):
                alone_cfg = replace(cfg, max_horizon=h, stride=h)  # stream i alone
                alone = tr.forward_multi_horizon(params, alone_cfg, ctx, x[:, :h], tau)
                v = T.linear(alone, params["head.w"], params["head.b"]).data[:, 0]
                own[i][:, :h] = own[i][:, :h] + dtau * v
            x = x + dtau * fuse(out, a).data
            alpha_sum = alpha_sum + a.data
        np.testing.assert_allclose(fused, x, atol=1e-12, rtol=0)
        np.testing.assert_allclose(alpha, alpha_sum / cfg.ode_steps, atol=1e-12, rtol=0)
        for i, h in enumerate(horizons):
            np.testing.assert_allclose(per_h[:, i, :h], own[i][:, :h], atol=1e-12, rtol=0)

    def test_every_euler_step_forwards_the_b_context_rows(self, monkeypatch):
        policy = make_policy("flow")
        obs, task_ids, _, _ = make_batch(22, b=3)
        ctx = policy.encode_context(obs, task_ids)
        rows = []
        forward = tr.forward_multi_horizon

        def recording(params, cfg, ctx, *args, **kwargs):
            rows.append(ctx.shape[0])
            return forward(params, cfg, ctx, *args, **kwargs)

        monkeypatch.setattr(tr, "forward_multi_horizon", recording)
        hd.flow_infer(policy.params, policy.cfg, ctx, make_rng(23, "n"))
        assert rows == [3] * policy.cfg.ode_steps

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("flow", ode_steps=0)

    def test_missing_rng_rejected(self):
        policy = make_policy("flow")
        obs, task_ids, _, _ = make_batch(18, b=1)
        with pytest.raises(ConfigError):
            policy.predict(obs, task_ids)


class TestQuantize:
    GRID = hd.BinGrid(lo=(0.0,), hi=(1.0,), bins=2)

    def test_midpoints(self):
        assert hd.quantize(np.array([0.25]), self.GRID)[0] == 1
        assert hd.quantize(np.array([0.75]), self.GRID)[0] == 2

    def test_interior_boundary_goes_higher(self):
        assert hd.quantize(np.array([0.5]), self.GRID)[0] == 2

    def test_max_maps_to_last_bin(self):
        assert hd.quantize(np.array([1.0]), self.GRID)[0] == 2

    def test_out_of_range_clamped(self):
        assert hd.quantize(np.array([-3.0]), self.GRID)[0] == 1
        assert hd.quantize(np.array([7.0]), self.GRID)[0] == 2

    def test_round_trip_error_bounded(self):
        grid = hd.BinGrid(lo=(-2.0,), hi=(3.0,), bins=64)
        values = np.linspace(-2.0, 3.0, 5001)[:, None]
        back = hd.dequantize(hd.quantize(values, grid), grid)
        assert np.abs(back - values).max() <= grid.width[0] / 2 + 1e-12

    def test_fit_grid_covers_percentiles(self):
        rng = make_rng(19, "grid")
        actions = rng.standard_normal((1000, 4, 2))
        grid = hd.fit_bin_grid(actions, bins=16)
        lo, hi = grid.arrays()
        flat = actions.reshape(-1, 2)
        assert (lo < np.percentile(flat, 1, axis=0)).all()
        assert (hi > np.percentile(flat, 99, axis=0)).all()


class TestClassificationLoss:
    def test_uniform_distribution_gives_log_bins(self):
        policy = make_policy("classification")
        policy.params["head.w"].data[:] = 0.0
        policy.params["head.b"].data[:] = 0.0
        obs, task_ids, chunks, valid = make_batch(20)
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(21, "d"))
        lnb = np.log(CFG.bins)
        np.testing.assert_allclose(out.l_mix.item(), 6 * 2 * lnb, atol=1e-9)
        expect_ind = sum(h * 2 * lnb for h in policy.horizons)
        np.testing.assert_allclose(out.l_ind.item(), expect_ind, atol=1e-9)

    def test_confident_correct_prediction_near_zero(self):
        policy = make_policy("classification")
        grid = policy.grid
        value = hd.dequantize(np.array([3, 5]), grid)  # centers of bins 3 and 5
        target_bins = hd.quantize(value, grid) - 1
        policy.params["head.w"].data[:] = 0.0
        bias = np.full((CFG.d_a, CFG.bins), -100.0)
        bias[np.arange(2), target_bins] = 100.0
        policy.params["head.b"].data[:] = bias.reshape(-1)
        obs, task_ids, _, valid = make_batch(22)
        chunks = np.broadcast_to(value, (3, 6, 2)).copy()
        # identity normalization keeps targets in grid space
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(23, "d"))
        assert out.l_mix.item() < 1e-9
        assert out.l_ind.item() < 1e-9

    def test_random_case_matches_nll_oracle(self):
        policy = make_policy("classification", seed=5)
        obs, task_ids, chunks, valid = make_batch(24)
        valid[:, -1] = False
        ctx = policy.encode_context(obs, task_ids)
        target = policy.norm.normalize_actions(chunks)
        out, alpha = policy.loss(obs, task_ids, chunks, valid, None)
        l_mix, per_h = out.l_mix, out.per_horizon

        hidden = tr.forward_multi_horizon(policy.params, policy.cfg, ctx)
        raw = hidden.data @ policy.params["head.w"].data + policy.params["head.b"].data
        logits = raw.reshape(3, len(policy.horizons), 6, 2, CFG.bins)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        bins0 = hd.quantize(target, policy.grid) - 1
        sv = validity_grid(policy.horizons).T
        b_i, k_i, d_i = np.meshgrid(range(3), range(6), range(2), indexing="ij")
        for i in range(len(policy.horizons)):
            picked = np.log(probs[:, i][b_i, k_i, d_i, bins0])
            w = sv[i][None] & valid
            ref = -(picked * w[..., None]).sum() / 3
            np.testing.assert_allclose(per_h.data[i], ref, atol=1e-10)
        fused = np.einsum("bnkdc,bkn->bkdc", probs, alpha.data)
        picked = np.log(fused[b_i, k_i, d_i, bins0] + hd.PROB_FLOOR)
        ref_mix = -(picked * valid[..., None]).sum() / 3
        np.testing.assert_allclose(l_mix.item(), ref_mix, atol=1e-10)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_fused_distributions_are_probability_vectors(self, seed):
        policy = make_policy("classification", seed=seed % 7)
        rng = make_rng(seed, "probs")
        obs = rng.standard_normal((2, CFG.obs_dim))
        ctx = policy.encode_context(obs, np.array([0, 1]))
        _, fused, _, _ = hd._fused_forward(policy.params, policy.cfg, ctx)
        fused = fused.data
        assert (fused >= 0).all()
        np.testing.assert_allclose(fused.sum(axis=-1), 1.0, atol=1e-6)


class TestRegressionLoss:
    def test_constant_offset_gives_h_times_da(self):
        policy = make_policy("regression")
        for name in ("head.w",):
            policy.params[name].data[:] = 0.0
        policy.params["head.b"].data[:] = np.array([2.0, -1.0])
        obs, task_ids, _, valid = make_batch(26)
        chunks = np.broadcast_to(np.array([1.0, -2.0]), (3, 6, 2)).copy()
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(27, "d"))
        np.testing.assert_allclose(out.l_mix.item(), 6 * 2, atol=1e-9)
        expect_ind = sum(h * 2 for h in policy.horizons)
        np.testing.assert_allclose(out.l_ind.item(), expect_ind, atol=1e-9)

    def test_exact_prediction_gives_zero(self):
        policy = make_policy("regression")
        policy.params["head.w"].data[:] = 0.0
        policy.params["head.b"].data[:] = np.array([0.5, 0.5])
        obs, task_ids, _, valid = make_batch(28)
        chunks = np.full((3, 6, 2), 0.5)
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(29, "d"))
        assert out.l_mix.item() == pytest.approx(0.0, abs=1e-12)
        assert out.l_ind.item() == pytest.approx(0.0, abs=1e-12)

    def test_random_case_matches_l1_oracle(self):
        policy = make_policy("regression", seed=6)
        obs, task_ids, chunks, valid = make_batch(30)
        ctx = policy.encode_context(obs, task_ids)
        target = policy.norm.normalize_actions(chunks)
        out, alpha = policy.loss(obs, task_ids, chunks, valid, None)
        l_mix, per_h = out.l_mix, out.per_horizon
        hidden = tr.forward_multi_horizon(policy.params, policy.cfg, ctx)
        preds = hidden.data @ policy.params["head.w"].data + policy.params["head.b"].data
        fused = np.einsum("bnkd,bkn->bkd", preds, alpha.data)
        np.testing.assert_allclose(l_mix.item(), np.abs(fused - target).sum() / 3,
                                   atol=1e-11)
        sv = validity_grid(policy.horizons).T
        for i in range(len(policy.horizons)):
            ref = (np.abs(preds[:, i] - target) * sv[i][None, :, None]).sum() / 3
            np.testing.assert_allclose(per_h.data[i], ref, atol=1e-11)


class TestFusion:
    @pytest.mark.parametrize("head", hd.HEAD_TYPES)
    def test_uniform_fusion_weights_active_horizons_equally(self, head):
        policy = make_policy(head, fusion="uniform")
        obs, task_ids, chunks, valid = make_batch(37)
        out, loss_alpha = policy.loss(obs, task_ids, chunks, valid, make_rng(38, "d"))
        _, _, alpha = policy.predict(obs, task_ids, rng=make_rng(39, "n"))
        grid = validity_grid(policy.horizons)
        expect = np.where(grid, 1.0 / grid.sum(axis=1, keepdims=True), 0.0)
        for a in (loss_alpha.data, alpha):
            np.testing.assert_allclose(a, np.broadcast_to(expect, a.shape), rtol=0,
                                       atol=1e-15)
            assert (a[:, ~grid] == 0.0).all()
        assert out.l_bal.item() == 0.0

    def test_gated_regression_fuses_per_horizon_actions(self):
        policy = make_policy("regression", seed=4)
        obs, task_ids, _, _ = make_batch(40)
        fused, per_h, alpha = policy.predict(obs, task_ids)
        np.testing.assert_allclose(fused, np.einsum("bnkd,bkn->bkd", per_h, alpha),
                                   rtol=0, atol=1e-12)


class TestPolicyInterface:
    @pytest.mark.parametrize("head", hd.HEAD_TYPES)
    def test_loss_and_predict_shapes(self, head):
        policy = make_policy(head)
        obs, task_ids, chunks, valid = make_batch(31)
        out, loss_alpha = policy.loss(obs, task_ids, chunks, valid, make_rng(32, "d"))
        assert np.isfinite(out.total.item())
        assert loss_alpha.shape == (3, 6, 3)
        fused, per_h, alpha = policy.predict(obs, task_ids, rng=make_rng(33, "n"))
        assert fused.shape == (3, 6, 2)
        assert per_h.shape == (3, 3, 6, 2)
        assert alpha.shape == (3, 6, 3)

    @pytest.mark.parametrize("head", hd.HEAD_TYPES)
    def test_per_horizon_flag_only_drops_the_streams(self, head):
        policy = make_policy(head).detached()
        obs, task_ids, _, _ = make_batch(39, b=2)
        fused, per_h, alpha = policy.predict(obs, task_ids, rng=make_rng(40, "n"))
        alone, none, alpha_alone = policy.predict(obs, task_ids, rng=make_rng(40, "n"),
                                                  need_per_horizon=False)
        assert per_h.shape == (2, 3, 6, 2)
        assert none is None
        np.testing.assert_array_equal(alone, fused)
        np.testing.assert_array_equal(alpha_alone, alpha)

    @pytest.mark.parametrize("b", [1, 2])
    def test_default_flow_loss_tape_has_116_nodes(self, b):
        # leaves included: the 82 leaves, the shard node and its three
        # outputs, the sums over examples, the balance loss and the
        # objective. Each shard's graph sits behind the shard node; in it
        # each MLP (4 FFNs, which add their block's residual, and the
        # encoder) is one node, so a split of a fused node shows in the
        # shard count. Neither count depends on B.
        cfg = ModelConfig(head="flow")
        policy = Policy.init(cfg, seed=0)
        obs, task_ids, chunks, valid = make_batch(37, b=b, cfg=cfg)
        out, _ = policy.loss(obs, task_ids, chunks, valid, make_rng(38, "d"))
        assert len(T.linearize(out.total)) == 116
        inputs = hd.loss_inputs(cfg, chunks, valid, make_rng(38, "d"), policy.dtype)
        shard = hd.example_losses(policy.params, cfg, policy.encode_context(obs, task_ids),
                                  None, **inputs)
        assert len(T.linearize(*shard)) == 157

    @pytest.mark.parametrize("head", hd.HEAD_TYPES)
    def test_predict_deterministic(self, head):
        policy = make_policy(head).detached()
        obs, task_ids, _, _ = make_batch(34, b=2)
        a = policy.predict(obs, task_ids, rng=make_rng(35, "n"))[0]
        b = policy.predict(obs, task_ids, rng=make_rng(35, "n"))[0]
        np.testing.assert_array_equal(a, b)

    def test_normalization_round_trip(self):
        rng = make_rng(36, "norm")
        norm = Normalization.from_data(rng.standard_normal((50, 5)) * 3 + 1,
                                       rng.standard_normal((50, 6, 2)) * 0.01)
        actions = rng.standard_normal((4, 6, 2)) * 0.01
        np.testing.assert_allclose(
            norm.denormalize_actions(norm.normalize_actions(actions)), actions,
            atol=1e-12)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def predict_digests() -> dict[str, str]:
    """Digest of (fused, per-horizon, alpha) of each head's float32
    ``predict`` at the test config, at B=1 and B=3."""
    out = {}
    for head in hd.HEAD_TYPES:
        policy = Policy.init(replace(CFG, head=head), seed=0).detached()
        for b in (1, 3):
            obs, task_ids, _, _ = make_batch(41, b=b)
            out[f"{head}@{b}"] = _digest(*policy.predict(obs, task_ids, rng=make_rng(42, "n")))
    return out


def loss_digests() -> dict[str, str]:
    """Digest of each head's float32 loss total and every parameter
    gradient, by name, at the test config; parameters the head does not
    use have none."""
    out = {}
    for head in hd.HEAD_TYPES:
        policy = Policy.init(replace(CFG, head=head), seed=0)
        obs, task_ids, chunks, valid = make_batch(43)
        valid[0, 4:] = False
        total = policy.loss(obs, task_ids, chunks, valid, make_rng(44, "d"))[0].total
        T.backward(total)
        grads = [policy.params[k].grad for k in sorted(policy.params)]
        out[head] = _digest(total.data, *(g for g in grads if g is not None))
    return out


# What predict and loss gave before the forward stopped rebuilding its lane
# plan, moved attention's scale onto q and GELU's ½ off the hidden elements,
# and folded the FFN residual into T.mlp: each of those is exact at these
# shapes, so the bits must not move. The loss bits moved once since, when the
# loss started to run as two shards of the batch, whose float32 sums run per
# half. A change that means to move them updates these constants and says so
# in CHANGES.md.
PREDICT_DIGESTS = {"flow@1": "4f2a85251fc53476", "flow@3": "f43281f3740e482c",
                   "regression@1": "803a49ff53a02161", "regression@3": "138be5c347b7384f",
                   "classification@1": "666a622ef834ede9",
                   "classification@3": "d5af6f8b3647e2ed"}
LOSS_DIGESTS = {"flow": "32d6ac8faf972427", "regression": "d6deb546c56e6e62",
                "classification": "92523e7b0e32eaf1"}


def test_predict_bits_are_pinned():
    assert predict_digests() == PREDICT_DIGESTS


def test_loss_and_gradient_bits_are_pinned():
    assert loss_digests() == LOSS_DIGESTS
