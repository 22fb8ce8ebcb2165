"""Gate, fusion, balance loss, and objective assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix import tensor as T
from horizonmix.errors import ConfigError, ShapeMismatchError
from horizonmix.mixture import (HorizonSet, balance_loss, build_horizon_set, fuse, gate,
                                init_gate_params, moh_objective, validity_grid)
from horizonmix.policy import ModelConfig
from horizonmix.rng import make_rng

from horizons import horizon_set_from_list


def truncate(chunk: np.ndarray, h: int) -> np.ndarray:
    """First h rows of an H-step chunk, unmodified."""
    if h > chunk.shape[-2]:
        raise ConfigError(f"horizon {h} exceeds chunk length {chunk.shape[-2]}")
    return chunk[..., :h, :]


class TestHorizonSet:
    def test_default_configuration(self):
        hs = build_horizon_set(30, 3)
        assert hs.horizons == (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
        assert len(hs) == 10

    def test_stride_ten(self):
        assert build_horizon_set(30, 10).horizons == (10, 20, 30)

    def test_degenerate_single_horizon(self):
        assert build_horizon_set(30, 30).horizons == (30,)

    def test_non_divisible_stride_rejected(self):
        with pytest.raises(ConfigError):
            build_horizon_set(30, 4)

    def test_active_horizons(self):
        hs = build_horizon_set(30, 3)
        valid = validity_grid(hs)
        active = np.asarray(hs.horizons)
        assert tuple(active[valid[7 - 1]]) == (9, 12, 15, 18, 21, 24, 27, 30)
        assert tuple(active[valid[30 - 1]]) == (30,)

    def test_validity_grid_built_once_and_read_only(self):
        grid = validity_grid(build_horizon_set(30, 3))
        assert validity_grid(horizon_set_from_list(list(range(3, 31, 3)))) is grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = False

    def test_from_list_rejects_unsorted(self):
        with pytest.raises(ConfigError):
            horizon_set_from_list([4, 2, 6])

    def test_max_horizon_is_last_horizon(self):
        assert HorizonSet((1, 2, 4, 7)).max_horizon == 7
        assert build_horizon_set(30, 3).max_horizon == 30


class TestTruncate:
    def test_full_horizon_identity(self):
        chunk = make_rng(0, "trunc").standard_normal((30, 2))
        np.testing.assert_array_equal(truncate(chunk, 30), chunk)

    def test_first_action_only(self):
        chunk = make_rng(1, "trunc").standard_normal((30, 2))
        np.testing.assert_array_equal(truncate(chunk, 1), chunk[:1])

    def test_prefix_rows(self):
        chunk = make_rng(2, "trunc").standard_normal((30, 2))
        np.testing.assert_array_equal(truncate(chunk, 10), chunk[:10])

    def test_beyond_length_rejected(self):
        with pytest.raises(ConfigError):
            truncate(np.zeros((30, 2)), 31)


def random_gate(seed, b=4, hs=None, d_model=16):
    """(alpha, horizon set, gate params, hidden states) of a random gate."""
    hs = hs or build_horizon_set(30, 3)
    params = init_gate_params(seed, ModelConfig(d_model=d_model), dtype=np.float64)
    hidden = T.constant(make_rng(seed, "hidden").standard_normal((b, len(hs), hs.max_horizon, d_model)))
    return gate(params, hidden, hs, "gated"), hs, params, hidden


class TestGate:
    def test_equal_logits_step7_give_one_eighth(self):
        hs = build_horizon_set(30, 3)
        params = init_gate_params(0, ModelConfig(d_model=8), dtype=np.float64)
        params["gate.w"].data[:] = 0.0  # all logits equal the bias
        hidden = T.constant(make_rng(3, "h").standard_normal((1, 10, 30, 8)))
        alpha = gate(params, hidden, hs, "gated").data
        assert validity_grid(hs)[6].sum() == 8  # step 7
        np.testing.assert_allclose(alpha[0, 6, 2:], np.full(8, 1 / 8), atol=1e-12)
        np.testing.assert_array_equal(alpha[0, 6, :2], [0.0, 0.0])

    def test_single_horizon_alpha_all_ones(self):
        hs = build_horizon_set(30, 30)
        params = init_gate_params(1, ModelConfig(d_model=8), dtype=np.float64)
        hidden = T.constant(make_rng(4, "h").standard_normal((2, 1, 30, 8)))
        alpha = gate(params, hidden, hs, "gated")
        np.testing.assert_array_equal(alpha.data, np.ones((2, 30, 1)))

    def test_matches_direct_exp_normalize(self):
        alpha, hs, params, hidden = random_gate(5)
        valid = validity_grid(hs)
        scores = hidden.data @ params["gate.w"].data + params["gate.b"].data
        logits = scores[..., 0].transpose(0, 2, 1)
        e = np.where(valid, np.exp(logits - logits.max(axis=-1, keepdims=True)), 0.0)
        ref = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(alpha.data, ref, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_normalization_invariant(self, seed):
        alpha, hs, _, _ = random_gate(seed, b=2)
        sums = alpha.data.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-6)
        assert (alpha.data[:, ~validity_grid(hs)] == 0.0).all()

    def test_shape_mismatch_rejected(self):
        hs = build_horizon_set(30, 3)
        params = init_gate_params(2, ModelConfig(d_model=8), dtype=np.float64)
        hidden = T.constant(np.zeros((1, 9, 30, 8)))
        with pytest.raises(ShapeMismatchError):
            gate(params, hidden, hs, "gated")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("horizons", [range(1, 31), range(3, 31, 3), range(5, 31, 5),
                                          (1, 2, 4, 7)], ids=["s1", "s3", "s5", "1247"])
    def test_uniform_splits_each_step_evenly(self, dtype, horizons):
        hs = horizon_set_from_list(horizons)
        hidden = T.param(np.ones((2, len(hs), hs.max_horizon, 4), dtype=dtype))
        alpha = gate({}, hidden, hs, "uniform")
        valid = validity_grid(hs)
        expect = valid.astype(dtype) / valid.sum(axis=1, keepdims=True)
        assert not alpha.requires_grad and alpha.dtype == dtype
        np.testing.assert_array_equal(alpha.data, np.broadcast_to(expect.astype(dtype),
                                                                  alpha.shape))


class TestFuse:
    def test_consensus_value_passes_through(self):
        alpha, hs, _, _ = random_gate(6, b=2)
        preds = np.tile(np.float64(1.75), (2, len(hs), 30, 2))
        fused = fuse(T.constant(preds), alpha)
        np.testing.assert_allclose(fused.data, np.full((2, 30, 2), 1.75), atol=1e-12)

    def test_one_hot_alpha_selects_horizon(self):
        b, n, h = 1, 3, 6
        alpha = np.zeros((b, h, n))
        alpha[:, :2, 0] = 1.0  # steps 1-2 -> horizon 2
        alpha[:, 2:, 2] = 1.0  # steps 3-6 -> horizon 6
        preds = make_rng(7, "preds").standard_normal((b, n, h, 2))
        fused = fuse(T.constant(preds), T.constant(alpha)).data
        np.testing.assert_array_equal(fused[:, :2], preds[:, 0, :2])
        np.testing.assert_array_equal(fused[:, 2:], preds[:, 2, 2:])

    def test_hand_arithmetic(self):
        alpha = np.array([[[0.25, 0.75], [0.0, 1.0]]])
        preds = np.zeros((1, 2, 2, 1))
        preds[0, 0, 0, 0] = 0.0
        preds[0, 1, 0, 0] = 4.0
        assert fuse(T.constant(preds), T.constant(alpha)).data[0, 0, 0] == pytest.approx(3.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_fused_in_convex_hull(self, seed):
        alpha, hs, _, _ = random_gate(seed, b=2)
        preds = make_rng(seed, "hull").standard_normal((2, len(hs), 30, 2))
        fused = fuse(T.constant(preds), alpha).data
        valid = validity_grid(hs)
        for k in range(30):
            active = np.flatnonzero(valid[k])
            lo = preds[:, active, k].min(axis=1) - 1e-9
            hi = preds[:, active, k].max(axis=1) + 1e-9
            assert (fused[:, k] >= lo).all() and (fused[:, k] <= hi).all()


class TestBalanceLoss:
    def test_uniform_usage_is_zero(self):
        hs = build_horizon_set(30, 3)
        alpha = np.where(validity_grid(hs), 1.0, 0.0)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        out = balance_loss(T.constant(alpha[None]), hs)
        assert out.item() == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 3, 5])
    def test_uniform_gate_is_exactly_zero(self, dtype, stride):
        hs = build_horizon_set(30, stride)
        hidden = T.constant(np.zeros((64, len(hs), 30, 4), dtype=dtype))
        out = balance_loss(gate({}, hidden, hs, "uniform"), hs)
        assert out.dtype == dtype and out.item() == 0.0

    def test_hand_case_point_one_two_five(self):
        hs = horizon_set_from_list([1, 2, 3])
        alpha = np.zeros((1, 3, 3))
        alpha[0, 0] = [0.5, 0.25, 0.25]  # interval 1: all three active
        alpha[0, 1] = [0.0, 0.5, 0.5]
        alpha[0, 2] = [0.0, 0.0, 1.0]
        # intervals 2 (two active: CV^2 of [0.5, 0.5] = 0) and 3 (skipped)
        out = balance_loss(T.constant(alpha[None][0]), hs)
        assert out.item() == pytest.approx((0.125 + 0.0) / 2, abs=1e-9)

    def test_single_interval_hand_case(self):
        hs = horizon_set_from_list([1, 2])
        alpha = np.array([[[0.5, 0.5], [0.0, 1.0]]])
        # interval 1 usage [0.5, 0.5] -> 0; interval 2 skipped
        assert balance_loss(T.constant(alpha), hs).item() == pytest.approx(0.0, abs=1e-9)

    def test_single_horizon_is_zero(self):
        hs = build_horizon_set(30, 30)
        alpha = np.ones((4, 30, 1))
        assert balance_loss(T.constant(alpha), hs).item() == 0.0

    def test_direct_recomputation_oracle(self):
        hs = build_horizon_set(12, 3)
        rng = make_rng(8, "bal")
        raw = rng.random((5, 12, 4)) * validity_grid(hs)
        alpha = raw / raw.sum(axis=-1, keepdims=True)
        out = balance_loss(T.constant(alpha), hs).item()

        terms = []
        bounds = [0, 3, 6, 9, 12]
        for i in range(4):
            active = list(range(i, 4))
            if len(active) <= 1:
                continue
            usage = alpha[:, bounds[i]:bounds[i + 1], active].mean(axis=(0, 1))
            terms.append(usage.var() / (usage.mean() ** 2 + 1e-10))
        assert out == pytest.approx(float(np.mean(terms)), abs=1e-10)

    def test_gradient_flows(self):
        hs = horizon_set_from_list([2, 4])
        logits = T.param(make_rng(9, "bal-grad").standard_normal((2, 4, 2)))
        alpha = T.masked_softmax(logits, np.broadcast_to(validity_grid(hs), (2, 4, 2)))
        T.backward(balance_loss(alpha, hs))
        assert logits.grad is not None and np.abs(logits.grad).sum() > 0


class TestObjective:
    def test_hand_arithmetic(self):
        parts = [T.constant(v) for v in (1.0, 2.0, 3.0)]
        out = moh_objective(parts[0], T.constant([2.0]), parts[2])
        assert out.total.item() == pytest.approx(3.003, abs=1e-12)

    def test_zero_losses(self):
        zero = T.constant(0.0)
        out = moh_objective(zero, T.constant([0.0, 0.0]), zero)
        assert out.total.item() == 0.0

    def test_exact_combination(self):
        rng = make_rng(10, "obj")
        l_mix, l_a, l_b, l_bal = (T.constant(abs(rng.standard_normal())) for _ in range(4))
        out = moh_objective(l_mix, T.constant([l_a.item(), l_b.item()]), l_bal,
                            lambda_ind=0.5, lambda_bal=1e-3)
        expect = l_mix.item() + 0.5 * (l_a.item() + l_b.item()) + 1e-3 * l_bal.item()
        assert out.total.item() == expect

    def test_single_horizon_degeneracy_doubles_loss(self):
        l = T.constant(1.7)
        out = moh_objective(l, T.reshape(l, (1,)), T.constant(0.0), lambda_bal=0.0)
        assert out.total.item() == pytest.approx(2 * 1.7, abs=1e-15)
