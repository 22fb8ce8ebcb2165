"""Consensus prefix selection against an independent reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix.consensus import ConsensusConfig, consensus_prefix, disagreements
from horizonmix.errors import ConfigError
from horizonmix.mixture import build_horizon_set, validity_grid
from horizonmix.rng import make_rng

from horizons import horizon_set_from_list


def reference_prefix(disagreements, active_counts, ratio, min_steps, min_active):
    """Straightforward re-statement of the stopping rule, written without the
    production code's early-break loop: find the first ineligible step."""
    h = len(disagreements)
    threshold = sum(disagreements[:min_steps]) / min_steps * ratio
    eligible = [active_counts[k] >= min_active and disagreements[k] <= threshold
                for k in range(h)]
    k_exec = min_steps
    k = min_steps
    while k < h and eligible[k]:
        k += 1
    return max(min_steps, k)


def random_predictions(seed, hs, d_a=2):
    rng = make_rng(seed, "cons")
    n, h = len(hs), hs.max_horizon
    fused = rng.standard_normal((h, d_a))
    per_h = rng.standard_normal((n, h, d_a))
    raw = rng.random((h, n)) * validity_grid(hs)
    alpha = raw / raw.sum(axis=-1, keepdims=True)
    return fused, per_h, alpha


class TestDisagreement:
    def test_zero_when_all_agree(self):
        hs = build_horizon_set(30, 3)
        fused, per_h, alpha = random_predictions(0, hs)
        per_h[:] = fused[None]
        assert disagreements(fused, per_h, alpha, validity_grid(hs))[6] == 0.0  # step 7

    def test_single_active_horizon(self):
        hs = build_horizon_set(30, 3)
        fused = np.zeros((30, 2))
        per_h = np.zeros((10, 30, 2))
        per_h[-1, 29] = [1.5, 0.5]  # l1 distance 2.0 at the last step
        alpha = validity_grid(hs).astype(float)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        d = disagreements(fused, per_h, alpha, validity_grid(hs))
        assert d[29] == pytest.approx(2.0)

    def test_matches_hand_expanded_sum(self):
        hs = build_horizon_set(12, 3)
        fused, per_h, alpha = random_predictions(1, hs)
        k = 5
        active = [i for i, h in enumerate(hs.horizons) if h >= k]
        expect = sum(alpha[k - 1, i] * np.abs(fused[k - 1] - per_h[i, k - 1]).sum()
                     for i in active)
        d = disagreements(fused, per_h, alpha, validity_grid(hs))
        assert d[k - 1] == pytest.approx(expect, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), stride=st.sampled_from([1, 2, 3, 4, 6, 12]),
           d_a=st.sampled_from([1, 2, 9]), width=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=50, deadline=None)
    def test_equals_per_step_loop_exactly(self, seed, stride, d_a, width):
        # the per-step, per-horizon loop the vectorized form replaced; the
        # arithmetic and its order are unchanged, so the bits must be too
        hs = build_horizon_set(12, stride)
        fused, per_h, alpha = (x.astype(width) for x in random_predictions(seed, hs, d_a))
        expect = []
        for step in range(1, 13):
            total = 0.0
            for i, h in enumerate(hs.horizons):
                if h >= step:
                    total += alpha[step - 1, i] * np.abs(fused[step - 1] - per_h[i, step - 1]).sum()
            expect.append(float(total))
        d = disagreements(fused, per_h, alpha, validity_grid(hs))
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, expect)


class TestConsensusPrefix:
    def test_zero_disagreement_stops_at_active_horizon_floor(self):
        hs = build_horizon_set(30, 3)
        fused, per_h, alpha = random_predictions(2, hs)
        per_h[:] = fused[None]
        cfg = ConsensusConfig(ratio=1.1, min_steps=5, min_active=5)
        trace = consensus_prefix(fused, per_h, alpha, hs, cfg)
        # at step 19 only {21, 24, 27, 30} remain active
        assert trace.k_exec == 18

    def test_threshold_break_hand_trace(self):
        hs = horizon_set_from_list(list(range(1, 11)))
        d = np.array([1, 1, 1, 1, 1, 1.05, 1.2, 1.0, 1.0, 1.0])
        fused = np.zeros((10, 1))
        per_h = np.zeros((10, 10, 1))
        alpha = np.zeros((10, 10))
        for k in range(10):
            per_h[9, k, 0] = d[k]  # only the longest horizon disagrees
            alpha[k, 9] = 1.0
        cfg = ConsensusConfig(ratio=1.1, min_steps=5, min_active=1)
        trace = consensus_prefix(fused, per_h, alpha, hs, cfg)
        assert trace.threshold == pytest.approx(1.1)
        assert trace.k_exec == 6

    def test_min_steps_equal_to_horizon(self):
        hs = build_horizon_set(12, 3)
        fused, per_h, alpha = random_predictions(3, hs)
        cfg = ConsensusConfig(ratio=1.0, min_steps=12, min_active=1)
        assert consensus_prefix(fused, per_h, alpha, hs, cfg).k_exec == 12

    def test_min_steps_beyond_horizon_rejected(self):
        hs = build_horizon_set(12, 3)
        fused, per_h, alpha = random_predictions(4, hs)
        with pytest.raises(ConfigError):
            consensus_prefix(fused, per_h, alpha, hs, ConsensusConfig(min_steps=13))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ConsensusConfig(ratio=0.0)
        with pytest.raises(ConfigError):
            ConsensusConfig(min_steps=0)

    def test_ties_continue(self):
        hs = horizon_set_from_list([8])
        fused = np.zeros((8, 1))
        per_h = np.ones((1, 8, 1))
        alpha = np.ones((8, 1))
        cfg = ConsensusConfig(ratio=1.0, min_steps=2, min_active=1)
        # every step's disagreement equals the threshold exactly
        assert consensus_prefix(fused, per_h, alpha, hs, cfg).k_exec == 8


@st.composite
def trace_cases(draw):
    stride = draw(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]))
    hs = build_horizon_set(30, stride)
    seed = draw(st.integers(0, 2**31))
    ratio = draw(st.floats(0.1, 3.0))
    min_steps = draw(st.integers(1, 30))
    min_active = draw(st.integers(1, len(hs)))
    return hs, seed, ratio, min_steps, min_active


class TestOracleEquivalence:
    @given(case=trace_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        hs, seed, ratio, min_steps, min_active = case
        fused, per_h, alpha = random_predictions(seed, hs)
        cfg = ConsensusConfig(ratio=ratio, min_steps=min_steps, min_active=min_active)
        trace = consensus_prefix(fused, per_h, alpha, hs, cfg)
        ref = reference_prefix(trace.disagreements, trace.active_counts, ratio,
                               min_steps, min_active)
        assert trace.k_exec == ref
        assert min_steps <= trace.k_exec <= hs.max_horizon

    @given(seed=st.integers(0, 2**31), r1=st.floats(0.1, 2.0), r2=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_ratio(self, seed, r1, r2):
        hs = build_horizon_set(30, 3)
        fused, per_h, alpha = random_predictions(seed, hs)
        lo = ConsensusConfig(ratio=r1, min_steps=5, min_active=2)
        hi = ConsensusConfig(ratio=r1 + r2, min_steps=5, min_active=2)
        assert (consensus_prefix(fused, per_h, alpha, hs, hi).k_exec
                >= consensus_prefix(fused, per_h, alpha, hs, lo).k_exec)

    @given(seed=st.integers(0, 2**31), m=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_min_active(self, seed, m):
        hs = build_horizon_set(30, 3)
        fused, per_h, alpha = random_predictions(seed, hs)
        small = ConsensusConfig(ratio=1.2, min_steps=5, min_active=m)
        large = ConsensusConfig(ratio=1.2, min_steps=5, min_active=m + 1)
        assert (consensus_prefix(fused, per_h, alpha, hs, large).k_exec
                <= consensus_prefix(fused, per_h, alpha, hs, small).k_exec)
