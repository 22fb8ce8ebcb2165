import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix.rng import fold_tags, make_rng, truncated_normal


def test_same_seed_and_tags_reproduce():
    a = make_rng(42, "init", "layer0").standard_normal(8)
    b = make_rng(42, "init", "layer0").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_different_tags_decorrelate():
    a = make_rng(42, "init", "layer0").standard_normal(8)
    b = make_rng(42, "init", "layer1").standard_normal(8)
    assert not np.array_equal(a, b)


def test_tag_boundaries_matter():
    assert fold_tags("ab", "c") != fold_tags("a", "bc")
    assert fold_tags("ab") != fold_tags("a", "b")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_truncated_normal_respects_bound(seed):
    rng = make_rng(seed, "trunc")
    x = truncated_normal(rng, (512,), std=0.02, bound=2.0)
    assert np.all(np.abs(x) <= 2.0 * 0.02)
    assert x.dtype == np.float64


def test_truncated_normal_dtype_and_spread():
    rng = make_rng(0, "trunc-stats")
    x = truncated_normal(rng, (20000,), std=0.02, dtype=np.float32)
    assert x.dtype == np.float32
    assert 0.015 < x.std() < 0.025


def test_truncated_normal_matches_full_array_redraw_loop():
    def reference(rng, shape, std, bound=2.0):
        x = rng.standard_normal(shape)
        bad = np.abs(x) > bound
        while bad.any():
            x[bad] = rng.standard_normal(int(bad.sum()))
            bad = np.abs(x) > bound
        return x * std

    for seed, shape in [(0, (64, 256)), (1, (7,)), (2, (3, 5, 4)), (3, ())]:
        np.testing.assert_array_equal(
            truncated_normal(make_rng(seed, "t"), shape, std=0.02, bound=1.0),
            reference(make_rng(seed, "t"), shape, std=0.02, bound=1.0))


def test_no_seed_gives_zeros_without_drawing():
    assert make_rng(None, "init") is None
    x = truncated_normal(None, (2, 3), std=0.02, dtype=np.float32)
    np.testing.assert_array_equal(x, np.zeros((2, 3), dtype=np.float32))
    assert x.dtype == np.float32
