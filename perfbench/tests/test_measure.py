"""The percentile rule: nearest rank, and at least ten samples beyond."""

import pytest

from perfbench.measure import (MIN_BEYOND, highest_supported_quantile,
                               percentile)


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert percentile(samples, 0.99) == 990.0
    assert sum(1 for s in samples if s > 990.0) == MIN_BEYOND
    assert percentile(samples[:999], 0.99) is None


def test_median_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0
    assert percentile([], 0.5) is None


def test_quantile_must_be_inside_the_unit_interval():
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


def test_highest_supported_quantile_leaves_ten_beyond():
    assert highest_supported_quantile(1000) == 0.99
    q = highest_supported_quantile(548)
    assert q == 0.98
    assert percentile([float(i) for i in range(548)], q) is not None
    assert highest_supported_quantile(10) is None

