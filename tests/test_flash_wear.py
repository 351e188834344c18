"""Unit tests for the wear / process-variation model."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flash import PAPER_PE_MEAN, PAPER_PE_SIGMA, WearModel


def test_limits_are_cached_and_deterministic():
    model = WearModel(seed=42)
    first = model.limit_for(10)
    assert model.limit_for(10) == first
    again = WearModel(seed=42)
    # Same seed, same order of queries -> same limits.
    assert again.limit_for(10) == model.limit_for(10)


def test_limits_distribution_is_plausible():
    model = WearModel(seed=3)
    limits = [model.limit_for(i) for i in range(2000)]
    mean = sum(limits) / len(limits)
    assert abs(mean - PAPER_PE_MEAN) < 3 * PAPER_PE_SIGMA / (2000 ** 0.5) * 4
    assert min(limits) >= 1


def test_zero_sigma_gives_constant_limits():
    model = WearModel(mean=100.0, sigma=0.0, seed=1)
    assert {model.limit_for(i) for i in range(50)} == {100}


def test_is_dead_threshold():
    model = WearModel(mean=10.0, sigma=0.0)
    assert not model.is_dead(0, 9)
    assert model.is_dead(0, 10)
    assert model.is_dead(0, 11)


def test_rber_monotone_in_wear():
    model = WearModel(mean=100.0, sigma=0.0)
    values = [model.rber(count, 0) for count in (0, 25, 50, 75, 100)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_limits_array_matches_scalar_statistics():
    model = WearModel(seed=5)
    arr = model.limits_array(5000)
    assert arr.shape == (5000,)
    assert arr.min() >= 1
    assert abs(arr.mean() - PAPER_PE_MEAN) < 100.0
    assert abs(arr.std() - PAPER_PE_SIGMA) < 100.0


def test_limits_array_seeded_reproducible():
    model = WearModel(seed=9)
    a = model.limits_array(100, seed=123)
    b = model.limits_array(100, seed=123)
    assert (a == b).all()


def test_limits_array_pinned_draws():
    """The vectorized draw stays an int64 array of the same values."""
    arr = WearModel(seed=11).limits_array(256, seed=7)
    assert arr.dtype == np.int64
    assert arr.shape == (256,)
    digest = hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest()
    assert digest == ("261b3f4d178b06baac63333bdc2fab40"
                      "9b923c3d34f33a4a4d1bfb79382126d8")


def test_reset_restores_stream():
    model = WearModel(seed=11)
    sequence = [model.limit_for(i) for i in range(10)]
    model.reset()
    assert [model.limit_for(i) for i in range(10)] == sequence


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        WearModel(mean=0.0)
    with pytest.raises(ConfigError):
        WearModel(sigma=-1.0)
    with pytest.raises(ConfigError):
        WearModel(min_limit=0)
