"""Seeded stream determinism tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rng import DEFAULT_SEED, stream


def test_same_name_same_sequence():
    a = stream("place", 42).random(8)
    b = stream("place", 42).random(8)
    assert np.array_equal(a, b)


def test_different_names_differ():
    a = stream("place", 42).random(8)
    b = stream("route", 42).random(8)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = stream("place", 1).random(8)
    b = stream("place", 2).random(8)
    assert not np.array_equal(a, b)


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        stream("", 1)


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 20250706


@given(st.text(min_size=1, max_size=30), st.integers(0, 2 ** 31))
def test_stream_reproducible_for_any_name(name, seed):
    assert stream(name, seed).integers(1 << 30) == \
        stream(name, seed).integers(1 << 30)
