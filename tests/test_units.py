"""Unit conversion tests."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_time_roundtrip():
    assert units.ps_to_ns(2500.0) == 2.5


def test_capacitance_roundtrip():
    assert units.ff_to_pf(500.0) == 0.5


def test_frequency_period():
    assert units.mhz_to_period_ps(2500) == pytest.approx(400.0)


def test_frequency_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.mhz_to_period_ps(0)
    with pytest.raises(ValueError):
        units.mhz_to_period_ps(-1)


def test_rc_to_ps():
    # 1 kohm x 1000 fF = 1 ns = 1000 ps.
    assert units.rc_to_ps(1000.0, 1000.0) == pytest.approx(1000.0)
    # 100 ohm x 10 fF = 1e-12 s = 1 ps.
    assert units.rc_to_ps(100.0, 10.0) == pytest.approx(1.0)
    assert units.rc_to_ps(0.0, 5.0) == 0.0


@given(st.floats(min_value=1e-3, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_frequency_period_inverse(mhz):
    assert 1e6 / units.mhz_to_period_ps(mhz) == pytest.approx(mhz,
                                                              rel=1e-9)


@given(st.floats(min_value=0, max_value=1e6),
       st.floats(min_value=0, max_value=1e6))
def test_rc_nonnegative(r, c):
    assert units.rc_to_ps(r, c) >= 0.0
