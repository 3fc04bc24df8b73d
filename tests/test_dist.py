"""Probability table basics and total variation distance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, max_abs_diff, tvd
from cfgen.errors import InputError


def test_point_mass():
    d = DistTable.point("a")
    assert d.prob("a") == 1.0
    assert d.prob("b") == 0.0
    assert d.is_point_mass


def test_rejects_negative():
    with pytest.raises(InputError):
        DistTable({"a": -0.1, "b": 1.1})


def test_rejects_unnormalized_by_default():
    with pytest.raises(InputError):
        DistTable({"a": 0.5, "b": 0.4})
    DistTable({"a": 0.5, "b": 0.4}, unnormalized=True)  # explicit opt-out


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("unnormalized", [False, True])
def test_rejects_non_finite(bad, unnormalized):
    with pytest.raises(InputError, match="not a finite number"):
        DistTable({"a": bad, "b": 0.5}, unnormalized=unnormalized)


def test_support_drops_zeros():
    d = DistTable({"a": 1.0, "b": 0.0})
    assert d.support == ("a",)


def test_from_counts():
    d = DistTable.from_counts({"a": 3, "b": 1})
    assert d.prob("a") == 0.75
    with pytest.raises(InputError):
        DistTable.from_counts({})


def test_project_accumulates():
    d = DistTable({("x", 0): 0.25, ("x", 1): 0.25, ("y", 0): 0.5})
    m = d.project(lambda o: o[0])
    assert m.prob("x") == 0.5 and m.prob("y") == 0.5


def test_tvd_identical_tables():
    d = DistTable({"a": 0.5, "b": 0.5})
    assert tvd(d, d) == 0.0


def test_tvd_disjoint_supports():
    assert tvd(DistTable.point("a"), DistTable.point("b")) == 1.0


def test_tvd_hand_value():
    # 0.5*(|0.5-0.8| + |0.5-0.2|) = 0.3
    a = DistTable({"x": 0.5, "y": 0.5})
    b = DistTable({"x": 0.8, "y": 0.2})
    assert tvd(a, b) == pytest.approx(0.3, abs=1e-12)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)
    )
    z = sum(weights)
    return DistTable({f"o{i}": w / z for i, w in enumerate(weights)})


@settings(max_examples=60, derandomize=True)
@given(tables(), tables())
def test_tvd_is_a_bounded_symmetric_distance(a, b):
    d = tvd(a, b)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == pytest.approx(tvd(b, a), abs=1e-15)
    assert max_abs_diff(a, b) <= 2.0 * d + 1e-15


@settings(max_examples=60, derandomize=True)
@given(tables())
def test_tvd_self_is_zero(a):
    assert tvd(a, a) == 0.0
