import numpy as np
import pytest
from hypothesis import given, strategies as st

from bookml import DataError, ScaleMinMax, Table
from bookml.cli import make_labels


def column(values):
    return Table.build([("x", "float64", True)], {"x": values})


def fitted(lo, hi):
    """A ScaleMinMax stage with the fitted range [lo, hi], as a saved pipeline loads it."""
    stage = ScaleMinMax("x", "xn")
    stage.load_state({"min": lo, "max": hi})
    return stage


def scaled(stage, values):
    return stage.transform(column(values)).column("xn").values.tolist()


class TestMinMax:
    def test_fit_basic(self):
        s = ScaleMinMax("x", "xn").fit(column([2.0, 4.0, 6.0]))
        assert s.state_to_json() == {"min": 2.0, "max": 6.0}

    def test_fit_singleton(self):
        s = ScaleMinMax("x", "xn").fit(column([5.0]))
        assert s.state_to_json() == {"min": 5.0, "max": 5.0}

    def test_fit_skips_nulls(self):
        s = ScaleMinMax("x", "xn").fit(column([-1.0, 3.0, None]))
        assert s.state_to_json() == {"min": -1.0, "max": 3.0}

    def test_fit_all_null_rejected(self):
        with pytest.raises(DataError):
            ScaleMinMax("x", "xn").fit(column([None]))

    def test_midpoint(self):
        assert scaled(fitted(2, 6), [4.0]) == [0.5]

    def test_constant_column_maps_to_half(self):
        assert scaled(fitted(5, 5), [5.0]) == [0.5]

    def test_extrapolates_without_clamping(self):
        assert scaled(fitted(2, 6), [8.0, 0.0]) == [1.5, -0.5]

    @pytest.mark.parametrize("state", [
        {"min": 6.0, "max": 2.0},
        {"min": float("nan"), "max": 2.0},
        {"min": 0.0, "max": float("inf")},
        {"min": "0", "max": 1.0},
        {"min": 0.0, "max": True},
        {"min": 0.0},
        {"min": 0.0, "max": 1.0, "extra": 1},
    ])
    def test_bad_state_rejected(self, state):
        with pytest.raises(DataError):
            ScaleMinMax("x", "xn").load_state(state)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    def test_monotone_and_in_range(self, lo, hi, x1, x2):
        lo, hi = min(lo, hi), max(lo, hi)
        a, b = scaled(fitted(lo, hi), [min(x1, x2), max(x1, x2)])
        assert a <= b
        for x in (x1, x2):
            if lo <= x <= hi:
                assert 0.0 <= scaled(fitted(lo, hi), [x])[0] <= 1.0


def scores(values):
    return Table.build([("r_score", "int64", True)], {"r_score": values})


class TestBinarize:
    def test_partition_matches_stated_rule(self):
        labels, k = make_labels(scores([1, 2, 3, 4, 5]), "binary")
        assert k == 2 and labels.dtype == np.int64
        assert dict(zip((1, 2, 3, 4, 5), labels.tolist())) == {
            1: 0, 2: 0, 3: 0, 4: 1, 5: 1,
        }

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_out_of_range(self, bad):
        for label_mode in ("binary", "multiclass"):
            with pytest.raises(DataError):
                make_labels(scores([3, bad]), label_mode)
