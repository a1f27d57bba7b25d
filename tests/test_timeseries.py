import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench.errors import DuplicateTimestamp, EmptyInput, InsufficientData
from smoothbench.timeseries import (
    Sample,
    SurveillanceRecord,
    TimeSeries,
    build_series,
    impute_linear,
    percentile,
)


def day(i: int) -> date:
    return date.fromordinal(date(2020, 10, 1).toordinal() + i)


class TestSample:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Sample(day(0), float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Sample(day(0), float("inf"))

    def test_missing_allowed(self):
        assert Sample(day(0), None).value is None


class TestTimeSeries:
    def test_timestamps_must_increase(self):
        with pytest.raises(DuplicateTimestamp):
            TimeSeries((Sample(day(1), 1.0), Sample(day(1), 2.0)))
        with pytest.raises(DuplicateTimestamp):
            TimeSeries((Sample(day(2), 1.0), Sample(day(1), 2.0)))

    def test_needs_a_value(self):
        with pytest.raises(EmptyInput):
            TimeSeries(())
        with pytest.raises(EmptyInput):
            TimeSeries((Sample(day(0), None),))

    def test_values_array_marks_missing_as_nan(self):
        s = TimeSeries.from_values([1.0, None, 3.0])
        np.testing.assert_array_equal(np.isnan(s.values()), [False, True, False])

    def test_with_values_preserves_timestamps(self):
        s = TimeSeries.from_values([1.0, 2.0, 3.0])
        out = s.with_values([9.0, 8.0, 7.0])
        assert out.timestamps == s.timestamps
        assert [x.value for x in out] == [9.0, 8.0, 7.0]


class TestBuildSeries:
    def records(self):
        return [
            SurveillanceRecord(site="A", timestamp=day(2), c_virus=3e5),
            SurveillanceRecord(site="A", timestamp=day(0), c_virus=1e5),
            SurveillanceRecord(site="A", timestamp=day(1), c_virus=2e5, c_nh4=0.03),
        ]

    def test_sorts_by_date(self):
        series = build_series(self.records(), "c_virus")
        assert [s.value for s in series] == [1e5, 2e5, 3e5]
        assert series.timestamps == (day(0), day(1), day(2))

    def test_duplicate_dates_rejected(self):
        records = self.records() + [SurveillanceRecord(site="A", timestamp=day(2), c_virus=0.0)]
        with pytest.raises(DuplicateTimestamp):
            build_series(records, "c_virus")

    def test_absent_field_becomes_missing(self):
        series = build_series(self.records(), "c_nh4")
        assert [s.value for s in series] == [None, 0.03, None]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_series([], "c_virus")

    def test_mixed_sites_rejected(self):
        records = self.records() + [SurveillanceRecord(site="B", timestamp=day(5), c_virus=1.0)]
        with pytest.raises(ValueError):
            build_series(records, "c_virus")


class TestImputeLinear:
    def test_midpoint(self):
        s = TimeSeries.from_values([1.0, None, 3.0])
        assert [x.value for x in impute_linear(s)] == [1.0, 2.0, 3.0]

    def test_edge_fill(self):
        s = TimeSeries.from_values([None, 4.0, 8.0])
        assert [x.value for x in impute_linear(s)] == [4.0, 4.0, 8.0]

    def test_two_slot_gap(self):
        s = TimeSeries.from_values([0.0, None, None, 9.0])
        assert [x.value for x in impute_linear(s)] == [0.0, 3.0, 6.0, 9.0]

    def test_weights_by_calendar_distance(self):
        s = TimeSeries.from_pairs([(day(0), 0.0), (day(1), None), (day(3), 9.0)])
        assert [x.value for x in impute_linear(s)] == [0.0, 3.0, 9.0]

    def test_insufficient_data(self):
        s = TimeSeries.from_values([None, 4.0, None])
        with pytest.raises(InsufficientData):
            impute_linear(s)

    def test_idempotent_exactly(self):
        gen = np.random.default_rng(3)
        values = [None if gen.random() < 0.3 else float(v) for v in gen.normal(size=30)]
        values[0] = None
        values[5] = 1.25
        values[7] = -2.5
        once = impute_linear(TimeSeries.from_values(values))
        twice = impute_linear(once)
        assert [x.value for x in twice] == [x.value for x in once]


class TestPercentile:
    def test_median_odd(self):
        assert percentile([5, 6, 7], 0.5) == 6.0

    def test_interpolated_median_even(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2.5

    def test_single_element(self):
        assert percentile([9], 0.975) == 9.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            percentile([], 0.5)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.0, 1.0),
    )
    def test_endpoints_and_bounds(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 1.0) == max(values)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_p(self, values, p1, p2):
        lo, hi = sorted((p1, p2))
        assert percentile(values, lo) <= percentile(values, hi)

    def test_matches_numpy_inclusive_convention(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            values = gen.normal(size=int(gen.integers(1, 30)))
            p = float(gen.random())
            assert percentile(values, p) == pytest.approx(
                float(np.quantile(values, p)), rel=1e-12, abs=1e-12
            )


def _row_percentile(row, p):
    """The order statistic of one row, as a per-row loop computes it."""
    ordered = np.sort(np.asarray(row, dtype=float))
    rank = p * (ordered.size - 1)
    lo, hi = int(math.floor(rank)), int(math.ceil(rank))
    if lo == hi or ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    value = ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])
    return float(min(max(value, ordered[lo]), ordered[hi]))


# ties and signed zeros, or any magnitude from 1e-300 to 1e300
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 299)),
)
_LEVEL = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_P = st.one_of(
    st.just(0.0), st.just(1.0), _LEVEL.map(lambda level: (1.0 - level) / 2.0),
    _LEVEL.map(lambda level: (1.0 + level) / 2.0), st.floats(0.0, 1.0),
)


@st.composite
def _matrices(draw):
    """1 to 5 rows of T from 1 to 40 entries; a row may be constant."""
    t = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            rows.append([draw(_ENTRY)] * t)
        else:
            rows.append(draw(st.lists(_ENTRY, min_size=t, max_size=t)))
    return np.array(rows)


class TestRowPercentiles:
    @settings(max_examples=300)
    @given(_matrices(), _P)
    def test_each_row_as_alone(self, matrix, p):
        rows = percentile(matrix, p)
        alone = np.array([percentile(row, p) for row in matrix])
        loop = np.array([_row_percentile(row, p) for row in matrix])
        assert rows.shape == (len(matrix),)
        assert rows.view(np.int64).tolist() == alone.view(np.int64).tolist()
        assert rows.view(np.int64).tolist() == loop.view(np.int64).tolist()
