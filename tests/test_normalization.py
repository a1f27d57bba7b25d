import numpy as np
import pytest

from smoothbench.csvio import read_biomarker_table, write_biomarker_table
from smoothbench.errors import (
    MisalignedSeries,
    NonPositiveBiomarkerLoad,
    NonPositivePopulation,
    ZeroBiomarkerConcentration,
)
from smoothbench.normalization import (
    REFERENCE_NH4_LOADS,
    BiomarkerLoad,
    estimate_population,
    flow_population_load,
    normalize_series,
)
from smoothbench.timeseries import TimeSeries


class TestFlowPopulationLoad:
    def test_zero_signal(self):
        assert flow_population_load(0.0, 5e8, 1e4) == 0.0

    def test_direct_evaluation(self):
        assert flow_population_load(1e5, 1e6, 1e4) == pytest.approx(1e7, rel=1e-12)

    def test_zero_population(self):
        with pytest.raises(NonPositivePopulation):
            flow_population_load(1e5, 1e6, 0.0)


class TestEstimatePopulation:
    def test_city_a_reference_value(self):
        # 0.03 g/L * 1e8 L/d / 10.71 g/person/d
        persons = estimate_population(0.03, 1e8, REFERENCE_NH4_LOADS["A"].f_bm)
        assert persons == pytest.approx(280_112, rel=1e-3)

    def test_zero_biomarker(self):
        assert estimate_population(0.0, 1e8, 10.71) == 0.0

    def test_zero_load(self):
        with pytest.raises(NonPositiveBiomarkerLoad):
            estimate_population(0.03, 1e8, 0.0)


class TestNormalizeSeries:
    def test_direct_evaluation(self):
        virus = TimeSeries.from_values([1e5])
        nh4 = TimeSeries.from_values([0.03])
        out = normalize_series(virus, nh4, 10.71)
        assert out.samples[0].value == pytest.approx(3.57e7, rel=1e-3)

    def test_zero_virus(self):
        virus = TimeSeries.from_values([0.0, 0.0, 1.0])
        nh4 = TimeSeries.from_values([0.03, 0.02, 0.04])
        out = normalize_series(virus, nh4, 6.49)
        assert [s.value for s in out][:2] == [0.0, 0.0]

    def test_zero_biomarker_with_virus_present(self):
        virus = TimeSeries.from_values([1e5, 1e5])
        nh4 = TimeSeries.from_values([0.03, 0.0])
        with pytest.raises(ZeroBiomarkerConcentration):
            normalize_series(virus, nh4, 10.71)

    def test_load_overflow_names_the_date(self):
        virus = TimeSeries.from_values([1e13, 1e13])
        nh4 = TimeSeries.from_values([0.03, 1e-303])
        with pytest.raises(ZeroBiomarkerConcentration, match="2020-10-02"):
            normalize_series(virus, nh4, 10.71)

    def test_missing_propagates(self):
        virus = TimeSeries.from_values([1e5, None, 2e5])
        nh4 = TimeSeries.from_values([0.03, 0.03, None])
        out = normalize_series(virus, nh4, 10.71)
        assert out.samples[1].value is None
        assert out.samples[2].value is None

    def test_misaligned(self):
        virus = TimeSeries.from_values([1e5, 2e5])
        nh4 = TimeSeries.from_values([0.03, 0.03, 0.03])
        with pytest.raises(MisalignedSeries):
            normalize_series(virus, nh4, 10.71)

    def test_homogeneity_in_virus(self, rng):
        n = 20
        virus = TimeSeries.from_values(rng.uniform(1e4, 1e6, n))
        nh4 = TimeSeries.from_values(rng.uniform(0.01, 0.05, n))
        base = normalize_series(virus, nh4, 8.99).values()
        scaled = normalize_series(virus.with_values(3.0 * virus.values()), nh4, 8.99).values()
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-15)

    def test_inverse_homogeneity_in_biomarker(self, rng):
        n = 20
        virus = TimeSeries.from_values(rng.uniform(1e4, 1e6, n))
        nh4 = TimeSeries.from_values(rng.uniform(0.01, 0.05, n))
        base = normalize_series(virus, nh4, 8.99).values()
        scaled = normalize_series(virus, nh4.with_values(2.0 * nh4.values()), 8.99).values()
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-15)

    def test_flow_cancellation_identity(self, rng):
        # composing the population estimate into the flow route must equal
        # the flow-free form exactly (Q cancels)
        for _ in range(200):
            c_virus = float(rng.uniform(1.0, 1e7))
            q = float(rng.uniform(1e3, 1e9))
            c_bm = float(rng.uniform(1e-4, 1.0))
            f = float(rng.uniform(0.5, 20.0))
            via_population = flow_population_load(
                c_virus, q, estimate_population(c_bm, q, f)
            )
            direct = c_virus * f / c_bm
            assert via_population == pytest.approx(direct, rel=1e-12)


class TestReferenceTable:
    def test_four_sites_with_ordered_percentiles(self):
        assert sorted(REFERENCE_NH4_LOADS) == ["A", "B", "C", "D"]
        for load in REFERENCE_NH4_LOADS.values():
            assert 0 < load.p_low <= load.p_med <= load.p_high

    def test_published_values(self):
        assert REFERENCE_NH4_LOADS["A"].f_bm == 10.71
        assert REFERENCE_NH4_LOADS["B"].f_bm == 6.49
        assert REFERENCE_NH4_LOADS["C"].f_bm == 8.99
        assert REFERENCE_NH4_LOADS["D"].f_bm == 6.80
        assert REFERENCE_NH4_LOADS["A"].p_low == 9.77
        assert REFERENCE_NH4_LOADS["A"].p_high == 12.17

    def test_round_trips_through_load_table_csv(self, tmp_path):
        path = str(tmp_path / "loads.csv")
        write_biomarker_table(REFERENCE_NH4_LOADS, path)
        assert read_biomarker_table(path) == REFERENCE_NH4_LOADS

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            BiomarkerLoad(f_bm=5.0, p_low=6.0, p_med=5.0, p_high=7.0)
