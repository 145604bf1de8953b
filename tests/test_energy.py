"""Duty-cycle draw model and the yield ratio."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack.energy import (
    ENERGY_PRESETS,
    EnergyParams,
    estimate_draw_multi,
    frame_energy_and_time,
    yield_metric,
)
from droptrack.schedule import FRAME_PERIOD, DropPattern, build_schedule

from oracles import simulate_draw_1ms


def params(idle=150.0, active=350.0, ti=0.05):
    return EnergyParams(idle_draw=idle, active_draw=active,
                        inference_time=ti)


class TestParamsValidation:
    def test_draw_ordering(self):
        with pytest.raises(ValueError):
            EnergyParams(idle_draw=300.0, active_draw=200.0,
                         inference_time=0.05)
        with pytest.raises(ValueError):
            EnergyParams(idle_draw=-5.0, active_draw=200.0,
                         inference_time=0.05)

    def test_positive_times(self):
        with pytest.raises(ValueError):
            EnergyParams(idle_draw=100.0, active_draw=200.0,
                         inference_time=0.0)

    @pytest.mark.parametrize("field,value", [
        ("inference_time", math.nan), ("inference_time", math.inf),
        ("active_draw", math.nan), ("active_draw", math.inf),
        ("idle_draw", math.nan),
    ])
    def test_non_finite_value_names_the_field(self, field, value):
        fields = {"idle_draw": 100.0, "active_draw": 200.0,
                  "inference_time": 0.05, field: value}
        with pytest.raises(ValueError, match=field):
            EnergyParams(**fields)


class TestEstimateDraw:
    def test_full_duty_equals_active(self):
        p = params(ti=FRAME_PERIOD)
        s = build_schedule(DropPattern(1, 1), 50)
        assert estimate_draw_multi(p, [s]) \
            == pytest.approx(p.active_draw, abs=1e-9)

    def test_idle_bound_when_inference_negligible(self):
        # No 0/m pattern exists, so the idle floor shows up in the limit of
        # a tiny inference share instead.
        p = params(ti=1e-6)
        s = build_schedule(DropPattern(1, 10), 100)
        assert estimate_draw_multi(p, [s]) \
            == pytest.approx(p.idle_draw, rel=1e-3)

    def test_worked_half_rate_example(self):
        p = params(idle=150.0, active=350.0, ti=0.05)
        half = build_schedule(DropPattern(1, 2), 100)
        full = build_schedule(DropPattern(1, 1), 100)
        assert estimate_draw_multi(p, [half]) == pytest.approx(200.0, abs=1e-9)
        assert estimate_draw_multi(p, [full]) == pytest.approx(250.0, abs=1e-9)

    def test_frame_terms(self):
        p = params(idle=150.0, active=350.0, ti=0.05)
        assert frame_energy_and_time(p, True) \
            == (pytest.approx(350 * 0.05 + 150 * 0.05), pytest.approx(0.1))
        assert frame_energy_and_time(p, False) \
            == (pytest.approx(15.0), pytest.approx(0.1))

    def test_cycle_stretching_slot(self):
        p = params(ti=0.25)
        energy, slot = frame_energy_and_time(p, True)
        assert slot == 0.25
        assert energy == pytest.approx(350.0 * 0.25)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=80, max_value=200),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=10, max_value=250),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=11),
           st.integers(min_value=1, max_value=300))
    def test_bounds(self, idle, extra, ti_ms, m, n_off, length):
        n = min(m, 1 + n_off)
        p = EnergyParams(idle_draw=float(idle), active_draw=float(idle + extra),
                         inference_time=ti_ms / 1000.0)
        s = build_schedule(DropPattern(n, m), length)
        draw = estimate_draw_multi(p, [s])
        assert p.idle_draw - 1e-9 <= draw <= p.active_draw + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=10, max_value=100),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=200))
    def test_monotone_in_processing_without_stretching(self, ti_ms, m, length):
        p = EnergyParams(idle_draw=150.0, active_draw=350.0,
                         inference_time=ti_ms / 1000.0)
        assert p.inference_time <= FRAME_PERIOD
        draws = [estimate_draw_multi(
                     p, [build_schedule(DropPattern(n, m), length)])
                 for n in range(1, m + 1)]
        for a, b in zip(draws, draws[1:]):
            assert b >= a - 1e-12

    def test_stretching_damps_relative_savings(self):
        # With inference longer than the cycle, processed frames also take
        # longer, so cutting half the frames saves less than half the
        # relative draw headroom compared with a non-stretching model.
        stretching = params(ti=0.2)
        half = build_schedule(DropPattern(1, 2), 200)
        full = build_schedule(DropPattern(1, 1), 200)
        rel_draw_cut = 1.0 - estimate_draw_multi(stretching, [half]) \
            / estimate_draw_multi(stretching, [full])
        rel_frame_cut = 0.5
        assert rel_draw_cut < rel_frame_cut

    def test_simulation_agreement_spot(self):
        p = params(idle=145.0, active=395.0, ti=0.05)
        for pattern in [(1, 1), (9, 10), (1, 2), (1, 10)]:
            s = build_schedule(DropPattern(*pattern), 137)
            assert estimate_draw_multi(p, [s]) \
                == pytest.approx(simulate_draw_1ms(p, s), abs=0.1)

    def test_multi_pools_energy_over_time(self):
        p = params()
        a = build_schedule(DropPattern(1, 2), 100)
        b = build_schedule(DropPattern(1, 1), 50)
        pooled = estimate_draw_multi(p, [a, b])
        lo, hi = sorted([estimate_draw_multi(p, [a]),
                         estimate_draw_multi(p, [b])])
        assert lo < pooled < hi
        with pytest.raises(ValueError):
            estimate_draw_multi(p, [])

    def test_presets_full_rate_levels(self):
        full = build_schedule(DropPattern(1, 1), 100)
        expected = {"second": 270.0, "point_rcnn": 304.0, "pv_rcnn": 314.0,
                    "pointpillars": 213.0}
        for name, level in expected.items():
            assert estimate_draw_multi(ENERGY_PRESETS[name], [full]) \
                == pytest.approx(level, abs=1e-9)


class TestYield:
    def test_closed_form(self):
        assert yield_metric((300.0, 80.0), (250.0, 75.0)) \
            == pytest.approx(10.0, abs=1e-12)

    def test_published_second_half_rate_row(self):
        value = yield_metric((270.0, 77.1), (194.0, 72.0))
        assert value == pytest.approx(76.0 / 5.1, abs=1e-9)
        assert value == pytest.approx(14.9, abs=0.1)

    def test_equal_hota_has_no_yield(self):
        assert yield_metric((300.0, 80.0), (250.0, 80.0)) is None

    def test_negative_yield_possible_when_variant_improves(self):
        assert yield_metric((300.0, 80.0), (250.0, 81.0)) \
            == pytest.approx(-50.0, abs=1e-12)
