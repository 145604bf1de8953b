"""Duty-cycle draw model, power-log summaries, and the yield ratio."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droptrack.energy import (
    ENERGY_PRESETS,
    EnergyParams,
    PowerLog,
    estimate_draw_multi,
    frame_energy_and_time,
    read_power_log_csv,
    summarize_power_log,
    yield_metric,
)
from droptrack.schedule import DropPattern, build_schedule

from oracles import simulate_draw_1ms


def params(idle=150.0, active=350.0, ti=0.05, cycle=0.1):
    return EnergyParams(idle_draw=idle, active_draw=active,
                        inference_time=ti, cycle_time=cycle)


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
        with pytest.raises(ValueError):
            EnergyParams(idle_draw=100.0, active_draw=200.0,
                         inference_time=0.05, cycle_time=0.0)

    @pytest.mark.parametrize("field,value", [
        ("inference_time", math.nan), ("inference_time", math.inf),
        ("cycle_time", math.nan), ("cycle_time", math.inf),
        ("active_draw", math.nan), ("active_draw", math.inf),
        ("idle_draw", math.nan),
    ])
    def test_non_finite_value_names_the_field(self, field, value):
        fields = {"idle_draw": 100.0, "active_draw": 200.0,
                  "inference_time": 0.05, "cycle_time": 0.1, field: value}
        with pytest.raises(ValueError, match=field):
            EnergyParams(**fields)


class TestEstimateDraw:
    def test_full_duty_equals_active(self):
        p = params(ti=0.1, cycle=0.1)
        s = build_schedule(DropPattern(1, 1), 50)
        assert estimate_draw_multi(p, [s]) \
            == pytest.approx(p.active_draw, abs=1e-9)

    def test_idle_bound_when_inference_negligible(self):
        # No 0/m pattern exists, so the idle floor shows up in the limit of
        # a tiny inference share instead.
        p = params(ti=1e-6, cycle=0.1)
        s = build_schedule(DropPattern(1, 10), 100)
        assert estimate_draw_multi(p, [s]) \
            == pytest.approx(p.idle_draw, rel=1e-3)

    def test_worked_half_rate_example(self):
        p = params(idle=150.0, active=350.0, ti=0.05, cycle=0.1)
        half = build_schedule(DropPattern(1, 2), 100)
        full = build_schedule(DropPattern(1, 1), 100)
        assert estimate_draw_multi(p, [half]) == pytest.approx(200.0, abs=1e-9)
        assert estimate_draw_multi(p, [full]) == pytest.approx(250.0, abs=1e-9)

    def test_frame_terms(self):
        p = params(idle=150.0, active=350.0, ti=0.05, cycle=0.1)
        assert frame_energy_and_time(p, True) \
            == (pytest.approx(350 * 0.05 + 150 * 0.05), pytest.approx(0.1))
        assert frame_energy_and_time(p, False) \
            == (pytest.approx(15.0), pytest.approx(0.1))

    def test_cycle_stretching_slot(self):
        p = params(ti=0.25, cycle=0.1)
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
        assert p.inference_time <= p.cycle_time
        draws = [estimate_draw_multi(
                     p, [build_schedule(DropPattern(n, m), length)])
                 for n in range(1, m + 1)]
        for a, b in zip(draws, draws[1:]):
            assert b >= a - 1e-12

    def test_stretching_damps_relative_savings(self):
        # With inference longer than the cycle, processed frames also take
        # longer, so cutting half the frames saves less than half the
        # relative draw headroom compared with a non-stretching model.
        stretching = params(ti=0.2, cycle=0.1)
        half = build_schedule(DropPattern(1, 2), 200)
        full = build_schedule(DropPattern(1, 1), 200)
        rel_draw_cut = 1.0 - estimate_draw_multi(stretching, [half]) \
            / estimate_draw_multi(stretching, [full])
        rel_frame_cut = 0.5
        assert rel_draw_cut < rel_frame_cut

    def test_simulation_agreement_spot(self):
        p = params(idle=145.0, active=395.0, ti=0.05, cycle=0.1)
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


def power_log(samples):
    """A log sampled at 100 Hz from t = 0."""
    return PowerLog(samples=tuple(samples),
                    timestamps=tuple(i / 100 for i in range(len(samples))))


# One window per entry: the seconds it starts after the previous window's
# start (above 1 leaves seconds with no sample), its sample count, and
# values its samples cycle through.
power_windows = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 300),
              st.lists(st.floats(0.0, 1e4), min_size=1, max_size=16)),
    min_size=1, max_size=6)


class TestPowerLog:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLog(samples=(), timestamps=())
        with pytest.raises(ValueError):
            PowerLog(samples=(1.0, -2.0), timestamps=(0.0, 0.01))
        with pytest.raises(ValueError, match="one timestamp per"):
            PowerLog(samples=(1.0, 2.0), timestamps=(0.0,))
        with pytest.raises(ValueError, match="nondecreasing"):
            PowerLog(samples=(1.0, 2.0), timestamps=(0.02, 0.01))

    @pytest.mark.parametrize("samples, timestamps", [
        ((1.0, 2.0), (0.0, math.nan)), ((1.0, 2.0), (0.0, math.inf)),
        ((math.nan, 2.0), (0.0, 1.0)), ((math.inf, 2.0), (0.0, 1.0))],
        ids=["timestamp-nan", "timestamp-inf", "sample-nan", "sample-inf"])
    def test_non_finite_values_rejected(self, samples, timestamps):
        with pytest.raises(ValueError, match="finite"):
            PowerLog(samples=samples, timestamps=timestamps)

    def test_constant_log(self):
        assert summarize_power_log(power_log((200.0,) * 500)) == 200.0

    def test_median_of_three_windows(self):
        samples = (100.0,) * 100 + (300.0,) * 100 + (200.0,) * 100
        assert summarize_power_log(power_log(samples)) == 200.0

    def test_spike_window_ignored(self):
        base = [250.0] * 1000
        base[300:400] = [5000.0] * 100
        assert summarize_power_log(power_log(base)) == 250.0

    def test_partial_trailing_window(self):
        samples = (100.0,) * 100 + (400.0,) * 50
        # Windows average to {100, 400}; even count takes the midpoint.
        assert summarize_power_log(power_log(samples)) == 250.0

    def test_windows_are_whole_seconds_of_timestamps(self):
        # 10 Hz from t = 0.5 s with no sample in [2, 4): windows 0 (five
        # samples) and 1 at 100 W, window 4 (five samples) at 1000 W, and no
        # window for 2 or 3 s. Windows of ten samples from the start would
        # give {100, 550} and a median of 325.
        timestamps = [0.5 + i / 10 for i in range(15)] \
            + [4 + i / 10 for i in range(5)]
        samples = [100.0] * 15 + [1000.0] * 5
        log = PowerLog(samples=tuple(samples), timestamps=tuple(timestamps))
        assert summarize_power_log(log) == 100.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-40, 40), power_windows)
    @example(-5, [(1, 300, [0.1, 7.3, 250.9])])
    @example(-2, [(1, 129, [0.3, 1e4, 2.2]), (3, 7, [5.5, 0.7])])
    @example(0, [(2, 200, [1.1, 3.3]), (1, 1, [4.4]), (2, 150, [0.2, 9.9])])
    def test_summary_is_numpys_median_of_window_means(self, first, windows):
        # numpy is the oracle here, as scipy is for the assignment solver.
        np = pytest.importorskip("numpy")
        timestamps, samples, second = [], [], first
        for step, count, values in windows:
            second += step
            timestamps += [second + i / count for i in range(count)]
            samples += [values[i % len(values)] for i in range(count)]
        seconds = np.floor(timestamps)
        starts = np.flatnonzero(seconds[1:] != seconds[:-1]) + 1
        want = np.median([w.mean() for w in np.split(np.asarray(samples),
                                                      starts)])
        log = PowerLog(samples=tuple(samples), timestamps=tuple(timestamps))
        assert summarize_power_log(log).hex() == float(want).hex()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "power.csv"
        rows = ["timestamp_s,watts"] + [f"{i/100.0},{200+i%3}" for i in range(250)]
        path.write_text("\n".join(rows) + "\n")
        log = read_power_log_csv(path)
        assert len(log.samples) == 250
        assert log.samples[0] == 200.0
        assert log.timestamps[:2] == (0.0, 0.01)

    def test_csv_requires_watts_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_s,volts\n0.0,12.0\n")
        with pytest.raises(ValueError, match="watts"):
            read_power_log_csv(path)


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
