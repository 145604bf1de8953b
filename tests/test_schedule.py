"""Frame-drop schedules: stated examples, counts, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack.energy import ENERGY_PRESETS, frame_energy_and_time
from droptrack.scenario import REFERENCE_CARS
from droptrack.schedule import (
    FRAME_PERIOD,
    TARGET_PATTERNS,
    DropPattern,
    build_schedule,
    parse_pattern,
)
from droptrack.tracker import TrackerConfig, TrackState, predict


def processed_indices(flags):
    return {i for i, processed in enumerate(flags) if processed}


@st.composite
def valid_patterns(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=m))
    return DropPattern(n, m)


class TestPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            DropPattern(0, 4)
        with pytest.raises(ValueError):
            DropPattern(5, 4)
        with pytest.raises(ValueError):
            DropPattern(1, 0)

    def test_str(self):
        assert str(DropPattern(3, 4)) == "3/4"

    def test_parse_fraction(self):
        assert parse_pattern("3/4") == DropPattern(3, 4)
        assert parse_pattern(" 9/10 ") == DropPattern(9, 10)

    def test_parse_named_targets(self):
        assert parse_pattern("100") == DropPattern(1, 1)
        assert parse_pattern("90") == DropPattern(9, 10)
        assert parse_pattern("75") == DropPattern(3, 4)
        assert parse_pattern("50") == DropPattern(1, 2)
        assert parse_pattern("25") == DropPattern(1, 4)
        assert parse_pattern("10") == DropPattern(1, 10)

    def test_parse_rejects_garbage(self):
        for bad in ("", "abc", "4/3", "0/2", "33", "1/"):
            with pytest.raises(ValueError):
                parse_pattern(bad)

    def test_named_target_table(self):
        assert TARGET_PATTERNS == {100: (1, 1), 90: (9, 10), 75: (3, 4),
                                   50: (1, 2), 25: (1, 4), 10: (1, 10)}


class TestBuildSchedule:
    def test_full_rate(self):
        s = build_schedule(DropPattern(1, 1), 10)
        assert processed_indices(s) == set(range(10))
        assert s == (True,) * 10

    def test_three_of_four_length_ten(self):
        s = build_schedule(DropPattern(3, 4), 10)
        assert processed_indices(s) == {0, 1, 2, 4, 5, 6, 8, 9}
        assert sum(s) == 8

    def test_nine_of_ten_length_twenty(self):
        s = build_schedule(DropPattern(9, 10), 20)
        dropped = set(range(20)) - processed_indices(s)
        assert dropped == {9, 19}
        assert sum(s) == 18

    def test_frame_zero_always_processed(self):
        for n, m in [(1, 10), (1, 2), (3, 4), (9, 10)]:
            s = build_schedule(DropPattern(n, m), 5)
            assert 0 in processed_indices(s)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            build_schedule(DropPattern(1, 2), 0)


class TestCounts:
    def test_one_of_two_length_seven(self):
        s = build_schedule(DropPattern(1, 2), 7)
        assert len(s) == 7
        assert sum(s) == 4

    def test_one_of_ten_length_twentyfive(self):
        s = build_schedule(DropPattern(1, 10), 25)
        assert sum(s) == 3

    def test_effective_target_examples(self):
        s = build_schedule(DropPattern(9, 10), 21)
        assert sum(s) == 19
        assert 100.0 * sum(s) / len(s) == pytest.approx(100 * 19 / 21)
        assert round(100.0 * sum(s) / len(s), 2) == 90.48

        full = build_schedule(DropPattern(1, 1), 137)
        assert 100.0 * sum(full) / len(full) == 100.0
        three_of_four = build_schedule(DropPattern(3, 4), 10)
        assert 100.0 * sum(three_of_four) / len(three_of_four) == 80.0

    @settings(max_examples=200, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=400))
    def test_count_matches_per_frame_rule(self, pattern, length):
        # Each full block of m gives n processed frames; a trailing partial
        # block of r frames gives min(r, n), the processed indices sitting
        # at the front of the block.
        s = build_schedule(pattern, length)
        assert len(s) == length
        assert sum(s) == (length // pattern.m) * pattern.n \
            + min(length % pattern.m, pattern.n)

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=200))
    def test_count_monotone_in_n(self, pattern, length):
        if pattern.n < pattern.m:
            bigger = DropPattern(pattern.n + 1, pattern.m)
            assert sum(build_schedule(bigger, length)) \
                >= sum(build_schedule(pattern, length))

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=200))
    def test_count_antitone_in_m(self, pattern, length):
        wider = DropPattern(pattern.n, pattern.m + 1)
        assert sum(build_schedule(wider, length)) \
            <= sum(build_schedule(pattern, length))

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=300))
    def test_gap_bound(self, pattern, length):
        gap = worst = 0
        for processed in build_schedule(pattern, length):
            gap = 0 if processed else gap + 1
            worst = max(worst, gap)
        assert worst <= pattern.m - pattern.n


def test_every_frame_step_is_one_frame_period():
    # The scenario's cars, the tracker's predict and a dropped frame's
    # modeled time all advance by the one FRAME_PERIOD.
    assert FRAME_PERIOD == 0.1
    for car in REFERENCE_CARS:
        a, b = car.box_at(car.first_frame), car.box_at(car.first_frame + 1)
        assert (b.cx - a.cx, b.cy - a.cy) == pytest.approx(
            (car.vx * FRAME_PERIOD, car.vy * FRAME_PERIOD), abs=1e-12)
    mean = [0.0] * 7 + [3.0, -2.0, 0.5]
    state = predict(TrackState(1, mean, [1.0] * 10, [0.0] * 3),
                    TrackerConfig())
    assert state.mean[:3] == [3.0 * FRAME_PERIOD, -2.0 * FRAME_PERIOD,
                              0.5 * FRAME_PERIOD]
    for params in ENERGY_PRESETS.values():
        energy, seconds = frame_energy_and_time(params, False)
        assert seconds == FRAME_PERIOD
        assert energy == params.idle_draw * FRAME_PERIOD
