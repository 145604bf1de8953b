"""Frame-drop schedules: stated examples, closed form, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrack.schedule import (
    TARGET_PATTERNS,
    DropPattern,
    Schedule,
    build_schedule,
    effective_target,
    parse_pattern,
    processed_count,
)


def processed_indices(schedule):
    return {i for i in range(schedule.sequence_length)
            if schedule.is_processed(i)}


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
        assert processed_count(s) == 10

    def test_three_of_four_length_ten(self):
        s = build_schedule(DropPattern(3, 4), 10)
        assert processed_indices(s) == {0, 1, 2, 4, 5, 6, 8, 9}
        assert processed_count(s) == 8

    def test_nine_of_ten_length_twenty(self):
        s = build_schedule(DropPattern(9, 10), 20)
        dropped = set(range(20)) - processed_indices(s)
        assert dropped == {9, 19}
        assert processed_count(s) == 18

    def test_frame_zero_always_processed(self):
        for n, m in [(1, 10), (1, 2), (3, 4), (9, 10)]:
            s = build_schedule(DropPattern(n, m), 5)
            assert 0 in processed_indices(s)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            build_schedule(DropPattern(1, 2), 0)

    def test_schedule_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            Schedule(DropPattern(1, 2), 0)


class TestCounts:
    def test_one_of_two_length_seven(self):
        s = build_schedule(DropPattern(1, 2), 7)
        assert processed_count(s) == 4

    def test_one_of_ten_length_twentyfive(self):
        s = build_schedule(DropPattern(1, 10), 25)
        assert processed_count(s) == 3

    def test_effective_target_examples(self):
        s = build_schedule(DropPattern(9, 10), 21)
        assert processed_count(s) == 19
        assert effective_target(s) == pytest.approx(100 * 19 / 21)
        assert round(effective_target(s), 2) == 90.48

        assert effective_target(build_schedule(DropPattern(1, 1), 137)) == 100.0
        assert effective_target(build_schedule(DropPattern(3, 4), 10)) == 80.0

    @settings(max_examples=200, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=400))
    def test_count_matches_per_frame_rule(self, pattern, length):
        s = build_schedule(pattern, length)
        assert processed_count(s) == len(processed_indices(s))

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=200))
    def test_count_monotone_in_n(self, pattern, length):
        if pattern.n < pattern.m:
            bigger = DropPattern(pattern.n + 1, pattern.m)
            assert processed_count(build_schedule(bigger, length)) \
                >= processed_count(build_schedule(pattern, length))

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=200))
    def test_count_antitone_in_m(self, pattern, length):
        wider = DropPattern(pattern.n, pattern.m + 1)
        assert processed_count(build_schedule(wider, length)) \
            <= processed_count(build_schedule(pattern, length))

    @settings(max_examples=150, deadline=None)
    @given(valid_patterns(), st.integers(min_value=1, max_value=300))
    def test_gap_bound(self, pattern, length):
        s = build_schedule(pattern, length)
        gap = worst = 0
        for i in range(length):
            gap = 0 if s.is_processed(i) else gap + 1
            worst = max(worst, gap)
        assert worst <= pattern.m - pattern.n

