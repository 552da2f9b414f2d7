"""Tests for delivery periods, contract codes, and calendar arithmetic."""

from datetime import date, datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveshape.exceptions import CurveShapeError, DataError
from curveshape.periods import (
    Period,
    delivery_hours,
    parse_contract,
    parse_period_label,
    period_children,
    quarter_period,
    resolve_relative,
    year_period,
)


class TestResolveRelative:
    def test_day_ahead(self):
        p = resolve_relative("D+1", date(2012, 5, 3))
        assert p.start.date() == date(2012, 5, 4)
        assert p.kind == "day"

    def test_next_quarter_skips_current(self):
        p = resolve_relative("Q+1", date(2012, 5, 3))
        assert p.label == "Q3-2012"
        assert p.start == datetime(2012, 7, 1)
        assert p.end == datetime(2012, 10, 1)

    def test_second_year(self):
        assert resolve_relative("Y+2", date(2012, 5, 3)).label == "CAL-2014"

    def test_weekend_from_weekdays(self):
        # 2012-05-03 is a Thursday
        assert resolve_relative("WE+1", date(2012, 5, 3)).start.date() == date(2012, 5, 5)
        # from a Saturday, the current weekend does not count
        assert resolve_relative("WE+1", date(2012, 5, 5)).start.date() == date(2012, 5, 12)
        assert resolve_relative("WE+2", date(2012, 5, 3)).start.date() == date(2012, 5, 12)

    def test_week_starts_next_monday(self):
        assert resolve_relative("W+1", date(2012, 5, 3)).start.date() == date(2012, 5, 7)
        assert resolve_relative("W+1", date(2012, 5, 7)).start.date() == date(2012, 5, 14)

    def test_month_skips_current(self):
        assert resolve_relative("M+1", date(2012, 5, 3)).label == "M-2012-06"
        assert resolve_relative("M+2", date(2012, 12, 15)).label == "M-2013-02"

    def test_monotone_contiguous(self):
        qd = date(2013, 8, 14)
        for kind in ("M", "Q", "Y"):
            prev = None
            for n in range(1, 9):
                p = resolve_relative(f"{kind}+{n}", qd)
                if prev is not None:
                    assert p.start == prev.end  # contiguous, strictly later
                prev = p
        for kind in ("D", "WE", "W"):
            prev = None
            for n in range(1, 9):
                p = resolve_relative(f"{kind}+{n}", qd)
                if prev is not None:
                    assert p.start >= prev.end
                prev = p

    def test_absolute_is_idempotent(self):
        resolve = parse_contract("Q3-2012")
        assert resolve(date(2012, 5, 3)).label == "Q3-2012"
        assert resolve(date(2011, 1, 1)) is resolve(date(2012, 5, 3))
        assert resolve_relative("Q3-2012", date(2011, 1, 1)).label == "Q3-2012"

    def test_bad_codes(self):
        with pytest.raises(DataError):
            parse_contract("Q+0")
        with pytest.raises(DataError):
            parse_contract("X+1")
        with pytest.raises(DataError):
            parse_contract("CAL2014")


class TestLabels:
    @pytest.mark.parametrize(
        "label",
        ["CAL-2014", "Q3-2012", "M-2012-07", "D-2012-05-04", "WE-2012-05-05", "W-2012-05-07", "H-2012-05-04-13"],
    )
    def test_roundtrip(self, label):
        assert parse_period_label(label).label == label

    def test_weekend_must_start_saturday(self):
        with pytest.raises(DataError):
            parse_period_label("WE-2012-05-04")

    def test_week_must_start_monday(self):
        with pytest.raises(DataError):
            parse_period_label("W-2012-05-08")


    def test_label_is_cached_outside_equality_hash_and_order(self):
        q2, q2_again, q3 = quarter_period(2014, 2), quarter_period(2014, 2), quarter_period(2014, 3)
        before = (repr(q2), hash(q2), q2 == q2_again, q2 < q3, sorted([q3, q2]))
        assert q2.label == "Q2-2014"
        assert q2.label is q2.label  # computed once
        assert (repr(q2), hash(q2), q2 == q2_again, q2 < q3, sorted([q3, q2])) == before
        assert {q2: 1}[q2_again] == 1


class TestDeliveryHours:
    def test_quarter(self):
        assert delivery_hours(quarter_period(2014, 1)) == 90 * 24

    def test_calendar_year(self):
        assert delivery_hours(year_period(2014)) == 365 * 24
        assert delivery_hours(year_period(2016)) == 366 * 24

    def test_leap_quarter(self):
        assert delivery_hours(quarter_period(2016, 1)) == 91 * 24

    def test_hour(self):
        p = parse_period_label("H-2012-05-04-13")
        assert delivery_hours(p) == 1


class TestPeriodChildren:
    def test_year_quarters(self):
        children = period_children(year_period(2014), "quarter")
        assert [c.label for c in children] == ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]

    def test_quarter_months(self):
        children = period_children(quarter_period(2014, 4), "month")
        assert [c.label for c in children] == ["M-2014-10", "M-2014-11", "M-2014-12"]

    def test_day_hours(self):
        children = period_children(parse_period_label("D-2014-04-05"), "hour")
        assert len(children) == 24
        assert children[3].label == "H-2014-04-05-03"

    def test_unsupported(self):
        with pytest.raises(DataError):
            period_children(year_period(2014), "day")


# Period parsers on any text: a label that parses, a typed error, nothing else.
_YEAR = st.one_of(
    st.integers(-10, 10**30).map(str),
    st.integers(0, 99999).map("{:04d}".format),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=5),  # any Unicode digit
)
_DAY = st.builds("{}-{:02d}-{:02d}".format, _YEAR, st.integers(0, 13), st.integers(0, 32))
_LABEL = st.one_of(
    st.builds("CAL-{}".format, _YEAR),
    st.builds("Q{}-{}".format, st.integers(0, 5), _YEAR),
    st.builds("M-{}-{:02d}".format, _YEAR, st.integers(0, 13)),
    st.builds("{}-{}".format, st.sampled_from(["W", "WE", "D"]), st.one_of(_DAY, st.dates().map(date.isoformat))),
    st.builds("H-{}-{:02d}".format, st.one_of(_DAY, st.dates().map(date.isoformat)), st.integers(0, 25)),
    st.text(max_size=24),
)
_OFFSET = st.one_of(st.integers(0, 10**30).map(str), st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4))
_CODE = st.one_of(
    st.builds("{}{}+{}{}".format, st.sampled_from(["", " ", "\t"]), st.sampled_from(["D", "WE", "W", "M", "Q", "Y", "H", "X"]),
              _OFFSET, st.sampled_from(["", " ", "\n"])),
    _LABEL,
)


def _assert_parses_back_or_raises_typed(call, *args):
    try:
        period = call(*args)
    except CurveShapeError:
        return
    assert isinstance(period, Period)
    again = parse_period_label(period.label)
    assert (again, again.kind, again.label) == (period, period.kind, period.label)


@given(label=_LABEL)
def test_parse_period_label_returns_a_label_that_parses_back_or_a_typed_error(label):
    _assert_parses_back_or_raises_typed(parse_period_label, label)


@given(code=_CODE, quote_date=st.dates())
def test_resolve_relative_returns_a_label_that_parses_back_or_a_typed_error(code, quote_date):
    _assert_parses_back_or_raises_typed(resolve_relative, code, quote_date)


@pytest.mark.parametrize(
    ("label", "canonical"),
    [("Q1-0001", "Q1-0001"), ("M-0999-12", "M-0999-12"), ("CAL-999", "CAL-0999"), ("CAL-02014", "CAL-2014")],
)
def test_labels_before_year_1000_take_four_digits(label, canonical):
    period = parse_period_label(label)
    assert period.label == canonical
    assert parse_period_label(canonical) == period


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Period(datetime(2014, 1, 1), datetime(2014, 2, 1), "fortnight"), "^unknown granularity: 'fortnight'$"),
        (lambda: Period(datetime(2014, 2, 1), datetime(2014, 1, 1), "month"), "^invalid delivery window$"),
        (lambda: quarter_period(2014, 5), "^invalid quarter number: 5$"),
        # int() converts at most 4,300 digits
        (lambda: parse_contract("D+" + "9" * 4301), r"^relative offset out of range: 'D\+9{4301}'$"),
    ],
    ids=["granularity", "window", "quarter", "offset-digits"],
)
def test_malformed_periods_are_data_errors(make, message):
    with pytest.raises(DataError, match=message):
        make()
