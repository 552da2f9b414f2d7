"""Tests for quote ingestion and dataset assembly."""

import io
import math
import tracemalloc
from collections.abc import Callable
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveshape.market
from curveshape import Dataset, QuoteTable, build_regression_dataset, load_quotes
from curveshape.exceptions import DataError
from curveshape.market import CompletenessReport
from curveshape.periods import Period, parse_contract, parse_period_label, period_children

TABLE_SNAPSHOT = """quote_date,contract,price
2012-05-03,D+1,44.75
2012-05-03,D+2,39.00
2012-05-03,WE+1,36.60
2012-05-03,W+1,43.00
2012-05-03,M+1,41.45
2012-05-03,Q+1,43.20
2012-05-03,Q+2,52.85
2012-05-03,Y+1,50.20
"""


def _items(table: QuoteTable) -> dict[tuple[date, str], float]:
    """Price of each quote by (quote date, label), in row order."""
    rows = zip(table.days.tolist(), table.codes.tolist(), table.prices.tolist())
    return {(date.fromordinal(day), table.labels[code]): price for day, code, price in rows}


class TestLoadQuotes:
    def test_snapshot_rows_resolve_distinctly(self):
        table = load_quotes(io.StringIO(TABLE_SNAPSHOT))
        assert len(table) == 8
        assert set(table.labels) == {
            "D-2012-05-04",
            "D-2012-05-05",
            "WE-2012-05-05",
            "W-2012-05-07",
            "M-2012-06",
            "Q3-2012",
            "Q4-2012",
            "CAL-2013",
        }
        assert _items(table)[date(2012, 5, 3), "CAL-2013"] == 50.20

    def test_empty_after_header(self):
        assert len(load_quotes(io.StringIO("quote_date,contract,price\n"))) == 0

    def test_bad_price_names_line(self):
        csv = "quote_date,contract,price\n2012-05-03,Q+1,43.20\n2012-05-03,Q+2,abc\n"
        with pytest.raises(DataError, match="line 3"):
            load_quotes(io.StringIO(csv))

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_price_names_line(self, price):
        csv = f"quote_date,contract,price\n2012-05-03,Q+1,43.20\n2012-05-03,Q+2,{price}\n"
        with pytest.raises(DataError, match="^line 3: non-finite price$"):
            load_quotes(io.StringIO(csv))

    def test_bad_date_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_quotes(io.StringIO("quote_date,contract,price\n03/05/2012,Q+1,43.20\n"))

    def test_bad_contract_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_quotes(io.StringIO("quote_date,contract,price\n2012-05-03,Z+1,43.20\n"))

    def test_missing_header(self):
        with pytest.raises(DataError, match="line 1"):
            load_quotes(io.StringIO("date,code,px\n2012-05-03,Q+1,43.20\n"))

    def test_one_leading_byte_order_mark_is_read_past(self, tmp_path):
        # Excel's "CSV UTF-8" export writes U+FEFF before the header
        path = tmp_path / "excel.csv"
        path.write_text(TABLE_SNAPSHOT, encoding="utf-8-sig")
        expected = _items(load_quotes(io.StringIO(TABLE_SNAPSHOT)))
        assert _items(load_quotes(path)) == _items(load_quotes(io.StringIO("\ufeff" + TABLE_SNAPSHOT))) == expected
        for text in ("\ufeff\ufeff" + TABLE_SNAPSHOT, "\n\ufeff" + TABLE_SNAPSHOT):  # one mark, on line 1 alone
            with pytest.raises(DataError, match="^line 1: expected header "):
                load_quotes(io.StringIO(text))

    def test_duplicate_rejected(self):
        csv = (
            "quote_date,contract,price\n"
            "2012-05-03,Q+1,43.20\n"
            "2012-05-03,Q3-2012,43.25\n"  # same resolved window
        )
        with pytest.raises(DataError, match="line 3: duplicate quote for Q3-2012 on 2012-05-03"):
            load_quotes(io.StringIO(csv))

    def test_started_delivery_rejected(self):
        csv = "quote_date,contract,price\n2014-05-03,CAL-2014,41.0\n"
        with pytest.raises(DataError, match="starts before"):
            load_quotes(io.StringIO(csv))

    def test_relative_code_resolves_per_row(self):
        csv = "quote_date,contract,price\n2013-03-29,Q+1,40.0\n2013-04-01,Q+1,41.0\n"
        assert list(_items(load_quotes(io.StringIO(csv)))) == [(date(2013, 3, 29), "Q2-2013"), (date(2013, 4, 1), "Q3-2013")]

    def test_started_delivery_names_the_later_row(self):
        csv = (
            "quote_date,contract,price\n"
            "2013-03-01,Q2-2013,40.0\n"
            "2013-03-02,CAL-2014,50.0\n"
            "2013-04-02,Q2-2013,41.0\n"  # the same label, quoted after delivery starts
        )
        with pytest.raises(DataError, match="line 4: delivery window of Q2-2013 starts before"):
            load_quotes(io.StringIO(csv))

    def test_each_distinct_contract_is_parsed_once(self, monkeypatch):
        calls = []

        def counting(code):
            calls.append(code)
            return parse(code)

        parse = curveshape.market.parse_contract
        monkeypatch.setattr(curveshape.market, "parse_contract", counting)
        rows = [
            f"2013-0{m}-01,{c},{50.0 + m}"
            for m in (1, 2, 3)
            for c in ("CAL-2014", "Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014")
        ]
        table = load_quotes(io.StringIO("quote_date,contract,price\n" + "\n".join(rows) + "\n"))
        assert len(table) == 15
        assert sorted(calls) == ["CAL-2014", "Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_quotes(tmp_path / "nope.csv")

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="cannot read quotes file"):
            load_quotes(tmp_path)

    @pytest.mark.parametrize("contract", ["D+9999999999", "D-9999-12-31", "Y+9000", "H-9999-12-31-23"])
    def test_period_past_year_9999_names_its_line(self, contract):
        csv = f"quote_date,contract,price\n2013-01-02,CAL-2014,50\n2013-01-02,{contract},50\n"
        with pytest.raises(DataError, match=r"^line 3: ") as raised:
            load_quotes(io.StringIO(csv))
        assert contract in str(raised.value)

    def test_serialization_roundtrip(self):
        table = load_quotes(io.StringIO(TABLE_SNAPSHOT))
        again = load_quotes(io.StringIO(table.to_csv()))
        assert _items(again) == _items(table)
        assert again.to_csv() == table.to_csv()

    def test_date_filter(self):
        csv = (
            "quote_date,contract,price\n"
            "2013-01-02,Y+1,50.0\n"
            "2013-01-03,Y+1,51.0\n"
            "2013-01-04,Y+1,52.0\n"
        )
        table = load_quotes(io.StringIO(csv))
        sub = table.filter_dates(date(2013, 1, 2), date(2013, 1, 3))
        assert len(sub) == 2

    def test_merge_rejects_a_quote_held_by_both_tables(self):
        table = load_quotes(io.StringIO(TABLE_SNAPSHOT))
        other = QuoteTable([date(2012, 5, 3).toordinal(), date(2012, 5, 4).toordinal()], [0, 0], [43.25, 43.3], ["Q3-2012"])
        with pytest.raises(DataError, match="duplicate quote for Q3-2012 on 2012-05-03"):
            table.merged_with(other)
        assert len(table.merged_with(other.filter_dates(date(2012, 5, 4), date(2012, 5, 4)))) == 9

    def test_a_respelled_period_is_stored_canonical_and_is_a_duplicate(self):
        day, next_day = date(2013, 1, 2).toordinal(), date(2013, 1, 3).toordinal()
        for spelling in ("CAL-02014", "CAL-2_014"):
            with pytest.raises(DataError, match="^duplicate quote for CAL-2014 on 2013-01-02$"):
                QuoteTable([day, day], [0, 1], [50.0, 51.0], [spelling, "CAL-2014"])
            table = QuoteTable([day, next_day], [0, 1], [50.0, 51.0], [spelling, "CAL-2014"])
            assert table.labels == ("CAL-2014",)
            with pytest.raises(DataError, match="^duplicate quote for CAL-2014 on 2013-01-03$"):
                table.merged_with(QuoteTable([next_day], [0], [52.0], [spelling]))

    def test_columns_are_read_only_and_checked(self):
        table = load_quotes(io.StringIO(TABLE_SNAPSHOT))
        assert (table.days.dtype, table.codes.dtype, table.prices.dtype) == (np.int32, np.int32, np.float64)
        for column in (table.days, table.codes, table.prices):
            with pytest.raises(ValueError):
                column[0] = 0
        day = date(2013, 1, 2).toordinal()
        for columns, message in [
            (([day, day], [0], [1.0, 2.0]), "of one length"),
            (([day], [1], [1.0]), "^codes must be whole numbers >= 0 and < 1$"),
            (([0], [0], [1.0]), "^days must be whole numbers >= 1 and <= 3652059$"),
            (([day + 0.7], [0], [1.0]), "^days must be whole numbers >= 1 and <= 3652059$"),
            (([str(day)], [0], [1.0]), "^days must be numbers in a regular array$"),
            (([day], [0.5], [1.0]), "^codes must be whole numbers >= 0 and < 1$"),
            (([day], ["0"], [1.0]), "^codes must be numbers in a regular array$"),
        ]:
            with pytest.raises(DataError, match=message):
                QuoteTable(*columns, ["CAL-2014"])

    def test_text_is_a_path_and_a_stream_is_text(self, tmp_path):
        # a str is always a path, even where it holds CSV text
        for text in ("quote_date,contract,price", TABLE_SNAPSHOT):
            with pytest.raises(DataError, match="^cannot read quotes file: "):
                load_quotes(text)
        path = tmp_path / "quotes.csv"
        path.write_text(TABLE_SNAPSHOT)
        assert _items(load_quotes(str(path))) == _items(load_quotes(path)) == _items(load_quotes(io.StringIO(TABLE_SNAPSHOT)))
        with pytest.raises(DataError, match="^quotes source must be a path or an open text stream, not bytes$"):
            load_quotes(TABLE_SNAPSHOT.encode())

    def test_stream_source(self):
        table = load_quotes(io.StringIO(TABLE_SNAPSHOT))
        assert len(table) == 8


def quotes_for_years(rows):
    lines = ["quote_date,contract,price"]
    for quote_date, prices in rows:
        for label, price in prices.items():
            lines.append(f"{quote_date},{label},{price}")
    return load_quotes(io.StringIO("\n".join(lines) + "\n"))


class TestBuildRegressionDataset:
    def full_day(self, cal, quarters):
        prices = {"CAL-2014": cal}
        prices.update({f"Q{i + 1}-2014": q for i, q in enumerate(quarters)})
        return prices

    def test_complete_rows(self):
        table = quotes_for_years(
            [
                ("2013-01-02", self.full_day(50.0, [54, 45, 47, 54])),
                ("2013-01-03", self.full_day(51.0, [55, 46, 48, 55])),
                ("2013-01-04", self.full_day(52.0, [56, 47, 49, 56])),
            ]
        )
        dataset, report = build_regression_dataset(table)
        assert dataset.n_cases == 3
        assert dataset.n_children == 4
        assert report.n_dropped == 0
        assert dataset.case_ids[0] == "2013-01-02|CAL-2014"
        np.testing.assert_allclose(dataset.x, [50.0, 51.0, 52.0])
        np.testing.assert_allclose(dataset.y[1], [55, 46, 48, 55])

    def test_missing_child_dropped_and_reported(self):
        incomplete = self.full_day(51.0, [55, 46, 48, 55])
        del incomplete["Q4-2014"]
        table = quotes_for_years(
            [
                ("2013-01-02", self.full_day(50.0, [54, 45, 47, 54])),
                ("2013-01-03", incomplete),
                ("2013-01-04", self.full_day(52.0, [56, 47, 49, 56])),
                ("2013-01-07", self.full_day(53.0, [57, 48, 50, 57])),
            ]
        )
        dataset, report = build_regression_dataset(table)
        assert dataset.n_cases == 3
        assert report.n_dropped == 1
        assert report.missing[0][0] == "2013-01-03"
        assert report.missing[0][2] == ["Q4-2014"]
        assert report.as_dict()["dropped"] == 1

    def test_no_joint_observations(self):
        table = quotes_for_years([("2013-01-02", {"CAL-2014": 50.0, "Q1-2014": 54.0})])
        with pytest.raises(DataError, match="no joint observations"):
            build_regression_dataset(table)

    def test_hourly_split_is_just_another_split(self):
        rows = []
        for d, base in (("2014-01-02", 40.0), ("2014-01-03", 42.0), ("2014-01-06", 44.0)):
            prices = {"D-2014-02-03": base}
            prices.update({f"H-2014-02-03-{h:02d}": base + (h - 11.5) * 0.1 for h in range(24)})
            rows.append((d, prices))
        table = quotes_for_years(rows)
        dataset, report = build_regression_dataset(table, parent_kind="day", child_kind="hour")
        assert dataset.n_children == 24
        assert dataset.n_cases == 3
        assert report.n_dropped == 0

    def test_a_respelled_parent_is_one_parent(self):
        prices = [50.0, 54, 45, 47, 54]
        labels = ["CAL-02014", "CAL-2014", "Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]
        days, codes, quotes = [], [], []
        for i, parent in enumerate((0, 1, 0)):
            days += [date(2013, 1, 2 + i).toordinal()] * 5
            codes += [parent, 2, 3, 4, 5]
            quotes += [p + i for p in prices]
        dataset, report = build_regression_dataset(QuoteTable(days, codes, quotes, labels))
        assert dataset.case_ids == ["2013-01-02|CAL-2014", "2013-01-03|CAL-2014", "2013-01-04|CAL-2014"]
        assert report.n_dropped == 0

    def test_pivot_allocates_a_small_multiple_of_the_columns(self):
        """5,000 quote dates of D+1, D+2 and D+3 beside CAL and its quarters.

        The table holds 5,072 labels, so a float64 dates x labels grid
        would take about 200 MB against 0.6 MB of columns.
        """
        rng = np.random.default_rng(5)
        code: dict[str, int] = {}
        days, codes, prices = [], [], []
        for i in range(5000):
            day = date(2000, 1, 3) + timedelta(days=i)
            cal = 50.0 + rng.normal()
            year = day.year + 1
            quotes = {f"D-{day + timedelta(days=n)}": 40.0 + rng.normal() for n in (1, 2, 3)}
            quotes[f"CAL-{year}"] = cal
            quotes.update({f"Q{q}-{year}": cal + q + rng.normal() for q in range(1, 5)})
            for label, price in quotes.items():
                days.append(day.toordinal())
                codes.append(code.setdefault(label, len(code)))
                prices.append(price)
        table = QuoteTable(days, codes, prices, list(code))
        columns = table.days.nbytes + table.codes.nbytes + table.prices.nbytes
        assert (len(table), len(table.labels)) == (40_000, 5072)
        tracemalloc.start()
        try:
            dataset, report = build_regression_dataset(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dataset.n_cases, report.n_dropped) == (5000, 0)
        assert peak < 6 * columns

    def test_generator_roundtrip_recovers_gamma(self):
        from curveshape import (
            SyntheticMarketConfig,
            classical_fit,
            constraints_for_weights,
            synthesize_market,
        )

        gamma = np.array([1.12, -1.6, 0.88, 1.4, 0.92, 0.9, 1.08, -0.7])
        weights = np.full(4, 0.25)
        config = SyntheticMarketConfig(
            true_gamma=gamma, weights=weights, n_dates=60, noise_scale=0.0, seed=3,
        )
        market = synthesize_market(config)
        dataset, _ = build_regression_dataset(market.table)
        result = classical_fit(dataset, constraints_for_weights(weights))
        np.testing.assert_allclose(result.gamma, gamma, atol=1e-8)


def _mixed_code_rows():
    """(date, relative code, absolute label, price) rows quoted in Q4 2013.

    Every date quotes CAL-2014 and its four quarters, plus CAL-2015 alone
    (one dropped row per date), a month and a day.  2013-11-06 misses
    Q3-2014, so its CAL-2014 row is dropped too.
    """
    rows = []
    for i, quote_date in enumerate(date(2013, 10, 1) + timedelta(days=9 * n) for n in range(8)):
        month = date(2013 + quote_date.month // 12, quote_date.month % 12 + 1, 1)
        codes = [("Y+1", "CAL-2014"), ("Y+2", "CAL-2015"), ("M+1", f"M-{month:%Y-%m}"),
                 ("D+1", f"D-{quote_date + timedelta(days=1)}")]
        codes += [(f"Q+{q}", f"Q{q}-2014") for q in range(1, 5)]
        for j, (relative, absolute) in enumerate(codes):
            if (quote_date, absolute) != (date(2013, 11, 6), "Q3-2014"):
                rows.append((quote_date, relative, absolute, f"{40 + i + j / 8 + 1e-3 * i * j:.6g}"))
    return rows


MIXED_ROWS = _mixed_code_rows()


def _csv(rows, use_relative):
    lines = ["quote_date,contract,price"]
    for (quote_date, relative, absolute, price), rel in zip(rows, use_relative):
        lines.append(f"{quote_date},{relative if rel else absolute},{price}")
    return "\n".join(lines) + "\n"


@given(data=st.data())
def test_row_order_and_code_form_leave_the_table_unchanged(data):
    reference = load_quotes(io.StringIO(_csv(MIXED_ROWS, [False] * len(MIXED_ROWS))))
    ref_dataset, ref_report = build_regression_dataset(reference)
    rows = data.draw(st.permutations(MIXED_ROWS))
    use_relative = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    table = load_quotes(io.StringIO(_csv(rows, use_relative)))
    assert table.to_csv() == reference.to_csv()
    dataset, report = build_regression_dataset(table)
    assert dataset.x.tobytes() == ref_dataset.x.tobytes()
    assert dataset.y.tobytes() == ref_dataset.y.tobytes()
    assert dataset.case_ids == ref_dataset.case_ids
    assert report.as_dict() == ref_report.as_dict()
    assert (report.n_rows, report.n_dropped) == (7, 9)


def _dict_walk(prices: dict[tuple[date, str], float], parent_kind: str, child_kind: str):
    """Oracle: the dict walk ``build_regression_dataset`` ran before the table held columns."""
    periods = {label: parse_period_label(label) for label in {label for _, label in prices}}
    children = {
        label: [c.label for c in period_children(period, child_kind)]
        for label, period in periods.items()
        if period.kind == parent_kind
    }
    rows = sorted((d, periods[label].start, label) for d, label in prices if label in children)
    xs: list[float] = []
    ys: list[list[float]] = []
    ids: list[str] = []
    missing: list[tuple[str, str, list[str]]] = []
    for quote_date, _, parent in rows:
        labels = children[parent]
        child_prices = [prices.get((quote_date, label)) for label in labels]
        if None in child_prices:
            absent = [label for label, p in zip(labels, child_prices) if p is None]
            missing.append((quote_date.isoformat(), parent, absent))
            continue
        xs.append(prices[quote_date, parent])
        ys.append(child_prices)
        ids.append(f"{quote_date.isoformat()}|{parent}")
    if not xs:
        raise DataError("no joint observations")
    dataset = Dataset(x=np.array(xs), y=np.array(ys), case_ids=ids)
    return dataset, CompletenessReport(n_rows=len(xs), n_dropped=len(missing), missing=missing)


# Parents quoted per split; a date may quote several of them.
_SPLIT_PARENTS = {
    ("year", "quarter"): ["CAL-2014", "CAL-2015", "CAL-2016"],
    ("year", "month"): ["CAL-2014", "CAL-2015"],
    ("quarter", "month"): ["Q1-2014", "Q2-2014", "Q4-2014", "Q1-2015"],
    ("day", "hour"): ["D-2014-02-03", "D-2014-02-04", "D-2014-03-30"],
}
# Labels beside the split: other kinds, and parents or children no drawn parent reads.
_EXTRA_LABELS = [
    "W-2014-02-03", "WE-2014-02-08", "M-2016-05", "Q3-2016", "H-2014-02-05-07", "D-2014-02-05", "CAL-2017",
]
# Other spellings of one period: int() reads a leading zero, an underscore and Arabic-Indic digits.
_SPELLINGS = {"CAL-2014": ["CAL-2014", "CAL-02014", "CAL-2_014"], "Q1-2014": ["Q1-2014", "Q1-\u0662\u0660\u0661\u0664"]}


@given(data=st.data())
def test_columnar_pivot_matches_the_dict_walk(data):
    split = data.draw(st.sampled_from(sorted(_SPLIT_PARENTS)))
    rng = data.draw(st.randoms(use_true_random=False))
    quotes: dict[tuple[date, str], float] = {}
    for day in data.draw(st.lists(st.dates(date(2013, 1, 1), date(2013, 2, 28)), min_size=4, max_size=8, unique=True)):
        for parent in data.draw(st.sets(st.sampled_from(_SPLIT_PARENTS[split]), min_size=1)):
            children = [c.label for c in period_children(parse_period_label(parent), split[1])]
            quotes[day, parent] = rng.uniform(20.0, 80.0)
            quotes.update(((day, c), rng.choice([rng.uniform(20.0, 80.0), float(rng.randint(40, 41))])) for c in children)
            if rng.random() < 0.2:  # the parent or a child or two not quoted
                for label in rng.sample([parent, *children], rng.randint(1, 2)):
                    del quotes[day, label]
        for label in data.draw(st.sets(st.sampled_from(_EXTRA_LABELS), max_size=3)):
            quotes[day, label] = rng.uniform(20.0, 80.0)
    rows = list(quotes.items())
    rng.shuffle(rows)
    spelled = [rng.choice(_SPELLINGS.get(label, [label])) for (_, label), _ in rows]
    labels = sorted(set(spelled))
    table = QuoteTable(
        [day.toordinal() for (day, _), _ in rows], [labels.index(label) for label in spelled], [p for _, p in rows], labels
    )
    assert _items(table) == quotes
    try:
        expected, expected_report = _dict_walk(quotes, *split)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            build_regression_dataset(table, *split)
        assert str(raised.value) == str(exc)
        return
    dataset, report = build_regression_dataset(table, *split)
    assert dataset.x.tobytes() == expected.x.tobytes()
    assert (dataset.y.shape, dataset.y.tobytes()) == (expected.y.shape, expected.y.tobytes())
    assert dataset.case_ids == expected.case_ids
    assert report.as_dict() == expected_report.as_dict()


def _row_by_row(text: str) -> dict[tuple[date, str], float]:
    """Oracle: the per-row loop ``load_quotes`` ran before it parsed each date and contract text once."""
    lines = text.splitlines()
    prices: dict[tuple[date, str], float] = {}
    resolvers: dict[str, Callable[[date], Period]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        raw_date, raw_contract, raw_price = (p.strip() for p in parts)
        try:
            quote_date = date.fromisoformat(raw_date)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad quote date {raw_date!r}") from exc
        try:
            price = float(raw_price)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad price {raw_price!r}") from exc
        if not math.isfinite(price):
            raise DataError(f"line {lineno}: non-finite price")
        try:
            if raw_contract not in resolvers:
                resolvers[raw_contract] = parse_contract(raw_contract)
            period = resolvers[raw_contract](quote_date)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        if period.start.date() < quote_date:
            raise DataError(
                f"line {lineno}: delivery window of {period.label} starts before quote date"
            )
        if (quote_date, period.label) in prices:
            raise DataError(f"line {lineno}: duplicate quote for {period.label} on {quote_date}")
        prices[quote_date, period.label] = price
    return prices


# README-like rows quoted in 2012-2013: absolute and relative CAL/Q/M/W/WE/D codes.
_DATE = st.dates(date(2012, 1, 1), date(2013, 12, 31)).map(date.isoformat)
_CODE = st.sampled_from([
    "CAL-2014", "Q1-2014", "Q3-2014", "M-2014-07", "W-2014-01-06", "WE-2014-01-04", "D-2014-01-05",
    "H-2014-01-05-13", "Y+1", "Y+2", "Q+1", "Q+3", "M+1", "M+2", "W+1", "WE+2", "D+1", "D+3",
])
_PRICE = st.one_of(st.sampled_from(["43.20", "50", "-1.5e2", "1_000.5"]), st.floats(-1e6, 1e6).map(repr))
# "\x1f" is whitespace to str.strip() but not to float().
_PAD = st.sampled_from(["", " ", "\t", "\xa0", "\x1f"])


def _row(*fields):
    padded = [st.builds(lambda left, text, right: left + text + right, _PAD, f, _PAD) for f in fields]
    return st.builds(lambda *texts: ",".join(texts), *padded)


_VALID_ROW = _row(_DATE, _CODE, _PRICE)
_BAD_ROW = st.one_of(
    _row(st.sampled_from(["2013-13-01", "03/05/2012", ""]), _CODE, _PRICE),
    _row(_DATE, st.sampled_from([
        "CAL-2013", "Q+0", "Z+1", "", "D+9999999999", "Y+9000", "W+521000", "M+" + "9" * 30,
        "D+" + "9" * 5000, "D-9999-12-31", "H-9999-12-31-23", "CAL-9999", "D-9999-12-30", "Q4-9998",
    ]), _PRICE),
    _row(st.sampled_from(["2014-02-03", "9999-12-30"]), _CODE, _PRICE),  # started, or past 9999
    _row(_DATE, _CODE, st.sampled_from(["abc", "", "nan", "-inf", "1e999"])),
)
# Lines that break one rule each, or none (blank and whitespace-only lines).
_MUTANT = st.one_of(
    _BAD_ROW,
    st.sampled_from(["", "   ", "\t\xa0"]),
    _VALID_ROW.map(lambda row: row + ",1"),
    _VALID_ROW.map(lambda row: row.rsplit(",", 1)[0]),
)


# One failure shrunk at a time: shrinking several distinct ones ran past 5 minutes.
@settings(report_multiple_bugs=False)
@given(data=st.data())
def test_load_quotes_matches_the_row_by_row_parse(data):
    lines = data.draw(st.lists(_VALID_ROW, min_size=1, max_size=40))
    for _ in range(data.draw(st.integers(0, 2))):  # a mutant line, or a row quoted twice
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.one_of(_MUTANT, st.sampled_from(lines))))
    text = "\n".join(["quote_date,contract,price", *lines]) + "\n"
    try:
        expected = _row_by_row(text)
    except (DataError, OverflowError, ValueError) as exc:
        with pytest.raises(DataError) as raised:
            load_quotes(io.StringIO(text))
        if isinstance(exc, DataError):
            assert str(raised.value) == str(exc)
        return
    assert list(_items(load_quotes(io.StringIO(text))).items()) == list(expected.items())
