"""Parsing reported F statistics and inverting repeated-measures dfs."""

import pytest
from hypothesis import given, settings, strategies as st

from rmbayes import DesignSpec, infer_rm_design, parse_reports, ReportedStat
from rmbayes.apa import _report_bounds, _scan
from rmbayes.errors import DesignInferenceError, DomainError

from conftest import reference_parse_reports

# numbers whose exponent, if any, has a "-" that a typeset text would write as U+2212
_NUMBER_WITH_MINUS = st.builds(
    "{}{}{}".format, st.sampled_from(["1", "1.3", ".5", "24", "4.", "0"]),
    st.sampled_from(["", "e-", "E-", "e-0", "e+", "e"]), st.sampled_from(["", "2", "13"]))
_RELATION = st.sampled_from(["=", "<"])
_REPORT_WITH_MINUS = st.builds(
    "F({}, {}) {} {}{}".format, _NUMBER_WITH_MINUS, _NUMBER_WITH_MINUS, _RELATION,
    _NUMBER_WITH_MINUS,
    st.one_of(st.just(""), st.builds(", p {} {}".format, _RELATION, _NUMBER_WITH_MINUS)))


# characters that make or break a report, and whitespace that \s and str.isspace
# both take, beyond the ASCII ones
_WHITESPACE = " \n\t\x0b\x1c\x85\xa0\u2003\u3000"
_ADVERSARIAL = "Ff(),=<pP.eE+-\u22120123456789abxyzQ" + _WHITESPACE
_GAP = st.text(alphabet=_WHITESPACE, max_size=2)
_FRAGMENT_NUMBER = st.builds(
    "{}{}".format, st.sampled_from(["1", "22", "0", "38", ".5", "2.", "4.12", "\u0663"]),
    st.sampled_from([""] * 8 + ["e2", "E-1", "e\u22122", "e", "e+", "e400", ",3", "e\u20132"]))


def _cut(parts: tuple, cut) -> str:
    text = "".join(parts)
    return text if cut is None else text[:cut]


# a report with random gaps, perhaps without its F, perhaps cut short; noise alone
# almost never holds a report
_FRAGMENT = st.builds(
    _cut,
    st.tuples(st.sampled_from(["F", "f", "F", "", "x", "FF"]), _GAP, st.just("("), _GAP,
              _FRAGMENT_NUMBER, _GAP, st.just(","), _GAP, _FRAGMENT_NUMBER, _GAP, st.just(")"),
              _GAP, st.sampled_from("=<"), _GAP, _FRAGMENT_NUMBER,
              st.one_of(st.just(""), st.tuples(
                  _GAP, st.just(","), _GAP, st.sampled_from("pP"), _GAP,
                  st.sampled_from("=<"), _GAP, _FRAGMENT_NUMBER).map("".join))),
    st.one_of(st.none(), st.none(), st.integers(min_value=0, max_value=40)))
_ADVERSARIAL_TEXT = st.lists(
    st.one_of(_FRAGMENT, st.text(alphabet=_ADVERSARIAL, max_size=8)), min_size=1,
    max_size=8).map("".join)


class TestParseReports:
    def test_single_report_with_p(self):
        reports = parse_reports("F(3,96)=2.76, p=0.046")
        assert len(reports) == 1
        stat = reports[0]
        assert (stat.df1, stat.df2, stat.f_value) == (3.0, 96.0, 2.76)
        assert stat.p_reported == 0.046
        assert not stat.f_is_upper_bound
        assert stat.span == (0, len("F(3,96)=2.76, p=0.046"))

    def test_empty_input(self):
        assert parse_reports("") == []

    def test_prose_without_reports(self):
        assert parse_reports("the effect was not significant (all ps > .2)") == []

    def test_composed_text_with_upper_bound(self):
        text = "F(1, 22) = 1.336, p = .26 and also F(2,38)<1"
        first, second = parse_reports(text)
        assert (first.df1, first.df2, first.f_value, first.p_reported) == (1.0, 22.0, 1.336, 0.26)
        assert not first.f_is_upper_bound
        assert (second.df1, second.df2, second.f_value) == (2.0, 38.0, 1.0)
        assert second.f_is_upper_bound

    def test_case_insensitive_marker(self):
        assert parse_reports("f(2, 10) = 4.5")[0].f_value == 4.5

    def test_leading_dot_and_leading_zero_agree(self):
        bare = parse_reports("F(1, 22) = 1.336, p = .26")[0]
        padded = parse_reports("F(1, 22) = 1.336, p = 0.26")[0]
        assert bare.p_reported == padded.p_reported == 0.26

    def test_p_upper_bound_flag(self):
        stat = parse_reports("F(1, 22) = 9.1, p < .05")[0]
        assert stat.p_reported == 0.05
        assert stat.p_is_upper_bound

    def test_out_of_range_p_dropped(self):
        stat = parse_reports("F(1, 22) = 1.3, p = 26")[0]
        assert stat.p_reported is None

    def test_exponent_values(self):
        text = "F(1, 22) = 1.3e2, p < .001"
        stat = parse_reports(text)[0]
        assert (stat.f_value, stat.p_reported, stat.p_is_upper_bound) == (130.0, 0.001, True)
        assert stat.span == (0, len(text))
        stat = parse_reports("F(2, 38) = 4.1E-1, p = 6.7e-1")[0]
        assert (stat.f_value, stat.p_reported) == (0.41, 0.67)

    def test_bare_exponent_marker_not_consumed(self):
        stat = parse_reports("F(2, 10) = 4.5e, p = .03")[0]
        assert stat.f_value == 4.5
        assert stat.p_reported is None
        assert stat.span == (0, len("F(2, 10) = 4.5"))

    def test_unicode_minus_exponent(self):
        stat = parse_reports("F(1, 22) = 1.3e\u22122, p = .9")[0]
        assert (stat.f_value, stat.p_reported) == (0.013, 0.9)
        text = "F(2, 38) = 9.1, p < 1e\u22123"
        stat = parse_reports(text)[0]
        assert (stat.f_value, stat.p_reported, stat.p_is_upper_bound) == (9.1, 0.001, True)
        assert stat.span == (0, len(text))

    def test_decimal_comma_drops_the_match(self):
        assert parse_reports("F(1, 22) = 4,3, p = .05") == []
        assert parse_reports("F(1, 22) = 1.336, p = 0,26") == []
        # a later report is still found
        stat, = parse_reports("F(1, 22) = 4,3, p = .05 and F(2, 38) = 1.2")
        assert (stat.df1, stat.f_value) == (2.0, 1.2)

    def test_unread_exponent_drops_the_match(self):
        # an en dash is no exponent sign; the match must not stop at 1.3
        assert parse_reports("F(1, 22) = 1.3e\u20132, p = .9") == []
        assert parse_reports("F(2, 38) = 9.1, p < 1e\u20133") == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(alphabet=" -,e;2", max_size=4), _REPORT_WITH_MINUS),
                    max_size=5))
    def test_unicode_minus_spelling_parses_the_same(self, parts):
        hyphens = "".join(filler + report for filler, report in parts)
        assert parse_reports(hyphens.replace("-", "\u2212")) == parse_reports(hyphens)

    def test_sub_unit_dfs_skipped(self):
        assert parse_reports("F(0, 22) = 3.0") == []
        assert parse_reports("F(0.5, 22) = 3.0") == []

    def test_decimal_dfs_are_parsed(self):
        stat = parse_reports("F(1.46, 32.1) = 5.02, p = .02")[0]
        assert stat.df1 == 1.46
        assert stat.df2 == 32.1

    def test_spans_ordered_and_non_overlapping(self):
        text = "first F(1, 22) = 1.336 then F(2,38)<1, and F(3, 96) = 2.76, p = .046."
        reports = parse_reports(text)
        assert len(reports) == 3
        spans = [r.span for r in reports]
        assert spans == sorted(spans)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        for (start, end), stat in zip(spans, reports):
            assert text[start] in "Ff"
            assert str(int(stat.df2)) in text[start:end] or f"{stat.df2:g}" in text[start:end]

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=200))
    def test_total_on_arbitrary_text(self, text):
        reports = parse_reports(text)
        previous_end = 0
        for stat in reports:
            start, end = stat.span
            assert 0 <= start < end <= len(text)
            assert start >= previous_end
            previous_end = end
            assert stat.df1 >= 1 and stat.df2 >= 1 and stat.f_value >= 0

    @settings(max_examples=500, deadline=None)
    @given(_ADVERSARIAL_TEXT)
    def test_matches_the_reference_scanner(self, text):
        assert parse_reports(text) == reference_parse_reports(text)

    @pytest.mark.parametrize("text", [
        "F\u3000(2, 38) = 1 and f\x85\x1c(1, 22) = 4", "F\n\t (2, 38) < 1", "(2, 38) = 1",
        "xF (2, 38) = 1", "F x(2, 38) = 1", "(1, 2) = 3F(2, 38) = 1", "FF(2,38)=1",
        "(2, 38) = 1 F", "\u3000(2, 38) = 1 f",  # no F before the "(", one at the end
    ])
    def test_whitespace_before_the_parenthesis(self, text):
        reports = parse_reports(text)
        assert reports == reference_parse_reports(text)
        for stat in reports:
            assert text[stat.span[0]] in "Ff"


class TestReportBounds:
    """``parse`` scans the parts of a text between ``_report_bounds`` apart."""

    @settings(max_examples=500, deadline=None)
    @given(_ADVERSARIAL_TEXT, st.integers(min_value=1, max_value=6))
    def test_parts_scan_as_the_whole_text(self, text, parts):
        hyphens = text.replace("\u2212", "-")
        bounds = _report_bounds(hyphens, parts)
        joined = [ReportedStat(*fields) for start, end in zip(bounds, bounds[1:])
                  for fields in _scan(hyphens, start, end)]
        assert joined == reference_parse_reports(text)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_ADVERSARIAL_TEXT, st.text()), st.integers(min_value=1, max_value=6))
    def test_cuts_rise_and_fall_where_no_report_can_be(self, text, parts):
        bounds = _report_bounds(text, parts)
        assert len(bounds) == parts + 1
        assert (bounds[0], bounds[-1]) == (0, len(text))
        assert bounds == sorted(bounds)
        for part, cut in enumerate(bounds[1:-1], start=1):
            assert cut >= len(text) * part // parts
            # re's \d is str.isdecimal and its \s str.isspace
            assert cut == len(text) or not (text[cut].isdecimal() or text[cut].isspace()
                                             or text[cut] in ".eE+-(),=<pP")


class TestInferDesign:
    def test_worked_dfs(self):
        design = infer_rm_design(ReportedStat(f_value=1.336, df1=1, df2=22))
        assert (design.n, design.k) == (23, 2)

    def test_three_conditions(self):
        design = infer_rm_design(ReportedStat(f_value=1.0, df1=2, df2=38))
        assert (design.n, design.k) == (20, 3)

    def test_indivisible_dfs_rejected(self):
        with pytest.raises(DesignInferenceError, match="not divisible"):
            infer_rm_design(ReportedStat(f_value=3.1, df1=2, df2=39))

    def test_decimal_dfs_rejected(self):
        with pytest.raises(DesignInferenceError, match="sphericity"):
            infer_rm_design(ReportedStat(f_value=5.0, df1=1.46, df2=32.1))

    def test_overflowing_dfs_rejected_as_not_finite(self):
        (stat,) = parse_reports("F(1, 1e400) = 2")
        with pytest.raises(DesignInferenceError, match=r"\(1, inf\) are not finite"):
            infer_rm_design(stat)

    def test_design_past_the_float_range_rejected(self):
        # n*(k-1) = df1 + df2 rounds past the largest float
        (stat,) = parse_reports("F(9.9792015476736e+291, 1.7976931348623157e+308) = 1")
        with pytest.raises(DomainError,
                           match=r"n\*\(k-1\) = 1\.7976931348623158e\+308 lies beyond the float"):
            infer_rm_design(stat)

    def test_df2_smaller_than_df1_rejected(self):
        for df1, df2, message in [(4, 2, "not divisible"), (1, 0, "imply fewer than 2 subjects")]:
            with pytest.raises(DesignInferenceError, match=message):
                infer_rm_design(ReportedStat(f_value=2.0, df1=df1, df2=df2))

    @pytest.mark.parametrize("df1,df2", [(0.0, 5.0), (-2.0, 4.0), (-1.0, 0.0), (0.0, 0.0)])
    def test_df1_below_one_rejected_naming_df1(self, df1, df2):
        # df1 = 0 once raised ZeroDivisionError, and a negative df1 was blamed
        # on the subject count
        with pytest.raises(DesignInferenceError, match=rf"df1={int(df1)} is below 1"):
            infer_rm_design(ReportedStat(f_value=1.0, df1=df1, df2=df2))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=2, max_value=300), k=st.integers(min_value=2, max_value=15))
    def test_round_trip(self, n, k):
        stat = ReportedStat(f_value=1.0, df1=float(k - 1), df2=float((n - 1) * (k - 1)))
        design = infer_rm_design(stat)
        assert design == DesignSpec(n=n, k=k)
