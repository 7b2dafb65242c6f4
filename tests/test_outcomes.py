"""Unit tests for cohort selection, event merging, and survival datasets."""

import inspect
import pathlib
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devicesurv
from devicesurv import extraction, reconcile
from devicesurv.errors import ConfigError, InputFormatError
from devicesurv.outcomes import (
    ANY_COMPLICATION,
    COMPLICATION_CLASSES,
    CodedProcedure,
    CohortError,
    CohortPatient,
    Covariate,
    Event,
    PatientRecord,
    age_band,
    build_design,
    build_survival_dataset,
    categorize_cci,
    cohort_from_csv,
    cohort_to_csv,
    events_from_csv,
    events_to_csv,
    match_by_date,
    merge_events,
    parse_date,
    patients_from_csv,
    select_cohort,
)

D0 = date(2010, 1, 1)


def _patient(pid="p1", procedures=(), cci=0, birth=date(1950, 6, 1), last_contact=None):
    return PatientRecord(
        patient_id=pid,
        birth_date=birth,
        sex="M",
        race="White",
        ethnicity="Not Hispanic",
        procedures=list(procedures),
        cci=cci,
        last_contact_date=last_contact,
    )


def _event(pid, cls, day, source="coded", provenance="x"):
    return Event(pid, cls, D0 + timedelta(days=day), source, provenance)


class TestSelectCohort:
    def test_primary_code_required(self):
        rec = _patient(procedures=[CodedProcedure("CPT", "99213", D0)])
        cohort, events = select_cohort([rec])
        assert cohort == {} and events == []

    def test_index_is_earliest_primary(self):
        rec = _patient(
            procedures=[
                CodedProcedure("CPT", "27130", D0 + timedelta(days=100)),
                CodedProcedure("ICD9", "81.51", D0),
            ],
            last_contact=D0 + timedelta(days=500),
        )
        cohort, _ = select_cohort([rec])
        assert cohort["p1"].index_date == D0

    def test_revision_after_index_emits_event(self):
        rec = _patient(
            procedures=[
                CodedProcedure("CPT", "27130", D0),
                CodedProcedure("CPT", "27134", D0 + timedelta(days=365)),
            ],
            last_contact=D0 + timedelta(days=500),
        )
        _, events = select_cohort([rec])
        assert len(events) == 1
        ev = events[0]
        assert ev.event_class == "revision"
        assert ev.source == "coded"
        assert ev.provenance == "CPT:27134"

    def test_revision_on_or_before_index_ignored(self):
        rec = _patient(
            procedures=[
                CodedProcedure("CPT", "27130", D0),
                CodedProcedure("CPT", "27134", D0),
                CodedProcedure("ICD9", "00.70", D0 - timedelta(days=10)),
            ],
            last_contact=D0 + timedelta(days=100),
        )
        _, events = select_cohort([rec])
        assert events == []

    def test_missing_last_contact_falls_back_to_max_procedure(self):
        rec = _patient(
            procedures=[
                CodedProcedure("CPT", "27130", D0),
                CodedProcedure("CPT", "99213", D0 + timedelta(days=200)),
            ]
        )
        cohort, _ = select_cohort([rec])
        assert cohort["p1"].last_contact_date == D0 + timedelta(days=200)

    def test_covariates_attached(self):
        rec = _patient(
            procedures=[CodedProcedure("CPT", "27130", D0)],
            cci=2,
            birth=date(1950, 6, 1),
            last_contact=D0 + timedelta(days=10),
        )
        cohort, _ = select_cohort([rec])
        cov = cohort["p1"].covariates
        assert cov["age_band"] == "50-59"
        assert cov["cci"] == "moderate"
        assert cov["sex"] == "M"


class TestCovariateHelpers:
    @pytest.mark.parametrize(
        "age,band",
        [(39.9, "<40"), (40.0, "40-49"), (59.99, "50-59"), (79.99, "70-79"), (80.0, "80+")],
    )
    def test_age_band(self, age, band):
        assert age_band(age) == band

    @pytest.mark.parametrize("cci,cat", [(0, "none"), (1, "low"), (2, "moderate"), (3, "high"), (9, "high")])
    def test_cci(self, cci, cat):
        assert categorize_cci(cci) == cat

    def test_negative_cci_rejected(self):
        with pytest.raises(ConfigError):
            categorize_cci(-1)


class TestMergeEvents:
    def test_within_window_merges_to_earlier(self):
        merged = merge_events(
            [_event("p1", "infection", 100, "coded", "ICD9:996.66")],
            [_event("p1", "infection", 130, "text", "n1")],
            window_days=90,
        )
        assert len(merged) == 1
        ev = merged[0]
        assert ev.source == "both"
        assert ev.timestamp == D0 + timedelta(days=100)
        assert ev.provenance == "ICD9:996.66+n1"

    def test_outside_window_kept_separate(self):
        merged = merge_events(
            [_event("p1", "infection", 0)],
            [_event("p1", "infection", 91, "text", "n1")],
            window_days=90,
        )
        assert sorted(e.source for e in merged) == ["coded", "text"]

    def test_classes_do_not_merge(self):
        merged = merge_events(
            [_event("p1", "infection", 0)], [_event("p1", "pain", 0, "text", "n1")]
        )
        assert len(merged) == 2

    def test_within_source_dedupe(self):
        merged = merge_events(
            [_event("p1", "revision", 10), _event("p1", "revision", 10, provenance="y")],
            [],
        )
        assert len(merged) == 1

    def test_bulk_counts(self):
        # 63 shared pairs + 15 coded-only + 441 text-only -> 519 merged.
        coded = [_event(f"s{i}", "infection", 0) for i in range(63)]
        coded += [_event(f"co{i}", "infection", 0) for i in range(15)]
        text = [_event(f"s{i}", "infection", 30, "text", "n") for i in range(63)]
        text += [_event(f"to{i}", "infection", 0, "text", "n") for i in range(441)]
        merged = merge_events(coded, text)
        assert len(merged) == 78 + 504 - 63 == 519
        assert sum(1 for e in merged if e.source == "both") == 63

    offsets = st.lists(st.integers(min_value=0, max_value=400), max_size=5)

    @given(offsets, offsets, st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_union_identity(self, coded_days, text_days, window):
        coded = [_event("p1", "pain", d) for d in coded_days]
        text = [_event("p1", "pain", d, "text", "n") for d in text_days]
        merged = merge_events(coded, text, window_days=window)
        n_coded = len(set(coded_days))
        n_text = len(set(text_days))
        n_both = sum(1 for e in merged if e.source == "both")
        assert len(merged) == n_coded + n_text - n_both

    events = st.lists(
        st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(["pain", "infection"]),
                  st.integers(min_value=0, max_value=30)),
        max_size=8,
    )

    @given(events, events, st.integers(min_value=0, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_parent_merge(self, coded, text, window):
        # Small date ranges give equal gaps, duplicate dates and window 0.
        coded = [_event(p, c, d, "coded", f"c{i}") for i, (p, c, d) in enumerate(coded)]
        text = [_event(p, c, d, "text", f"t{i}") for i, (p, c, d) in enumerate(text)]
        assert merge_events(coded, text, window) == _parent_merge_events(coded, text, window)

    def test_empty_provenance_rejected(self):
        with pytest.raises(ValueError):
            Event("p1", "pain", D0, "text", "")

    @pytest.mark.parametrize("cls,source", [("bogus", "text"), ("pain", "txt")])
    def test_unknown_class_or_source_rejected(self, cls, source):
        with pytest.raises(ValueError, match="unknown event"):
            Event("p1", cls, D0, source, "n1")


def _parent_merge_events(coded, text, window_days: int = 90) -> list[Event]:
    """A verbatim copy of merge_events before it called match_by_date: the
    oracle for the shared matcher."""

    def dedupe(events):
        seen = {}
        for e in events:
            seen.setdefault((e.patient_id, e.event_class, e.timestamp), e)
        return list(seen.values())

    coded = dedupe(coded)
    text = dedupe(text)
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for e in coded:
        groups.setdefault((e.patient_id, e.event_class), ([], []))[0].append(e)
    for e in text:
        groups.setdefault((e.patient_id, e.event_class), ([], []))[1].append(e)
    merged: list[Event] = []
    for (_pid, _cls), (cs, ts) in sorted(groups.items()):
        cs.sort(key=lambda e: e.timestamp)
        ts.sort(key=lambda e: e.timestamp)
        pairs = []
        for i, ce in enumerate(cs):
            for j, te in enumerate(ts):
                delta = abs((ce.timestamp - te.timestamp).days)
                if delta <= window_days:
                    pairs.append((delta, ce.timestamp, te.timestamp, i, j))
        pairs.sort()
        used_c: set[int] = set()
        used_t: set[int] = set()
        for _delta, _ct, _tt, i, j in pairs:
            if i in used_c or j in used_t:
                continue
            used_c.add(i)
            used_t.add(j)
            ce, te = cs[i], ts[j]
            merged.append(
                Event(
                    patient_id=ce.patient_id,
                    event_class=ce.event_class,
                    timestamp=min(ce.timestamp, te.timestamp),
                    source="both",
                    provenance=f"{ce.provenance}+{te.provenance}",
                )
            )
        merged.extend(cs[i] for i in range(len(cs)) if i not in used_c)
        merged.extend(ts[j] for j in range(len(ts)) if j not in used_t)
    merged.sort(key=lambda e: (e.patient_id, e.event_class, e.timestamp))
    return merged


class TestMatchByDate:
    def _match(self, left, right, window):
        return list(match_by_date(left, right, lambda x: x[0], lambda x: D0 + timedelta(x[1]),
                                  window))

    def test_equal_gaps_take_the_earlier_date(self):
        (group,) = self._match([("a", 10)], [("a", 15), ("a", 5)], 5)
        assert group == ("a", [(("a", 10), ("a", 5))], [], [("a", 15)])

    def test_equal_gap_and_date_take_input_order(self):
        (group,) = self._match([("a", 10, "first"), ("a", 10, "second")], [("a", 10)], 0)
        assert group == ("a", [(("a", 10, "first"), ("a", 10))], [("a", 10, "second")], [])

    def test_keys_in_sorted_order_and_window_inclusive(self):
        groups = self._match([("b", 0), ("a", 0)], [("a", 3), ("c", 0)], 3)
        assert [g[0] for g in groups] == ["a", "b", "c"]
        assert groups[0][1] == [(("a", 0), ("a", 3))]
        assert groups[1][2] == [("b", 0)] and groups[2][3] == [("c", 0)]


def _oracle_build_design(rows, spec):
    """build_design as it was written with loops over rows x levels, kept as
    the reference for the vectorised coder."""
    columns: list[str] = []
    encoders = []
    for cov in spec:
        levels = sorted({str(r.get(cov.name, "Unknown") or "Unknown") for r in rows})
        ref = cov.reference if cov.reference in levels else levels[0]
        nonref = [lv for lv in levels if lv != ref]
        for lv in nonref:
            columns.append(f"{cov.name}={lv}")
        encoders.append((cov, nonref))
    X = np.zeros((len(rows), len(columns)))
    col = 0
    for cov, nonref in encoders:
        for k, lv in enumerate(nonref):
            for i, r in enumerate(rows):
                if str(r.get(cov.name, "Unknown") or "Unknown") == lv:
                    X[i, col + k] = 1.0
        col += len(nonref)
    return X, columns


_ORACLE_CELLS = ("F", "M", "x", "x\0", "", None, 0, "Unknown", "low", "none")


class TestBuildDesign:
    def test_matches_loop_oracle(self):
        # Missing keys, None, "", 0, a reference present in some row sets and
        # one absent from all of them, over two covariates.
        rng = np.random.default_rng(0)
        spec = [Covariate("sex", reference="F"), Covariate("cci", reference="absent")]
        for _ in range(300):
            rows = []
            for _ in range(rng.integers(1, 30)):
                row = {}
                for cov in spec:
                    if rng.random() < 0.8:
                        row[cov.name] = _ORACLE_CELLS[rng.integers(len(_ORACLE_CELLS))]
                rows.append(row)
            X, cols = build_design(rows, spec)
            X_ref, cols_ref = _oracle_build_design(rows, spec)
            assert cols == cols_ref
            assert X.shape == X_ref.shape
            assert X.tobytes() == X_ref.tobytes()

    def test_dummy_coding_with_reference(self):
        rows = [{"sex": "M"}, {"sex": "F"}, {"sex": "M"}]
        X, cols = build_design(rows, [Covariate("sex", reference="F")])
        assert cols == ["sex=M"]
        assert X[:, 0].tolist() == [1.0, 0.0, 1.0]

    def test_missing_becomes_unknown(self):
        rows = [{"sex": "M"}, {}, {"sex": "F"}]
        X, cols = build_design(rows, [Covariate("sex", reference="F")])
        assert cols == ["sex=M", "sex=Unknown"]
        assert X.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]

    def test_absent_reference_falls_back_to_first_level(self):
        rows = [{"cci": "low"}, {"cci": "high"}]
        X, cols = build_design(rows, [Covariate("cci", reference="none")])
        assert cols == ["cci=low"]


def _cohort_pair():
    cohort = {
        "p1": CohortPatient("p1", D0, D0 + timedelta(days=1000), {"sex": "M"}),
        "p2": CohortPatient("p2", D0, D0 + timedelta(days=800), {"sex": "F"}),
        "p3": CohortPatient("p3", D0, D0, {"sex": "F"}),
    }
    events = [
        _event("p1", "infection", 150, "text", "n"),
        _event("p1", "pain", 120, "text", "n"),
        _event("p1", "revision", 400),
        _event("p2", "pain", 300, "text", "n"),
    ]
    return cohort, events


class TestBuildSurvivalDataset:
    def test_single_class_outcome(self):
        cohort, events = _cohort_pair()
        ds = build_survival_dataset(cohort, events, "revision", [Covariate("sex", reference="F")])
        by_id = dict(zip(ds.subject_ids, zip(ds.times, ds.events)))
        assert by_id["p1"] == (400.0, 1)
        assert by_id["p2"] == (800.0, 0)

    def test_any_complication_earliest(self):
        cohort, events = _cohort_pair()
        ds = build_survival_dataset(
            cohort, events, ANY_COMPLICATION, [Covariate("sex", reference="F")]
        )
        by_id = dict(zip(ds.subject_ids, zip(ds.times, ds.events)))
        # pain is not a complication class; infection at day 150 is the
        # earliest qualifying event for p1.
        assert "pain" not in COMPLICATION_CLASSES
        assert by_id["p1"] == (150.0, 1)
        assert by_id["p2"] == (800.0, 0)

    def test_complication_classes_are_the_extractor_subcategories(self):
        # Stated twice, since neither module may import the other (each
        # command loads only the modules it runs); equal, so a complication's
        # subcategory names its event class.
        assert extraction.COMPLICATION_SUBCATEGORIES == COMPLICATION_CLASSES

    def test_nonpositive_time_excluded(self):
        cohort, events = _cohort_pair()
        ds = build_survival_dataset(cohort, events, "revision", [Covariate("sex", reference="F")])
        assert "p3" not in ds.subject_ids
        assert ds.n_excluded_nonpositive == 1

    def test_event_on_index_date_ignored(self):
        cohort = {"p1": CohortPatient("p1", D0, D0 + timedelta(days=100), {})}
        ds = build_survival_dataset(
            cohort, [_event("p1", "revision", 0)], "revision", []
        )
        assert ds.events.tolist() == [0]
        assert ds.times.tolist() == [100.0]

    def test_no_subject_refused(self):
        cohort, events = _cohort_pair()
        for subjects in ({}, {"p3": cohort["p3"]}):  # none, or none with positive time
            with pytest.raises(CohortError, match="no subject has positive follow-up"):
                build_survival_dataset(subjects, events, "revision", [Covariate("sex")])

    def test_unknown_group_by_refused(self):
        # A misspelt column would put every subject in "Unknown", one group.
        cohort, events = _cohort_pair()
        with pytest.raises(CohortError) as err:
            build_survival_dataset(cohort, events, "revision", [], group_by="sexx")
        assert err.value.context == {"group_by": "sexx", "columns": ["sex"]}
        assert "'sexx'" in err.value.message and "columns: sex" in err.value.message

    def test_unknown_outcome_class(self):
        with pytest.raises(ConfigError):
            build_survival_dataset({}, [], "mystery", [])

    def test_groups_captured_for_implant_system(self):
        cohort = {
            "p1": CohortPatient("p1", D0, D0 + timedelta(days=10), {"implant_system": "A"}),
            "p2": CohortPatient("p2", D0, D0 + timedelta(days=10), {"implant_system": "B"}),
            "p3": CohortPatient("p3", D0, D0 + timedelta(days=10), {}),
        }
        spec = [Covariate("implant_system", reference="A")]
        ds = build_survival_dataset(cohort, [], "revision", spec, group_by="implant_system")
        assert ds.groups == ["A", "B", "Unknown"]
        assert ds.columns == ["implant_system=B", "implant_system=Unknown"]
        assert np.array_equal(ds.X[:, 0], [0.0, 1.0, 0.0])
        # A covariate in the design does not group the subjects by itself.
        assert build_survival_dataset(cohort, [], "revision", spec).groups is None


# Cells parse_date reads, with the date each names; and cells it refuses on
# every Python version, the first four of which datetime.fromisoformat reads
# from 3.11 on.
_DATE_CELLS = {
    "2010-01-02": "2010-01-02",
    "2012-02-29": "2012-02-29",
    "2010-01-02T13:45": "2010-01-02",
    "2010-01-02 13:45:30": "2010-01-02",
    "2010-01-02T23:59:59.5": "2010-01-02",
    "2010-01-02T00:00:00.123456": "2010-01-02",
    "2010-01-02T13:45+05:30": "2010-01-02",
    "2010-12-31 23:59:59-08:00": "2010-12-31",
}
_NOT_DATE_CELLS = (
    "20100102", "2010-W01-1", "2010-01-02T13:45Z", "2010W011", "2010-002", "2010-01-02Z",
    "2010-1-2", "2010-13-01", "2011-02-29", "0000-01-01", "", " 2010-01-02", "2010-01-02 ",
    "2010/01/02", "2010-01-02T", "2010-01-02T13", "2010-01-02T24:00", "2010-01-02T13:60",
    "2010-01-02T13:45:60", "2010-01-02T13:45:30.1234567", "2010-01-02T13:45+0530",
    "2010-01-02T13:45+24:00", "2010-01-02T13:45:30+05:30:00", "2010-01-02t13:45",
    "\uff12\uff10\uff11\uff10-01-02",
)

# The accepted grammar, stated apart from parse_date and without
# date.fromisoformat: the oracle for cells the tables above miss.
_ORACLE_DATE = re.compile(r"(\d{4})-(\d{2})-(\d{2})(?:[T ](\d{2}):(\d{2})"
                          r"(?::(\d{2})(?:\.\d{1,6})?)?(?:[+-](\d{2}):(\d{2}))?)?", re.ASCII)


def _oracle_parse_date(cell):
    match = _ORACLE_DATE.fullmatch(cell)
    if match is None:
        raise ValueError(cell)
    y, mo, d, h, mi, sec, oh, om = (int(g or 0) for g in match.groups())
    if h > 23 or mi > 59 or sec > 59 or oh > 23 or om > 59:
        raise ValueError(cell)
    return date(y, mo, d)


def _upto(first, last):
    """A number from ``first`` to ``last``, or, an eighth of the time,
    ``last + 1``."""
    return st.sampled_from([*range(first, last + 1)] + [last + 1] * ((last - first) // 7 + 1))


def _digits(lo, hi, width, values):
    """``lo`` to ``hi`` ASCII digits, most often ``width`` of them: a number of
    ``values``, zero-padded and cut to the width."""
    n = hi - lo + 1
    return st.builds(lambda w, v: f"{v:0{hi}d}"[hi - (width if w < 7 * n else lo + w - 7 * n):],
                     st.integers(0, 8 * n - 1), values)


def _respelled(cell, digits):
    """``cell`` with its last ``len(digits)`` digits replaced by ``digits``."""
    chars, digits = list(cell), list(digits)
    for i in reversed(range(len(chars))):
        if digits and chars[i].isdigit():
            chars[i] = digits.pop()
    return "".join(chars)


def _date_cells():
    r"""The language of ``\d{4}[-W]?\d{1,3}-?\d{0,2}([T Zt]\d{1,2}(:\d{2}){0,2}
    (\.\d{1,7})?Z?([-+Z]\d{2}(:?\d{2})?)?)?``. Each field is drawn apart,
    most often as ``parse_date`` reads it, with a number at or just past its
    bounds, and the fields are joined. The offset's hours are mostly 00, 23
    or 24 and its minutes 00, 59 or 60, and in one time in eight the time's last
    digit is a non-ASCII one, so a cell with ASCII date digits and a
    non-ASCII time digit is common. Then, in about half the cells, the last
    digits are respelled in any script, as ``\d`` matches. (Drawn from the
    regex itself, the cells take twice as long and almost none of them is a
    date ``parse_date`` reads.)"""
    def joined(*parts):
        return st.tuples(*parts).map("".join)

    def sep(*spellings):  # most often the first
        return st.sampled_from(spellings[:1] * 16 + spellings)

    def maybe(part, one_in):  # ``part`` in one draw of ``one_in``, else ""
        return st.builds(lambda keep, text: text if keep else "",
                         st.sampled_from([False] * (one_in - 1) + [True]), part)

    def edged(part, *edges):  # three draws in four one of ``edges``, else ``part``
        return st.builds(lambda edge, text: edge or text,
                         st.sampled_from([*edges] * 3 + [""] * len(edges)), part)

    hour, minute = _digits(1, 2, 2, _upto(0, 23)), _digits(2, 2, 2, _upto(0, 59))
    minutes = st.builds(lambda a, b, n: f":{a}:{b}"[:3 * n], minute, minute,
                        st.sampled_from([1, 2] * 4 + [0]))
    fraction = maybe(joined(st.just("."), st.text("0123456789", min_size=1, max_size=7)), 4)
    offset = maybe(joined(sep("+", "-", "Z"), edged(_digits(2, 2, 2, _upto(0, 23)), "00", "23", "24"),
                          st.builds(lambda colon, mm: "" if colon is None else colon + mm,
                                    sep(":", "", None), edged(minute, "00", "59", "60"))), 2)
    time = maybe(st.builds(_respelled, joined(sep("T", " ", "Z", "t"), hour, minutes, fraction,
                                              st.sampled_from(["", "", "", "Z"]), offset),
                           maybe(st.characters(categories=["Nd"], min_codepoint=128), 8)), 2)
    cells = joined(_digits(4, 4, 4, st.integers(1, 9999)), sep("-", "", "W"),
                   _digits(1, 3, 2, _upto(1, 12)), sep("-", ""), _digits(0, 2, 2, _upto(1, 31)),
                   time)
    script = st.one_of(st.just(""), st.text(st.characters(categories=["Nd"]), max_size=26))
    return st.builds(_respelled, cells, script)


class TestParseDate:
    @pytest.mark.parametrize("cell", list(_DATE_CELLS))
    def test_accepted(self, cell):
        assert parse_date(cell).isoformat() == _DATE_CELLS[cell]

    @pytest.mark.parametrize("cell", _NOT_DATE_CELLS)
    def test_refused(self, cell):
        with pytest.raises(ValueError):
            parse_date(cell)

    # Cells of the date-time grammar (see _date_cells), and short strings of
    # the characters that matter to the rule.
    @given(st.one_of(_date_cells(),
                     st.text(alphabet="0123456789-:.+TWZ ", max_size=26)))
    @settings(max_examples=2000, deadline=None)
    def test_matches_oracle(self, cell):
        try:
            expected = _oracle_parse_date(cell)
        except ValueError:
            with pytest.raises(ValueError):
                parse_date(cell)
        else:
            assert parse_date(cell) == expected

    def test_only_parse_date_reads_dates(self):
        # Every date cell of the tables, and every note time, is read by parse_date.
        src = pathlib.Path(devicesurv.__file__).parent
        users = {p.name: p.read_text(encoding="utf-8").count("fromisoformat")
                 for p in sorted(src.glob("*.py"))}
        assert {name for name, n in users.items() if n} == {"errors.py"}
        assert users["errors.py"] == inspect.getsource(parse_date).count("fromisoformat")


class TestCsv:
    def test_events_round_trip(self, tmp_path):
        events = [_event("p1", "infection", 3, "both", "ICD9:996.66+n1")]
        path = tmp_path / "events.csv"
        events_to_csv(events, path)
        assert events_from_csv(path) == events

    def test_events_missing_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("patient_id,class\np1,pain\n")
        with pytest.raises(InputFormatError):
            events_from_csv(path)

    def test_patients_round_trip(self, tmp_path):
        path = tmp_path / "patients.csv"
        path.write_text(
            "patient_id,birth_date,sex,race,ethnicity,cci,last_contact_date,procedures\n"
            "p1,1950-06-01,M,White,Not Hispanic,2,2015-01-01,CPT:27130:2010-01-01;CPT:27134:2012-01-01\n"
        )
        (rec,) = patients_from_csv(path)
        assert rec.patient_id == "p1"
        assert rec.cci == 2
        assert rec.procedures == [
            CodedProcedure("CPT", "27130", date(2010, 1, 1)),
            CodedProcedure("CPT", "27134", date(2012, 1, 1)),
        ]

    def test_events_bad_row_after_multiline_field_names_its_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "patient_id,class,date,source,provenance\n"
            'p1,pain,2012-01-01,text,"note\n7"\n'
            "p1,pain,not-a-date,text,n8\n"
        )
        with pytest.raises(InputFormatError, match="events.csv:4") as exc:
            events_from_csv(path)
        assert exc.value.context == {"line": 4}

    def test_patients_bad_row_after_multiline_field_names_its_line(self, tmp_path):
        path = tmp_path / "patients.csv"
        path.write_text(
            "patient_id,birth_date,sex,race,ethnicity,cci,last_contact_date,procedures\n"
            'p1,1950-06-01,M,"White\nEuropean",Unknown,0,2015-01-01,CPT:27130:2010-01-01\n'
            "p2,not-a-date,M,White,Unknown,0,2015-01-01,CPT:27130:2010-01-01\n"
        )
        with pytest.raises(InputFormatError, match="patients.csv:4") as exc:
            patients_from_csv(path)
        assert exc.value.context == {"line": 4}

    def test_cohort_round_trip(self, tmp_path):
        cohort = {
            pid: CohortPatient(pid, D0, D0 + timedelta(days=400),
                               {"age_band": "60-69", "sex": "F", "race": "White",
                                "ethnicity": "Unknown", "cci": cci})
            for pid, cci in (("p2", "low"), ("p1", "none"))
        }
        path = tmp_path / "cohort.csv"
        cohort_to_csv(cohort, path)
        assert path.read_text().splitlines() == [
            "patient_id,index_date,last_contact_date,age_band,sex,race,ethnicity,cci",
            "p1,2010-01-01,2011-02-05,60-69,F,White,Unknown,none",
            "p2,2010-01-01,2011-02-05,60-69,F,White,Unknown,low",
        ]
        assert cohort_from_csv(path) == cohort

    def test_cohort_further_columns_are_covariates(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,implant_system,index_date,last_contact_date\n"
                        "p1,VerSys,2010-01-01,2015-01-01\n")
        assert cohort_from_csv(path) == {
            "p1": CohortPatient("p1", D0, date(2015, 1, 1), {"implant_system": "VerSys"})}

    def test_cohort_equal_covariate_cells_share_one_string(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,index_date,last_contact_date,sex,race\n"
                        "p1,2010-01-01,2015-01-01,F,White\n"
                        "p2,2010-01-01,2015-01-01,F,White\n")
        p1, p2 = cohort_from_csv(path).values()
        assert all(p1.covariates[k] is p2.covariates[k] for k in ("sex", "race"))

    def test_events_equal_class_and_source_cells_share_one_string(self, tmp_path):
        path = tmp_path / "events.csv"
        events_to_csv([_event("p1", "pain", 3, "text", "n1"), _event("p2", "pain", 4, "text", "n2")],
                      path)
        e1, e2 = events_from_csv(path)
        assert e1.event_class is e2.event_class and e1.source is e2.source

    @pytest.mark.parametrize("record", [
        CodedProcedure("CPT", "27130", D0), _patient(), _event("p1", "pain", 3),
        CohortPatient("p1", D0, D0, {"sex": "F"}),
        reconcile.RegistryRecord("p1", D0, "femoral", "Zimmer", "VerSys")], ids=type)
    def test_table_records_have_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_cohort_missing_column_names_file(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,index_date,age_band\np1,2010-01-01,60-69\n")
        with pytest.raises(InputFormatError, match="cohort.csv.*last_contact_date"):
            cohort_from_csv(path)

    def test_bad_procedure_entry(self, tmp_path):
        path = tmp_path / "patients.csv"
        path.write_text(
            "patient_id,birth_date,sex,race,ethnicity,cci,last_contact_date,procedures\n"
            "p1,1950-06-01,M,White,Not Hispanic,0,2015-01-01,badentry\n"
        )
        with pytest.raises(InputFormatError) as exc:
            patients_from_csv(path)
        assert exc.value.context == {"line": 2}
