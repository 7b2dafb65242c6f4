"""Unit and property tests for registry reconciliation."""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv.errors import ConfigError, InputFormatError
from devicesurv.reconcile import (
    STATUS_AGREEMENT,
    STATUS_CONFLICT,
    STATUS_MISSING_IN_EXTRACTION,
    STATUS_MISSING_IN_REGISTRY,
    ReconciliationEntry,
    ReconciliationReport,
    RegistryRecord,
    canonicalize_implant,
    canonicalize_manufacturer,
    load_registry_csv,
    reconcile_registry,
)

CATALOG = {
    "catalog": {
        "zimmer_versys": {"manufacturer": "Zimmer", "model": "VerSys"},
        "depuy_pinnacle": {"manufacturer": "Depuy", "model": "Pinnacle"},
    },
    "manufacturer_aliases": {"Zimmer": "Zimmer Biomet"},
}


def _rec(pid, day, role="femoral", manufacturer="Zimmer Biomet", model="VerSys"):
    return RegistryRecord(pid, date(2010, 1, 1) + timedelta(days=day), role, manufacturer, model)


class FakeMention:
    def __init__(self, canonical_id, entity_type="implant"):
        self.canonical_id = canonical_id
        self.entity_type = entity_type


class TestCanonicalize:
    def test_alias_applied(self):
        assert canonicalize_implant(FakeMention("zimmer_versys"), CATALOG) == (
            "Zimmer Biomet",
            "VerSys",
        )

    def test_no_alias_passthrough(self):
        assert canonicalize_implant(FakeMention("depuy_pinnacle"), CATALOG) == (
            "Depuy",
            "Pinnacle",
        )

    def test_unknown_id_rejected(self):
        with pytest.raises(InputFormatError):
            canonicalize_implant(FakeMention("mystery"), CATALOG)

    def test_non_implant_mention_rejected(self):
        with pytest.raises(ConfigError):
            canonicalize_implant(FakeMention("zimmer_versys", entity_type="anatomy"), CATALOG)

    def test_manufacturer_alias_helper(self):
        assert canonicalize_manufacturer("Zimmer", CATALOG) == "Zimmer Biomet"
        assert canonicalize_manufacturer("Stryker", CATALOG) == "Stryker"


class TestRecordValidation:
    def test_unknown_role(self):
        with pytest.raises(ValueError):
            RegistryRecord("p", date(2010, 1, 1), "tibial", "A", "B")

    def test_empty_model(self):
        with pytest.raises(ValueError):
            RegistryRecord("p", date(2010, 1, 1), "femoral", "A", "")


class TestReconcile:
    def test_exact_agreement(self):
        report = reconcile_registry([_rec("p1", 0)], [_rec("p1", 0)])
        assert report.counts()[STATUS_AGREEMENT] == 1
        assert sum(report.counts().values()) == 1

    def test_conflict_on_model(self):
        report = reconcile_registry([_rec("p1", 0)], [_rec("p1", 0, model="VerSys II")])
        assert report.counts()[STATUS_CONFLICT] == 1

    def test_tolerance_boundary(self):
        inside = reconcile_registry([_rec("p1", 0)], [_rec("p1", 30)])
        outside = reconcile_registry([_rec("p1", 0)], [_rec("p1", 31)])
        assert inside.counts()[STATUS_AGREEMENT] == 1
        assert outside.counts() == {
            STATUS_AGREEMENT: 0,
            STATUS_CONFLICT: 0,
            STATUS_MISSING_IN_REGISTRY: 1,
            STATUS_MISSING_IN_EXTRACTION: 1,
        }

    def test_roles_do_not_cross_match(self):
        report = reconcile_registry(
            [_rec("p1", 0, role="femoral")], [_rec("p1", 0, role="acetabular")]
        )
        counts = report.counts()
        assert counts[STATUS_MISSING_IN_REGISTRY] == 1
        assert counts[STATUS_MISSING_IN_EXTRACTION] == 1

    def test_greedy_nearest_date(self):
        # Two registry rows; the extracted row must pair with the nearer one.
        report = reconcile_registry(
            [_rec("p1", 10)],
            [_rec("p1", 0, model="VerSys II"), _rec("p1", 12)],
        )
        counts = report.counts()
        assert counts[STATUS_AGREEMENT] == 1
        assert counts[STATUS_CONFLICT] == 0
        assert counts[STATUS_MISSING_IN_EXTRACTION] == 1

    def test_one_to_one_matching(self):
        report = reconcile_registry(
            [_rec("p1", 0), _rec("p1", 1)], [_rec("p1", 0)]
        )
        counts = report.counts()
        assert counts[STATUS_AGREEMENT] == 1
        assert counts[STATUS_MISSING_IN_REGISTRY] == 1

    def test_mixed_fixture_counts(self):
        # 100 keyed components: 72 agreements, 17 conflicts, 6 extraction-only,
        # 5 registry-only.
        extracted, registry = [], []
        for i in range(72):
            extracted.append(_rec(f"a{i}", 0))
            registry.append(_rec(f"a{i}", 3))
        for i in range(17):
            extracted.append(_rec(f"c{i}", 0))
            registry.append(_rec(f"c{i}", 0, model="VerSys II"))
        for i in range(6):
            extracted.append(_rec(f"e{i}", 0))
        for i in range(5):
            registry.append(_rec(f"r{i}", 0))
        report = reconcile_registry(extracted, registry)
        assert report.counts() == {
            STATUS_AGREEMENT: 72,
            STATUS_CONFLICT: 17,
            STATUS_MISSING_IN_REGISTRY: 6,
            STATUS_MISSING_IN_EXTRACTION: 5,
        }
        fr = report.fractions()
        assert fr[STATUS_AGREEMENT] == pytest.approx(0.72)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_empty_inputs(self):
        report = reconcile_registry([], [])
        assert report.entries == []
        assert report.fractions() == {
            STATUS_AGREEMENT: 0.0,
            STATUS_CONFLICT: 0.0,
            STATUS_MISSING_IN_REGISTRY: 0.0,
            STATUS_MISSING_IN_EXTRACTION: 0.0,
        }

    small_records = st.lists(
        st.tuples(
            st.sampled_from(["p1", "p2"]),
            st.integers(min_value=0, max_value=60),
            st.sampled_from(["VerSys", "Pinnacle"]),
        ),
        max_size=6,
    )

    @given(small_records, small_records)
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, left, right):
        ext = [_rec(p, d, model=m) for p, d, m in left]
        reg = [_rec(p, d, model=m) for p, d, m in right]
        a = reconcile_registry(ext, reg).counts()
        b = reconcile_registry(reg, ext).counts()
        assert a[STATUS_AGREEMENT] == b[STATUS_AGREEMENT]
        assert a[STATUS_CONFLICT] == b[STATUS_CONFLICT]
        assert a[STATUS_MISSING_IN_REGISTRY] == b[STATUS_MISSING_IN_EXTRACTION]
        assert a[STATUS_MISSING_IN_EXTRACTION] == b[STATUS_MISSING_IN_REGISTRY]

    @given(small_records, small_records, st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_tolerance_monotonicity(self, left, right, tol):
        ext = [_rec(p, d, model=m) for p, d, m in left]
        reg = [_rec(p, d, model=m) for p, d, m in right]
        tight = reconcile_registry(ext, reg, date_tolerance_days=tol).counts()
        loose = reconcile_registry(ext, reg, date_tolerance_days=tol + 10).counts()
        matched_tight = tight[STATUS_AGREEMENT] + tight[STATUS_CONFLICT]
        matched_loose = loose[STATUS_AGREEMENT] + loose[STATUS_CONFLICT]
        assert matched_loose >= matched_tight
        assert sum(tight.values()) - matched_tight == len(ext) + len(reg) - 2 * matched_tight


    records = st.lists(
        st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(["femoral", "acetabular"]),
                  st.integers(min_value=0, max_value=12), st.sampled_from(["VerSys", "Pinnacle"])),
        max_size=10,
    )

    @given(records, records, st.integers(min_value=0, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_parent_reconcile(self, left, right, tol):
        # Small date ranges give equal gaps, duplicate dates and tolerance 0.
        ext = [_rec(p, d, role, model=m) for p, role, d, m in left]
        reg = [_rec(p, d, role, model=m) for p, role, d, m in right]
        assert (reconcile_registry(ext, reg, tol).entries
                == _parent_reconcile_registry(ext, reg, tol).entries)


def _parent_reconcile_registry(extracted, registry, date_tolerance_days: int = 30):
    """A verbatim copy of reconcile_registry before it called
    outcomes.match_by_date: the oracle for the shared matcher."""
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for rec in extracted:
        groups.setdefault((rec.patient_id, rec.component_role), ([], []))[0].append(rec)
    for rec in registry:
        groups.setdefault((rec.patient_id, rec.component_role), ([], []))[1].append(rec)

    entries: list[ReconciliationEntry] = []
    for (pid, role), (ext_recs, reg_recs) in sorted(groups.items()):
        pairs = []
        for i, er in enumerate(ext_recs):
            for j, rr in enumerate(reg_recs):
                delta = abs((er.surgery_date - rr.surgery_date).days)
                if delta <= date_tolerance_days:
                    tie = (min(er.surgery_date, rr.surgery_date), max(er.surgery_date, rr.surgery_date))
                    pairs.append((delta, tie, i, j))
        pairs.sort(key=lambda t: (t[0], t[1]))
        used_e: set[int] = set()
        used_r: set[int] = set()
        for _delta, _tie, i, j in pairs:
            if i in used_e or j in used_r:
                continue
            used_e.add(i)
            used_r.add(j)
            er, rr = ext_recs[i], reg_recs[j]
            status = (
                STATUS_AGREEMENT
                if (er.manufacturer, er.model) == (rr.manufacturer, rr.model)
                else STATUS_CONFLICT
            )
            entries.append(ReconciliationEntry(pid, role, status, er, rr))
        for i, er in enumerate(ext_recs):
            if i not in used_e:
                entries.append(
                    ReconciliationEntry(pid, role, STATUS_MISSING_IN_REGISTRY, er, None)
                )
        for j, rr in enumerate(reg_recs):
            if j not in used_r:
                entries.append(
                    ReconciliationEntry(pid, role, STATUS_MISSING_IN_EXTRACTION, None, rr)
                )
    return ReconciliationReport(entries=entries)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "patient_id,surgery_date,component_role,manufacturer,model\n"
            "p1,2010-05-04,femoral,Zimmer Biomet,VerSys\n"
        )
        (rec,) = load_registry_csv(path)
        assert rec == _rec("p1", (date(2010, 5, 4) - date(2010, 1, 1)).days)

    def test_catalog_aliases_manufacturers(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "patient_id,surgery_date,component_role,manufacturer,model\n"
            "p1,2010-05-04,femoral,Zimmer,VerSys\n"
            "p2,2010-05-04,femoral,Stryker,Accolade\n"
        )
        assert [r.manufacturer for r in load_registry_csv(path)] == ["Zimmer", "Stryker"]
        assert [r.manufacturer for r in load_registry_csv(path, CATALOG)] == [
            "Zimmer Biomet", "Stryker"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("patient_id,surgery_date\np1,2010-05-04\n")
        with pytest.raises(InputFormatError):
            load_registry_csv(path)

    def test_bad_date_names_line(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "patient_id,surgery_date,component_role,manufacturer,model\n"
            "p1,05/04/2010,femoral,Zimmer Biomet,VerSys\n"
        )
        with pytest.raises(InputFormatError) as exc:
            load_registry_csv(path)
        assert exc.value.context == {"line": 2}

    def test_bad_row_after_multiline_field_names_its_line(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "patient_id,surgery_date,component_role,manufacturer,model\n"
            'p1,2010-05-04,femoral,Zimmer Biomet,"Ver\nSys"\n'
            "p2,not-a-date,femoral,Zimmer Biomet,VerSys\n"
        )
        with pytest.raises(InputFormatError, match="registry.csv:4") as exc:
            load_registry_csv(path)
        assert exc.value.context == {"line": 4}

    def test_report_csv_columns(self, tmp_path):
        report = reconcile_registry([_rec("p1", 0)], [_rec("p2", 0)])
        path = tmp_path / "report.csv"
        report.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == [
            "patient_id", "component_role", "status",
            "extracted_date", "extracted_manufacturer", "extracted_model",
            "registry_date", "registry_manufacturer", "registry_model",
        ]
