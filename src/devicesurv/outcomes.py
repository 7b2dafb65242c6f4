"""Cohort selection, event assembly, and survival-dataset construction.

Patients enter the cohort on their earliest primary-procedure code; coded
revision events come from revision codes after that index date. Text-derived
events merge with coded events of the same class within a configurable
window, keeping the earlier timestamp.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from datetime import date, datetime

import numpy as np

from .errors import ConfigError, InputFormatError, parsing

log = logging.getLogger(__name__)

EVENT_CLASSES = (
    "revision",
    "component_wear",
    "mechanical_failure",
    "particle_disease",
    "radiographic_abnormality",
    "infection",
    "pain",
)

COMPLICATION_CLASSES = EVENT_CLASSES[:6]

ANY_COMPLICATION = "any_complication"

DEFAULT_PRIMARY_CODES = frozenset(
    {("ICD9", "81.51"), ("CPT", "27130"), ("CPT", "27132")}
)
DEFAULT_REVISION_CODES = frozenset(
    {
        ("ICD9", "81.53"),
        ("ICD9", "00.70"),
        ("ICD9", "00.71"),
        ("ICD9", "00.72"),
        ("ICD9", "00.73"),
        ("CPT", "27134"),
        ("CPT", "27137"),
        ("CPT", "27138"),
    }
)

AGE_BANDS = ("<40", "40-49", "50-59", "60-69", "70-79", "80+")


@dataclass(frozen=True)
class CodedProcedure:
    system: str  # "ICD9" | "CPT"
    code: str
    when: date


@dataclass
class PatientRecord:
    patient_id: str
    birth_date: date
    sex: str
    race: str
    ethnicity: str
    procedures: list[CodedProcedure] = field(default_factory=list)
    cci: int = 0
    last_contact_date: date | None = None


@dataclass(frozen=True)
class Event:
    patient_id: str
    event_class: str
    timestamp: date
    source: str  # "coded" | "text" | "both"
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise ConfigError("event provenance must be nonempty")


@dataclass
class CohortPatient:
    patient_id: str
    index_date: date
    last_contact_date: date
    covariates: dict[str, str] = field(default_factory=dict)


def select_cohort(records):
    """Return (cohort patients keyed by id, coded revision events).

    A patient enters on >= 1 primary code; index date is the earliest
    primary-code date; revision codes strictly after index emit coded
    revision events."""
    cohort: dict[str, CohortPatient] = {}
    events: list[Event] = []
    for rec in records:
        primaries = [
            p.when for p in rec.procedures if (p.system, p.code) in DEFAULT_PRIMARY_CODES
        ]
        if not primaries:
            continue
        index = min(primaries)
        last_contact = rec.last_contact_date or max(p.when for p in rec.procedures)
        cohort[rec.patient_id] = CohortPatient(
            patient_id=rec.patient_id,
            index_date=index,
            last_contact_date=last_contact,
            covariates=patient_covariates(rec, index),
        )
        for p in rec.procedures:
            if (p.system, p.code) in DEFAULT_REVISION_CODES and p.when > index:
                events.append(
                    Event(
                        patient_id=rec.patient_id,
                        event_class="revision",
                        timestamp=p.when,
                        source="coded",
                        provenance=f"{p.system}:{p.code}",
                    )
                )
    return cohort, events


def age_band(age_years: float) -> str:
    if age_years < 40:
        return "<40"
    if age_years >= 80:
        return "80+"
    lo = int(age_years // 10) * 10
    return f"{lo}-{lo + 9}"


def categorize_cci(cci: int) -> str:
    """Charlson index category: 0 none, 1 low, 2 moderate, >= 3 high."""
    if cci < 0:
        raise ConfigError(f"CCI must be nonnegative, got {cci}")
    if cci == 0:
        return "none"
    if cci == 1:
        return "low"
    if cci == 2:
        return "moderate"
    return "high"


def patient_covariates(rec: PatientRecord, index_date: date) -> dict[str, str]:
    age = (index_date - rec.birth_date).days / 365.25
    return {
        "age_band": age_band(age),
        "sex": rec.sex or "Unknown",
        "race": rec.race or "Unknown",
        "ethnicity": rec.ethnicity or "Unknown",
        "cci": categorize_cci(rec.cci),
    }


def merge_events(coded, text, window_days: int = 90) -> list[Event]:
    """Merge coded and text events of the same (patient, class) within the
    window into one event at the earlier timestamp with source "both".
    Within-source duplicates on (patient, class, date) deduplicate first."""

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


@dataclass(frozen=True)
class Covariate:
    """A categorical covariate, dummy-coded against ``reference``."""

    name: str
    reference: str | None = None


@dataclass
class SurvivalDataset:
    subject_ids: list[str]
    times: np.ndarray  # days, > 0
    events: np.ndarray  # 0/1
    X: np.ndarray  # n x p design
    columns: list[str]
    groups: list[str] | None = None  # raw group labels when grouping applies
    n_excluded_nonpositive: int = 0


def build_design(rows: list[dict[str, str]], spec: list[Covariate]):
    """Dummy-code categoricals against their reference level; missing values
    become an explicit "Unknown" level."""
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


def build_survival_dataset(
    cohort: dict[str, CohortPatient],
    events,
    outcome_class: str,
    covariate_spec: list[Covariate],
) -> SurvivalDataset:
    """Time from index to first matching event (event=1) or to last contact
    (censored). ``outcome_class`` may be a single class or "any_complication".
    Subjects with nonpositive time are excluded with a warning count."""
    if outcome_class == ANY_COMPLICATION:
        classes = set(COMPLICATION_CLASSES)
    elif outcome_class in EVENT_CLASSES:
        classes = {outcome_class}
    else:
        raise ConfigError(f"unknown outcome class {outcome_class!r}")
    first_event: dict[str, date] = {}
    for e in events:
        if e.event_class not in classes or e.patient_id not in cohort:
            continue
        if e.timestamp <= cohort[e.patient_id].index_date:
            continue
        prev = first_event.get(e.patient_id)
        if prev is None or e.timestamp < prev:
            first_event[e.patient_id] = e.timestamp
    ids, times, flags, rows = [], [], [], []
    excluded = 0
    group_name = next((c.name for c in covariate_spec if c.name == "implant_system"), None)
    groups = [] if group_name else None
    for pid in sorted(cohort):
        pat = cohort[pid]
        if pid in first_event:
            t = (first_event[pid] - pat.index_date).days
            flag = 1
        else:
            t = (pat.last_contact_date - pat.index_date).days
            flag = 0
        if t <= 0:
            excluded += 1
            continue
        ids.append(pid)
        times.append(t)
        flags.append(flag)
        rows.append(pat.covariates)
        if groups is not None:
            groups.append(str(pat.covariates.get(group_name, "Unknown")))
    if excluded:
        log.warning("excluded %d subjects with nonpositive follow-up time", excluded)
    X, columns = build_design(rows, covariate_spec)
    return SurvivalDataset(
        subject_ids=ids,
        times=np.array(times, dtype=float),
        events=np.array(flags, dtype=int),
        X=X,
        columns=columns,
        groups=groups,
        n_excluded_nonpositive=excluded,
    )


def events_to_csv(events, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["patient_id", "class", "date", "source", "provenance"])
        for e in events:
            w.writerow([e.patient_id, e.event_class, e.timestamp.isoformat(), e.source, e.provenance])


def events_from_csv(path) -> list[Event]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"patient_id", "class", "date", "source", "provenance"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise InputFormatError(f"{path}: expected columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            with parsing(path, lineno):
                out.append(
                    Event(
                        patient_id=row["patient_id"],
                        event_class=row["class"],
                        timestamp=datetime.fromisoformat(row["date"]).date(),
                        source=row["source"],
                        provenance=row["provenance"],
                    )
                )
    return out


def patients_from_csv(path) -> list[PatientRecord]:
    """Per-patient CSV: patient_id, birth_date, sex, race, ethnicity, cci,
    last_contact_date, procedures (semicolon-joined system:code:date)."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"patient_id", "birth_date", "sex", "race", "ethnicity", "cci",
                    "last_contact_date", "procedures"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise InputFormatError(f"{path}: expected columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            with parsing(path, lineno):
                procedures = []
                for item in filter(None, (row["procedures"] or "").split(";")):
                    system, code, when = item.split(":")
                    procedures.append(CodedProcedure(system, code, date.fromisoformat(when)))
                out.append(
                    PatientRecord(
                        patient_id=row["patient_id"],
                        birth_date=date.fromisoformat(row["birth_date"]),
                        sex=row["sex"],
                        race=row["race"],
                        ethnicity=row["ethnicity"],
                        procedures=procedures,
                        cci=int(row["cci"]),
                        last_contact_date=date.fromisoformat(row["last_contact_date"]),
                    )
                )
    return out
