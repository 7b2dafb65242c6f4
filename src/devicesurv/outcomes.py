"""Cohort selection, event assembly, and survival-dataset construction.

Patients enter the cohort on their earliest primary-procedure code; coded
revision events come from revision codes after that index date. Text-derived
events merge with coded events of the same class within a configurable
window, keeping the earlier timestamp.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import TYPE_CHECKING

from .errors import ConfigError, read_csv, write_csv

# numpy is imported by the two functions that build arrays, so the cohort and
# event commands start without it.
if TYPE_CHECKING:
    import numpy as np

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

EVENT_SOURCES = ("coded", "text", "both")

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
    source: str  # one of EVENT_SOURCES
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


def match_by_date(left, right, key, when, window_days: int):
    """Greedy one-to-one matching of ``left`` to ``right`` items with equal
    ``key(item)`` whose dates ``when(item)`` lie at most ``window_days``
    apart. For each key in sorted order, yields ``(key, pairs, unpaired
    left, unpaired right)``. Pairs are taken in order of gap, then earlier
    date, then input order; unpaired items keep their input order."""
    groups: dict = {}
    for side, items in enumerate((left, right)):
        for item in items:
            groups.setdefault(key(item), ([], []))[side].append(item)
    for k in sorted(groups):
        ls, rs = groups[k]
        ldates, rdates = [when(a) for a in ls], [when(b) for b in rs]
        candidates = []
        for i, ld in enumerate(ldates):
            for j, rd in enumerate(rdates):
                gap = abs((ld - rd).days)
                if gap <= window_days:
                    candidates.append((gap, min(ld, rd), i, j))
        candidates.sort()
        used_l: set[int] = set()
        used_r: set[int] = set()
        pairs = []
        for _gap, _first, i, j in candidates:
            if i not in used_l and j not in used_r:
                used_l.add(i)
                used_r.add(j)
                pairs.append((ls[i], rs[j]))
        yield (k, pairs, [a for i, a in enumerate(ls) if i not in used_l],
               [b for j, b in enumerate(rs) if j not in used_r])


def merge_events(coded, text, window_days: int = 90) -> list[Event]:
    """Merge coded and text events of the same (patient, class) within the
    window into one event at the earlier timestamp with source "both".
    Within-source duplicates on (patient, class, date) deduplicate first."""

    def dedupe(events):
        seen = {}
        for e in events:
            seen.setdefault((e.patient_id, e.event_class, e.timestamp), e)
        return list(seen.values())

    merged: list[Event] = []
    for _key, pairs, coded_only, text_only in match_by_date(
        dedupe(coded), dedupe(text), lambda e: (e.patient_id, e.event_class),
        lambda e: e.timestamp, window_days,
    ):
        merged.extend(
            Event(
                patient_id=ce.patient_id,
                event_class=ce.event_class,
                timestamp=min(ce.timestamp, te.timestamp),
                source="both",
                provenance=f"{ce.provenance}+{te.provenance}",
            )
            for ce, te in pairs
        )
        merged.extend(coded_only)
        merged.extend(text_only)
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
    import numpy as np

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
    group_by: str | None = None,
) -> SurvivalDataset:
    """Time from index to first matching event (event=1) or to last contact
    (censored). ``outcome_class`` may be a single class or "any_complication".
    Subjects with nonpositive time are excluded with a warning count. With
    ``group_by``, each subject's group label is that cohort column
    ("Unknown" where the subject has none); without it, ``groups`` is None."""
    import numpy as np

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
    groups = None if group_by is None else []
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
            groups.append(str(pat.covariates.get(group_by, "Unknown")))
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


_EVENT_COLUMNS = ("patient_id", "class", "date", "source", "provenance")


def events_to_csv(events, path) -> None:
    write_csv(path, _EVENT_COLUMNS,
              ([e.patient_id, e.event_class, e.timestamp.isoformat(), e.source, e.provenance]
               for e in events))


def events_from_csv(path) -> list[Event]:
    def record(row):
        # Event's own check raises ConfigError, which names no line.
        if row["class"] not in EVENT_CLASSES:
            raise ValueError(f"unknown event class {row['class']!r}")
        if row["source"] not in EVENT_SOURCES:
            raise ValueError(f"unknown event source {row['source']!r}")
        if not row["provenance"]:
            raise ValueError("provenance must be nonempty")
        return Event(
            patient_id=row["patient_id"],
            event_class=row["class"],
            timestamp=datetime.fromisoformat(row["date"]).date(),
            source=row["source"],
            provenance=row["provenance"],
        )

    return read_csv(path, _EVENT_COLUMNS, record)


def patients_from_csv(path) -> list[PatientRecord]:
    """Per-patient CSV: patient_id, birth_date, sex, race, ethnicity, cci,
    last_contact_date, procedures (semicolon-joined system:code:date). A
    negative cci is a bad row."""

    def record(row):
        procedures = []
        for item in filter(None, (row["procedures"] or "").split(";")):
            system, code, when = item.split(":")
            procedures.append(CodedProcedure(system, code, date.fromisoformat(when)))
        cci = int(row["cci"])
        if cci < 0:
            raise ValueError(f"cci {cci} is negative")
        return PatientRecord(
            patient_id=row["patient_id"],
            birth_date=date.fromisoformat(row["birth_date"]),
            sex=row["sex"],
            race=row["race"],
            ethnicity=row["ethnicity"],
            procedures=procedures,
            cci=cci,
            last_contact_date=date.fromisoformat(row["last_contact_date"]),
        )

    return read_csv(path, ("patient_id", "birth_date", "sex", "race", "ethnicity", "cci",
                           "last_contact_date", "procedures"), record)


# cohort.csv: the id, the two dates, then the covariates patient_covariates makes.
COHORT_COLUMNS = ("patient_id", "index_date", "last_contact_date",
                  "age_band", "sex", "race", "ethnicity", "cci")


def cohort_to_csv(cohort: dict[str, CohortPatient], path) -> None:
    write_csv(path, COHORT_COLUMNS, (
        [pid, pat.index_date.isoformat(), pat.last_contact_date.isoformat()]
        + [pat.covariates.get(k, "") for k in COHORT_COLUMNS[3:]]
        for pid, pat in sorted(cohort.items())))


def cohort_from_csv(path) -> dict[str, CohortPatient]:
    """The cohort written by ``cohort_to_csv``; every column but the id and
    the two dates is a covariate."""
    fixed = COHORT_COLUMNS[:3]

    def patient(row):
        covariates = {k: v for k, v in row.items() if k not in fixed}
        return CohortPatient(row["patient_id"], date.fromisoformat(row["index_date"]),
                             date.fromisoformat(row["last_contact_date"]), covariates)

    return {p.patient_id: p for p in read_csv(path, fixed, patient)}
