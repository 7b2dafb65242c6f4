"""Synthetic corpora, label matrices, and survival data with known truth.

Everything here is template-driven and fully determined by a seed, so each
pipeline stage has an oracle that does not come from the code under test.
Gold relation labels are keyed by the character spans synth writes into each
note, hashed with the documented candidate-id formula; the notes never pass
through tagging here, so a term the extractor misses is a recall loss against
gold. Survival and count data come from closed-form generators.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .corpus import RawNote
from .errors import ConfigError, write_csv, writing
from .outcomes import CohortPatient, Event, SurvivalDataset, events_to_csv
from .reconcile import RegistryRecord, registry_to_csv
from .weaksup import ABSTAIN, LabelMatrix


# --- label-matrix oracle -------------------------------------------------


@dataclass(frozen=True)
class LFSpec:
    lf_id: str
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ConfigError(f"LF spec rates must lie in [0,1]: {self}")


def gen_label_matrix(n: int, lf_specs, class_prior: float, seed: int):
    """Draw Y_i ~ Bernoulli(prior); each LF votes with probability beta_j
    and agrees with Y_i with probability alpha_j, independently. Returns
    (LabelMatrix, gold labels keyed by generated candidate ids)."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    specs = list(lf_specs)
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < class_prior).astype(int)
    votes = np.full((n, len(specs)), ABSTAIN, dtype=np.int8)
    for j, spec in enumerate(specs):
        active = rng.random(n) < spec.beta
        agree = rng.random(n) < spec.alpha
        vote = np.where(agree, y, 1 - y)
        votes[active, j] = vote[active].astype(np.int8)
    ids = [f"synth-{seed}-{i:06d}" for i in range(n)]
    matrix = LabelMatrix(
        candidate_ids=ids,
        lf_ids=[s.lf_id for s in specs],
        votes=votes.tobytes(),
    )
    gold = {cid: int(label) for cid, label in zip(ids, y)}
    return matrix, gold


# --- corpus generator ----------------------------------------------------

# Sentence templates with {pain}/{anatomy} slots. The lexical design makes
# the weak-supervision benefit measurable: the TRUE labeling function only
# covers the "complains" flavor, but the "severe ... today" cue is shared
# with the uncovered positive flavor, so lexical features generalize; the
# neutral negatives carry no LF signal at all yet are lexically distinct.
TEMPLATE_CLASSES = {
    "pos_covered": ("Patient complains of severe {pain} in the {anatomy} today.", 1),
    "pos_uncovered": ("Exam notes severe {pain} in the {anatomy} today.", 1),
    "neg_negated": ("No {pain} in the {anatomy} on exam.", 0),
    "neg_historical": ("History of {pain} in the {anatomy} years ago.", 0),
    "neg_hypo_covered": ("Monitor for possible {pain} in the {anatomy} going forward.", 0),
    "neg_hypo_uncovered": ("Team will watch for possible {pain} in the {anatomy} going forward.", 0),
}

FILLER_SENTENCE = "Seen in clinic for routine follow up."

DEFAULT_CLASS_WEIGHTS = {
    "pos_covered": 0.22,
    "pos_uncovered": 0.13,
    "neg_negated": 0.12,
    "neg_historical": 0.08,
    "neg_hypo_covered": 0.15,
    "neg_hypo_uncovered": 0.30,
}

DEFAULT_PAIN_SLOTS = ("pain", "tenderness", "soreness", "discomfort", "aching")
DEFAULT_ANATOMY_SLOTS = ("hip", "knee", "groin", "thigh", "buttock")

DEFAULT_SYSTEMS = {
    "Zimmer VerSys": {"manufacturer": "Zimmer Biomet", "model": "VerSys", "hazard": 0.0002},
    "Depuy Pinnacle": {"manufacturer": "Depuy", "model": "Pinnacle", "hazard": 0.0004},
}

NOTES_PER_PATIENT = 4
FOLLOWUP_DAYS = 1825
BASE_DATE = date(2008, 1, 1)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_patients: int = 120
    registry_drop_rate: float = 0.0
    registry_variant_rate: float = 0.0

    def __post_init__(self):
        for rate in (self.registry_drop_rate, self.registry_variant_rate):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError("corruption rates must lie in [0,1]")


def _compose(template: str, terms: dict[str, str]):
    """Fill each {slot} of ``template`` with ``terms[slot]``; return the text
    and the character span of each slot's term in it."""
    text, spans = "", {}
    for literal, slot, _spec, _conv in string.Formatter().parse(template):
        text += literal
        if slot is not None:
            spans[slot] = (len(text), len(text) + len(terms[slot]))
            text += terms[slot]
    return text, spans


def _candidate_id(note_id: str, pain: tuple[int, int], anatomy: tuple[int, int]) -> str:
    """The documented id of a pain-anatomy candidate: the first 16 hex digits
    of the sha1 of ``note|relation|s:e|s:e`` over the two argument spans."""
    raw = f"{note_id}|pain-anatomy|{pain[0]}:{pain[1]}|{anatomy[0]}:{anatomy[1]}"
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


@dataclass
class SynthCorpus:
    notes: list[RawNote]
    note_class: dict[str, str]  # note_id -> template class
    gold_relations: dict[str, int]  # candidate_id -> gold label, in note order
    candidate_note: dict[str, str]  # candidate_id -> note_id
    events: list[Event]
    cohort: dict[str, CohortPatient]
    extracted_records: list[RegistryRecord]
    registry_records: list[RegistryRecord]


def gen_corpus(config: SynthConfig | None = None) -> SynthCorpus:
    """Generate notes with gold labels keyed by the spans written into them,
    plus event timelines and registry records."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)
    classes = sorted(DEFAULT_CLASS_WEIGHTS)
    weights = np.array([DEFAULT_CLASS_WEIGHTS[c] for c in classes], dtype=float)
    weights = weights / weights.sum()

    notes: list[RawNote] = []
    note_class: dict[str, str] = {}
    gold: dict[str, int] = {}
    candidate_note: dict[str, str] = {}
    system_names = sorted(DEFAULT_SYSTEMS)
    cohort: dict[str, CohortPatient] = {}
    events: list[Event] = []
    extracted: list[RegistryRecord] = []
    registry: list[RegistryRecord] = []

    for p in range(config.n_patients):
        pid = f"P{p:05d}"
        system = system_names[int(rng.integers(len(system_names)))]
        index_date = BASE_DATE + timedelta(days=int(rng.integers(0, 365)))
        last_contact = index_date + timedelta(days=FOLLOWUP_DAYS)
        cohort[pid] = CohortPatient(
            patient_id=pid,
            index_date=index_date,
            last_contact_date=last_contact,
            covariates={"implant_system": system},
        )
        # Event timeline from the per-system exponential hazard.
        info = DEFAULT_SYSTEMS[system]
        t = rng.exponential(1.0 / info["hazard"])
        if t < FOLLOWUP_DAYS:
            events.append(
                Event(
                    patient_id=pid,
                    event_class="revision",
                    timestamp=index_date + timedelta(days=int(t) + 1),
                    source="text",
                    provenance="synth",
                )
            )
        # Registry truth plus configured corruption.
        truth = RegistryRecord(
            patient_id=pid,
            surgery_date=index_date,
            component_role="acetabular",
            manufacturer=info["manufacturer"],
            model=info["model"],
        )
        extracted.append(truth)
        if rng.random() < config.registry_drop_rate:
            pass  # record dropped from the registry snapshot
        elif rng.random() < config.registry_variant_rate:
            registry.append(
                RegistryRecord(
                    patient_id=pid,
                    surgery_date=index_date,
                    component_role="acetabular",
                    manufacturer=info["manufacturer"],
                    model=info["model"] + " II",
                )
            )
        else:
            registry.append(truth)

        for v in range(NOTES_PER_PATIENT):
            note_id = f"{pid}-N{v}"
            cls = classes[int(rng.choice(len(classes), p=weights))]
            template, label = TEMPLATE_CLASSES[cls]
            terms = {
                "pain": DEFAULT_PAIN_SLOTS[int(rng.integers(len(DEFAULT_PAIN_SLOTS)))],
                "anatomy": DEFAULT_ANATOMY_SLOTS[int(rng.integers(len(DEFAULT_ANATOMY_SLOTS)))],
            }
            text, spans = _compose(f"{FILLER_SENTENCE} {template}", terms)
            notes.append(
                RawNote(
                    note_id=note_id,
                    patient_id=pid,
                    note_datetime=datetime.combine(
                        index_date + timedelta(days=30 * (v + 1)), datetime.min.time()
                    ),
                    note_type="progress",
                    text=text,
                )
            )
            note_class[note_id] = cls
            cid = _candidate_id(note_id, spans["pain"], spans["anatomy"])
            gold[cid] = label
            candidate_note[cid] = note_id

    return SynthCorpus(
        notes=notes,
        note_class=note_class,
        gold_relations=gold,
        candidate_note=candidate_note,
        events=events,
        cohort=cohort,
        extracted_records=extracted,
        registry_records=registry,
    )


def write_corpus(corpus: SynthCorpus, outdir) -> dict[str, str]:
    """Write notes.jsonl, gold_relations.csv, gold_events.csv, registry.csv,
    and extracted_implants.csv; returns the path map."""
    import os

    paths = {
        "notes": os.path.join(outdir, "notes.jsonl"),
        "gold_relations": os.path.join(outdir, "gold_relations.csv"),
        "gold_events": os.path.join(outdir, "gold_events.csv"),
        "registry": os.path.join(outdir, "registry.csv"),
        "extracted_implants": os.path.join(outdir, "extracted_implants.csv"),
    }
    with writing(paths["notes"]) as fh:
        fh.writelines(
            json.dumps({"note_id": note.note_id, "patient_id": note.patient_id,
                        "note_datetime": note.note_datetime.isoformat(),
                        "note_type": note.note_type, "text": note.text}) + "\n"
            for note in corpus.notes)
    write_csv(paths["gold_relations"], ["candidate_id", "label", "note_id"],
              ([cid, label, corpus.candidate_note[cid]]
               for cid, label in sorted(corpus.gold_relations.items())))
    events_to_csv(corpus.events, paths["gold_events"])
    registry_to_csv(corpus.registry_records, paths["registry"])
    registry_to_csv(corpus.extracted_records, paths["extracted_implants"])
    return paths


# --- survival-data oracle ------------------------------------------------


def gen_survival_dataset(
    n: int,
    hazard_ratio: float,
    seed: int,
    baseline_hazard: float = 0.001,
    censor_days: float = 2000.0,
) -> SurvivalDataset:
    """Two equal groups with exponential event times; group B's hazard is
    baseline * hazard_ratio. Administrative censoring at ``censor_days``."""
    if n < 2:
        raise ConfigError("need at least two subjects")
    rng = np.random.default_rng(seed)
    group = (np.arange(n) % 2).astype(float)  # 0 = A, 1 = B
    hazard = baseline_hazard * hazard_ratio**group
    raw = rng.exponential(1.0 / hazard)
    times = np.minimum(raw, censor_days)
    events = (raw <= censor_days).astype(int)
    times = np.maximum(times, 1.0)
    return SurvivalDataset(
        subject_ids=[f"S{i:05d}" for i in range(n)],
        times=times,
        events=events,
        X=group.reshape(-1, 1),
        columns=["implant_system=B"],
        groups=["B" if g else "A" for g in group],
    )


def gen_nb_counts(n: int, beta, theta: float, seed: int):
    """Counts from an NB2 model with a single standard-normal covariate:
    log mu = beta[0] + beta[1] * x. Returns (counts, x)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    mu = np.exp(beta[0] + beta[1] * x)
    lam = rng.gamma(shape=theta, scale=mu / theta)
    y = rng.poisson(lam)
    return y, x
