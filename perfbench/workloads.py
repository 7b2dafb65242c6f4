"""Seeded inputs, CLI command chains and output checks for each workload.

A workload writes its input files into a job directory, names the
``devicesurv`` commands that process them (run in order, one process at a
time) and checks the artifacts against the generator's own truth. The truth
never comes from the code under test: ``cli_dense`` derives candidate ids from
the character offsets it placed, and ``surveillance`` knows every hazard,
drop and dispersion it drew.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from devicesurv import synth

RELATION = "pain-anatomy"

# --- sizes -----------------------------------------------------------------
# One job takes 12-18 s on a 2-vCPU VM, most of it seven interpreter start-ups,
# so a 30 s run fits two jobs plus the set-up samples.

SMALL_PATIENTS = 120  # the seed corpus: 480 notes, 480 candidates
DENSE_NOTES = 200
DENSE_TEMPLATE_SENTENCES = (2, 3, 4)
DENSE_FILLERS = (1, 2, 3)
DENSE_DOUBLE_SLOT_RATE = 1 / 3
SURVEILLANCE_SUBJECTS = 12000

# F1 floors: every seed tried (0-19, 100-109) gave F1 1.000 on both workloads
# at commit 14218c4; the floors leave room for a seed's noise.
F1_FLOOR = {"cli_small": 0.95, "cli_dense": 0.95}

# --- surveillance truth ------------------------------------------------------

BASE_REVISION_HAZARD = 1.0e-4  # per day, cci=none
CCI_HAZARD_RATIO = {"none": 1.0, "low": 1.3, "moderate": 1.6, "high": 2.0}
CCI_LEVELS = (("none", (0,), 0.40), ("low", (1,), 0.25), ("moderate", (2,), 0.20),
              ("high", (3, 4, 5), 0.15))
NB_THETA = 1.5
NB_RATE_PER_YEAR = 0.8
NB_THETA_TOLERANCE = 0.12  # six SDs: seeds 0-19 gave SD 1.8%, max error 5.1%
REGISTRY_DROP_RATE = 0.05
REGISTRY_JITTER_DAYS = 20  # within the CLI's default 30-day date tolerance
TEXT_REVISION_RATE = 0.6
TEXT_INFECTION_RATE = 0.05
TEXT_JITTER_DAYS = 30  # within the CLI's default 90-day merge window
COX_Z = 4.0  # HR check: |log HR - log truth| <= COX_Z * se (miss rate 6e-5)
LOGRANK_P_MAX = 1e-6
IMPLANTS = (("Zimmer", "Zimmer Biomet", "VerSys"), ("DePuy", "DePuy Synthes", "Pinnacle"),
            ("Biomet", "Zimmer Biomet", "Taperloc"))


@dataclass
class Job:
    """One workload job: its directory, config and commands, plus the truth
    the checks compare against."""

    workload: str
    directory: str
    commands: list[list[str]]
    truth: dict = field(default_factory=dict)
    n_notes: int = 0
    n_candidates: int = 0
    out_inputs: list[str] = field(default_factory=list)  # copied into out/ before each job


def _write_config(directory: str, paths: dict, params: dict) -> str:
    path = os.path.join(directory, "project.json")
    cfg = {"output_dir": os.path.join(directory, "out"), "paths": paths, "params": params}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _extraction_commands(config: str) -> list[list[str]]:
    return [[*stage, "--config", config] for stage in (
        ["candidates"], ["lf", "apply"], ["lf", "stats"], ["labelmodel", "fit"],
        ["train"], ["predict"], ["eval"])]


def _write_gold(path: str, gold: dict[str, int], note_of: dict[str, str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["candidate_id", "label", "note_id"])
        for cid in sorted(gold):
            w.writerow([cid, gold[cid], note_of[cid]])


def _write_notes(path: str, notes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in notes:
            fh.write(json.dumps({
                "note_id": n["note_id"], "patient_id": n["patient_id"],
                "note_datetime": n["note_datetime"], "note_type": "progress",
                "text": n["text"]}) + "\n")


def _extraction_job(workload, directory, notes, gold, note_of, seed) -> Job:
    notes_path = os.path.join(directory, "notes.jsonl")
    gold_path = os.path.join(directory, "gold_relations.csv")
    _write_notes(notes_path, notes)
    _write_gold(gold_path, gold, note_of)
    config = _write_config(
        directory,
        {"notes": notes_path, "gold_relations": gold_path, "dev_gold": gold_path},
        {"lf_set": "benchmark", "seed": seed},
    )
    return Job(workload, directory, _extraction_commands(config),
               truth={"gold": gold}, n_notes=len(notes), n_candidates=len(gold))


# --- cli_small -----------------------------------------------------------------


def make_cli_small(directory: str, seed: int, n_patients: int = SMALL_PATIENTS) -> Job:
    """The seed corpus from ``synth.gen_corpus``; gold is keyed by synth."""
    corpus = synth.gen_corpus(synth.SynthConfig(seed=seed, n_patients=n_patients))
    notes = [{"note_id": n.note_id, "patient_id": n.patient_id,
              "note_datetime": n.note_datetime.isoformat(), "text": n.text}
             for n in corpus.notes]
    return _extraction_job("cli_small", directory, notes, dict(corpus.gold_relations),
                           dict(corpus.candidate_note), seed)


# --- cli_dense -----------------------------------------------------------------


def candidate_id(note_id: str, arg1: tuple[int, int], arg2: tuple[int, int]) -> str:
    """The program's documented candidate id: sha1 of note, relation and the
    two argument spans, first 16 hex digits."""
    raw = f"{note_id}|{RELATION}|{arg1[0]}:{arg1[1]}|{arg2[0]}:{arg2[1]}"
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


def _slot_terms(rng, terms) -> list[str]:
    if rng.random() < DENSE_DOUBLE_SLOT_RATE:
        i, j = rng.choice(len(terms), size=2, replace=False)
        return [terms[int(i)], terms[int(j)]]
    return [terms[int(rng.integers(len(terms)))]]


def _compose_sentence(template: str, pains, anatomies, offset: int):
    """Fill the template's {pain}/{anatomy} slots with one or two terms joined
    by "and"; return the text and the character spans of every term."""
    spans = {"pain": [], "anatomy": []}
    out = ""
    for piece in re.split(r"\{(pain|anatomy)\}", template):
        if piece not in spans:
            out += piece
            continue
        for k, term in enumerate(pains if piece == "pain" else anatomies):
            out += " and " if k else ""
            spans[piece].append((offset + len(out), offset + len(out) + len(term)))
            out += term
    return out, spans


def dense_notes(seed: int, n_notes: int = DENSE_NOTES):
    """Notes of several template sentences (some slots naming two terms) mixed
    with mention-free filler sentences. Returns (notes, gold, note_of)."""
    rng = np.random.default_rng(seed)
    classes = sorted(synth.DEFAULT_CLASS_WEIGHTS)
    weights = np.array([synth.DEFAULT_CLASS_WEIGHTS[c] for c in classes])
    weights = weights / weights.sum()
    notes, gold, note_of = [], {}, {}
    base = datetime(2010, 1, 1)
    for i in range(n_notes):
        note_id = f"D{i:05d}"
        n_tmpl = int(rng.choice(DENSE_TEMPLATE_SENTENCES))
        n_fill = int(rng.choice(DENSE_FILLERS))
        kinds = ["t"] * n_tmpl + ["f"] * n_fill
        rng.shuffle(kinds)
        text = ""
        for kind in kinds:
            if text:
                text += " "
            if kind == "f":
                text += synth.FILLER_SENTENCE
                continue
            cls = classes[int(rng.choice(len(classes), p=weights))]
            template, label = synth.TEMPLATE_CLASSES[cls]
            sent, spans = _compose_sentence(
                template, _slot_terms(rng, synth.DEFAULT_PAIN_SLOTS),
                _slot_terms(rng, synth.DEFAULT_ANATOMY_SLOTS), len(text))
            text += sent
            for p in spans["pain"]:
                for a in spans["anatomy"]:
                    cid = candidate_id(note_id, p, a)
                    gold[cid] = label
                    note_of[cid] = note_id
        notes.append({"note_id": note_id, "patient_id": f"P{i // 4:05d}",
                      "note_datetime": (base + timedelta(days=int(i))).isoformat(),
                      "text": text})
    return notes, gold, note_of


def make_cli_dense(directory: str, seed: int, n_notes: int = DENSE_NOTES) -> Job:
    notes, gold, note_of = dense_notes(seed, n_notes)
    return _extraction_job("cli_dense", directory, notes, gold, note_of, seed)


# --- surveillance ----------------------------------------------------------------


def _cci_draw(rng):
    level = int(rng.choice(len(CCI_LEVELS), p=[share for *_, share in CCI_LEVELS]))
    name, values, _ = CCI_LEVELS[level]
    return name, values[int(rng.integers(len(values)))]


def make_surveillance(directory: str, seed: int, n_subjects: int = SURVEILLANCE_SUBJECTS) -> Job:
    """A coded cohort with per-cci revision hazards, text events, NB counts
    and a registry snapshot with known drops and date jitter."""
    rng = np.random.default_rng(seed)
    base = date(2005, 1, 1)
    patients, text_events, counts, extracted, registry = [], [], [], [], []
    n_revisions = n_text_other = drops = 0
    event_days: set[int] = set()
    for i in range(n_subjects):
        pid = f"S{i:06d}"
        index = base + timedelta(days=int(rng.integers(0, 730)))
        birth = index - timedelta(days=int(rng.uniform(40, 85) * 365.25))
        follow = int(rng.integers(1000, 3000))
        cci_name, cci = _cci_draw(rng)
        procs = [f"CPT:27130:{index.isoformat()}"]
        t = rng.exponential(1.0 / (BASE_REVISION_HAZARD * CCI_HAZARD_RATIO[cci_name]))
        rev_day = int(math.ceil(t))
        if rev_day < follow:
            rev = index + timedelta(days=rev_day)
            procs.append(f"CPT:27134:{rev.isoformat()}")
            n_revisions += 1
            event_days.add(rev_day)
            if rng.random() < TEXT_REVISION_RATE:
                when = rev + timedelta(days=int(rng.integers(0, TEXT_JITTER_DAYS + 1)))
                text_events.append((pid, "revision", when, f"note:{pid}:rev"))
        if rng.random() < TEXT_INFECTION_RATE:
            when = index + timedelta(days=int(rng.integers(1, follow)))
            text_events.append((pid, "infection", when, f"note:{pid}:inf"))
            n_text_other += 1
        last = index + timedelta(days=follow)
        patients.append([pid, birth.isoformat(), "FM"[int(rng.integers(2))],
                         ("White", "Black", "Asian", "Other")[int(rng.integers(4))],
                         ("Not Hispanic", "Hispanic")[int(rng.random() < 0.1)],
                         cci, last.isoformat(), ";".join(procs)])
        exposure = follow / 365.25
        mu = NB_RATE_PER_YEAR * exposure
        counts.append([pid, int(rng.poisson(rng.gamma(NB_THETA, mu / NB_THETA))), f"{exposure:.6f}"])
        raw_mfr, alias_mfr, model = IMPLANTS[int(rng.integers(len(IMPLANTS)))]
        extracted.append([pid, index.isoformat(), "acetabular", raw_mfr, model])
        if rng.random() < REGISTRY_DROP_RATE:
            drops += 1
        else:
            jitter = int(rng.integers(-REGISTRY_JITTER_DAYS, REGISTRY_JITTER_DAYS + 1))
            registry.append([pid, (index + timedelta(days=jitter)).isoformat(), "acetabular",
                             alias_mfr, model])

    def write(name, header, rows):
        path = os.path.join(directory, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return path

    patients_path = write("patients.csv", ["patient_id", "birth_date", "sex", "race", "ethnicity",
                                           "cci", "last_contact_date", "procedures"], patients)
    text_path = write("text_events.csv", ["patient_id", "class", "date", "source", "provenance"],
                      [[p, c, d.isoformat(), "text", prov] for p, c, d, prov in text_events])
    counts_path = write("counts.csv", ["patient_id", "count", "exposure"], counts)
    registry_header = ["patient_id", "surgery_date", "component_role", "manufacturer", "model"]
    registry_path = write("registry.csv", registry_header, registry)
    # reconcile reads the extracted records from the output directory
    write("extracted_implants.csv", registry_header, extracted)
    config = _write_config(
        directory,
        {"patients": patients_path, "text_events": text_path, "registry": registry_path},
        {"seed": seed},
    )
    commands = [[*stage, "--config", config] for stage in (
        ["cohort"], ["events", "merge"], ["survival", "km"], ["survival", "logrank"],
        ["survival", "cox"])]
    commands.append(["regression", "nb", "--config", config, "--counts-file", counts_path])
    commands.append(["reconcile", "--config", config])
    truth = {
        "subjects": n_subjects,
        "revisions": n_revisions,
        "event_times": len(event_days),
        "merged_events": n_revisions + n_text_other,
        "hr_high": CCI_HAZARD_RATIO["high"],
        "theta": NB_THETA,
        "reconcile": {"agreement": n_subjects - drops, "conflict": 0,
                      "missing_in_registry": drops, "missing_in_extraction": 0},
    }
    return Job("surveillance", directory, commands, truth=truth,
               out_inputs=["extracted_implants.csv"])


MAKERS = {"cli_small": make_cli_small, "cli_dense": make_cli_dense,
          "surveillance": make_surveillance}


# --- checks ------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_scored(job: Job):
    scored = {r["candidate_id"] for r in _read_csv(os.path.join(job.directory, "out", "scores.csv"))}
    gold = set(job.truth["gold"])
    missing, extra = len(gold - scored), len(scored - gold)
    return missing == 0 and extra == 0, f"{missing} gold ids unscored, {extra} unexpected"


def _confusion(job: Job):
    """tp, fp, fn of scores.csv's predicted labels against gold; an unscored
    gold id counts as predicted negative, as in the program's eval."""
    gold = job.truth["gold"]
    pred = {r["candidate_id"]: int(r["predicted_label"])
            for r in _read_csv(os.path.join(job.directory, "out", "scores.csv"))}
    tp = sum(1 for cid, g in gold.items() if g and pred.get(cid, 0))
    fp = sum(1 for cid, g in gold.items() if not g and pred.get(cid, 0))
    fn = sum(1 for cid, g in gold.items() if g and not pred.get(cid, 0))
    return tp, fp, fn


def _f1(tp, fp, fn):
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def _check_f1(job: Job):
    tp, fp, fn = _confusion(job)
    f1 = _f1(tp, fp, fn)
    return f1 >= F1_FLOOR[job.workload], f"F1 {f1:.4f} (floor {F1_FLOOR[job.workload]})"


def _check_eval(job: Job):
    """metrics.csv counts every gold positive and agrees with the F1 of
    scores.csv (eval re-reads scores rounded to 6 digits, so a score at the
    threshold may flip: allow 0.005)."""
    (row,) = _read_csv(os.path.join(job.directory, "out", "metrics.csv"))
    tp, fp, fn = int(row["tp"]), int(row["fp"]), int(row["fn"])
    positives = sum(job.truth["gold"].values())
    want = _f1(*_confusion(job))
    ok = tp + fn == positives and abs(_f1(tp, fp, fn) - want) <= 0.005
    return ok, f"metrics.csv tp+fn {tp + fn} of {positives} positives, F1 {_f1(tp, fp, fn):.4f} vs {want:.4f}"


def _check_cox(job: Job):
    fit = _load_json(os.path.join(job.directory, "out", "cox.json"))
    term = next(t for t in fit["terms"] if t["term"] == "cci=high")
    truth = job.truth["hr_high"]
    se = (math.log(term["CI_high"]) - math.log(term["CI_low"])) / (2 * 1.96)
    z = abs(math.log(term["HR"]) - math.log(truth)) / se
    covered = term["CI_low"] <= truth <= term["CI_high"]
    return z <= COX_Z, (f"HR {term['HR']:.3f} 95% CI [{term['CI_low']:.3f}, "
                        f"{term['CI_high']:.3f}] vs {truth} (z={z:.2f}, covered={covered})")


def _check_logrank(job: Job):
    p = _load_json(os.path.join(job.directory, "out", "logrank.json"))["p_value"]
    return p < LOGRANK_P_MAX, f"log-rank p {p:.3g}"


def _check_reconcile(job: Job):
    counts = _load_json(os.path.join(job.directory, "out", "reconciliation_summary.json"))["counts"]
    return counts == job.truth["reconcile"], f"{counts} vs {job.truth['reconcile']}"


def _check_nb(job: Job):
    theta = _load_json(os.path.join(job.directory, "out", "nb.json"))["theta"]
    rel = abs(theta - job.truth["theta"]) / job.truth["theta"]
    return rel <= NB_THETA_TOLERANCE, f"theta {theta:.4f} vs {job.truth['theta']}"


def _check_events(job: Job):
    out = os.path.join(job.directory, "out")
    cohort = len(_read_csv(os.path.join(out, "cohort.csv")))
    merged = len(_read_csv(os.path.join(out, "merged_events.csv")))
    km = _read_csv(os.path.join(out, "km.csv"))
    got = (cohort, merged, len(km), sum(int(r["n_events"]) for r in km))
    t = job.truth
    want = (t["subjects"], t["merged_events"], t["event_times"], t["revisions"])
    return got == want, f"cohort/merged/event times/events {got} vs {want}"


CHECKS = {
    "cli_small": (_check_scored, _check_f1, _check_eval),
    "cli_dense": (_check_scored, _check_f1, _check_eval),
    "surveillance": (_check_events, _check_cox, _check_logrank, _check_reconcile, _check_nb),
}


def run_checks(job: Job) -> list[tuple[str, bool, str]]:
    """Run every check of the job's workload; a check that cannot read its
    artifact fails."""
    results = []
    for check in CHECKS[job.workload]:
        name = check.__name__.removeprefix("_check_")
        try:
            ok, detail = check(job)
        except (OSError, KeyError, ValueError, StopIteration, ZeroDivisionError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
