"""The benchmark's metric definitions and the span aggregation behind them.

End-to-end metrics come from untraced jobs. Per-layer metrics come from the
spans and counters that ``trace_stage.py`` records around each layer's public
calls; every ``*_s`` layer metric is a self time (span duration minus the
time its child spans cover) summed over the job's stages. ``cli.self_s`` also takes the interpreter
start-up and exit around the traced command, so the layer times add up to
the traced job's wall time.
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

EXTRACTION_STAGES = ("candidates", "lf_apply", "lf_stats", "labelmodel_fit", "train",
                     "predict", "eval")
SURVEILLANCE_STAGES = ("cohort", "events_merge", "survival_km", "survival_logrank",
                       "survival_cox", "regression_nb", "reconcile")
STAGE_METRICS = [f"cli.{s}_s" for s in EXTRACTION_STAGES + SURVEILLANCE_STAGES]

# metric -> span names whose self times it sums
SELF_TIME = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.stage",),
    "corpus.busy_s": ("corpus.ingest_notes", "corpus.preprocess"),
    "extraction.tag_s": ("extraction.tag_entities",),
    "extraction.context_s": ("extraction.apply_context",),
    "extraction.pairs_s": ("extraction.generate_candidates",),
    "weaksup.apply_s": ("weaksup.apply_lfs",),
    "weaksup.stats_s": ("weaksup.lf_statistics",),
    "weaksup.fit_s": ("weaksup.fit_label_model",),
    "weaksup.posterior_s": ("weaksup.posterior_labels",),
    "weaksup.io_s": ("weaksup.io",),
    "classifier.featurize_s": ("classifier.design_matrix",),
    "classifier.train_s": ("classifier.train_on_matrix",),
    "classifier.predict_s": ("classifier.predict_many",),
    "classifier.threshold_s": ("classifier.select_threshold",),
    "classifier.model_io_s": ("classifier.model_io",),
    "evaluation.prf1_s": ("evaluation.prf1",),
    "outcomes.load_s": ("outcomes.load",),
    "outcomes.cohort_s": ("outcomes.select_cohort",),
    "outcomes.merge_s": ("outcomes.merge_events",),
    "outcomes.dataset_s": ("outcomes.build_survival_dataset",),
    "survival.km_s": ("survival.km_estimate",),
    "survival.logrank_s": ("survival.logrank_test",),
    "survival.cox_s": ("survival.cox_fit",),
    "countreg.nb_s": ("countreg.nb_fit",),
    "reconcile.load_s": ("reconcile.load_registry_csv",),
    "reconcile.match_s": ("reconcile.reconcile_registry",),
}

# metric -> (unit, better); counters are summed over stages, the rest derived
COUNTS = {
    "corpus.notes": ("count", "lower"),
    "extraction.sentences": ("count", "lower"),
    "extraction.mentions": ("count", "lower"),
    "extraction.candidates": ("count", "lower"),
    "extraction.passes": ("ratio", "lower"),
    "weaksup.lf_errors": ("count", "lower"),
    "weaksup.em_iters": ("count", "lower"),
    "weaksup.covered_frac": ("ratio", "higher"),
    "classifier.featurize_per_candidate": ("ratio", "lower"),
    "classifier.batches": ("count", "lower"),
    "classifier.active_col_frac": ("ratio", "higher"),
    "classifier.model_bytes": ("B", "lower"),
    "outcomes.subjects": ("count", "higher"),
    "survival.cox_iters": ("count", "lower"),
    "survival.event_times": ("count", "higher"),
    "countreg.nb_iters": ("count", "lower"),
    "reconcile.records": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

def per_layer_metrics() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = [{"name": m, "unit": "s", "better": "lower"} for m in STAGE_METRICS]
    out += [{"name": m, "unit": "s", "better": "lower"} for m in SELF_TIME]
    out += [{"name": m, "unit": u, "better": b} for m, (u, b) in COUNTS.items()]
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return COUNTS[name][0] if name in COUNTS else "s"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations
    (children run one after another, so they never overlap)."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def job_layer_metrics(stage_records: list[dict], n_notes: int, n_candidates: int) -> dict:
    """Aggregate the span files of one traced job into per-layer values; each
    record carries its command's process wall time as ``process_wall_s``."""
    by_span: dict[str, float] = {}
    counts: dict[str, float] = {}
    gauges: dict[str, float] = {}
    preprocess_calls = 0
    for rec in stage_records:
        for (name, *_), own in zip(rec["spans"], self_times(rec["spans"])):
            by_span[name] = by_span.get(name, 0.0) + own
            preprocess_calls += name == "corpus.preprocess"
        # interpreter start-up and exit fall outside the root span "cli.stage"
        _, start, end, _ = rec["spans"][0]
        by_span["cli.stage"] += rec["process_wall_s"] - (end - start)
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in rec["gauges"].items():
            gauges[k] = max(gauges.get(k, v), v)
    out = {m: sum(by_span.get(s, 0.0) for s in spans) for m, spans in SELF_TIME.items()}
    for m in COUNTS:
        out[m] = counts.get(m, gauges.get(m, 0))
    out["extraction.passes"] = preprocess_calls / n_notes if n_notes else 0
    rows = counts.get("weaksup.rows", 0)
    out["weaksup.covered_frac"] = counts.get("weaksup.covered_rows", 0) / rows if rows else 0
    out["classifier.featurize_per_candidate"] = (
        counts.get("classifier.rows_featurized", 0) / n_candidates if n_candidates else 0)
    out.pop("trace.overhead_frac")
    return out
