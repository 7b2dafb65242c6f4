"""Run one ``devicesurv`` command with spans around each layer's public calls.

Usage: python3 perfbench/trace_stage.py SPANS_JSON RUN_ID -- CLI_ARGS...

The root span ``cli.stage`` starts before ``import devicesurv.cli`` (span
``cli.import``) and ends when the command returns. The wrapped functions are
replaced in every ``devicesurv`` module that binds them, so a name imported
with ``from .x import f`` is traced too; the generator ``ingest_notes`` gets a
span per ``next()``. Spans and counters stay in memory and are written to
SPANS_JSON once, when the command has finished.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Spans as [name, start, end, parent index]; counters summed, gauges
    kept at their maximum."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)


TRACER = Tracer()


def _n(result):
    return len(result)


def _lf_errors(result):
    return sum(result.lf_errors.values())


def _covered(result):
    from devicesurv.weaksup import ABSTAIN

    return int((result.votes != ABSTAIN).any(axis=1).sum())


def _train_args(args, _kwargs):
    X, _p, config, dim = args
    batches = config.epochs * math.ceil(X.shape[0] / config.batch_size)
    import numpy as np

    active = np.unique(X.indices).size / dim
    return {"classifier.batches": batches}, {"classifier.active_col_frac": active}


def _model_bytes(args, _kwargs):
    path = str(args[1])
    return {}, {"classifier.model_bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


# (module, attribute, span name, {counter: f(result)}, {gauge: f(result)}, after(args, kwargs))
WRAPPED = [
    ("corpus", "preprocess", "corpus.preprocess", {}, {}, None),
    ("extraction", "tag_entities", "extraction.tag_entities",
     {"extraction.sentences": lambda r: 1, "extraction.mentions": _n}, {}, None),
    ("extraction", "apply_context", "extraction.apply_context", {}, {}, None),
    ("extraction", "generate_candidates", "extraction.generate_candidates",
     {"extraction.candidates": _n}, {}, None),
    ("weaksup", "apply_lfs", "weaksup.apply_lfs",
     {"weaksup.lf_errors": _lf_errors, "weaksup.rows": lambda r: r.n,
      "weaksup.covered_rows": _covered}, {}, None),
    ("weaksup", "lf_statistics", "weaksup.lf_statistics", {}, {}, None),
    ("weaksup", "fit_label_model", "weaksup.fit_label_model",
     {"weaksup.em_iters": lambda r: r.n_iter}, {}, None),
    ("weaksup", "posterior_labels", "weaksup.posterior_labels", {}, {}, None),
    ("weaksup", "LabelMatrix.save", "weaksup.io", {}, {}, None),
    ("weaksup", "LabelMatrix.load", "weaksup.io", {}, {}, None),
    ("weaksup", "LabelMatrix.write_csv", "weaksup.io", {}, {}, None),
    ("weaksup", "labels_to_csv", "weaksup.io", {}, {}, None),
    ("weaksup", "labels_from_csv", "weaksup.io", {}, {}, None),
    ("classifier", "design_matrix", "classifier.design_matrix",
     {"classifier.rows_featurized": lambda r: r.shape[0]}, {}, None),
    ("classifier", "train_on_matrix", "classifier.train_on_matrix", {}, {}, _train_args),
    ("classifier", "predict_many", "classifier.predict_many", {}, {}, None),
    ("classifier", "select_threshold", "classifier.select_threshold", {}, {}, None),
    ("classifier", "ClassifierModel.save", "classifier.model_io", {}, {}, _model_bytes),
    ("classifier", "ClassifierModel.load", "classifier.model_io", {}, {}, None),
    ("evaluation", "prf1", "evaluation.prf1", {}, {}, None),
    ("outcomes", "patients_from_csv", "outcomes.load", {}, {}, None),
    ("outcomes", "events_from_csv", "outcomes.load", {}, {}, None),
    ("outcomes", "select_cohort", "outcomes.select_cohort", {}, {}, None),
    ("outcomes", "merge_events", "outcomes.merge_events", {}, {}, None),
    ("outcomes", "build_survival_dataset", "outcomes.build_survival_dataset", {},
     {"outcomes.subjects": lambda r: len(r.subject_ids)}, None),
    ("survival", "km_estimate", "survival.km_estimate", {},
     {"survival.event_times": lambda r: len(r.times)}, None),
    ("survival", "logrank_test", "survival.logrank_test", {}, {}, None),
    ("survival", "cox_fit", "survival.cox_fit", {"survival.cox_iters": lambda r: r.n_iter}, {}, None),
    ("countreg", "nb_fit", "countreg.nb_fit", {"countreg.nb_iters": lambda r: r.n_iter}, {}, None),
    ("reconcile", "load_registry_csv", "reconcile.load_registry_csv",
     {"reconcile.records": _n}, {}, None),
    ("reconcile", "reconcile_registry", "reconcile.reconcile_registry", {}, {}, None),
]


def _wrap(fn, name, counters, gauges, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end()
        for key, f in counters.items():
            TRACER.count(key, f(result))
        for key, f in gauges.items():
            TRACER.gauge(key, f(result))
        if after is not None:
            more_counts, more_gauges = after(args, kwargs)
            for key, v in more_counts.items():
                TRACER.count(key, v)
            for key, v in more_gauges.items():
                TRACER.gauge(key, v)
        return result

    return wrapper


def _wrap_ingest(fn):
    """Time a generator per next(): the file is read lazily, interleaved with
    whatever consumes the notes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            TRACER.begin("corpus.ingest_notes")
            try:
                note = next(it)
            except StopIteration:
                return
            finally:
                TRACER.end()
            TRACER.count("corpus.notes", 1)
            yield note

    return wrapper


def _rebind(old, new) -> None:
    """Point every devicesurv module-level name bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "devicesurv" or mod_name.startswith("devicesurv.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install() -> None:
    import importlib

    corpus = importlib.import_module("devicesurv.corpus")
    _rebind(corpus.ingest_notes, _wrap_ingest(corpus.ingest_notes))
    for module_name, attr, name, counters, gauges, after in WRAPPED:
        module = importlib.import_module(f"devicesurv.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(raw.__func__, name, counters, gauges, after)))
            else:
                setattr(cls, meth, _wrap(raw, name, counters, gauges, after))
        else:
            fn = getattr(module, attr)
            _rebind(fn, _wrap(fn, name, counters, gauges, after))


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_stage.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    TRACER.begin("cli.stage", start=_T0)
    code = 1
    try:
        TRACER.begin("cli.import")
        try:
            import devicesurv.cli as cli
        finally:
            TRACER.end()
        install()
        try:
            cli.main(args=cli_args, prog_name="devicesurv")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        TRACER.end()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": TRACER.spans,
                       "counts": TRACER.counts, "gauges": TRACER.gauges}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
