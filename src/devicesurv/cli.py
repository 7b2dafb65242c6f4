"""Command-line surface wiring the pipeline stages together.

Stages communicate through files in the configured output directory. Every
command reads a declarative JSON project config, holds a lock on the output
directory, prints a one-line summary on success, and on failure prints an
error JSON ({code, message, context}) to stderr and exits with the code its
error class declares in ``errors``: 2 config, 3 input format, 4 missing
artifact, 5 fit failure, 1 other.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import hashlib
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime
from typing import TYPE_CHECKING, Callable, NamedTuple

# One OpenBLAS thread unless the user chose a count, set before any command
# imports numpy: the commands' matrix products are small, a second thread
# costs more than it saves, and with one thread a fit's last digits do not
# depend on the machine's core count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Each command imports the modules it runs in its body, so a command that
# does no array math starts without numpy, and only the statistics commands
# load scipy. Keep module imports out of the top of this file.
from .errors import (  # noqa: E402
    ConfigError,
    DeviceSurvError,
    MissingArtifactError,
    parsing,
    read_csv,
    write_csv,
    write_json,
)

if TYPE_CHECKING:
    from .outcomes import SurvivalDataset

_LIST_PATH_KEYS = {"dictionaries"}


class _Param(NamedTuple):
    type: type  # a JSON integer is also accepted where a float is expected
    default: object  # what a command uses when the config leaves the key out
    allowed: tuple = ()  # (test, the values as an error states them); () allows any


_AT_LEAST_0 = (lambda v: v >= 0, "at least 0")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
# Every config param. relation_type, class_prior and outcome_class are
# checked by the module that reads them (extraction, weaksup, outcomes): it
# owns their choices, and loading it here would load it for every command.
_PARAMS = {
    "seed": _Param(int, 0, _AT_LEAST_0),
    "relation_type": _Param(str, "pain-anatomy"),
    "lf_set": _Param(str, "starter", (lambda v: v in ("starter", "benchmark"),
                                      "'starter' or 'benchmark'")),
    "class_prior": _Param(float, 0.5),
    "epochs": _Param(int, 20, _AT_LEAST_1),
    "learning_rate": _Param(float, 0.5, (lambda v: v > 0, "above 0")),
    "l2": _Param(float, 1e-4, _AT_LEAST_0),
    "batch_size": _Param(int, 32, _AT_LEAST_1),
    "threshold": _Param(float, 0.5, (lambda v: 0 <= v <= 1, "in [0, 1]")),
    "merge_window_days": _Param(int, 90, _AT_LEAST_0),
    "date_tolerance_days": _Param(int, 30, _AT_LEAST_0),
    "outcome_class": _Param(str, "revision"),
}


@dataclass
class ProjectConfig:
    output_dir: str
    paths: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha1(canon).hexdigest()[:12]

    def path(self, key: str) -> str:
        value = self.paths.get(key)
        if value is None:
            raise ConfigError(f"config paths.{key} is required for this command")
        return value

    def files(self, key: str) -> list:
        """Every file configured under ``paths.<key>``; none when unset."""
        value = self.paths.get(key)
        return [] if value is None else value if key in _LIST_PATH_KEYS else [value]

    def artifact(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


def load_config(path: str) -> ProjectConfig:
    if not os.path.exists(path):
        raise MissingArtifactError(f"config file not found: {path}", context={"path": path})
    with open(path, encoding="utf-8") as fh, parsing(path):
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key in ("paths", "params"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{path}: config {key} must be a JSON object")
    unknown = set(raw) - {"output_dir", "paths", "params"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    paths = dict(raw.get("paths", {}))
    params = dict(raw.get("params", {}))
    bad = set(paths) - _KNOWN_PATH_KEYS
    if bad:
        raise ConfigError(f"unknown config paths keys: {sorted(bad)}")
    bad = set(params) - set(_PARAMS)
    if bad:
        raise ConfigError(f"unknown config params keys: {sorted(bad)}")
    for key, value in params.items():
        want, _, allowed = _PARAMS[key]
        if want is float and type(value) is int:
            params[key] = value = float(value)
        if type(value) is not want:  # a JSON true/false is no int
            raise ConfigError(f"config params.{key} must be {want.__name__}, not {value!r}",
                              context={"key": key})
        if allowed and not allowed[0](value):
            raise ConfigError(f"config params.{key} must be {allowed[1]}, not {value!r}",
                              context={"key": key})
    params = {key: params.get(key, p.default) for key, p in _PARAMS.items()}
    if "output_dir" not in raw:
        raise ConfigError("config must set output_dir")
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("config output_dir must be a nonempty string, not "
                          f"{raw['output_dir']!r}", context={"key": "output_dir"})
    cfg = ProjectConfig(output_dir=raw["output_dir"], paths=paths, params=params, raw=raw)
    for key, value in paths.items():
        listed = key in _LIST_PATH_KEYS
        if isinstance(value, list) != listed or not all(isinstance(v, str) for v in cfg.files(key)):
            want = "a list of strings" if listed else "a string"
            raise ConfigError(f"config paths.{key} must be {want}, not {value!r}",
                              context={"key": key})
        for target in cfg.files(key):
            if not os.path.exists(target):
                raise MissingArtifactError(
                    f"configured path {key} does not exist: {target}",
                    context={"key": key, "path": target},
                )
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg


class _Lock:
    """One command at a time per output directory: an exclusive ``flock`` on
    ``output_dir/.lock``. The kernel drops it when its holder exits, however
    it exits, so a crashed run leaves nothing to take over. The file holds
    the holder's pid for a human reader."""

    def __init__(self, outdir: str):
        self.path = os.path.join(outdir, ".lock")

    def __enter__(self):
        while True:
            # No truncate: a refused run leaves the holder's pid as it was.
            self.fd = fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise ConfigError(
                    f"output directory is locked by another run: {self.path}") from None
            try:  # the last holder may have removed the file between open and flock
                if os.stat(self.path).st_ino == os.fstat(fd).st_ino:
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        try:
            os.remove(self.path)  # while still holding the lock
        except FileNotFoundError:
            pass  # removed by hand during the run
        os.close(self.fd)
        return False


class _Stage(NamedTuple):
    run: Callable  # run(config, **options): the command as its arguments call it
    paths: tuple  # the config paths it reads
    writes: tuple  # the artifacts it writes to the output directory
    options: tuple  # (flag, default, help) beside --config; a None default is required


# Filled as ``_stage`` registers each command, keyed by its full name: the
# command tree ``main`` parses, each artifact's producer and every path key.
_STAGES: dict[str, _Stage] = {}
_PRODUCERS: dict[str, str] = {}
_KNOWN_PATH_KEYS: set[str] = set()


def _require(cfg: ProjectConfig, artifact: str) -> str:
    """The path of ``artifact`` in the output directory. A missing one, or one
    older than a file configured under its producer's ``paths``, stops the
    command (exit 4) naming the command that writes it."""
    path, producer = cfg.artifact(artifact), _PRODUCERS[artifact]
    if not os.path.exists(path):
        raise MissingArtifactError(f"{path} not found (run '{producer}' first)")
    made = os.path.getmtime(path)
    for key in _STAGES[producer].paths:
        for inp in cfg.files(key):
            if os.path.getmtime(inp) > made:
                raise MissingArtifactError(
                    f"{path} is older than input {inp} (rerun '{producer}')",
                    context={"path": path, "input": inp},
                )
    return path


def _load_resources(cfg: ProjectConfig):
    from .defaults import default_dictionaries, default_trigger_lexicon
    from .extraction import load_dictionary, load_trigger_lexicon

    dictionaries = ([load_dictionary(p) for p in cfg.paths.get("dictionaries") or ()]
                    or default_dictionaries())
    trig = cfg.paths.get("trigger_lexicon")
    lexicon = load_trigger_lexicon(trig) if trig else default_trigger_lexicon()
    return dictionaries, lexicon


def _load_candidates(cfg: ProjectConfig):
    """The candidates of candidates.jsonl, read one at a time as they are
    consumed; the artifact is required now, before any of them is read."""
    from .extraction import read_candidates

    return read_candidates(_require(cfg, "candidates.jsonl"))


def _ids_as_read(cands, ids: list):
    """Each of ``cands`` in turn, appending its id to ``ids`` as it passes."""
    for c in cands:
        ids.append(c.candidate_id)
        yield c


def _get_lfs(cfg: ProjectConfig):
    from . import lf_lib, weaksup

    rtype = cfg.params["relation_type"]
    module_path = cfg.paths.get("lf_module")
    if module_path:
        # The user's own code: a module that does not import or has no
        # get_lfs, a get_lfs that raises, and anything but a list of
        # LabelingFunction are config errors naming the file.
        try:
            spec = importlib.util.spec_from_file_location("user_lfs", module_path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            lfs = list(module.get_lfs(rtype))
        except Exception as exc:
            raise ConfigError(f"{module_path}: cannot get LFs from get_lfs(relation_type) "
                              f"({exc!r})", context={"path": module_path}) from exc
        for lf in lfs:
            if not isinstance(lf, weaksup.LabelingFunction):
                raise ConfigError(f"{module_path}: get_lfs returned {lf!r}, not a "
                                  "LabelingFunction", context={"path": module_path})
        return lfs
    if cfg.params["lf_set"] == "benchmark":
        return lf_lib.benchmark_lfs()
    return lf_lib.starter_lfs(rtype)


# Each command group's line in ``devicesurv --help``.
_GROUPS = {"events": "Event-stream commands.", "labelmodel": "Generative label-model commands.",
           "lf": "Labeling-function commands.", "regression": "Count-regression commands.",
           "report": "Reporting commands.", "survival": "Survival-analysis commands.",
           "synth": "Synthetic-data commands."}


def main(args=None, prog_name="devicesurv", standalone_mode=True):
    """Clinical-text device-event extraction and surveillance statistics."""
    # standalone_mode is click's keyword, which callers still pass; a failing
    # command exits by SystemExit whatever its value.
    root = argparse.ArgumentParser(prog=prog_name, description=main.__doc__)
    groups = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    for command, stage in sorted(_STAGES.items()):
        group, _, name = command.rpartition(" ")
        if group not in groups:
            parser = groups[""].add_parser(group, help=_GROUPS[group], description=_GROUPS[group])
            groups[group] = parser.add_subparsers(metavar="COMMAND", required=True)
        doc = stage.run.__doc__
        parser = groups[group].add_parser(name, help=doc, description=doc, allow_abbrev=False)
        for flag, default, text in (("--config", None, "Project config JSON."), *stage.options):
            parser.add_argument(flag, default=default, required=default is None,
                                help=text if default is None else f"{text} (default: {default})")
        parser.set_defaults(run=stage.run)
    options = vars(root.parse_args(args))
    options.pop("run")(**options)


def _stage(command: str, paths=(), writes=(), options=()):
    """Register ``body(cfg, **options)`` as ``command``, its full name, with
    the config ``paths`` it reads, the artifacts it ``writes`` to the output
    directory and its ``options`` beside ``--config``, each ``(flag, default,
    help)``; a ``None`` default makes the option required.

    The body returns its summary line. The command loads the config and
    holds the output-directory lock around the body, then writes
    ``<command>.meta.json`` naming the declared outputs and prints the
    summary. A library error becomes error JSON on stderr and its exit code."""
    _PRODUCERS.update(dict.fromkeys(writes, command))
    _KNOWN_PATH_KEYS.update(paths)

    def register(body):
        @functools.wraps(body)
        def run(config, **options):
            try:
                cfg = load_config(config)
                with _Lock(cfg.output_dir):
                    summary = body(cfg, **options)
                    meta = {
                        "command": command,
                        "config_hash": cfg.config_hash(),
                        "written_at": datetime.now().isoformat(timespec="seconds"),
                        "outputs": [cfg.artifact(a) for a in writes],
                    }
                    write_json(cfg.artifact(f"{command.replace(' ', '_')}.meta.json"), meta)
                print(summary, flush=True)  # a closed pipe fails here, in the try
            except DeviceSurvError as exc:
                print(json.dumps(exc.to_json()), file=sys.stderr)
                sys.exit(exc.exit_code)
            except OSError as exc:
                print(json.dumps({"code": "io", "message": str(exc), "context": {}}),
                      file=sys.stderr)
                sys.exit(1)

        _STAGES[command] = _Stage(run, paths, writes, options)
        return run

    return register


@_stage("candidates", paths=("notes", "dictionaries", "trigger_lexicon"),
        writes=("candidates.jsonl",))
def candidates(cfg):
    """Generate relation candidates; write candidates.jsonl for the later stages."""
    from .corpus import ingest_notes, preprocess
    from .extraction import extract_candidates, relation_arg_types, write_candidates

    # Checked before the notes are read: an empty notes file checks nothing.
    rtypes = (cfg.params["relation_type"],)
    relation_arg_types(rtypes[0])
    dictionaries, lexicon = _load_resources(cfg)
    cands = (
        c for note in ingest_notes(cfg.path("notes"))
        for c in extract_candidates(preprocess(note), dictionaries, lexicon, rtypes)
    )
    out_path = cfg.artifact("candidates.jsonl")
    n = write_candidates(cands, out_path)
    return f"candidates: {n} candidates -> {out_path}"


@_stage("lf apply", paths=("lf_module",), writes=("label_matrix.bin", "label_matrix.csv"))
def lf_apply(cfg):
    """Apply the configured LF set; write the label matrix."""
    from . import weaksup
    from .extraction import relation_arg_types

    relation_arg_types(cfg.params["relation_type"])  # before the candidates are read
    cands = _load_candidates(cfg)
    matrix = weaksup.apply_lfs(cands, _get_lfs(cfg))
    out_path, csv_path = cfg.artifact("label_matrix.bin"), cfg.artifact("label_matrix.csv")
    matrix.save(out_path)
    matrix.write_csv(csv_path)
    return (
        f"lf apply: {matrix.n} candidates x {matrix.m} LFs -> {out_path} "
        f"(errors: {sum(matrix.lf_errors.values())})"
    )


@_stage("lf stats", paths=("dev_gold",), writes=("lf_stats.csv",))
def lf_stats(cfg):
    """Per-LF coverage/overlap/conflict (and accuracy when dev gold is set)."""
    from . import evaluation, weaksup

    matrix_path = _require(cfg, "label_matrix.bin")
    matrix = weaksup.LabelMatrix.load(matrix_path)
    if matrix.n == 0:
        raise ConfigError(f"{matrix_path}: label matrix has no candidates",
                          context={"path": matrix_path})
    gold_path = cfg.paths.get("dev_gold")
    gold = evaluation.read_gold(gold_path) if gold_path else None
    stats = weaksup.lf_statistics(matrix, gold)
    out_path = cfg.artifact("lf_stats.csv")
    with_acc = gold is not None
    header = ["lf_id", "coverage", "overlap", "conflict"] + (["accuracy"] if with_acc else [])
    rows = [[lf_id, f"{st.coverage:.4f}", f"{st.overlap:.4f}", f"{st.conflict:.4f}"]
            + (["" if st.accuracy is None else f"{st.accuracy:.4f}"] if with_acc else [])
            for lf_id, st in stats.per_lf.items()]
    write_csv(out_path, header, rows)
    for row in [header, *rows]:
        print(",".join(row))
    print("soft-majority-vote label distribution:")
    for p, count in sorted(stats.distribution.items()):
        print(f"  p_true={p:.2f}: {count}")
    return f"lf stats: {len(stats.per_lf)} LFs -> {out_path}"


@_stage("labelmodel fit", writes=("label_model.json", "labels.csv"))
def labelmodel_fit(cfg):
    """Fit the label model and write posterior probabilistic labels."""
    from . import weaksup

    matrix = weaksup.LabelMatrix.load(_require(cfg, "label_matrix.bin"))
    model = weaksup.fit_label_model(matrix, cfg.params["class_prior"])
    model_path = cfg.artifact("label_model.json")
    write_json(model_path, model.to_dict())
    weaksup.labels_to_csv(weaksup.posterior_labels(model, matrix), cfg.artifact("labels.csv"))
    return (
        f"labelmodel fit: {model.n_iter} EM iterations, "
        f"log-likelihood {model.log_likelihood:.2f} -> {model_path}"
    )


@_stage("train", paths=("dev_gold",), writes=("classifier.bin", "classifier.bin.json"))
def train(cfg):
    """Train the noise-aware classifier on the probabilistic labels."""
    from . import classifier as clf
    from . import evaluation, weaksup

    labels = weaksup.labels_from_csv(_require(cfg, "labels.csv"))
    # labels.csv lists only the candidates some LF voted on: the training rows.
    covered = {lab.candidate_id for lab in labels}
    cands = _load_candidates(cfg)
    gold_path = cfg.paths.get("dev_gold")
    dev_gold = evaluation.read_gold(gold_path) if gold_path else {}
    # One design matrix for the rows that train and the rows that tune
    # the threshold, in candidate-file order.
    ids: list[str] = []
    X = clf.design_matrix(_ids_as_read(
        (c for c in cands if c.candidate_id in covered or c.candidate_id in dev_gold), ids))
    train_rows = [i for i, cid in enumerate(ids) if cid in covered]
    train_cfg = clf.TrainConfig(**{f.name: cfg.params[f.name] for f in fields(clf.TrainConfig)})
    model = clf.train_noise_aware(
        X.rows(train_rows), [ids[i] for i in train_rows], labels, train_cfg)
    rows = f"{len(train_rows)} training rows"
    if gold_path:
        dev_rows = [i for i, cid in enumerate(ids) if cid in dev_gold]
        model.threshold = clf.select_threshold(
            clf.score_matrix(model, X.rows(dev_rows)), [dev_gold[ids[i]] for i in dev_rows])
        rows += f", {len(dev_rows)} dev rows"
    else:
        model.threshold = cfg.params["threshold"]
    model_path = cfg.artifact("classifier.bin")
    model.save(model_path)
    return f"train: {rows}, threshold {model.threshold:.2f} -> {model_path}"


@_stage("predict", writes=("scores.csv",))
def predict(cfg):
    """Score candidates with the trained classifier; write scores.csv."""
    from . import classifier as clf
    from . import evaluation

    model = clf.ClassifierModel.load(_require(cfg, "classifier.bin"))
    ids: list[str] = []
    scores = clf.predict_many(model, _ids_as_read(_load_candidates(cfg), ids))
    out_path = cfg.artifact("scores.csv")
    evaluation.scores_to_csv(ids, scores, model.threshold, out_path)
    return f"predict: {len(ids)} candidates -> {out_path}"


@_stage("eval", paths=("gold_relations",), writes=("metrics.csv",))
def eval_cmd(cfg):
    """Score predictions against gold labels; write metrics.csv."""
    from . import evaluation

    scores_path = _require(cfg, "scores.csv")
    gold = evaluation.read_gold(cfg.path("gold_relations"))
    labels = evaluation.read_scores(scores_path)
    restricted = {cid: y for cid, y in labels.items() if cid in gold}
    metrics = evaluation.prf1(restricted, gold)
    out_path = cfg.artifact("metrics.csv")
    evaluation.metrics_to_csv(metrics, out_path)
    p, r, f = metrics.rounded()
    return f"eval: P={p} R={r} F1={f} -> {out_path}"


@_stage("reconcile", paths=("registry", "implant_catalog"),
        writes=("reconciliation.csv", "reconciliation_summary.json"))
def reconcile_cmd(cfg):
    """Reconcile extracted implant records against the registry snapshot."""
    from . import reconcile
    from .defaults import load_implant_catalog

    extracted_path = _require(cfg, "extracted_implants.csv")
    catalog = load_implant_catalog(cfg.paths.get("implant_catalog"))
    report = reconcile.reconcile_registry(
        reconcile.load_registry_csv(extracted_path, catalog),
        reconcile.load_registry_csv(cfg.path("registry"), catalog),
        cfg.params["date_tolerance_days"],
    )
    out_path = cfg.artifact("reconciliation.csv")
    report.write_csv(out_path)
    report.write_summary_json(cfg.artifact("reconciliation_summary.json"))
    counts = ", ".join(f"{k}={v}" for k, v in report.counts().items())
    return f"reconcile: {counts} -> {out_path}"


@_stage("cohort", paths=("patients",), writes=("cohort.csv", "coded_events.csv"))
def cohort(cfg):
    """Select the surgical cohort from coded patient records."""
    from . import outcomes

    records = outcomes.patients_from_csv(cfg.path("patients"))
    selected, coded_events = outcomes.select_cohort(records)
    out_path = cfg.artifact("cohort.csv")
    outcomes.cohort_to_csv(selected, out_path)
    outcomes.events_to_csv(coded_events, cfg.artifact("coded_events.csv"))
    return (
        f"cohort: {len(selected)} patients, {len(coded_events)} coded revision "
        f"events -> {out_path}"
    )


@_stage("events merge", paths=("text_events",), writes=("merged_events.csv",))
def events_merge(cfg):
    """Merge coded and text-derived events into a unified stream."""
    from . import outcomes

    coded = outcomes.events_from_csv(_require(cfg, "coded_events.csv"))
    text = outcomes.events_from_csv(cfg.path("text_events"))
    merged = outcomes.merge_events(coded, text, cfg.params["merge_window_days"])
    out_path = cfg.artifact("merged_events.csv")
    outcomes.events_to_csv(merged, out_path)
    return (
        f"events merge: {len(coded)} coded + {len(text)} text -> "
        f"{len(merged)} unified events -> {out_path}"
    )


def _load_survival_dataset(
    cfg: ProjectConfig, group_by: str | None = None
) -> SurvivalDataset:
    """The cohort's survival dataset; with ``group_by``, each subject's group
    label is that cohort.csv column ("Unknown" where a cell is missing or
    empty). A cohort.csv left with no subject, or without the ``group_by``
    column, is refused (exit 2) naming the file."""
    from . import outcomes

    cohort_path = _require(cfg, "cohort.csv")
    cohort = outcomes.cohort_from_csv(cohort_path)
    evts = outcomes.events_from_csv(_require(cfg, "merged_events.csv"))
    spec = [
        outcomes.Covariate("age_band", reference="40-49"),
        outcomes.Covariate("sex", reference="F"),
        outcomes.Covariate("cci", reference="none"),
    ]
    try:
        return outcomes.build_survival_dataset(
            cohort, evts, cfg.params["outcome_class"], spec, group_by
        )
    except outcomes.CohortError as exc:
        raise ConfigError(f"{cohort_path}: {exc.message}",
                          context={"path": cohort_path, **exc.context}) from None


@_stage("survival km", writes=("km.csv",))
def survival_km(cfg):
    """Kaplan-Meier survival curve of the cohort; write km.csv."""
    from . import survival

    curve = survival.km_estimate(_load_survival_dataset(cfg))
    out_path = cfg.artifact("km.csv")
    write_csv(out_path, ["time", "survival", "n_at_risk", "n_events"],
              ([f"{t:.0f}", f"{s:.6f}", nr, ne] for t, s, nr, ne in
               zip(curve.times, curve.survival, curve.n_at_risk, curve.n_events)))
    return f"survival km: {len(curve.times)} event times -> {out_path}"


@_stage("survival logrank", writes=("logrank.json",),
        options=(("--group-by", "cci", "Covariate grouping the comparison."),))
def survival_logrank(cfg, group_by):
    """Log-rank test across the groups of a cohort.csv column; write logrank.json."""
    from . import survival

    result = survival.logrank_test(_load_survival_dataset(cfg, group_by))
    out_path = cfg.artifact("logrank.json")
    write_json(out_path,
               {"statistic": result.statistic, "df": result.df, "p_value": result.p_value})
    return (
        f"survival logrank: chi2={result.statistic:.3f} df={result.df} "
        f"p={result.p_value:.4g} -> {out_path}"
    )


@_stage("survival cox", writes=("cox.json",))
def survival_cox(cfg):
    """Cox proportional-hazards fit on the cohort covariates; write cox.json."""
    from . import survival

    ds = _load_survival_dataset(cfg)
    groups = _group_summaries(ds)
    fit = survival.cox_fit(ds)
    # The sample is freed before the payload reads the first p-value, so the
    # scipy.special import that read starts reuses its memory.
    del ds
    out_path = cfg.artifact("cox.json")
    payload = {
        "terms": list(fit.summary_rows()),
        "loglik": fit.loglik,
        "loglik_null": fit.loglik_null,
        "score_statistic": fit.score_statistic,
        "score_p_value": fit.score_p_value,
        "n_iter": fit.n_iter,
        "groups": groups,
    }
    write_json(out_path, payload)
    return (
        f"survival cox: {len(fit.columns)} terms, log-likelihood {fit.loglik:.2f} "
        f"-> {out_path}"
    )


def _group_summaries(ds: SurvivalDataset):
    """Per-group patient/event/person-year summaries for the forest table."""
    import numpy as np

    from .outcomes import categories

    labels, g = categories(ds.groups or ["All"] * len(ds.subject_ids))
    n, events, days = (np.bincount(g, weights=w) for w in (None, ds.events, ds.times))
    return {
        label: {"n_patients": int(n[j]), "n_events": int(events[j]),
                "person_years": float(days[j] / 365.25)}
        for j, label in enumerate(labels)
    }


def _read_counts(path: str):
    """A counts CSV's ``count`` column and its ``exposure`` column (None when
    the file has none) as float arrays; each ``patient_id`` names one row.
    The rows go when this returns, before the NB fit loads scipy."""
    import numpy as np

    if not os.path.exists(path):
        raise MissingArtifactError(f"counts file not found: {path}")

    def count_row(row):
        count = int(row["count"])
        exposure = float(row["exposure"]) if "exposure" in row else None
        if count < 0:
            raise ValueError(f"count {row['count']!r} is negative")
        if exposure is not None and not 0 < exposure < math.inf:  # NaN too
            raise ValueError(f"exposure {row['exposure']!r} is not positive and finite")
        return count, exposure

    rows = read_csv(path, ("patient_id", "count"), count_row, key="patient_id")
    exposure = [e for _, e in rows if e is not None]
    return (np.array([count for count, _ in rows], dtype=float),
            np.array(exposure) if exposure else None)


@_stage("regression nb", writes=("nb.json",), options=(
    ("--counts-file", None, "CSV with columns patient_id, count, and optional exposure."),))
def regression_nb(cfg, counts_file):
    """Negative-binomial regression of per-patient counts; write nb.json."""
    import numpy as np

    from . import countreg

    counts, exposure = _read_counts(counts_file)
    fit = countreg.nb_fit(counts, np.zeros((len(counts), 0)), columns=[], exposure=exposure)
    out_path = cfg.artifact("nb.json")
    write_json(out_path, {"terms": list(fit.summary_rows()), "theta": fit.theta,
                          "loglik": fit.loglik, "aic": fit.aic})
    return f"regression nb: theta={fit.theta:.3g} AIC={fit.aic:.2f} -> {out_path}"


@_stage("ttest", writes=("ttest.json",), options=(("--a-file", None, "CSV with a value column."),
                                                  ("--b-file", None, "CSV with a value column.")))
def ttest(cfg, a_file, b_file):
    """Two-sided Welch t-test between two value files."""
    from . import countreg

    def value(row):
        x = float(row["value"])
        if not math.isfinite(x):
            raise ValueError(f"value {row['value']!r} is not finite")
        return x

    def read_values(path):
        if not os.path.exists(path):
            raise MissingArtifactError(f"value file not found: {path}")
        return read_csv(path, ("value",), value)

    result = countreg.ttest_welch(read_values(a_file), read_values(b_file))
    out_path = cfg.artifact("ttest.json")
    write_json(out_path, {"statistic": result.statistic, "df": result.df,
                          "p_value": result.p_value, "mean_a": result.mean_a,
                          "mean_b": result.mean_b})
    return (
        f"ttest: t={result.statistic:.3f} df={result.df:.1f} "
        f"p={result.p_value:.4g} -> {out_path}"
    )


@_stage("synth gen", writes=("notes.jsonl", "gold_relations.csv", "gold_events.csv",
                                    "registry.csv", "extracted_implants.csv"))
def synth_gen(cfg):
    """Generate a synthetic corpus with gold labels into the output dir."""
    from . import synth

    corpus = synth.gen_corpus(synth.SynthConfig(seed=cfg.params["seed"]))
    synth.write_corpus(corpus, cfg.output_dir)
    return (
        f"synth gen: {len(corpus.notes)} notes, {len(corpus.gold_relations)} gold "
        f"candidates -> {cfg.output_dir}"
    )


@_stage("report forest", writes=("forest.csv",))
def report_forest(cfg):
    """Format a Cox fit artifact as a forest-table CSV."""
    cox_path = _require(cfg, "cox.json")
    with open(cox_path, encoding="utf-8") as fh, parsing(cox_path):
        fit = json.load(fh)
        if not (isinstance(fit, dict) and isinstance(fit.get("groups", {}), dict)
                and isinstance(fit.get("terms", []), list)):
            raise TypeError("expected an object with a groups object and a terms list")
        terms = {t["term"]: t for t in fit.get("terms", [])}
        rows = []
        for system, g in sorted(fit.get("groups", {}).items()):
            term = terms.get(f"implant_system={system}")
            if term is None:
                stats = ["", "", "", ""]  # reference level
            else:
                stats = [f"{term['HR']:.3f}", f"{term['CI_low']:.3f}",
                         f"{term['CI_high']:.3f}", f"{term['p']:.4g}"]
            rows.append([system, g["n_patients"], g["n_events"],
                         f"{g['person_years']:.1f}", *stats])
    out_path = cfg.artifact("forest.csv")
    write_csv(out_path, ["system", "n_patients", "n_events", "person_years",
                         "HR", "CI_low", "CI_high", "p"], rows)
    return f"report forest: {len(rows)} rows -> {out_path}"


if __name__ == "__main__":
    main()
