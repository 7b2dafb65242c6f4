"""Tiny-size self-test of the benchmark itself.

    python3 -m pytest perfbench -q

Checks that the generators are deterministic for a seed, that every output
check fails on a deliberately corrupted artifact, that a traced job's layer
self times and ``cli.self_s`` add up to its wall time, and that BENCHMARK.json
lists exactly the metrics the benchmark reports.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from devicesurv import cli  # noqa: E402

TINY = {
    "cli_small": lambda d, seed: workloads.make_cli_small(d, seed, n_patients=15),
    "cli_dense": lambda d, seed: workloads.make_cli_dense(d, seed, n_notes=40),
    "surveillance": lambda d, seed: workloads.make_surveillance(d, seed, n_subjects=3000),
}


def _inputs(directory):
    """Every generated file but the config, which names its own directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and name != "project.json":
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generators_are_deterministic(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    jobs = [TINY[workload](str(d), seed) for d, seed in zip(dirs, (7, 7, 8))]
    a, b, c = (_inputs(str(d)) for d in dirs)
    assert a == b and a != c
    assert jobs[0].truth == jobs[1].truth


def _run_in_process(job):
    run.reset_output(job)
    for command in job.commands:
        try:
            cli.main(args=command, standalone_mode=False)
        except SystemExit as exc:
            assert not exc.code, command


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _flip_labels(rows):
    for r in rows:
        r["predicted_label"] = str(1 - int(r["predicted_label"]))
    return rows


def _bump_fn(rows):
    rows[0]["fn"] = str(int(rows[0]["fn"]) + 5)
    return rows


def _shift_hr(fit):
    for t in fit["terms"]:
        if t["term"] == "cci=high":
            t["HR"], t["CI_low"], t["CI_high"] = 6.0, 5.0, 7.0


def _lose_agreement(summary):
    summary["counts"]["agreement"] -= 1


# check -> (artifact under out/, corruption)
CORRUPTIONS = {
    "scored": ("scores.csv", lambda p: _rewrite_csv(p, lambda rows: rows[1:])),
    "f1": ("scores.csv", lambda p: _rewrite_csv(p, _flip_labels)),
    "eval": ("metrics.csv", lambda p: _rewrite_csv(p, _bump_fn)),
    "events": ("merged_events.csv", lambda p: _rewrite_csv(p, lambda rows: rows[:-1])),
    "cox": ("cox.json", lambda p: _edit_json(p, _shift_hr)),
    "logrank": ("logrank.json", lambda p: _edit_json(p, lambda f: f.update(p_value=0.5))),
    "reconcile": ("reconciliation_summary.json", lambda p: _edit_json(p, _lose_agreement)),
    "nb": ("nb.json", lambda p: _edit_json(p, lambda f: f.update(theta=2 * f["theta"]))),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_each_check_fails_on_a_corrupted_artifact(workload, tmp_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    job = TINY[workload](str(clean), 0)
    _run_in_process(job)
    results = workloads.run_checks(job)
    assert all(ok for _, ok, _ in results), results
    for name, _, _ in results:
        artifact, corrupt = CORRUPTIONS[name]
        broken = tmp_path / f"broken-{name}"
        shutil.copytree(clean, broken)
        job.directory = str(broken)
        corrupt(str(broken / "out" / artifact))
        verdict = {n: ok for n, ok, _ in workloads.run_checks(job)}
        assert verdict[name] is False, name
    job.directory = str(tmp_path / "missing")
    assert not any(ok for _, ok, _ in workloads.run_checks(job))


@pytest.mark.parametrize("workload", ["cli_dense", "surveillance"])
def test_traced_self_times_account_for_stage_wall_time(workload, tmp_path):
    job = TINY[workload](str(tmp_path), 0)
    rec = run.run_job(job, workloads, "selftest", traced=True)
    assert rec["failed"] == 0, rec["checks"]
    assert len(rec["spans"]) == len(job.commands)
    for stage, spans in zip(rec["stages"], rec["spans"]):
        root = spans["spans"][0]
        assert root[0] == "cli.stage" and root[3] == -1
        assert sum(metrics.self_times(spans["spans"])) == pytest.approx(root[2] - root[1], abs=1e-9)
        assert 0 < root[2] - root[1] <= stage["wall_s"]
    layers = metrics.job_layer_metrics(rec["spans"], job.n_notes, job.n_candidates)
    assert sum(layers[m] for m in metrics.SELF_TIME) == pytest.approx(rec["wall_s"], abs=1e-6)
    busy = ("extraction.tag_s", "classifier.train_s") if workload == "cli_dense" else (
        "survival.cox_s", "reconcile.match_s")
    assert all(layers[m] > 0 for m in busy + ("cli.import_s", "cli.self_s"))


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert bench["per_layer"] == metrics.per_layer_metrics()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
