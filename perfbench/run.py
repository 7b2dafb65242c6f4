#!/usr/bin/env python3
"""devicesurv benchmark: seeded workloads run through the ``devicesurv`` CLI.

    python3 perfbench/run.py --workload cli_small --seed 0 --seconds 30 --trace 0

Run from a source checkout (the program is imported from ``src/``). One
invocation generates the workload's inputs from the seed (untimed), then runs
jobs in a closed loop -- each CLI command starts when the previous one has
exited -- for about ``--seconds`` seconds, and checks every job's artifacts
against the generator's truth. The first invocation per workload in a
checkout first runs one unrecorded warm-up job.

``--trace 0`` reports the end-to-end metrics: medians over the jobs of wall
time, child CPU time and the largest child peak RSS per job, plus ``setup_s``,
the median start-up time of a fresh process that imports the CLI and loads
its default resources. ``--trace 1`` alternates untraced jobs with jobs whose
commands run under ``trace_stage.py`` and reports the per-layer metrics.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each CLI command and
each output check counts as one attempted operation. The full record, with
the environment, every job and every check, goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACE_RUNNER = os.path.join(HERE, "trace_stage.py")

WORKLOADS = ("cli_small", "cli_dense", "surveillance")
SETUP_SAMPLES = 3
# What an installed `devicesurv` console script runs.
CLI_ENTRY = "import sys; from devicesurv.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import devicesurv.cli\n"
    "from devicesurv.defaults import default_dictionaries, default_trigger_lexicon, "
    "load_implant_catalog\n"
    "default_dictionaries(); default_trigger_lexicon(); load_implant_catalog()\n"
)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log_path: str) -> dict:
    """Run one child to completion; wall time, and CPU time and peak RSS from
    the child's own rusage (os.wait4)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def stage_name(command: list[str]) -> str:
    return "_".join(command[:command.index("--config")])


def reset_output(job) -> None:
    out = os.path.join(job.directory, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for name in job.out_inputs:
        shutil.copy(os.path.join(job.directory, name), os.path.join(out, name))


def run_job(job, workloads, run_id: str, traced: bool) -> dict:
    """Run the job's commands in order, then its checks."""
    reset_output(job)
    trace_dir = os.path.join(job.directory, "trace", run_id)
    if traced:
        os.makedirs(trace_dir)
    log = os.path.join(job.directory, "commands.log")
    stages, failed_cmds, spans = [], 0, []
    for i, command in enumerate(job.commands):
        if failed_cmds:
            failed_cmds += 1  # not run: an earlier command failed
            continue
        if traced:
            span_path = os.path.join(trace_dir, f"{i:02d}.json")
            argv = [sys.executable, TRACE_RUNNER, span_path, run_id, "--", *command]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *command]
        rec = spawn(argv, log)
        rec["stage"] = stage_name(command)
        stages.append(rec)
        if rec["returncode"] != 0:
            failed_cmds += 1
        elif traced:
            with open(span_path, encoding="utf-8") as fh:
                spans.append({**json.load(fh), "process_wall_s": rec["wall_s"]})
    checks = workloads.run_checks(job)
    return {
        "run_id": run_id,
        "traced": traced,
        "stages": stages,
        "spans": spans,
        "checks": checks,
        "attempted": len(job.commands) + len(checks),
        "failed": failed_cmds + sum(not ok for _, ok, _ in checks),
        "wall_s": sum(s["wall_s"] for s in stages),
        "cpu_s": sum(s["cpu_s"] for s in stages),
        "peak_rss_mb": max((s["peak_rss_mb"] for s in stages), default=0.0),
    }


def measure_setup(job) -> list[float]:
    log = os.path.join(job.directory, "setup.log")
    return [spawn([sys.executable, "-c", SETUP_PROBE], log)["wall_s"]
            for _ in range(SETUP_SAMPLES)]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
    }


def timed_loop(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while the next call, taking as
    long as the last, would end less than half a call past ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if now - start + 0.5 * (now - t0) > seconds:
            return results


def warm_up(job, workloads) -> None:
    """One unrecorded job per workload and checkout fills the bytecode and
    file caches; they persist across runs, as they do for an installed user."""
    marker = os.path.join(WORK, f"warm-{job.workload}")
    if not os.path.exists(marker) and run_job(job, workloads, "warmup", False)["failed"] == 0:
        open(marker, "w").close()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workloads) -> dict:
    directory = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        job = workloads.MAKERS[workload](directory, seed)
        warm_up(job, workloads)
        setup = [] if trace else measure_setup(job)
        if trace:
            pairs = timed_loop(seconds, lambda i: (
                run_job(job, workloads, f"{workload}-{seed}-u{i}", traced=False),
                run_job(job, workloads, f"{workload}-{seed}-t{i}", traced=True)))
            jobs = [j for pair in pairs for j in pair]
        else:
            jobs = timed_loop(seconds, lambda i: run_job(
                job, workloads, f"{workload}-{seed}-{i}", traced=False))
        values = layer_metrics(job, jobs) if trace else end_to_end_metrics(jobs, setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"workload": workload, "seed": seed, "metrics": values, "jobs": [
        {k: v for k, v in j.items() if k != "spans"} for j in jobs], "setup_s": setup}


def end_to_end_metrics(jobs: list[dict], setup: list[float]) -> dict:
    out = {m: statistics.median(j[m] for j in jobs) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = statistics.median(setup)
    return out


def layer_metrics(job, jobs: list[dict]) -> dict:
    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    out = {m: 0.0 for m in metrics.STAGE_METRICS}
    stage_walls = [{f"cli.{s['stage']}_s": s["wall_s"] for s in j["stages"]} for j in untraced]
    for m in stage_walls[0]:
        out[m] = statistics.median(w.get(m, 0.0) for w in stage_walls)
    per_job = [metrics.job_layer_metrics(j["spans"], job.n_notes, job.n_candidates)
               for j in traced]
    for m in per_job[0]:
        out[m] = statistics.median(p[m] for p in per_job)
    base = statistics.median(j["wall_s"] for j in untraced)
    out["trace.overhead_frac"] = statistics.median(j["wall_s"] for j in traced) / base - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "devicesurv", "cli.py")):
        print(f"error: no devicesurv source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), workloads)
               for w in names]
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(j["attempted"] for r in results for j in r["jobs"])
    failed = sum(j["failed"] for r in results for j in r["jobs"])

    print("environment: " + json.dumps(env, sort_keys=True))
    for r in results:
        print(f"[{r['workload']} seed={r['seed']}] {len(r['jobs'])} jobs")
        for j in r["jobs"]:
            bad = [f"{name}: {detail}" for name, ok, detail in j["checks"] if not ok]
            print(f"  {j['run_id']}: wall {j['wall_s']:.3f} s, "
                  f"{j['failed']}/{j['attempted']} failed" + (f" -- {bad}" if bad else ""))
        for name, value in r["metrics"].items():
            print(f"  {name} = {value:.6g} {metrics.unit_of(name)}")
    print(f"failure share: {failed}/{attempted} = {failed / attempted:.4f}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "results": results}, fh, indent=1)

    prefix = len(results) > 1
    reported = {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": metrics.unit_of(k)}
                for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
