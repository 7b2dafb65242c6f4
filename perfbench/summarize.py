#!/usr/bin/env python3
"""Summarize benchmark result files into medians, quartiles and spreads.

    python3 perfbench/summarize.py [RESULT_JSON ...] [--out FILE]

Reads the result files ``run.py`` leaves in ``.bench_work/results/`` (all of
them when none are named). For every workload and metric it reports the
number of runs, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, which BENCHMARK.json bounds. Traced results
also get the sanity facts the benchmark is meant to show.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".bench_work", "results")


def load(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for result in payload["results"]:
            runs.append({"environment": payload["environment"], **result})
    return runs


def describe(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def sanity(workload, layer):
    """The facts that show the benchmark measures what it claims."""
    facts = {}
    module_times = {k: v for k, v in layer.items() if k.endswith("_s") and
                    not k.startswith("cli.")}
    if workload in ("cli_small", "cli_dense"):
        facts["extraction.passes == 4.0"] = layer["extraction.passes"] == 4.0
        facts["classifier.active_col_frac < 0.01"] = layer["classifier.active_col_frac"] < 0.01
    if workload == "cli_small":
        stage_wall = sum(v for k, v in layer.items() if k.startswith("cli.") and
                         k not in ("cli.import_s", "cli.self_s"))
        facts["cli.import_s >= half of the stages' wall time"] = (
            layer["cli.import_s"] >= 0.5 * stage_wall)
    if workload == "cli_dense":
        facts["classifier.train_s is the largest module-layer self time"] = (
            max(module_times, key=module_times.get) == "classifier.train_s")
    return facts


def summarize(runs):
    out = {}
    for run in runs:
        key = "trace" if any(k.startswith("cli.") for k in run["metrics"]) else "end_to_end"
        entry = out.setdefault(run["workload"], {}).setdefault(key, {"seeds": [], "values": {}})
        entry["seeds"].append(run["seed"])
        for name, value in run["metrics"].items():
            entry["values"].setdefault(name, []).append(value)
    for workload, kinds in out.items():
        for key, entry in kinds.items():
            entry["metrics"] = {m: describe(v) for m, v in entry.pop("values").items()}
            if key == "trace":
                entry["sanity"] = sanity(workload, {m: d["median"] for m, d in
                                                    entry["metrics"].items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="*")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    runs = load(args.results or sorted(glob.glob(os.path.join(RESULTS, "*.json"))))
    summary = summarize(runs)
    for workload, kinds in summary.items():
        for key, entry in kinds.items():
            print(f"[{workload} {key}] seeds {entry['seeds']}")
            for m, d in entry["metrics"].items():
                print(f"  {m:40s} median {d['median']:<12.6g} q1 {d['q1']:<12.6g} "
                      f"q3 {d['q3']:<12.6g} spread {d['spread']:.4f}")
            for fact, ok in entry.get("sanity", {}).items():
                print(f"  sanity: {fact}: {ok}")
    if args.out:
        env = runs[0]["environment"] if runs else {}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
