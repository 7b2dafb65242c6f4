#!/usr/bin/env python3
"""Run the full extraction pipeline on a generated synthetic corpus.

Generates notes with known gold labels, then drives the CLI stage by stage
(candidates -> lf apply -> lf stats -> labelmodel fit -> train -> predict ->
eval) and prints the resulting metrics. Useful as a smoke test and as a
worked example of the project-config layout.

Usage:
    python3 scripts/run_synth_pipeline.py --outdir /tmp/synthrun --seed 0
"""

import argparse
import json
import os
import subprocess
import sys


def run(cmd):
    print("+", " ".join(cmd))
    subprocess.run(cmd, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", required=True, help="Working directory for artifacts.")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    config_path = os.path.join(args.outdir, "project.json")

    # Stage 0: generate the corpus into the output directory.
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"output_dir": args.outdir, "params": {"seed": args.seed}}, fh, indent=2)
    run([sys.executable, "-m", "devicesurv.cli", "synth", "gen", "--config", config_path])

    # Stages 1-7: the extraction pipeline against the generated files.
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "output_dir": args.outdir,
                "paths": {
                    "notes": os.path.join(args.outdir, "notes.jsonl"),
                    "gold_relations": os.path.join(args.outdir, "gold_relations.csv"),
                    "dev_gold": os.path.join(args.outdir, "gold_relations.csv"),
                },
                "params": {"lf_set": "benchmark", "seed": args.seed},
            },
            fh,
            indent=2,
        )
    for stage in (["candidates"], ["lf", "apply"], ["lf", "stats"], ["labelmodel", "fit"],
                  ["train"], ["predict"], ["eval"]):
        run([sys.executable, "-m", "devicesurv.cli", *stage, "--config", config_path])

    with open(os.path.join(args.outdir, "metrics.csv"), encoding="utf-8") as fh:
        print("\nfinal metrics:")
        print(fh.read())


if __name__ == "__main__":
    main()
