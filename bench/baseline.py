"""Run every workload over a set of seeds and summarize the results.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload of ``BENCHMARK.json``, with its ``run_seconds``: one
untraced run per seed, reduced per end-to-end
metric to its median and quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median; then two traced runs on the first seed,
whose per-layer counts must repeat exactly.  The summary also records the
workload rationale and, for each per-layer metric, the end-to-end metric
and workloads it should move.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "bytes", "GFLOP", "MiB", "ratio")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    layer_map = {}
    for m in bench["per_layer"]:
        moves, on = layers.LAYER_METRICS[m["name"]]
        layer_map[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                "moves": moves, "on": list(on)}
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {},
               "layer_map": layer_map}
    for w in bench["workloads"]:
        wl = w["name"]
        runs = []
        for seed in args.seeds:
            runs.append(run_once(wl, seed, seconds, 0))
            print(wl, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = [run_once(wl, args.seeds[0], seconds, 1)
                  for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] in COUNT_UNITS}
                  for t in traced]
        summary["provenance"] = runs[0]["provenance"]
        summary["workloads"][wl] = {
            "why": w["why"],
            "correct": all(r["correct"] and t["correct"]
                           for r in runs for t in traced),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: summarize([r["metrics"][m]["value"]
                                         for r in runs])
                           for m in runs[0]["metrics"]},
            "per_layer": {k: v["value"]
                          for k, v in traced[0]["metrics"].items()},
            "counts_repeat": counts[0] == counts[1],
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n",
                            encoding="utf-8")
    for wl, s in summary["workloads"].items():
        spreads = {m: round(v["spread"], 4) for m, v in s["end_to_end"].items()}
        print(wl, "correct", s["correct"], "counts_repeat",
              s["counts_repeat"], "spreads", spreads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
