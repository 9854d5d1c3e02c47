"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload dc_sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports starkres from ``src/`` and
runs the workload in a closed loop (one caller, one call at a time) until
``--seconds`` have passed and at least two iterations are done, checking
every output.  ``STARKRES_THREADS`` is removed from the environment, so
the program uses one worker; BLAS keeps its default thread count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: ``wall_s`` (median iteration time),
``setup_s`` (median over fresh processes of importing starkres and
building the inputs) and ``peak_rss_mb``.  With ``--trace 1`` every
iteration is traced, and the metrics are the per-layer ones of
``layers.py``, medians over the iterations.  Units come from
``BENCHMARK.json``.  The line before the result is the provenance record.
Spans and per-iteration samples are written to ``.bench_work/`` under the
root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
MIN_ITERATIONS = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("dc_sweep", "ac_track", "f_scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_samples(workload: str, seed: int) -> list[float]:
    """Import-and-build time, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def iterate(wl, inputs, out_dir: Path) -> tuple[float, list[list[str]]]:
    """One timed call of the workload, then its output check."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        result = wl.execute(inputs)
    except Exception as exc:   # the run failed: every operation failed
        wall = time.perf_counter() - t0
        return wall, [[f"{type(exc).__name__}: {exc}"]] * wl.operations
    wall = time.perf_counter() - t0
    try:
        problems = wl.check(inputs, result)
    except Exception as exc:   # unreadable output fails every operation
        problems = [[f"check: {type(exc).__name__}: {exc}"]] * wl.operations
    return wall, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starkres" / "__init__.py").is_file():
        print(f"no starkres sources under {SRC}", file=sys.stderr)
        return 2
    threads = os.environ.pop("STARKRES_THREADS", None)
    sys.path.insert(0, str(SRC))
    import starkres
    if Path(starkres.__file__).resolve().parent != (SRC / "starkres").resolve():
        print(f"starkres imported from {starkres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import layers
    import provenance
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    out_dir = WORK / wl.name
    setup = setup_samples(wl.name, args.seed)
    inputs = wl.build(args.seed, out_dir)

    tracer = spans.Tracer()
    span_cost = spans.span_cost() if args.trace else 0.0
    walls, layer_samples = [], []
    attempted = failed = 0
    problems_seen = []
    start = time.perf_counter()
    i = 0
    while True:
        if args.trace:
            tracer.run_id = i
            with spans.instrument(tracer):
                wall, problems = iterate(wl, inputs, out_dir)
            layer_samples.append(
                layers.layer_metrics(tracer.of_run(i), span_cost))
        else:
            wall, problems = iterate(wl, inputs, out_dir)
        walls.append(wall)
        attempted += len(problems)
        failed += sum(1 for p in problems if p)
        for p in (p for p in problems if p):
            problems_seen.append(p)
            print(f"iteration {i}: failed operation: {'; '.join(p)}",
                  file=sys.stderr)
        print(f"iteration {i}: {wall:.4f} s", file=sys.stderr)
        i += 1
        if i >= MIN_ITERATIONS and time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        values = layers.median_metrics(layer_samples)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    prov = provenance.record(ROOT, wl.name, args.seed, threads)
    record = {"provenance": prov, "setup_s": setup, "wall_s": walls,
              "layer_samples": layer_samples, "problems": problems_seen,
              "metrics": metrics}
    if args.trace:
        record["span_cost_s"] = span_cost
        record["spans"] = tracer.to_records()
    name = f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
