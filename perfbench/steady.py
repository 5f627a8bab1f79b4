#!/usr/bin/env python3
"""Steadiness check: run the benchmark over ten seeds, twice, and compare.

    python3 perfbench/steady.py --traced --out perfbench/baseline.json

Run from the root of a checkout.  For every workload in BENCHMARK.json and
each of two sets, it runs ``run.py --trace 0`` once per seed (seeds 1-10,
then 101-110), then reports for each end-to-end metric the median,
the quartile spread (q3 - q1) / median against the metric's bound, and how
far the second set's median moved from the first's in the worse direction.
It also pools the per-pass ``wall_s`` samples of a set, for the median and
the highest percentile that has at least ten samples beyond it.
Exit code 1 if any spread or any shift exceeds its bound, or any run was
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

HERE = os.path.dirname(os.path.abspath(__file__))
# Set k runs seeds SEEDS + 100k.
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("samples "):
            samples = json.loads(line[len("samples "):])
            blocks = samples.pop("calibration_s", [])
            if blocks:
                samples["calibration_mean_s"] = statistics.fmean(blocks)
            result["samples"] = samples
    return result


def spread(values: "list[float]") -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true",
                        help="also make one --trace 1 run per workload and record it")
    parser.add_argument("--out", help="write every run's metrics and the summary here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    record = {"run_seconds": bench["run_seconds"], "machine": {
        "python": sys.version.split()[0], "cpus": os.cpu_count()}, "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in SEEDS:
                seed += 100 * k
                started = time.monotonic()
                result = run_once(workload, seed, bench["run_seconds"])
                result["seed"] = seed
                result["run_s"] = time.monotonic() - started
                runs.append(result)
                ok = ok and result["correct"]
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()), flush=True)
            sets.append(runs)

        summary = {}
        for name, m in metrics.items():
            rows = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                rows.append({"median": statistics.median(values), "spread": spread(values)})
            shift = worse_by(rows[0]["median"], rows[1]["median"], m["better"])
            ok = ok and shift <= m["bound"] and all(r["spread"] <= m["bound"] for r in rows)
            summary[name] = {"bound": m["bound"], "unit": m["unit"], "sets": rows,
                             "second_worse_by": shift}
            line = "  ".join(f"median {r['median']:.6g} spread {r['spread']:.4f}" for r in rows)
            print(f"{workload:15s} {name:12s} bound {m['bound']:.2f} (third {m['bound'] / 3:.4f})  "
                  f"{line}  second worse by {shift:+.4f}")
        raw = [spread([statistics.median(r["samples"]["raw_wall_s"]) for r in runs]) for runs in sets]
        summary["raw_wall_s_spread"] = raw
        print(f"{workload:15s} wall_s before speed scaling: spread "
              + "  ".join(f"{x:.4f}" for x in raw))
        pooled = []
        for runs in sets:
            samples = [s for r in runs for s in r["samples"]["wall_s"]]
            high = run.tail(samples)
            pooled.append({
                "samples": len(samples),
                "median_s": statistics.median(samples),
                "tail": high and {"percentile": high[0], "value_s": high[1]},
            })
            print(f"{workload:15s} wall_s pooled over {len(samples)} passes: "
                  f"median {pooled[-1]['median_s']:.4f} s, tail {pooled[-1]['tail']}")
        record["workloads"][workload] = {"summary": summary, "wall_s_pooled": pooled,
                                         "runs": sets}
        if args.traced:
            traced = run_once(workload, SEEDS[0], bench["run_seconds"], trace=1)
            ok = ok and traced["correct"]
            record["workloads"][workload]["traced"] = traced
            for name, m in traced["metrics"].items():
                print(f"{workload:15s} {name:26s} {m['value']:.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
