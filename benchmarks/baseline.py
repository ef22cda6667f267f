"""Run the benchmark over several seeds and summarise its spread.

    python3 benchmarks/baseline.py --seeds 1-10 --out BENCH.json

For each workload it runs ``bench.py`` untraced once per seed and traced
once (first seed), one process at a time, each with the ``run_seconds``
of ``BENCHMARK.json``. Per end-to-end metric it gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound. It also
checks that every run printed exactly the metrics ``BENCHMARK.json``
declares, with their units, and that every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace, report):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                             "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared or set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} seed {seed}: result does not match BENCHMARK.json")
    with open(report, encoding="utf-8") as fh:
        return result, json.load(fh)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)), "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)
    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            runs, reports = [], []
            for seed in seeds:
                result, report = run_once(spec, workload, seed, 0, Path(tmp) / "r.json")
                runs.append(result)
                reports.append(report)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"pipeline_s={result['metrics']['pipeline_s']['value']:.3f} "
                      f"steal={report['samples'].get('host_cpu_steal_share', 0):.3f}",
                      file=sys.stderr, flush=True)
            entry = {
                "provenance": report["provenance"],
                "computed_work": report["computed_work"],
                "all_correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "extra": {key: spread([r["extra"][key] for r in reports])
                          for key in report["extra"]},
                "samples_last_run": report["samples"],
                "end_to_end": {},
            }
            for name, bound in bounds.items():
                s = spread([r["metrics"][name]["value"] for r in runs])
                s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound,
                         within_bound=s["spread"] <= bound,
                         within_third=s["spread"] <= bound / 3)
                entry["end_to_end"][name] = s
            _, traced = run_once(spec, workload, seeds[0], 1, Path(tmp) / "t.json")
            entry["traced"] = {key: traced[key] for key in (
                "seed", "per_layer", "step_split_ms", "end_to_end_of_untraced_passes",
                "samples", "extra", "checks", "fail_ratio")}
            doc["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["within_third"] else ("WITHIN BOUND" if s["within_bound"] else "OVER")
            print(f"{workload:11s} {name:24s} median {s['median']:.6g} {s['unit']:9s} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
