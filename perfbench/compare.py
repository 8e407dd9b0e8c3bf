#!/usr/bin/env python3
"""
Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect --out A.jsonl [--workloads w1,w2] [--seeds 1-10]
    python3 perfbench/compare.py compare A.jsonl B.jsonl

`collect` runs perfbench/run.py once per workload and seed, one run at a
time, and appends one JSON line per run; by default it runs the workloads
of BENCHMARK.json. `compare` reports, for each workload and end-to-end
metric, each set's median and quartiles and whether the sets agree within
the bound that BENCHMARK.json fixes for that metric. A metric whose quartile
spread (Q3 - Q1) / median is wider than its bound in either set is reported
as unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(out: Path, workloads: list[str], seeds: list[int], seconds: int) -> None:
    with open(out, "a", encoding="utf-8") as fh:
        for seed in seeds:
            for name in workloads:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                fh.flush()
                print(name, seed, "ok" if result["correct"] else "FAILED", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def values_by_metric(path: Path) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        for metric, v in row["result"]["metrics"].items():
            out.setdefault((row["workload"], metric), []).append(v["value"])
    return out


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "agree"


def compare(path_a: Path, path_b: Path) -> list[dict]:
    bench = load_benchmark()
    a, b = values_by_metric(path_a), values_by_metric(path_b)
    rows = []
    # every workload in the runs, also those run by hand outside BENCHMARK.json
    for name in dict.fromkeys(w for w, _ in a):
        for m in bench["end_to_end"]:
            key = (name, m["name"])
            if key not in b:
                continue
            rows.append({
                "workload": name, "metric": m["name"], "bound": m["bound"],
                "a": quartiles(a[key]), "b": quartiles(b[key]),
                "spread_a": spread(a[key]), "spread_b": spread(b[key]),
                "verdict": verdict(a[key], b[key], m["bound"], m["better"]),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True, type=Path)
    c.add_argument("--workloads", default=None, help="comma-separated; default: all")
    c.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.cmd == "collect":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        collect(args.out, names, parse_seeds(args.seeds), bench["run_seconds"])
        return 0
    rows = compare(args.a, args.b)
    print(f"{'workload':12} {'metric':16} {'bound':>5}  {'A q1/med/q3':>30}  {'B q1/med/q3':>30}"
          f"  {'sprA':>5} {'sprB':>5}  verdict")
    for r in rows:
        fa = "/".join(f"{x:.4g}" for x in r["a"])
        fb = "/".join(f"{x:.4g}" for x in r["b"])
        print(f"{r['workload']:12} {r['metric']:16} {r['bound']:5.2f}  {fa:>30}  {fb:>30}"
              f"  {r['spread_a']:5.3f} {r['spread_b']:5.3f}  {r['verdict']}")
    return 0 if all(r["verdict"] in ("agree", "better") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
