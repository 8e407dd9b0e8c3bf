#!/usr/bin/env python3
"""
The garside benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from ./src, and
nothing else is needed beyond the standard library. Workloads: word-stream,
conjugacy, construct, cli (see perfbench/README.md).

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, which wraps the public functions of every garside module at run
time and writes its spans to .bench_out/. Every answer is checked against
reference models that do not use the library; a wrong answer or an exception
counts as a failed op. End-to-end times are in reference seconds (see
pace.py); the times as measured are printed to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

LAYER_MODULES = ["germ", "builtins", "words", "conjugacy", "divided", "periodic", "nerve", "cli"]
SELF_TIMES = [
    "germ.parse_germ", "germ.make_table", "germ.validate", "builtins.build",
    "words.normal_form", "words.multiply", "words.invert", "words.parse_word",
    "conjugacy.to_summit", "conjugacy.summit_set", "conjugacy.are_conjugate",
    "conjugacy.fixed_subgerm", "divided.build_divided_germ", "divided.theta_morphism",
    "periodic.classify_periodic", "periodic.find_bestvina_form", "periodic.necklace_conjugator",
    "nerve.cover_ball", "nerve.garside_dimension", "cli.main",
]
CALLS = [
    "germ.make_table", "germ.validate", "words.normal_form", "words.multiply",
    "words.invert", "words.parse_word", "conjugacy.to_summit", "conjugacy.summit_set",
    "divided.build_divided_germ",
]
COUNTS = [
    "germ.validate.simples", "germ.validate.products", "words.multiply.factors_in",
    "conjugacy.to_summit.conjugations", "conjugacy.summit_set.conjugations",
    "conjugacy.summit_set.summits", "divided.build_divided_germ.simples",
    "nerve.cover_ball.vertices",
]


def per_layer_units() -> dict[str, str]:
    units = {f"{m}.self_s": "s" for m in LAYER_MODULES}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({n: "count" for n in COUNTS})
    units["conjugacy.summit_set.yield"] = "frac"
    units.update({"cli.import_s": "s", "cli.process_overhead_s": "s",
                  "trace.overhead_frac": "frac", "trace.wall_s": "s", "bench.self_s": "s"})
    return units


PER_LAYER = per_layer_units()


class Missing(Exception):
    """The checkout does not hold the library."""


def locate_library() -> None:
    if not (SRC / "garside" / "__init__.py").is_file():
        raise Missing(f"no garside package under {SRC}")
    sys.path.insert(0, str(SRC))
    import garside

    if Path(garside.__file__).resolve().parent != SRC / "garside":
        raise Missing(f"garside imported from {garside.__file__}, not from {SRC}")


def child_numbers(argv: list[str]) -> list[float]:
    """The numbers a fresh interpreter prints on its last line."""
    from workloads import child_env

    out = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return [float(x) for x in out.stdout.strip().splitlines()[-1].split()]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Round:
    def __init__(self, ops, results, latencies, wall, probes):
        self.ops, self.results, self.latencies, self.wall = ops, results, latencies, wall
        self.attempted = len(ops)
        self.probes = probes
        self.scaled = list(latencies)   # reference seconds when paced, else as measured
        if probes:
            # an op's pace is probed by the process that did the work: a request
            # process probes itself, else this one probed around the op
            for i, r in enumerate(results):
                own = getattr(r, "probes", None)
                self.scaled[i] = pace.scale(latencies[i], pace.median(own) if own
                                            else pace.around(probes, i))
        self.slots = [op.slot for op in ops]
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0

    def check(self, workload) -> "Round":
        """Check the answers, then drop them so memory stays flat across rounds.

        Called with the tracer uninstalled.
        """
        self.errors = check_round(self.ops, self.results)
        self.peak_rss_mb = workload.peak_rss_mb(self.results)
        self.ops = self.results = None
        return self


def run_round(ops, tracer=None, paced=False) -> Round:
    """Run the ops one after the other. A paced round also probes the
    machine's pace before the first op and after every op, outside their times."""
    from workloads import OpError

    results, latencies = [], []
    probes = [pace.probe()] if paced else []
    clock = time.perf_counter
    t_round = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            r = op.run(results)
        except Exception as exc:  # any exception is a failed op, never a crash
            r = OpError(exc)
        # less the pace probes a request process ran inside the measured time
        latencies.append(clock() - t0 - sum(getattr(r, "probes", ())))
        results.append(r)
        if paced:
            probes.append(pace.probe())
    wall = clock() - t_round
    return Round(ops, results, latencies, wall, probes)


def check_round(ops, results) -> list[str]:
    from workloads import OpError

    errors = []
    for op, r in zip(ops, results):
        if isinstance(r, OpError):
            errors.append(f"{op.kind}: {r!r}")
            continue
        try:
            msg = op.check(r, results)
        except Exception as exc:  # a checker crash on a wrong answer is a failure
            msg = f"checker raised {exc!r}"
        if msg:
            errors.append(f"{op.kind}: {msg}")
    return errors


def paced_setup(argv: list[str]) -> tuple[float, float]:
    """(seconds as measured, the pace around them) of one set-up interpreter,
    which probes its own pace."""
    seconds, *probes = child_numbers(argv)
    return seconds, pace.median(probes)


def time_metrics(setups: list[tuple[float, float]], rounds: list[Round], tail_pct: float,
                 scaled: bool) -> dict:
    """setup_s is the median set-up; wall_s sums each slot's median time across
    rounds; the latencies pool every op of every round."""
    setup = [pace.scale(s, p) if scaled else s for s, p in setups]
    lat = [r.scaled if scaled else r.latencies for r in rounds]
    by_slot: dict[int, list[float]] = {}
    for r, ts in zip(rounds, lat):
        for slot, t in zip(r.slots, ts):
            by_slot.setdefault(slot, []).append(t)
    lat_ms = [x * 1000 for ts in lat for x in ts]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(ts) for ts in by_slot.values()),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, tail_pct),
    }


def untraced(workload, seconds: float, seed: int) -> tuple[list[Round], dict]:
    """Paced rounds until `seconds` of them are measured, with the set-ups in between.

    Other load on a shared machine slows everything down by up to 1.6x, for
    milliseconds and sometimes tens of minutes at a time; the times are
    scaled to reference seconds by the pace measured around them (pace.py),
    and the medians over rounds and over the set-ups spread across the run
    ride out what the scaling leaves.
    """
    setup_argv = [str(HERE / "setup_child.py"), workload.name, str(seed)]
    setups: list[tuple[float, float]] = []
    rounds: list[Round] = []
    measured = 0.0
    while (len(rounds) < workload.min_rounds
           or (rounds and measured + rounds[-1].wall <= seconds)):
        if len(setups) < SETUP_REPEATS:
            setups.append(paced_setup(setup_argv))
        rounds.append(run_round(workload.plan(), paced=True).check(workload))
        measured += rounds[-1].wall
    while len(setups) < SETUP_REPEATS:
        setups.append(paced_setup(setup_argv))
    args = (setups, rounds, workload.tail_pct)
    raw = time_metrics(*args, scaled=False)
    probes = [p for r in rounds for p in r.probes] + [p for _, p in setups]
    print("as measured: " + json.dumps({**raw, "probe_median_s": statistics.median(probes)}),
          file=sys.stderr)
    return rounds, {**time_metrics(*args, scaled=True),
                    "peak_rss_mb": max(r.peak_rss_mb for r in rounds)}


def traced(workload, seconds: float) -> tuple[list[Round], dict]:
    """Each round runs untraced, then traced on the same inputs."""
    from tracer import Tracer
    from workloads import OUT_DIR, Cli

    tr = Tracer()
    tr.install()
    t0 = time.perf_counter()
    workload.setup()
    setup_wall = time.perf_counter() - t0
    tr.uninstall()
    workload.prepare()

    rounds: list[Round] = []
    wall_u = wall_t = last_pair = harness = 0.0
    sub_s: list[float] = []
    main_s: list[float] = []
    while not rounds or wall_u + wall_t + last_pair <= seconds:
        if workload.name == "cli":
            reqs = workload.requests()
            sub = run_round(Cli.ops(reqs, in_process=False)).check(workload)
            sub_s += sub.latencies
            rounds.append(sub)
            ops = Cli.ops(reqs, in_process=True)
        else:
            ops = workload.plan()
        plain = run_round(ops).check(workload)
        main_s += plain.latencies
        tr.install()
        try:
            with_trace = run_round(ops, tr)
        finally:
            tr.uninstall()
        rounds += [plain, with_trace.check(workload)]
        wall_u += plain.wall
        wall_t += with_trace.wall
        # the harness's own share of a traced round: the loop around the ops
        harness += with_trace.wall - sum(with_trace.latencies)
        last_pair = plain.wall + with_trace.wall
    tr.dump(OUT_DIR / f"trace-{workload.name}")

    m: dict[str, float] = {}
    for mod in LAYER_MODULES:
        m[f"{mod}.self_s"] = tr.module_self_s(mod)
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = tr.self_s.get(name, 0.0)
    for name in CALLS:
        m[f"{name}.calls"] = tr.calls.get(name, 0)
    for name in COUNTS:
        m[name] = tr.counts.get(name, 0)
    conj = m["conjugacy.summit_set.conjugations"]
    m["conjugacy.summit_set.yield"] = m["conjugacy.summit_set.summits"] / conj if conj else 0.0
    import_argv = ["-c", "import time; t = time.perf_counter(); import garside.cli; "
                         "print(repr(time.perf_counter() - t))"]
    m["cli.import_s"] = statistics.median(child_numbers(import_argv)[0]
                                          for _ in range(IMPORT_REPEATS))
    m["cli.process_overhead_s"] = (
        statistics.median(sub_s) - statistics.median(main_s) if sub_s else 0.0)
    m["trace.overhead_frac"] = wall_t / wall_u - 1
    m["trace.wall_s"] = setup_wall + wall_t
    m["bench.self_s"] = harness
    return rounds, m


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from workloads import WORKLOADS

    workload = workload or WORKLOADS[name](seed)
    if trace:
        rounds, metrics = traced(workload, seconds)
        units = PER_LAYER
    else:
        workload.setup()
        workload.prepare()
        rounds, metrics = untraced(workload, seconds, seed)
        units = END_TO_END
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"failed: {e}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    if not trace:
        metrics["ok_frac"] = 1 - len(errors) / attempted
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["word-stream", "conjugacy", "construct", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        locate_library()
    except Missing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
