"""
Tests of the benchmark itself:

    python3 -m pytest -q perfbench/test_perfbench.py

Tiny runs of every workload must report every metric with no failed op, one
untimed round of every full-size workload must be answered correctly, and a
planted wrong expectation must be counted as a failure.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_library()

import compare  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from garside import builtins, divided, validate  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# class attributes that size each workload -> the small values the tiny runs use
TINY = {
    "word-stream": {"LENGTHS": (8, 24), "PER_STRATUM": 1},
    "conjugacy": {"BRAID_LOOPS": 1, "CHAMBER_LOOPS": 2, "ATOMS": (4, 6),
                  "CONJUGATOR_ATOMS": (1, 3)},
    "construct": {"CHAIN_SIMPLES": 12,
                  "JOBS": ["validate dual5", "validate chain", "divide dual4 m3",
                           "classify artin4 3/2", "is_periodic A2 4/3", "find_bestvina_form A2",
                           "necklace_conjugator A2", "cover_ball dual4 r2"]},
    "cli": {"KINDS": [("nf", "a2"), ("isconj", "artin3"), ("isconj", "dual4"),
                      ("zpoly", "a2")]},
}


@pytest.fixture
def tiny(monkeypatch):
    def make(name: str, **sizes):
        cls = W.WORKLOADS[name]
        for attr, value in {**TINY[name], **sizes}.items():
            monkeypatch.setattr(cls, attr, value)
        return cls(7)
    return make


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_run_reports_every_metric(name, tiny):
    result = run.run(name, 7, 0, trace=False, workload=tiny(name))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_traced_run_accounts_for_its_wall_time(name, tiny):
    result = run.run(name, 7, 0, trace=True, workload=tiny(name))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert result["failed"] == 0
    # bench.self_s is timed by the harness, not derived from the spans: what
    # neither covers is glue inside ops and set-up, and must stay small
    layers = sum(m[f"{mod}.self_s"] for mod in run.LAYER_MODULES)
    unaccounted = m["trace.wall_s"] - layers - m["bench.self_s"]
    assert abs(unaccounted) < 0.05 * m["trace.wall_s"]
    assert m["germ.validate.calls"] > 0 and m["cli.import_s"] > 0


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_full_size_round_is_answered_correctly(name):
    workload = W.WORKLOADS[name](3)
    workload.setup()
    workload.prepare()
    if name == "cli":
        ops = W.Cli.ops(workload.requests(), in_process=True)
    else:
        ops = workload.plan()
    assert sorted(op.slot for op in ops) == list(range(workload.slots))
    assert run.run_round(ops).check(workload).errors == []


def test_planted_wrong_fact_counts_as_failure(monkeypatch, tiny):
    monkeypatch.setitem(ref.FACTS, "dual5.simples", (43, "planted wrong value"))
    result = run.run("construct", 7, 0, trace=False,
                     workload=tiny("construct", JOBS=["validate dual5", "validate chain"]))
    # one failure in each round
    assert 2 * result["failed"] == result["attempted"] and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_planted_wrong_reference_fails_word_ops(monkeypatch, tiny):
    true_mul = W.mul_summary

    def off_by_one(a, b):
        perm, length, src, tgt = true_mul(a, b)
        return perm, length + 1, src, tgt

    monkeypatch.setattr(W, "mul_summary", off_by_one)
    workload = tiny("word-stream")
    result = run.run("word-stream", 7, 0, trace=False, workload=workload)
    rounds = result["attempted"] // workload.slots
    # one multiply per (germ, length) stratum and round
    assert result["failed"] == len(workload.LENGTHS) * workload.GERMS * rounds


def test_planted_wrong_cli_fact_counts_as_failure(monkeypatch, tiny):
    monkeypatch.setitem(ref.FACTS, "a2.zpoly", ("1 5 6 2 1", "planted wrong value"))
    result = run.run("cli", 7, 0, trace=False, workload=tiny("cli", KINDS=[("zpoly", "a2")]))
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("family,n,model", [
    ("artin_symmetric", 4, ref.ArtinModel(4)),
    ("dual_braid", 4, ref.DualModel(4)),
])
def test_reference_permutations_are_a_functor(family, n, model):
    germ = validate(builtins.build(family, n))
    assert sorted(germ.simple_name(a) for a in germ.atoms) == sorted(model.atom_names)
    for (a, b), c in germ.product.items():
        pa, pb, pc = (model.perm(germ.simple_name(s)) for s in (a, b, c))
        assert ref.compose(pa, pb) == pc
        assert model.name(pc) == germ.simple_name(c) or germ.is_identity(c)


def test_reference_ladders_match_the_divided_germ():
    dg = divided.build_divided_germ(validate(builtins.build("artin_symmetric", 3)), 3)
    model = ref.DividedArtinModel(3, 3)
    for sid, lad in dg.ladder_of.items():
        if dg.germ.is_identity(sid):
            continue
        src = model.obj(dg.germ.object_name(dg.germ.simples[sid].source))
        cols, named_src = model.columns(dg.germ.simple_name(sid))
        assert named_src in (None, src)
        tgt = model.obj(dg.germ.object_name(dg.germ.simples[sid].target))
        assert model.ladder_target(src, cols) == tgt


def test_seeded_symmetries_are_germ_automorphisms():
    workload = W.Conjugacy(1)
    workload.setup()
    workload.prepare()
    for G in workload.germs:
        g = G.germ
        table = {(g.simple_name(a), g.simple_name(b)): g.simple_name(c)
                 for (a, b), c in g.product.items()
                 if not g.is_identity(a) and not g.is_identity(b)}
        for sym in G.symmetries():
            assert {(sym(a), sym(b)): sym(c) for (a, b), c in table.items()} == table


def test_benchmark_json_matches_the_harness():
    assert {w["name"] for w in BENCH["workloads"]} <= set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    for w in BENCH["workloads"]:
        workload = W.WORKLOADS[w["name"]](1)
        assert f"{workload.slots} slots, >={workload.min_rounds} rounds" in w["why"]
        assert f"tail p{workload.tail_pct} of >={workload.slots * workload.min_rounds} ops" \
            in w["why"]


def test_compare_reports_agreement_and_unresolved(tmp_path):
    def write(path, values):
        rows = [{"workload": "cli", "seed": i,
                 "result": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}}
                for i, v in enumerate(values)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    base, same, slow, noisy = (tmp_path / f"{n}.jsonl" for n in ("a", "b", "c", "d"))
    write(base, [10.0, 10.1, 9.9, 10.0, 10.05])
    write(same, [10.02, 9.95, 10.1, 10.0, 9.98])
    write(slow, [13.0, 13.1, 12.9, 13.0, 13.05])
    write(noisy, [5.0, 10.0, 15.0, 8.0, 12.0])
    verdicts = {p.stem: compare.compare(base, p)[0]["verdict"] for p in (same, slow, noisy)}
    assert verdicts == {"b": "agree", "c": "worse", "d": "unresolved"}


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_paced_round_divides_out_a_slower_machine(monkeypatch):
    """A slowdown that stretches the ops and the probes alike leaves the
    scaled latencies unchanged."""
    def paced(factor):
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: factor * next(ticks))
        ops = [W.Op("noop", lambda res: None, lambda r, res: None, slot) for slot in range(5)]
        return run.run_round(ops, paced=True)

    fast, slow = paced(1.0), paced(1.6)
    assert slow.latencies == pytest.approx([1.6 * t for t in fast.latencies])
    assert slow.scaled == pytest.approx(fast.scaled)
