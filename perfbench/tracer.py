"""
Runtime tracer for the traced benchmark run.

It replaces public garside functions by timing wrappers at every place they
are bound in the loaded garside modules, so calls between modules are
traced as well as calls from the benchmark. Nothing under src/garside is
edited; uninstall() puts the original functions back.

Each call records a span (name, start, end, parent span, op id) in compact
arrays; the arrays stay in memory and are written out by dump(). Self time
(a span's duration minus the time its child spans cover) and the counters
are accumulated as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# module -> public functions wrapped in the traced run
TRACED = {
    "germ": ["parse_germ", "make_table", "validate"],
    "builtins": ["build"],
    "words": ["normal_form", "multiply", "invert", "parse_word"],
    "conjugacy": ["conjugate", "to_summit", "summit_set", "are_conjugate", "fixed_subgerm"],
    "divided": ["build_divided_germ", "count_subdivisions", "theta_morphism"],
    "periodic": ["is_periodic", "classify_periodic", "find_bestvina_form", "necklace_conjugator"],
    "nerve": ["cover_ball", "garside_dimension", "fit_z_polynomial",
              "enumerate_nondegenerate", "check_cyclic_identities"],
    "cli": ["main"],
}
MODULES = list(TRACED)


def _result_len(attr: str | None):
    def count(result) -> int:
        obj = getattr(result, attr) if attr else result
        return len(obj)
    return count


# span name -> {counter: function of the result}
RESULT_COUNTERS = {
    "germ.validate": {"simples": _result_len("simples"), "products": _result_len("product")},
    "conjugacy.summit_set": {"summits": _result_len(None)},
    "divided.build_divided_germ": {"simples": lambda dg: len(dg.germ.simples)},
    "nerve.cover_ball": {"vertices": _result_len("vertices")},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.op = -1
        self.stack: list[list] = []     # [span index, name, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "garside" or name.startswith("garside."))]
        for mod_name, fns in TRACED.items():
            module = sys.modules[f"garside.{mod_name}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.name_ix:
            self.name_ix[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ix[name]
        on_result = RESULT_COUNTERS.get(name, {})
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1][0] if stack else -1
            if name == "conjugacy.conjugate" and stack:
                key = stack[-1][1] + ".conjugations"
                self.counts[key] = self.counts.get(key, 0) + 1
            elif name == "words.multiply":
                self.counts["words.multiply.factors_in"] = (
                    self.counts.get("words.multiply.factors_in", 0)
                    + len(args[1].factors) + len(args[2].factors)
                )
            self.start.append(0.0)
            self.end.append(0.0)
            self.name_of.append(nid)
            self.parent.append(parent)
            self.op_of.append(self.op)
            frame = [idx, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][2] += dur
            for counter, count in on_result.items():
                key = f"{name}.{counter}"
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.split(".")[0] == module), 0.0)

    def dump(self, path: Path) -> None:
        """Write the span arrays (binary) and a JSON index next to them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.start, self.end, self.name_of, self.parent, self.op_of):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "layout": ["start:f64", "end:f64", "name:i32", "parent:i64", "op:i64"],
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1), encoding="utf-8")
