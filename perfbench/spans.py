"""Spans around calls into the public functions of each ``ordalg`` module.

The tracer is installed at run time from the benchmark's own files: each
traced function is replaced by a wrapper in every ``ordalg`` module that
bound it, by module attribute or inside a module-level dict of tuples (the
CLI's map and pair tables).  The program's sources are not edited.

Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the time its direct child spans cover; a call to
a generator function is timed only while the generator runs, one span per
resumption, so a consumer's work between items is not charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "search": ("enumerate_models", "canonical_key", "canonical_form"),
    "core": ("build_algebra", "glb_table"),
    "sectioned": ("validate_sectioned",),
    "implication": ("derive_implication", "validate_ncis", "check_ncis_properties"),
    "residuated": ("derive_residual_imp", "validate_rrs", "validate_srs",
                   "check_rrs_properties"),
    "varieties": ("ialgebra_from_ncis", "validate_ialgebra", "ralgebra_from_rrs",
                  "validate_ralgebra"),
    "congruence": ("principal_congruence", "congruence_lattice", "maltsev_report",
                   "term_witness_check"),
    "fileio": ("parse_algebra", "serialize_algebra"),
    "cli": ("main",),
}

# Per-layer metrics in report order: ``<module>.<function>.s`` is self time,
# ``.calls`` a call count.  ``search.dedup_yield`` is models kept (one
# ``canonical_form`` per new isomorphism class) per ``canonical_key`` call;
# ``congruence.con_size.sum`` adds up |Con| over ``congruence_lattice`` results.
LAYER_METRICS = (
    ("search.enumerate_models.s", "s"),
    ("search.canonical_key.calls", "count"),
    ("search.canonical_key.s", "s"),
    ("search.canonical_form.calls", "count"),
    ("search.canonical_form.s", "s"),
    ("search.dedup_yield", "ratio"),
    ("core.build_algebra.calls", "count"),
    ("core.build_algebra.s", "s"),
    ("core.glb_table.s", "s"),
    ("sectioned.validate_sectioned.s", "s"),
    ("implication.derive_implication.s", "s"),
    ("implication.validate_ncis.s", "s"),
    ("implication.check_ncis_properties.s", "s"),
    ("residuated.derive_residual_imp.s", "s"),
    ("residuated.validate_rrs.s", "s"),
    ("residuated.validate_srs.s", "s"),
    ("residuated.check_rrs_properties.s", "s"),
    ("varieties.ialgebra_from_ncis.s", "s"),
    ("varieties.validate_ialgebra.s", "s"),
    ("varieties.ralgebra_from_rrs.s", "s"),
    ("varieties.validate_ralgebra.s", "s"),
    ("congruence.principal_congruence.calls", "count"),
    ("congruence.principal_congruence.s", "s"),
    ("congruence.congruence_lattice.s", "s"),
    ("congruence.maltsev_report.s", "s"),
    ("congruence.term_witness_check.s", "s"),
    ("congruence.con_size.sum", "count"),
    ("fileio.parse_algebra.s", "s"),
    ("fileio.serialize_algebra.s", "s"),
    ("cli.main.s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, op, parent, start, end, child_time]
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.con_size_sum = 0
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[4] = end
        self._stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += end - span[3]

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    yield item
            return gen_wrapper

        observe_con = name == "congruence.congruence_lattice"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe_con:
                self.con_size_sum += result.size
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ordalg module bound it."""
        swap: dict[int, tuple[object, object]] = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"ordalg.{mod}")
            for fname in names:
                orig = getattr(module, fname)
                swap[id(orig)] = (orig, self._wrap(f"{mod}.{fname}", orig))

        def sub(value):
            hit = swap.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
            if type(value) is tuple:
                new = tuple(sub(v) for v in value)
                return value if all(a is b for a, b in zip(new, value)) else new
            return value

        for modname, module in list(sys.modules.items()):
            if modname != "ordalg" and not modname.startswith("ordalg."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if type(value) is dict:
                    for key, item in list(value.items()):
                        new = sub(item)
                        if new is not item:
                            self._patches.append((value, key, item))
                            value[key] = new
                    continue
                new = sub(value)
                if new is not value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for target, key, old in reversed(self._patches):
            if type(target) is dict:
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _op, _parent, start, end, child in self.spans:
            out[name] += (end - start) - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        keys = self.calls["search.canonical_key"]
        out: dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            if metric == "search.dedup_yield":
                out[metric] = self.calls["search.canonical_form"] / keys if keys else 0.0
            elif metric == "congruence.con_size.sum":
                out[metric] = self.con_size_sum
            elif metric.endswith(".calls"):
                out[metric] = self.calls[metric[:-len(".calls")]]
            else:
                out[metric] = selfs.get(metric[:-len(".s")], 0.0)
        return out

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9),
                                     "self": round(end - start - child, 9)}) + "\n")
