"""Spans around the calls into each pptlab module, recorded from outside.

Nothing in ``src/pptlab`` is changed.  ``install`` replaces each callable
listed in ``SPANS`` by a wrapper, at the name its caller looks it up
under: a module global (``ladder._mul_terms`` is looked up in the ladder
module by the scan), a class attribute (``Echelon.insert``), or the
imported alias in another module (``cli.analyze``).  Each wrapper records
a span: name, start, end and the span that was open when it started.
Spans live in flat arrays in memory and are written out once, at the end
of the run.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  The self times
of all layers add up to the summed duration of the top-level spans, and
the rest of a pass's wall time is reported as untimed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

LAYERS = (
    "parser", "ring", "delta", "ideals", "ladder", "verdict", "pipeline", "cache", "cli",
)
MAX_DEPTH_METRIC = 12


@dataclass(frozen=True)
class SpanSite:
    span: str  # "<layer>.<operation>"
    owner: str  # pptlab module, or "module.Class"
    attr: str


SPANS = (
    SpanSite("cli.main", "cli", "main"),
    SpanSite("cli.run", "cli", "run"),
    SpanSite("cli.build_record", "cli", "build_record"),
    SpanSite("parser.parse", "cli", "parse_poly"),
    SpanSite("parser.parse", "parser", "parse_poly"),
    SpanSite("parser.expand", "cli", "expand_var_spec"),
    SpanSite("parser.expand", "parser", "expand_var_spec"),
    SpanSite("delta.validate", "cli", "validate"),
    SpanSite("delta.validate", "delta", "validate"),
    SpanSite("delta.power", "delta.Hypersurface", "delta_power"),
    SpanSite("delta.power", "delta.Hypersurface", "f_res_power"),
    SpanSite("pipeline.analyze", "cli", "analyze"),
    SpanSite("pipeline.analyze", "pipeline", "analyze"),
    SpanSite("ladder.sequence", "pipeline", "splitting_sequence"),
    SpanSite("ladder.mul_terms", "ladder", "_mul_terms"),
    SpanSite("ideals.insert", "ideals.Echelon", "insert"),
    SpanSite("ideals.reduce", "ideals.Echelon", "reduce"),
    SpanSite("ideals.ubucket", "ladder", "_u_buckets"),
    SpanSite("ideals.ubucket", "ideals", "_u_buckets"),
    SpanSite("ring.mul", "ring.Poly", "__mul__"),
    SpanSite("verdict.nu_table", "cli", "nu_table"),
    SpanSite("verdict.nu_table", "verdict", "nu_table"),
    SpanSite("verdict.fpt", "verdict", "fpt_approx"),
    SpanSite("verdict.nu", "verdict", "nu"),
    SpanSite("verdict.criteria", "pipeline", "check_quick_criteria"),
    SpanSite("verdict.criteria", "verdict", "check_quick_criteria"),
    SpanSite("verdict.classify", "pipeline", "classify"),
    SpanSite("verdict.classify", "pipeline", "detect_period"),
    SpanSite("verdict.classify", "pipeline", "ppt_closed_form"),
    SpanSite("verdict.classify", "pipeline", "ppt_partial"),
    SpanSite("verdict.classify", "pipeline", "qfs_height"),
    SpanSite("verdict.regularity", "cli", "regularity_test"),
    SpanSite("cache.get", "cache.ResultCache", "get"),
    SpanSite("cache.put", "cache.ResultCache", "put"),
)


class Tracer:
    """In-memory span store plus the counters measured at the same sites."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counts: dict[str, float] = {}
        self.depth_ms = [0.0] * (MAX_DEPTH_METRIC + 1)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str):
        name_id = self.intern(name)
        note = _NOTES.get(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if note is not None:
                note.before(self, args)
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(self.current)
            ends.append(0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parents[idx]
            if note is not None:
                note.after(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __len__(self) -> int:
        return len(self.start)

    # -- analysis -------------------------------------------------------------

    def summarize(self, first: int = 0, last: int | None = None) -> dict:
        """Inclusive time and calls per span name, self time per layer and the
        summed top-level duration, over spans ``first..last`` (a whole pass)."""
        last = len(self) if last is None else last
        names = self.names
        incl_ns = [0] * len(names)
        calls = [0] * len(names)
        child_ns = {}
        top_ns = 0
        for i in range(first, last):
            d = self.end[i] - self.start[i]
            n = self.name_id[i]
            incl_ns[n] += d
            calls[n] += 1
            par = self.parent[i]
            if par < first:
                top_ns += d
            else:
                child_ns[par] = child_ns.get(par, 0) + d
        layer_self_ns = dict.fromkeys(LAYERS, 0)
        for i in range(first, last):
            layer = names[self.name_id[i]].split(".", 1)[0]
            layer_self_ns[layer] += self.end[i] - self.start[i] - child_ns.get(i, 0)
        return {
            "incl_ms": {names[n]: incl_ns[n] / 1e6 for n in range(len(names))},
            "calls": {names[n]: calls[n] for n in range(len(names))},
            "self_ms": {k: v / 1e6 for k, v in layer_self_ns.items()},
            "top_ms": top_ns / 1e6,
        }

    def write(self, directory: Path, label: str, passes: list[tuple[int, int]]) -> Path:
        """Write every span: a JSON header plus one raw array file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name_id": self.name_id, "parent": self.parent,
            "start_ns": self.start, "end_ns": self.end,
        }
        header = {
            "names": self.names,
            "spans": len(self),
            "passes": passes,
            "columns": {},
            "byteorder": sys.byteorder,
        }
        for col, arr in columns.items():
            path = directory / f"{label}.{col}.bin"
            with open(path, "wb") as fh:
                arr.tofile(fh)
            header["columns"][col] = {"file": path.name, "typecode": arr.typecode}
        head = directory / f"{label}.json"
        head.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        return head


class _Note:
    """Counters recorded by one kind of span, around the wrapped call."""

    def before(self, tracer: Tracer, args: tuple) -> None:
        pass

    def after(self, tracer: Tracer, result) -> None:
        pass


class _InsertNote(_Note):
    def after(self, tracer, result):
        if result:
            tracer.add("ideals.rank_gained")


class _BucketNote(_Note):
    def after(self, tracer, result):
        tracer.add("ideals.buckets", len(result))


class _SequenceNote(_Note):
    def after(self, tracer, result):
        for depth, ms in enumerate(result.per_depth_ms or (), start=1):
            if depth <= MAX_DEPTH_METRIC:
                tracer.depth_ms[depth] += ms


class _CacheGetNote(_Note):
    def before(self, tracer, args):
        path = args[0].path
        # computed from the file size: get() reads the whole file per lookup
        tracer.add("cache.bytes_read", path.stat().st_size if path.exists() else 0)

    def after(self, tracer, result):
        if result is not None:
            tracer.add("cache.hits")


_NOTES = {
    "ideals.insert": _InsertNote(),
    "ideals.ubucket": _BucketNote(),
    "ladder.sequence": _SequenceNote(),
    "cache.get": _CacheGetNote(),
}


def _resolve(pt, owner: str):
    module, _, cls = owner.partition(".")
    obj = getattr(pt, module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, pt) -> list[tuple[object, str, object]]:
    """Wrap every span site; returns what ``uninstall`` needs to undo it."""
    undo = []
    for site in SPANS:
        owner = _resolve(pt, site.owner)
        original = owner.__dict__[site.attr] if isinstance(owner, type) else getattr(owner, site.attr)
        setattr(owner, site.attr, tracer.wrap(original, site.span))
        undo.append((owner, site.attr, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
