"""In-memory spans for the traced run, and the wrappers that record them.

The program itself is not instrumented: the traced run swaps wrappers in
at the call sites listed in ``call_sites`` (module attributes, class
attributes and dict entries), records one span per call, and puts the
originals back before any untraced round runs.  A span holds its name,
start, end and the span that was open when it began; the spans of one
request or CLI call share its root span.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import statistics
import time
from array import array
from collections import defaultdict

clock = time.perf_counter
_END = object()
ITERATOR = "iterator"  # marks a call site that returns a generator


class Tracer:
    """Spans kept in parallel arrays, so a traced run can hold millions."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(math.nan)
        self.starts.append(clock())
        return sid

    def call(self, name, fn, args, kwargs, describe):
        sid = self._open(name)
        self.stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[sid] = clock()
            self.stack.pop()
        if describe is not None:
            self.attrs[sid] = describe(args, kwargs, result)
        return result

    def iterate(self, name, iterator, attrs):
        """Span over a generator's life.  Only time spent inside ``next``
        counts (as ``busy_s``), since the consumer's work interleaves with
        it; the span is never on the stack, so it parents nothing."""
        sid = self._open(name)
        busy, items = 0.0, 0
        try:
            while True:
                t0 = clock()
                item = next(iterator, _END)
                busy += clock() - t0
                if item is _END:
                    break
                items += 1
                yield item
        finally:
            self.ends[sid] = clock()
            self.attrs[sid] = dict(attrs, busy_s=busy, items=items)

    def duration(self, sid: int) -> float:
        busy = self.attrs.get(sid, {}).get("busy_s")
        return self.ends[sid] - self.starts[sid] if busy is None else busy

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [self.duration(s) for s in range(len(self))]
        for s in range(len(self)):
            if self.parents[s] >= 0:
                own[self.parents[s]] -= self.duration(s)
        return own

    def write(self, path, header: dict) -> None:
        """One JSON line of run data, then one line per span:
        [id, parent, name, start_s, end_s, self_s, attrs]."""
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for s, name in enumerate(self.names):
                fh.write(json.dumps([
                    s, self.parents[s], name, round(self.starts[s], 7),
                    round(self.ends[s], 7), round(own[s], 7), self.attrs.get(s, {}),
                ]) + "\n")


def _wrap(tracer: Tracer, name: str, fn, describe):
    if isinstance(fn, classmethod):
        return classmethod(_wrap(tracer, name, fn.__func__, describe))
    if describe == ITERATOR:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.iterate(name, fn(*args, **kwargs), {"n": args[0]})
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, describe)
    return wrapper


class Instrumented:
    """Context manager: wrappers in at every call site, originals back out."""

    def __init__(self, tracer: Tracer, sites):
        self.tracer, self.sites, self.saved = tracer, sites, []

    def __enter__(self):
        for owner, key, name, describe in self.sites:
            original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
            self.saved.append((owner, key, original))
            _assign(owner, key, _wrap(self.tracer, name, original, describe))
        return self.tracer

    def __exit__(self, *exc):
        while self.saved:
            _assign(*self.saved.pop())


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _n(args, kwargs, result):
    return {"n": args[0]}


def _table_n(args, kwargs, result):
    return {"n": args[0].n}


def _closure(args, kwargs, result):
    n = args[0]
    gens = args[1] if len(args) > 1 else kwargs.get("generators")
    count = math.comb(n, 2) if gens is None else len(gens)
    return {"n": n, "gens": count, "size": len(result)}


def call_sites(api):
    """Every layer boundary the traced run records, as
    (owner, attribute, span name, describe).  ``describe`` maps
    (args, kwargs, result) to the counts stored on the span."""
    from brauer import cli, decomposition, geodesics, sequences, verify

    table = geodesics.GeodesicTable
    sites = [
        (api, "cli_main", "cli.main", None),
        (cli, "load_or_compute_table", "geodesics.load_or_compute_table", _n),
        (cli, "max_length", "geodesics.max_length", _n),
        (cli, "count_classes", "sequences.count_classes", _n),
        (geodesics, "bfs_lengths", "geodesics.bfs_lengths",
         lambda a, k, r: {"n": r.n, "elements": len(r.dist)}),
        (geodesics, "parse_diagram", "diagram.parse_diagram", None),
        (table, "save", "geodesics.GeodesicTable.save",
         lambda a, k, r: {"n": a[0].n, "bytes": os.path.getsize(a[1])}),
        (table, "load", "geodesics.GeodesicTable.load",
         lambda a, k, r: {"n": r.n, "rows": len(r.dist), "bytes": os.path.getsize(a[1])}),
        (table, "max_entry", "geodesics.GeodesicTable.max_entry", _table_n),
        (table, "__getitem__", "geodesics.GeodesicTable.getitem", _table_n),
        (verify, "check_all_relations", "presentation.check_all_relations", _n),
        (verify, "atom_closure", "decomposition.atom_closure", _closure),
        (decomposition, "atom_closure", "decomposition.atom_closure", _closure),
        (verify, "corank2_census", "sequences.corank2_census", _n),
        (verify, "enumerate_all", "diagram.enumerate_all", ITERATOR),
        (sequences, "enumerate_all", "diagram.enumerate_all", ITERATOR),
        (api, "parse_diagram", "diagram.parse_diagram", None),
        (api, "parse_word", "presentation.parse_word", None),
        (api, "decompose", "decomposition.decompose",
         lambda a, k, r: {"word_len": len(r)}),
        (api, "phi", "presentation.phi", None),
        (api, "normalize", "presentation.normalize",
         lambda a, k, r: {"growth": len(r) / len(a[0])}),
        (api, "words_equal_in_T", "presentation.words_equal_in_T", None),
        (api, "multiply", "diagram.multiply", None),
    ]
    sites += [(verify.SUITES, s, f"verify.{s}", _n) for s in sorted(verify.SUITES)]
    sites += [(api.handlers, kind, f"words.{kind}", None) for kind in sorted(api.handlers)]
    return sites


# the rank each audit suite runs at (its SUITE_LIMITS entry)
AUDIT_SUITES = {"relations": 8, "generation": 6, "irreducible": 5, "counts": 7, "hclasses": 7}

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "geodesics.bfs_lengths.s": ("s", "lower"),
    "geodesics.bfs_lengths.elements": ("count", "higher"),
    "geodesics.bfs_lengths.products": ("count", "lower"),
    "geodesics.bfs_lengths.useful_ratio": ("ratio", "higher"),
    "diagram.atom_step.us": ("us", "lower"),
    "geodesics.GeodesicTable.save.s": ("s", "lower"),
    "geodesics.GeodesicTable.save.bytes": ("bytes", "lower"),
    "geodesics.GeodesicTable.max_entry.s": ("s", "lower"),
    "geodesics.GeodesicTable.load.s": ("s", "lower"),
    "geodesics.GeodesicTable.load.rows": ("count", "lower"),
    "geodesics.GeodesicTable.load.bytes": ("bytes", "lower"),
    "diagram.parse_diagram.load_row.us": ("us", "lower"),
    "geodesics.GeodesicTable.getitem.us": ("us", "lower"),
    "diagram.parse_diagram.us": ("us", "lower"),
    "presentation.parse_word.us": ("us", "lower"),
    "decomposition.decompose.us": ("us", "lower"),
    "decomposition.decompose.word_len": ("count", "lower"),
    "presentation.phi.us": ("us", "lower"),
    "presentation.normalize.us": ("us", "lower"),
    "presentation.normalize.growth": ("ratio", "lower"),
    "presentation.words_equal_in_T.us": ("us", "lower"),
    "diagram.multiply.us": ("us", "lower"),
    **{f"verify.{s}.s": ("s", "lower") for s in AUDIT_SUITES},
    "sequences.count_classes.s": ("s", "lower"),
    "diagram.enumerate_all.s": ("s", "lower"),
    "diagram.enumerate_all.diagrams": ("count", "higher"),
    "diagram.brackets.us": ("us", "lower"),
    "decomposition.atom_closure.s": ("s", "lower"),
    "decomposition.atom_closure.products": ("count", "lower"),
    "decomposition.atom_closure.useful_ratio": ("ratio", "higher"),
    "presentation.check_all_relations.s": ("s", "lower"),
    "cli.other.s": ("s", "lower"),
    "trace.overhead.s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans: medians per call, and
    counts read off the spans.  Every figure must have spans behind it."""
    index = defaultdict(list)
    for sid, name in enumerate(tracer.names):
        index[name].append(sid)

    def spans(name, parent=None, **attrs):
        found = [
            s for s in index[name]
            if all(tracer.attrs.get(s, {}).get(k) == v for k, v in attrs.items())
            and (parent is None or parent(tracer.parents[s]))
        ]
        if not found:
            raise RuntimeError(f"the traced run recorded no {name} span {attrs}")
        return found

    def per_call(sids, scale=1.0):
        return statistics.median(tracer.duration(s) for s in sids) * scale

    def attr(sids, key):
        return statistics.median(tracer.attrs[s][key] for s in sids)

    def under(prefix):
        return lambda p: p >= 0 and tracer.names[p].startswith(prefix)

    out = {}
    bfs = spans("geodesics.bfs_lengths", n=7)
    elements = attr(bfs, "elements")
    products = elements * math.comb(7, 2)  # every element is expanded by every atom
    out["geodesics.bfs_lengths.s"] = per_call(bfs)
    out["geodesics.bfs_lengths.elements"] = elements
    out["geodesics.bfs_lengths.products"] = products
    out["geodesics.bfs_lengths.useful_ratio"] = (elements - math.comb(7, 2)) / products
    save = spans("geodesics.GeodesicTable.save", n=7)
    out["geodesics.GeodesicTable.save.s"] = per_call(save)
    out["geodesics.GeodesicTable.save.bytes"] = attr(save, "bytes")
    out["geodesics.GeodesicTable.max_entry.s"] = per_call(
        spans("geodesics.GeodesicTable.max_entry", n=7))
    load = spans("geodesics.GeodesicTable.load", n=7)
    out["geodesics.GeodesicTable.load.s"] = per_call(load)
    out["geodesics.GeodesicTable.load.rows"] = attr(load, "rows")
    out["geodesics.GeodesicTable.load.bytes"] = attr(load, "bytes")
    loads = set(load)
    out["diagram.parse_diagram.load_row.us"] = per_call(
        spans("diagram.parse_diagram", parent=loads.__contains__), 1e6)
    out["geodesics.GeodesicTable.getitem.us"] = per_call(
        spans("geodesics.GeodesicTable.getitem", n=7), 1e6)
    for metric, name, parent in (
        ("diagram.parse_diagram.us", "diagram.parse_diagram", "words."),
        ("presentation.parse_word.us", "presentation.parse_word", "words."),
        ("decomposition.decompose.us", "decomposition.decompose", "words.decompose"),
        ("presentation.phi.us", "presentation.phi", "words.phi"),
        ("presentation.normalize.us", "presentation.normalize", "words.normalize"),
        ("presentation.words_equal_in_T.us", "presentation.words_equal_in_T", "words.equal"),
        ("diagram.multiply.us", "diagram.multiply", "words.mult"),
    ):
        out[metric] = per_call(spans(name, parent=under(parent)), 1e6)
    out["decomposition.decompose.word_len"] = attr(
        spans("decomposition.decompose"), "word_len")
    out["presentation.normalize.growth"] = attr(
        spans("presentation.normalize"), "growth")
    for suite, n in AUDIT_SUITES.items():
        out[f"verify.{suite}.s"] = per_call(spans(f"verify.{suite}", n=n))
    out["sequences.count_classes.s"] = per_call(spans("sequences.count_classes", n=7))
    enum = spans("diagram.enumerate_all", n=7)
    out["diagram.enumerate_all.s"] = per_call(enum)
    out["diagram.enumerate_all.diagrams"] = attr(enum, "items")
    closure = spans("decomposition.atom_closure", n=6, gens=math.comb(6, 2))
    size = attr(closure, "size")
    out["decomposition.atom_closure.s"] = per_call(closure)
    out["decomposition.atom_closure.products"] = size * math.comb(6, 2)
    out["decomposition.atom_closure.useful_ratio"] = (size - math.comb(6, 2)) / (
        size * math.comb(6, 2))
    out["presentation.check_all_relations.s"] = per_call(
        spans("presentation.check_all_relations", n=8))
    return out
