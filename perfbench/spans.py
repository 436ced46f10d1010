"""Spans around the public functions of partint, kept in memory.

``Probe`` replaces a public function by a wrapper in every partint
module that binds it, so calls the library makes internally (say,
``solve_instance`` calling ``build_graph``) are seen as well as the
benchmark's own calls.  With tracing on, each call becomes a span
(name, start, end, parent, counts); the spans are written out as
LDJSON once the run ends.  With tracing off no clock is read: the
wrappers only keep the witnesses of ``max_family`` and
``max_family_set_system``, which the checks need and the harness
reports only as digests.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import partint
from partint import cli, cliques, constructions, harness, partitions, stars

MODULES = (partint, partitions, stars, cliques, harness, cli, constructions)

# (span name, function name): every binding of the function in MODULES is wrapped.
WRAPPED = (
    ("partitions.enumerate", "enumerate_partitions"),
    ("partitions.enumerate", "enumerate_all"),
    ("cliques.build_graph", "build_graph"),
    ("cliques.max_family", "max_family"),
    ("cliques.uniqueness", "check_uniqueness"),
    ("cliques.set_system", "max_family_set_system"),
)
KEPT = {"max_family", "max_family_set_system"}


class Probe:
    """Wraps partint's public functions for the length of a ``with`` block."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[dict] = []
        self.kept: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _start(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def _end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code; a no-op untraced."""
        if not self.tracing:
            yield
            return
        record = self._start(name)
        try:
            yield
        finally:
            self._end(record)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span_name: str, fn_name: str, original):
        def wrapper(*args, **kwargs):
            record = self._start(span_name) if self.tracing else None
            try:
                result = original(*args, **kwargs)
            finally:
                if record is not None:
                    self._end(record)
            if fn_name in KEPT:
                self._keep(fn_name, args, result)
            if record is not None:
                record.update(_counts(fn_name, result))
                if fn_name == "max_family" and kwargs.get("deterministic", True):
                    # The same search without lex-min extraction, for the split.
                    extra = self._start("cliques.search_only")
                    plain = original(*args, **{**kwargs, "deterministic": False})
                    self._end(extra)
                    extra["nodes"] = plain.nodes_explored
            return result

        return wrapper

    def _keep(self, fn_name: str, args: tuple, outcome) -> None:
        if fn_name == "max_family":
            graph = args[0]
            members = graph.partitions
            self.kept.append(
                {
                    "n": members[0].n if members else None,
                    "t": graph.t,
                    "relation": graph.relation.value,
                    "witness": [members[v].parts for v in outcome.witness],
                }
            )
        else:
            instance = args[0]
            self.kept.append(
                {
                    "n": instance.ground_size,
                    "r": instance.member_size,
                    "t": instance.t,
                    "witness_ids": list(outcome.witness),
                }
            )

    def __enter__(self) -> "Probe":
        for span_name, fn_name in WRAPPED:
            if not self.tracing and fn_name not in KEPT:
                continue
            original = getattr(partint, fn_name)
            wrapper = self._wrap(span_name, fn_name, original)
            for module in MODULES:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _counts(fn_name: str, result) -> dict:
    if fn_name in ("enumerate_partitions", "enumerate_all"):
        return {"vertices": len(result)}
    if fn_name == "build_graph":
        return {"edges": sum(row.bit_count() for row in result.adjacency) // 2}
    if fn_name in ("max_family", "max_family_set_system"):
        return {
            "nodes": result.nodes_explored,
            "root_bound": result.upper_bound_at_root,
            "max_size": result.max_size,
        }
    return {}


# -- per-layer metrics --------------------------------------------------------

SPAN_SECONDS = {
    "partitions.enumerate": "partitions.enumerate_s",
    "cliques.build_graph": "cliques.build_graph_s",
    "cliques.max_family": "cliques.max_family_s",
    "cliques.search_only": "cliques.search_only_s",
    "cliques.set_system": "cliques.set_system_s",
    "cliques.uniqueness": "cliques.uniqueness_s",
    "harness.sweep": "harness.sweep_s",
    "harness.cache_replay": "harness.cache_replay_s",
    "harness.render": "harness.render_s",
    "constructions.suites": "constructions.suites_s",
    "cli.max_family": "cli.max_family_s",
}
DERIVED = (
    "partitions.vertices",
    "cliques.edges",
    "cliques.max_family_nodes",
    "cliques.search_only_nodes",
    "cliques.root_bound_excess",
    "cliques.root_bound_exact",
    "cliques.set_system_nodes",
    "cliques.uniqueness_calls",
    "harness.self_s",
)


def round_metrics(spans: list[dict], rows: int) -> dict[str, float]:
    """Per-layer figures of one traced round, from that round's spans."""
    out = dict.fromkeys([*SPAN_SECONDS.values(), *DERIVED], 0)
    out["harness.rows"] = rows
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        name = s["name"]
        seconds = s["end"] - s["start"]
        if name in SPAN_SECONDS:
            out[SPAN_SECONDS[name]] += seconds
        if name == "harness.sweep":
            # Spans of one thread nest, so direct children never overlap.
            out["harness.self_s"] += seconds - children.get(s["id"], 0.0)
        elif name == "partitions.enumerate":
            out["partitions.vertices"] += s.get("vertices", 0)
        elif name == "cliques.build_graph":
            out["cliques.edges"] += s.get("edges", 0)
        elif name == "cliques.search_only":
            out["cliques.search_only_nodes"] += s.get("nodes", 0)
        elif name == "cliques.uniqueness":
            out["cliques.uniqueness_calls"] += 1
        if name in ("cliques.max_family", "cliques.set_system") and "nodes" in s:
            key = "max_family" if name == "cliques.max_family" else "set_system"
            out[f"cliques.{key}_nodes"] += s["nodes"]
            out["cliques.root_bound_excess"] += s["root_bound"] - s["max_size"]
            out["cliques.root_bound_exact"] += s["root_bound"] == s["max_size"]
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
