"""The three workloads: inputs from a seed, one round each, and their checks.

A round is one pass of a workload.  It returns its outputs, how many
operations it attempted and how many of those raised.  The checks in
``check_*`` compare the outputs with ``checks``, which never calls
partint.

- ``sweeps``: the four default grids of ``partint.harness`` with a
  fresh row cache, replayed from that cache, rendered as json, csv and
  table, then the lemma suites.  Many small instances, so the harness,
  uniqueness, cache I/O and constructions carry the cost.
- ``large-partition``: single instances called the way the README
  quickstart calls them, one of them through ``partint.cli.main``.
  Lex-min witness extraction and ``build_graph`` carry the cost.
- ``set-systems``: ``cross_validate_ekr`` on its default grid without
  (9,4,1), where the colour-bounded clique search carries the cost.

The seed fixes the order of the grids, instances and grid blocks, and
the seed of the lemma suites; it never changes how much work a round
does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import replace
from itertools import combinations
from math import comb

from partint import cli, cliques, harness, partitions, stars
from partint.cliques import Relation
from partint.harness import RunConfig

import checks
from checks import CheckFailed

LEMMA_TRIALS = 1000
FORMATS = ("json", "csv", "table")
# Rows of at most this many partitions get their maximum and lex-min
# witness recomputed by networkx.
NX_MAX_VERTICES = 40

# (n, k, t, relation, through the CLI).  (40,5,1) goes through
# ``partint max-family --no-uniqueness``, which still runs the uniqueness
# search; (34,7,2) proper is one where the star is beaten (427 < 431), so
# the maximum search has real work.  (36,6,1) and (30,8,1) would add
# about 45 s a round for the same lex-min cost; they are reference
# figures in the README instead.
LARGE_INSTANCES = (
    (40, 5, 1, "multiset", True),
    (24, 7, 2, "multiset", False),
    (34, 7, 2, "proper", False),
)


def _grid_keys(name: str) -> list[tuple]:
    """The (n, k, t, relation) rows each default grid must produce, in order."""
    if name == "strong":
        return [(n, k, 1, "multiset") for n in range(2, 23) for k in range(2, n + 1)]
    if name == "weak":
        return [(n, None, 1, "multiset") for n in range(2, 15)]
    relation = "multiset" if name == "t-multiset" else "proper"
    return [
        (n, k, t, relation)
        for t in (2, 3)
        for k in range(t + 1, 9)
        for n in range(k, 23)
    ]


SWEEP_RUNNERS = {
    "strong": (harness.verify_strong_form, {}),
    "weak": (harness.verify_weak_form, {}),
    "t-multiset": (harness.verify_t_conjectures, {"relation": Relation.MULTISET}),
    "t-proper": (harness.verify_t_conjectures, {"relation": Relation.PROPER}),
}


# (t, r, n_min, n_max) blocks of the default set-system grid (t <= 2,
# t <= r <= 4, r <= n <= 12) without (n, r, t) = (9, 4, 1).  That one
# instance takes 48 s and 1.79M nodes, more than three times the rest of
# the grid together; in one run it cannot be repeated, so a slow spell of
# the machine would decide the figure.  (10..12, 4, 1) keep the same
# colour-bound gap (root bound about 1.5 times the maximum).
SET_BLOCKS = (
    (1, 1, 1, 12), (1, 2, 2, 12), (1, 3, 3, 12), (1, 4, 4, 8), (1, 4, 10, 12),
    (2, 2, 2, 12), (2, 3, 3, 12), (2, 4, 4, 12),
)


def _block_keys(block: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    t, r, n_min, n_max = block
    return [(n, r, t) for n in range(n_min, n_max + 1)]


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "sweeps":
        grids = ["strong", "weak", "t-multiset", "t-proper"]
        rng.shuffle(grids)
        return {"grids": grids, "lemma_seed": seed, "keys": {g: _grid_keys(g) for g in grids}}
    if workload == "large-partition":
        instances = list(LARGE_INSTANCES)
        rng.shuffle(instances)
        return {"instances": instances}
    if workload == "set-systems":
        blocks = list(SET_BLOCKS)
        rng.shuffle(blocks)
        return {"blocks": blocks}
    raise ValueError(f"unknown workload {workload!r}")


class Round:
    """Counts operations and keeps the outputs of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rows = 0  # sweep rows solved cold, for harness.rows
        self.outputs: dict = {}

    def attempt(self, count: int, label: str, fn):
        """Run one operation worth ``count`` instances; None if it raised."""
        self.attempted += count
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += count
            print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


# -- sweeps -------------------------------------------------------------------


def sweeps_round(inputs: dict, probe, scratch: str) -> Round:
    out = Round()
    cache = os.path.join(scratch, f"rows-{os.getpid()}.ldjson")
    if os.path.exists(cache):
        os.remove(cache)
    configs = {g: RunConfig(cache_path=cache, **SWEEP_RUNNERS[g][1]) for g in inputs["grids"]}
    cold, replay, kept, reports = {}, {}, {}, {}
    for grid in inputs["grids"]:
        first = len(probe.kept)
        with probe.span("harness.sweep"):
            cold[grid] = out.attempt(
                len(inputs["keys"][grid]), f"sweep {grid}",
                lambda: SWEEP_RUNNERS[grid][0](configs[grid]),
            )
        kept[grid] = probe.kept[first:]
        out.rows += len(cold[grid] or ())
    for grid in inputs["grids"]:
        with probe.span("harness.cache_replay"):
            replay[grid] = out.attempt(
                len(inputs["keys"][grid]), f"replay {grid}",
                lambda: SWEEP_RUNNERS[grid][0](configs[grid]),
            )
    for grid in inputs["grids"]:
        if cold[grid] is None or replay[grid] is None:
            continue
        for fmt in FORMATS:
            config = replace(configs[grid], fmt=fmt)
            with probe.span("harness.render"):
                reports[grid, fmt] = out.attempt(
                    1, f"render {grid} {fmt}",
                    lambda: tuple(
                        harness.render_rows(config, rows, harness.summarize_rows(rows))
                        for rows in (cold[grid], replay[grid])
                    ),
                )
    with probe.span("constructions.suites"):
        lemmas = out.attempt(
            1, "lemma suites",
            lambda: harness.run_lemma_suites(
                RunConfig(seed=inputs["lemma_seed"], trials=LEMMA_TRIALS)
            ),
        )
    if os.path.exists(cache):
        os.remove(cache)
    out.outputs = {"cold": cold, "replay": replay, "kept": kept, "reports": reports,
                   "lemmas": lemmas}
    return out


def _expected_row(key: tuple, cache: dict) -> dict:
    """Own members, star size and (for small graphs) lex-min maximum of a grid row."""
    if key not in cache:
        n, k, t, relation = key
        members = checks.partitions_all(n) if k is None else checks.partitions_of(n, k)
        expected = {"star": len(checks.star_of(members, t, relation))}
        if len(members) <= NX_MAX_VERTICES:
            expected["lex_min"] = checks.lex_min_maximum_clique(members, t, relation)
        cache[key] = expected
    return cache[key]


def check_sweeps(inputs: dict, outputs: dict, cache: dict) -> None:
    for grid in inputs["grids"]:
        rows, kept = outputs["cold"][grid], outputs["kept"][grid]
        if rows is None:
            continue
        keys = [(r.n, r.k, r.t, r.relation) for r in rows]
        if keys != inputs["keys"][grid]:
            raise CheckFailed(f"sweep {grid}: rows are not the default grid")
        if len(kept) != len(rows):
            raise CheckFailed(f"sweep {grid}: {len(kept)} searches for {len(rows)} rows")
        for row, key, found in zip(rows, keys, kept):
            label = f"sweep {grid} {key}"
            n, k, t, relation = key
            expected = _expected_row(key, cache)
            if not row.conclusive:
                raise CheckFailed(f"{label}: row is inconclusive")
            if row.star_size != expected["star"]:
                raise CheckFailed(f"{label}: star {row.star_size}, counted {expected['star']}")
            if row.max_size < row.star_size:
                raise CheckFailed(f"{label}: max {row.max_size} below the star")
            if (found["n"], found["t"], found["relation"]) != (n, t, relation):
                raise CheckFailed(f"{label}: searched the wrong instance")
            checks.check_family(label, found["witness"], n, k, t, relation, row.max_size)
            if checks.digest(found["witness"]) != row.witness_digest:
                raise CheckFailed(f"{label}: digest does not match the witness")
            if "lex_min" in expected:
                if row.max_size != len(expected["lex_min"]):
                    raise CheckFailed(
                        f"{label}: max {row.max_size}, networkx {len(expected['lex_min'])}"
                    )
                if row.witness_digest != checks.digest(expected["lex_min"]):
                    raise CheckFailed(f"{label}: witness is not the lex-min maximum family")
        if outputs["replay"][grid] is not None and outputs["replay"][grid] != rows:
            raise CheckFailed(f"sweep {grid}: replayed rows differ from the cold rows")
    for (grid, fmt), texts in outputs["reports"].items():
        if texts is not None:
            checks.check_same_bytes(f"sweep {grid} as {fmt}", *texts)
    lemmas = outputs["lemmas"]
    if lemmas is not None:
        if not lemmas.all_passed:
            raise CheckFailed("lemma suites: some suite failed")
        cover = [s for s in lemmas.suites if s.name == "cover_sets"]
        if [s.instances for s in cover] != [LEMMA_TRIALS] or min(
            s.instances for s in lemmas.suites
        ) < 1:
            raise CheckFailed("lemma suites: wrong number of instances")


# -- large partition instances --------------------------------------------------


def _solve_quickstart(n: int, k: int, t: int, relation: str) -> dict:
    """The README quickstart: enumerate, build, star, maximum, uniqueness."""
    members = partitions.enumerate_partitions(n, k)
    graph = cliques.build_graph(members, relation, t)
    if relation == "multiset":
        family = stars.star_t(n, k, t)
    else:
        family = stars.fixed_set_family(n, k, range(1, t + 1))
    star = graph.vertex_ids(family)
    outcome = cliques.max_family(graph, star=star)
    unique = None
    if outcome.star_is_maximum:
        unique = cliques.check_uniqueness(graph, star, outcome.max_size)
    return {
        "members": [p.parts for p in members],
        "star": [members[v].parts for v in star],
        "max_size": outcome.max_size,
        "witness": [members[v].parts for v in outcome.witness],
        "unique": unique,
    }


def _solve_cli(n: int, k: int, t: int, relation: str, probe) -> dict:
    argv = ["max-family", "--n", str(n), "--k", str(k), "--t", str(t),
            "--relation", relation, "--no-uniqueness", "--format", "json"]
    stdout = io.StringIO()
    first = len(probe.kept)
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return {"exit": code, "row": json.loads(stdout.getvalue()), "kept": probe.kept[first:]}


def large_round(inputs: dict, probe, scratch: str) -> Round:
    out = Round()
    for n, k, t, relation, via_cli in inputs["instances"]:
        if via_cli:
            with probe.span("cli.max_family"):
                result = out.attempt(1, f"cli {(n, k, t, relation)}",
                                     lambda: _solve_cli(n, k, t, relation, probe))
        else:
            result = out.attempt(1, f"instance {(n, k, t, relation)}",
                                 lambda: _solve_quickstart(n, k, t, relation))
        out.outputs[n, k, t, relation] = result
    return out


def check_large(inputs: dict, outputs: dict, cache: dict) -> None:
    for n, k, t, relation, via_cli in inputs["instances"]:
        result = outputs[n, k, t, relation]
        if result is None:
            continue
        label = f"large {(n, k, t, relation)}"
        key = (n, k, t, relation)
        if key not in cache:
            members = checks.partitions_of(n, k)
            cache[key] = (members, checks.star_of(members, t, relation))
        members, star = cache[key]
        if via_cli:
            row = result["row"]
            if (row["n"], row["k"], row["t"], row["relation"]) != key:
                raise CheckFailed(f"{label}: the CLI solved another instance")
            if row["unique"] != "not_computed":
                raise CheckFailed(f"{label}: --no-uniqueness printed unique={row['unique']}")
            if result["exit"] != (0 if row["max_size"] == row["star_size"] else 1):
                raise CheckFailed(f"{label}: exit code {result['exit']}")
            if len(result["kept"]) != 1:
                raise CheckFailed(f"{label}: {len(result['kept'])} searches for one instance")
            witness, max_size = result["kept"][0]["witness"], row["max_size"]
            if row["witness_digest"] != checks.digest(witness):
                raise CheckFailed(f"{label}: printed digest does not match the witness")
            star_size = row["star_size"]
        else:
            if result["members"] != members:
                raise CheckFailed(f"{label}: P({n}, {k}) differs from our own enumeration")
            if result["star"] != star:
                raise CheckFailed(f"{label}: star family differs from our own filter")
            witness, max_size, star_size = result["witness"], result["max_size"], len(star)
        if star_size != len(star):
            raise CheckFailed(f"{label}: star {star_size}, counted {len(star)}")
        if max_size < len(star):
            raise CheckFailed(f"{label}: max {max_size} below the counted star {len(star)}")
        checks.check_family(label, witness, n, k, t, relation, max_size)


# -- set systems -------------------------------------------------------------------


def sets_round(inputs: dict, probe, scratch: str) -> Round:
    out = Round()
    for block in inputs["blocks"]:
        t, r, n_min, n_max = block
        config = RunConfig(t_min=t, t_max=t, k_min=r, k_max=r, n_min=n_min, n_max=n_max)
        first = len(probe.kept)
        rows = out.attempt(len(_block_keys(block)), f"ekr block {block}",
                           lambda: harness.cross_validate_ekr(config))
        out.outputs[block] = None if rows is None else (rows, probe.kept[first:])
    return out


def check_sets(inputs: dict, outputs: dict, cache: dict) -> None:
    for block in inputs["blocks"]:
        if outputs[block] is None:
            continue
        rows, kept = outputs[block]
        if [(row.n, row.k, row.t) for row in rows] != _block_keys(block):
            raise CheckFailed(f"ekr block {block}: rows are not the grid asked for")
        if len(kept) != len(rows):
            raise CheckFailed(f"ekr block {block}: {len(kept)} searches for {len(rows)} rows")
        for row, found in zip(rows, kept):
            n, r, t = row.n, row.k, row.t
            label = f"ekr (n={n}, r={r}, t={t})"
            if (found["n"], found["r"], found["t"]) != (n, r, t):
                raise CheckFailed(f"{label}: searched the wrong instance")
            if row.star_size != comb(n - t, r - t):
                raise CheckFailed(f"{label}: star {row.star_size}, expected C({n - t}, {r - t})")
            checks.check_ak(label, n, r, t, row.max_size)
            members = list(combinations(range(1, n + 1), r))
            witness = [members[v] for v in found["witness_ids"]]
            checks.check_set_family(label, witness, n, r, t, row.max_size)
            if checks.set_digest(witness) != row.witness_digest:
                raise CheckFailed(f"{label}: digest does not match the witness")


ROUNDS = {"sweeps": sweeps_round, "large-partition": large_round, "set-systems": sets_round}
CHECKS = {"sweeps": check_sweeps, "large-partition": check_large, "set-systems": check_sets}
