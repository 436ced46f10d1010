"""Exact maximum intersecting families via branch-and-bound clique search.

An intersection graph has one vertex per partition and an edge wherever
the chosen relation holds at level t.  A family is (properly)
t-intersecting exactly when its vertices form a clique AND every member
relates to itself (a partition with fewer than t parts, or fewer than t
distinct parts, cannot t-intersect anything, itself included).  Such
ineligible vertices are excluded up front, so the maximum family size
is the clique number of the graph restricted to eligible vertices.

The engine is a Tomita-style maximum-clique search: vertices renumbered
by descending eligible degree, adjacency kept as arbitrary-precision
int bitsets, candidate sets bounded by greedy sequential colouring, and
the incumbent seeded with a known clique (normally the star family) so
the search only has to certify optimality or beat it.  Budgets on
explored nodes and wall time turn an over-long search into a
SearchBudgetExceeded carrying the best bounds found, never a silently
inexact answer.  With deterministic=True the reported witness is the
lexicographically smallest maximum clique in vertex order: once the size
is certified, one colour-bounded depth-first search over the original
ids, trying vertices in ascending order, stops at the first clique of
that size.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import combinations
from math import comb
from operator import itemgetter

from .intersect import (
    Relation,
    distinct_common_count,
    multiset_common_count,
)
from .partitions import (
    DEFAULT_MAX_VERTICES,
    Partition,
    ResourceGuardError,
    enumerate_all,
)
from .stars import star_ids

ENGINE_VERSION = "1"

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_TIME_BUDGET_SECS = 600.0


class Verdict(str, Enum):
    """Outcome of a yes/no question that may be skipped or time out."""

    YES = "yes"
    NO = "no"
    NOT_COMPUTED = "not_computed"
    INCONCLUSIVE = "inconclusive"


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of node or time budget before certifying a result.

    Carries the best bounds known at abort: the incumbent clique (a
    valid lower bound witness) and a colouring upper bound.
    """

    def __init__(
        self,
        message: str,
        *,
        lower_bound: int,
        upper_bound: int,
        witness: list[int],
        nodes_explored: int,
        elapsed: float,
    ):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.witness = witness
        self.nodes_explored = nodes_explored
        self.elapsed = elapsed


@dataclass
class IntersectionGraph:
    """Intersection graph over a fixed partition list.

    Vertex ids are positions in ``partitions`` (canonical enumeration
    order).  ``adjacency[v]`` is a bitmask of neighbours; ``eligible``
    masks the vertices that relate to themselves and may appear in any
    family.  Ineligible vertices are always isolated.
    """

    partitions: list[Partition]
    relation: Relation
    t: int
    adjacency: list[int]
    eligible: int
    _index: dict[Partition, int] = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.partitions)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def vertex_ids(self, family) -> list[int]:
        """Canonical ids of the given partitions, sorted ascending."""
        if not self._index:
            self._index.update((p, i) for i, p in enumerate(self.partitions))
        return sorted(self._index[p] for p in family)


def build_graph(
    partitions: list[Partition],
    relation: Relation | str,
    t: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> IntersectionGraph:
    """Build the t-level intersection graph over ``partitions``.

    The partition list must be duplicate-free; ids follow list order.
    """
    relation = Relation(relation)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    n = len(partitions)
    if n > max_vertices:
        raise ResourceGuardError(f"{n} vertices exceed the cap {max_vertices}")

    common = (
        multiset_common_count if relation is Relation.MULTISET else distinct_common_count
    )
    tuples = [p.parts for p in partitions]

    eligible = 0
    if t == 0:
        eligible = (1 << n) - 1 if n else 0
    else:
        for v, parts in enumerate(tuples):
            if common(parts, parts, stop_at=t) >= t:
                eligible |= 1 << v

    if t == 0:
        adjacency = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    elif t == 1:
        adjacency = _part_value_adjacency(tuples)
    else:
        adjacency = _pairwise_adjacency(tuples, eligible, common, t)
    return IntersectionGraph(
        partitions=list(partitions),
        relation=relation,
        t=t,
        adjacency=adjacency,
        eligible=eligible,
    )


def _part_value_adjacency(tuples: list[tuple[int, ...]]) -> list[int]:
    """Level-1 adjacency under either relation, from an index by part value.

    Two partitions share a part, counted with multiplicity or not,
    exactly when they share a part value, so a vertex's neighbours are
    the union of the vertices holding each of its values.  A partition
    with no parts holds no value and stays isolated.
    """
    holders: dict[int, int] = {}
    for v, parts in enumerate(tuples):
        for value in set(parts):
            holders[value] = holders.get(value, 0) | (1 << v)
    adjacency = []
    for v, parts in enumerate(tuples):
        mask = 0
        for value in set(parts):
            mask |= holders[value]
        adjacency.append(mask & ~(1 << v))
    return adjacency


def _pairwise_adjacency(
    tuples: list[tuple[int, ...]], eligible: int, common, t: int
) -> list[int]:
    """Adjacency by testing ``common`` on every pair of eligible vertices."""
    n = len(tuples)
    adjacency = [0] * n
    for u in range(n):
        if not (eligible >> u) & 1:
            continue
        pu = tuples[u]
        for v in range(u + 1, n):
            if not (eligible >> v) & 1:
                continue
            if common(pu, tuples[v], stop_at=t) >= t:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    return adjacency


@dataclass
class SearchOutcome:
    """Result of an exact maximum-family search."""

    max_size: int
    witness: list[int]                  # vertex ids, ascending
    star_size: int | None               # size of the seed family, if given
    star_is_maximum: bool | None        # None when no seed was given
    nodes_explored: int
    elapsed: float
    upper_bound_at_root: int            # colour bound over the searched vertices; >= max_size

    @property
    def witness_size(self) -> int:
        return len(self.witness)


class _Abort(Exception):
    """Internal: unwinds the recursion when a budget is exhausted."""


class _CliqueSearch:
    """Branch-and-bound core over a bitset adjacency list.

    One instance per high-level operation: node and time budgets are
    cumulative across all maximum and decision runs it performs.
    """

    def __init__(self, adjacency: list[int], node_budget: int, time_budget_secs: float):
        self.adj = adjacency
        self.node_budget = node_budget
        self.deadline = time.perf_counter() + time_budget_secs
        self.nodes = 0
        self.best_size = 0
        self.best: list[int] = []
        self._stack: list[int] = []
        self._target: int | None = None
        self._found = False

    # -- budget -------------------------------------------------------

    def _charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _Abort("node budget exhausted")
        if self.nodes % 256 == 0 and time.perf_counter() > self.deadline:
            raise _Abort("time budget exhausted")

    # -- greedy colouring ---------------------------------------------

    def _colour_sort(self, candidates: int) -> tuple[list[int], list[int]]:
        """Order candidates by colour class; bounds[i] = colour of order[i].

        The colour of the last vertex is an upper bound on the clique
        number of the candidate subgraph.
        """
        adj = self.adj
        order: list[int] = []
        bounds: list[int] = []
        colour = 0
        remaining = candidates
        while remaining:
            colour += 1
            avail = remaining
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                order.append(v)
                bounds.append(colour)
                remaining ^= bit
                avail = (avail ^ bit) & ~adj[v]
        return order, bounds

    def root_bound(self, candidates: int) -> int:
        _, bounds = self._colour_sort(candidates)
        return bounds[-1] if bounds else 0

    # -- search -------------------------------------------------------

    def _expand(self, candidates: int, depth: int) -> None:
        self._charge()
        adj = self.adj
        order, bounds = self._colour_sort(candidates)
        stack = self._stack
        for idx in range(len(order) - 1, -1, -1):
            if self._found:
                return
            if depth + bounds[idx] <= self.best_size:
                return
            v = order[idx]
            stack.append(v)
            child = candidates & adj[v]
            if child:
                self._expand(child, depth + 1)
            elif depth + 1 > self.best_size:
                self.best_size = depth + 1
                self.best = stack.copy()
                if self._target is not None and self.best_size >= self._target:
                    self._found = True
            stack.pop()
            candidates &= ~(1 << v)

    def maximum(self, candidates: int, seed: list[int]) -> tuple[int, list[int]]:
        """Size and witness of a maximum clique within ``candidates``.

        ``seed`` must be a clique inside ``candidates``; it primes the
        incumbent so the search only explores potentially larger
        cliques.
        """
        self._target = None
        self._found = False
        self.best_size = len(seed)
        self.best = list(seed)
        if candidates:
            self._expand(candidates, 0)
        return self.best_size, sorted(self.best)

    def exists(self, candidates: int, target: int) -> bool:
        """True iff ``candidates`` contains a clique of size >= target."""
        if target <= 0:
            return True
        if candidates.bit_count() < target:
            return False
        self._target = target
        self._found = False
        self.best_size = target - 1
        self.best = []
        self._expand(candidates, 0)
        self._target = None
        return self._found


def _permute(adjacency: list[int], allowed: int) -> tuple[list[int], list[int]]:
    """Renumber allowed vertices by descending degree (ties: ascending id).

    Returns (permuted adjacency restricted to allowed, position->original).
    """
    ids = [v for v in range(len(adjacency)) if (allowed >> v) & 1]
    if not ids:
        return [], []
    ids.sort(key=lambda v: (-(adjacency[v] & allowed).bit_count(), v))
    # Each row is renumbered as a string: character v of the reversed
    # binary form is bit v, and picking the characters at the new order
    # highest position first gives the renumbered binary form.  With one
    # id, itemgetter returns a bare character, which join accepts too.
    width = allowed.bit_length()
    pick = itemgetter(*reversed(ids))
    perm_adj = [
        int("".join(pick(format(adjacency[v] & allowed, f"0{width}b")[::-1])), 2)
        for v in ids
    ]
    return perm_adj, ids


def _validate_family(
    partitions: list[Partition], relation: Relation, t: int, ids: list[int]
) -> None:
    """Recheck a witness against the relation itself, not the adjacency bits."""
    common = (
        multiset_common_count if relation is Relation.MULTISET else distinct_common_count
    )
    members = [partitions[v].parts for v in ids]
    for parts in members:
        if common(parts, parts, stop_at=t) < t:
            raise RuntimeError(f"witness member {parts} cannot {t}-intersect itself")
    for pa, pb in combinations(members, 2):
        if common(pa, pb, stop_at=t) < t:
            raise RuntimeError(f"witness members {pa} and {pb} do not {t}-intersect")


def _colour_count(adjacency: list[int], candidates: int, stop: int) -> int:
    """Greedy colour classes of ``candidates``, counted no further than ``stop``.

    Colours the same way as ``_CliqueSearch._colour_sort``, so the full
    count bounds the clique number of the candidate subgraph.
    """
    colours = 0
    while candidates and colours < stop:
        colours += 1
        avail = candidates
        while avail:
            bit = avail & -avail
            candidates ^= bit
            avail = (avail ^ bit) & ~adjacency[bit.bit_length() - 1]
    return colours


def _lex_min_witness(
    adjacency: list[int], allowed: int, size: int, search: _CliqueSearch
) -> list[int]:
    """The lexicographically smallest clique of the given size, by id sequence.

    One depth-first search over the original ids.  Children are tried in
    ascending id order and keep only the common neighbours above the
    chosen vertex, so sorted cliques are met in lexicographic order.  A
    child whose depth plus the greedy colour bound of its candidates
    falls short of ``size`` cannot complete such a clique and is pruned,
    so the first clique of ``size`` reached is the answer.  Every child
    visited is charged to ``search``'s node and time budgets.
    """
    chosen: list[int] = []
    pools = [allowed]  # untried candidates at each depth; len(chosen) + 1 entries
    while pools:
        pool = pools[-1]
        depth = len(chosen)
        if depth + pool.bit_count() < size:
            pools.pop()
            if chosen:
                chosen.pop()
            continue
        bit = pool & -pool
        v = bit.bit_length() - 1
        pool ^= bit
        pools[-1] = pool
        search._charge()
        if depth + 1 == size:
            return chosen + [v]
        child = pool & adjacency[v]
        need = size - depth - 1
        if _colour_count(adjacency, child, need) >= need:
            chosen.append(v)
            pools.append(child)
    raise RuntimeError("lex-min extraction lost the clique it certified")


def _solve(
    adjacency: list[int],
    allowed: int,
    star_ids: list[int] | None,
    validate: Callable[[list[int]], None],
    *,
    node_budget: int,
    time_budget_secs: float,
    deterministic: bool,
) -> SearchOutcome:
    """Engine entry shared by the partition and set-system frontends.

    ``validate`` rechecks the final witness against the frontend's own
    relation and raises if it is not a valid family.
    """
    start = time.perf_counter()
    star_size = None if star_ids is None else len(star_ids)

    if star_ids:
        star_mask = 0
        for v in star_ids:
            star_mask |= 1 << v
        if star_mask & ~allowed:
            raise ValueError("seed family contains ineligible vertices")

    if not allowed:
        return SearchOutcome(
            max_size=0,
            witness=[],
            star_size=star_size,
            star_is_maximum=None if star_size is None else star_size == 0,
            nodes_explored=0,
            elapsed=time.perf_counter() - start,
            upper_bound_at_root=0,
        )

    perm_adj, ids = _permute(adjacency, allowed)
    where = {v: i for i, v in enumerate(ids)}
    full = (1 << len(ids)) - 1
    seed = [where[v] for v in star_ids] if star_ids else []

    # Recursion depth tracks the clique size, which can approach the
    # vertex count on dense instances.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), len(ids) + 500))
    search = _CliqueSearch(perm_adj, node_budget, time_budget_secs)
    root_bound = search.root_bound(full)
    try:
        size, witness_perm = search.maximum(full, seed)
        witness = sorted(ids[i] for i in witness_perm)
        if deterministic and size > 0:
            # Lex order is over the original ids, not the permuted ones.
            witness = _lex_min_witness(adjacency, allowed, size, search)
    except _Abort as abort:
        best = sorted(ids[i] for i in search.best)
        raise SearchBudgetExceeded(
            str(abort),
            lower_bound=search.best_size,
            upper_bound=root_bound,
            witness=best,
            nodes_explored=search.nodes,
            elapsed=time.perf_counter() - start,
        ) from None

    validate(witness)
    if len(witness) != size:
        raise RuntimeError("witness size disagrees with certified maximum")
    return SearchOutcome(
        max_size=size,
        witness=witness,
        star_size=star_size,
        star_is_maximum=None if star_size is None else star_size == size,
        nodes_explored=search.nodes,
        elapsed=time.perf_counter() - start,
        upper_bound_at_root=root_bound,
    )


def max_family(
    graph: IntersectionGraph,
    *,
    star: list[int] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_secs: float = DEFAULT_TIME_BUDGET_SECS,
    deterministic: bool = True,
) -> SearchOutcome:
    """Exact maximum (properly) t-intersecting family in ``graph``.

    ``star`` optionally seeds the incumbent with a known family (vertex
    ids); it must itself be a valid family.  The returned witness is
    rechecked against the relation, and with deterministic=True it is
    the lexicographically smallest maximum family.
    """
    validate = partial(_validate_family, graph.partitions, graph.relation, graph.t)
    if star:
        validate(star)
    return _solve(
        graph.adjacency,
        graph.eligible,
        star,
        validate,
        node_budget=node_budget,
        time_budget_secs=time_budget_secs,
        deterministic=deterministic,
    )


def check_uniqueness(
    graph: IntersectionGraph,
    star_ids: list[int],
    max_size: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_secs: float = DEFAULT_TIME_BUDGET_SECS,
) -> bool:
    """True iff the star is the only maximum family in ``graph``.

    Assumes max_size is the certified clique number and the star
    attains it.  The star is unique exactly when no vertex outside it
    lies in any clique of the maximum size, which one forced-inclusion
    decision search per outside vertex settles.
    """
    if len(star_ids) != max_size:
        raise ValueError("uniqueness needs the star to attain the maximum")
    star_mask = 0
    for v in star_ids:
        star_mask |= 1 << v
    if max_size == 0:
        return True
    start = time.perf_counter()
    search = _CliqueSearch(graph.adjacency, node_budget, time_budget_secs)
    outside = graph.eligible & ~star_mask
    try:
        while outside:
            bit = outside & -outside
            v = bit.bit_length() - 1
            outside ^= bit
            if search.exists(graph.eligible & graph.adjacency[v], max_size - 1):
                return False
    except _Abort as abort:
        raise SearchBudgetExceeded(
            str(abort),
            lower_bound=max_size,
            upper_bound=max_size,
            witness=sorted(star_ids),
            nodes_explored=search.nodes,
            elapsed=time.perf_counter() - start,
        ) from None
    return True


def max_family_all_lengths(
    n: int,
    t: int,
    relation: Relation | str = Relation.MULTISET,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_secs: float = DEFAULT_TIME_BUDGET_SECS,
    deterministic: bool = True,
) -> SearchOutcome:
    """Exact maximum t-intersecting subset of P(n), all lengths mixed.

    Seeds with the appropriate star: first t parts equal to 1 for the
    multiset relation, parts containing {1, ..., t} for the proper one.
    """
    relation = Relation(relation)
    members = enumerate_all(n, max_vertices=max_vertices)
    graph = build_graph(members, relation, t, max_vertices=max_vertices)
    return max_family(
        graph,
        star=star_ids(members, relation, t),
        node_budget=node_budget,
        time_budget_secs=time_budget_secs,
        deterministic=deterministic,
    )


# -- plain set systems (cross-validation ground truth) -----------------


@dataclass(frozen=True)
class SetFamilyInstance:
    """r-subsets of {1..n} under |A & B| >= t: the classical setting."""

    ground_size: int
    member_size: int
    t: int

    def __post_init__(self) -> None:
        n, r, t = self.ground_size, self.member_size, self.t
        if not (1 <= t <= r <= n):
            raise ValueError(f"need 1 <= t <= r <= n, got t={t}, r={r}, n={n}")

    @property
    def star_size(self) -> int:
        """Size of the t-star {A : {1..t} subset of A}."""
        return comb(self.ground_size - self.t, self.member_size - self.t)

    @property
    def at_or_above_threshold(self) -> bool:
        """n >= (r-t+1)(t+1): exactly when the t-star is a maximum family."""
        return self.ground_size >= (self.member_size - self.t + 1) * (self.t + 1)

    @property
    def ak_maximum(self) -> int:
        """The maximum family size, by the Ahlswede-Khachatrian theorem.

        The largest of the families {A : |A & {1..t+2i}| >= t+i} over
        i >= 0, of sizes sum_{j >= t+i} C(t+2i, j) C(n-t-2i, r-j).
        """
        n, r, t = self.ground_size, self.member_size, self.t
        return max(
            sum(comb(t + 2 * i, j) * comb(n - t - 2 * i, r - j) for j in range(t + i, r + 1))
            for i in range((n - t) // 2 + 1)
        )


def max_family_set_system(
    instance: SetFamilyInstance,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_secs: float = DEFAULT_TIME_BUDGET_SECS,
    deterministic: bool = True,
) -> SearchOutcome:
    """Exact maximum t-intersecting family of r-subsets of {1..n}.

    Vertices are itertools.combinations order (lexicographic); the
    witness ids index into that order.  Seeded with the t-star.

    The search runs over vertex 0 = {1..r} and its neighbours only:

    - Same maximum: S_n acts transitively on r-subsets and preserves
      |A & B|, so some maximum clique contains vertex 0.
    - Same witness: hence the lexicographically smallest maximum clique
      contains id 0, so it lies inside {0} | N(0), and the lex-min
      extraction over that set returns it.
    - The seed stays valid: every t-star member contains {1..t}, a
      subset of vertex 0, so the star lies inside {0} | N(0).

    ``upper_bound_at_root`` is then the colour bound over {0} | N(0).
    """
    n, r, t = instance.ground_size, instance.member_size, instance.t
    n_vertices = comb(n, r)
    if n_vertices > max_vertices:
        raise ResourceGuardError(f"C({n}, {r}) = {n_vertices} exceeds the cap {max_vertices}")
    members = list(combinations(range(1, n + 1), r))
    masks = [sum(1 << e for e in member) for member in members]
    adjacency = [0] * n_vertices
    for u in range(n_vertices):
        mu = masks[u]
        for v in range(u + 1, n_vertices):
            if (mu & masks[v]).bit_count() >= t:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    allowed = 1 | adjacency[0]
    prefix = set(range(1, t + 1))
    star = [i for i, member in enumerate(members) if prefix.issubset(member)]

    def validate(ids: list[int]) -> None:
        for a, b in combinations(ids, 2):
            if (masks[a] & masks[b]).bit_count() < t:
                raise RuntimeError("set-system witness fails the intersection recheck")

    return _solve(
        adjacency,
        allowed,
        star,
        validate,
        node_budget=node_budget,
        time_budget_secs=time_budget_secs,
        deterministic=deterministic,
    )
