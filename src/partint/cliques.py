"""Exact maximum intersecting families via branch-and-bound clique search.

An intersection graph has one vertex per partition and an edge wherever
the chosen relation holds at level t.  A family is (properly)
t-intersecting exactly when its vertices form a clique AND every member
relates to itself (a partition with fewer than t parts, or fewer than t
distinct parts, cannot t-intersect anything, itself included).  Such
ineligible vertices are excluded up front, so the maximum family size
is the clique number of the graph restricted to eligible vertices.

Adjacency comes from a token index, never from testing pairs.  Each
vertex is a set of tokens (its (part, occurrence-index) encoding under
the multiset relation, its distinct parts under the proper one, its
elements for a set system), and two vertices are adjacent when they
share at least t tokens.  The vertices holding each token form one
bitmask, and for each vertex bit-sliced "at least j shared" counters
over the masks of its tokens give its neighbours in O(tokens * t)
big-int operations.  Renumbering reuses the index: the adjacency of
vertices in a new order is the token index rebuilt over their token
lists taken in that order, at the cost of building the graph.

The engine is a Tomita-style maximum-clique search: vertices renumbered
by descending eligible degree, adjacency kept as arbitrary-precision
int bitsets, candidate sets bounded by greedy sequential colouring, and
the incumbent seeded with a known clique (normally the star family) so
the search only has to certify optimality or beat it.  A frontend may
split it into root branches that each force a few vertices; the set
systems branch over the orbits of a symmetry group.  It runs on an
explicit stack with no recursion, so no clique is too deep for the
interpreter's recursion limit.  Budgets on explored nodes and wall time
turn an over-long search into a SearchBudgetExceeded carrying the best
bounds found, never a silently inexact answer.  With deterministic=True
the reported witness is the lexicographically smallest maximum clique in
vertex order: once the size is certified, one colour-bounded depth-first
search over the original ids, trying vertices in ascending order, stops
at the first clique of that size.  Before it branches it tries to
complete greedily, lowest candidate first, which on a star made of the
lowest ids finishes in one pass.

Certificates.  A greedy colouring splits the vertices into independent
classes, and a clique takes at most one vertex per class, so a colouring
with as many classes as the seed has members proves the seed maximum.
Before any search the allowed vertices are coloured in id order, and
only when that is not tight are they renumbered by degree and coloured
again; when either colouring is tight the search is skipped.  The
classes are returned in ``SearchOutcome.colour_classes``, and
``check_colour_certificate`` verifies them against the relation itself.
``check_uniqueness`` reuses such a colouring: a maximum clique meets
every class, so only vertices adjacent to every class other than their
own can join one.  Both frontends recheck seeds and witnesses with
``_validate_family``, against the relation itself, on sorted tuples: an
r-subset's elements are its distinct parts, so the proper relation
counts what two subsets share.  The check goes through the common core:
parts every member holds, whose size bounds every pairwise intersection
from below.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import combinations
from math import comb

from .intersect import (
    Relation,
    distinct_parts,
    indexed_part_set,
    multiset_common_count,
    properly_t_intersects,
    t_intersects,
)
from .partitions import (
    DEFAULT_MAX_VERTICES,
    Partition,
    ResourceGuardError,
)

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

    ``_root_classes`` is left by ``max_family`` for ``check_uniqueness``:
    seed size -> the class id lists of the root colouring of the eligible
    vertices when it has exactly that many classes, else None.
    """

    partitions: list[Partition]
    relation: Relation
    t: int
    adjacency: list[int]
    eligible: int
    _index: dict[Partition, int] = field(default_factory=dict, repr=False)
    _root_classes: dict[int, list[list[int]] | None] = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.partitions)

    def vertex_ids(self, family) -> list[int]:
        """Canonical ids of the given partitions, sorted ascending."""
        if not self._index:
            self._index.update((p, i) for i, p in enumerate(self.partitions))
        return sorted(self._index[p] for p in family)

    def _renumbered(self, ids: list[int]) -> list[int]:
        """The adjacency among ``ids``, vertex ``ids[i]`` renumbered i, built afresh."""
        return _partition_adjacency([self.partitions[v] for v in ids], self.relation, self.t)


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

    relates = t_intersects if relation is Relation.MULTISET else properly_t_intersects
    eligible = 0
    for v, p in enumerate(partitions):
        if relates(p, p, t):
            eligible |= 1 << v
    return IntersectionGraph(
        partitions=list(partitions),
        relation=relation,
        t=t,
        adjacency=_partition_adjacency(partitions, relation, t),
        eligible=eligible,
    )


def _partition_adjacency(partitions: list[Partition], relation: Relation, t: int) -> list[int]:
    """Adjacency of ``partitions`` at level t, ids in list order.

    At t >= 1 each partition is encoded as its token set, the
    (part, occurrence-index) pairs under the multiset relation and the
    distinct parts under the proper one, and the encodings go through
    the token index.  At t = 0 every pair relates: the graph is complete.
    """
    n = len(partitions)
    if t == 0:
        full = (1 << n) - 1
        return [full & ~(1 << v) for v in range(n)]
    encode = indexed_part_set if relation is Relation.MULTISET else distinct_parts
    return _shared_token_adjacency([encode(p) for p in partitions], t)


def _shared_token_adjacency(token_lists: list, t: int) -> list[int]:
    """Adjacency of vertices that share at least ``t`` >= 1 tokens.

    Each vertex is a set of hashable tokens.  ``holders[token]`` masks
    the vertices holding it.  For each vertex, bit-sliced counters
    ``at_least[j]`` mask the vertices met in at least j of its tokens so
    far; each token's holders raise them, highest level first so that a
    vertex is counted once per token.  ``at_least[t]`` minus the vertex
    itself is its neighbourhood.  A vertex with fewer than t tokens
    shares t with nothing and stays isolated.
    """
    holders: dict = {}
    for v, tokens in enumerate(token_lists):
        bit = 1 << v
        for token in tokens:
            holders[token] = holders.get(token, 0) | bit
    adjacency = []
    for v, tokens in enumerate(token_lists):
        at_least = [0] * (t + 1)  # at_least[0] is unused
        for token in tokens:
            mask = holders[token]
            for j in range(t, 1, -1):
                at_least[j] |= at_least[j - 1] & mask
            at_least[1] |= mask
        adjacency.append(at_least[t] & ~(1 << v))
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
    # Colour bound over the searched vertices, >= max_size.  When a
    # colouring closes the instance it is that certificate's class count.
    upper_bound_at_root: int
    # The classes, in original ids, of a colouring of the searched
    # vertices with exactly max_size classes, when one was found.
    colour_classes: list[list[int]] | None = None


class _Abort(Exception):
    """Internal: ends a search when a budget is exhausted."""


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

    def _charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _Abort("node budget exhausted")
        if self.nodes % 256 == 0 and time.perf_counter() > self.deadline:
            raise _Abort("time budget exhausted")

    def _search(self, candidates: int, stop: int) -> None:
        """Raise the incumbent towards a maximum clique of ``candidates``.

        Each frame of the explicit stack holds its untried candidates and
        their greedy colour classes (``_colour_classes``), and is charged
        one node when entered.  A frame tries the highest id of its last
        class next, and is dropped once its depth plus its class count
        cannot beat the incumbent.  That drops every exhausted frame too:
        after its first vertex the incumbent is deeper than the frame.
        The search ends when the incumbent reaches ``stop``.

        Classes numbered best_size - depth or lower when a frame is
        entered are never branched on, as the incumbent only grows, so
        their masks are blanked and only their places kept: a deep
        search holds a few masks per frame, not one per class.
        """
        chosen: list[int] = []  # the clique leading to the top frame
        frames: list[list] = []  # [untried candidates, colour classes]
        child = candidates  # the next frame to enter, if any
        while True:
            if child:
                self._charge()
                classes = _colour_classes(self.adj, child, child.bit_count())
                low = max(0, min(self.best_size - len(frames), len(classes)))
                classes[:low] = [0] * low
                frames.append([child, classes])
            frame = frames[-1]
            classes = frame[1]
            if len(chosen) + len(classes) <= self.best_size:
                frames.pop()
                if not chosen:
                    return
                chosen.pop()
                child = 0
                continue
            v = classes[-1].bit_length() - 1
            bit = 1 << v
            classes[-1] ^= bit
            if not classes[-1]:
                classes.pop()
            frame[0] ^= bit
            child = frame[0] & self.adj[v]
            if child:
                chosen.append(v)
            elif len(chosen) + 1 > self.best_size:
                self.best_size = len(chosen) + 1
                self.best = chosen + [v]
                if self.best_size >= stop:
                    return

    def maximum(self, candidates: int, beat: int) -> list[int]:
        """A maximum clique within ``candidates`` if it has more than ``beat`` members.

        Returns it sorted, or [] when no clique there beats ``beat``.  The
        incumbent starts at size ``beat`` with no witness (a known clique
        elsewhere, such as a seed), so the search only explores cliques
        that could be larger.
        """
        self.best_size = beat
        self.best = []
        if candidates:
            # no clique outgrows the candidates
            self._search(candidates, candidates.bit_count())
        return sorted(self.best)

    def exists(self, candidates: int, target: int) -> bool:
        """True iff ``candidates`` contains a clique of size >= target."""
        if target <= 0:
            return True
        if candidates.bit_count() < target:
            return False
        self.best_size = target - 1
        self.best = []
        self._search(candidates, target)
        return self.best_size >= target


def _permute(
    adjacency: list[int], allowed: int, rebuild: Callable[[list[int]], list[int]]
) -> tuple[list[int], list[int]]:
    """Renumber allowed vertices by descending degree (ties: ascending id).

    Returns (renumbered adjacency among the allowed vertices,
    position -> original id).  ``rebuild(ids)`` builds the rows afresh,
    with ``ids[i]`` as vertex i, from the frontend's token lists taken
    in that order, at the cost of building the graph.
    """
    ids = [v for v in range(len(adjacency)) if (allowed >> v) & 1]
    ids.sort(key=lambda v: (-(adjacency[v] & allowed).bit_count(), v))
    return rebuild(ids), ids


def _shared_parts(a: tuple[int, ...], b: tuple[int, ...], distinct: bool) -> tuple[int, ...]:
    """Parts two sorted tuples share: with multiplicity, or distinct values once.

    Walks both tuples with two pointers, as ``multiset_common_count`` and
    ``distinct_common_count`` do, and keeps the common parts they count.
    """
    shared: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            shared.append(x)
            i += 1
            j += 1
            if distinct:
                while i < la and a[i] == x:
                    i += 1
                while j < lb and b[j] == x:
                    j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return tuple(shared)


def _validate_family(members: list[tuple[int, ...]], relation: Relation, t: int) -> None:
    """Recheck a family against the relation itself, not the adjacency bits.

    ``members`` are sorted tuples: partitions' parts, or r-subsets.

    First the members are folded into their common core: the parts all
    of them share, with min multiplicity under the multiset relation and
    as distinct values under the proper one.  Every member contains the
    core, so any two members (and each member with itself) share at
    least its size; a core of t or more parts proves the family valid.
    Otherwise every member and every pair is counted directly: shared
    parts with multiplicity by a two-pointer walk, shared distinct
    values as the bit count of the AND of two masks, bit x set for each
    value x a member holds.
    """
    distinct = relation is Relation.PROPER
    core = members[0] if members else ()
    for parts in members:
        core = _shared_parts(core, parts, distinct)
        if len(core) < t:
            break
    else:
        return
    if distinct:
        keys = []
        for parts in members:
            mask = 0
            for x in parts:
                mask |= 1 << x
            keys.append(mask)

        def common(a: int, b: int) -> int:
            return (a & b).bit_count()

    else:
        keys = members
        common = partial(multiset_common_count, stop_at=t)
    for key, parts in zip(keys, members):
        if common(key, key) < t:
            raise RuntimeError(f"witness member {parts} cannot {t}-intersect itself")
    for (ka, pa), (kb, pb) in combinations(zip(keys, members), 2):
        if common(ka, kb) < t:
            raise RuntimeError(f"witness members {pa} and {pb} do not {t}-intersect")


def _colour_classes(adjacency: list[int], candidates: int, stop: int) -> list[int]:
    """Greedy colour classes of ``candidates`` in id order, at most ``stop`` of them.

    Each class takes the lowest uncoloured vertex, then every higher one
    not adjacent to the class so far.  Returns the class masks; fewer
    than ``stop`` classes cover all of ``candidates``, and then their
    count bounds its clique number.
    """
    classes: list[int] = []
    while candidates and len(classes) < stop:
        members = 0
        avail = candidates
        while avail:
            bit = avail & -avail
            members |= bit
            avail = (avail ^ bit) & ~adjacency[bit.bit_length() - 1]
        candidates ^= members
        classes.append(members)
    return classes


def _bit_ids(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    ids = []
    while mask:
        bit = mask & -mask
        ids.append(bit.bit_length() - 1)
        mask ^= bit
    return ids


def _root_colouring(
    adjacency: list[int], allowed: int, size: int, rebuild: Callable[[list[int]], list[int]]
) -> tuple[list[int], list[int] | None, list[int] | None]:
    """A greedy colouring of ``allowed`` that may certify a clique of ``size``.

    Colours in id order first, counting no further than size + 1
    classes.  With exactly ``size`` classes that colouring is returned,
    with no renumbering.  Otherwise the vertices are renumbered by
    descending degree (``_permute``, whose rows ``rebuild`` builds
    afresh in the new order) and coloured in full, as the search colours
    its root.  Returns (classes, perm_adj, ids): the class masks, and for
    the degree order the renumbered adjacency and the position ->
    original id list the masks refer to (else None, None).
    """
    classes = _colour_classes(adjacency, allowed, size + 1)
    if len(classes) == size:
        return classes, None, None
    perm_adj, ids = _permute(adjacency, allowed, rebuild)
    return _colour_classes(perm_adj, (1 << len(ids)) - 1, len(ids)), perm_adj, ids


def _class_ids(classes: list[int], ids: list[int] | None) -> list[list[int]]:
    """Colour class masks as ascending original ids, through ``ids`` if renumbered."""
    if ids is None:
        return [_bit_ids(c) for c in classes]
    return [sorted(ids[i] for i in _bit_ids(c)) for c in classes]


def _greedy_completion(adjacency: list[int], pool: int, need: int) -> list[int] | None:
    """The first ``need`` vertices of the lowest-first greedy clique in ``pool``, if any."""
    path: list[int] = []
    while pool and len(path) < need:
        bit = pool & -pool
        v = bit.bit_length() - 1
        path.append(v)
        pool = (pool ^ bit) & adjacency[v]
    return path if len(path) == need else None


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

    Greedy completion.  At the root and before each child that is not
    its node's first, the search first follows the child's lowest-first
    path: take the lowest candidate, keep its neighbours, repeat.  If
    that path reaches ``size``, the depth-first search would meet the
    same clique before any other, along the same path:

    - Its first child at every step is the lowest candidate, the next
      vertex of the path.
    - Pruning never cuts the path.  Each step's candidates contain the
      rest of the path, a clique of the size m still needed, and a
      greedy colouring of a set holding a clique of size m uses at least
      m classes, so the count stopped at m reaches m.

    So the path is returned, charged one node per vertex as the search
    would charge it.  A first child lies on its parent's path, already
    tried, so it is not tried again.
    """
    path = _greedy_completion(adjacency, allowed, size)
    if path is not None:
        for _ in path:
            search._charge()
        return path
    chosen: list[int] = []
    pools = [allowed]  # untried candidates at each depth; len(chosen) + 1 entries
    first = True  # the top node's next child is its first
    while pools:
        pool = pools[-1]
        depth = len(chosen)
        if depth + pool.bit_count() < size:
            pools.pop()
            if chosen:
                chosen.pop()
            first = False
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
        if not first:
            path = _greedy_completion(adjacency, child, need)
            if path is not None:
                for _ in path:
                    search._charge()
                return chosen + [v] + path
        first = len(_colour_classes(adjacency, child, need)) >= need
        if first:
            chosen.append(v)
            pools.append(child)
    raise RuntimeError("lex-min extraction lost the clique it certified")


def _solve(
    adjacency: list[int],
    allowed: int,
    star_ids: list[int] | None,
    validate: Callable[[list[int]], None],
    *,
    rebuild: Callable[[list[int]], list[int]],
    branches: list[tuple[list[int], int]] | None = None,
    node_budget: int,
    time_budget_secs: float,
    deterministic: bool,
) -> SearchOutcome:
    """Engine entry shared by the partition and set-system frontends.

    ``validate`` checks a family against the frontend's own relation and
    raises if it is not valid.  It runs on the seed before the search and
    on the final witness unless that is the seed itself, so every
    returned family is checked once.  ``rebuild(ids)`` is the adjacency
    among ``ids`` with ``ids[i]`` as vertex i, built afresh from the
    frontend's token lists; every degree-ordered renumbering
    (``_permute``) takes its rows from it.

    A root colouring with as many classes as the seed certifies the seed
    maximum, and the branch-and-bound search is skipped; the id-order
    colouring even skips the renumbering (see ``_root_colouring``).

    Otherwise the maximum is searched one root branch at a time.  A
    branch (forced ids, candidate mask) is a clique of ``allowed``
    vertices and a mask of their common neighbours within ``allowed``;
    it yields the forced ids plus a maximum clique of the candidates,
    searched on their own degree-ordered renumbering (``_permute``), the
    root colouring's when the candidates are all of ``allowed``.  The
    maximum is the largest of the seed and the branches' cliques, so the
    caller must show that some maximum clique of ``allowed`` has the form
    of one branch.  The default is the single branch ([], allowed).
    Every branch is charged one node per forced vertex, as the search
    charges a frame, and all branches share one node and time budget.
    """
    start = time.perf_counter()
    star_size = None if star_ids is None else len(star_ids)

    if star_ids:
        validate(star_ids)
        star_mask = 0
        for v in star_ids:
            star_mask |= 1 << v
        if star_mask & ~allowed:
            raise ValueError("seed family contains ineligible vertices")

    seed_ids = sorted(star_ids) if star_ids else []
    classes, perm_adj, ids = _root_colouring(adjacency, allowed, len(seed_ids), rebuild)
    root_bound = len(classes)
    # Each branch sets the adjacency it searches; the extraction brings its own.
    search = _CliqueSearch([], node_budget, time_budget_secs)
    size, witness = len(seed_ids), seed_ids
    upper_bound = root_bound
    forced, branch_ids = [], []  # the branch whose best clique search.best holds
    try:
        if root_bound > size:
            for branch_forced, candidates in branches or [([], allowed)]:
                for _ in branch_forced:
                    search._charge()
                if candidates == allowed:
                    search.adj, branch_ids = perm_adj, ids
                else:
                    search.adj, branch_ids = _permute(adjacency, candidates, rebuild)
                forced = branch_forced
                found = search.maximum((1 << len(branch_ids)) - 1, max(size - len(forced), 0))
                if len(forced) + len(found) > size:
                    size = len(forced) + len(found)
                    witness = sorted(forced + [branch_ids[i] for i in found])
            upper_bound = size  # certified; only the extraction can abort now
        if deterministic and size > 0:
            # Lex order is over the original ids, not the permuted ones.
            witness = _lex_min_witness(adjacency, allowed, size, search)
    except _Abort as abort:
        if len(forced) + len(search.best) > size:  # the branch had beaten the incumbent
            size = len(forced) + len(search.best)
            witness = sorted(forced + [branch_ids[i] for i in search.best])
        raise SearchBudgetExceeded(
            str(abort),
            lower_bound=size,
            upper_bound=upper_bound,
            witness=witness,
            nodes_explored=search.nodes,
            elapsed=time.perf_counter() - start,
        ) from None

    if not star_ids or witness != seed_ids:
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
        colour_classes=_class_ids(classes, ids) if root_bound == size else None,
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
    ids); it must itself be a valid family.  The seed and the returned
    witness are checked against the relation itself, and with
    deterministic=True the witness is the lexicographically smallest
    maximum family.
    """
    outcome = _solve(
        graph.adjacency,
        graph.eligible,
        star,
        lambda ids: _validate_family(
            [graph.partitions[v].parts for v in ids], graph.relation, graph.t
        ),
        rebuild=graph._renumbered,
        node_budget=node_budget,
        time_budget_secs=time_budget_secs,
        deterministic=deterministic,
    )
    # The root colouring was tight for the seed exactly when its bound is
    # the seed size; then it closed the instance and is colour_classes.
    seed_size = len(star or ())
    tight = outcome.upper_bound_at_root == seed_size
    graph._root_classes[seed_size] = outcome.colour_classes if tight else None
    return outcome


def check_colour_certificate(
    graph: IntersectionGraph, classes: list[list[int]], size: int
) -> bool:
    """True iff ``classes`` proves that no family in ``graph`` exceeds ``size``.

    A family takes at most one member from each class of pairwise
    unrelated vertices, so ``size`` such classes covering every eligible
    vertex bound it by ``size``.  Checks that there are ``size`` classes,
    that they are disjoint and cover exactly the vertices whose
    partitions relate to themselves, and that no two members of a class
    relate.  Every relation is decided by ``t_intersects`` or
    ``properly_t_intersects``, never by the adjacency bits.
    """
    relates = t_intersects if graph.relation is Relation.MULTISET else properly_t_intersects
    t, partitions = graph.t, graph.partitions
    if len(classes) != size:
        return False
    covered = [v for members in classes for v in members]
    eligible = {v for v, p in enumerate(partitions) if relates(p, p, t)}
    if len(covered) != len(set(covered)) or set(covered) != eligible:
        return False
    return not any(
        relates(partitions[u], partitions[v], t)
        for members in classes
        for u, v in combinations(members, 2)
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

    A root colouring with max_size classes (see ``_root_colouring``)
    rules most vertices out first.  A maximum clique takes one vertex
    from each class, so a vertex in one must lie in each class or have a
    neighbour in it: only vertices of ``eligible & AND_C (cover(C) | C)``,
    where cover(C) is the union of the neighbourhoods of C's members,
    are searched.  When ``max_family`` seeded with a family of max_size
    members has already coloured ``graph``, its colouring is reused.
    """
    if len(star_ids) != max_size:
        raise ValueError("uniqueness needs the star to attain the maximum")
    star_mask = 0
    for v in star_ids:
        star_mask |= 1 << v
    if max_size == 0:
        return True
    start = time.perf_counter()
    adjacency, eligible = graph.adjacency, graph.eligible
    outside = eligible & ~star_mask
    if max_size in graph._root_classes:
        tight_classes = graph._root_classes[max_size]
    else:
        classes, _, ids = _root_colouring(adjacency, eligible, max_size, graph._renumbered)
        tight_classes = _class_ids(classes, ids) if len(classes) == max_size else None
    if tight_classes is not None:
        for members in tight_classes:
            reach = 0
            for v in members:
                reach |= adjacency[v] | (1 << v)
            outside &= reach
    search = _CliqueSearch(adjacency, node_budget, time_budget_secs)
    try:
        while outside:
            bit = outside & -outside
            v = bit.bit_length() - 1
            outside ^= bit
            if search.exists(eligible & adjacency[v], max_size - 1):
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


def _vertex_zero_orbits(members: list[tuple[int, ...]], r: int, neighbours: int) -> list[int]:
    """The orbits of vertex 0's stabiliser on its neighbours, as masks by ascending j.

    Vertex 0 is {1..r}, and its stabiliser S_r x S_{n-r} permutes
    {1..r} and {r+1..n} separately.  Orbit j holds the neighbours A with
    |A & {1..r}| = j: the stabiliser preserves that count, and maps any
    such A to any other by matching the j elements inside {1..r} and
    the r - j outside.
    """
    orbits: dict[int, int] = {}
    for v in _bit_ids(neighbours):
        j = sum(x <= r for x in members[v])
        orbits[j] = orbits.get(j, 0) | 1 << v
    return [orbits[j] for j in sorted(orbits)]


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
    witness ids index into that order.  Members are adjacent when they
    share at least t elements, read off the token index over elements.
    Seeded with the t-star.

    The search runs over vertex 0 = {1..r} and its neighbours only:

    - Same maximum: S_n acts transitively on r-subsets and preserves
      |A & B|, so some maximum clique contains vertex 0.
    - Same witness: hence the lexicographically smallest maximum clique
      contains id 0, so it lies inside {0} | N(0), and the lex-min
      extraction over that set returns it.
    - The seed stays valid: every t-star member contains {1..t}, a
      subset of vertex 0, so the star lies inside {0} | N(0).

    ``upper_bound_at_root`` is then the colour bound over {0} | N(0).
    The seed and witness are rechecked by ``_validate_family`` under the
    proper relation, which on sorted r-subsets counts |A & B|.

    The maximum is searched in one branch per orbit O_j of vertex 0's
    stabiliser on N(0) (``_vertex_zero_orbits``), by ascending j.  The
    branch of O_j forces {0, rep_j}, rep_j the lowest id in O_j, and its
    candidates are the common neighbours of both outside every earlier
    orbit.  Some maximum clique K lies in a branch, with 0 and rep_j:

    - If K = {0}, the seed, a nonempty clique, is already as large.
    - Else let O_j be the first orbit in branch order that K meets, and
      A a member of K in it.  Some s in the stabiliser maps A to rep_j.
      s fixes 0 and preserves adjacency, so s(K) is a maximum clique
      holding 0 and rep_j, and its other members are common neighbours
      of both.  s preserves every orbit, so s(K) meets no orbit before
      O_j either.

    The lex-min extraction still runs over all of {0} | N(0), so the
    witness does not depend on the branches.
    """
    n, r, t = instance.ground_size, instance.member_size, instance.t
    n_vertices = comb(n, r)
    if n_vertices > max_vertices:
        raise ResourceGuardError(f"C({n}, {r}) = {n_vertices} exceeds the cap {max_vertices}")
    members = list(combinations(range(1, n + 1), r))
    adjacency = _shared_token_adjacency(members, t)
    allowed = 1 | adjacency[0]
    prefix = set(range(1, t + 1))
    star = [i for i, member in enumerate(members) if prefix.issubset(member)]
    branches = []
    earlier = 0
    for orbit in _vertex_zero_orbits(members, r, adjacency[0]):
        rep = (orbit & -orbit).bit_length() - 1
        branches.append(([0, rep], adjacency[0] & adjacency[rep] & ~earlier))
        earlier |= orbit

    return _solve(
        adjacency,
        allowed,
        star,
        lambda ids: _validate_family([members[v] for v in ids], Relation.PROPER, t),
        rebuild=lambda ids: _shared_token_adjacency([members[v] for v in ids], t),
        branches=branches,
        node_budget=node_budget,
        time_budget_secs=time_budget_secs,
        deterministic=deterministic,
    )
