"""Exact search engine against brute force and networkx oracles."""

import random
import sys
from collections import Counter
from functools import partial
from itertools import combinations, permutations
from math import comb
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from partint import cliques, intersect
from partint import (
    Partition,
    Relation,
    ResourceGuardError,
    RunConfig,
    SearchBudgetExceeded,
    SetFamilyInstance,
    build_graph,
    check_uniqueness,
    count_all,
    count_partitions,
    distinct_common_count,
    enumerate_all,
    enumerate_partitions,
    max_family,
    max_family_set_system,
    multiset_common_count,
    properly_t_intersects,
    solve_instance,
    t_intersects,
    witness_digest,
)
from partint.cliques import check_colour_certificate
from partint.stars import star_ids


def common_fn(relation):
    return multiset_common_count if relation == "multiset" else distinct_common_count


def oracle_max_clique(members, relation, t):
    """networkx maximum clique over the eligible induced subgraph."""
    common = common_fn(relation)
    eligible = [
        i for i, p in enumerate(members) if t == 0 or common(p.parts, p.parts) >= t
    ]
    graph = nx.Graph()
    graph.add_nodes_from(eligible)
    for i, j in combinations(eligible, 2):
        if t == 0 or common(members[i].parts, members[j].parts) >= t:
            graph.add_edge(i, j)
    best = 0
    best_sets = []
    for clique in nx.find_cliques(graph):
        if len(clique) > best:
            best, best_sets = len(clique), [sorted(clique)]
        elif len(clique) == best:
            best_sets.append(sorted(clique))
    return best, best_sets


def renumber_bitwise(adjacency, ids):
    """The rows of ``ids`` among themselves, ``ids[i]`` as vertex i, one bit at a time."""
    where = {v: i for i, v in enumerate(ids)}
    rows = [0] * len(ids)
    for v in ids:
        for u in range(len(adjacency)):
            if adjacency[v] >> u & 1 and u in where:
                rows[where[v]] |= 1 << where[u]
    return rows


def reference_permute(adjacency, allowed):
    """``cliques._permute`` one bit at a time, through an id -> position map."""
    ids = [v for v in range(len(adjacency)) if (allowed >> v) & 1]
    ids.sort(key=lambda v: (-(adjacency[v] & allowed).bit_count(), v))
    return renumber_bitwise(adjacency, ids), ids


def edge_tokens(n_vertices, edges):
    """Token lists of a graph at t = 1: each vertex holds the ids of its edges.

    Two vertices share a token, the id of the edge between them, exactly
    when they are adjacent.
    """
    token_lists = [[] for _ in range(n_vertices)]
    for i, (u, v) in enumerate(edges):
        token_lists[u].append(i)
        token_lists[v].append(i)
    return token_lists


def pairwise_reference(members, relation, levels):
    """Adjacency of every level in ``levels``, one two-pointer count per pair.

    ``t_intersects`` and ``properly_t_intersects`` compare these counts
    with t, so one count capped at max(levels) decides every level.
    """
    common = common_fn(relation)
    top = max(levels)
    parts = [p.parts for p in members]
    shared = [[0] * len(parts) for _ in parts]
    for u, (a, row) in enumerate(zip(parts, shared)):
        for v in range(u + 1, len(parts)):
            row[v] = shared[v][u] = common(a, parts[v], stop_at=top)
    return {
        t: [int("".join("1" if c >= t else "0" for c in reversed(row)), 2) for row in shared]
        for t in levels
    }


# cross_validate_ekr's default grid: t <= 2, t <= r <= 4, r <= n <= 12
EKR_GRID = [
    (n, r, t) for t in (1, 2) for r in range(t, 5) for n in range(r, 13)
]


def set_system_graph(n, r, t):
    """Adjacency and t-star of the r-subsets of {1..n}, in combinations order."""
    members = [set(m) for m in combinations(range(1, n + 1), r)]
    adjacency = [0] * len(members)
    for u, v in combinations(range(len(members)), 2):
        if len(members[u] & members[v]) >= t:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    star = [i for i, m in enumerate(members) if set(range(1, t + 1)) <= m]
    return adjacency, star


def set_system_solver(instance, **kwargs):
    """``max_family_set_system``'s engine call, to rerun without rebuilding the graph."""
    call = {}

    def capture(*args, **engine_kwargs):
        call.update(args=args, kwargs=engine_kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliques, "_solve", capture)
        max_family_set_system(instance, **kwargs)
    return partial(cliques._solve, *call["args"], **call["kwargs"])


class TestGraphConstruction:
    def test_adjacency_matches_pairwise_relation(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(4, 14)
            k = rng.randint(2, min(6, n))
            t = rng.randint(0, 3)
            relation = rng.choice(["multiset", "proper"])
            members = enumerate_partitions(n, k)
            graph = build_graph(members, relation, t)
            common = common_fn(relation)
            for u in range(len(members)):
                u_ok = t == 0 or common(members[u].parts, members[u].parts) >= t
                assert bool((graph.eligible >> u) & 1) == u_ok
                for v in range(len(members)):
                    bit = (graph.adjacency[u] >> v) & 1
                    if u == v:
                        assert bit == 0
                        continue
                    v_ok = t == 0 or common(members[v].parts, members[v].parts) >= t
                    edge = (
                        u_ok
                        and v_ok
                        and (t == 0 or common(members[u].parts, members[v].parts) >= t)
                    )
                    assert bit == int(edge), (n, k, t, relation, u, v)

    def test_token_index_matches_pairwise(self):
        grid = [(n, k, (1, 2, 3, 4)) for n in range(1, 23) for k in range(1, n + 1)]
        large = [(n, k, (1, 2)) for n, k in [(40, 5), (36, 6), (30, 8), (34, 7)]]
        # runs of 294 to 301 ones: occurrence indices far above any part
        long_run = [(310, 302, (1, 294, 297, 300, 301, 302))]
        for n, k, levels in grid + large + long_run:
            members = enumerate_partitions(n, k)
            for relation in ("multiset", "proper"):
                reference = pairwise_reference(members, relation, levels)
                common = common_fn(relation)
                for t in levels:
                    graph = build_graph(members, relation, t)
                    assert graph.adjacency == reference[t], (n, k, relation, t)
                    eligible = sum(
                        1 << v
                        for v, p in enumerate(members)
                        if common(p.parts, p.parts, stop_at=t) >= t
                    )
                    assert graph.eligible == eligible, (n, k, relation, t)

    def test_build_makes_no_pairwise_calls(self, monkeypatch):
        # proper (34,7,2) made about 690k counter calls when every pair
        # was tested; the token index makes none, and token counts decide
        # which vertices relate to themselves.
        calls = 0

        def counting(fn):
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("multiset_common_count", "distinct_common_count"):
            spy = counting(getattr(intersect, name))
            for module in (intersect, cliques):
                if hasattr(module, name):  # cliques imports only the multiset one
                    monkeypatch.setattr(module, name, spy)
        members = enumerate_partitions(34, 7)
        graph = build_graph(members, "proper", 2)
        assert graph.n_vertices == 1175
        assert calls == 0

    def test_level_zero_is_complete(self):
        members = enumerate_partitions(9, 3)
        graph = build_graph(members, Relation.MULTISET, 0)
        out = max_family(graph)
        assert out.max_size == len(members)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_graph(enumerate_partitions(5, 2), "multiset", -1)

    def test_vertex_guard(self):
        with pytest.raises(ResourceGuardError):
            build_graph(enumerate_partitions(30, 6), "multiset", 1, max_vertices=10)

    def test_vertex_ids_maps_families(self):
        members = enumerate_partitions(10, 3)
        graph = build_graph(members, "multiset", 1)
        family = [Partition((1, 4, 5)), Partition((1, 1, 8))]
        assert graph.vertex_ids(family) == [0, 3]


class TestEngineAgainstOracles:
    def test_random_instances_match_networkx(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(5, 13)
            k = rng.randint(2, min(6, n))
            t = rng.randint(1, 3)
            relation = rng.choice(["multiset", "proper"])
            members = enumerate_partitions(n, k)
            graph = build_graph(members, relation, t)
            out = max_family(graph)
            expected, _ = oracle_max_clique(members, relation, t)
            assert out.max_size == expected, (n, k, t, relation)

    def test_mixed_lengths_match_networkx(self):
        for n in range(2, 11):
            members = enumerate_all(n)
            graph = build_graph(members, "multiset", 1)
            out = max_family(graph)
            expected, _ = oracle_max_clique(members, "multiset", 1)
            assert out.max_size == expected == count_all(n - 1)

    def test_deterministic_witness_is_lexicographic_minimum(self):
        for n, k in [(9, 3), (10, 3), (11, 4)]:
            members = enumerate_partitions(n, k)
            graph = build_graph(members, "multiset", 1)
            out = max_family(graph, deterministic=True)
            _, all_max = oracle_max_clique(members, "multiset", 1)
            assert out.witness == min(all_max)

    def test_random_graph_witness_is_lexicographic_minimum(self):
        rng = random.Random(73)
        for _ in range(60):
            n_vertices = rng.randint(1, 30)
            graph = nx.gnp_random_graph(
                n_vertices, rng.uniform(0.2, 0.9), seed=rng.randrange(10**6)
            )
            adjacency = [sum(1 << u for u in graph[v]) for v in range(n_vertices)]
            out = cliques._solve(
                adjacency,
                (1 << n_vertices) - 1,
                None,
                lambda ids: None,
                token_lists=edge_tokens(n_vertices, graph.edges),
                t=1,
                node_budget=cliques.DEFAULT_NODE_BUDGET,
                time_budget_secs=cliques.DEFAULT_TIME_BUDGET_SECS,
                deterministic=True,
            )
            maximal = [sorted(c) for c in nx.find_cliques(graph)]
            best = max(len(c) for c in maximal)
            assert out.witness == min(c for c in maximal if len(c) == best)

    def test_witness_is_a_valid_family(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(6, 13)
            k = rng.randint(2, 5)
            members = enumerate_partitions(n, k)
            graph = build_graph(members, "multiset", 1)
            out = max_family(graph)
            fam = [members[v] for v in out.witness]
            assert len(fam) == out.max_size
            for a, b in combinations(fam, 2):
                assert t_intersects(a, b, 1)

    def test_repeat_runs_identical(self):
        members = enumerate_partitions(12, 4)
        graph = build_graph(members, "multiset", 1)
        first = max_family(graph)
        second = max_family(graph)
        assert first.max_size == second.max_size
        assert first.witness == second.witness


class TestPermute:
    def test_matches_bit_by_bit_reference(self):
        # Adjacency counted pair by pair from the token sets; the token
        # index must renumber it as the reference does, bit by bit.
        rng = random.Random(83)
        short = 0
        for _ in range(200):
            n_vertices = rng.randint(1, 40)
            t = rng.choice((1, 2, 3))
            alphabet = rng.randint(1, 10)
            token_lists = [
                frozenset(rng.sample(range(alphabet), rng.randint(0, min(alphabet, 6))))
                for _ in range(n_vertices)
            ]
            short += sum(len(tokens) < t for tokens in token_lists)
            adjacency = [
                sum(
                    1 << u
                    for u, other in enumerate(token_lists)
                    if u != v and len(tokens & other) >= t
                )
                for v, tokens in enumerate(token_lists)
            ]
            # arbitrary, usually non-contiguous masks, one vertex alone, none
            for allowed in (
                rng.getrandbits(n_vertices),
                (1 << n_vertices) - 1,
                1 << rng.randrange(n_vertices),
                0,
            ):
                assert cliques._permute(adjacency, allowed, token_lists, t) == reference_permute(
                    adjacency, allowed
                )
        assert short > 0  # some vertices hold fewer than t tokens

    def test_empty_rows_and_empty_mask(self):
        # vertices 1 and 2 have no neighbours; vertices 0 and 3 are adjacent
        adjacency = [0b1000, 0, 0, 0b0001]
        token_lists = [["a"], [], ["b"], ["a"]]
        for allowed in (0b1111, 0b1010, 0b0010, 0b1001, 0b0110, 0):
            assert cliques._permute(adjacency, allowed, token_lists, 1) == reference_permute(
                adjacency, allowed
            )

    @pytest.mark.parametrize("relation", ["multiset", "proper"])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_partition_graphs_match_bit_by_bit_reference(self, relation, t):
        rng = random.Random(89)
        for members in (enumerate_partitions(12, 4), enumerate_partitions(16, 3), enumerate_all(9)):
            graph = build_graph(members, relation, t)
            everything = (1 << graph.n_vertices) - 1
            for allowed in (graph.eligible, everything, rng.getrandbits(graph.n_vertices)):
                assert cliques._permute(
                    graph.adjacency, allowed, graph._tokens, graph.t
                ) == reference_permute(graph.adjacency, allowed)

    def test_set_system_branches_match_bit_by_bit_reference(self):
        # the root of {0} | N(0) and every orbit branch's candidates
        for n, r, t in EKR_GRID:
            if comb(n, r) > 220:
                continue
            solve = set_system_solver(SetFamilyInstance(n, r, t))
            adjacency, allowed = solve.args[:2]
            token_lists = solve.keywords["token_lists"]
            for _, candidates in [([], allowed)] + solve.keywords["branches"]:
                assert cliques._permute(
                    adjacency, candidates, token_lists, t
                ) == reference_permute(adjacency, candidates), (n, r, t)


class TestKnownInstances:
    def test_star_is_maximum_at_10_3(self):
        members = enumerate_partitions(10, 3)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        out = max_family(graph, star=star)
        assert out.max_size == 4 == count_partitions(9, 2)
        assert out.star_is_maximum
        # lexicographically smallest maximum family is the star itself
        assert [members[v].parts for v in out.witness] == [
            (1, 1, 8),
            (1, 2, 7),
            (1, 3, 6),
            (1, 4, 5),
        ]

    def test_star_beaten_at_8_3(self):
        """The size-4 family over P(8, 3); brute force has the last word."""
        members = enumerate_partitions(8, 3)
        assert [p.parts for p in members] == [
            (1, 1, 6),
            (1, 2, 5),
            (1, 3, 4),
            (2, 2, 4),
            (2, 3, 3),
        ]
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        assert len(star) == 3 == count_partitions(7, 2)
        out = max_family(graph, star=star)
        assert out.max_size == 4
        assert out.star_is_maximum is False
        assert [members[v].parts for v in out.witness] == [
            (1, 2, 5),
            (1, 3, 4),
            (2, 2, 4),
            (2, 3, 3),
        ]
        # independent exhaustive confirmation over all 2^5 subsets
        best = 0
        for r in range(1, len(members) + 1):
            for subset in combinations(members, r):
                if all(t_intersects(a, b, 1) for a, b in combinations(subset, 2)):
                    best = max(best, r)
        assert best == 4

    def test_star_beaten_at_29_8(self):
        # outside the default grids, which stop at n = 28 for k = 8
        members = enumerate_partitions(29, 8)
        graph = build_graph(members, "multiset", 1)
        out = max_family(graph, star=star_ids(members, "multiset", 1))
        assert (out.star_size, out.max_size, out.star_is_maximum) == (436, 439, False)
        witness = [members[v] for v in out.witness]
        assert len(witness) == 439 and witness_digest(witness) == "e4ad0f3b1c27353c"
        assert all(t_intersects(a, b, 1) for a, b in combinations(witness, 2))
        # the search closes the frame where its candidates form a clique;
        # diving through it, one vertex per frame, took 439 nodes
        plain = max_family(graph, star=star_ids(members, "multiset", 1), deterministic=False)
        assert plain.nodes_explored == 121

    def test_lifted_families_beat_higher_level_stars(self):
        # prepending ones to the size-4 family transports it to level t
        for t, n, k in [(2, 9, 4), (3, 10, 5)]:
            members = enumerate_partitions(n, k)
            graph = build_graph(members, "multiset", t)
            star = [i for i, p in enumerate(members) if all(x == 1 for x in p.parts[:t])]
            out = max_family(graph, star=star)
            assert len(star) == 3 and out.max_size == 4, (n, k, t)
            lifted = [
                Partition((1,) * (t - 1) + base)
                for base in [(1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3)]
            ]
            assert [members[v] for v in out.witness] == lifted

    def test_proper_relation_small_instances(self):
        # all vertices ineligible: the single partition of 3 into 3 parts
        # has one distinct part
        members = enumerate_partitions(3, 3)
        graph = build_graph(members, "proper", 2)
        assert graph.eligible == 0
        for star, star_size, star_is_maximum in [(None, None, None), ([], 0, True)]:
            out = max_family(graph, star=star)
            assert out.max_size == 0 and out.witness == []
            assert (out.star_size, out.star_is_maximum) == (star_size, star_is_maximum)
            assert out.nodes_explored == 0 and out.upper_bound_at_root == 0
            assert out.colour_classes == []
        # level-2 proper star over P(9, 5) has p(9-3, 3) members
        members = enumerate_partitions(9, 5)
        graph = build_graph(members, "proper", 2)
        required = {1, 2}
        star = [i for i, p in enumerate(members) if required <= set(p.parts)]
        out = max_family(graph, star=star)
        assert len(star) == count_partitions(6, 3) == 3
        assert out.max_size == 3 and out.star_is_maximum

    def test_singleton_families_at_length_t_plus_one(self):
        for t in (2, 3):
            members = enumerate_partitions(12, t + 1)
            out = max_family(build_graph(members, "multiset", t))
            assert out.max_size == 1


class TestUniqueness:
    def cases(self):
        # (n, k, expected uniqueness of the star)
        return [(7, 3, False), (8, 4, True), (10, 3, False), (12, 5, True)]

    def test_verdicts_match_oracle(self):
        for n, k, expected in self.cases():
            members = enumerate_partitions(n, k)
            graph = build_graph(members, "multiset", 1)
            star = [i for i, p in enumerate(members) if p.parts[0] == 1]
            out = max_family(graph, star=star)
            assert out.star_is_maximum
            got = check_uniqueness(graph, star, out.max_size)
            assert got is expected, (n, k)
            # oracle: count distinct maximum cliques
            _, all_max = oracle_max_clique(members, "multiset", 1)
            assert (len(all_max) == 1) is expected

    def test_empty_maximum_is_unique(self):
        members = enumerate_partitions(3, 3)
        graph = build_graph(members, "proper", 2)
        assert check_uniqueness(graph, [], 0) is True

    def test_size_mismatch_rejected(self):
        members = enumerate_partitions(10, 3)
        graph = build_graph(members, "multiset", 1)
        with pytest.raises(ValueError):
            check_uniqueness(graph, [0, 1], 4)

    def test_budget_exhaustion_reports_elapsed_time(self):
        members = enumerate_partitions(10, 3)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        with pytest.raises(SearchBudgetExceeded) as info:
            check_uniqueness(graph, star, 4, node_budget=1)
        assert info.value.elapsed > 0


@pytest.fixture
def default_recursion_limit():
    """The interpreter's default recursion limit for one test, restored after."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(before)


class TestSeedValidationAndBudgets:
    def test_invalid_seed_family_rejected(self):
        members = enumerate_partitions(8, 3)
        graph = build_graph(members, "multiset", 1)
        # (1,1,6) and (2,2,4) share no part
        with pytest.raises(RuntimeError):
            max_family(graph, star=[0, 3])

    def test_each_family_validated_once(self, monkeypatch):
        checked = []
        original = cliques._validate_family

        def spy(family, relation, t):
            checked.append(list(family))
            original(family, relation, t)

        monkeypatch.setattr(cliques, "_validate_family", spy)
        for n in (10, 8):
            members = enumerate_partitions(n, 3)
            graph = build_graph(members, "multiset", 1)
            star = [i for i, p in enumerate(members) if p.parts[0] == 1]
            checked.clear()
            out = max_family(graph, star=star)
            parts = [[members[v].parts for v in ids] for ids in (star, out.witness)]
            if n == 10:  # the star is the lex-min maximum: checked once
                assert out.witness == star and checked == parts[:1]
            else:  # the star is beaten: seed and witness each checked
                assert out.witness != star and checked == parts

    def test_node_budget_exhaustion_carries_bounds(self):
        members = enumerate_partitions(12, 4)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        with pytest.raises(SearchBudgetExceeded) as info:
            max_family(graph, star=star, node_budget=1)
        exc = info.value
        assert exc.lower_bound >= len(star)
        assert exc.upper_bound >= exc.lower_bound
        assert exc.nodes_explored >= 1
        assert len(exc.witness) == exc.lower_bound

    def test_budget_exhausted_during_extraction_keeps_certified_size(self):
        members = enumerate_partitions(12, 4)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        search_only = max_family(graph, star=star, deterministic=False)
        with pytest.raises(SearchBudgetExceeded) as info:
            max_family(graph, star=star, node_budget=search_only.nodes_explored)
        exc = info.value
        assert exc.lower_bound == exc.upper_bound == search_only.max_size
        assert len(exc.witness) == exc.lower_bound
        assert exc.nodes_explored > search_only.nodes_explored

    def test_extraction_abort_reports_the_certified_maximum(self):
        # proper (34,7,2): root bound 432, maximum 431 beating a star of
        # 427; the search takes 26 nodes, so node 27 is in extraction
        members = enumerate_partitions(34, 7)
        graph = build_graph(members, "proper", 2)
        star = star_ids(members, "proper", 2)
        assert max_family(graph, star=star, deterministic=False).nodes_explored == 26
        with pytest.raises(SearchBudgetExceeded) as info:
            max_family(graph, star=star, node_budget=26)
        exc = info.value
        assert (exc.lower_bound, exc.upper_bound) == (431, 431)
        assert len(exc.witness) == 431 and exc.nodes_explored == 27

    def test_lex_min_extraction_node_count(self):
        members = enumerate_partitions(40, 5)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        out = max_family(graph, star=star)
        assert out.max_size == count_partitions(39, 4)
        assert out.nodes_explored <= 442

    def test_beaten_star_node_count(self, default_recursion_limit):
        # the witness differs from the star, so extraction cannot stop
        # at the first greedy path
        members = enumerate_partitions(34, 7)
        graph = build_graph(members, "proper", 2)
        out = max_family(graph, star=star_ids(members, "proper", 2))
        assert (out.star_size, out.max_size) == (427, 431)
        assert out.nodes_explored <= 483
        # the search over 1,175 renumbered vertices leaves the limit alone
        assert sys.getrecursionlimit() == default_recursion_limit

    def test_all_lengths_entry_point(self):
        row = solve_instance(8, None, 1, Relation.MULTISET, RunConfig())
        assert row.max_size == count_all(7) == 15
        assert row.star_is_maximum

    def test_clique_deeper_than_the_recursion_limit(self, default_recursion_limit):
        # K_1200 is one clique frame, closed at the root
        n = 1200
        full = (1 << n) - 1
        adjacency = [full ^ (1 << v) for v in range(n)]
        search = cliques._CliqueSearch(adjacency, 10**9, 600.0)
        assert search.maximum(full, 0) == list(range(n))
        assert search.nodes == 1
        # The cocktail-party graph on 2,400 vertices, 2i and 2i+1 not
        # adjacent: every frame holds non-adjacent pairs, so none is a
        # clique frame, and the search descends 1,200 frames deep.
        n = 2400
        full = (1 << n) - 1
        adjacency = [full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(n)]
        search = cliques._CliqueSearch(adjacency, 10**9, 600.0)
        best = search.maximum(full, 0)
        assert len(best) == 1200 and {v >> 1 for v in best} == set(range(1200))
        assert search.nodes >= 1200
        assert sys.getrecursionlimit() == default_recursion_limit


class TestSetSystems:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            SetFamilyInstance(4, 5, 1)
        with pytest.raises(ValueError):
            SetFamilyInstance(5, 3, 0)

    def test_star_size_and_threshold(self):
        inst = SetFamilyInstance(8, 3, 1)
        assert inst.star_size == 21
        assert inst.at_or_above_threshold
        assert not SetFamilyInstance(5, 3, 1).at_or_above_threshold

    def test_small_systems_match_networkx(self):
        for n, r, t in [(5, 2, 1), (5, 3, 1), (6, 3, 2), (7, 3, 1)]:
            out = max_family_set_system(SetFamilyInstance(n, r, t))
            members = list(combinations(range(1, n + 1), r))
            graph = nx.Graph()
            graph.add_nodes_from(range(len(members)))
            for i, j in combinations(range(len(members)), 2):
                if len(set(members[i]) & set(members[j])) >= t:
                    graph.add_edge(i, j)
            expected = max(len(c) for c in nx.find_cliques(graph))
            assert out.max_size == expected, (n, r, t)

    def test_seed_and_witness_validated(self, monkeypatch):
        checked = []
        original = cliques._solve

        def spy(adjacency, allowed, star_ids, validate, **kwargs):
            def recording(ids):
                checked.append(list(ids))
                validate(ids)

            return original(adjacency, allowed, star_ids, recording, **kwargs)

        monkeypatch.setattr(cliques, "_solve", spy)
        # (8,3,1): the star is the lex-min maximum, checked once
        out = max_family_set_system(SetFamilyInstance(8, 3, 1))
        star = list(range(21))  # the 3-subsets containing 1 come first
        assert out.witness == star and checked == [star]
        # (5,3,1): all ten 3-subsets beat the star of the first six
        checked.clear()
        out = max_family_set_system(SetFamilyInstance(5, 3, 1))
        assert out.witness == list(range(10))
        assert checked == [list(range(6)), out.witness]

    def test_trivially_intersecting_range_takes_everything(self):
        # any two 3-subsets of {1..5} share at least one element
        out = max_family_set_system(SetFamilyInstance(5, 3, 1))
        assert out.max_size == 10

    def test_witness_members_pairwise_intersect(self):
        out = max_family_set_system(SetFamilyInstance(8, 3, 1))
        assert out.max_size == 21
        members = list(combinations(range(1, 9), 3))
        fam = [set(members[v]) for v in out.witness]
        assert all(a & b for a, b in combinations(fam, 2))

    def test_anchored_search_matches_unrestricted_search(self, ekr_sweep):
        # Compared through the rows of cross_validate_ekr, which runs
        # max_family_set_system on this grid anyway.  The unrestricted
        # search takes 1.67M nodes (about 50 s) at (9,4,1) and 58k
        # (about 3 s) at (10,4,1); there the maximum over all vertices
        # comes from the Ahlswede-Khachatrian theorem, and the lex-min
        # extraction alone runs over all vertices.
        costly = {(9, 4, 1), (10, 4, 1)}
        rows = {(row.n, row.k, row.t): row for row in ekr_sweep.rows}
        for n, r, t in EKR_GRID:
            if comb(n, r) > 220:
                continue
            adjacency, star = set_system_graph(n, r, t)
            members = list(combinations(range(1, n + 1), r))
            everything = (1 << len(adjacency)) - 1
            if (n, r, t) in costly:
                search = cliques._CliqueSearch(adjacency, 10**6, 60.0)
                size = SetFamilyInstance(n, r, t).ak_maximum
                witness = cliques._lex_min_witness(adjacency, everything, size, search)
            else:
                full = cliques._solve(
                    adjacency,
                    everything,
                    star,
                    lambda ids: None,
                    token_lists=members,
                    t=t,
                    node_budget=cliques.DEFAULT_NODE_BUDGET,
                    time_budget_secs=cliques.DEFAULT_TIME_BUDGET_SECS,
                    deterministic=True,
                )
                size, witness = full.max_size, full.witness
            digest = witness_digest(".".join(map(str, members[v])) for v in witness)
            row = rows[(n, r, t)]
            assert (row.max_size, row.witness_digest) == (size, digest), (n, r, t)

    def test_adjacency_matches_pairwise(self, monkeypatch):
        # The graph max_family_set_system hands to the engine, caught
        # before any search runs.
        class Built(Exception):
            pass

        def capture(adjacency, *args, **kwargs):
            raise Built(adjacency)

        monkeypatch.setattr(cliques, "_solve", capture)
        for n, r, t in EKR_GRID:
            with pytest.raises(Built) as built:
                max_family_set_system(SetFamilyInstance(n, r, t))
            assert built.value.args[0] == set_system_graph(n, r, t)[0], (n, r, t)

    def test_star_lies_in_closed_neighbourhood_of_vertex_zero(self):
        for n, r, t in EKR_GRID:
            adjacency, star = set_system_graph(n, r, t)
            anchored = 1 | adjacency[0]
            assert all((anchored >> v) & 1 for v in star), (n, r, t)

    def test_anchored_search_node_count(self):
        # the orbit branches' search plus the lex-min extraction
        for (n, r, t), maximum, nodes in [
            ((10, 4, 1), 84, 301),
            ((11, 4, 1), 120, 163),
            ((12, 4, 1), 165, 196),
        ]:
            out = max_family_set_system(SetFamilyInstance(n, r, t))
            assert (out.max_size, out.nodes_explored) == (maximum, nodes), (n, r, t)

    def test_orbit_branches_match_the_single_branch_search(self):
        # The single branch ([], {0} | N(0)) searches the whole anchored
        # set at once; at (9,4,1) it takes about 279k nodes (about 9 s).
        for n, r, t in EKR_GRID:
            instance = SetFamilyInstance(n, r, t)
            split = max_family_set_system(instance, deterministic=False)
            adjacency, star = set_system_graph(n, r, t)
            single = cliques._solve(
                adjacency,
                1 | adjacency[0],
                star,
                lambda ids: None,
                token_lists=list(combinations(range(1, n + 1), r)),
                t=t,
                node_budget=cliques.DEFAULT_NODE_BUDGET,
                time_budget_secs=cliques.DEFAULT_TIME_BUDGET_SECS,
                deterministic=False,
            )
            assert split.max_size == single.max_size == instance.ak_maximum, (n, r, t)

    @pytest.mark.parametrize("n, r, t", [(6, 3, 1), (7, 3, 2), (8, 4, 1)])
    def test_orbits_are_those_of_the_stabiliser_of_vertex_zero(self, n, r, t):
        members = list(combinations(range(1, n + 1), r))
        index = {m: i for i, m in enumerate(members)}
        adjacency, _ = set_system_graph(n, r, t)
        images = {v: 0 for v in range(len(members)) if adjacency[0] >> v & 1}
        for inside in permutations(range(1, r + 1)):
            for outside in permutations(range(r + 1, n + 1)):
                sigma = dict(zip(range(1, n + 1), inside + outside))
                for v in images:
                    images[v] |= 1 << index[tuple(sorted(sigma[x] for x in members[v]))]
        orbits = cliques._vertex_zero_orbits(members, r, adjacency[0])
        assert sorted(orbits) == sorted(set(images.values()))
        # one orbit per count |A & {1..r}|, ascending
        counts = [sum(x <= r for x in members[cliques._bit_ids(o)[0]]) for o in orbits]
        assert counts == sorted(set(counts)), (n, r, t)

    def test_budget_abort_inside_a_branch(self):
        # No branch of (10,4,1) beats the star of 84.  At (7,4,1) and
        # (8,4,2) branches beat the stars of 20 and 15, so some aborts
        # report a branch's forced vertices plus its best clique.
        for (n, r, t), beaten in [((10, 4, 1), False), ((7, 4, 1), True), ((8, 4, 2), True)]:
            instance = SetFamilyInstance(n, r, t)
            members = list(combinations(range(1, n + 1), r))
            full = max_family_set_system(instance, deterministic=False)
            solve = set_system_solver(instance, deterministic=False)
            lower_bounds = set()
            for budget in range(1, full.nodes_explored):
                with pytest.raises(SearchBudgetExceeded) as info:
                    solve(node_budget=budget)
                exc = info.value
                family = [set(members[v]) for v in exc.witness]
                assert len(family) == exc.lower_bound <= instance.ak_maximum <= exc.upper_bound
                assert all(len(a & b) >= t for a, b in combinations(family, 2)), (n, r, t)
                lower_bounds.add(exc.lower_bound)
            last = solve(node_budget=full.nodes_explored)
            assert last.max_size == instance.ak_maximum
            assert (max(lower_bounds) > instance.star_size) is beaten, (n, r, t)

    def test_ak_maximum_known_values(self):
        # above the threshold the star; below it the larger AK families
        assert SetFamilyInstance(8, 3, 1).ak_maximum == 21
        assert SetFamilyInstance(9, 4, 1).ak_maximum == 56
        assert SetFamilyInstance(5, 3, 1).ak_maximum == 10
        assert SetFamilyInstance(8, 4, 2).ak_maximum == 17  # star 15
        assert SetFamilyInstance(4, 4, 1).ak_maximum == 1


# -- colouring certificates ------------------------------------------------------


def reference_lex_min(adjacency, allowed, size, search):
    """The lex-min extraction without greedy completion: colour bounds only."""
    chosen = []
    pools = [allowed]
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
        if len(cliques._colour_classes(adjacency, child, need)) >= need:
            chosen.append(v)
            pools.append(child)
    raise AssertionError("no clique of the given size")


def colouring_category(graph, size):
    """Which root colouring, if any, has exactly ``size`` classes."""
    classes, _, ids = cliques._root_colouring(
        graph.adjacency, graph.eligible, size, graph._tokens, graph.t
    )
    if ids is None:
        return "id order"
    return "degree order" if len(classes) == size else "neither"


@st.composite
def planted_graphs(draw):
    """(n, edges, ineligible): a random graph of at most 30 vertices with a planted clique.

    Ineligible vertices lose their edges, as in an intersection graph.
    """
    n = draw(st.integers(1, 30))
    pairs = list(combinations(range(n), 2))
    first, second = (draw(st.integers(0, 2 ** len(pairs) - 1)) for _ in range(2))
    mix = draw(st.sampled_from(["sparse", "even", "dense"]))
    bits = {"sparse": first & second, "even": first, "dense": first | second}[mix]
    edges = {pair for i, pair in enumerate(pairs) if bits >> i & 1}
    planted = draw(st.sets(st.integers(0, n - 1), max_size=n))
    edges |= set(combinations(sorted(planted), 2))
    ineligible = draw(st.sets(st.integers(0, n - 1), max_size=3))
    edges = {(u, v) for u, v in edges if u not in ineligible and v not in ineligible}
    return n, frozenset(edges), frozenset(ineligible)


def as_graph(n, edges, ineligible):
    """The graph on 0..n-1 with ``edges``, built as a multiset intersection graph at t = 2.

    Vertex v holds the part v + 1, twice unless it is ineligible, and
    for each edge at it two copies of that edge's own part above n.  So
    two vertices share two parts exactly when they are joined, and an
    ineligible vertex, one part alone, shares two with nothing.
    """
    parts = [[v + 1] * (1 if v in ineligible else 2) for v in range(n)]
    for value, (u, v) in enumerate(sorted(edges), start=n + 1):
        parts[u] += [value, value]
        parts[v] += [value, value]
    graph = build_graph([Partition(p) for p in parts], Relation.MULTISET, 2)
    adjacency = [0] * n
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    assert graph.adjacency == adjacency
    assert graph.eligible == sum(1 << v for v in range(n) if v not in ineligible)
    return graph


def with_triangle(n, edges):
    """``edges`` on vertices 0..n-1 plus a triangle on the next three ids."""
    triangle = set(combinations(range(n, n + 3), 2))
    return n + 3, frozenset(set(edges) | triangle), frozenset()


# One graph per colouring category, each with a unique and a tied
# maximum.  The path 0-2-3-1 needs three colours in id order and two by
# degree.  So does the triangle 1-3-5 with a pendant vertex at each
# corner, at the lower ids 0, 2, 4: in id order the pendants take the
# first class and the corners one class each.  The Groetzsch graph
# (clique number 2) needs four colours in any order, so with a triangle
# added no colouring has three classes.  The last graph has three
# triangles and no tight colouring; a cover filter built from a colouring
# with more classes than the clique number would call its maximum unique.
GROETZSCH = nx.mycielski_graph(4)
CATEGORY_EXAMPLES = {
    "id order": [
        (4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}), frozenset()),
        (5, frozenset({(0, 1), (2, 3)}), frozenset({4})),
    ],
    "degree order": [
        (4, frozenset({(0, 2), (2, 3), (1, 3)}), frozenset()),
        (6, frozenset({(1, 3), (3, 5), (1, 5), (0, 1), (2, 3), (4, 5)}), frozenset()),
    ],
    "neither": [
        (11, frozenset(GROETZSCH.edges), frozenset()),
        with_triangle(11, GROETZSCH.edges),
        (
            7,
            frozenset(
                {(0, 2), (0, 5), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)}
            ),
            frozenset(),
        ),
    ],
}


def with_category_examples(test):
    for specs in CATEGORY_EXAMPLES.values():
        for spec in specs:
            test = example(spec)(test)
    return test


def maximal_cliques(graph):
    """The maximal cliques among the eligible vertices, each sorted, by networkx."""
    oracle = nx.Graph()
    eligible = [v for v in range(graph.n_vertices) if graph.eligible >> v & 1]
    oracle.add_nodes_from(eligible)
    oracle.add_edges_from(
        (u, v) for u in eligible for v in eligible if u < v and graph.adjacency[u] >> v & 1
    )
    return [sorted(c) for c in nx.find_cliques(oracle)]


def oracle_uniqueness(graph):
    """Clique number, lex-min maximum clique and uniqueness, by networkx."""
    maximal = maximal_cliques(graph)
    best = max((len(c) for c in maximal), default=0)
    maximum = sorted(c for c in maximal if len(c) == best)
    return best, (maximum[0] if maximum else []), len(maximum) <= 1


class TestUniquenessFilter:
    def test_examples_cover_every_category(self):
        for category, examples in CATEGORY_EXAMPLES.items():
            verdicts = set()
            for spec in examples:
                graph = as_graph(*spec)
                size, _, unique = oracle_uniqueness(graph)
                assert colouring_category(graph, size) == category
                verdicts.add(unique)
            assert verdicts == {True, False}, category

    @settings(max_examples=300, deadline=None)
    @given(planted_graphs())
    @with_category_examples
    def test_matches_networkx(self, spec):
        graph = as_graph(*spec)
        size, star, unique = oracle_uniqueness(graph)
        if size:
            event(colouring_category(graph, size))
        assert check_uniqueness(graph, star, size) is unique

    def test_cap_instances_need_no_search(self, cap_instances):
        # The id-order colouring is tight, and the cover filter leaves
        # only the star, so neither the renumbering nor any maximum or
        # decision search runs.
        for n, star_size in [(84, 4109), (60, 1495)]:
            case = cap_instances[n]
            assert case.max_size == case.star_size == star_size
            assert case.unique is True
            assert case.calls == Counter(), n


class TestRootColouringReuse:
    """check_uniqueness reads the root colouring max_family left on the graph."""

    def test_one_permute_for_max_family_and_uniqueness(self, monkeypatch):
        # multiset (40,5,1): only the degree-ordered root colouring is tight,
        # and its renumbering reads the token lists build_graph encoded
        members = enumerate_partitions(40, 5)
        calls, encodes = [], []
        real_permute, real_encode = cliques._permute, cliques._vertex_tokens
        monkeypatch.setattr(
            cliques, "_permute", lambda *args: calls.append(1) or real_permute(*args)
        )
        monkeypatch.setattr(
            cliques, "_vertex_tokens", lambda *args: encodes.append(1) or real_encode(*args)
        )
        graph = build_graph(members, "multiset", 1)
        assert len(encodes) == 1
        star = star_ids(members, "multiset", 1)
        out = max_family(graph, star=star)
        assert check_uniqueness(graph, star, out.max_size) is True
        assert len(calls) == 1
        assert len(encodes) == 1

    @pytest.mark.parametrize(
        "n, k, t, relation, category, unique",
        [
            (12, 5, 1, "multiset", "id order", True),
            (10, 3, 1, "multiset", "degree order", False),
            (20, 4, 2, "proper", "neither", False),
            (8, 3, 1, "multiset", "neither", None),  # star 3 beaten by 4
        ],
    )
    def test_kept_colouring_is_the_one_uniqueness_computes(
        self, n, k, t, relation, category, unique
    ):
        members = enumerate_partitions(n, k)
        graph = build_graph(members, relation, t)
        star = star_ids(members, relation, t)
        out = max_family(graph, star=star)
        size = len(star)
        assert colouring_category(graph, size) == category
        classes, _, ids = cliques._root_colouring(
            graph.adjacency, graph.eligible, size, graph._tokens, graph.t
        )
        tight = cliques._class_ids(classes, ids) if len(classes) == size else None
        assert graph._root_classes == {size: tight}
        if unique is not None:
            # a graph max_family never saw computes the colouring itself
            fresh = build_graph(members, relation, t)
            assert check_uniqueness(fresh, star, out.max_size) is unique
            assert check_uniqueness(graph, star, out.max_size) is unique


@pytest.fixture(scope="module")
def cap_instances():
    """Multiset (84,5,1) and (60,5,1): max_family and check_uniqueness under call counters.

    (84,5,1) has 19,366 vertices, near the default cap of 20,000.
    """
    results = {}
    for n in (84, 60):
        calls = Counter()
        with pytest.MonkeyPatch.context() as patch:
            for owner, name in [
                (cliques, "_permute"),
                (cliques._CliqueSearch, "maximum"),
                (cliques._CliqueSearch, "exists"),
            ]:
                original = getattr(owner, name)

                def counted(*args, _original=original, _name=name, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                patch.setattr(owner, name, counted)
            members = enumerate_partitions(n, 5)
            graph = build_graph(members, "multiset", 1)
            star = star_ids(members, "multiset", 1)
            out = max_family(graph, star=star)
            unique = check_uniqueness(graph, star, out.max_size)
        results[n] = SimpleNamespace(
            max_size=out.max_size,
            star_size=len(star),
            witness_is_star=out.witness == star,
            unique=unique,
            calls=calls,
            certified=check_colour_certificate(graph, out.colour_classes, out.max_size),
        )
    return results


class TestColourCertificate:
    @pytest.fixture(scope="class")
    def instance_40_5_1(self):
        members = enumerate_partitions(40, 5)
        graph = build_graph(members, "multiset", 1)
        out = max_family(graph, star=star_ids(members, "multiset", 1))
        return graph, out

    def test_accepts_certificates(self, instance_40_5_1, cap_instances):
        graph, out = instance_40_5_1
        assert out.upper_bound_at_root == out.max_size == 441
        assert check_colour_certificate(graph, out.colour_classes, 441)
        case = cap_instances[84]
        assert case.witness_is_star and case.certified

    def test_search_closed_instance_keeps_its_tight_colouring(self):
        # (30,8,1): the search beats the star 522, and reaches the
        # degree-ordered root bound 525
        members = enumerate_partitions(30, 8)
        graph = build_graph(members, "multiset", 1)
        out = max_family(graph, star=star_ids(members, "multiset", 1))
        assert (out.star_size, out.max_size, out.upper_bound_at_root) == (522, 525, 525)
        assert check_colour_certificate(graph, out.colour_classes, 525)

    def test_no_certificate_when_no_colouring_is_tight(self):
        # proper (34,7,2): root bound 432 against a maximum of 431
        members = enumerate_partitions(34, 7)
        graph = build_graph(members, "proper", 2)
        out = max_family(graph, star=star_ids(members, "proper", 2))
        assert out.upper_bound_at_root > out.max_size
        assert out.colour_classes is None

    def test_rejects_merged_classes(self, instance_40_5_1):
        # every class holds one star member, and star members intersect
        graph, out = instance_40_5_1
        classes = [list(c) for c in out.colour_classes]
        merged = [sorted(classes[0] + classes[1])] + classes[2:]
        assert not check_colour_certificate(graph, merged, 440)

    def test_rejects_dropped_vertex(self, instance_40_5_1):
        graph, out = instance_40_5_1
        classes = [list(c) for c in out.colour_classes]
        big = max(range(len(classes)), key=lambda i: len(classes[i]))
        classes[big] = classes[big][:-1]
        assert not check_colour_certificate(graph, classes, 441)

    def test_rejects_repeated_vertex(self, instance_40_5_1):
        # a copy of a vertex in a second class it relates to nothing in
        graph, out = instance_40_5_1
        classes = [list(c) for c in out.colour_classes]
        members = graph.partitions
        u, i = next(
            (u, i)
            for j, owner in enumerate(classes)
            for u in owner
            for i, other in enumerate(classes)
            if i != j and not any(t_intersects(members[u], members[v], 1) for v in other)
        )
        classes[i] = sorted(classes[i] + [u])
        assert not check_colour_certificate(graph, classes, 441)

    def test_rejects_wrong_class_count(self, instance_40_5_1):
        graph, out = instance_40_5_1
        for size in (440, 442):
            assert not check_colour_certificate(graph, out.colour_classes, size)


class TestGreedyCompletion:
    @settings(max_examples=200, deadline=None)
    @given(planted_graphs())
    def test_same_witness_and_nodes_as_plain_extraction(self, spec):
        graph = as_graph(*spec)
        size, lex_min, _ = oracle_uniqueness(graph)
        if size == 0:
            return
        plain = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        greedy = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        expected = reference_lex_min(graph.adjacency, graph.eligible, size, plain)
        got = cliques._lex_min_witness(graph.adjacency, graph.eligible, size, greedy)
        assert got == expected == lex_min
        assert greedy.nodes == plain.nodes


def is_clique(graph, ids):
    """True iff ``ids`` are distinct eligible vertices, pairwise adjacent in ``graph``."""
    return (
        len(set(ids)) == len(ids)
        and all(graph.eligible >> v & 1 for v in ids)
        and all(graph.adjacency[u] >> v & 1 for u, v in combinations(ids, 2))
    )


def seeds(graph):
    """No seed, or a subset of a maximal clique (often all of it)."""
    maximal = maximal_cliques(graph)
    if not maximal:
        return st.none()
    clique = st.sampled_from(maximal)
    return st.none() | clique | clique.flatmap(
        lambda c: st.sets(st.sampled_from(c)).map(sorted)
    )


class TestMaxFamilyAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(planted_graphs(), st.data())
    def test_size_and_lex_min_witness(self, spec, data):
        graph = as_graph(*spec)
        size, lex_min, _ = oracle_uniqueness(graph)
        seed = data.draw(seeds(graph))
        event("unseeded" if seed is None else "seeded")
        exact = max_family(graph, star=seed)
        plain = max_family(graph, star=seed, deterministic=False)
        assert exact.max_size == plain.max_size == size
        assert exact.witness == lex_min
        assert len(plain.witness) == size and is_clique(graph, plain.witness)
        if seed is None:
            # no seed to certify, so the search runs whenever a vertex is eligible
            assert (plain.nodes_explored > 0) is (graph.eligible != 0)
        else:
            assert exact.star_is_maximum is (len(seed) == size)

    @settings(max_examples=300, deadline=None)
    @given(planted_graphs(), st.data())
    def test_budget_abort_brackets_the_clique_number(self, spec, data):
        graph = as_graph(*spec)
        size, _, _ = oracle_uniqueness(graph)
        seed = data.draw(seeds(graph))
        deterministic = data.draw(st.booleans())
        full = max_family(graph, star=seed, deterministic=deterministic)
        if full.nodes_explored == 0:
            return
        budget = data.draw(st.integers(0, full.nodes_explored - 1))
        with pytest.raises(SearchBudgetExceeded) as info:
            max_family(graph, star=seed, node_budget=budget, deterministic=deterministic)
        search_nodes = max_family(graph, star=seed, deterministic=False).nodes_explored
        exc = info.value
        assert exc.lower_bound <= size <= exc.upper_bound
        if budget >= search_nodes:  # aborted in extraction, after the search certified
            assert exc.lower_bound == exc.upper_bound == size
        assert len(exc.witness) == exc.lower_bound and is_clique(graph, exc.witness)
        assert exc.nodes_explored == budget + 1


class RecursiveSearch:
    """Recursive Tomita search: vertices sorted by greedy colour, last class first.

    The reference for ``_CliqueSearch``'s branching order, bound and node
    charges.  The search stops once ``best_size`` reaches ``target``.
    With ``close_cliques`` a node whose candidates get one colour each
    is a clique and is closed at once, as ``_CliqueSearch`` closes it;
    without, the search dives through it one vertex per node.
    """

    def __init__(self, adjacency, best, best_size, target=None, close_cliques=True):
        self.adj, self.best, self.best_size, self.target = adjacency, best, best_size, target
        self.close_cliques = close_cliques
        self.nodes = 0

    def expand(self, candidates, chosen):
        self.nodes += 1
        order, bounds = [], []
        colour, remaining = 0, candidates
        while remaining:
            colour += 1
            avail = remaining
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                order.append(v)
                bounds.append(colour)
                remaining ^= bit
                avail = (avail ^ bit) & ~self.adj[v]
        if self.close_cliques and colour == len(order):
            if len(chosen) + colour > self.best_size:
                self.best_size, self.best = len(chosen) + colour, chosen + order
            return
        for v, bound in zip(reversed(order), reversed(bounds)):
            if self.target is not None and self.best_size >= self.target:
                return
            if len(chosen) + bound <= self.best_size:
                return
            child = candidates & self.adj[v]
            if child:
                self.expand(child, chosen + [v])
            elif len(chosen) + 1 > self.best_size:
                self.best_size, self.best = len(chosen) + 1, chosen + [v]
            candidates &= ~(1 << v)


class TestSearchOrder:
    @settings(max_examples=300, deadline=None)
    @given(planted_graphs(), st.data())
    def test_maximum_matches_recursive_search(self, spec, data):
        graph = as_graph(*spec)
        seed = data.draw(seeds(graph)) or []
        reference = RecursiveSearch(graph.adjacency, seed, len(seed))
        if graph.eligible:
            reference.expand(graph.eligible, [])
        search = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        got = search.maximum(graph.eligible, len(seed)) or sorted(seed)
        assert (len(got), got) == (reference.best_size, sorted(reference.best))
        assert search.nodes == reference.nodes

    @settings(max_examples=300, deadline=None)
    @given(planted_graphs(), st.data())
    def test_exists_matches_recursive_search(self, spec, data):
        graph = as_graph(*spec)
        size, _, _ = oracle_uniqueness(graph)
        target = data.draw(st.integers(1, size + 1))
        search = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        got = search.exists(graph.eligible, target)
        assert got is (size >= target)
        reference = RecursiveSearch(graph.adjacency, [], target - 1, target)
        if graph.eligible.bit_count() >= target:
            reference.expand(graph.eligible, [])
        assert search.nodes == reference.nodes

    @settings(max_examples=300, deadline=None)
    @given(planted_graphs(), st.data())
    def test_closing_clique_frames_finds_the_dived_clique(self, spec, data):
        graph = as_graph(*spec)
        seed = data.draw(seeds(graph)) or []
        dive = RecursiveSearch(graph.adjacency, seed, len(seed), close_cliques=False)
        if graph.eligible:
            dive.expand(graph.eligible, [])
        search = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        got = search.maximum(graph.eligible, len(seed)) or sorted(seed)
        assert (len(got), got) == (dive.best_size, sorted(dive.best))
        assert search.nodes <= dive.nodes
        event("fewer nodes" if search.nodes < dive.nodes else "same nodes")

    def test_exists_stops_at_the_target(self):
        # the first leaf reaches the target; searching on would charge
        # two more nodes
        edges = frozenset({(0, 1), (0, 3), (1, 3), (1, 4), (2, 4)})
        graph = as_graph(5, edges, frozenset())
        search = cliques._CliqueSearch(graph.adjacency, 10**6, 60.0)
        assert search.exists(graph.eligible, 1)
        assert search.nodes == 2


# the default grids of verify_strong_form, verify_weak_form and
# verify_t_conjectures under both relations: (n, k, t, relation), k None
# for all lengths
DEFAULT_GRID_CELLS = (
    [(n, k, 1, "multiset") for n in range(2, 23) for k in range(2, n + 1)]
    + [(n, None, 1, "multiset") for n in range(2, 15)]
    + [
        (n, k, t, relation)
        for relation in ("multiset", "proper")
        for t in (2, 3)
        for k in range(t + 1, 9)
        for n in range(k, 23)
    ]
)


def pairwise_valid(family, relation, t):
    relates = t_intersects if relation == "multiset" else properly_t_intersects
    return all(relates(a, a, t) for a in family) and all(
        relates(a, b, t) for a, b in combinations(family, 2)
    )


def validates(members, relation, t, ids):
    try:
        cliques._validate_family([members[v].parts for v in ids], Relation(relation), t)
    except RuntimeError:
        return False
    return True


class TestCommonCoreValidation:
    def test_default_grid_stars_pass_on_their_core(self, monkeypatch):
        # The core of a star holds t ones (multiset) or 1..t (proper),
        # so no pair is counted.
        def refuse(*args, **kwargs):
            raise AssertionError("pairwise recheck reached")

        for name in ("multiset_common_count", "combinations"):
            monkeypatch.setattr(cliques, name, refuse)
        for n, k, t, relation in DEFAULT_GRID_CELLS:
            members = enumerate_all(n) if k is None else enumerate_partitions(n, k)
            star = star_ids(members, relation, t)
            assert pairwise_valid([members[v] for v in star], relation, t)
            cliques._validate_family([members[v].parts for v in star], Relation(relation), t)

    def test_pinned_witnesses_fall_back_to_pairwise(self):
        # Their cores hold only the t-1 prepended ones, so every pair is
        # counted; one member that misses another must be caught.
        for n, k, t in [(8, 3, 1), (9, 4, 2), (10, 5, 3)]:
            members = enumerate_partitions(n, k)
            family = [
                Partition((1,) * (t - 1) + base)
                for base in [(1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3)]
            ]
            ids = sorted(members.index(p) for p in family)
            core = family[0].parts
            for member in family:
                core = cliques._shared_parts(core, member.parts, False)
            assert core == (1,) * (t - 1)
            assert validates(members, "multiset", t, ids)
            for v in range(len(members)):
                if v not in ids:
                    grown = sorted(ids + [v])
                    expected = pairwise_valid([members[u] for u in grown], "multiset", t)
                    assert validates(members, "multiset", t, grown) is expected

    def test_proper_family_with_one_failing_pair_raises(self):
        # Pair by pair the distinct parts share {1, 2}, {1, 3}, {1, 2},
        # {1, 4}, {1, 2} and {1}: only the last two members fail to
        # 2-intersect properly, and the core {1} cannot settle it.
        family = [(1, 1, 2, 3), (1, 2, 2, 4), (1, 3, 4, 4), (1, 2, 5, 5)]
        failing = [
            (a, b)
            for a, b in combinations(family, 2)
            if not properly_t_intersects(Partition(a), Partition(b), 2)
        ]
        assert failing == [((1, 3, 4, 4), (1, 2, 5, 5))]
        for order in permutations(family):
            with pytest.raises(RuntimeError, match="do not 2-intersect") as info:
                cliques._validate_family(list(order), Relation.PROPER, 2)
            assert all(str(part) in str(info.value) for part in failing[0])
        cliques._validate_family(family[:3], Relation.PROPER, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_pairwise_recheck(self, data):
        n = data.draw(st.integers(1, 14))
        k = data.draw(st.integers(1, n))
        t = data.draw(st.integers(0, 4))
        relation = data.draw(st.sampled_from(["multiset", "proper"]))
        members = enumerate_partitions(n, k)
        star = star_ids(members, relation, t)
        everyone = st.integers(0, len(members) - 1)
        ids = data.draw(st.sets(everyone, max_size=6))
        if star:
            ids |= data.draw(st.sets(st.sampled_from(star), max_size=len(star)))
        ids = sorted(ids)
        expected = pairwise_valid([members[v] for v in ids], relation, t)
        assert validates(members, relation, t, ids) is expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_set_system_validation_agrees_with_pairwise(self, data):
        n = data.draw(st.integers(1, 8))
        r = data.draw(st.integers(1, n))
        t = data.draw(st.integers(1, r))
        instance = SetFamilyInstance(n, r, t)
        members = list(combinations(range(1, n + 1), r))

        def capture(adjacency, allowed, star, validate, **kwargs):
            return validate

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cliques, "_solve", capture)
            validate = max_family_set_system(instance)
        ids = sorted(data.draw(st.sets(st.integers(0, len(members) - 1), max_size=8)))
        expected = all(
            len(set(members[u]) & set(members[v])) >= t for u, v in combinations(ids, 2)
        )
        try:
            validate(ids)
            got = True
        except RuntimeError:
            got = False
        assert got is expected
