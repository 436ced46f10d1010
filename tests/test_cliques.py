"""Exact search engine against brute force and networkx oracles."""

import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from partint import cliques, intersect
from partint import (
    Partition,
    Relation,
    ResourceGuardError,
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
    max_family_all_lengths,
    max_family_set_system,
    multiset_common_count,
    t_intersects,
    witness_digest,
)


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


def reference_permute(adjacency, allowed):
    """``cliques._permute`` one bit at a time, through an id -> position map."""
    ids = [v for v in range(len(adjacency)) if (allowed >> v) & 1]
    ids.sort(key=lambda v: (-(adjacency[v] & allowed).bit_count(), v))
    where = {v: i for i, v in enumerate(ids)}
    perm_adj = [0] * len(ids)
    for v in ids:
        for u in range(len(adjacency)):
            if (adjacency[v] & allowed) >> u & 1:
                perm_adj[where[v]] |= 1 << where[u]
    return perm_adj, ids


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
        for n, k, levels in grid + large:
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
        # was tested; the token index makes none.
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
                monkeypatch.setattr(module, name, spy)
        members = enumerate_partitions(34, 7)
        graph = build_graph(members, "proper", 2)
        assert graph.n_vertices == 1175
        assert calls <= graph.n_vertices

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
        rng = random.Random(83)
        for _ in range(200):
            n_vertices = rng.randint(1, 40)
            density = rng.uniform(0.0, 1.0)
            adjacency = [0] * n_vertices
            for u, v in combinations(range(n_vertices), 2):
                if rng.random() < density:
                    adjacency[u] |= 1 << v
                    adjacency[v] |= 1 << u
            # arbitrary, usually non-contiguous masks, and one vertex alone
            for allowed in (
                rng.getrandbits(n_vertices),
                (1 << n_vertices) - 1,
                1 << rng.randrange(n_vertices),
            ):
                assert cliques._permute(adjacency, allowed) == reference_permute(
                    adjacency, allowed
                )

    def test_empty_rows_and_empty_mask(self):
        # vertices 1 and 2 have no neighbours; vertices 0 and 3 are adjacent
        adjacency = [0b1000, 0, 0, 0b0001]
        for allowed in (0b1111, 0b1010, 0b0010, 0b1001, 0b0110, 0):
            assert cliques._permute(adjacency, allowed) == reference_permute(
                adjacency, allowed
            )


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
        out = max_family(build_graph(members, "proper", 2), star=[])
        assert out.max_size == 0
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

        def spy(partitions, relation, t, ids):
            checked.append(list(ids))
            original(partitions, relation, t, ids)

        monkeypatch.setattr(cliques, "_validate_family", spy)
        for n in (10, 8):
            members = enumerate_partitions(n, 3)
            graph = build_graph(members, "multiset", 1)
            star = [i for i, p in enumerate(members) if p.parts[0] == 1]
            checked.clear()
            out = max_family(graph, star=star)
            if n == 10:  # the star is the lex-min maximum: checked once
                assert out.witness == star and checked == [star]
            else:  # the star is beaten: seed and witness each checked
                assert out.witness != star and checked == [star, out.witness]

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
        assert exc.lower_bound == search_only.max_size
        assert len(exc.witness) == exc.lower_bound
        assert exc.nodes_explored > search_only.nodes_explored

    def test_lex_min_extraction_node_count(self):
        members = enumerate_partitions(40, 5)
        graph = build_graph(members, "multiset", 1)
        star = [i for i, p in enumerate(members) if p.parts[0] == 1]
        out = max_family(graph, star=star)
        assert out.max_size == count_partitions(39, 4)
        assert out.nodes_explored <= 1000

    def test_all_lengths_entry_point(self):
        out = max_family_all_lengths(8, 1)
        assert out.max_size == count_all(7) == 15
        assert out.star_is_maximum


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
                    node_budget=cliques.DEFAULT_NODE_BUDGET,
                    time_budget_secs=cliques.DEFAULT_TIME_BUDGET_SECS,
                    deterministic=True,
                )
                size, witness = full.max_size, full.witness
            members = list(combinations(range(1, n + 1), r))
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
        out = max_family_set_system(SetFamilyInstance(10, 4, 1))
        assert out.max_size == 84
        assert out.nodes_explored <= 10_000

    def test_ak_maximum_known_values(self):
        # above the threshold the star; below it the larger AK families
        assert SetFamilyInstance(8, 3, 1).ak_maximum == 21
        assert SetFamilyInstance(9, 4, 1).ak_maximum == 56
        assert SetFamilyInstance(5, 3, 1).ak_maximum == 10
        assert SetFamilyInstance(8, 4, 2).ak_maximum == 17  # star 15
        assert SetFamilyInstance(4, 4, 1).ak_maximum == 1
