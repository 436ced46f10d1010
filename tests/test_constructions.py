"""Padding injections, fibre families, cover sets, boundary witnesses."""

import random
from collections import Counter
from dataclasses import fields
from itertools import combinations

import pytest

from partint import (
    ConstructionError,
    NotTIntersectingError,
    Partition,
    ResourceGuardError,
    TriviallyTIntersectingError,
    count_partitions,
    enumerate_partitions,
    lemma1_injection,
    lemma1_strictness_witness,
    lemma2_family,
    lemma3_cover,
    multiset_common_count,
    proposition_witnesses,
    t_intersects,
)
from partint import constructions
from partint.constructions import (
    Lemma2Report,
    _piece_checks,
    count_monotonicity_is_strict,
    sort_tuple,
)
from partint.harness import random_cover_instance


class TestPaddingInjection:
    def test_maps_into_target_and_preserves_injectivity(self):
        for k in range(1, 5):
            for m in range(k, 13):
                for n in range(m, 13):
                    mapping = lemma1_injection(m, n, k)
                    assert len(mapping) == count_partitions(m, k)
                    images = set(mapping.values())
                    assert len(images) == len(mapping)
                    target = set(enumerate_partitions(n, k)) if n >= k else set()
                    assert images <= target

    def test_padding_formula(self):
        mapping = lemma1_injection(7, 11, 3)
        assert mapping[Partition((1, 2, 4))] == Partition((1, 2, 8))
        assert mapping[Partition((2, 2, 3))] == Partition((2, 2, 7))

    def test_identity_when_sizes_match(self):
        mapping = lemma1_injection(6, 6, 3)
        assert all(a == image for a, image in mapping.items())

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            lemma1_injection(6, 5, 3)

    def test_monotonicity_of_counts(self):
        for k in range(1, 6):
            for m in range(k, 20):
                assert count_partitions(m, k) <= count_partitions(m + 1, k)


class TestStrictnessWitness:
    def test_even_gap_shape(self):
        w = lemma1_strictness_witness(9, 3)
        assert w == Partition((1, 4, 4))

    def test_odd_gap_shape(self):
        w = lemma1_strictness_witness(10, 3)
        assert w == Partition((2, 4, 4))

    def test_witness_never_in_padded_image(self):
        # padded images end with a strictly largest part; witnesses end
        # with a repeated one, certifying strictness of the inclusion
        for k in range(3, 6):
            for n in range(k + 2, 16):
                w = lemma1_strictness_witness(n, k)
                assert w.n == n and w.k == k
                assert w.parts[-1] == w.parts[-2]
                for m in range(k, n):
                    images = set(lemma1_injection(m, n, k).values())
                    assert w not in images, (m, n, k)

    def test_strictness_predicate_matches_tables(self):
        for k in range(3, 6):
            for m in range(k, 15):
                for n in range(m + 1, 15):
                    if count_monotonicity_is_strict(m, n, k):
                        assert count_partitions(m, k) < count_partitions(n, k)

    def test_small_cases_rejected(self):
        with pytest.raises(ValueError):
            lemma1_strictness_witness(5, 2)
        with pytest.raises(ValueError):
            lemma1_strictness_witness(4, 3)


def reference_lemma2_family(n, k, c):
    """The fibre family verified member by member through ``Partition``.

    Every member is sorted into a validated partition, and the fibre
    classes are counted over the whole family at once.
    """
    count_k1 = count_partitions(n, k - 1)
    count_k = count_partitions(n, k)
    pieces = c * k * k
    base = enumerate_partitions(n, k - 1)
    family = set()
    pieces_disjoint = True
    members_ok = True
    for i in range(1, pieces + 1):
        fi = {(i,) + a.parts[:-1] + (a.parts[-1] - i,) for a in base}
        assert len(fi) == count_k1
        if family & fi:
            pieces_disjoint = False
        members_ok = members_ok and all(len(x) == k and sort_tuple(x).n == n for x in fi)
        family |= fi
    counts = Counter((tuple(sorted(x)), x[0]) for x in family)
    return Lemma2Report(
        n=n,
        k=k,
        c=c,
        family_size=len(family),
        expected_size=pieces * count_k1,
        count_k=count_k,
        count_k_minus_1=count_k1,
        pieces_disjoint=pieces_disjoint,
        size_matches=len(family) == pieces * count_k1,
        members_partition_n=members_ok,
        fibre_bound_holds=all(v <= k - 1 for v in counts.values()),
        inequality_holds=count_k > c * count_k1,
    )


class TestFibreFamilies:
    @pytest.mark.parametrize("n, k, c", [(27, 3, 1), (34, 3, 1), (54, 3, 2), (64, 4, 1)])
    def test_matches_member_by_member_reference(self, n, k, c):
        report = lemma2_family(n, k, c)
        reference = reference_lemma2_family(n, k, c)
        for field in fields(Lemma2Report):
            assert getattr(report, field.name) == getattr(reference, field.name), field.name
        assert report.all_assertions_hold

    def test_piece_checks_accept_a_real_piece(self):
        piece = {(3,) + a.parts[:-1] + (a.parts[-1] - 3,) for a in enumerate_partitions(27, 2)}
        assert _piece_checks(piece, 27, 3) == (True, True)

    def test_piece_checks_reject_a_member_summing_to_n_plus_one(self):
        piece = {(1, 1, 25), (1, 2, 24), (1, 3, 24)}
        assert _piece_checks(piece, 27, 3) == (False, True)

    def test_piece_checks_reject_a_zero_entry(self):
        piece = {(1, 1, 25), (1, 0, 26)}
        assert _piece_checks(piece, 27, 3) == (False, True)

    def test_piece_checks_reject_a_wrong_length(self):
        assert _piece_checks({(1, 1, 25), (1, 26)}, 27, 3) == (False, True)

    def test_piece_checks_reject_k_members_in_one_fibre(self):
        # four orderings of 1+2+3+4 that all start with 1
        piece = {(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2)}
        assert _piece_checks(piece, 10, 4) == (True, False)
        assert _piece_checks(piece - {(1, 3, 4, 2)}, 10, 4) == (True, True)

    @pytest.mark.parametrize("failed", [(False, True), (True, False)])
    def test_one_failed_piece_fails_the_report(self, monkeypatch, failed):
        real = constructions._piece_checks
        calls = []

        def fail_piece_five(piece, n, k):
            calls.append(piece)
            return failed if len(calls) == 5 else real(piece, n, k)

        monkeypatch.setattr(constructions, "_piece_checks", fail_piece_five)
        report = lemma2_family(27, 3, 1)
        assert len(calls) == 9
        assert (report.members_partition_n, report.fibre_bound_holds) == failed
        assert not report.all_assertions_hold

    def test_bad_base_raises(self, monkeypatch):
        def fake_base(parts):
            return lambda n, k, max_vertices: [Partition(p) for p in parts]

        # 13 members, as p(27, 2), but piece 6 takes the last part 6 to 0
        base = [(a, 27 - a) for a in range(1, 13)] + [(3, 6)]
        monkeypatch.setattr(constructions, "enumerate_partitions", fake_base(base))
        with pytest.raises(ConstructionError, match=r"piece 6: member \(6, 3, 0\) has a"):
            lemma2_family(27, 3, 1)
        # 13 copies of one partition make a piece of 1 member, not p(27, 2) = 13
        monkeypatch.setattr(constructions, "enumerate_partitions", fake_base([(13, 14)] * 13))
        with pytest.raises(ConstructionError, match="piece 1 has 1 members, not 13"):
            lemma2_family(27, 3, 1)

    def test_builds_only_the_base_partitions(self, monkeypatch):
        built = []
        init = Partition.__init__

        def counting_init(self, parts):
            built.append(1)
            init(self, parts)

        monkeypatch.setattr(Partition, "__init__", counting_init)
        report = lemma2_family(128, 4, 2)
        assert report.family_size == 32 * 1365 and report.all_assertions_hold
        # p(128, 3) = 1,365; verifying each member as a Partition built 45,045
        assert len(built) <= count_partitions(128, 3) == 1365

    def test_full_mode_all_assertions(self):
        report = lemma2_family(27, 3, 1)
        assert report.family_size == report.expected_size
        assert report.expected_size == 9 * count_partitions(27, 2)
        assert report.all_assertions_hold
        # spot-check membership: a member of F_9 sorts into P(27, 3)
        base = enumerate_partitions(27, 2)[0]
        sample = (9,) + base.parts[:-1] + (base.parts[-1] - 9,)
        assert sort_tuple(sample) in set(enumerate_partitions(27, 3))

    def test_inequality_conclusion(self):
        report = lemma2_family(32, 3, 1)
        assert report.count_k > report.c * report.count_k_minus_1
        assert report.inequality_holds

    def test_materialize_limit_guard(self, monkeypatch):
        # |F| = 9 * p(27, 2) = 117 members
        monkeypatch.setattr(constructions, "LEMMA2_MATERIALIZE_LIMIT", 116)
        with pytest.raises(ResourceGuardError):
            lemma2_family(27, 3, 1)
        monkeypatch.setattr(constructions, "LEMMA2_MATERIALIZE_LIMIT", 117)
        assert lemma2_family(27, 3, 1).family_size == 117

    def test_k4_instance(self):
        report = lemma2_family(64, 4, 1)
        assert report.expected_size == 16 * count_partitions(64, 3)
        assert report.all_assertions_hold

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lemma2_family(26, 3, 1)
        with pytest.raises(ValueError):
            lemma2_family(30, 2, 1)
        with pytest.raises(ValueError):
            lemma2_family(30, 3, 0)


class TestCoverSets:
    def test_single_member_family(self):
        report = lemma3_cover([{1, 2, 3}], 1, 3)
        assert report.case == "t_plus_1_intersecting"
        assert report.cover == frozenset({1, 2, 3})
        assert report.min_overlap == 3
        assert report.size_bound == 6

    def test_three_set_union_case(self):
        report = lemma3_cover([{1, 2}, {2, 3}, {1, 3}], 1, 2)
        assert report.case == "three_set_union"
        assert report.cover == frozenset({1, 2, 3})
        assert len(report.cover) <= report.size_bound == 3
        assert report.min_overlap >= 2
        assert report.witnesses is not None

    def test_trivial_family_raises(self):
        with pytest.raises(TriviallyTIntersectingError):
            lemma3_cover([{1, 2}, {1, 3}], 1, 2)

    def test_tiny_trivial_members_raise(self):
        with pytest.raises(TriviallyTIntersectingError):
            lemma3_cover([{1}], 1, 1)

    def test_non_intersecting_family_rejected(self):
        with pytest.raises(NotTIntersectingError):
            lemma3_cover([{1, 2}, {3, 4}], 1, 2)
        with pytest.raises(NotTIntersectingError):
            lemma3_cover([{1, 2, 3}, {3, 4, 5}], 2, 3)

    def test_oversized_member_rejected(self):
        with pytest.raises(ValueError):
            lemma3_cover([{1, 2, 3, 4}], 1, 3)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            lemma3_cover([], 1, 3)

    def test_randomized_instances_meet_guarantees(self):
        rng = random.Random(97)
        produced = 0
        attempts = 0
        while produced < 300 and attempts < 30000:
            attempts += 1
            candidate = random_cover_instance(rng)
            if candidate is None:
                continue
            family, t, r = candidate
            report = lemma3_cover(family, t, r)
            assert len(report.cover) <= 3 * r - 2 * t - 1
            assert all(len(a & report.cover) >= t + 1 for a in family)
            produced += 1
        assert produced == 300


class TestBoundaryWitnesses:
    def test_all_twos_witness_at_doubled_length(self):
        out = proposition_witnesses(8, 4)
        a1, a2, a3 = out["a1"], out["a2"], out["a3"]
        assert a1 == Partition((2, 2, 2, 2))
        assert a2 == Partition((1, 1, 1, 5))
        assert a3 == Partition((1, 1, 3, 3))
        assert not t_intersects(a1, a2, 1)
        assert not t_intersects(a1, a3, 1)

    def test_no_third_witness_below_length_four(self):
        # both t = 1 boundaries coincide at n = 2k, so the overlap pair
        # appears too; only the k >= 4 witness must be absent
        out = proposition_witnesses(6, 3)
        assert "a3" not in out
        assert set(out) == {"a1", "a2", "a", "b"}

    def test_exact_t_minus_one_overlap_pair(self):
        out = proposition_witnesses(9, 5, 2)
        a, b = out["a"], out["b"]
        assert a == Partition((1, 2, 2, 2, 2))
        assert b == Partition((1, 1, 1, 1, 5))
        assert multiset_common_count(a.parts, b.parts) == 1

    def test_no_witnesses_elsewhere(self):
        with pytest.raises(ValueError):
            proposition_witnesses(9, 3, 1)

    def test_witness_families_block_uniqueness(self):
        # at n = 2k and k <= 3 the star plus the all-twos member ties it
        members = enumerate_partitions(6, 3)
        a1 = Partition((2, 2, 2))
        star = [p for p in members if p.parts[0] == 1]
        swapped = [p for p in star if t_intersects(p, a1, 1)] + [a1]
        assert len(swapped) == len(star)
        assert all(t_intersects(x, y, 1) for x, y in combinations(swapped, 2))
