"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line that the terminal summary prints at
the end of the run.  Criteria 3 and 7 pin the refutation of the star
conjecture: the strong-form grid is beaten exactly at (n=8, k=3, t=1),
the multiset t-grid exactly at its lifts (9, 4, 2) and (10, 5, 3), each
by the same four-member family (with t-1 ones prepended), and every
row of both grids is conclusive.  The (8, 3) maximum is confirmed
independently by exhaustive search in test_cliques.py.
"""

import time
from itertools import combinations

from partint import (
    Partition,
    SetFamilyInstance,
    count_all,
    count_partitions,
    enumerate_partitions,
    star_all_lengths,
    star_t,
    t_intersects,
    witness_digest,
)
from partint.cli import main

# The smallest counterexample to the star conjecture: a pairwise
# intersecting family in P(8, 3), one larger than the star p(7, 2) = 3.
BEATS_STAR_8_3 = ((1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3))


def lifted_family(t):
    """The (8, 3) family with t-1 ones prepended, a level-t family in P(t+7, t+2)."""
    return [Partition((1,) * (t - 1) + parts) for parts in BEATS_STAR_8_3]


def refutation_problems(rows, expected):
    """How the sweep rows differ from the pinned refutation.

    ``expected`` maps each refuted cell (n, k, t) to its witness family.
    Every row must be conclusive, the refuted cells must be exactly the
    expected ones, each with star 3 and max 4, and the row's witness
    must be the expected family.  That family is checked to be pairwise
    t-intersecting with ``t_intersects`` itself, not with the adjacency
    bits the engine searched.
    """
    problems = [
        f"inconclusive at (n={r.n}, k={r.k}, t={r.t})" for r in rows if not r.conclusive
    ]
    refuted = {(r.n, r.k, r.t): r for r in rows if r.is_counterexample}
    if sorted(refuted) != sorted(expected):
        problems.append(f"refuted cells {sorted(refuted)}, expected {sorted(expected)}")
    for (n, k, t), family in expected.items():
        row = refuted.get((n, k, t))
        if row is None:
            continue
        if (row.star_size, row.max_size) != (3, 4):
            problems.append(f"(n={n}, k={k}, t={t}): star {row.star_size}, max {row.max_size}")
        if row.witness_digest != witness_digest(family):
            problems.append(f"(n={n}, k={k}, t={t}): witness is not {family}")
        if not all(t_intersects(a, b, t) for a, b in combinations(family, 2)):
            problems.append(f"(n={n}, k={k}, t={t}): {family} is not pairwise {t}-intersecting")
    return problems


def fmt_refutation(expected):
    return "; ".join(
        f"(n={n}, k={k}, t={t}) star 3 < max 4 by {[p.parts for p in family]}"
        for (n, k, t), family in expected.items()
    )


def test_criterion_1_counting_oracle(criterion_report):
    start = time.perf_counter()
    mismatches = [
        (n, k)
        for n in range(1, 31)
        for k in range(1, n + 1)
        if count_partitions(n, k) != len(enumerate_partitions(n, k))
    ]
    secs = time.perf_counter() - start
    ok = not mismatches and secs < 60
    criterion_report(
        1, ok, f"count = |enumeration| on 465 cells up to n = 30 ({secs:.1f}s)"
    )
    assert mismatches == []
    assert secs < 60


def test_criterion_2_star_identities(criterion_report):
    start = time.perf_counter()
    bad = []
    for n in range(1, 26):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                if len(star_t(n, k, t)) != count_partitions(n - t, k - t):
                    bad.append(("fixed", n, k, t))
        for t in range(1, n + 1):
            if len(star_all_lengths(n, t)) != count_all(n - t):
                bad.append(("mixed", n, t))
    secs = time.perf_counter() - start
    ok = not bad and secs < 60
    criterion_report(2, ok, f"star sizes match reduced counts up to n = 25 ({secs:.1f}s)")
    assert bad == []
    assert secs < 60


def test_criterion_3_strong_form_sweep(criterion_report, strong_sweep):
    rows = strong_sweep.rows
    assert len(rows) == 231
    assert strong_sweep.secs < 1800
    problems = [
        f"star size off at (n={r.n}, k={r.k})"
        for r in rows
        if r.star_size != count_partitions(r.n - 1, r.k - 1)
    ]
    expected = {(8, 3, 1): lifted_family(1)}
    problems += refutation_problems(rows, expected)
    detail = (
        "; ".join(problems)
        if problems
        else f"231/231 rows conclusive with star p(n-1, k-1); refuted exactly at "
        f"{fmt_refutation(expected)} ({strong_sweep.secs:.1f}s)"
    )
    criterion_report(3, not problems, detail)
    assert problems == []


def test_criterion_4_non_uniqueness_window(criterion_report, strong_sweep):
    verdicts = {
        (r.n, r.k): r.unique for r in strong_sweep.rows if r.k == 3 and 6 <= r.n <= 10
    }
    window_ok = all(verdicts[(n, 3)] == "no" for n in range(6, 11))

    members = enumerate_partitions(10, 3)
    family = [p for p in members if p.parts in {(1, 2, 7), (1, 3, 6), (1, 4, 5), (2, 3, 5)}]
    family_ok = (
        len(family) == 4 == count_partitions(9, 2)
        and all(t_intersects(a, b, 1) for a, b in combinations(family, 2))
    )
    ok = window_ok and family_ok
    criterion_report(
        4, ok, "uniqueness 'no' for k = 3, 6 <= n <= 10; alternative family validates"
    )
    assert window_ok, verdicts
    assert family_ok


def test_criterion_5_doubled_length_classification(criterion_report, strong_sweep):
    verdicts = {(r.n, r.k): r.unique for r in strong_sweep.rows}
    expected = {
        (4, 2): "no",
        (6, 3): "no",
        (8, 4): "yes",
        (10, 5): "yes",
        (12, 6): "yes",
    }
    got = {key: verdicts[key] for key in expected}
    ok = got == expected
    criterion_report(5, ok, "n = 2k uniqueness: no for k in {2,3}, yes for k in {4,5,6}")
    assert got == expected


def test_criterion_6_weak_form_sweep(criterion_report, weak_sweep):
    rows = {r.n: r for r in weak_sweep.rows}
    assert weak_sweep.secs < 1800
    problems = []
    if not (rows[2].max_size == 1 and rows[2].unique == "no"):
        problems.append(f"n=2 gave max {rows[2].max_size}, unique {rows[2].unique}")
    for n in range(3, 15):
        row = rows[n]
        if not (
            row.max_size == count_all(n - 1)
            and row.star_is_maximum
            and row.unique == "yes"
        ):
            problems.append(f"n={n} gave max {row.max_size}, unique {row.unique}")
    ok = not problems
    criterion_report(
        6, ok, f"mixed-length maxima equal p(n-1) with unique stars, 3 <= n <= 14 "
        f"({weak_sweep.secs:.1f}s)"
    )
    assert problems == []


def test_criterion_7_t_level_sweeps(criterion_report, t_sweep_multiset, t_sweep_proper):
    problems = []

    for row in t_sweep_multiset.rows:
        t, k = row.t, row.k
        if k == t + 1:
            if row.max_size != 1:
                problems.append(f"multiset (n={row.n}, k={k}, t={t}) max {row.max_size} != 1")
            continue
        if row.star_size != count_partitions(row.n - t, k - t):
            problems.append(f"multiset star size off at (n={row.n}, k={k}, t={t})")

    for row in t_sweep_proper.rows:
        t, k = row.t, row.k
        eligible_from = t * (t - 1) // 2 + k
        if k == t + 1:
            expected = 1 if row.n >= eligible_from else 0
            if row.max_size != expected:
                problems.append(f"proper (n={row.n}, k={k}, t={t}) max {row.max_size} != {expected}")
            continue
        reduced = row.n - t * (t + 1) // 2
        expected_star = count_partitions(reduced, k - t) if reduced >= 0 else 0
        if row.star_size != expected_star:
            problems.append(f"proper star size off at (n={row.n}, k={k}, t={t})")
        if row.max_size != expected_star or row.is_counterexample:
            problems.append(f"proper max off at (n={row.n}, k={k}, t={t})")

    expected = {(t + 7, t + 2, t): lifted_family(t) for t in (2, 3)}
    problems += refutation_problems(t_sweep_multiset.rows, expected)
    problems += refutation_problems(t_sweep_proper.rows, {})
    detail = (
        "; ".join(problems)
        if problems
        else f"proper relation verified {len(t_sweep_proper.rows)}/{len(t_sweep_proper.rows)}; "
        f"multiset rows conclusive, refuted exactly at {fmt_refutation(expected)} "
        f"({t_sweep_multiset.secs + t_sweep_proper.secs:.1f}s)"
    )
    criterion_report(7, not problems, detail)
    assert problems == []


def test_criterion_8_lemma_suites(criterion_report, lemma_suites):
    report = lemma_suites.report
    suites = {s.name: s for s in report.suites}
    cover = suites["cover_sets"]
    ok = (
        report.all_passed
        and cover.instances == 1000
        and cover.passed == 1000
        and lemma_suites.secs < 600
    )
    summary = ", ".join(f"{s.name} {s.passed}/{s.instances}" for s in report.suites)
    criterion_report(8, ok, f"{summary} ({lemma_suites.secs:.1f}s)")
    assert report.all_passed
    assert cover.instances == cover.passed == 1000
    assert lemma_suites.secs < 600


def test_criterion_9_set_system_cross_validation(criterion_report, ekr_sweep):
    rows = {(r.n, r.k, r.t): r for r in ekr_sweep.rows}
    bad = []
    for (n, r, t), row in rows.items():
        instance = SetFamilyInstance(n, r, t)
        if row.max_size != instance.ak_maximum:
            bad.append((n, r, t))
        # above the threshold the Ahlswede-Khachatrian maximum is the star
        if instance.at_or_above_threshold and row.max_size != instance.star_size:
            bad.append((n, r, t))
    pinned = (
        rows[(8, 3, 1)].max_size == 21 and rows[(9, 4, 2)].max_size == 21
    )
    ok = not bad and pinned
    criterion_report(
        9,
        ok,
        f"Ahlswede-Khachatrian maxima reproduced on {len(rows)} set-system "
        f"instances ({ekr_sweep.secs:.1f}s)",
    )
    assert bad == []
    assert pinned


def test_criterion_10_deterministic_reports(criterion_report, tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "verify", "strong",
        "--deterministic",
        "--format", "json",
        "--out", str(out),
    ]
    first_code = main(argv)
    first = out.read_bytes()
    second_code = main(argv)
    second = out.read_bytes()
    ok = first == second and first_code == second_code
    criterion_report(
        10, ok, f"two default-grid runs byte-identical ({len(first)} bytes)"
    )
    assert first == second
    assert first_code == second_code
