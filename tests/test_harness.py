"""Sweep rows, caching, self-checks, and report rendering."""

import dataclasses
import json

import pytest

from partint import Partition, Relation, harness
from partint.cliques import ENGINE_VERSION
from partint.harness import (
    GENERATOR_NOTE,
    ROW_FIELDS,
    HarnessSelfCheckError,
    RowCache,
    RunConfig,
    SweepRow,
    cross_validate_ekr,
    render_rows,
    rows_to_csv,
    rows_to_json,
    rows_to_table,
    run_lemma_suites,
    solve_instance,
    suite_report_to_json,
    summarize_rows,
    verify_strong_form,
    verify_t_conjectures,
    verify_weak_form,
    weak_strong_consistent,
    witness_digest,
)
from partint.harness import _strong_self_check


def make_row(**overrides):
    base = dict(
        n=10,
        k=3,
        t=1,
        relation="multiset",
        star_size=4,
        max_size=4,
        star_is_maximum=True,
        unique="no",
        witness_digest="0" * 16,
        elapsed=0.0,
    )
    base.update(overrides)
    return SweepRow(**base)


class TestRowContract:
    def test_field_order_is_the_dataclass_order(self):
        assert tuple(f.name for f in dataclasses.fields(SweepRow)) == ROW_FIELDS

    def test_counterexample_and_conclusive_flags(self):
        assert not make_row().is_counterexample
        assert make_row(star_is_maximum=False).is_counterexample
        assert not make_row(star_is_maximum=None).is_counterexample
        # a set-system maximum above the star is the AK value, checked elsewhere
        assert not make_row(relation="sets", star_is_maximum=False).is_counterexample
        assert not make_row(star_is_maximum=None).conclusive

    def test_witness_digest_is_stable(self):
        family = [Partition(p) for p in [(1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3)]]
        assert witness_digest(family) == "0645e639545fb658"

    def test_digest_distinguishes_families(self):
        a = witness_digest([Partition((1, 2, 5))])
        b = witness_digest([Partition((1, 2, 6))])
        assert a != b and len(a) == len(b) == 16


class TestSolveInstance:
    def test_fixed_length_row(self):
        row = solve_instance(10, 3, 1, Relation.MULTISET, RunConfig(), None)
        assert row.star_size == 4 and row.max_size == 4
        assert row.star_is_maximum and row.unique == "no"
        assert row.elapsed == 0.0

    def test_mixed_length_row(self):
        row = solve_instance(2, None, 1, Relation.MULTISET, RunConfig(), None)
        assert row.k is None
        assert row.max_size == 1 and row.unique == "no"

    def test_budget_exhaustion_yields_inconclusive_row(self):
        row = solve_instance(12, 4, 1, Relation.MULTISET, RunConfig(node_budget=1), None)
        assert row.star_is_maximum is None
        assert row.unique == "inconclusive"
        assert row.max_size == row.star_size  # the seed is the best lower bound
        assert not row.conclusive

    def test_nondeterministic_runs_record_time(self):
        row = solve_instance(
            12, 4, 1, Relation.MULTISET, RunConfig(deterministic=False), None
        )
        assert row.elapsed >= 0.0


class TestRowCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        cache = RowCache(path)
        row = solve_instance(9, 3, 1, Relation.MULTISET, RunConfig(), cache)
        reopened = RowCache(path)
        assert reopened.lookup(9, 3, 1, "multiset") == row
        assert reopened.stats()["rows"] == 1
        assert reopened.stats()["engine_version"] == ENGINE_VERSION

    def test_solve_instance_prefers_cache(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        cache = RowCache(path)
        first = solve_instance(9, 3, 1, Relation.MULTISET, RunConfig(), cache)
        poisoned = dataclasses.replace(first, max_size=99)
        cache._rows[(9, 3, 1, "multiset")] = poisoned
        assert solve_instance(9, 3, 1, Relation.MULTISET, RunConfig(), cache) == poisoned

    def test_stale_engine_version_ignored(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        record = {
            "engine_version": "not-" + ENGINE_VERSION,
            "row": dataclasses.asdict(make_row()),
        }
        path.write_text(json.dumps(record) + "\n")
        cache = RowCache(str(path))
        assert cache.lookup(10, 3, 1, "multiset") is None
        assert cache.stats()["stale"] == 1

    def test_malformed_lines_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"engine_version": "1"\nnot json at all\n')
        cache = RowCache(str(path))
        assert cache.stats()["malformed"] == 2

    def test_rows_without_uniqueness_bypass_the_cache(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        cache = RowCache(path)

        def skipped():
            return solve_instance(
                10, 3, 1, Relation.MULTISET, RunConfig(), cache, uniqueness=False
            )

        first = skipped()
        assert first.unique == "not_computed"
        assert RowCache(path).stats()["rows"] == 0
        full = solve_instance(10, 3, 1, Relation.MULTISET, RunConfig(), cache)
        assert full == dataclasses.replace(first, unique="no")
        assert skipped() == first

    def test_inconclusive_rows_not_stored(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        cache = RowCache(path)
        solve_instance(12, 4, 1, Relation.MULTISET, RunConfig(node_budget=1), cache)
        assert RowCache(path).stats()["rows"] == 0

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        cache = RowCache(str(path))
        cache.store(make_row())
        assert path.exists()
        cache.clear()
        assert not path.exists()
        assert cache.stats()["rows"] == 0


class TestSweeps:
    def test_small_strong_grid_matches_reality(self):
        rows = verify_strong_form(RunConfig(n_max=8))
        refuted = [r for r in rows if r.is_counterexample]
        assert [(r.n, r.k) for r in refuted] == [(8, 3)]
        assert all(r.conclusive for r in rows)

    def test_fail_fast_stops_at_first_counterexample(self):
        rows = verify_strong_form(RunConfig(n_max=22, fail_fast=True))
        assert rows[-1].is_counterexample
        assert (rows[-1].n, rows[-1].k) == (8, 3)

    def test_fail_fast_still_self_checks_the_last_row(self, monkeypatch):
        # a counterexample row whose star is p(1, 1) + 1 = 2 at (2, 2)
        bad = make_row(n=2, k=2, star_size=2, max_size=3, star_is_maximum=False)
        monkeypatch.setattr(harness, "solve_instance", lambda *args, **kwargs: bad)
        with pytest.raises(HarnessSelfCheckError):
            verify_strong_form(RunConfig(n_max=2))
        with pytest.raises(HarnessSelfCheckError):
            verify_strong_form(RunConfig(n_max=2, fail_fast=True))

    @pytest.mark.parametrize(
        "runner, config",
        [
            (verify_strong_form, RunConfig(n_max=0)),
            (verify_strong_form, RunConfig(n_max=6, k_max=0)),
            (verify_weak_form, RunConfig(n_min=3, n_max=0)),
            (verify_t_conjectures, RunConfig(n_max=8, k_max=4, t_max=0)),
            (verify_t_conjectures, RunConfig(n_max=0, k_max=4)),
            (cross_validate_ekr, RunConfig(n_max=0)),
            (cross_validate_ekr, RunConfig(n_max=5, k_max=0)),
            (cross_validate_ekr, RunConfig(n_max=5, t_max=0)),
        ],
    )
    def test_explicit_zero_upper_bound_gives_an_empty_grid(self, runner, config):
        assert runner(config) == []

    def test_explicit_zero_lower_bound_starts_at_the_smallest_valid_value(self):
        assert [r.n for r in verify_weak_form(RunConfig(n_min=0, n_max=2))] == [1, 2]
        rows = verify_t_conjectures(RunConfig(t_min=0, t_max=1, k_max=2, n_max=3))
        assert [(r.n, r.k, r.t) for r in rows] == [(2, 2, 1), (3, 2, 1)]
        rows = cross_validate_ekr(RunConfig(t_min=0, t_max=1, k_max=1, n_max=2))
        assert [(r.n, r.k, r.t) for r in rows] == [(1, 1, 1), (2, 1, 1)]

    def test_ekr_budget_exhaustion_yields_inconclusive_rows(self):
        rows = cross_validate_ekr(RunConfig(n_max=6, node_budget=1))
        inconclusive = [r for r in rows if not r.conclusive]
        assert len(rows) == 30 and len(inconclusive) == 14
        for row in inconclusive:
            # the seeded star is the best family known at the abort
            assert row.max_size == row.star_size
            assert row.unique == "not_computed"
        full = {(r.n, r.k, r.t): r for r in cross_validate_ekr(RunConfig(n_max=6))}
        for row in rows:
            if row.conclusive:
                assert row == full[row.n, row.k, row.t]
        assert summarize_rows(rows) == {
            "instances": 30,
            "verified": 16,
            "refuted": 0,
            "inconclusive": 14,
        }

    def test_weak_rows_match_star_table(self, weak_sweep):
        for row in weak_sweep.rows:
            assert row.max_size == row.star_size
            assert row.star_is_maximum
        verdicts = {row.n: row.unique for row in weak_sweep.rows}
        assert verdicts[2] == "no"
        assert all(verdicts[n] == "yes" for n in range(3, 15))

    def test_weak_and_strong_tables_consistent(self, strong_sweep, weak_sweep):
        assert weak_strong_consistent(strong_sweep.rows, weak_sweep.rows)

    def test_self_check_rejects_bad_star_size(self):
        with pytest.raises(HarnessSelfCheckError):
            _strong_self_check(make_row(star_size=5))

    def test_self_check_rejects_violation_in_proven_range(self):
        bad = make_row(n=8, k=4, star_size=4, max_size=5, star_is_maximum=False)
        with pytest.raises(HarnessSelfCheckError):
            _strong_self_check(bad)

    def test_self_check_rejects_wrong_uniqueness_classification(self):
        bad = make_row(n=6, k=3, star_size=2, max_size=2, unique="yes")
        with pytest.raises(HarnessSelfCheckError):
            _strong_self_check(bad)

    def test_summarize_counts(self):
        rows = [
            make_row(),
            make_row(star_is_maximum=False),
            make_row(star_is_maximum=None, unique="inconclusive"),
        ]
        assert summarize_rows(rows) == {
            "instances": 3,
            "verified": 1,
            "refuted": 1,
            "inconclusive": 1,
        }

    @pytest.mark.parametrize(
        "changes, message",
        [
            # (5,3,1) is below the threshold: star 6, Ahlswede-Khachatrian 10
            ({"max_size": 6, "star_is_maximum": True}, "Ahlswede-Khachatrian maximum 10"),
            ({"star_size": 5}, r"expected C\(4, 2\)"),
        ],
        ids=["ak-miss", "star-size"],
    )
    def test_ekr_self_check_rejects_a_wrong_set_system_result(
        self, monkeypatch, changes, message
    ):
        real = harness.max_family_set_system
        monkeypatch.setattr(
            harness,
            "max_family_set_system",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), **changes),
        )
        config = RunConfig(n_min=5, n_max=5, k_min=3, k_max=3, t_max=1)
        with pytest.raises(HarnessSelfCheckError, match=message):
            cross_validate_ekr(config)


class TestRendering:
    def rows(self):
        return [make_row(), make_row(n=8, star_size=3, star_is_maximum=False, k=None)]

    def test_csv_header_and_booleans(self):
        text = rows_to_csv(self.rows())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(ROW_FIELDS)
        assert lines[1].split(",")[6] == "true"
        assert lines[2].split(",")[6] == "false"
        assert lines[2].split(",")[1] == ""  # mixed-length k renders empty

    def test_json_shape(self):
        config = RunConfig()
        payload = json.loads(rows_to_json(config, self.rows(), summarize_rows(self.rows())))
        assert set(payload) == {"config", "rows", "summary"}
        assert payload["config"]["engine_version"] == ENGINE_VERSION
        assert list(payload["rows"][0]) == list(ROW_FIELDS)
        assert payload["summary"]["refuted"] == 1

    def test_table_tags_counterexamples(self):
        text = rows_to_table(self.rows(), summarize_rows(self.rows()))
        lines = text.split("\n")
        assert any("COUNTEREXAMPLE" in line for line in lines)
        assert "verified" in text

    def test_render_rows_dispatches_on_format(self):
        config = RunConfig(fmt="csv")
        assert render_rows(config, self.rows(), {}).startswith(",".join(ROW_FIELDS))
        config = RunConfig(fmt="json")
        assert render_rows(config, self.rows(), {}).startswith("{")


class TestLemmaSuiteReport:
    def test_quick_run_all_pass(self):
        report = run_lemma_suites(RunConfig(seed=3, trials=25))
        assert report.all_passed
        names = {suite.name for suite in report.suites}
        assert "padding_injection" in names
        assert "cover_sets" in names
        cover = next(s for s in report.suites if s.name == "cover_sets")
        assert cover.instances == 25

    def test_json_report_carries_generator_note(self):
        report = run_lemma_suites(RunConfig(seed=3, trials=5))
        payload = json.loads(suite_report_to_json(RunConfig(seed=3, trials=5), report))
        assert payload["generator"] == GENERATOR_NOTE
        assert all(s["failed"] == 0 for s in payload["suites"])
