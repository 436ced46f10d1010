"""End-to-end command-line behavior, including exit codes."""

import argparse
import hashlib
import json

import pytest

from partint import harness
from partint.cli import build_parser, main
from partint.harness import ROW_FIELDS

OUTPUT = {"--format", "--out"}
SEARCH = {"--max-vertices", "--node-budget", "--time-budget-secs", "--deterministic"}
N, K, T = ({f"--{axis}-min", f"--{axis}-max"} for axis in "nkt")
SWEEP = SEARCH | OUTPUT
VERIFY = SWEEP | {"--cache", "--fail-fast"}


def all_parsers():
    """Every subcommand's parser and every verify mode's, by command path."""
    found = {}

    def walk(prefix, parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    found[prefix + name] = child
                    walk(prefix + name + " ", child)

    walk("", build_parser())
    return found


class TestOptionSets:
    """Each subcommand and verify mode accepts exactly the options it reads."""

    EXPECTED = {
        "enumerate": {"--max-vertices"} | OUTPUT,
        "count": OUTPUT,
        "max-family": {"--n", "--k", "--t", "--relation", "--uniqueness"} | SEARCH | OUTPUT,
        "verify": set(),
        "verify strong": N | K | VERIFY,
        "verify weak": N | VERIFY,
        "verify t-multiset": N | K | T | VERIFY,
        "verify t-proper": N | K | T | VERIFY,
        "lemmas": {"--trials", "--seed"} | OUTPUT,
        "ekr-check": N | K | T | SWEEP,
        "cache": {"--cache"},
    }
    WRITES_CSV = {"enumerate", "ekr-check"} | {
        f"verify {mode}" for mode in ("strong", "weak", "t-multiset", "t-proper")
    }

    def test_option_strings_are_pinned(self):
        found = {
            name: {
                action.option_strings[0]
                for action in parser._actions
                if action.option_strings and action.dest != "help"
            }
            for name, parser in all_parsers().items()
        }
        assert found == self.EXPECTED

    def test_csv_is_offered_only_where_it_is_written(self):
        offered = {
            name: set(action.choices)
            for name, parser in all_parsers().items()
            for action in parser._actions
            if action.dest == "fmt"
        }
        assert {name for name, choices in offered.items() if "csv" in choices} == self.WRITES_CSV
        assert all(choices - {"csv"} == {"json", "table"} for choices in offered.values())

    @pytest.mark.parametrize(
        "argv",
        [
            ["max-family", "--n", "10", "--k", "3", "--cache", "x"],
            ["lemmas", "--trials", "5", "--node-budget", "1"],
            ["ekr-check", "--n-max", "4", "--fail-fast"],
            ["count", "5", "--max-vertices", "9"],
            # grid options a verify mode never reads
            "verify strong --n-max 4 --t-min 9 --t-max 9 --format csv".split(),
            "verify weak --n-max 4 --k-max 1 --t-min 9 --format csv".split(),
        ],
    )
    def test_unread_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "--trials", "5", "--format", "csv"],
            ["count", "9", "2", "--format", "csv"],
            ["max-family", "--n", "10", "--k", "3", "--format", "csv"],
        ],
    )
    def test_csv_is_rejected_where_nothing_writes_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestBadInput:
    """Bad arguments and instances over the vertex cap: exit 2, one line on stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "5", "0"], "argument k: expected an integer >= 1, got 0"),
            (["count", "-1"], "argument n: expected an integer >= 0, got -1"),
            (["max-family", "--n", "5", "--t", "-1"], "argument --t: expected an integer >= 0"),
            (
                ["verify", "strong", "--n-max", "30", "--max-vertices", "10"],
                "p(11, 4) = 11 exceeds the vertex cap 10",
            ),
            (
                ["max-family", "--n", "30", "--k", "8", "--max-vertices", "10"],
                "p(30, 8) = 638 exceeds the vertex cap 10",
            ),
            (
                ["verify", "strong", "--n-max", "5", "--node-budget", "-1"],
                "argument --node-budget: expected an integer >= 0, got -1",
            ),
            (
                ["verify", "strong", "--n-max", "5", "--time-budget-secs", "-1"],
                "argument --time-budget-secs: expected a number >= 0, got -1.0",
            ),
            (
                ["ekr-check", "--n-max", "5", "--time-budget-secs", "nan"],
                "argument --time-budget-secs: expected a number >= 0, got nan",
            ),
            (
                ["max-family", "--n", "5", "--max-vertices", "-1"],
                "argument --max-vertices: expected an integer >= 0, got -1",
            ),
            (
                ["enumerate", "5", "2", "--max-vertices", "-1"],
                "argument --max-vertices: expected an integer >= 0, got -1",
            ),
            (["lemmas", "--trials", "0"], "argument --trials: expected an integer >= 1, got 0"),
            (["lemmas", "--trials", "-1"], "argument --trials: expected an integer >= 1, got -1"),
        ],
    )
    def test_exits_two_with_one_line(self, argv, message, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err


class TestCountAndEnumerate:
    def test_count_fixed_length(self, capsys):
        assert main(["count", "10", "3"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_count_all_lengths(self, capsys):
        assert main(["count", "5"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_count_json(self, capsys):
        assert main(["count", "9", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 9, "k": 2, "count": 4}

    def test_enumerate_table(self, capsys):
        assert main(["enumerate", "5", "2"]) == 0
        assert capsys.readouterr().out == "1+4\n2+3\n"

    def test_enumerate_json(self, capsys):
        assert main(["enumerate", "8", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 5
        assert payload["partitions"][0] == [1, 1, 6]

    def test_enumerate_csv(self, capsys):
        assert main(["enumerate", "5", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "parts\n1 4\n2 3\n"


class TestMaxFamily:
    def test_star_maximum_instance_exits_zero(self, capsys):
        code = main(["max-family", "--n", "10", "--k", "3", "--format", "json"])
        row = json.loads(capsys.readouterr().out)
        assert code == 0
        assert row["max_size"] == 4 and row["star_is_maximum"] is True
        assert row["unique"] == "no"

    def test_counterexample_instance_exits_one(self, capsys):
        code = main(["max-family", "--n", "8", "--k", "3", "--format", "json"])
        row = json.loads(capsys.readouterr().out)
        assert code == 1
        assert row["star_size"] == 3 and row["max_size"] == 4
        assert row["star_is_maximum"] is False

    def test_uniqueness_can_be_skipped(self, capsys, monkeypatch):
        calls = []
        real = harness.check_uniqueness
        monkeypatch.setattr(
            harness, "check_uniqueness", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        code = main(
            ["max-family", "--n", "10", "--k", "3", "--no-uniqueness", "--format", "json"]
        )
        row = json.loads(capsys.readouterr().out)
        assert code == 0
        assert row["unique"] == "not_computed"
        assert calls == []

    def test_mixed_lengths_when_k_omitted(self, capsys):
        code = main(["max-family", "--n", "9", "--format", "json"])
        row = json.loads(capsys.readouterr().out)
        assert code == 0
        assert row["k"] is None and row["max_size"] == 22

    @pytest.mark.parametrize(
        "fmt, text",
        [
            (
                "json",
                '{\n  "n": 8,\n  "k": 3,\n  "t": 1,\n  "relation": "multiset",\n'
                '  "star_size": 3,\n  "max_size": 4,\n  "star_is_maximum": false,\n'
                '  "unique": "no",\n  "witness_digest": "0645e639545fb658",\n'
                '  "elapsed": 0.0\n}\n',
            ),
            (
                "table",
                "n=8, k=3, t=1, relation=multiset, star_size=3, max_size=4, "
                "star_is_maximum=False, unique=no, witness_digest=0645e639545fb658, "
                "elapsed=0.0\n",
            ),
        ],
        ids=["json", "table"],
    )
    def test_row_text_is_pinned(self, capsys, fmt, text):
        assert main(["max-family", "--n", "8", "--k", "3", "--t", "1", "--format", fmt]) == 1
        assert capsys.readouterr().out == text

    def test_budget_exhaustion_reports_inconclusive_row(self, capsys):
        code = main(
            ["max-family", "--n", "12", "--k", "4", "--node-budget", "1", "--format", "json"]
        )
        row = json.loads(capsys.readouterr().out)
        assert code == 3
        assert row["star_is_maximum"] is None
        assert row["unique"] == "inconclusive"


class TestVerify:
    def test_strong_default_grid_reports_the_counterexample(self, tmp_path):
        out = tmp_path / "strong.json"
        code = main(["verify", "strong", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert code == 1
        assert payload["summary"] == {
            "instances": 231,
            "verified": 230,
            "refuted": 1,
            "inconclusive": 0,
        }
        refuted = [r for r in payload["rows"] if r["star_is_maximum"] is False]
        assert [(r["n"], r["k"]) for r in refuted] == [(8, 3)]

    def test_strong_below_eight_is_clean(self, tmp_path):
        out = tmp_path / "small.json"
        code = main(
            ["verify", "strong", "--n-max", "7", "--format", "json", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["summary"]["refuted"] == 0

    def test_weak_sweep_clean(self, tmp_path):
        out = tmp_path / "weak.json"
        code = main(
            ["verify", "weak", "--n-max", "10", "--format", "json", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["summary"]["refuted"] == 0

    def test_t_proper_sweep_clean(self, tmp_path):
        out = tmp_path / "proper.json"
        code = main(
            [
                "verify",
                "t-proper",
                "--t-min", "2", "--t-max", "2",
                "--k-max", "5",
                "--n-max", "12",
                "--format", "json",
                "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["summary"]["refuted"] == 0
        assert all(r["relation"] == "proper" for r in payload["rows"])

    def test_t_multiset_sweep_finds_lifted_counterexample(self, tmp_path):
        out = tmp_path / "multiset.json"
        code = main(
            [
                "verify",
                "t-multiset",
                "--t-min", "2", "--t-max", "2",
                "--k-max", "5",
                "--n-max", "12",
                "--format", "json",
                "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert code == 1
        refuted = [r for r in payload["rows"] if r["star_is_maximum"] is False]
        assert [(r["n"], r["k"], r["t"]) for r in refuted] == [(9, 4, 2)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "weak", "--n-min", "3", "--n-max", "0"],
            ["verify", "strong", "--n-max", "6", "--k-max", "0"],
            ["verify", "t-proper", "--n-max", "8", "--t-max", "0"],
            ["ekr-check", "--n-max", "0"],
        ],
    )
    def test_explicit_zero_bound_gives_an_empty_grid(self, argv, tmp_path):
        out = tmp_path / "empty.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"] == []
        assert payload["summary"]["instances"] == 0

    def test_csv_format_column_contract(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["verify", "weak", "--n-max", "6", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(ROW_FIELDS)

    def test_deterministic_reports_are_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "verify", "strong",
            "--n-max", "12",
            "--deterministic",
            "--format", "json",
            "--out", str(out),
        ]
        main(argv)
        first = out.read_bytes()
        main(argv)
        assert out.read_bytes() == first

    def test_report_bytes_do_not_depend_on_output_paths(self, tmp_path):
        reports = []
        for name in ("a", "a-longer-name"):
            out = tmp_path / f"{name}.json"
            main(
                [
                    "verify", "strong",
                    "--n-max", "9",
                    "--deterministic",
                    "--format", "json",
                    "--out", str(out),
                    "--cache", str(tmp_path / f"{name}.jsonl"),
                ]
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestLemmasAndSetSystems:
    def test_lemma_suites_pass(self, capsys):
        code = main(["lemmas", "--trials", "40", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["all_passed"] is True

    def test_lemma_report_bytes_are_pinned(self, capsys):
        # the whole lemma-suite report, byte for byte
        assert main(["lemmas", "--seed", "7", "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 2011
        assert hashlib.sha256(out).hexdigest().startswith("acaab58f51f42504")

    def test_lemma_table_output(self, capsys):
        code = main(["lemmas", "--trials", "10"])
        text = capsys.readouterr().out
        assert code == 0
        assert "all passed" in text

    def test_ekr_check_small_grid(self, tmp_path):
        out = tmp_path / "ekr.json"
        code = main(
            [
                "ekr-check",
                "--k-max", "3",
                "--n-max", "7",
                "--format", "json",
                "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["summary"]["refuted"] == 0
        assert all(r["relation"] == "sets" for r in payload["rows"])


    def test_only_partition_rows_are_tagged(self, capsys):
        # below the threshold the AK maximum beats the set-system star;
        # that is the expected value, not a counterexample
        def tagged(argv):
            main(argv + ["--format", "table"])
            lines = capsys.readouterr().out.splitlines()
            return [line.split()[:2] for line in lines if "COUNTEREXAMPLE" in line]

        assert tagged(["ekr-check", "--n-max", "6", "--k-max", "3", "--t-max", "1"]) == []
        assert tagged(["verify", "strong", "--n-max", "8"]) == [["8", "3"]]

    def test_ekr_check_keeps_rows_when_the_budget_runs_out(self, capsys):
        code = main(["ekr-check", "--n-max", "6", "--node-budget", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        rows, summary = payload["rows"], payload["summary"]
        inconclusive = [r for r in rows if r["star_is_maximum"] is None]
        assert len(rows) == summary["instances"] == 30
        assert len(inconclusive) == summary["inconclusive"] == 14
        assert summary["verified"] == 16 and summary["refuted"] == 0
        assert all(r["max_size"] == r["star_size"] for r in inconclusive)


class TestCacheCommands:
    def test_stats_and_clear_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "rows.jsonl"
        main(
            [
                "verify", "strong",
                "--n-max", "6",
                "--cache", str(cache),
                "--format", "csv",
                "--out", str(tmp_path / "ignore.csv"),
            ]
        )
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rows"] > 0 and stats["stale"] == 0
        assert main(["cache", "clear", "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert not cache.exists()

    def test_cache_line_is_pinned(self, tmp_path):
        cache = tmp_path / "rows.jsonl"
        main(["verify", "strong", "--n-max", "8", "--cache", str(cache), "--format", "csv",
              "--out", str(tmp_path / "ignore.csv")])
        line = next(x for x in cache.read_text().splitlines() if '"n":8,"k":3,' in x)
        assert line == (
            '{"engine_version":"1","row":{"n":8,"k":3,"t":1,"relation":"multiset",'
            '"star_size":3,"max_size":4,"star_is_maximum":false,"unique":"no",'
            '"witness_digest":"0645e639545fb658","elapsed":0.0}}'
        )

    def test_cached_rerun_gives_identical_report(self, tmp_path):
        cache = tmp_path / "rows.jsonl"
        out = tmp_path / "report.json"
        argv = [
            "verify", "strong",
            "--n-max", "10",
            "--cache", str(cache),
            "--format", "json",
            "--out", str(out),
        ]
        main(argv)
        first = out.read_bytes()
        main(argv)  # second run is served from the cache
        assert out.read_bytes() == first
