"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from .faults import inject


@pytest.fixture(scope="module")
def nissan_db_path(tmp_path_factory):
    """A small database JSON produced through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "db.json"
    code = main(["run", "--seed", "5", "--manufacturers", "Nissan",
                 "--no-ocr", "--dictionary", "seed",
                 "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 2018
        assert not args.no_ocr

    @pytest.mark.parametrize("command", ["frobnicate", "inject"])
    def test_unknown_command(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_docstring_lists_every_command(self):
        from repro import cli

        block = cli.__doc__.split("Commands::")[1].split("\n\n")[1]
        listed = [line.split()[0] for line in block.splitlines()]
        (commands,) = [action.choices for action
                       in build_parser()._subparsers._group_actions]
        assert listed == list(commands)

    @pytest.mark.parametrize("flag", ["--workers", "--batch-size"])
    def test_pool_flags_are_gone(self, flag, capsys):
        # Stages II-III have no worker pool, so neither flag exists.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, "2"])
        assert excinfo.value.code == 2
        assert (f"unrecognized arguments: {flag} 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["--chaos-stage", "parse"],
        ["--chaos-rate", "0.3"],
        ["--chaos-kind", "transient"],
        ["--max-retries", "1"],
        ["--no-checkpoint"],
    ])
    def test_fault_flags_are_gone(self, argv, capsys):
        # Faults are injected by tests (tests/faults.py), nothing
        # retries, and omitting --checkpoint-dir disables checkpoints.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *argv])
        assert excinfo.value.code == 2
        assert (f"unrecognized arguments: {' '.join(argv)}"
                in capsys.readouterr().err)


class TestRun:
    def test_run_writes_database(self, nissan_db_path, capsys):
        data = json.loads(nissan_db_path.read_text())
        assert len(data["disengagements"]) == 135
        assert len(data["accidents"]) == 1

    def test_run_prints_summary(self, capsys):
        code = main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr"])
        assert code == 0
        out = capsys.readouterr().out
        assert "disengagements: 3" in out

    def test_run_unknown_manufacturer_exits_2(self, capsys):
        code = main(["run", "--manufacturers", "Cruithne Motors",
                     "--no-ocr"])
        assert code == 2
        assert ("unknown manufacturer 'Cruithne Motors'"
                in capsys.readouterr().err)


class TestCorpusAndProcess:
    def test_corpus_then_process(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "6", "--manufacturers",
                     "Tesla", "--out", str(corpus_dir)]) == 0
        assert (corpus_dir / "manifest.json").exists()
        db_path = tmp_path / "db.json"
        assert main(["process", "--corpus", str(corpus_dir),
                     "--seed", "6", "--no-ocr",
                     "--dictionary", "seed",
                     "--out", str(db_path)]) == 0
        data = json.loads(db_path.read_text())
        assert len(data["disengagements"]) == 182


class TestReport:
    def test_report_to_stdout(self, nissan_db_path, capsys):
        code = main(["report", "table6", "--db", str(nissan_db_path)])
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

    def test_report_to_directory(self, nissan_db_path, tmp_path,
                                 capsys):
        out_dir = tmp_path / "exhibits"
        code = main(["report", "table3", "table6",
                     "--db", str(nissan_db_path),
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "table3.txt").exists()
        assert (out_dir / "table6.txt").exists()

    @pytest.mark.parametrize("experiment", ["table99", "ext-census"])
    def test_report_unknown_experiment(self, experiment, nissan_db_path,
                                       capsys):
        code = main(["report", experiment, "--db", str(nissan_db_path)])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err


class TestTag:
    def test_tag_arguments(self, capsys):
        code = main(["tag", "Software module froze",
                     "watchdog error"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Software" in out
        assert "Hang/Crash" in out

    def test_tag_with_database_dictionary(self, nissan_db_path,
                                          capsys):
        code = main(["tag", "--db", str(nissan_db_path),
                     "The AV didn't see the lead vehicle"])
        assert code == 0
        assert "Recognition System" in capsys.readouterr().out


class TestStpaAndInject:
    def test_stpa_overlay(self, nissan_db_path, capsys):
        code = main(["stpa", "--db", str(nissan_db_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures overlaid" in out
        assert "CL-1" in out


class TestValidate:
    def test_validate(self, nissan_db_path, capsys):
        code = main(["validate", "--db", str(nissan_db_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tag accuracy" in out
        assert "Nissan" in out


class TestLint:
    def test_lint_clean_database(self, nissan_db_path, capsys):
        code = main(["lint", "--db", str(nissan_db_path)])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_broken_database(self, tmp_path, capsys):
        from repro.parsing.records import DisengagementRecord
        from repro.pipeline.store import FailureDatabase

        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2030-01", description="d")])
        path = tmp_path / "broken.json"
        db.save(path)
        code = main(["lint", "--db", str(path)])
        assert code == 1
        assert "month-coverage" in capsys.readouterr().out


class TestSummary:
    def test_summary_to_stdout(self, nissan_db_path, capsys):
        code = main(["summary", "--db", str(nissan_db_path),
                     "--no-charts"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# AV Failure Study Report" in out

    def test_summary_to_file(self, nissan_db_path, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main(["summary", "--db", str(nissan_db_path),
                     "--out", str(out_path)])
        assert code == 0
        assert "## Headlines" in out_path.read_text()


class TestResilienceFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.failure_policy == "quarantine"
        assert args.max_error_rate == 0.1
        assert args.crash_at is None

    def test_clean_run_prints_clean_health(self, capsys):
        code = main(["run", "--seed", "5", "--manufacturers",
                     "Nissan", "--no-ocr", "--dictionary", "seed"])
        assert code == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "clean" in out

    def test_chaos_run_reports_quarantine(self, capsys, tmp_path):
        path = tmp_path / "db.json"
        with inject("parse", 0.3, 5):
            code = main(["run", "--seed", "5", "--manufacturers",
                         "Nissan", "--no-ocr", "--dictionary", "seed",
                         "--failure-policy", "quarantine",
                         "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        data = json.loads(path.read_text())
        assert data["quarantine"]
        assert data["quarantine"][0]["error_type"] == "ChaosError"

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--failure-policy",
                                       "telepathy"])


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_before_subcommand(self, capsys):
        # --version wins even though a subcommand is normally required.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestQueryVerb:
    def test_query_prints_json(self, nissan_db_path, capsys):
        code = main(["query", "dpm", "--db", str(nissan_db_path)])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["query"] == {"metric": "dpm",
                                 "group_by": "manufacturer"}
        assert "Nissan" in body["result"]
        assert body["cached"] is False
        assert len(body["fingerprint"]) == 64

    def test_query_with_filters(self, nissan_db_path, capsys):
        code = main(["query", "count", "--group-by", "tag",
                     "--manufacturer", "Nissan",
                     "--db", str(nissan_db_path)])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert sum(body["result"].values()) > 0

    def test_invalid_query_exits_2(self, nissan_db_path, capsys):
        code = main(["query", "count", "--month-from", "nope",
                     "--db", str(nissan_db_path)])
        assert code == 2
        assert "YYYY-MM" in capsys.readouterr().err

    def test_unsupported_grouping_exits_2(self, nissan_db_path,
                                          capsys):
        code = main(["query", "apm", "--group-by", "month",
                     "--db", str(nissan_db_path)])
        assert code == 2
        assert "cannot group by" in capsys.readouterr().err


class TestServeVerb:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8350
        assert args.cache_size == 256

    def test_serve_endpoint_roundtrip(self, nissan_db_path):
        import json as json_mod
        import urllib.request

        from repro.pipeline.store import FailureDatabase
        from repro.query.server import QueryServer

        db = FailureDatabase.load(nissan_db_path)
        with QueryServer(db, port=0) as server:
            with urllib.request.urlopen(
                    server.url + "/v1/healthz", timeout=10) as res:
                body = json_mod.loads(res.read())
        assert body["status"] == "ok"
        assert body["fingerprint"] == db.fingerprint()

    @pytest.mark.parametrize("outcome", ["returns", "raises"])
    def test_prefork_without_db_leaves_no_temp_files(
            self, small_db, tmp_path, monkeypatch, outcome):
        import tempfile
        import types
        from pathlib import Path

        from repro import cli
        from repro.serving import prefork

        served = []

        def serve_prefork(db_path, **kwargs):
            served.append([Path(db_path).exists(),
                           Path(f"{db_path}.sha256").exists()])
            if outcome == "raises":
                raise ValueError("pre-fork serving needs SO_REUSEPORT")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(cli, "run_pipeline", lambda config: (
            types.SimpleNamespace(database=small_db)))
        monkeypatch.setattr(prefork, "serve_prefork", serve_prefork)
        code = main(["serve", "--processes", "1", "--quiet"])
        assert code == (2 if outcome == "raises" else 0)
        # The database and its sidecar existed while serving ran.
        assert served == [[True, True]]
        assert not list(tmp_path.glob("repro-db-*"))


    @pytest.mark.parametrize("argv", [
        ["--max-inflight", "-1"],
        ["--watch-interval", "0"],
        ["--watch-interval", "-0.5"],
        ["--port", "99999"],
        ["--processes", "-1"],
    ], ids=["max-inflight", "watch-interval-zero", "watch-interval-negative",
            "port", "processes"])
    def test_breaking_flag_values_exit_2_before_loading(
            self, argv, monkeypatch, capsys):
        from repro import cli

        def load(*args):
            raise AssertionError("loaded a database before the check")

        monkeypatch.setattr(cli, "run_pipeline", load)
        monkeypatch.setattr(cli, "_load_db", load)
        assert main(["serve", *argv, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: " + argv[0])
        assert err.count("\n") == 1

    def test_server_rejects_negative_max_inflight(self, small_db):
        from repro.query.server import QueryServer

        with pytest.raises(ValueError, match="max_inflight"):
            QueryServer(small_db, port=0, max_inflight=-1)


class TestSharedFlagConventions:
    def test_quiet_run_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        code = main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--out", str(path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.exists()

    def test_json_run_payload(self, capsys):
        code = main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disengagements"] == 3
        assert payload["health"]["clean"] is True

    def test_json_available_on_db_verbs(self, nissan_db_path, capsys):
        for argv, key in (
                (["stpa"], "total"),
                (["lint"], "findings"),
                (["validate"], "tag_accuracy"),
                (["report", "table6"], "experiments")):
            code = main([*argv, "--db", str(nissan_db_path), "--json"])
            assert code == 0
            assert key in json.loads(capsys.readouterr().out)

    def test_pretty_is_an_unknown_argument(self, nissan_db_path,
                                           capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "dpm", "--db", str(nissan_db_path),
                  "--pretty"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err

    def test_missing_db_exits_2_with_structured_error(self, tmp_path,
                                                      capsys):
        for argv in (["query", "dpm"], ["serve"], ["lint"]):
            code = main([*argv, "--db", str(tmp_path / "nope.json")])
            assert code == 2
            err = capsys.readouterr().err
            assert "repro: error:" in err
            assert "does not exist" in err
            assert "Traceback" not in err

    def test_unreadable_db_exits_2(self, tmp_path, capsys):
        code = main(["query", "dpm", "--db", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "could not be read" in err
        assert "Traceback" not in err

    def test_corrupt_db_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not a database",
                       encoding="utf-8")
        code = main(["query", "dpm", "--db", str(bad)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err


class TestTraceVerb:
    def test_traced_run_then_trace_verb(self, tmp_path, capsys):
        code = main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--trace-dir", str(tmp_path),
                     "--quiet"])
        assert code == 0
        capsys.readouterr()
        code = main(["trace", str(tmp_path / "trace.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "self_s" in out
        assert "tag units" in out

    def test_trace_json_rows(self, tmp_path, capsys):
        assert main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--trace-dir", str(tmp_path),
                     "--quiet"]) == 0
        capsys.readouterr()
        code = main(["trace", str(tmp_path / "trace.jsonl"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] > 0
        names = {row["name"] for row in payload["rows"]}
        assert "run" in names

    def test_trace_flag_alone_traces_into_working_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--trace", "--quiet"]) == 0
        assert (tmp_path / "trace.jsonl").exists()

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
        # An unreadable path (a directory) gets the same one-line error.
        assert main(["trace", str(tmp_path)]) == 2
        assert "could not be read" in capsys.readouterr().err

    def test_run_summary_mentions_trace_and_metrics(self, tmp_path,
                                                    capsys):
        code = main(["run", "--seed", "5", "--manufacturers", "Ford",
                     "--no-ocr", "--trace-dir", str(tmp_path),
                     "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "repro_stage_duration_seconds" in out
