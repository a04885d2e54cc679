"""Command-line interface: ``python -m repro <command>``.

Commands::

    run        synthesize + process end to end, write the database JSON
    corpus     write the raw synthetic corpus to a directory
    process    run Stages II-IV over a corpus directory
    ingest     incrementally process a grown corpus (delta only)
    report     render paper tables/figures from a database JSON
    tag        tag free-text log lines with the failure dictionary
    stpa       overlay the tagged failures on the control structure
    lint       check a database for consistency problems
    summary    render the full study report (Markdown)
    validate   score the NLP tagger against ground truth
    query      run one typed query against a database
    serve      expose a database over the embedded HTTP JSON API
    trace      render a saved span trace as a self-time table

Flag conventions (shared across subcommands): ``--db``/``--seed``
select the database source everywhere a command reads one;
``--quiet`` suppresses informational output; ``--json`` switches to
machine-readable JSON where the command produces output.

Exit codes (documented in docs/USAGE.md): 0 success, 1 lint findings
at error severity, 2 invalid input (argparse errors, bad knob values,
malformed queries, corrupt or missing databases).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import CalibrationError, CorruptDatabaseError, SynthesisError
from .pipeline.chaos import (
    CHAOS_KINDS,
    CRASH_POINTS,
    ChaosConfig,
    CrashController,
    CrashPoint,
)
from .pipeline.config import PipelineConfig
from .pipeline.resilience import POLICY_MODES
from .pipeline.runner import process_corpus, run_pipeline
from .pipeline.store import FailureDatabase
from .rng import DEFAULT_SEED


def _db_options() -> argparse.ArgumentParser:
    """Shared ``--db``/``--seed`` parent for database-reading verbs."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("database source")
    group.add_argument("--db",
                       help="database JSON from 'repro run' (default: "
                            "run the pipeline first)")
    group.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="pipeline seed when no --db is given "
                            "(default: %(default)s)")
    return parent


def _output_options(json_help: str = "emit machine-readable JSON "
                                     "instead of text",
                    ) -> argparse.ArgumentParser:
    """Shared ``--quiet``/``--json`` parent for verbs with output."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("output")
    group.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
    group.add_argument("--json", action="store_true", help=json_help)
    return parent


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="corpus/OCR seed (default: %(default)s)")
    parser.add_argument("--manufacturers", nargs="*", default=None,
                        help="restrict to these manufacturers")
    parser.add_argument("--no-ocr", action="store_true",
                        help="disable the OCR noise channel")
    parser.add_argument("--no-correction", action="store_true",
                        help="disable the post-OCR correction pass")
    parser.add_argument("--dictionary", choices=("seed", "expanded"),
                        default="expanded",
                        help="failure-dictionary mode")
    parser.add_argument("--drop-planned", action="store_true",
                        help="drop planned-test disengagements")
    parser.add_argument("--failure-policy", choices=POLICY_MODES,
                        default="quarantine",
                        help="reaction to unexpected stage failures "
                             "(default: %(default)s)")
    parser.add_argument("--max-error-rate", type=float, default=0.1,
                        help="threshold mode: abort past this "
                             "per-stage error rate "
                             "(default: %(default)s)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="bounded retries for transient faults "
                             "(default: %(default)s)")
    parser.add_argument("--chaos-stage", default=None,
                        choices=("ocr", "parse", "normalize",
                                 "dictionary", "tag"),
                        help="inject faults into this stage")
    parser.add_argument("--chaos-rate", type=float, default=0.1,
                        help="per-unit fault injection probability "
                             "(default: %(default)s)")
    parser.add_argument("--chaos-kind", choices=CHAOS_KINDS,
                        default="exception",
                        help="kind of fault to inject "
                             "(default: %(default)s)")
    parser.add_argument("--crash-at", choices=CRASH_POINTS,
                        default=None,
                        help="simulate a hard crash at this pipeline "
                             "boundary (crash-recovery testing)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="journal completed work here so a killed "
                             "run can be resumed")
    parser.add_argument("--resume", action="store_true",
                        help="restore completed units from "
                             "--checkpoint-dir instead of recomputing")
    parser.add_argument("--no-checkpoint", action="store_true",
                        help="disable checkpointing even when "
                             "--checkpoint-dir is set")
    parser.add_argument("--trace", action="store_true",
                        help="record a run -> stage -> unit span trace "
                             "(trace.jsonl; see 'repro trace')")
    parser.add_argument("--trace-dir", default=None,
                        help="write trace.jsonl into this directory "
                             "(implies --trace; default: working "
                             "directory)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect run metrics (stage durations, "
                             "unit/retry/quarantine/cache counters)")


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    # ChaosConfig / PipelineConfig validate their knobs (rates in
    # [0, 1], non-negative retries, resume needing a directory, ...)
    # and raise ValueError with a precise message; main() turns that
    # into a clean exit-code-2 diagnostic instead of a traceback.
    chaos = None
    if args.chaos_stage is not None:
        chaos = ChaosConfig(stage=args.chaos_stage,
                            rate=args.chaos_rate,
                            kind=args.chaos_kind)
    crash = (CrashPoint(at=args.crash_at)
             if args.crash_at is not None else None)
    # --no-checkpoint wins over --checkpoint-dir and --resume; --trace
    # alone traces into the working directory.
    checkpoint_dir = None if args.no_checkpoint else args.checkpoint_dir
    trace_dir = args.trace_dir
    if trace_dir is None and args.trace:
        trace_dir = "."
    return PipelineConfig(
        seed=args.seed,
        manufacturers=args.manufacturers,
        ocr_enabled=not args.no_ocr,
        correction_enabled=not args.no_correction,
        dictionary_mode=args.dictionary,
        drop_planned=args.drop_planned,
        failure_policy=args.failure_policy,
        max_error_rate=args.max_error_rate,
        max_retries=args.max_retries,
        chaos=chaos,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume and not args.no_checkpoint,
        crash=crash,
        trace_dir=trace_dir,
        metrics_enabled=args.metrics,
    )


def _print_run_summary(result) -> None:
    db = result.database
    diagnostics = result.diagnostics
    print(f"disengagements: {len(db.disengagements)}")
    print(f"accidents:      {len(db.accidents)}")
    print(f"miles:          {db.total_miles:,.0f}")
    print(f"ocr confidence: {diagnostics.ocr.mean_confidence:.3f} "
          f"({diagnostics.ocr.fallback_pages} pages transcribed "
          "manually)")
    if diagnostics.tagging is not None:
        print(f"tag accuracy:   "
              f"{diagnostics.tagging.tag_accuracy:.2%}")
    from .reporting.summary import render_run_health

    print(render_run_health(diagnostics.health,
                            result.database.quarantine))
    if diagnostics.trace_path is not None:
        print(f"trace:          {diagnostics.trace_path} "
              "(render with 'repro trace')")
    if diagnostics.metrics is not None:
        from .reporting.summary import render_metrics_summary

        print(render_metrics_summary(diagnostics.metrics))


def _run_payload(result, out: str | None) -> dict:
    """The ``--json`` form of a run/process summary."""
    db = result.database
    diagnostics = result.diagnostics
    payload: dict = {
        "disengagements": len(db.disengagements),
        "accidents": len(db.accidents),
        "miles": db.total_miles,
        "ocr": {
            "mean_confidence": diagnostics.ocr.mean_confidence,
            "fallback_pages": diagnostics.ocr.fallback_pages,
        },
        "tag_accuracy": (diagnostics.tagging.tag_accuracy
                         if diagnostics.tagging is not None else None),
        "health": diagnostics.health.summary(),
        "stage_wall_s": dict(diagnostics.stage_wall_s),
    }
    if diagnostics.trace_path is not None:
        payload["trace_path"] = diagnostics.trace_path
    if diagnostics.metrics is not None:
        payload["metrics"] = diagnostics.metrics
    if out:
        payload["saved_to"] = out
    return payload


def _save_database(result, out: str, quiet: bool = False) -> None:
    """Atomic save, honoring a configured ``save`` kill point."""
    result.database.save(
        out, crash=CrashController(result.config.crash))
    if not quiet:
        print(f"database written to {out}")


def _finish_run(result, args: argparse.Namespace) -> int:
    """Shared run/process epilogue: report, then save."""
    if args.json:
        if args.out:
            _save_database(result, args.out, quiet=True)
        print(json.dumps(_run_payload(result, args.out), indent=2))
        return 0
    if not args.quiet:
        _print_run_summary(result)
    if args.out:
        _save_database(result, args.out, quiet=args.quiet)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_pipeline(_config_from(args))
    return _finish_run(result, args)


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .synth.dataset import generate_corpus
    from .synth.io import write_corpus

    corpus = generate_corpus(args.seed, args.manufacturers)
    root = write_corpus(corpus, args.out)
    if args.json:
        print(json.dumps({"documents": len(corpus.documents),
                          "root": str(root)}, indent=2))
    elif not args.quiet:
        print(f"{len(corpus.documents)} documents written under "
              f"{root}")
    return 0


def _cmd_process(args: argparse.Namespace) -> int:
    from .synth.io import read_corpus

    corpus = read_corpus(args.corpus, with_truth=not args.no_truth)
    result = process_corpus(corpus, _config_from(args))
    return _finish_run(result, args)


def _print_ingest_summary(report) -> None:
    mode = ("full rebuild" if report.full_rebuild else "incremental")
    detail = f" ({report.reason})" if report.reason else ""
    print(f"ingest:         {mode}{detail}")
    print(f"documents:      {report.total_documents} total / "
          f"{report.new_documents} new / "
          f"{report.changed_documents} changed / "
          f"{report.reused_documents} reused")
    for note in report.notes:
        print(f"  note: {note}")


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .pipeline.ingest import ingest_corpus
    from .synth.io import read_corpus

    corpus = read_corpus(args.corpus, with_truth=not args.no_truth)
    ingest = ingest_corpus(corpus, _config_from(args))
    report = ingest.report
    if args.json:
        if args.out:
            _save_database(ingest.result, args.out, quiet=True)
        payload = _run_payload(ingest.result, args.out)
        payload["ingest"] = report.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    if not args.quiet:
        _print_ingest_summary(report)
        _print_run_summary(ingest.result)
    if args.out:
        _save_database(ingest.result, args.out, quiet=args.quiet)
    return 0


def _load_db(args: argparse.Namespace) -> FailureDatabase:
    if args.db:
        # api.load_database translates a missing file into the same
        # CorruptDatabaseError the integrity checks raise, so every
        # verb exits 2 with a structured message instead of a
        # traceback.
        from .api import load_database

        return load_database(args.db)
    if not getattr(args, "quiet", False):
        print("no --db given; running the pipeline first...",
              file=sys.stderr)
    return run_pipeline(PipelineConfig(seed=args.seed)).database


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting.experiments import EXPERIMENTS, run_experiment

    db = _load_db(args)
    wanted = (list(EXPERIMENTS) if "all" in args.experiments
              else args.experiments)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}; "
              f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    rendered = {experiment_id: run_experiment(experiment_id,
                                              db).render()
                for experiment_id in wanted}
    if args.json and not args.out:
        print(json.dumps({"experiments": rendered}, indent=2))
        return 0
    for experiment_id, text in rendered.items():
        if args.out:
            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{experiment_id}.txt").write_text(
                text + "\n", encoding="utf-8")
            if not args.quiet:
                print(f"wrote {directory / f'{experiment_id}.txt'}")
        else:
            print(text)
            print()
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    from .nlp.dictionary import FailureDictionary
    from .nlp.tagger import VotingTagger

    if args.db:
        from .api import load_database

        db = load_database(args.db)
        dictionary = FailureDictionary.build(
            [r.description for r in db.disengagements])
    else:
        dictionary = FailureDictionary.from_seeds()
    tagger = VotingTagger(dictionary)
    lines = args.text or [l.rstrip("\n") for l in sys.stdin]
    for line in lines:
        if not line.strip():
            continue
        result = tagger.tag(line)
        if args.json:
            print(json.dumps({
                "text": line,
                "tag": result.tag.value,
                "category": result.category.value,
                "confident": result.confident,
            }))
            continue
        confidence = "" if result.confident else " (low confidence)"
        print(f"{result.tag.display_name} | {result.category} | "
              f"{line}{confidence}")
    return 0


def _cmd_stpa(args: argparse.Namespace) -> int:
    from .stpa.mapping import overlay_failures

    db = _load_db(args)
    overlay = overlay_failures(db.disengagements)
    localized = overlay.total - overlay.unlocalized
    if args.json:
        print(json.dumps({
            "total": overlay.total,
            "unlocalized": overlay.unlocalized,
            "by_component": dict(overlay.by_component),
            "loops": overlay.loop_counts(),
        }, indent=2))
        return 0
    print(f"{overlay.total} failures overlaid "
          f"({overlay.unlocalized} unlocalized)")
    for component, count in overlay.by_component.most_common():
        print(f"  {component:20s} {count:5d} "
              f"({count / localized:.1%})")
    print("per control loop:")
    for name, count in overlay.loop_counts().items():
        print(f"  {name}: {count}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .pipeline.lint import errors, lint_database

    db = _load_db(args)
    findings = lint_database(db)
    error_count = len(errors(findings))
    if args.json:
        print(json.dumps({
            "findings": [str(f) for f in findings],
            "errors": error_count,
        }, indent=2))
        return 1 if error_count else 0
    if not args.quiet:
        for finding in findings:
            print(finding)
    print(f"{len(findings)} finding(s), {error_count} error(s)")
    return 1 if error_count else 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from .reporting.summary import render_study_report

    db = _load_db(args)
    report = render_study_report(db, include_charts=not args.no_charts)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .nlp.dictionary import FailureDictionary
    from .nlp.evaluation import evaluate_tagger, per_manufacturer_accuracy
    from .nlp.tagger import VotingTagger

    db = _load_db(args)
    records = [r for r in db.disengagements if r.truth_tag is not None]
    if not records:
        print("database carries no ground-truth tags", file=sys.stderr)
        return 2
    tagger = VotingTagger(FailureDictionary.build(
        [r.description for r in records]))
    report = evaluate_tagger(tagger, records)
    per_manufacturer = per_manufacturer_accuracy(tagger, records)
    if args.json:
        print(json.dumps({
            "tag_accuracy": report.tag_accuracy,
            "category_accuracy": report.category_accuracy,
            "confusions": [
                {"truth": truth.value, "predicted": predicted.value,
                 "count": count}
                for (truth, predicted), count
                in report.top_confusions(5)
            ],
            "per_manufacturer": per_manufacturer,
        }, indent=2))
        return 0
    print(f"tag accuracy:      {report.tag_accuracy:.2%}")
    print(f"category accuracy: {report.category_accuracy:.2%}")
    print("top confusions:")
    for (truth, predicted), count in report.top_confusions(5):
        print(f"  {truth.display_name} -> {predicted.display_name} "
              f"x{count}")
    print("per manufacturer:")
    for name, accuracy in per_manufacturer.items():
        print(f"  {name:15s} {accuracy:.2%}")
    return 0


def _query_from_args(args: argparse.Namespace):
    from .query.engine import Query

    data = {"metric": args.metric}
    if args.group_by:
        data["group_by"] = args.group_by
    if args.manufacturer:
        data["manufacturers"] = tuple(args.manufacturer)
    for key in ("month_from", "month_to", "tag", "category"):
        value = getattr(args, key)
        if value:
            data[key] = value
    return Query.from_dict(data)


def _cmd_query(args: argparse.Namespace) -> int:
    from .query.engine import QueryEngine

    engine = QueryEngine(_load_db(args))
    result = engine.execute(_query_from_args(args))
    # Query output is always JSON; --json upgrades it to the indented
    # human-friendly form.
    indent = 2 if args.json else None
    print(json.dumps(result.to_dict(), indent=indent))
    return 0


def _cmd_serve_prefork(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from .serving.prefork import serve_prefork

    with contextlib.ExitStack() as cleanup:
        db_path = args.db
        if not db_path:
            # Workers load the database from a file, so a pipeline-built
            # database must hit disk first, in a directory that goes
            # (sidecar included) when serving ends.
            if not args.quiet:
                print("no --db given; running the pipeline first...",
                      file=sys.stderr)
            db = run_pipeline(PipelineConfig(seed=args.seed)).database
            scratch = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-db-"))
            db_path = str(Path(scratch) / "db.json")
            db.save(db_path)
        serve_prefork(db_path, host=args.host, port=args.port,
                      processes=args.processes,
                      cache_size=args.cache_size,
                      max_inflight=args.max_inflight,
                      deadline_s=args.deadline,
                      verbose=not args.quiet,
                      watch=args.watch,
                      watch_interval_s=args.watch_interval)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .query.server import QueryServer
    from .reporting.summary import render_query_stats

    if args.processes:
        return _cmd_serve_prefork(args)
    engine_db = _load_db(args)
    server = QueryServer(engine_db, host=args.host, port=args.port,
                         cache_size=args.cache_size,
                         verbose=not args.quiet,
                         max_inflight=args.max_inflight,
                         deadline_s=args.deadline)
    if args.watch:
        server.watch(args.watch, args.watch_interval)
    if not args.quiet:
        watching = (f", watching {args.watch} for drops"
                    if args.watch else "")
        print(f"serving {len(engine_db.disengagements)} "
              f"disengagements / {len(engine_db.accidents)} accidents "
              f"on {server.url}{watching} "
              "(Ctrl-C to stop; metrics on /metrics)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        stats = server.engine.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        elif not args.quiet:
            print()
            print(render_query_stats(stats))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace import load_trace, self_times
    from .reporting.summary import render_trace_summary

    path = Path(args.path)
    try:
        spans = load_trace(path)
    except FileNotFoundError as exc:
        raise ValueError(
            f"trace file {str(path)!r} does not exist "
            "(record one with 'repro run --trace')") from exc
    except OSError as exc:
        raise ValueError(
            f"trace file {str(path)!r} could not be read: "
            f"{exc.strerror or exc}") from exc
    if not spans:
        raise ValueError(
            f"trace file {str(path)!r} contains no spans")
    rows = self_times(spans)
    if args.json:
        print(json.dumps({"spans": len(spans), "rows": rows},
                         indent=2))
        return 0
    if not args.quiet:
        print(f"{len(spans)} span(s) in {path}")
    print(render_trace_summary(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AV disengagement/accident analysis pipeline "
                    "(DSN 2018 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups: db selects the database source for every
    # verb that reads one; out is the --quiet/--json pair every verb
    # with output accepts.  Defining them once keeps spellings, help
    # strings, and defaults from drifting between subcommands.
    db = _db_options()
    out = _output_options()

    run = commands.add_parser(
        "run", help="synthesize + process end to end", parents=[out])
    _add_pipeline_options(run)
    run.add_argument("--out", help="write the database JSON here")
    run.set_defaults(handler=_cmd_run)

    corpus = commands.add_parser(
        "corpus", help="write the raw synthetic corpus to a directory",
        parents=[out])
    corpus.add_argument("--seed", type=int, default=DEFAULT_SEED)
    corpus.add_argument("--manufacturers", nargs="*", default=None)
    corpus.add_argument("--out", required=True)
    corpus.set_defaults(handler=_cmd_corpus)

    process = commands.add_parser(
        "process", help="run Stages II-IV over a corpus directory",
        parents=[out])
    _add_pipeline_options(process)
    process.add_argument("--corpus", required=True,
                         help="directory written by 'repro corpus'")
    process.add_argument("--no-truth", action="store_true",
                         help="ignore the ground-truth sidecar")
    process.add_argument("--out", help="write the database JSON here")
    process.set_defaults(handler=_cmd_process)

    ingest = commands.add_parser(
        "ingest",
        help="incrementally process a grown corpus directory "
             "(recompute only new/changed documents; output is "
             "byte-identical to a full rebuild)",
        parents=[out])
    _add_pipeline_options(ingest)
    ingest.add_argument("--corpus", required=True,
                        help="directory written by 'repro corpus' "
                             "(the combined corpus, not just the "
                             "delta)")
    ingest.add_argument("--no-truth", action="store_true",
                        help="ignore the ground-truth sidecar")
    ingest.add_argument("--out", help="write the database JSON here")
    ingest.set_defaults(handler=_cmd_ingest)

    report = commands.add_parser(
        "report", help="render paper tables/figures",
        parents=[db, out])
    report.add_argument("experiments", nargs="+",
                        help="experiment ids (e.g. table7 figure8) "
                             "or 'all'")
    report.add_argument("--out", help="write exhibits to a directory")
    report.set_defaults(handler=_cmd_report)

    tag = commands.add_parser(
        "tag", help="tag log lines with the failure dictionary",
        parents=[out])
    tag.add_argument("text", nargs="*",
                     help="log lines (default: read stdin)")
    tag.add_argument("--db", help="build the dictionary from this "
                                  "database (default: seeds only)")
    tag.set_defaults(handler=_cmd_tag)

    stpa = commands.add_parser(
        "stpa", help="overlay failures on the control structure",
        parents=[db, out])
    stpa.set_defaults(handler=_cmd_stpa)

    lint = commands.add_parser(
        "lint", help="check a database for consistency problems",
        parents=[db, out])
    lint.set_defaults(handler=_cmd_lint)

    summary = commands.add_parser(
        "summary", help="render the full study report (Markdown)",
        parents=[db, out])
    summary.add_argument("--out", help="write the report here")
    summary.add_argument("--no-charts", action="store_true",
                         help="omit the ASCII charts")
    summary.set_defaults(handler=_cmd_summary)

    validate = commands.add_parser(
        "validate", help="score the NLP tagger against ground truth",
        parents=[db, out])
    validate.set_defaults(handler=_cmd_validate)

    from .query.engine import GROUP_BYS, METRICS

    query = commands.add_parser(
        "query", help="run one typed query against a database",
        parents=[db, _output_options(
            json_help="indent the JSON output")])
    query.add_argument("metric", choices=METRICS,
                       help="what to compute")
    query.add_argument("--group-by", choices=GROUP_BYS, default=None,
                       help="slice dimension (default: the metric's "
                            "natural grouping)")
    query.add_argument("--manufacturer", action="append", default=[],
                       help="restrict to this manufacturer "
                            "(repeatable)")
    query.add_argument("--month-from", default=None,
                       help="inclusive YYYY-MM lower bound")
    query.add_argument("--month-to", default=None,
                       help="inclusive YYYY-MM upper bound")
    query.add_argument("--tag", default=None,
                       help="restrict disengagements to one fault tag")
    query.add_argument("--category", default=None,
                       help="restrict disengagements to one failure "
                            "category")
    query.set_defaults(handler=_cmd_query)

    serve = commands.add_parser(
        "serve", help="expose a database over the HTTP JSON API",
        parents=[db, _output_options(
            json_help="print engine statistics as JSON on shutdown")])
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350,
                       help="TCP port (0 picks a free one; "
                            "default: %(default)s)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="bounded LRU result-cache capacity "
                            "(default: %(default)s)")
    serve.add_argument("--watch", default=None, metavar="DIR",
                       help="poll this directory for database JSON "
                            "drops and hot-swap each one in (corrupt "
                            "drops are quarantined; the last good "
                            "snapshot keeps serving)")
    serve.add_argument("--watch-interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="poll interval for --watch "
                            "(default: %(default)s)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="admission control: bound on concurrently "
                            "handled requests; excess load is shed "
                            "with 503 + Retry-After (0 = unbounded; "
                            "default: %(default)s)")
    serve.add_argument("--deadline", type=float, default=10.0,
                       metavar="SECONDS",
                       help="per-request budget; a blown deadline "
                            "returns a structured 503 (0 = none; "
                            "default: %(default)s)")
    serve.add_argument("--processes", type=int, default=0,
                       metavar="N",
                       help="pre-fork N worker processes sharing the "
                            "port through SO_REUSEPORT (exits 2 where "
                            "the platform lacks it) with crash-respawn "
                            "and graceful drain; 0 = single-process "
                            "threaded server (default: %(default)s)")
    serve.set_defaults(handler=_cmd_serve)

    trace = commands.add_parser(
        "trace", help="render a saved span trace (trace.jsonl) as a "
                      "self-time table",
        parents=[out])
    trace.add_argument("path", nargs="?", default="trace.jsonl",
                       help="trace file from a --trace run "
                            "(default: %(default)s)")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Invalid knob combinations (chaos rates outside [0, 1], negative
    retries, ``--resume`` without ``--checkpoint-dir``, an unknown
    ``--manufacturers`` name, ...) exit with status 2 and the
    validation message, argparse-style.  A
    :class:`~repro.pipeline.chaos.SimulatedCrash` is *not* caught: a
    simulated hard crash must die exactly like a real one.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, CalibrationError, CorruptDatabaseError,
            SynthesisError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
