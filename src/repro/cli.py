"""``devudf`` — a command-line front end to the devUDF plugin.

The PyCharm plugin exposes three actions (Settings, Import UDFs, Export UDFs)
plus the Debug command; the CLI mirrors them so the whole workflow can be
driven from a terminal or a script:

    devudf demo-server --csv-dir ./csv --port 54321
    devudf configure --project ./proj --host localhost --port 54321 \
        --debug-query "SELECT mean_deviation(i) FROM numbers"
    devudf list --project ./proj
    devudf import --project ./proj mean_deviation
    devudf debug --project ./proj --breakpoint-text "distance +="
    devudf export --project ./proj mean_deviation
    devudf table1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .core.plugin import DevUDFPlugin
from .core.project import DevUDFProject
from .core.settings import DevUDFSettings
from .core.surveys import format_table, ide_vs_text_editor_share
from .errors import ReproError
from .netproto.compression import available_codecs


def _load_plugin(project_path: str) -> DevUDFPlugin:
    project = DevUDFProject(project_path)
    if not project.has_settings():
        raise ReproError(
            f"project {project_path!r} has no devUDF settings; run 'devudf configure' first"
        )
    return DevUDFPlugin(project)


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #
def cmd_configure(args: argparse.Namespace) -> int:
    project = DevUDFProject(args.project)
    settings = project.load_settings() if project.has_settings() else DevUDFSettings()
    for field_name in ("host", "port", "database", "username", "password", "debug_query"):
        value = getattr(args, field_name, None)
        if value is not None:
            setattr(settings, field_name, value)
    if args.compression is not None:
        settings.transfer.use_compression = args.compression != "none"
        if args.compression != "none":
            settings.transfer.compression_codec = args.compression
    if args.encrypt is not None:
        settings.transfer.use_encryption = args.encrypt
    if args.sample_size is not None:
        settings.transfer.use_sampling = True
        settings.transfer.sample_size = args.sample_size
    settings.validate_connection()
    settings.transfer.validate()
    project.save_settings(settings)
    print(f"settings saved: {settings.describe()}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    plugin = _load_plugin(args.project)
    with plugin:
        names = plugin.list_server_udfs()
    print(f"{len(names)} Python UDF(s) on the server:")
    for name in names:
        marker = "*" if plugin.project.has_udf(name) else " "
        print(f"  [{marker}] {name}")
    print("(* = already imported into the project)")
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    plugin = _load_plugin(args.project)
    with plugin:
        report = plugin.import_udfs(args.udfs or None)
    for udf in report.imported:
        nested = f" (+ nested: {', '.join(udf.nested_udfs)})" if udf.nested_udfs else ""
        print(f"imported {udf.name} -> {udf.relative_path}{nested}")
    if report.skipped and args.udfs:
        print(f"not imported: {', '.join(report.skipped)}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    plugin = _load_plugin(args.project)
    with plugin:
        report = plugin.export_udfs(args.udfs or None)
    for udf in report.exported:
        suffix = " (nested)" if udf.was_nested else ""
        print(f"exported {udf.name}{suffix}")
    for name, error in report.failed.items():
        print(f"FAILED {name}: {error}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_debug(args: argparse.Namespace) -> int:
    plugin = _load_plugin(args.project)
    with plugin:
        preparation = plugin.prepare_debug(args.udf or None,
                                           debug_query=args.query or None)
        print(f"debug target: {preparation.udf_name}")
        print(f"generated file: {preparation.script_path}")
        print(f"input blob: {preparation.input_path} "
              f"({preparation.blob_stats.stored_bytes} bytes, "
              f"{preparation.inputs.rows_extracted} rows extracted)")
        for warning in preparation.warnings:
            print(f"warning: {warning}")

        breakpoints: list[int] = list(args.breakpoint or [])
        if args.breakpoint_text:
            source = preparation.script_path.read_text(encoding="utf-8")
            for number, line in enumerate(source.splitlines(), start=1):
                if args.breakpoint_text in line:
                    breakpoints.append(number)
        watches = {}
        for watch in args.watch or []:
            watches[watch] = watch

        if args.run_only:
            outcome = plugin.run_udf_locally(preparation=preparation)
            print(f"local run {'succeeded' if outcome.completed else 'FAILED'}")
            if outcome.completed:
                print(f"result: {outcome.result!r}")
            else:
                print(f"{outcome.exception_type} at line {outcome.exception_line}: "
                      f"{outcome.exception_message}")
            return 0 if outcome.completed else 1

        outcome = plugin.debug_udf(preparation=preparation, breakpoints=breakpoints,
                                   watches=watches)
        print(f"debug session finished: {len(outcome.stops)} stop(s), "
              f"{len(outcome.breakpoint_stops)} at breakpoints")
        limit = args.max_stops
        for stop in outcome.stops[:limit]:
            flag = "B" if stop.is_breakpoint else " "
            watch_text = f" watches={stop.watches}" if stop.watches else ""
            print(f"  [{flag}] line {stop.line:>4} in {stop.function}(){watch_text}")
        if len(outcome.stops) > limit:
            print(f"  ... ({len(outcome.stops) - limit} more stops)")
        if outcome.exception_type:
            print(f"exception: {outcome.exception_type} at line {outcome.exception_line}: "
                  f"{outcome.exception_message}")
        elif outcome.completed:
            print(f"result: {outcome.result!r}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    project = DevUDFProject(args.project)
    commits = project.history()
    if not commits:
        print("no commits yet")
        return 0
    for commit in commits:
        print(f"{commit.short_id()}  {commit.message}  ({len(commit.files)} file(s))")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    print(format_table())
    shares = ide_vs_text_editor_share()
    print()
    print(f"IDE share: {shares['IDE']}%   Text editor share: {shares['Text Editor']}%")
    return 0


def cmd_demo_server(args: argparse.Namespace) -> int:
    from .netproto.server import AsyncSocketServer
    from .workloads.udf_corpus import demo_server

    server, setup = demo_server(args.csv_dir,
                                buggy_mean_deviation=not args.fixed,
                                with_classifier=args.with_classifier,
                                with_extras=True,
                                db_path=args.db)
    if args.slow_query_ms is not None:
        server.slow_query_ms = (args.slow_query_ms
                                if args.slow_query_ms > 0 else None)
    socket_server = AsyncSocketServer(server, host=args.host, port=args.port)
    host, port = socket_server.start_background()
    mode = f"durable ({args.db})" if args.db else "in-memory"
    print(f"demo server listening on {host}:{port} "
          f"(user=monetdb password=monetdb database=demo, {mode})")
    print(f"CSV workload: {setup.workload.total_rows} rows in "
          f"{len(setup.workload.files)} files under {setup.csv_directory}")
    print(json.dumps({"host": host, "port": port}, indent=2))
    if args.block:
        try:
            socket_server._thread.join()  # noqa: SLF001 - CLI convenience
        except KeyboardInterrupt:
            pass
        finally:
            socket_server.stop()
            server.database.close()  # auto-checkpoint for durable databases
    else:
        socket_server.stop()
        server.database.close()
    return 0


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devudf",
        description="devUDF: develop and debug in-database Python UDFs from your IDE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    configure = sub.add_parser("configure", help="store connection/debug settings (Figure 2)")
    configure.add_argument("--project", required=True)
    configure.add_argument("--host")
    configure.add_argument("--port", type=int)
    configure.add_argument("--database")
    configure.add_argument("--username")
    configure.add_argument("--password")
    configure.add_argument("--debug-query", dest="debug_query")
    configure.add_argument("--compression", choices=available_codecs())
    configure.add_argument("--encrypt", action=argparse.BooleanOptionalAction)
    configure.add_argument("--sample-size", type=int, dest="sample_size")
    configure.set_defaults(func=cmd_configure)

    list_parser = sub.add_parser("list", help="list Python UDFs stored on the server")
    list_parser.add_argument("--project", required=True)
    list_parser.set_defaults(func=cmd_list)

    import_parser = sub.add_parser("import", help="Import UDFs (Figure 3a)")
    import_parser.add_argument("--project", required=True)
    import_parser.add_argument("udfs", nargs="*")
    import_parser.set_defaults(func=cmd_import)

    export_parser = sub.add_parser("export", help="Export UDFs (Figure 3b)")
    export_parser.add_argument("--project", required=True)
    export_parser.add_argument("udfs", nargs="*")
    export_parser.set_defaults(func=cmd_export)

    debug_parser = sub.add_parser("debug", help="debug a UDF locally")
    debug_parser.add_argument("--project", required=True)
    debug_parser.add_argument("--udf")
    debug_parser.add_argument("--query")
    debug_parser.add_argument("--breakpoint", type=int, action="append")
    debug_parser.add_argument("--breakpoint-text", dest="breakpoint_text")
    debug_parser.add_argument("--watch", action="append")
    debug_parser.add_argument("--run-only", action="store_true", dest="run_only")
    debug_parser.add_argument("--max-stops", type=int, default=20, dest="max_stops")
    debug_parser.set_defaults(func=cmd_debug)

    history_parser = sub.add_parser("history", help="show the project's UDF version history")
    history_parser.add_argument("--project", required=True)
    history_parser.set_defaults(func=cmd_history)

    table1_parser = sub.add_parser("table1", help="print Table 1 (IDE popularity)")
    table1_parser.set_defaults(func=cmd_table1)

    demo_parser = sub.add_parser("demo-server", help="start the demo database server")
    demo_parser.add_argument("--csv-dir", required=True, dest="csv_dir")
    demo_parser.add_argument("--host", default="127.0.0.1")
    demo_parser.add_argument("--port", type=int, default=0)
    demo_parser.add_argument("--db", default=None, metavar="PATH",
                             help="durable single-file database path "
                                  "(default: in-memory)")
    demo_parser.add_argument("--fixed", action="store_true",
                             help="register the corrected mean_deviation instead of the buggy one")
    demo_parser.add_argument("--with-classifier", action="store_true", dest="with_classifier")
    demo_parser.add_argument("--block", action="store_true",
                             help="keep serving until interrupted")
    demo_parser.add_argument("--slow-query-ms", type=float, default=None,
                             dest="slow_query_ms", metavar="MILLISECONDS",
                             help="log queries slower than this to the "
                                  "server's bounded slow-query ring "
                                  "(0 disables; default: server's 500)")
    demo_parser.set_defaults(func=cmd_demo_server)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
