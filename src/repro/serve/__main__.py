"""CLI for serving a cube snapshot or a timeline of them.

Examples (after ``dump_snapshot(cube, "snap/")``)::

    python -m repro.serve snap/ info
    python -m repro.serve snap/ top --index D -k 10 --min-minority 20
    python -m repro.serve snap/ slice --ca city=Rivertown
    python -m repro.serve snap/ cell --sa ethnicity=minority
    python -m repro.serve snap/ pivot --index D --rows ethnicity --cols city
    python -m repro.serve snap/ top --json          # machine-readable
    python -m repro.serve snap/ info --no-mmap      # load into memory

A *timeline* directory (integer-named snapshot subdirectories, written
by :func:`repro.store.dump_into_timeline`) serves the same commands
routed to one date — the latest unless ``--date`` picks another — plus
a per-date ``trend`` of one cell::

    python -m repro.serve timeline/ info
    python -m repro.serve timeline/ top --date 2005
    python -m repro.serve timeline/ trend --index D --sa gender=F

``serve`` starts the stdlib HTTP tier over the same queries::

    python -m repro.serve snap/ serve --port 8000
    curl 'http://127.0.0.1:8000/top?k=5&min_minority=20'

Coordinates are ``attribute=value`` pairs, repeatable: ``--sa sex=F
--sa age=young --ca region=north``.  All commands are read-only.
Errors exit nonzero with a one-line ``error: ...`` on stderr; output
piped into a pager that closes early exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cube.cell import CellStats
from repro.errors import ReproError
from repro.report.text import render_cube, render_table
from repro.serve import payloads
from repro.serve.params import parse_coordinate_pairs, typed_coordinates


def _coordinates(pairs: "list[str] | None") -> "dict[str, object] | None":
    try:
        return parse_coordinate_pairs(pairs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _typed(service, pairs: "list[str] | None"
           ) -> "dict[str, object] | None":
    return typed_coordinates(service.typed_values, _coordinates(pairs))


def _cell_rows(service, cells: "list[CellStats]",
               index_names: "list[str]") -> "list[list[object]]":
    return [
        [service.describe(stats.key), stats.population, stats.minority,
         stats.n_units]
        + [stats.value(name) for name in index_names]
        for stats in cells
    ]


def _print_cells(service, cells: "list[CellStats]", as_json: bool) -> None:
    if as_json:
        print(json.dumps(payloads.cells_payload(service, cells), indent=2))
        return
    index_names = service.index_names
    header = ["cell", "T", "M", "units"] + index_names
    print(render_table(header, _cell_rows(service, cells, index_names)))


def _int_between(low: int, high: "int | None" = None):
    """An argparse ``type``: an integer in ``[low, high]``, so that an
    out-of-range number fails when the arguments are parsed."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(
                f"must be {bound}, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve read-only queries over a cube snapshot.",
    )
    parser.add_argument(
        "snapshot", help="snapshot or timeline directory to open"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="cube summary and provenance")
    sub.add_parser("dates", help="timeline dates and the served date")
    sub.add_parser("rows", help="every cell as a flat table (cube.csv view)")

    top = sub.add_parser("top", help="ranked segregation contexts")
    top.add_argument("--index", default="D", help="index short name")
    top.add_argument("-k", type=_int_between(0), default=10)
    top.add_argument("--min-minority", type=int, default=0)
    top.add_argument("--min-population", type=int, default=0)
    top.add_argument("--min-units", type=int, default=2)

    for name, help_text in (
        ("slice", "cells refining the given coordinates"),
        ("cell", "one cell at the given coordinates"),
        ("children", "drill-down neighbours of the given coordinates"),
        ("parents", "roll-up neighbours of the given coordinates"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--sa", action="append", metavar="ATTR=VALUE")
        cmd.add_argument("--ca", action="append", metavar="ATTR=VALUE")

    pivot = sub.add_parser("pivot", help="Fig. 1-style pivot of one index")
    pivot.add_argument("--index", default="D")
    pivot.add_argument("--rows", required=True, help="row attribute")
    pivot.add_argument("--cols", required=True, help="column attribute")
    pivot.add_argument("--sa", action="append", metavar="ATTR=VALUE")
    pivot.add_argument("--ca", action="append", metavar="ATTR=VALUE")
    pivot.add_argument("--digits", type=int, default=2)

    trend = sub.add_parser(
        "trend", help="one cell's index value per timeline date"
    )
    trend.add_argument("--index", default="D")
    trend.add_argument("--sa", action="append", metavar="ATTR=VALUE")
    trend.add_argument("--ca", action="append", metavar="ATTR=VALUE")

    serve = sub.add_parser(
        "serve", help="serve the JSON HTTP endpoints (stdlib WSGI)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_int_between(0, 65535), default=8000)
    serve.add_argument(
        "--cache-size", type=_int_between(0), default=None,
        help="hot-query LRU entries (0 disables caching)",
    )
    serve.add_argument(
        "--graph", default=None, metavar="DIR",
        help="graph snapshot directory to mount under /graph/*",
    )

    for cmd in sub.choices.values():
        cmd.add_argument(
            "--json", action="store_true", help="emit JSON instead of text"
        )
        cmd.add_argument(
            "--no-mmap", action="store_true",
            help="load columns into memory instead of memory-mapping them",
        )
        cmd.add_argument(
            "--date", type=int, default=None,
            help="timeline date to serve (default: the latest)",
        )
    return parser


def _run_serve(args) -> int:
    from repro.serve.cache import DEFAULT_CACHE_SIZE
    from repro.serve.http import serve

    cache_size = (
        DEFAULT_CACHE_SIZE if args.cache_size is None else args.cache_size
    )
    server = serve(
        args.snapshot, host=args.host, port=args.port,
        mmap=not args.no_mmap, date=args.date, cache_size=cache_size,
        graph_source=args.graph,
    )
    host, port = server.server_address[:2]
    print(f"serving http://{host}:{port} (Ctrl-C to stop)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _run_serve(args)

        from repro.serve.router import open_service

        service = open_service(
            args.snapshot, mmap=not args.no_mmap, date=args.date
        )
        if args.command == "info":
            if args.json:
                print(json.dumps(payloads.info_payload(service), indent=2))
            else:
                print(render_table(
                    ["key", "value"],
                    [[k, v] for k, v in service.info().items()],
                ))
        elif args.command == "dates":
            if args.json:
                print(json.dumps(payloads.dates_payload(service), indent=2))
            else:
                print(render_table(
                    ["date", "served"],
                    [[date, "*" if date == service.date else ""]
                     for date in service.dates()],
                ))
        elif args.command == "rows":
            if args.json:
                print(json.dumps(service.cube.to_rows(), indent=2))
            else:
                print(render_cube(service.cube))
        elif args.command == "top":
            payload = payloads.top_payload(
                service,
                index_name=args.index,
                k=args.k,
                min_minority=args.min_minority,
                min_population=args.min_population,
                min_units=args.min_units,
            )
            if args.json:
                print(json.dumps(payload, indent=2))
            else:
                print(render_table(
                    ["rank", "cell", args.index, "T", "M", "units"],
                    [
                        [f["rank"], f["cell"], f["value"], f["population"],
                         f["minority"], f["n_units"]]
                        for f in payload
                    ],
                ))
        elif args.command in ("slice", "children", "parents"):
            sa = _typed(service, args.sa)
            ca = _typed(service, args.ca)
            cells = getattr(service, args.command)(sa=sa, ca=ca)
            _print_cells(service, cells, args.json)
        elif args.command == "cell":
            stats = service.cell(
                sa=_typed(service, args.sa), ca=_typed(service, args.ca)
            )
            if stats is None:
                print("(no such cell)" if not args.json else "null")
                return 1
            _print_cells(service, [stats], args.json)
        elif args.command == "trend":
            payload = payloads.trend_payload(
                service,
                index_name=args.index,
                sa=_typed(service, args.sa),
                ca=_typed(service, args.ca),
            )
            if args.json:
                print(json.dumps(payload, indent=2))
            else:
                print(render_table(
                    ["date", args.index],
                    [[entry["date"], entry["value"]] for entry in payload],
                ))
        elif args.command == "pivot":
            sa = _typed(service, args.sa)
            ca = _typed(service, args.ca)
            if args.json:
                print(json.dumps(
                    payloads.pivot_payload(
                        service, args.index, args.rows, args.cols,
                        fixed_sa=sa, fixed_ca=ca,
                    ),
                    indent=2,
                ))
            else:
                print(service.pivot(
                    args.index, args.rows, args.cols,
                    fixed_sa=sa, fixed_ca=ca, digits=args.digits,
                ))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
