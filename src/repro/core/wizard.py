"""Command-line wizard: the non-GUI counterpart of the SCube front-end.

The original demo ships a standalone wizard that "guides the user
throughout all the steps of the process" (paper §3).  This CLI keeps the
same step structure with announced progress:

* ``scube demo`` — run the three demo scenarios on synthetic Italy and
  write ``scube.xlsx``;
* ``scube tabular`` — scenario 1 on a CSV of individuals;
* ``scube bipartite`` — the full pipeline on three CSVs
  (individuals, groups, membership);
* ``scube generate`` — write the synthetic datasets to CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.config import (
    ClusteringConfig,
    CubeConfig,
    PipelineConfig,
)
from repro.core.pipeline import SCubePipeline, cube_workbook
from repro.core.scenarios import run_bipartite, run_tabular
from repro.cube.explorer import top_contexts
from repro.data.estonia import generate_estonia
from repro.data.italy import BoardsDataset, generate_italy, italy_tabular_individuals
from repro.data.schools import generate_schools
from repro.etl.csvio import read_table, write_rows, write_table
from repro.etl.schema import Schema
from repro.etl.temporal import TemporalMembership


def _step(number: int, total: int, message: str) -> None:
    print(f"[step {number}/{total}] {message}")


def _write_cube(cube, out: Path) -> None:
    workbook = cube_workbook(cube)
    workbook.save(out)
    print(f"wrote {out} ({len(cube)} cells)")


def _print_top(cube, index_name: str, k: int) -> None:
    print(f"top-{k} contexts by {index_name}:")
    for found in top_contexts(cube, index_name, k=k):
        print(
            f"  {found.rank:2d}. {found.description}  "
            f"{index_name}={found.value:.3f}  T={found.population} "
            f"M={found.minority}"
        )


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the bipartite demo scenario end to end on synthetic Italy."""
    _step(1, 5, "generating synthetic Italian boards dataset")
    from repro.data.italy import ItalyConfig

    dataset = generate_italy(ItalyConfig(n_companies=args.companies,
                                         seed=args.seed))
    print(
        f"  {dataset.n_individuals} directors, {dataset.n_groups} companies, "
        f"{len(dataset.membership)} memberships"
    )
    config = PipelineConfig(
        clustering=ClusteringConfig(method=args.clustering,
                                    min_weight=args.min_weight),
        cube=CubeConfig(min_population=args.min_population,
                        min_minority=args.min_minority),
    )
    pipeline = SCubePipeline(config)
    _step(2, 5, "GraphBuilder: projecting bipartite graph onto companies")
    projection = pipeline.build_graph(dataset)
    graph = projection.graph
    print(f"  {graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"{len(projection.isolated)} isolated")
    _step(3, 5, f"GraphClustering: {args.clustering}")
    clustering = pipeline.cluster(dataset, projection)
    print(f"  {clustering.n_clusters} organizational units")
    _step(4, 5, "TableBuilder + SegregationDataCubeBuilder")
    final_table, final_schema = pipeline.build_table(dataset, clustering)
    cube = pipeline.build_cube(final_table, final_schema)
    print(f"  finalTable: {len(final_table)} rows; cube: {len(cube)} cells")
    _step(5, 5, "Visualizer: writing workbook")
    _write_cube(cube, Path(args.output))
    _print_top(cube, args.index, args.top)
    return 0


def cmd_tabular(args: argparse.Namespace) -> int:
    """Scenario 1 on a user CSV."""
    _step(1, 3, f"reading {args.individuals}")
    table = read_table(args.individuals, multi_valued=args.multi_valued or [])
    schema = Schema.build(
        segregation=args.sa,
        context=args.ca,
        multi_valued=args.multi_valued or [],
    )
    # The unit attribute must be visible to the schema for validation.
    if args.unit_attr not in args.sa + args.ca:
        from repro.etl.schema import AttributeSpec, Role

        spec = AttributeSpec(args.unit_attr, Role.CONTEXT)
        schema = schema.with_spec(spec)
    _step(2, 3, f"building cube with unit attribute {args.unit_attr!r}")
    result = run_tabular(
        table,
        schema,
        args.unit_attr,
        CubeConfig(min_population=args.min_population,
                   min_minority=args.min_minority),
    )
    _step(3, 3, "writing workbook")
    _write_cube(result.cube, Path(args.output))
    _print_top(result.cube, args.index, args.top)
    return 0


def _read_membership(path: str) -> TemporalMembership:
    """Read membership pairs, honouring optional start/end interval columns."""
    table = read_table(path, integer=["individualID", "groupID"])
    individuals = table.ints("individualID").values()
    groups = table.ints("groupID").values()
    if "start" in table and "end" in table:
        def parse(cell: object) -> "int | None":
            text = str(cell)
            return int(text) if text else None

        starts = [parse(v) for v in table.column("start").values()]
        ends = [parse(v) for v in table.column("end").values()]
        return TemporalMembership.from_records(
            zip(individuals, groups, starts, ends)
        )
    return TemporalMembership.from_pairs(zip(individuals, groups))


def cmd_bipartite(args: argparse.Namespace) -> int:
    """Full pipeline on user CSVs."""
    _step(1, 3, "reading inputs")
    individuals = read_table(args.individuals, integer=[args.id_column])
    groups = read_table(args.groups, integer=[args.group_id_column])
    membership = _read_membership(args.membership)
    dataset = BoardsDataset(
        individuals=individuals,
        individuals_schema=Schema.build(
            segregation=args.sa, context=args.ca, id_=args.id_column
        ),
        groups=groups,
        groups_schema=Schema.build(
            context=args.group_ca, id_=args.group_id_column
        ),
        membership=membership,
        name="user-data",
    )
    step2 = "running pipeline"
    if args.snapshot_date is not None:
        step2 += f" (snapshot at {args.snapshot_date})"
    _step(2, 3, step2)
    result = run_bipartite(
        dataset,
        PipelineConfig(
            clustering=ClusteringConfig(method=args.clustering,
                                        min_weight=args.min_weight),
            cube=CubeConfig(min_population=args.min_population,
                            min_minority=args.min_minority),
            snapshot_date=args.snapshot_date,
        ),
    )
    print(f"  {result.n_units} units; cube: {len(result.cube)} cells")
    _step(3, 3, "writing workbook")
    _write_cube(result.cube, Path(args.output))
    _print_top(result.cube, args.index, args.top)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Write a synthetic dataset as the SCube input CSVs."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.dataset == "schools":
        table, _schema = generate_schools()
        write_table(table, out / "students.csv")
        print(f"wrote {out / 'students.csv'} ({len(table)} rows)")
        return 0
    dataset = generate_italy() if args.dataset == "italy" else generate_estonia()
    write_table(dataset.individuals, out / "individual.csv")
    write_table(dataset.groups, out / "group.csv")
    rows = [
        (
            e.individual,
            e.group,
            e.interval.start if e.interval.start is not None else "",
            e.interval.end if e.interval.end is not None else "",
        )
        for e in dataset.membership
    ]
    write_rows(rows, ["individualID", "groupID", "start", "end"],
               out / "individualGroup.csv")
    if args.dataset == "italy":
        seats, _ = italy_tabular_individuals(dataset)
        write_table(seats, out / "finalTable_tabular.csv")
    print(
        f"wrote {args.dataset} dataset to {out}: "
        f"{dataset.n_individuals} individuals, {dataset.n_groups} groups, "
        f"{len(dataset.membership)} memberships"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="scube",
        description="SCube: segregation discovery over relational and "
        "graph data (EDBT 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cube_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--min-population", type=int, default=20)
        p.add_argument("--min-minority", type=int, default=5)
        p.add_argument("--index", default="D", help="index for the top-k list")
        p.add_argument("--top", type=int, default=10)
        p.add_argument("--output", default="scube.xlsx")

    demo = sub.add_parser("demo", help="run the demo on synthetic Italy")
    demo.add_argument("--companies", type=int, default=2000)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--clustering", default="threshold",
                      choices=("components", "threshold", "stoc"))
    demo.add_argument("--min-weight", type=float, default=2.0)
    add_cube_args(demo)
    demo.set_defaults(func=cmd_demo)

    tabular = sub.add_parser("tabular", help="scenario 1 on a CSV")
    tabular.add_argument("--individuals", required=True)
    tabular.add_argument("--unit-attr", required=True)
    tabular.add_argument("--sa", nargs="+", required=True)
    tabular.add_argument("--ca", nargs="*", default=[])
    tabular.add_argument("--multi-valued", nargs="*", default=[])
    add_cube_args(tabular)
    tabular.set_defaults(func=cmd_tabular)

    bipartite = sub.add_parser("bipartite", help="full pipeline on CSVs")
    bipartite.add_argument("--individuals", required=True)
    bipartite.add_argument("--groups", required=True)
    bipartite.add_argument("--membership", required=True)
    bipartite.add_argument("--sa", nargs="+", required=True)
    bipartite.add_argument("--ca", nargs="*", default=[])
    bipartite.add_argument("--group-ca", nargs="+", required=True)
    bipartite.add_argument("--id-column", default="directorID")
    bipartite.add_argument("--group-id-column", default="companyID")
    bipartite.add_argument("--clustering", default="threshold",
                           choices=("components", "threshold", "stoc"))
    bipartite.add_argument("--min-weight", type=float, default=2.0)
    bipartite.add_argument(
        "--snapshot-date", type=int, default=None,
        help="analyse the membership snapshot valid at this date "
        "(requires start/end columns in the membership CSV)",
    )
    add_cube_args(bipartite)
    bipartite.set_defaults(func=cmd_bipartite)

    generate = sub.add_parser("generate", help="write synthetic datasets")
    generate.add_argument("dataset", choices=("italy", "estonia", "schools"))
    generate.add_argument("--out-dir", default="data")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
