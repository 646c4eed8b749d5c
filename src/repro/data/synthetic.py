"""Synthetic data with planted, analytically-known segregation.

The pipeline-validation workhorse: tables are constructed so that the
exact per-unit counts — and therefore every index value — are known by
construction, letting tests assert end-to-end equality rather than
statistical closeness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.etl.schema import Schema
from repro.etl.stream import SET_SEPARATOR
from repro.etl.table import Table
from repro.indexes.counts import UnitCounts


@dataclass(frozen=True)
class PlantedDataset:
    """A table whose segregation statistics are exact by construction."""

    table: Table
    schema: Schema
    counts: UnitCounts


def planted_counts(
    unit_sizes: "list[int]", minority_shares: "list[float]"
) -> UnitCounts:
    """Exact per-unit counts from sizes and minority shares (rounded)."""
    if len(unit_sizes) != len(minority_shares):
        raise ReproError("unit_sizes and minority_shares differ in length")
    t = np.asarray(unit_sizes, dtype=np.int64)
    m = np.minimum(t, np.round(t * np.asarray(minority_shares)).astype(np.int64))
    return UnitCounts(t, m)


def planted_table(
    unit_sizes: "list[int]", minority_shares: "list[float]"
) -> PlantedDataset:
    """Deterministic table realising exactly the given per-unit counts.

    The table has one SA attribute, ``gender`` (minority ``F``, majority
    ``M``), and the unit column; its cube's global cell
    ``(gender=F | *)`` reproduces the planted index values exactly.
    """
    counts = planted_counts(unit_sizes, minority_shares)
    rows = []
    for unit, (t, m) in enumerate(zip(counts.t, counts.m)):
        rows.extend([("F", unit)] * int(m))
        rows.extend([("M", unit)] * int(t - m))
    table = Table.from_rows(["gender", "unitID"], rows)
    schema = Schema.build(segregation=["gender"], unit="unitID")
    return PlantedDataset(table, schema, counts)


def checkerboard_table(n_units: int, unit_size: int) -> PlantedDataset:
    """Complete segregation: units alternate all-minority / all-majority.

    Dissimilarity, Gini, Information and Atkinson all equal 1 exactly
    (with an even number of units), Isolation is 1 and Interaction 0.
    """
    if n_units < 2 or n_units % 2:
        raise ReproError("checkerboard needs an even n_units >= 2")
    shares = [1.0 if i % 2 == 0 else 0.0 for i in range(n_units)]
    return planted_table([unit_size] * n_units, shares)


def uniform_table(n_units: int, unit_size: int) -> PlantedDataset:
    """No segregation: every unit has a minority share of 0.3.

    All evenness indexes (D, G, H, A) equal 0 exactly, so
    ``0.3 * unit_size`` must be integral.
    """
    share = 0.3
    if abs(share * unit_size - round(share * unit_size)) > 1e-9:
        raise ReproError(
            f"share*unit_size = {share * unit_size} must be integral for an "
            "exactly uniform table"
        )
    return planted_table([unit_size] * n_units, [share] * n_units)


def random_final_table(
    n_rows: int,
    n_units: int,
    sa_attributes: "dict[str, int] | None" = None,
    ca_attributes: "dict[str, int] | None" = None,
    multi_valued_ca: "dict[str, int] | None" = None,
    seed: int = 0,
    skew: float = 0.0,
) -> tuple[Table, Schema]:
    """A random ``finalTable`` for property tests and scaling benchmarks.

    ``sa_attributes`` / ``ca_attributes`` map attribute names to their
    cardinality; ``multi_valued_ca`` attributes draw 0-3 values per row.
    ``skew`` > 0 draws values from a geometric-like distribution (value
    ``k`` with probability proportional to ``(1+skew)^-k``), making most
    attribute values rare — the shape of real categorical data, and what
    support-based pruning feeds on.
    """
    if n_rows < 1 or n_units < 1:
        raise ReproError("n_rows and n_units must be positive")
    if skew < 0:
        raise ReproError("skew must be non-negative")
    rng = np.random.default_rng(seed)
    sa_attributes = sa_attributes or {"gender": 2, "age": 3}
    ca_attributes = ca_attributes or {"region": 3}
    multi_valued_ca = multi_valued_ca or {}

    def draw(cardinality: int) -> np.ndarray:
        if skew == 0:
            return rng.integers(0, cardinality, n_rows)
        probs = (1.0 + skew) ** -np.arange(cardinality, dtype=float)
        probs /= probs.sum()
        return rng.choice(cardinality, size=n_rows, p=probs)

    data: dict[str, list] = {}
    for attr, cardinality in sa_attributes.items():
        values = [f"{attr}{k}" for k in range(cardinality)]
        data[attr] = [values[i] for i in draw(cardinality)]
    for attr, cardinality in ca_attributes.items():
        values = [f"{attr}{k}" for k in range(cardinality)]
        data[attr] = [values[i] for i in draw(cardinality)]
    for attr, cardinality in multi_valued_ca.items():
        values = [f"{attr}{k}" for k in range(cardinality)]
        column = []
        for _ in range(n_rows):
            size = int(rng.integers(0, min(3, cardinality) + 1))
            column.append(frozenset(
                rng.choice(values, size=size, replace=False).tolist()
            ))
        data[attr] = column
    data["unitID"] = [int(u) for u in rng.integers(0, n_units, n_rows)]
    table = Table.from_dict(data)
    schema = Schema.build(
        segregation=list(sa_attributes),
        context=list(ca_attributes) + list(multi_valued_ca),
        unit="unitID",
        multi_valued=list(multi_valued_ca),
    )
    return table, schema


def write_random_final_table_csv(
    path,
    n_rows: int,
    n_units: int = 1000,
    sa_attributes: "dict[str, int] | None" = None,
    ca_attributes: "dict[str, int] | None" = None,
    multi_valued_ca: "dict[str, int] | None" = None,
    seed: int = 0,
    skew: float = 0.0,
    chunk_rows: int = 65536,
) -> Schema:
    """Write a random ``finalTable`` CSV of any size without building it.

    The out-of-core sibling of :func:`random_final_table`: the same
    value scheme (``f"{attr}{k}"`` labels, geometric skew, 0-3 values
    per multi-valued cell, integer ``unitID``), but rows are generated
    and written ``chunk_rows`` at a time, so peak memory is one chunk
    regardless of ``n_rows`` — this is what benchmark E21 uses to
    produce its 10M-row input.  Deterministic per ``seed``, though the
    row stream differs from ``random_final_table``'s (values are drawn
    chunk by chunk, not column by column over the whole table).

    Returns the matching :class:`~repro.etl.schema.Schema`; read the
    file back with :func:`repro.etl.stream.stream_csv`.
    """
    if n_rows < 1 or n_units < 1:
        raise ReproError("n_rows and n_units must be positive")
    if skew < 0:
        raise ReproError("skew must be non-negative")
    if chunk_rows < 1:
        raise ReproError("chunk_rows must be positive")
    rng = np.random.default_rng(seed)
    sa_attributes = sa_attributes or {"gender": 2, "age": 3}
    ca_attributes = ca_attributes or {"region": 3}
    multi_valued_ca = multi_valued_ca or {}
    header = (
        list(sa_attributes) + list(ca_attributes) + list(multi_valued_ca)
        + ["unitID"]
    )

    def draw(cardinality: int, n: int) -> np.ndarray:
        if skew == 0:
            return rng.integers(0, cardinality, n)
        probs = (1.0 + skew) ** -np.arange(cardinality, dtype=float)
        probs /= probs.sum()
        return rng.choice(cardinality, size=n, p=probs)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        written = 0
        while written < n_rows:
            n = min(chunk_rows, n_rows - written)
            columns: "list[list[str]]" = []
            for attr, cardinality in {**sa_attributes,
                                      **ca_attributes}.items():
                values = [f"{attr}{k}" for k in range(cardinality)]
                columns.append([values[i] for i in draw(cardinality, n)])
            for attr, cardinality in multi_valued_ca.items():
                values = [f"{attr}{k}" for k in range(cardinality)]
                max_size = min(3, cardinality)
                sizes = rng.integers(0, max_size + 1, n)
                # One random permutation per row (argsorted uniforms);
                # the first `size` entries are the row's value set — no
                # per-row rng calls.
                order = np.argsort(rng.random((n, cardinality)), axis=1)
                columns.append([
                    SET_SEPARATOR.join(
                        sorted(values[j] for j in row[:size])
                    )
                    for row, size in zip(order, sizes)
                ])
            columns.append(
                [str(u) for u in rng.integers(0, n_units, n)]
            )
            writer.writerows(zip(*columns))
            written += n
    return Schema.build(
        segregation=list(sa_attributes),
        context=list(ca_attributes) + list(multi_valued_ca),
        unit="unitID",
        multi_valued=list(multi_valued_ca),
    )


def random_bipartite_world(n_left: int, n_right: int, seed: int = 0):
    """A scalable individuals×groups membership world for graph workloads.

    The shape mimics board-membership registries: every individual sits
    on ``1 + Poisson(1.2)`` boards, and board popularity is power-law
    distributed (group ``r`` is drawn with probability proportional to
    ``1 / (r+1)**1.1``), so a few boards are huge hubs and most are tiny
    — the regime the projection's hub guard and degree-bucketed pair
    enumeration are built for.  Groups carry two categorical attributes,
    ``sector`` (12 values) and ``region`` (8), whose values are
    geometrically skewed (value ``k`` with probability proportional to
    ``0.5 ** k``), giving SToC meaningfully similar neighbours.

    Deterministic per ``seed``.  Returns ``(bipartite, attributes)``:
    a :class:`~repro.graph.bipartite.BipartiteGraph` (duplicate draws
    deduplicated) and a
    :class:`~repro.graph.attributes.NodeAttributeTable` over the right
    (group) nodes.  This is the world benchmark E22 and the graph
    parity tests run on.
    """
    from repro.graph.attributes import NodeAttributeTable
    from repro.graph.bipartite import BipartiteGraph

    if n_left < 1 or n_right < 1:
        raise ReproError("n_left and n_right must be positive")
    rng = np.random.default_rng(seed)
    degrees = 1 + rng.poisson(1.2, n_left)
    np.clip(degrees, 1, n_right, out=degrees)
    probs = 1.0 / np.arange(1, n_right + 1, dtype=float) ** 1.1
    probs /= probs.sum()
    lefts = np.repeat(np.arange(n_left, dtype=np.int64), degrees)
    rights = rng.choice(n_right, size=len(lefts), p=probs)
    bipartite = BipartiteGraph.from_arrays(n_left, n_right, lefts, rights)

    columns: "dict[str, list[str]]" = {}
    for name, cardinality in (("sector", 12), ("region", 8)):
        weights = 0.5 ** np.arange(cardinality, dtype=float)
        weights /= weights.sum()
        codes = rng.choice(cardinality, size=n_right, p=weights)
        columns[name] = [f"{name}{k}" for k in codes]
    table = NodeAttributeTable.from_columns(n_right, columns)
    return bipartite, table


def random_temporal_final_table(
    n_rows: int,
    n_units: int,
    dates: "tuple[int, ...]" = (0, 1, 2),
    sa_attributes: "dict[str, int] | None" = None,
    ca_attributes: "dict[str, int] | None" = None,
    multi_valued_ca: "dict[str, int] | None" = None,
    seed: int = 0,
    skew: float = 0.0,
    max_churn: float = 0.05,
) -> "tuple[Table, Schema, np.ndarray, np.ndarray]":
    """A random ``finalTable`` with per-row validity intervals.

    Built on :func:`random_final_table`; additionally every row gets a
    half-open validity interval over ``dates`` so the table can be
    snapshotted per date (the temporal workload).  Churn is **localized
    the way real registries churn**: only rows whose context is the
    first value of every single-valued CA attribute (and whose
    multi-valued CA sets are empty) ever start or end between dates —
    think "board turnover concentrated in one county's dominant sector".
    All other rows are valid throughout, so most contexts are provably
    untouched between consecutive dates, which is the workload the
    incremental cube fill exploits (benchmark E19).

    Per consecutive date pair, at most ``max_churn * n_rows`` rows
    change validity (half leaving, half joining), bounded also by the
    size of the churn-eligible pool.

    Returns ``(table, schema, starts, ends)`` with sentinel-encoded
    open bounds (see :mod:`repro.etl.diff`), row-aligned with the table.
    """
    from repro.etl.diff import OPEN_END, OPEN_START

    if len(dates) < 2:
        raise ReproError("temporal table needs at least two dates")
    if sorted(dates) != list(dates) or len(set(dates)) != len(dates):
        raise ReproError("dates must be strictly increasing")
    if not 0 < max_churn <= 1:
        raise ReproError("max_churn must be in (0, 1]")
    ca_attributes = ca_attributes or {"region": 3}
    multi_valued_ca = multi_valued_ca or {}
    table, schema = random_final_table(
        n_rows=n_rows,
        n_units=n_units,
        sa_attributes=sa_attributes,
        ca_attributes=ca_attributes,
        multi_valued_ca=multi_valued_ca,
        seed=seed,
        skew=skew,
    )
    pool_mask = np.ones(n_rows, dtype=bool)
    for name in ca_attributes:
        pool_mask &= table.categorical(name).mask_eq(f"{name}0")
    for name in multi_valued_ca:
        pool_mask &= np.fromiter(
            (len(v) == 0 for v in table.multivalued(name).values()),
            dtype=bool, count=n_rows,
        )

    rng = np.random.default_rng(seed + 1)
    pool = rng.permutation(np.flatnonzero(pool_mask))
    starts = np.full(n_rows, OPEN_START, dtype=np.int64)
    ends = np.full(n_rows, OPEN_END, dtype=np.int64)
    n_steps = len(dates) - 1
    per_kind = min(
        int(max_churn * n_rows) // 2 or 1, len(pool) // (2 * n_steps)
    )
    cursor = 0
    for step in range(1, len(dates)):
        leavers = pool[cursor:cursor + per_kind]
        cursor += per_kind
        joiners = pool[cursor:cursor + per_kind]
        cursor += per_kind
        ends[leavers] = dates[step]
        starts[joiners] = dates[step]
    return table, schema, starts, ends
