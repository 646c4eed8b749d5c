"""Reference implementations the optimised library is checked against.

Deliberately slow and simple: direct transcriptions of the definitions
(the scalar index formulas, brute-force indexes and itemsets), plus the
reference algorithms each shipped engine must reproduce exactly — the
scalar formulas for the batched index kernels, per-cell typing for the
readers' column typing, the per-row encoder for the chunked CSR
encoder, FP-growth for eclat and the recursive eclat DFS for the
level-wise kernel's order and covers, the closure operator for the capped
closedness sweep, full enumeration and the one-cell-at-a-time
fill (:func:`make_cell`) for the cube builder's fills and its
closed-mode resolver, the label-gather cover counting for the popcount
counting kernel, the set/BFS graph algorithms (reading graphs only
through their arrays) for the array graph engine, and the per-row
timeline series (:func:`timeline_series_reference`) for the memoised
one.  :func:`reachable_cubes` counts the cubes an object keeps alive.
Nothing under ``src/`` imports this module; the benchmarks use the same
references as their baselines.
"""

from __future__ import annotations

import gc
import math
import time
import types
from collections import deque
from collections.abc import Callable, Iterable
from itertools import combinations

import numpy as np

from repro.cube.builder import MinedCoordinates, SegregationDataCubeBuilder
from repro.cube.cell import CellStats
from repro.cube.compare import CellSeries, _aligned_key, describe_aligned
from repro.cube.coordinates import CellKey
from repro.cube.cube import CubeMetadata, SegregationCube
from repro.errors import CubeError, GraphError, MiningError, TableError
from repro.etl.schema import Role, Schema
from repro.etl.stream import SET_SEPARATOR
from repro.etl.table import (
    CategoricalColumn,
    IntColumn,
    MultiValuedColumn,
    Table,
)
from repro.graph.attributes import NodeAttributeTable
from repro.graph.bipartite import BipartiteGraph, ProjectionResult
from repro.graph.components import Clustering
from repro.graph.graph import Graph
from repro.indexes.base import IndexSpec
from repro.indexes.counts import UnitCounts
from repro.indexes.inference import (
    BootstrapResult,
    RandomizationResult,
    _hypergeometric_split,
)
from repro.itemsets.coverset import Cover, as_cover
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.miner import absolute_minsup
from repro.itemsets.transactions import EncodeAccumulator, TransactionDatabase


# ----------------------------------------------------------------------
# Reading and encoding: table chunks, per-cell typing, the per-row encoder
# ----------------------------------------------------------------------


def encode_chunks(
    chunks: "Iterable[Table]", schema: Schema
) -> TransactionDatabase:
    """Fold a stream of table chunks through one
    :class:`~repro.itemsets.transactions.EncodeAccumulator`."""
    accumulator = EncodeAccumulator(schema)
    for chunk in chunks:
        accumulator.add_chunk(chunk)
    return accumulator.finalize()


def iter_chunks(table: Table, chunk_rows: int) -> "Iterable[Table]":
    """Split a table into row chunks (an empty table yields one empty
    chunk).

    Each chunk's columns are rebuilt from their decoded values by the
    column kind's ``from_values``, so a chunk carries only the
    categories its rows use, in first-seen order, as a freshly parsed
    source chunk does.
    """
    columns = {name: table.column(name) for name in table.names}
    n = len(table)
    for a in range(0, max(n, 1), chunk_rows):
        rows = range(a, min(n, a + chunk_rows))
        yield Table({
            name: type(col).from_values([col[i] for i in rows])
            for name, col in columns.items()
        })


def type_cells_reference(
    names: "list[str]",
    columns: "Iterable[Iterable[object]]",
    multi: "set[str]",
    ints: "set[str]",
) -> Table:
    """Type one chunk's raw cells one cell at a time.

    The per-cell form of ``repro.etl.stream._type_columns``: each
    multi-valued cell is split on its own (None and ``""`` are the empty
    set; an empty member raises), each integer cell is parsed on its
    own, a None categorical cell reads as ``""``; then each column is
    its kind's ``from_values`` over the parsed cells.
    """
    built: "dict[str, object]" = {}
    for name, cells in zip(names, columns):
        if name in multi:
            sets = []
            for cell in cells:
                text = "" if cell is None else str(cell)
                members = text.split(SET_SEPARATOR) if text else []
                if "" in members:
                    raise TableError(
                        f"column {name!r}: cell {text!r} has an empty set "
                        "member"
                    )
                sets.append(members)
            built[name] = MultiValuedColumn.from_values(sets)
        elif name in ints:
            values = []
            for cell in cells:
                if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                    raise TableError(f"column {name!r}: not an integer")
                values.append(int(cell))
            built[name] = IntColumn(values)
        else:
            built[name] = CategoricalColumn.from_values(
                ["" if cell is None else cell for cell in cells]
            )
    return Table(built)


def db_from_rows(
    rows: "Iterable[Iterable[int]]",
    dictionary: ItemDictionary,
    units: "np.ndarray | None" = None,
) -> TransactionDatabase:
    """A database from its horizontal rows: one collection of item ids
    per transaction (repeats dropped, ids sorted)."""
    normalized = [sorted(set(row)) for row in rows]
    indptr = np.zeros(len(normalized) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in normalized], out=indptr[1:])
    indices = np.array(
        [item for row in normalized for item in row], dtype=np.int64
    )
    return TransactionDatabase(indptr, indices, dictionary, units)


def rows_of(db: TransactionDatabase) -> "list[tuple[int, ...]]":
    """The horizontal view: each transaction's sorted item ids, read
    off the item covers (a restricted view's dead rows are empty)."""
    rows: "list[list[int]]" = [[] for _ in range(len(db))]
    for item, cover in sorted(db.covers().items()):
        for t in np.flatnonzero(cover.to_bools()):
            rows[t].append(item)
    return [tuple(row) for row in rows]


def encode_reference(table: Table, schema: Schema) -> TransactionDatabase:
    """Encode a table row by row: one item per SA/CA value of each row.

    Items are registered spec by spec in schema order, each spec's
    items in its column's category order, and each row's item tuple
    goes through :func:`db_from_rows`: no chunks, no column code
    arrays, no spill.
    """
    kinds = {Role.SEGREGATION: ItemKind.SA, Role.CONTEXT: ItemKind.CA}
    schema.validate(table)
    dictionary = ItemDictionary()
    columns = []
    for spec in schema.specs:
        if spec.role in kinds:
            column = table.column(spec.name)
            ids = {
                value: dictionary.add(Item(spec.name, value), kinds[spec.role])
                for value in column.categories
            }
            columns.append((spec.multi_valued, ids, column.values()))
    rows = []
    for i in range(len(table)):
        items = []
        for multi, ids, cells in columns:
            items.extend(ids[v] for v in (cells[i] if multi else [cells[i]]))
        rows.append(tuple(items))
    unit_names = [s.name for s in schema.specs if s.role is Role.UNIT]
    units = table.ints(unit_names[0]).data if unit_names else None
    return db_from_rows(rows, dictionary, units)


def assert_same_db(got: TransactionDatabase,
                   want: TransactionDatabase) -> None:
    """Bit-identical databases: CSR arrays, units and item dictionary."""
    assert got._indptr.dtype == want._indptr.dtype == np.int64
    assert got._indices.dtype == want._indices.dtype == np.int64
    assert np.array_equal(got._indptr, want._indptr)
    assert np.array_equal(got._indices, want._indices)
    if want.units is None:
        assert got.units is None
    else:
        assert np.array_equal(got.units, want.units)
    assert len(got.dictionary) == len(want.dictionary)
    for i in range(len(want.dictionary)):
        assert got.dictionary.item(i) == want.dictionary.item(i)
        assert got.dictionary.kind(i) == want.dictionary.kind(i)


# ----------------------------------------------------------------------
# Index references: the scalar formulas, one UnitCounts at a time
# ----------------------------------------------------------------------
#
# The six shipped indexes exist in ``src/`` only as batched kernels over
# a prepared block (``repro.indexes.vectorized``).  These are the same
# formulas written for one 1-D ``UnitCounts``, sharing no code with the
# kernels or their block preparation: ``make_cell`` fills cells with
# them, and the parity tests compare every kernel with them at atol=0.


def is_degenerate(counts: UnitCounts) -> bool:
    """True when no index is defined: empty, all-minority or no-minority."""
    total, m_total = counts.total, counts.minority_total
    return total == 0 or m_total == 0 or total - m_total == 0


def _binary_entropy(p: "np.ndarray | float") -> "np.ndarray | float":
    """Shannon entropy of a Bernoulli(p), in bits, with 0*log(0) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(arr)
    inner = (arr > 0) & (arr < 1)
    q = arr[inner]
    out[inner] = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    if np.isscalar(p):
        return float(out)
    return out


def dissimilarity(counts: UnitCounts) -> float:
    """Dissimilarity ``D = 1/2 * sum_i | m_i/M - (t_i-m_i)/(T-M) |``."""
    if is_degenerate(counts):
        return float("nan")
    minority_share = counts.m / counts.minority_total
    majority_share = (counts.t - counts.m) / (
        counts.total - counts.minority_total
    )
    return float(0.5 * np.abs(minority_share - majority_share).sum())


def gini(counts: UnitCounts) -> float:
    """Gini ``G``, in ``O(n log n)`` by sorting the ``p_i``.

    The reference keeps the stable sort and the two-prefix-sum form on
    purpose, so it shares no arithmetic with the kernel's single
    weighted prefix sum over an unstable sort; both numerators are the
    same exact integer while ``T^2 < 2^53``, hence the same bits.
    """
    if is_degenerate(counts):
        return float("nan")
    t, m = counts.t, counts.m
    total = counts.total
    p_overall = counts.proportion
    order = np.argsort(counts.unit_proportions, kind="stable")
    t_sorted = t[order]
    m_sorted = m[order]
    # sum_{i<j} t_i t_j (p_j - p_i) for sorted p; expand p = m/t:
    # sum_{i<j} (m_j t_i - m_i t_j)
    cum_t = np.concatenate([[0.0], np.cumsum(t_sorted)])[:-1]
    cum_m = np.concatenate([[0.0], np.cumsum(m_sorted)])[:-1]
    cross = float(np.sum(m_sorted * cum_t - t_sorted * cum_m))
    denom = 2 * total * total * p_overall * (1 - p_overall)
    return float(2 * cross / denom)


def information(counts: UnitCounts) -> float:
    """Information (entropy) index ``H = 1 - sum_i t_i E_i / (T E)``."""
    if is_degenerate(counts):
        return float("nan")
    e_overall = _binary_entropy(counts.proportion)
    if e_overall == 0:
        return float("nan")
    e_units = _binary_entropy(counts.unit_proportions)
    weighted = float((counts.t * e_units).sum()) / (counts.total * e_overall)
    return float(1.0 - weighted)


def isolation(counts: UnitCounts) -> float:
    """Isolation ``xPx = sum_i (m_i/M)(m_i/t_i)``."""
    if is_degenerate(counts):
        return float("nan")
    return float(
        ((counts.m / counts.minority_total) * counts.unit_proportions).sum()
    )


def interaction(counts: UnitCounts) -> float:
    """Interaction ``xPy = sum_i (m_i/M)((t_i-m_i)/t_i)``."""
    if is_degenerate(counts):
        return float("nan")
    majority_prop = (counts.t - counts.m) / counts.t
    return float(((counts.m / counts.minority_total) * majority_prop).sum())


def atkinson(counts: UnitCounts) -> float:
    """Atkinson ``A(b)`` with inequality aversion ``b = 1/2``."""
    if is_degenerate(counts):
        return float("nan")
    b = 0.5
    p = counts.unit_proportions
    p_overall = counts.proportion
    terms = np.power(1 - p, 1 - b) * np.power(p, b) * counts.t
    inner = float(terms.sum()) / (p_overall * counts.total)
    # np.power, not the Python ``**``: NumPy's pow special-cases small
    # integral exponents (here 2.0 -> x*x) while libm's pow does not,
    # and the kernel's array power takes NumPy's path.
    return float(
        1.0
        - (p_overall / (1 - p_overall))
        * np.power(np.float64(inner), 1.0 / (1.0 - b))
    )


#: The scalar reference of each index, by registry name.  A test that
#: registers a custom index adds its reference here (``monkeypatch``).
SCALAR_INDEXES: "dict[str, Callable[[UnitCounts], float]]" = {
    "D": dissimilarity,
    "G": gini,
    "H": information,
    "Iso": isolation,
    "Int": interaction,
    "A": atkinson,
}


def gini_naive(counts: UnitCounts) -> float:
    """O(n^2) Gini segregation index straight from the double sum."""
    if is_degenerate(counts):
        return float("nan")
    t, m = counts.t, counts.m
    total, p_overall = counts.total, counts.proportion
    p = counts.unit_proportions
    num = 0.0
    for i in range(len(t)):
        for j in range(len(t)):
            num += t[i] * t[j] * abs(p[i] - p[j])
    return num / (2 * total * total * p_overall * (1 - p_overall))


def dissimilarity_naive(counts: UnitCounts) -> float:
    """Definition-level dissimilarity."""
    if is_degenerate(counts):
        return float("nan")
    total_minority = counts.minority_total
    total_majority = counts.total - counts.minority_total
    acc = 0.0
    for t_i, m_i in zip(counts.t, counts.m):
        acc += abs(m_i / total_minority - (t_i - m_i) / total_majority)
    return acc / 2.0


def bootstrap_reference(
    func: "Callable[[UnitCounts], float]",
    counts: UnitCounts,
    n_boot: int,
    seed: int,
) -> BootstrapResult:
    """:func:`~repro.indexes.inference.bootstrap_ci` as a loop: one
    binomial draw and one scalar evaluation per replica, 95% interval."""
    rng = np.random.default_rng(seed)
    estimate = func(counts)
    t = counts.t.astype(np.int64)
    p = counts.unit_proportions
    replicas = np.array(
        [func(UnitCounts(t, rng.binomial(t, p))) for _ in range(n_boot)]
    )
    replicas = replicas[~np.isnan(replicas)]
    if len(replicas) == 0:
        return BootstrapResult(estimate, float("nan"), float("nan"),
                               float("nan"), n_boot)
    low, high = np.quantile(replicas, [0.05 / 2, 1 - 0.05 / 2])
    std = float(replicas.std(ddof=1)) if len(replicas) > 1 else 0.0
    return BootstrapResult(estimate, float(low), float(high), std, n_boot)


def randomization_reference(
    func: "Callable[[UnitCounts], float]",
    counts: UnitCounts,
    n_permutations: int,
    seed: int,
) -> RandomizationResult:
    """:func:`~repro.indexes.inference.randomization_test` as a loop:
    one hypergeometric split and one scalar evaluation per draw."""
    rng = np.random.default_rng(seed)
    observed = func(counts)
    t = counts.t.astype(np.int64)
    total, m_total = int(counts.total), int(counts.minority_total)
    null_values = np.array([
        func(UnitCounts(t, _hypergeometric_split(t, total, m_total, rng)))
        for _ in range(n_permutations)
    ])
    valid = null_values[~np.isnan(null_values)]
    if len(valid) == 0 or np.isnan(observed):
        return RandomizationResult(observed, float("nan"), float("nan"),
                                   float("nan"), n_permutations)
    std = float(valid.std(ddof=1)) if len(valid) > 1 else 0.0
    p = (1 + int((valid >= observed - 1e-12).sum())) / (len(valid) + 1)
    return RandomizationResult(observed, float(valid.mean()), std, float(p),
                               n_permutations)


def frequent_itemsets_bruteforce(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
) -> dict[frozenset[int], int]:
    """All frequent itemsets by trying every combination of present items."""
    universe = sorted(
        set(items) if items is not None else range(db.n_items)
    )
    rows = [frozenset(r) for r in rows_of(db)]
    longest = max_len if max_len is not None else len(universe)
    out: dict[frozenset[int], int] = {}
    for size in range(1, longest + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            support = sum(1 for row in rows if candidate <= row)
            if support >= minsup:
                out[candidate] = support
    return out


def closed_bruteforce(
    supports: dict[frozenset[int], int]
) -> dict[frozenset[int], int]:
    """Closed itemsets by checking every strict superset in the dict."""
    out = {}
    for itemset, support in supports.items():
        absorbed = any(
            other > itemset and other_support == support
            for other, other_support in supports.items()
        )
        if not absorbed:
            out[itemset] = support
    return out


def closure_of(
    db: TransactionDatabase,
    cover: "Cover",
    candidate_items: "list[int] | None" = None,
) -> frozenset[int]:
    """The closure of a cover: all items present in *every* covered row.

    For an itemset X with cover c, ``closure_of(db, c)`` is the unique
    maximal itemset with the same cover — the canonical representative the
    closed-itemset cube stores.  ``cover`` may also be a dense boolean
    array; it is packed first.
    """
    covers = db.covers()
    cover = as_cover(cover)
    support = cover.support()
    ids = candidate_items if candidate_items is not None else range(db.n_items)
    closed = [
        i for i in ids if (cover & covers[i]).support() == support
    ]
    return frozenset(closed)


def verify_closed(
    db: TransactionDatabase, itemsets: "list[frozenset[int]]"
) -> dict[frozenset[int], bool]:
    """Ground-truth closedness via the closure operator."""
    result = {}
    for itemset in itemsets:
        cover = db.cover_of(itemset)
        result[itemset] = closure_of(db, cover) == itemset
    return result


def closed_under_caps(
    db: TransactionDatabase,
    itemset: "frozenset[int]",
    cover: "Cover | None" = None,
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> bool:
    """Scalar capped closedness via the closure operator.

    ``itemset`` is closed under the caps when no item outside it, of a
    kind that still has cap room, occurs in every row of its cover.
    """
    if not itemset:
        return True
    if cover is None:
        cover = db.cover_of(itemset)
    dictionary = db.dictionary
    sa_part, ca_part = dictionary.split(itemset)
    eligible: "list[int]" = []
    if max_sa is None or len(sa_part) < max_sa:
        eligible.extend(dictionary.sa_ids)
    if max_ca is None or len(ca_part) < max_ca:
        eligible.extend(dictionary.ca_ids)
    eligible = [i for i in eligible if i not in itemset]
    if not eligible:
        return True
    return not closure_of(db, cover, candidate_items=eligible)


def projection_bruteforce(
    n_left: int, n_right: int, edges: "list[tuple[int, int]]"
) -> dict[tuple[int, int], int]:
    """Group-side projection weights by counting shared members directly."""
    members: dict[int, set[int]] = {g: set() for g in range(n_right)}
    for left, right in edges:
        members[right].add(left)
    weights = {}
    for g1 in range(n_right):
        for g2 in range(g1 + 1, n_right):
            shared = len(members[g1] & members[g2])
            if shared:
                weights[(g1, g2)] = shared
    return weights


def unit_counts_bruteforce(
    units: np.ndarray, minority_mask: np.ndarray
) -> UnitCounts:
    """Per-unit counts by explicit looping."""
    n_units = int(units.max()) + 1 if len(units) else 0
    t = np.zeros(n_units, dtype=np.int64)
    m = np.zeros(n_units, dtype=np.int64)
    for unit, is_minority in zip(units, minority_mask):
        t[unit] += 1
        if is_minority:
            m[unit] += 1
    return UnitCounts(t, m)


def unit_counts_many(
    db: TransactionDatabase, covers: "Iterable[Cover | np.ndarray]"
) -> np.ndarray:
    """Per-unit counts of many covers, ``(len(covers), n_units)`` int64.

    The fill's counting path before the popcount kernel: each cover is
    unpacked, gathers the unit labels of its covered rows, and one flat
    ``bincount`` over combined ``(cover, unit)`` keys counts them all.
    """
    if db.units is None:
        raise MiningError("transaction database has no unit labels")
    n_units = db.n_units
    labels = []
    for cover in covers:
        flags = (
            cover.to_bools() if isinstance(cover, Cover)
            else np.asarray(cover, dtype=bool)
        )
        if len(flags) != len(db):
            raise MiningError(
                f"cover of {len(flags)} transactions does not match "
                f"database of {len(db)}"
            )
        labels.append(db.units[flags])
    k = len(labels)
    if k == 0:
        return np.zeros((0, n_units), dtype=np.int64)
    lengths = np.fromiter(map(len, labels), dtype=np.int64, count=k)
    keys = np.repeat(np.arange(k) * n_units, lengths) + np.concatenate(labels)
    return np.bincount(keys, minlength=k * n_units).reshape(k, n_units)


def dense_item_covers(db: TransactionDatabase) -> "list[np.ndarray]":
    """One dense boolean cover per item, read off the CSR arrays."""
    covers = [np.zeros(len(db), dtype=bool) for _ in range(db.n_items)]
    indptr, indices = db._indptr, db._indices
    for t in range(len(db)):
        for item in indices[indptr[t]:indptr[t + 1]].tolist():
            covers[item][t] = True
    return covers


# ----------------------------------------------------------------------
# FP-growth: eclat's reference on inputs too large for brute force
# ----------------------------------------------------------------------
#
# The classic Han et al. algorithm: compress the database into a prefix
# tree ordered by descending item frequency, then recursively mine
# conditional trees.  It shares no code with eclat, so agreement pins
# both down.

Itemset = frozenset[int]


class _Node:
    """One FP-tree node."""

    __slots__ = ("item", "count", "parent", "children", "next_link")

    def __init__(self, item: int, parent: "_Node | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[int, _Node] = {}
        self.next_link: _Node | None = None


class FPTree:
    """An FP-tree with a header table of per-item node chains."""

    def __init__(self) -> None:
        self.root = _Node(-1, None)
        self.header: dict[int, _Node] = {}
        self.counts: dict[int, int] = {}

    def insert(self, ordered_items: Iterable[int], count: int) -> None:
        """Insert one (ordered) transaction with multiplicity ``count``."""
        node = self.root
        for item in ordered_items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, node)
                node.children[item] = child
                child.next_link = self.header.get(item)
                self.header[item] = child
            child.count += count
            self.counts[item] = self.counts.get(item, 0) + count
            node = child

    def is_single_path(self) -> "list[tuple[int, int]] | None":
        """If the tree is one chain, return its [(item, count)] else None."""
        path: list[tuple[int, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            node = next(iter(node.children.values()))
            path.append((node.item, node.count))
        return path

    def prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base of ``item``: (path-to-root, count) pairs."""
        paths = []
        node = self.header.get(item)
        while node is not None:
            path: list[int] = []
            parent = node.parent
            while parent is not None and parent.item != -1:
                path.append(parent.item)
                parent = parent.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
            node = node.next_link
        return paths


def _build_tree(
    transactions: Iterable[tuple[list[int], int]], minsup: int
) -> tuple[FPTree, list[int]]:
    """Build an FP-tree keeping only items frequent within ``transactions``."""
    freq: dict[int, int] = {}
    materialised = []
    for items, count in transactions:
        materialised.append((items, count))
        for i in items:
            freq[i] = freq.get(i, 0) + count
    keep = {i for i, c in freq.items() if c >= minsup}
    # Descending frequency, ties by item id for determinism.
    order = sorted(keep, key=lambda i: (-freq[i], i))
    rank = {item: r for r, item in enumerate(order)}
    tree = FPTree()
    for items, count in materialised:
        filtered = sorted((i for i in items if i in keep), key=rank.__getitem__)
        if filtered:
            tree.insert(filtered, count)
    return tree, order


def _combinations_of_path(
    path: list[tuple[int, int]], suffix: tuple[int, ...], minsup: int,
    max_len: "int | None", out: dict[Itemset, int]
) -> None:
    """Enumerate all subsets of a single path (with min count along it)."""

    def recurse(idx: int, chosen: tuple[int, ...], min_count: int) -> None:
        for k in range(idx, len(path)):
            item, count = path[k]
            new_count = min(min_count, count)
            if new_count < minsup:
                continue
            new_chosen = chosen + (item,)
            itemset = frozenset(new_chosen + suffix)
            if max_len is None or len(itemset) <= max_len:
                out[itemset] = new_count
                if max_len is None or len(itemset) < max_len:
                    recurse(k + 1, new_chosen, new_count)

    recurse(0, (), 1 << 62)


def _mine_tree(
    tree: FPTree,
    order: list[int],
    suffix: tuple[int, ...],
    minsup: int,
    max_len: "int | None",
    out: dict[Itemset, int],
) -> None:
    if max_len is not None and len(suffix) >= max_len:
        return
    single = tree.is_single_path()
    if single is not None:
        _combinations_of_path(single, suffix, minsup, max_len, out)
        return
    # Bottom-up over the header (ascending frequency).
    for item in reversed(order):
        support = tree.counts.get(item, 0)
        if support < minsup:
            continue
        new_suffix = (item,) + suffix
        out[frozenset(new_suffix)] = support
        if max_len is not None and len(new_suffix) >= max_len:
            continue
        conditional = tree.prefix_paths(item)
        if not conditional:
            continue
        sub_tree, sub_order = _build_tree(conditional, minsup)
        if sub_order:
            _mine_tree(sub_tree, sub_order, new_suffix, minsup, max_len, out)


def mine_fpgrowth(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
) -> dict[Itemset, int]:
    """Mine all frequent itemsets with absolute support >= ``minsup``."""
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    allowed = set(items) if items is not None else None
    transactions = []
    for row in rows_of(db):
        filtered = [i for i in row if allowed is None or i in allowed]
        if filtered:
            transactions.append((filtered, 1))
    tree, order = _build_tree(transactions, minsup)
    out: dict[Itemset, int] = {}
    if order:
        _mine_tree(tree, order, (), minsup, max_len, out)
    return out


# ----------------------------------------------------------------------
# The recursive eclat DFS: the level-wise kernel's order and bit reference
# ----------------------------------------------------------------------
#
# The miner the level-wise kernel replaced: one CoverSet AND per node,
# each node extended by every later frequent 1-item whose kind has cap
# room.  Its preorder is the emission order the kernel must reproduce,
# and its covers the bits.  The roots are the library's
# ``frequent_triples``, the shared preparation step.

#: Emission callback: ``record(sa_items, ca_items, cover, support)``.
Record = "Callable[[tuple[int, ...], tuple[int, ...], Cover, int], None]"


def _dfs_typed(
    sa: "tuple[int, ...]",
    ca: "tuple[int, ...]",
    prefix_cover: Cover,
    tail: "list[tuple[int, Cover, int]]",
    sa_set: "frozenset[int]",
    minsup: int,
    max_sa: "int | None",
    max_ca: "int | None",
    record: "Record",
) -> None:
    """The eclat DFS over one conditional tail.

    The prefix is carried split into its SA items ``sa`` and its CA
    items ``ca``.  An item of ``tail`` is an SA item when it is in
    ``sa_set``, else a CA item; the per-kind caps ``max_sa`` /
    ``max_ca`` are enforced mid-search, so a subtree past a cap is
    never entered, and every frequent node is recorded already split.
    """
    sa_room = max_sa is None or len(sa) < max_sa
    ca_room = max_ca is None or len(ca) < max_ca
    for pos, (item, item_cover, _) in enumerate(tail):
        if item in sa_set:
            if not sa_room:
                continue
            next_sa, next_ca = sa + (item,), ca
        else:
            if not ca_room:
                continue
            next_sa, next_ca = sa, ca + (item,)
        cover = prefix_cover & item_cover
        support = cover.support()
        if support < minsup:
            continue
        record(next_sa, next_ca, cover, support)
        _dfs_typed(next_sa, next_ca, cover, tail[pos + 1:], sa_set, minsup,
                   max_sa, max_ca, record)


def mine_eclat_reference(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """``mine_eclat`` as the recursive DFS: every item of one kind."""
    from repro.itemsets.eclat import frequent_triples

    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(db, minsup, items=items, within=within)
    out: "dict[Itemset, int] | dict[Itemset, Cover]" = {}

    def record(sa, ca, cover, support):
        out[frozenset(ca)] = cover if with_covers else support

    root = db.full_cover() if within is None else within
    _dfs_typed((), (), root, frequent, frozenset(), minsup, None, max_len,
               record)
    return out


def mine_eclat_typed_reference(
    db: TransactionDatabase,
    minsup: int,
    sa_ids: "list[int]",
    ca_ids: "list[int]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> "dict[tuple[Itemset, Itemset], Cover]":
    """``mine_eclat_typed`` as the recursive DFS: cell key -> cover,
    the empty key's all-true cover first."""
    from repro.itemsets.eclat import frequent_triples

    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(
        db, minsup, items=list(sa_ids) + list(ca_ids)
    )
    full_cover = db.full_cover()
    out: "dict[tuple[Itemset, Itemset], Cover]" = {
        (frozenset(), frozenset()): full_cover
    }

    def record(sa, ca, cover, support):
        out[(frozenset(sa), frozenset(ca))] = cover

    _dfs_typed((), (), full_cover, frequent, frozenset(sa_ids), minsup,
               max_sa, max_ca, record)
    return out


def sibling_join_count(
    keys: "list[tuple[Itemset, Itemset]]",
    max_sa: "int | None",
    max_ca: "int | None",
) -> "tuple[int, int]":
    """``(roots, joins)`` a level-wise sibling join makes over a lattice.

    ``keys`` are a typed reference mine's keys in its preorder, the
    root first.  The roots are the first-level nodes; a join is a pair
    of frequent siblings ``(x, y)``, ``x`` first in root order, whose
    ``y``-item's kind still has cap room in ``x``.  A node's parent is
    the node without its item of latest root position.
    """
    position = {}
    for sa, ca in keys:
        if len(sa) + len(ca) == 1:
            position[next(iter(sa | ca))] = len(position)
    children: "dict[Itemset, list[tuple[int, int, int]]]" = {}
    for sa, ca in keys[1:]:
        last = max(sa | ca, key=position.__getitem__)
        children.setdefault((sa | ca) - {last}, []).append(
            (position[last], len(sa), len(ca))
        )
    sa_items = {item for sa, _ in keys for item in sa}
    is_sa = {pos: item in sa_items for item, pos in position.items()}
    joins = 0
    for siblings in children.values():
        siblings.sort()
        for i, (_, n_sa, n_ca) in enumerate(siblings):
            for pos_y, _, _ in siblings[i + 1:]:
                if is_sa[pos_y]:
                    joins += max_sa is None or n_sa < max_sa
                else:
                    joins += max_ca is None or n_ca < max_ca
    return len(position), joins


# ----------------------------------------------------------------------
# Cube references: full enumeration and the one-cell-at-a-time fill
# ----------------------------------------------------------------------


class NaiveCubeBuilder:
    """Full-enumeration cube builder (oracle / baseline).

    Accepts the same thresholds as
    :class:`~repro.cube.builder.SegregationDataCubeBuilder` and produces
    a cube with *identical* cells (property-tested); only the search
    strategy differs: every combination of up to ``max_sa_items`` SA
    items and ``max_ca_items`` CA items is tried, and supports are
    computed by intersecting single-item covers — no Apriori pruning, no
    sharing of partial intersections.
    """

    def __init__(
        self,
        indexes: "list[str] | None" = None,
        min_population: "int | float" = 20,
        min_minority: "int | float" = 5,
        max_sa_items: "int | None" = None,
        max_ca_items: "int | None" = None,
    ):
        # Reuse the cell-filling logic so only enumeration differs.
        self._inner = SegregationDataCubeBuilder(
            indexes=indexes,
            min_population=min_population,
            min_minority=min_minority,
            max_sa_items=max_sa_items,
            max_ca_items=max_ca_items,
            mode="all",
        )

    def build(self, table: Table, schema: Schema) -> SegregationCube:
        """Encode and enumerate the full coordinate space."""
        if not schema.sa_names:
            raise CubeError("schema declares no segregation attributes")
        db = encode_reference(table, schema)
        if len(db) == 0:
            raise CubeError("finalTable is empty")
        return self.build_from_transactions(db)

    def build_from_transactions(self, db: TransactionDatabase) -> SegregationCube:
        """Enumerate every coordinate combination and scan its cover."""
        if db.units is None:
            raise CubeError("transaction database has no unit labels")
        started = time.perf_counter()
        inner = self._inner
        minsup_pop = absolute_minsup(inner.min_population, db.n_active)
        minsup_min = absolute_minsup(inner.min_minority, db.n_active)

        sa_ids = db.dictionary.sa_ids
        ca_ids = db.dictionary.ca_ids
        max_sa = inner.max_sa_items if inner.max_sa_items is not None else len(sa_ids)
        max_ca = inner.max_ca_items if inner.max_ca_items is not None else len(ca_ids)
        covers = db.covers()
        full = db.full_cover()

        cells: dict[CellKey, CellStats] = {}
        n_candidates = 0
        for ca_size in range(0, max_ca + 1):
            for ca_combo in combinations(ca_ids, ca_size):
                context_cover = full
                for item in ca_combo:
                    context_cover = context_cover & covers[item]
                tvec = unit_counts_many(db, [context_cover])[0]
                if int(tvec.sum()) < minsup_pop:
                    n_candidates += 1
                    continue
                for sa_size in range(0, max_sa + 1):
                    for sa_combo in combinations(sa_ids, sa_size):
                        n_candidates += 1
                        minority_cover = context_cover
                        for item in sa_combo:
                            minority_cover = minority_cover & covers[item]
                        key = (frozenset(sa_combo), frozenset(ca_combo))
                        stats = make_cell(
                            inner.indexes, key, minority_cover, tvec, db,
                            minsup_pop, minsup_min,
                        )
                        if stats is not None:
                            cells[key] = stats

        metadata = CubeMetadata(
            index_names=[spec.name for spec in inner.indexes],
            min_population=minsup_pop,
            min_minority=minsup_min,
            n_rows=db.n_active,
            n_units=db.n_units,
            mode="naive",
            backend="enumeration",
            build_seconds=time.perf_counter() - started,
            extra={"n_candidates": n_candidates},
        )
        return SegregationCube(cells, db.dictionary, metadata)


def make_cell(
    specs: "list[IndexSpec]",
    key: CellKey,
    minority_cover: Cover,
    context_tvec: np.ndarray,
    db: TransactionDatabase,
    minsup_pop: int,
    minsup_min: int,
) -> "CellStats | None":
    """Fill one cell from covers; None when below thresholds.

    The per-cell reference: the minority is counted by its own
    ``np.bincount`` (:func:`unit_counts_many`) and each index by its
    scalar formula (:data:`SCALAR_INDEXES`), sharing no kernel with the
    columnar fill, the parallel workers or the closed-mode resolver.
    """
    population = int(context_tvec.sum())
    if population < minsup_pop:
        return None
    n_units = int((context_tvec > 0).sum())
    sa_part, _ = key
    if not sa_part:
        # Context-only navigation cell: indexes undefined by design.
        return CellStats(
            key=key,
            population=population,
            minority=population,
            n_units=n_units,
            indexes={spec.name: float("nan") for spec in specs},
        )
    mvec = unit_counts_many(db, [minority_cover])[0]
    minority = int(mvec.sum())
    if minority < minsup_min:
        return None
    counts = UnitCounts(context_tvec, mvec)
    return CellStats(
        key=key,
        population=population,
        minority=minority,
        n_units=n_units,
        indexes={
            spec.name: SCALAR_INDEXES[spec.name](counts) for spec in specs
        },
    )


def fill_percell(
    builder: SegregationDataCubeBuilder,
    db: TransactionDatabase,
    mined: MinedCoordinates,
) -> "dict[CellKey, CellStats]":
    """Fill one scalar :func:`make_cell` per candidate, in mining order.

    The same cells, in the same order, with the same bits the columnar
    fill must produce from the same mined coordinates.  Each cell's
    cover is its itemset's ``db.cover_of``, so the fill shares nothing
    with the miner but the keys.
    """
    cells: dict[CellKey, CellStats] = {}
    for key in builder._candidates(mined):
        stats = make_cell(
            builder.indexes, key, db.cover_of(key[0] | key[1]),
            mined.context_tvecs[key[1]], db,
            mined.minsup_pop, mined.minsup_min,
        )
        if stats is not None:
            cells[stats.key] = stats
    return cells


def percell_cube(
    builder: SegregationDataCubeBuilder, table: Table, schema: Schema
) -> SegregationCube:
    """The builder's cube, mined as ``builder`` does, filled per cell."""
    db = encode_reference(table, schema)
    mined = builder.mine_coordinates(db)
    cells = fill_percell(builder, db, mined)
    metadata = CubeMetadata(
        index_names=[spec.name for spec in builder.indexes],
        min_population=mined.minsup_pop,
        min_minority=mined.minsup_min,
        n_rows=db.n_active,
        n_units=db.n_units,
        mode=builder.mode,
        backend="eclat",
    )
    return SegregationCube(cells, db.dictionary, metadata)


# ----------------------------------------------------------------------
# Graph references: Python-set projection and deque BFS clustering
# ----------------------------------------------------------------------
#
# These read graphs only through their arrays (``edge_arrays()``,
# ``membership_arrays()``, ``NodeAttributeTable.codes()``) and build
# their own neighbour lists and sets in Python, so they share no CSR
# or traversal code with the engine they check.


def graph_of(
    n_nodes: int, edges: "Iterable[tuple[int, int, float]]"
) -> Graph:
    """A :class:`Graph` from ``(u, v, weight)`` triples."""
    edges = list(edges)
    u, v, w = zip(*edges) if edges else ((), (), ())
    return Graph.from_edge_arrays(n_nodes, u, v, w)


def edge_weights(graph: Graph) -> "dict[tuple[int, int], float]":
    """``{(u, v): weight}`` with ``u < v``, in edge-array order."""
    u, v, w = (array.tolist() for array in graph.edge_arrays())
    return {(a, b): c for a, b, c in zip(u, v, w)}


def neighbour_lists(graph: Graph) -> "list[list[int]]":
    """Each node's neighbours, ascending, built in Python from the edges."""
    adjacency: "list[list[int]]" = [[] for _ in range(graph.n_nodes)]
    for a, b in edge_weights(graph):
        adjacency[a].append(b)
        adjacency[b].append(a)
    return [sorted(row) for row in adjacency]


def left_adjacency_sets(bipartite: BipartiteGraph) -> "list[set[int]]":
    """Set representation: one Python set of groups per individual."""
    adjacency: "list[set[int]]" = [set() for _ in range(bipartite.n_left)]
    lefts, rights = bipartite.membership_arrays()
    for left, right in zip(lefts.tolist(), rights.tolist()):
        adjacency[left].add(right)
    return adjacency


def right_adjacency_sets(bipartite: BipartiteGraph) -> "list[set[int]]":
    """Set representation: one Python set of members per group."""
    adjacency: "list[set[int]]" = [set() for _ in range(bipartite.n_right)]
    lefts, rights = bipartite.membership_arrays()
    for left, right in zip(lefts.tolist(), rights.tolist()):
        adjacency[right].add(left)
    return adjacency


def _project_sets(
    adjacency: "list[set[int]]",
    n_nodes: int,
    min_shared: int,
    max_degree: "int | None",
) -> ProjectionResult:
    """The original pair-dict projection over a list of neighbour sets."""
    if min_shared < 1:
        raise GraphError("min_shared must be >= 1")
    weights: dict[tuple[int, int], int] = {}
    skipped: list[int] = []
    for source, neighbours in enumerate(adjacency):
        if max_degree is not None and len(neighbours) > max_degree:
            skipped.append(source)
            continue
        ordered = sorted(neighbours)
        for i, g1 in enumerate(ordered):
            for g2 in ordered[i + 1:]:
                key = (g1, g2)
                weights[key] = weights.get(key, 0) + 1
    kept = [(g1, g2, float(shared))
            for (g1, g2), shared in weights.items() if shared >= min_shared]
    touched = {node for g1, g2, _ in kept for node in (g1, g2)}
    isolated = [node for node in range(n_nodes) if node not in touched]
    return ProjectionResult(graph_of(n_nodes, kept), isolated, skipped)


def project_onto_groups_legacy(
    bipartite: BipartiteGraph,
    min_shared: int = 1,
    max_left_degree: "int | None" = None,
    adjacency: "list[set[int]] | None" = None,
) -> ProjectionResult:
    """Reference group projection (per-individual sorted pair loops).

    ``adjacency`` lets benchmarks pre-build the set representation so
    the timed region covers only the algorithm, not the format change.
    """
    if adjacency is None:
        adjacency = left_adjacency_sets(bipartite)
    return _project_sets(
        adjacency, bipartite.n_right, min_shared, max_left_degree
    )


def project_onto_individuals_legacy(
    bipartite: BipartiteGraph,
    min_shared: int = 1,
    max_right_degree: "int | None" = None,
    adjacency: "list[set[int]] | None" = None,
) -> ProjectionResult:
    """Reference individual projection (per-group sorted pair loops)."""
    if adjacency is None:
        adjacency = right_adjacency_sets(bipartite)
    return _project_sets(
        adjacency, bipartite.n_left, min_shared, max_right_degree
    )


def connected_components_legacy(graph: Graph) -> Clustering:
    """Reference BFS component labelling (deque + per-node loops)."""
    adjacency = neighbour_lists(graph)
    labels = np.full(graph.n_nodes, -1, dtype=np.int64)
    next_label = 0
    for start in range(graph.n_nodes):
        if labels[start] != -1:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if labels[v] == -1:
                    labels[v] = next_label
                    queue.append(v)
        next_label += 1
    return Clustering(labels, next_label, "connected-components")


def threshold_components_legacy(graph: Graph, min_weight: float) -> Clustering:
    """Reference giant-component thresholding (graph rebuild + BFS)."""
    if min_weight < 0:
        raise GraphError("min_weight must be non-negative")
    base = connected_components_legacy(graph)
    giant = base.giant()
    in_giant = base.labels == giant
    kept = [
        (u, v, w) for (u, v), w in edge_weights(graph).items()
        if not (in_giant[u] and in_giant[v] and w < min_weight)
    ]
    result = connected_components_legacy(graph_of(graph.n_nodes, kept))
    return Clustering(result.labels, result.n_clusters,
                      f"threshold-components(w>={min_weight:g})")


def threshold_profile_legacy(
    graph: Graph, thresholds: "list[float]"
) -> "list[tuple[float, int, int]]":
    """Reference sweep: one full threshold_components run per threshold."""
    rows = []
    for threshold in thresholds:
        clustering = threshold_components_legacy(graph, threshold)
        sizes = clustering.sizes()
        rows.append((float(threshold), clustering.n_clusters,
                     int(sizes.max()) if len(sizes) else 0))
    return rows


def stoc_clustering_legacy(
    graph: Graph,
    attributes: "NodeAttributeTable | None" = None,
    tau: float = 0.5,
    alpha: float = 0.5,
    horizon: int = 2,
    seed_order: str = "random",
    seed: "int | None" = 0,
) -> Clustering:
    """Reference SToC: per-ball deque BFS with Python set bookkeeping."""
    if not 0 <= tau <= 1:
        raise GraphError(f"tau must be in [0, 1], got {tau}")
    if not 0 <= alpha <= 1:
        raise GraphError(f"alpha must be in [0, 1], got {alpha}")
    if horizon < 1:
        raise GraphError(f"horizon must be >= 1, got {horizon}")
    if attributes is not None and attributes.n_nodes != graph.n_nodes:
        raise GraphError("attribute table size does not match graph")

    n = graph.n_nodes
    adjacency = neighbour_lists(graph)
    codes = (
        [attributes.codes(name).tolist() for name in attributes.names]
        if attributes is not None else []
    )
    if seed_order == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
    elif seed_order == "degree":
        degrees = np.array([len(row) for row in adjacency], dtype=np.int64)
        order = np.argsort(-degrees, kind="stable")
    else:
        raise GraphError(f"unknown seed_order {seed_order!r}")

    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for seed_node in order:
        seed_node = int(seed_node)
        if labels[seed_node] != -1:
            continue
        ball = _tau_ball_legacy(adjacency, codes, seed_node, labels, tau,
                                alpha, horizon)
        for node in ball:
            labels[node] = next_label
        next_label += 1
    return Clustering(
        labels, next_label,
        f"stoc(tau={tau:g},alpha={alpha:g},h={horizon})"
    )


def _tau_ball_legacy(
    adjacency: "list[list[int]]",
    codes: "list[list[int]]",
    seed_node: int,
    labels: np.ndarray,
    tau: float,
    alpha: float,
    horizon: int,
) -> "list[int]":
    ball = [seed_node]
    visited = {seed_node}
    queue: "deque[tuple[int, int]]" = deque([(seed_node, 0)])
    while queue:
        u, depth = queue.popleft()
        if depth >= horizon:
            continue
        for v in adjacency[u]:
            if v in visited or labels[v] != -1:
                continue
            visited.add(v)
            d_topo = (depth + 1) / horizon
            if codes:
                matches = sum(
                    1 for column in codes if column[seed_node] == column[v]
                )
                d_attr = 1.0 - matches / len(codes)
            else:
                d_attr = 0.0
            distance = alpha * d_topo + (1 - alpha) * d_attr
            if distance <= tau:
                ball.append(v)
                queue.append((v, depth + 1))
    return ball


# ----------------------------------------------------------------------
# Timelines: the per-row series, and what a walk keeps alive
# ----------------------------------------------------------------------


def timeline_series_reference(timeline, min_minority: int = 0
                              ) -> "list[CellSeries]":
    """:func:`repro.cube.compare.timeline_series`, decoding every row.

    Every materialised row of every date decodes its key and aligns it
    on its own, as the function did before it memoised aligned keys.
    """
    dates: "list[int]" = []
    per_key: "dict[object, dict[int, tuple[float, int]]]" = {}
    for date, cube in timeline:
        dates.append(int(date))
        table = cube.table
        col = table.columns.get("D")
        if col is None:
            continue
        ok = ~np.isnan(col) & (table.minority >= min_minority)
        for i in np.flatnonzero(ok):
            aligned = _aligned_key(cube, table.keys[i])
            per_key.setdefault(aligned, {})[int(date)] = (
                float(col[i]), int(table.population[i])
            )
    out: "list[CellSeries]" = []
    for aligned, by_date in per_key.items():
        if len(by_date) < 2:
            continue
        out.append(CellSeries(
            description=describe_aligned(aligned),
            dates=tuple(dates),
            values=tuple(
                by_date[d][0] if d in by_date else float("nan")
                for d in dates
            ),
            populations=tuple(
                by_date[d][1] if d in by_date else 0 for d in dates
            ),
        ))
    out.sort(key=lambda s: (
        -s.spread if not math.isnan(s.spread) else float("inf"),
        s.description,
    ))
    return out


def series_values(series: "list[CellSeries]") -> "list[tuple]":
    """Series as comparable tuples: NaN becomes None, since ``nan !=
    nan`` makes two equal series compare unequal."""
    return [
        (s.description, s.dates,
         tuple(None if math.isnan(v) else v for v in s.values),
         s.populations)
        for s in series
    ]


#: Objects whose references :func:`reachable_cubes` does not follow:
#: what they reach is shared code, not what an instance keeps alive.
_SHARED = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType)


def reachable_cubes(root: object) -> "list[SegregationCube]":
    """Every :class:`SegregationCube` reachable from ``root``.

    A walk of ``gc.get_referents`` through instance state: containers,
    instances and their attributes, never into classes, modules or
    functions.
    """
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, SegregationCube):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _SHARED):
                seen.add(id(ref))
                stack.append(ref)
    return found
