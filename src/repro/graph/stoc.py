"""SToC: linear-time clustering of very large attributed graphs.

Reimplementation of the algorithm the paper lists as its third
GraphClustering method (Baroni, Conte, Patrignani, Ruggieri,
"Efficiently clustering very large attributed graphs", ASONAM 2017).

SToC grows clusters from seeds: it repeatedly pops an unassigned seed
node, collects the seed's *τ-close ball* — unassigned nodes reachable
through already-accepted nodes whose combined topological+attribute
distance from the seed is at most ``tau`` — and emits the ball as one
cluster.  The combined distance is the convex combination

    d(s, v) = alpha * d_topo(s, v) + (1 - alpha) * d_attr(s, v)

with ``d_topo`` the BFS hop distance normalised by the ball horizon and
``d_attr`` the Hamming distance over categorical attributes (the
published algorithm uses Jaccard over set-valued attributes; for the
single-valued company attributes of the case studies the two coincide).
Each node is visited a constant number of times, so the total cost is
O(nodes + edges) — the property that lets SCube scale to millions of
companies.

Growth is batched across **balls**, not just across levels: up to 32
pending seeds grow speculatively at once on one stacked ``(node,
owner)`` frontier — one CSR gather, one ``(owner, node)`` dedup and one
Hamming pass per level serve every ball of the batch, with a per-node
``uint64`` bitmask (bit *b* = visited by ball *b*) replacing the
per-ball visited set.  Balls are then *committed in seed order*: a ball
whose accepted nodes were claimed by an earlier ball of the same batch
is regrown alone against the true label state (the exact
level-synchronous single-ball grower), and a seed claimed by an earlier
ball is skipped exactly as the sequential loop would skip it.  Rejected
candidates shared between balls need no such care — a rejected node
leaves no cross-ball state, and a node labelled by an earlier ball is
barred from candidacy just as a visited-and-rejected node is.  The
committed labels are therefore **exactly identical** to the per-ball
deque BFS (kept as the reference in ``tests/oracles.py``) for every seed
order, which the property tests assert.

The reference implementation samples seeds randomly; we default to a
seeded RNG for reproducibility and also expose deterministic
max-degree-first seeding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.attributes import NodeAttributeTable
from repro.graph.components import Clustering, gather_neighbors
from repro.graph.graph import Graph

#: Balls grown concurrently per speculative batch — one bit of the
#: per-node ``uint64`` visited mask each.  32 balances the two failure
#: modes measured on the E22 projection and community-structured
#: graphs: larger batches amortise per-level overhead but waste more
#: speculative growth (and regrows) when seeds collide inside the same
#: tight cluster, smaller ones do the reverse; 32 beat both 16 and 64
#: on every workload's worst case.
_BALL_BATCH = 32


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int arrays via sort + adjacent-diff.

    The frontier dedup runs once per BFS level on a few thousand keys;
    numpy's hash-based unique has per-call overhead that dominates at
    that size, while a sort keeps the whole pass in the small-array
    fast path.  Output is sorted ascending, exactly like ``np.unique``.
    """
    if len(values) <= 1:
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _grow_ball(
    indptr: np.ndarray,
    indices: np.ndarray,
    codes: "np.ndarray | None",
    n_attrs: int,
    labels: np.ndarray,
    visited_epoch: np.ndarray,
    epoch: int,
    seed_node: int,
    tau: float,
    alpha: float,
    horizon: int,
) -> np.ndarray:
    """Accepted nodes of one τ-ball (seed excluded), level-synchronous.

    This is the exact sequential grower: candidates are the unlabelled,
    not-yet-visited neighbours of the frontier, visited whether accepted
    or not (a rejected node never bridges the ball to distant regions),
    accepted when the combined distance to the seed is within ``tau``.
    The batched driver falls back to it when a speculative ball
    conflicts with an earlier commit.
    """
    visited_epoch[seed_node] = epoch
    accepted_parts: "list[np.ndarray]" = []
    frontier = np.array([seed_node], dtype=np.int64)
    for depth in range(horizon):
        neighbors = gather_neighbors(indptr, indices, frontier)
        if not len(neighbors):
            break
        fresh = neighbors[
            (labels[neighbors] == -1)
            & (visited_epoch[neighbors] != epoch)
        ]
        if not len(fresh):
            break
        candidates = _sorted_unique(fresh)
        visited_epoch[candidates] = epoch
        d_topo = (depth + 1) / horizon
        if codes is not None:
            matches = (
                codes[:, candidates] == codes[:, seed_node][:, None]
            ).sum(axis=0)
            d_attr = 1.0 - matches / n_attrs
            distance = alpha * d_topo + (1 - alpha) * d_attr
            accepted = candidates[distance <= tau]
        else:
            distance = alpha * d_topo + (1 - alpha) * 0.0
            accepted = (
                candidates if distance <= tau
                else np.empty(0, dtype=np.int64)
            )
        if not len(accepted):
            break
        accepted_parts.append(accepted)
        frontier = accepted
    if not accepted_parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(accepted_parts)


def stoc_clustering(
    graph: Graph,
    attributes: "NodeAttributeTable | None" = None,
    tau: float = 0.5,
    alpha: float = 0.5,
    horizon: int = 2,
    seed_order: str = "random",
    seed: "int | None" = 0,
) -> Clustering:
    """Cluster an attributed graph with the SToC ball-growing strategy.

    Parameters
    ----------
    attributes:
        Node attributes; ``None`` reduces the distance to topology only.
    tau:
        Distance threshold in [0, 1]; smaller values yield more, tighter
        clusters.
    alpha:
        Weight of the topological term in the combined distance.
    horizon:
        Maximum BFS depth of a ball (the τ-ball radius in hops).
    seed_order:
        ``"random"`` (reference behaviour, reproducible via ``seed``) or
        ``"degree"`` (deterministic max-degree-first).
    """
    if not 0 <= tau <= 1:
        raise GraphError(f"tau must be in [0, 1], got {tau}")
    if not 0 <= alpha <= 1:
        raise GraphError(f"alpha must be in [0, 1], got {alpha}")
    if horizon < 1:
        raise GraphError(f"horizon must be >= 1, got {horizon}")
    if attributes is not None and attributes.n_nodes != graph.n_nodes:
        raise GraphError("attribute table size does not match graph")

    n = graph.n_nodes
    indptr, indices, _ = graph.csr()
    if seed_order == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
    elif seed_order == "degree":
        order = np.argsort(-np.diff(indptr), kind="stable")
    else:
        raise GraphError(f"unknown seed_order {seed_order!r}")

    if attributes is not None and attributes.n_attributes:
        codes = attributes.codes_matrix()
        n_attrs = attributes.n_attributes
    else:
        codes = None
        n_attrs = 0

    labels = np.full(n, -1, dtype=np.int64)
    # Conflict-regrow bookkeeping: a node is visited in the current
    # regrown ball iff its stamp equals the ball epoch (no O(n) reset).
    visited_epoch = np.zeros(n, dtype=np.int64)
    epoch = 0
    # Batch bookkeeping: bit b of a node's mask = visited by ball b of
    # the current batch; only touched entries are reset between batches.
    visited_mask = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    next_label = 0
    pos = 0
    while pos < n:
        # ---- collect the next batch of unassigned seeds ----
        seeds: "list[int]" = []
        while pos < n and len(seeds) < _BALL_BATCH:
            chunk = order[pos:pos + 4 * _BALL_BATCH]
            free = np.flatnonzero(labels[chunk] == -1)
            take = free[:_BALL_BATCH - len(seeds)]
            seeds.extend(chunk[take].tolist())
            if len(seeds) >= _BALL_BATCH:
                # Stop right after the last taken seed so the next
                # batch rescans the untouched remainder of the chunk.
                pos += int(take[-1]) + 1
            else:
                pos += len(chunk)
        if not seeds:
            break
        k = len(seeds)
        seeds_arr = np.array(seeds, dtype=np.int64)

        # ---- speculative growth: all balls on one stacked frontier ----
        touched = [seeds_arr]
        visited_mask[seeds_arr] |= one << np.arange(k, dtype=np.uint64)
        accepted_nodes: "list[np.ndarray]" = []
        accepted_owners: "list[np.ndarray]" = []
        frontier_nodes = seeds_arr
        frontier_owners = np.arange(k, dtype=np.int64)
        for depth in range(horizon):
            degrees = indptr[frontier_nodes + 1] - indptr[frontier_nodes]
            neighbors = gather_neighbors(indptr, indices, frontier_nodes)
            if not len(neighbors):
                break
            owners = np.repeat(frontier_owners, degrees)
            keep = labels[neighbors] == -1
            keep &= (
                (visited_mask[neighbors] >> owners.astype(np.uint64)) & one
            ) == 0
            neighbors = neighbors[keep]
            owners = owners[keep]
            if not len(neighbors):
                break
            # Dedup (owner, node) pairs; unique keys come back sorted,
            # so each ball sees its candidates in ascending node order
            # exactly like the sequential np.unique pass.
            key = owners * n + neighbors
            uniq = _sorted_unique(key)
            cand_owners = uniq // n
            cand_nodes = uniq % n
            np.bitwise_or.at(
                visited_mask, cand_nodes,
                one << cand_owners.astype(np.uint64),
            )
            touched.append(cand_nodes)
            d_topo = (depth + 1) / horizon
            if codes is not None:
                matches = (
                    codes[:, cand_nodes] == codes[:, seeds_arr[cand_owners]]
                ).sum(axis=0)
                d_attr = 1.0 - matches / n_attrs
                distance = alpha * d_topo + (1 - alpha) * d_attr
                acc = distance <= tau
            else:
                distance = alpha * d_topo + (1 - alpha) * 0.0
                acc = np.full(len(cand_nodes), distance <= tau)
            frontier_nodes = cand_nodes[acc]
            frontier_owners = cand_owners[acc]
            if not len(frontier_nodes):
                break
            accepted_nodes.append(frontier_nodes)
            accepted_owners.append(frontier_owners)

        # ---- commit in seed order; conflicts regrow sequentially ----
        if accepted_nodes:
            acc_nodes = np.concatenate(accepted_nodes)
            acc_owners = np.concatenate(accepted_owners)
        else:
            acc_nodes = np.empty(0, dtype=np.int64)
            acc_owners = np.empty(0, dtype=np.int64)
        # Conflict-free fast path: when no accepted node is shared
        # between balls (or is another ball's seed), the sequential
        # commit would label every ball verbatim — do it in two
        # assignments instead of a per-ball loop.
        if len(acc_nodes):
            combined = np.concatenate([acc_nodes, seeds_arr])
            combined.sort()
            clean = not (combined[1:] == combined[:-1]).any()
        else:
            clean = True
        if clean:
            labels[seeds_arr] = next_label + np.arange(k, dtype=np.int64)
            if len(acc_nodes):
                labels[acc_nodes] = next_label + acc_owners
            next_label += k
            visited_mask[np.concatenate(touched)] = 0
            continue
        # Localise the conflict: only balls whose accepted nodes (or
        # seed) appear more than once interact — every other ball of
        # the batch commits its speculative set verbatim, never skips,
        # and is never clipped by a regrow (a regrown ball's accepted
        # set is a subset of its speculative set, which is disjoint
        # from every non-conflicted ball by construction).  Walk the
        # conflicted balls in seed order against live labels; clean
        # balls only contribute their commit count, their labels are
        # assigned vectorised afterwards.
        member = np.zeros(len(combined), dtype=bool)
        eq = combined[1:] == combined[:-1]
        member[1:] |= eq
        member[:-1] |= eq
        involved = _sorted_unique(combined[member])
        conflicted = np.zeros(k, dtype=bool)
        conflicted[acc_owners[np.isin(acc_nodes, involved)]] = True
        conflicted |= np.isin(seeds_arr, involved)
        by_owner = np.argsort(acc_owners, kind="stable")
        bounds = np.searchsorted(
            acc_owners[by_owner], np.arange(k + 1)
        )
        sorted_nodes = acc_nodes[by_owner]
        ball_label = np.full(k, -1, dtype=np.int64)
        commits = 0
        for b in range(k):
            if not conflicted[b]:
                # Always commits; labels deferred to the bulk pass.
                ball_label[b] = next_label + commits
                commits += 1
                continue
            seed_node = seeds[b]
            if labels[seed_node] != -1:
                # Claimed by an earlier ball of this batch: the
                # sequential loop would have skipped it, label and all.
                continue
            ball_nodes = sorted_nodes[bounds[b]:bounds[b + 1]]
            if len(ball_nodes) and (labels[ball_nodes] != -1).any():
                # An earlier commit claimed part of this ball — the
                # speculative growth is stale; regrow against the true
                # label state.
                epoch += 1
                ball_nodes = _grow_ball(
                    indptr, indices, codes, n_attrs, labels,
                    visited_epoch, epoch, seed_node, tau, alpha, horizon,
                )
            labels[seed_node] = next_label + commits
            labels[ball_nodes] = next_label + commits
            commits += 1
        deferred = ball_label >= 0
        labels[seeds_arr[deferred]] = ball_label[deferred]
        sel = deferred[acc_owners]
        labels[acc_nodes[sel]] = ball_label[acc_owners[sel]]
        next_label += commits
        visited_mask[np.concatenate(touched)] = 0

    return Clustering(
        labels, next_label,
        f"stoc(tau={tau:g},alpha={alpha:g},h={horizon})"
    )
