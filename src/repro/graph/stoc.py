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

with ``alpha`` = :data:`ALPHA`, ``d_topo`` the BFS hop distance
normalised by the ball horizon (:data:`HORIZON` hops) and
``d_attr`` the Hamming distance over categorical attributes (the
published algorithm uses Jaccard over set-valued attributes; for the
single-valued company attributes of the case studies the two coincide).
Each node is visited a constant number of times, so the total cost is
O(nodes + edges) — the property that lets SCube scale to millions of
companies.

Growth is batched across **balls**, not just across levels: a batch of
pending seeds grows speculatively at once on one stacked ``(node,
owner)`` frontier — one CSR gather, one ``(owner, node)`` dedup and one
Hamming pass per level serve every ball of the batch, with a per-node
``uint64`` bitmask (bit *b* = visited by ball *b*) replacing the
per-ball visited set.  The batch size follows the conflicts: it starts
at one ball, doubles after a batch whose balls share no node (up to the
mask's 64 bits) and halves after one whose balls do.  Seeds drawn in a
power-law graph's core all expand the same hubs, so speculating many of
them at once gathers the hubs' neighbourhoods many times and regrows
most of the balls; once the core is labelled the balls stay apart and
the batch grows.  Balls are then *committed in seed order*: a ball
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

The reference implementation samples seeds randomly; seeds here come
from an RNG seeded by ``seed``, so a clustering is reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.attributes import NodeAttributeTable
from repro.graph.components import Clustering, gather_neighbors
from repro.graph.graph import Graph, _sorted_unique

#: Most balls one speculative batch grows: the width of the per-node
#: ``uint64`` visited mask, one bit per ball.  Batches start at one ball,
#: double and halve.  Medians of 9 on a 2-vCPU host, labels identical,
#: on perfbench director_graph's graph (seeds 1, 3, 7): this schedule
#: 62-70 ms; a fixed batch of 32, 166-178 ms; starting at 64, 242-278
#: ms; capping at 32, 86-96 ms, and at 16, 115-142 ms; growing 4x, no
#: change beyond noise.  On E22's 100k x 5k graph without attributes:
#: 2.7 ms, against 34 ms fixed at 32 and 55 ms starting at 64.
_MAX_BATCH = 64
#: Weight of the topological term in the combined distance.
ALPHA = 0.5
#: Maximum BFS depth of a ball (the τ-ball radius in hops).
HORIZON = 2


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
    for depth in range(HORIZON):
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
        d_topo = (depth + 1) / HORIZON
        if codes is not None:
            matches = (
                codes[:, candidates] == codes[:, seed_node][:, None]
            ).sum(axis=0)
            d_attr = 1.0 - matches / n_attrs
            distance = ALPHA * d_topo + (1 - ALPHA) * d_attr
            accepted = candidates[distance <= tau]
        else:
            distance = ALPHA * d_topo + (1 - ALPHA) * 0.0
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


def _grow_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    codes: "np.ndarray | None",
    n_attrs: int,
    labels: np.ndarray,
    visited_mask: np.ndarray,
    seeds: np.ndarray,
    tau: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Speculative growth of one batch: every ball on one frontier.

    Returns ``(nodes, owners)``: each accepted node (seeds excluded) with
    the index in ``seeds`` of the ball that accepted it.  Bit ``b`` of
    ``visited_mask`` marks a node visited by ball ``b``; the entries
    this batch set are cleared again before returning.
    """
    n = len(labels)
    one = np.uint64(1)
    k = len(seeds)
    touched = [seeds]
    visited_mask[seeds] |= one << np.arange(k, dtype=np.uint64)
    accepted_nodes: "list[np.ndarray]" = []
    accepted_owners: "list[np.ndarray]" = []
    frontier_nodes = seeds
    frontier_owners = np.arange(k, dtype=np.int64)
    for depth in range(HORIZON):
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
        # Dedup (owner, node) pairs; unique keys come back sorted, so
        # each ball sees its candidates in ascending node order exactly
        # like the sequential np.unique pass.
        key = owners * n + neighbors
        uniq = _sorted_unique(key)
        cand_owners = uniq // n
        cand_nodes = uniq % n
        np.bitwise_or.at(
            visited_mask, cand_nodes, one << cand_owners.astype(np.uint64)
        )
        touched.append(cand_nodes)
        d_topo = (depth + 1) / HORIZON
        if codes is not None:
            matches = (
                codes[:, cand_nodes] == codes[:, seeds[cand_owners]]
            ).sum(axis=0)
            d_attr = 1.0 - matches / n_attrs
            distance = ALPHA * d_topo + (1 - ALPHA) * d_attr
            acc = distance <= tau
        else:
            distance = ALPHA * d_topo + (1 - ALPHA) * 0.0
            acc = np.full(len(cand_nodes), distance <= tau)
        frontier_nodes = cand_nodes[acc]
        frontier_owners = cand_owners[acc]
        if not len(frontier_nodes):
            break
        accepted_nodes.append(frontier_nodes)
        accepted_owners.append(frontier_owners)
    visited_mask[np.concatenate(touched)] = 0
    if not accepted_nodes:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(accepted_nodes), np.concatenate(accepted_owners)


def stoc_clustering(
    graph: Graph,
    attributes: "NodeAttributeTable | None" = None,
    tau: float = 0.5,
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
    seed:
        Seeds the random order in which balls are grown.
    """
    if not 0 <= tau <= 1:
        raise GraphError(f"tau must be in [0, 1], got {tau}")
    if attributes is not None and attributes.n_nodes != graph.n_nodes:
        raise GraphError("attribute table size does not match graph")

    n = graph.n_nodes
    indptr, indices, _ = graph.csr()
    order = np.random.default_rng(seed).permutation(n)

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
    # Bit b of a node's mask = visited by ball b of the current batch.
    visited_mask = np.zeros(n, dtype=np.uint64)
    batch = 1
    next_label = 0
    pos = 0
    while pos < n:
        # ---- collect the next batch of unassigned seeds ----
        seeds: "list[int]" = []
        while pos < n and len(seeds) < batch:
            chunk = order[pos:pos + 4 * batch]
            free = np.flatnonzero(labels[chunk] == -1)
            take = free[:batch - len(seeds)]
            seeds.extend(chunk[take].tolist())
            if len(seeds) >= batch:
                # Stop right after the last taken seed so the next
                # batch rescans the untouched remainder of the chunk.
                pos += int(take[-1]) + 1
            else:
                pos += len(chunk)
        if not seeds:
            break
        k = len(seeds)
        seeds_arr = np.array(seeds, dtype=np.int64)
        acc_nodes, acc_owners = _grow_batch(
            indptr, indices, codes, n_attrs, labels, visited_mask,
            seeds_arr, tau,
        )

        # ---- commit in seed order; conflicts regrow sequentially ----
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
            batch = min(2 * batch, _MAX_BATCH)
            continue
        batch = max(batch // 2, 1)
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
                    visited_epoch, epoch, seed_node, tau,
                )
            labels[seed_node] = next_label + commits
            labels[ball_nodes] = next_label + commits
            commits += 1
        deferred = ball_label >= 0
        labels[seeds_arr[deferred]] = ball_label[deferred]
        sel = deferred[acc_owners]
        labels[acc_nodes[sel]] = ball_label[acc_owners[sel]]
        next_label += commits

    return Clustering(
        labels, next_label,
        f"stoc(tau={tau:g},alpha={ALPHA:g},h={HORIZON})"
    )
