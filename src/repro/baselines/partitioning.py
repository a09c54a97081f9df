"""Graph partitioners for the BLINKS-style baseline.

BLINKS [He et al., SIGMOD 2007] partitions the data graph into blocks and
builds a two-level index over them; the paper's Fig. 5 compares variants
with 300/1000 blocks produced by BFS partitioning and by METIS.  METIS
itself is unavailable offline, so :func:`metis_like_partition` implements
the same recipe METIS popularized — multilevel coarsening by heavy-edge
matching, greedy partitioning of the coarse graph, Kernighan–Lin-style
boundary refinement — at the quality level this workload needs
(docs/architecture.md "Documented deviations").
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

Adjacency = Sequence[Sequence[int]]


def bfs_partition(adjacency: Adjacency, block_count: int, seed: int = 0) -> List[int]:
    """Partition nodes into ≤ ``block_count`` blocks by repeated bounded BFS.

    Seeds are chosen deterministically; each BFS grows a block up to the
    target size ``ceil(n / block_count)``, the strategy the BLINKS paper
    evaluates as its cheap partitioner.  Returns ``block_id`` per node.
    """
    n = len(adjacency)
    if block_count < 1:
        raise ValueError("block_count must be >= 1")
    target = max(1, -(-n // block_count))
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)

    block = [-1] * n
    current = 0
    for start in order:
        if block[start] != -1:
            continue
        size = 0
        queue = deque([start])
        while queue and size < target:
            node = queue.popleft()
            if block[node] != -1:
                continue
            block[node] = current
            size += 1
            for neighbor in adjacency[node]:
                if block[neighbor] == -1:
                    queue.append(neighbor)
        current += 1
    return block


def _coarsen(adjacency: Adjacency, seed: int) -> Tuple[List[int], List[List[int]]]:
    """One level of heavy-edge matching: pairs adjacent nodes greedily.

    Returns (coarse id per node, coarse adjacency).
    """
    n = len(adjacency)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for node in order:
        if match[node] != -1:
            continue
        for neighbor in adjacency[node]:
            if neighbor != node and match[neighbor] == -1:
                match[node] = neighbor
                match[neighbor] = node
                break
        if match[node] == -1:
            match[node] = node  # unmatched: singleton

    coarse_id = [-1] * n
    next_id = 0
    for node in range(n):
        if coarse_id[node] != -1:
            continue
        coarse_id[node] = next_id
        partner = match[node]
        if partner != node:
            coarse_id[partner] = next_id
        next_id += 1

    coarse_sets: List[Set[int]] = [set() for _ in range(next_id)]
    for node in range(n):
        cid = coarse_id[node]
        for neighbor in adjacency[node]:
            nid = coarse_id[neighbor]
            if nid != cid:
                coarse_sets[cid].add(nid)
    return coarse_id, [sorted(s) for s in coarse_sets]


def metis_like_partition(
    adjacency: Adjacency,
    block_count: int,
    seed: int = 0,
    refinement_passes: int = 2,
) -> List[int]:
    """Multilevel partitioning: coarsen → partition → project → refine."""
    n = len(adjacency)
    if n == 0:
        return []

    # Coarsening phase: halve until small enough (or no progress).
    levels: List[Tuple[List[int], Adjacency]] = []
    current_adj: Adjacency = adjacency
    level_seed = seed
    while len(current_adj) > max(4 * block_count, 64):
        coarse_id, coarse_adj = _coarsen(current_adj, level_seed)
        if len(coarse_adj) >= len(current_adj):
            break
        levels.append((coarse_id, current_adj))
        current_adj = coarse_adj
        level_seed += 1

    # Initial partition of the coarsest graph.
    block = bfs_partition(current_adj, block_count, seed=seed)

    # Uncoarsening with refinement at every level.
    for coarse_id, fine_adj in reversed(levels):
        block = [block[coarse_id[node]] for node in range(len(fine_adj))]
        block = _refine(fine_adj, block, block_count, refinement_passes)
    if not levels:
        block = _refine(adjacency, block, block_count, refinement_passes)
    return block


def _refine(
    adjacency: Adjacency, block: List[int], block_count: int, passes: int
) -> List[int]:
    """KL-style greedy refinement: move boundary nodes to the neighboring
    block holding most of their neighbors, under a balance constraint."""
    n = len(adjacency)
    sizes: Dict[int, int] = {}
    for b in block:
        sizes[b] = sizes.get(b, 0) + 1
    max_size = max(1, int(1.3 * (-(-n // block_count))))

    for _ in range(passes):
        moved = 0
        for node in range(n):
            current_block = block[node]
            counts: Dict[int, int] = {}
            for neighbor in adjacency[node]:
                neighbor_block = block[neighbor]
                counts[neighbor_block] = counts.get(neighbor_block, 0) + 1
            if not counts:
                continue
            best_block, best_count = max(
                counts.items(), key=lambda kv: (kv[1], -kv[0])
            )
            internal = counts.get(current_block, 0)
            if (
                best_block != current_block
                and best_count > internal
                and sizes.get(best_block, 0) < max_size
                and sizes.get(current_block, 0) > 1
            ):
                sizes[current_block] -= 1
                sizes[best_block] = sizes.get(best_block, 0) + 1
                block[node] = best_block
                moved += 1
        if moved == 0:
            break
    return block


def partition_quality(adjacency: Adjacency, block: Sequence[int]) -> Dict[str, float]:
    """Edge-cut fraction and balance of a partition (for the ablation
    benchmark comparing BFS vs METIS-like quality)."""
    cut = 0
    total = 0
    for node, neighbors in enumerate(adjacency):
        for neighbor in neighbors:
            total += 1
            if block[node] != block[neighbor]:
                cut += 1
    sizes: Dict[int, int] = {}
    for b in block:
        sizes[b] = sizes.get(b, 0) + 1
    n = max(len(block), 1)
    blocks = max(len(sizes), 1)
    return {
        "edge_cut_fraction": cut / total if total else 0.0,
        "blocks": float(blocks),
        "max_block_size": float(max(sizes.values(), default=0)),
        "balance": max(sizes.values(), default=0) / max(1.0, n / blocks),
    }
