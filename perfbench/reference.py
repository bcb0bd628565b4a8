"""Graph and linear-algebra helpers the benchmark uses on its own inputs.

They build verify sets at set-up time and re-check answers afterwards, so
they must not call into `idsets`: a change to the program cannot change
what the benchmark asks or what it accepts.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _reach(nodes: int, arcs, start: int, forward: bool) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for tail, head in arcs:
        if forward:
            adj[tail].append(head)
        else:
            adj[head].append(tail)
    seen = {start}
    todo = [start]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def scc_ids(nodes: int, arcs) -> list[int]:
    """Strongly connected component id per node (iterative Kosaraju)."""
    out: list[list[int]] = [[] for _ in range(nodes)]
    inc: list[list[int]] = [[] for _ in range(nodes)]
    for tail, head in arcs:
        out[tail].append(head)
        inc[head].append(tail)
    order: list[int] = []
    done = [False] * nodes
    for root in range(nodes):
        if done[root]:
            continue
        done[root] = True
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(out[v]):
                stack[-1] = (v, i + 1)
                w = out[v][i]
                if not done[w]:
                    done[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * nodes
    count = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = count
        todo = [root]
        while todo:
            for w in inc[todo.pop()]:
                if comp[w] == -1:
                    comp[w] = count
                    todo.append(w)
        count += 1
    return comp


def flow_identifying(nodes: int, arcs, s: int, t: int, weights):
    """(relevant arcs, forest, identifying set) for unit s-t flows.

    Relevant arcs lie on a directed cycle or an s-t path; the minimum-weight
    identifying set is their complement of a maximum-weight spanning forest,
    Kruskal over (weight descending, arc id ascending).
    """
    from_s = _reach(nodes, arcs, s, True)
    to_t = _reach(nodes, arcs, t, False)
    comp = scc_ids(nodes, arcs)
    relevant = {a for a, (u, v) in enumerate(arcs)
                if comp[u] == comp[v] or (u in from_s and v in to_t)}
    uf = UnionFind(nodes)
    forest = {a for a in sorted(relevant, key=lambda a: (-weights[a], a))
              if uf.union(*arcs[a])}
    return relevant, forest, relevant - forest


def bfs_path(nodes: int, arcs, start: int, goal: int, allowed) -> list[int] | None:
    """Arc ids of a shortest start-goal path over the allowed arcs, or None."""
    out: list[list[int]] = [[] for _ in range(nodes)]
    for aid in sorted(allowed):
        out[arcs[aid][0]].append(aid)
    prev: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue and goal not in prev:
        v = queue.popleft()
        for aid in out[v]:
            w = arcs[aid][1]
            if w not in prev:
                prev[w] = aid
                queue.append(w)
    if goal not in prev:
        return None
    path = []
    v = goal
    while v != start:
        path.append(prev[v])
        v = arcs[prev[v]][0]
    return path[::-1]


def two_paths_at_first_branch(nodes: int, arcs, s: int, t: int):
    """Two distinct s-t paths of a DAG that split at the smallest node id
    where some s-t path can branch, and share the rest of their arcs
    where they can. Splitting there keeps the work of a verifier that
    scans nodes in id order about the same from seed to seed."""
    from_s = _reach(nodes, arcs, s, True)
    to_t = _reach(nodes, arcs, t, False)
    useful = [a for a, (u, v) in enumerate(arcs) if u in from_s and v in to_t]
    out: dict[int, list[int]] = {}
    for aid in useful:
        out.setdefault(arcs[aid][0], []).append(aid)
    branch = min(u for u, leaving in out.items() if len(leaving) > 1)
    prefix = bfs_path(nodes, arcs, s, branch, useful)
    return [prefix + [a] + bfs_path(nodes, arcs, arcs[a][1], t, useful)
            for a in out[branch][:2]]


def shortest_cycle_arc(nodes: int, arcs, forest, candidates) -> int:
    """The candidate arc that closes the shortest cycle with a spanning
    forest (ties: smallest id). A flow verifier's witness costs work per
    cycle arc, so the shortest cycle keeps that work steady."""
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for aid in forest:
        u, v = arcs[aid]
        adj[u].append(v)
        adj[v].append(u)
    parent, depth = [-1] * nodes, [-1] * nodes
    for root in range(nodes):
        if depth[root] != -1:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if depth[y] == -1:
                    depth[y], parent[y] = depth[x] + 1, x
                    stack.append(y)

    def forest_distance(u: int, v: int) -> int:
        steps = 0
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, steps = parent[u], steps + 1
        return steps

    return min(sorted(candidates), key=lambda a: forest_distance(*arcs[a]))


def is_st_path(arcs, s: int, t: int, path) -> bool:
    """True when the arc-id set is one simple directed s-t path."""
    nxt: dict[int, int] = {}
    for aid in path:
        tail, head = arcs[aid]
        if tail in nxt:
            return False
        nxt[tail] = head
    v, steps = s, 0
    while v in nxt and steps <= len(path):
        v, steps = nxt[v], steps + 1
    return v == t and steps == len(path)


def st_paths(nodes: int, arcs, s: int, t: int) -> list[frozenset[int]]:
    """Every simple s-t path as an arc-id set (small instances only)."""
    out: list[list[int]] = [[] for _ in range(nodes)]
    for aid, (tail, _) in enumerate(arcs):
        out[tail].append(aid)
    found: list[frozenset[int]] = []
    stack = [(s, (), frozenset({s}))]
    while stack:
        v, used, visited = stack.pop()
        if v == t:
            found.append(frozenset(used))
            continue
        for aid in out[v]:
            w = arcs[aid][1]
            if w not in visited:
                stack.append((w, used + (aid,), visited | {w}))
    return found


def edge_blocks(nodes: int, edges) -> list[frozenset[int]]:
    """Edge sets of the biconnected components of a loopless multigraph.

    These are the connected components of its graphic matroid: two edges
    share one exactly when some cycle contains both. Every edge appears in
    exactly one block; a bridge is a block of its own.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * nodes
    low = [0] * nodes
    clock = 0
    blocks: list[frozenset[int]] = []
    edge_stack: list[int] = []
    for root in range(nodes):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        work = [(root, -1, 0)]
        while work:
            v, via, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, via, i + 1)
                w, eid = adj[v][i]
                if eid == via:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = clock
                    clock += 1
                    work.append((w, eid, 0))
                elif disc[w] < disc[v]:
                    edge_stack.append(eid)
                    low[v] = min(low[v], disc[w])
                continue
            work.pop()
            if not work:
                continue
            parent = work[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                block = set()
                while True:
                    eid = edge_stack.pop()
                    block.add(eid)
                    if eid == via:
                        break
                blocks.append(frozenset(block))
    return blocks


def rref_pivots(rows: list[list[Fraction]]) -> list[int]:
    """Pivot columns of the reduced row echelon form, over exact rationals."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots
