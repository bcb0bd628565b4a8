"""Directed-multigraph core: types and the graph primitives everything else uses.

Arc ids are dense indices 0..m-1, fixed by construction order; they are the
join key across all modules, so every operation reports arcs by id. All
tie-breaking is by smallest arc id to keep outputs deterministic.

A `Digraph` is two int columns, `tails` and `heads`, indexed by arc id, plus
out- and in-arc lists and a self-loop flag, all built by one filing walk over
the pairs and checked in C after it: the signs of every end, the types of
the ends filed under nodes 0 and 1, where a bool lands. `io.parse_graph`
tries the walk on the JSON arcs first and runs its checks only to name a
failure; the constructor checks each arc, then files the checked columns.
`arcs` is a view of the pairs made on first use, for output and tests.
`bfs_tree` walks the lists for shortest arc paths and forest paths, and
stops at a goal when given one; `reach_marks` answers the membership-only
reachability of the s-t solvers with one flat mark per node, and
`_kosaraju` returns the arcs inside its components with their labels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Sequence

from .errors import InvalidInstance, NoStPath, NotAcyclic, PathExplosion, as_sequence
from .linalg import exact

Adjacency = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Digraph:
    """Immutable directed multigraph: arc id a runs from tails[a] to heads[a].

    Parallel arcs and self-loops are representable; `StPair.validate`
    refuses self-loops in every s-t setting (a self-loop is never on a
    simple path and creates degenerate flow cycles).
    """

    node_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int]]):
        """One checked walk, then `_file` on its columns. InvalidInstance for
        a bad node_count, arcs that `as_sequence` refuses, else for the first
        arc that is not a pair, has a non-`_integer` end or is out of range."""
        node_count = _count(node_count, "node_count")
        tails, heads = [], []
        for aid, arc in enumerate(as_sequence(arcs, "arcs")):
            try:
                tail, head = arc
            except (TypeError, ValueError):
                raise InvalidInstance(
                    f"arc {aid} must be a (tail, head) pair, got {arc!r}") from None
            if type(tail) is not int or type(head) is not int:
                tail = _integer(tail, f"arc {aid} tail")
                head = _integer(head, f"arc {aid} head")
            if not (0 <= tail < node_count and 0 <= head < node_count):
                raise InvalidInstance(f"arc {aid} = ({tail},{head}) out of range")
            tails.append(tail)
            heads.append(head)
        if not self._file(node_count, zip(tails, heads)):
            raise AssertionError("the filing walk refused checked arcs")

    @classmethod
    def _filed(cls, node_count: int, arcs: list) -> Digraph | None:
        """The Digraph `_file` builds from `arcs`, or None when it refuses or
        is not tried: for a negative node_count, or one above 2 * len(arcs) + 2
        (more nodes than the arcs can touch, besides s and t), so the lists a
        refused walk allocates stay in proportion to the arcs. The caller's
        checked route then names the failure or builds the graph."""
        if not 0 <= node_count <= 2 * len(arcs) + 2:
            return None
        g = cls.__new__(cls)
        return g if g._file(node_count, arcs) else None

    def _file(self, node_count: int, pairs: Iterable) -> bool:
        """File each arc id under its tail and its head, append its ends to the
        two columns and note a self-loop, in one walk; store them and return True
        only if every arc is a pair of exact ints in 0..node_count-1 (node_count >= 0).

        The walk stops at a pair that does not unpack, a non-int end (a list
        index refuses it) or an end >= node_count; a bool or a negative end
        still indexes a list, so a `min` check per column and a type check
        follow, in C. Of the values this receives (JSON values, or the
        constructor's checked ints) a bool is the only non-int an index
        accepts, and it equals 0 or 1, so the type check reads only the ends
        filed under nodes 0 and 1. A refusal stores nothing."""
        out: list[list[int]] = [[] for _ in range(node_count)]
        inc: list[list[int]] = [[] for _ in range(node_count)]
        tails: list[int] = []
        heads: list[int] = []
        self_loop = False
        try:
            for aid, (tail, head) in enumerate(pairs):
                out[tail].append(aid)
                inc[head].append(aid)
                tails.append(tail)
                heads.append(head)
                if tail == head:
                    self_loop = True
        except (IndexError, TypeError, ValueError):
            return False
        low_ends = chain(map(tails.__getitem__, chain(*out[:2])),
                         map(heads.__getitem__, chain(*inc[:2])))
        if tails and not (min(tails) >= 0 and min(heads) >= 0
                          and set(map(type, low_ends)) <= {int}):
            return False
        self.__dict__.update(  # frozen: set once, here; eq and repr read the three fields
            node_count=node_count, tails=tuple(tails), heads=tuple(heads),
            _out=tuple(map(tuple, out)), _in=tuple(map(tuple, inc)),
            _self_loop=self_loop)
        return True

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The (tail, head) pairs, for output and tests; solvers read the columns."""
        return tuple(zip(self.tails, self.heads))

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    def has_self_loop(self) -> bool:
        return self._self_loop

    def out_arcs(self) -> Adjacency:
        """out_arcs()[v]: the arc ids with tail v, ascending."""
        return self._out

    def in_arcs(self) -> Adjacency:
        """in_arcs()[v]: the arc ids with head v, ascending."""
        return self._in


def _integer(value, what: str) -> int:
    """`operator.index(value)`: the library's rule for ids and counts. A bool
    reads as 0 or 1; a float, Fraction or string raises InvalidInstance
    naming `what`, and is never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInstance(f"{what} must be an integer, got {value!r}") from None


def _count(value, what: str) -> int:
    """`_integer(value, what)`, refusing a negative count."""
    value = _integer(value, what)
    if value < 0:
        raise InvalidInstance(f"{what} must be nonnegative")
    return value


@dataclass(frozen=True)
class StPair:
    source: int
    sink: int

    def __post_init__(self):
        object.__setattr__(self, "source", _integer(self.source, "source"))
        object.__setattr__(self, "sink", _integer(self.sink, "sink"))
        if self.source == self.sink:
            raise InvalidInstance("source and sink must differ")

    def validate(self, g: Digraph) -> None:
        """The one check of an s-t setting: InvalidInstance for a self-loop
        in `g`, then for an end out of range."""
        if g.has_self_loop():
            raise InvalidInstance("self-loops are not allowed in s-t settings")
        for v in (self.source, self.sink):
            if not (0 <= v < g.node_count):
                raise InvalidInstance(f"node id {v} out of range")


class WeightedGroundSet:
    """Nonnegative rational weight per element id, kept once: `scaled` holds
    the weight times `scale`, the lcm of the denominators, one int per
    element. Solvers compare and add the ints; `w[e]` and `total` build a
    Fraction for a reported weight. A string, byte string, mapping or set is
    refused by `errors.as_sequence`: none iterates in element order."""

    def __init__(self, weights: Sequence[Fraction | int | str]):
        # One pass converts, sign-checks and splits each weight. A Fraction,
        # all that the parsers hand over, skips the call to `exact`.
        ratios = []
        for i, value in enumerate(as_sequence(weights, "weights")):
            ratio = (value if type(value) is Fraction else exact(value)).as_integer_ratio()
            if ratio[0] < 0:
                raise InvalidInstance(f"negative weight at element {i}")
            ratios.append(ratio)
        self._scale(ratios, dict(zip(ratios, ratios)))

    @classmethod
    def _by_token(cls, tokens: list, ratios: dict) -> "WeightedGroundSet":
        """The weights ratios[t], reduced (num, den) pairs, along `tokens`; a
        negative one goes to the constructor, which names it."""
        if any(num < 0 for num, _ in ratios.values()):
            return cls([Fraction(*ratios[token]) for token in tokens])
        out = cls.__new__(cls)
        out._scale(tokens, ratios)
        return out

    def _scale(self, keys: Sequence, ratios: dict) -> None:
        """The one scaling rule: `scale`, the lcm of the denominators of `ratios`
        (key -> (num, den)), and num * (scale // den) per key of `keys`, in C."""
        self.scale = scale = lcm(*{den for _, den in ratios.values()})
        scaled = {key: num * (scale // den) for key, (num, den) in ratios.items()}
        self.scaled: tuple[int, ...] = tuple(map(scaled.__getitem__, keys))

    @classmethod
    def uniform(cls, size: int) -> "WeightedGroundSet":
        """Unit weights on `size` elements."""
        out = cls.__new__(cls)
        out.scale, out.scaled = 1, (1,) * _count(size, "size")
        return out

    @property
    def size(self) -> int:
        return len(self.scaled)

    def __getitem__(self, element: int) -> Fraction:
        return Fraction(self.scaled[element], self.scale)

    def total(self, elements: Iterable[int]) -> Fraction:
        scaled = self.scaled
        return Fraction(sum(scaled[e] for e in elements), self.scale)


def validate_ids(size: int, ids: Iterable[int]) -> frozenset[int]:
    """The element ids as a set; InvalidInstance for any id outside 0..size-1."""
    try:
        out = frozenset(map(operator.index, ids))
    except TypeError as exc:
        raise InvalidInstance(f"element ids must be integers: {exc}") from exc
    for e in out:
        if not (0 <= e < size):
            raise InvalidInstance(f"element id {e} out of range")
    return out


def validate_weights(size: int, w: WeightedGroundSet | None) -> WeightedGroundSet:
    """`w`, or unit weights when it is None; InvalidInstance unless it is a
    WeightedGroundSet with one weight per element id 0..size-1."""
    if w is None:
        return WeightedGroundSet.uniform(size)
    if not isinstance(w, WeightedGroundSet):
        raise InvalidInstance(f"weights must be a WeightedGroundSet, got {type(w).__name__}")
    if w.size != size:
        raise InvalidInstance(f"{w.size} weights for {size} elements")
    return w


def drop_heaviest_per_part(parts: Iterable[frozenset[int]],
                           w: WeightedGroundSet) -> frozenset[int]:
    """Every element except the heaviest of its part (ties: smallest id)."""
    scaled = w.scaled
    s: set[int] = set()
    for part in parts:
        s |= part - {min(part, key=lambda e: (-scaled[e], e))}
    return frozenset(s)


class UnionFind:
    """Union-find with path halving and union by size. `joins` runs both finds
    inline over a batch of arcs: one Python call for all of Kruskal's arcs."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False when they were one class already."""
        return bool(self.joins((0,), (a,), (b,)))

    def joins(self, arcs: Iterable[int], tails: Sequence[int], heads: Sequence[int]) -> list[int]:
        """The arcs, in the order given, whose ends tails[a] and heads[a] are
        in two classes when the arc is reached; each merges them. A self-loop
        never joins."""
        parent, size, joined = self.parent, self.size, []
        for aid in arcs:
            a, b = tails[aid], heads[aid]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                joined.append(aid)
        return joined

    def parts(self) -> tuple[frozenset[int], ...]:
        """The classes, sorted by least element (the order they are first met)."""
        groups: dict[int, set[int]] = {}
        for e in range(len(self.parent)):
            groups.setdefault(self.find(e), set()).add(e)
        return tuple(map(frozenset, groups.values()))


def _kosaraju(g: Digraph, skip: bytes | bytearray) -> tuple[list[int], list[int]]:
    """Strongly connected component id per node v with skip[v] == 0, and the
    arcs inside a component (Kosaraju): one depth-first walk over the
    out-arcs records finish order, then one walk over the in-arcs from each
    unassigned node, latest finished first, collects its component, keeping
    each in-arc whose tail lands in it. Ids are 0..k-1 in a topological order
    of the components: comp[tail] <= comp[head] for every arc between
    unskipped nodes.

    Both walks treat a skipped node as already seen, so none is entered and
    every skipped node keeps the one id -1; the caller must skip whole
    components, or a component is cut where it crosses a skipped node."""
    out, inc, tails, heads = g.out_arcs(), g.in_arcs(), g.tails, g.heads
    seen, finished = bytearray(skip), []
    for root in range(g.node_count):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            v, arcs = stack[-1]
            for aid in arcs:
                w = heads[aid]
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    placed, comp, inside, k = bytearray(skip), [-1] * g.node_count, [], 0
    for root in reversed(finished):
        if not placed[root]:
            placed[root], comp[root], stack = 1, k, [root]
            while stack:
                for aid in inc[stack.pop()]:
                    w = tails[aid]
                    if not placed[w]:
                        placed[w], comp[w] = 1, k
                        stack.append(w)
                    if comp[w] == k:
                        inside.append(aid)
            k += 1
    return comp, inside


def topological_order(g: Digraph) -> tuple[int, ...]:
    """The nodes in Kahn's order, or NotAcyclic with a directed cycle.

    The released nodes form a plain queue, seeded with the in-degree-0 nodes
    in id order and read front to back, so the order is deterministic. The
    set of released nodes, and so the cycle, does not depend on that order.
    """
    heads, out = g.heads, g.out_arcs()
    indeg = list(map(len, g.in_arcs()))
    released = [v for v in range(g.node_count) if indeg[v] == 0]
    for v in released:
        for aid in out[v]:
            w = heads[aid]
            indeg[w] -= 1
            if indeg[w] == 0:
                released.append(w)
    if len(released) < g.node_count:
        raise NotAcyclic(_find_directed_cycle(g, indeg))
    return tuple(released)


def _find_directed_cycle(g: Digraph, indeg: list[int]) -> list[int]:
    """A directed cycle among the nodes Kahn's algorithm never released, those
    left with indeg > 0 (a node is released when its in-degree reaches 0).

    Every unreleased node keeps an unreleased predecessor, so walking
    backwards along the smallest such in-arc must revisit a node.
    """
    inc, tails = g.in_arcs(), g.tails
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    v = next(v for v, d in enumerate(indeg) if d)
    while v not in seen_at:
        seen_at[v] = len(walk)
        aid = next(a for a in inc[v] if indeg[tails[a]])
        walk.append(aid)
        v = tails[aid]
    cycle = walk[seen_at[v]:]
    cycle.reverse()
    return cycle


def bfs_tree(g: Digraph, start: int, allowed: Iterable[int] | None = None,
             follow: str = "out", *, goal: int | None = None) -> dict[int, int]:
    """Breadth-first tree from `start` over the allowed arc ids (all when None).

    `follow` is "out" (tail to head) or "both" (either way). Each
    node's arcs are tried in ascending id order, so a node's tree arc is the
    smallest-id arc from the first-queued node that reaches it. Returns
    node -> tree arc for every node reached, with start -> -1. A `goal` ends
    the walk the moment it is reached: a node's tree path is fixed then, so
    `tree_path` to any node in the returned tree is that of the full tree.
    """
    if follow not in ("out", "both"):
        raise ValueError(f"follow must be 'out' or 'both', got {follow!r}")
    if allowed is not None and not isinstance(allowed, (set, frozenset)):
        allowed = frozenset(allowed)
    out, inc, tails, heads = g.out_arcs(), g.in_arcs(), g.tails, g.heads
    tree = {start: -1}
    if start == goal:
        return tree
    queue = [start]  # read front to back as it grows
    if follow == "out":
        for v in queue:
            for aid in out[v] if allowed is None else filter(allowed.__contains__, out[v]):
                w = heads[aid]
                if w not in tree:
                    tree[w] = aid
                    if w == goal:
                        return tree
                    queue.append(w)
        return tree
    for v in queue:
        for aid in sorted((*out[v], *inc[v])):
            if allowed is not None and aid not in allowed:
                continue
            w = heads[aid] if tails[aid] == v else tails[aid]
            if w not in tree:
                tree[w] = aid
                if w == goal:
                    return tree
                queue.append(w)
    return tree


def tree_path(g: Digraph, tree: dict[int, int], goal: int) -> list[int] | None:
    """Arc ids from the root of a `bfs_tree` to `goal`, or None if it is not reached."""
    if goal not in tree:
        return None
    path: list[int] = []
    v = goal
    while tree[v] != -1:
        aid = tree[v]
        path.append(aid)
        v = g.tails[aid] if g.heads[aid] == v else g.heads[aid]
    path.reverse()
    return path


def reach_marks(g: Digraph, start: int, follow: str = "out") -> bytearray:
    """marks[v] is 1 iff `start` reaches v along arcs ("out") or v reaches
    `start` ("in"), over every arc. One stack walk with a flat mark per
    node: no tree, order or set, for callers that only test membership."""
    adjacency, ends = (g.out_arcs(), g.heads) if follow == "out" else (g.in_arcs(), g.tails)
    marks = bytearray(g.node_count)
    marks[start] = 1
    stack = [start]
    while stack:
        for aid in adjacency[stack.pop()]:
            w = ends[aid]
            if not marks[w]:
                marks[w] = 1
                stack.append(w)
    return marks


def shortest_arc_path(g: Digraph, start: int, goal: int,
                      allowed: Iterable[int] | None = None) -> list[int] | None:
    """BFS path start->goal as an arc-id list, or None. Prefers smaller arc ids."""
    return tree_path(g, bfs_tree(g, start, allowed, goal=goal), goal)


def _max_weight_forest(g: Digraph, ids: Iterable[int], w: WeightedGroundSet) -> set[int]:
    """Maximum-weight spanning forest of the undirected multigraph on `ids`,
    distinct in-range arc ids the caller has checked.

    Kruskal over arcs sorted by (weight desc, arc id asc), a reversed stable sort
    of the ascending ids; self-loops are never forest arcs. Per connected
    component the result is a spanning tree.
    """
    order = sorted(sorted(ids), key=w.scaled.__getitem__, reverse=True)
    return set(UnionFind(g.node_count).joins(order, g.tails, g.heads))


def enumerate_st_paths(g: Digraph, st: StPair, cap: int = 100_000) -> list[frozenset[int]]:
    """All simple directed s-t paths as arc-id sets, lexicographic by arc-id tuple.

    Raises PathExplosion when more than `cap` paths exist: the instance is too
    large for brute force. `cap` is read like `Caps.max_paths`.
    """
    from .caps import Caps  # caps imports this module

    cap = Caps(max_paths=cap).max_paths
    st.validate(g)
    out, heads = g.out_arcs(), g.heads
    # Prune to nodes that can still reach t; cuts hopeless branches early.
    can_reach_t = reach_marks(g, st.sink, follow="in")
    if not can_reach_t[st.source]:
        raise NoStPath(f"no path from {st.source} to {st.sink}")
    paths: list[tuple[int, ...]] = []
    on_path = [False] * g.node_count
    on_path[st.source] = True
    # Depth-first with an explicit stack, so path length is not bounded by
    # the recursion limit: one out-arc iterator per node on the current path.
    arc_stack: list[int] = []
    frames = [iter(out[st.source])]
    while frames:
        aid = next(frames[-1], None)
        if aid is None:
            frames.pop()
            if arc_stack:
                on_path[heads[arc_stack.pop()]] = False
            continue
        w_node = heads[aid]
        if on_path[w_node] or not can_reach_t[w_node]:
            continue
        if w_node == st.sink:
            if len(paths) >= cap:
                raise PathExplosion(cap, f"found {cap + 1} s-t paths")
            paths.append((*arc_stack, aid))
            continue
        on_path[w_node] = True
        arc_stack.append(aid)
        frames.append(iter(out[w_node]))
    paths.sort(key=lambda p: tuple(sorted(p)))
    return [frozenset(p) for p in paths]
