"""Two-colored recognition: neighborhood axioms, reachable sets, and the
hierarchy route to the unique least resolved tree.

No subgraph is copied.  A graph is read through its own adjacency, each
vertex's out- and in-neighbourhood as a Python-int bitset (``out_masks``,
``in_masks``), and a two-colored graph inside it is a vertex mask, such as
two colours of one component of the n-colour recognizer.
``pair_topology`` decides such a pair in one body, from the vertex keys to
the extended reachable sets, and then runs one Hasse pass.  It keys each
vertex by both neighbourhoods within the mask into one dict of class
bitsets, so a class is the bitset of its vertices, and keeps one class
table per pair, plain lists of bitsets over the classes, bit ``c`` standing
for class ``c``.  It scans each class's out-key once and takes the
in-tables from the transpose of those lists, so no in-key is scanned; the
classes that break N2 come out of the second pass over them as one class
bitset.  No class neighbourhood crosses a weakly connected piece, so the
pieces are class bitsets over that one numbering, found by the same merge
as the graph's components.  All axiom algebra runs on these bitsets; class
granularity makes that lossless.  The axioms are checked piece by piece, in
the order the pieces come, each in the order N2 (one AND per piece), N3,
N1, and the first violating class (pair) in class order is the witness; so
the first piece to fail names the violation.

The hierarchy route uses closed forms that hold only once the axioms do.
With N2, N(N(N(a))) lies in N(a), so the reachable set of class a is
R(a) = N(a) | N(N(a)) and no search is needed; the extended reachable set
R'(a) adds Q(a), the classes with a's in-neighbourhood whose
out-neighbourhood lies in N(a), which is a alone when no other class shares
it.  One pass over the distinct R' sets of all pieces, smallest first,
checks that they are laminar, links each to its Hasse parent and builds its
node of the tree; its maximal sets must be the pieces.  ``reachable_set``
(a BFS), ``extended_reachable_set``, ``neighborhood_tables`` and
``laminarity_witness`` are the plain definitions, kept as the references
the closed forms and the one pass are tested against.

A connected, sink-free two-colored digraph satisfies N1-N3 exactly when it
is a best match graph, and then the Hasse tree of its extended reachable
sets is its least resolved tree.  ``check_axioms`` and ``lrt_via_hierarchy``
check the colour count, same-colour arcs, the first sink in vertex order and
connectedness, then run ``pair_topology`` on all vertices; the n-colour
recognizer calls it on each colour pair directly: a pair has no same-colour
arc, so its sink-free pieces pass every structure check.  So every caller
decides a pair by the same steps, down to the tree as a cluster family over
vertex bitsets, which ``lrt_via_hierarchy`` names and ``check_axioms``
drops.  Its nodes are the tree's inner nodes only: a vertex is a leaf of the
lowest node that holds it.  Pieces that pass the axioms are best match
graphs, so the Hasse pass cannot fail on them.  No forward construction
runs here: the one exact gate is the n-colour recognizer's final
arc-for-arc comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Sequence, TypeVar

# bmg_of_tree and thinness_partition stay bound: perfbench/layers.py traces them
from .bmg import bmg_of_tree  # noqa: F401
from .digraph import (
    ColoredDigraph,
    ThinnessPartition,
    _blocks,
    bits,
    check_vertex_mask,
    connected_components,
    scan_bits,
)
from .digraph import thinness_partition  # noqa: F401
from .errors import GraphError
from .tree import Topology
from .verdicts import CheckResult, Rejection

T = TypeVar("T")


@dataclass(frozen=True)
class ClassNeighborhoodTables:
    """Class-level neighbourhoods as bitsets over the classes: ``n1[a]``,
    ``n2[a]`` and ``n3[a]`` are N(a), N(N(a)) and N(N(N(a))); ``in1[a]`` and
    ``in2[a]`` hold the classes with an arc, or a path of two arcs, into a."""

    n1: tuple[int, ...]
    n2: tuple[int, ...]
    n3: tuple[int, ...]
    in1: tuple[int, ...]
    in2: tuple[int, ...]


def neighborhood_tables(
    outs: Sequence[Iterable[int]], ins: Sequence[Iterable[int]]
) -> ClassNeighborhoodTables:
    """Tables of the classes whose out- and in-neighbour classes are ``outs[a]``
    and ``ins[a]``, each list read once per table it feeds; the reference the
    class tables of ``pair_topology`` are tested against.  Raises
    ``GraphError`` unless both list every class and name classes by ``int``
    indices in ``range(len(outs))``, a ``bool`` being no class index."""
    outs, ins = [list(s) for s in outs], [list(s) for s in ins]
    classes = range(len(outs))
    if len(ins) != len(outs):
        raise GraphError(f"{len(outs)} out-lists but {len(ins)} in-lists")
    stray = [
        c for s in outs + ins for c in s if isinstance(c, bool) or not isinstance(c, int) or c not in classes
    ]
    if stray:
        raise GraphError(f"class index is no int in range({len(outs)}): {stray[0]!r}")

    def step(table: Sequence[int], lists: list[list[int]]) -> tuple[int, ...]:
        return tuple([reduce(or_, map(table.__getitem__, s), 0) for s in lists])

    bit = [1 << c for c in classes]
    n1, in1 = step(bit, outs), step(bit, ins)
    n2 = step(n1, outs)
    return ClassNeighborhoodTables(n1=n1, n2=n2, n3=step(n2, outs), in1=in1, in2=step(in1, ins))


def _class_ids(graph: ColoredDigraph, masks: list[int], class_set: int) -> tuple[str, ...]:
    """Sorted ids of the vertices of the classes in the class bitset ``class_set``."""
    return tuple(graph.vertex_ids[v] for v in bits(reduce(or_, map(masks.__getitem__, bits(class_set)))))


def _structure_check(graph: ColoredDigraph) -> CheckResult | None:
    """The first failure of a graph with other than two colours, a
    same-colour arc, a sink or a second weakly connected component, if any;
    once no vertex is a sink, its pieces are those components."""
    if len(graph.color_ids) != 2:
        return CheckResult(False, "wrong-color-count", graph.vertex_ids)
    bad = graph.same_color_arc()
    if bad is not None:
        i, j = bad
        return CheckResult(False, "same-color-arc", (graph.vertex_ids[i], graph.vertex_ids[j]))
    if not all(graph.out_masks):
        return CheckResult(False, "sink-vertex", graph.vertex_ids[graph.out_masks.index(0)])
    comps = connected_components(graph)
    if len(comps) != 1:  # each component's vertex ids; components come by smallest vertex
        ids = graph.vertex_ids
        return CheckResult(False, "disconnected", tuple(tuple(ids[v] for v in bits(c)) for c in comps))
    return None


def check_axioms(graph: ColoredDigraph) -> CheckResult:
    """Check the three out-neighborhood axioms of connected two-colored graphs."""
    failed = _structure_check(graph)
    if failed is not None:
        return failed
    found = pair_topology(graph, (1 << len(graph)) - 1)
    if not isinstance(found, Rejection):
        return CheckResult(True)
    return found.witness if found.stage == "axioms" else CheckResult(False, found.stage, found.witness)


def reachable_set(graph: ColoredDigraph, seed: frozenset[int] | tuple[int, ...]) -> frozenset[int]:
    """Vertices reachable from ``seed`` along one or more arcs (plain BFS).

    This is the reference definition, meaningful on any graph.  The hierarchy
    route uses the closed form N | N(N) instead, which equals it only once
    axiom N2 holds; tests compare the two.
    """
    stray = [v for v in seed if not 0 <= v < len(graph)]
    if stray:
        raise GraphError(f"vertex index out of range: {stray[0]!r}")
    outs = graph.out_masks
    seen = frontier = reduce(or_, map(outs.__getitem__, seed), 0)
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= outs[v]
        frontier = nxt & ~seen
        seen |= nxt
    return frozenset(bits(seen))


def extended_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    """R'(a): the reachable set plus all classes with equal in-neighborhood
    and nested out-neighborhood (the set Q), which always contains ``a``.
    Reference definition on vertex sets; ``pair_topology`` uses the closed
    form on class bitsets."""
    graph = partition.graph
    q: set[int] = set()
    for b in range(len(partition)):
        if (
            partition.vertex_in(b) == partition.vertex_in(a)
            and partition.vertex_out(b) <= partition.vertex_out(a)
        ):
            q.update(partition.classes[b])
    return reachable_set(graph, partition.classes[a]) | frozenset(q)


@dataclass(frozen=True)
class Hierarchy:
    """Laminar family of bitsets over a ground set, with its Hasse tree.
    ``sets`` run from smallest to largest, so each set comes after its
    children; ``children`` lists them by lowest bit."""

    ground: int
    sets: tuple[int, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    root: int


def laminarity_witness(
    sets: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair of sets that overlap without nesting, if any (all pairs;
    the reference for the one pass in ``hasse_forest``)."""
    for s, t in itertools.combinations(sets, 2):
        if s & t and not (s <= t or t <= s):
            return s, t
    return None


def hasse_forest(
    pieces: Sequence[int], sets: Iterable[int], node: Callable[[int, list[T]], T]
) -> list[T] | Rejection:
    """Hasse forest of a family of distinct bitsets whose maximal sets must
    be ``pieces``, disjoint and ordered by lowest bit, as the nodes that
    ``node`` builds, or a staged rejection: ``laminarity`` names a set and an
    earlier set it overlaps without nesting, ``hasse-not-tree`` the maximal
    sets, smallest first, unless they are the pieces.

    One pass from smallest to largest set.  The sets placed so far form a
    forest whose roots are disjoint; each new set must contain every root it
    meets, and becomes their parent.  ``first[c]`` is the smallest set that
    holds element c, and ``top`` (a union-find over set indices) leads from
    it to the root above it, so each set costs one step per root it meets.
    A set meets the roots it absorbs in lowest-bit order, and the pass builds
    its node there, ``node(s, kids)`` from their nodes in that order; it
    returns the nodes of the pieces.
    """
    order = sorted(sets)
    order.sort(key=int.bit_count)  # stable: by size, then by value
    top: list[int] = []
    first: dict[int, int] = {}
    built: list[T] = []
    covered = 0
    for i, s in enumerate(order):
        top.append(i)
        kids: list[T] = []
        meets = s & covered
        while meets:
            r = first[(meets & -meets).bit_length() - 1]
            while top[r] != r:
                top[r] = top[top[r]]
                r = top[r]
            if order[r] & ~s:
                return Rejection("laminarity", (s, order[r]))
            top[r] = i
            kids.append(built[r])
            meets &= ~order[r]
        for c in bits(s & ~covered):
            first[c] = i
        covered |= s
        built.append(node(s, kids))
    roots = [i for i, t in enumerate(top) if t == i]
    maximal = sorted(roots, key=lambda r: order[r] & -order[r])
    if [order[r] for r in maximal] != list(pieces):
        return Rejection("hasse-not-tree", tuple(order[r] for r in roots))
    return [built[r] for r in maximal]


def hasse_tree(ground: int, sets: Iterable[int]) -> Hierarchy | Rejection:
    """Hasse tree of a family of distinct bitsets whose one maximal set must
    be ``ground``, or the staged rejection of ``hasse_forest``, with the sets
    numbered from smallest to largest."""
    placed: list[int] = []
    children: list[tuple[int, ...]] = []

    def node(s: int, kids: list[int]) -> int:
        placed.append(s)
        children.append(tuple(kids))
        return len(placed) - 1

    roots = hasse_forest((ground,), sets, node)
    if isinstance(roots, Rejection):
        return roots
    parent = [-1] * len(placed)
    for p, kids in enumerate(children):
        for c in kids:
            parent[c] = p
    return Hierarchy(
        ground=ground, sets=tuple(placed), parent=tuple(parent), children=tuple(children), root=roots[0]
    )


def lrt_via_hierarchy(graph: ColoredDigraph) -> Topology | Rejection:
    """Topology of the least resolved tree of a connected two-colored graph,
    via extended reachable sets, or a staged rejection.

    No tree is built and no forward construction checks the result: once the
    structure checks and axioms N1-N3 pass, the graph is a best match graph
    and the topology explains it.  Wrap it as
    ``LeafColoredTree(topology, graph.colors_as_dict())`` to get the tree.
    """
    failed = _structure_check(graph)
    if failed is not None:
        return Rejection("axioms", failed)
    family = pair_topology(graph, (1 << len(graph)) - 1)
    return family if isinstance(family, Rejection) else family_topology(family, graph.vertex_ids)


# A cluster family: a node is (vertex bitset, kids), a node's bitset holds
# its kids' bitsets, and the vertices it holds that no kid does are leaves
# directly below it.  Leaf nodes (1 << v, ()) are optional: the pair layer
# builds none, and every reader takes a family with or without them.
Family = tuple


def pair_topology(graph: ColoredDigraph, ground: int) -> Family | Rejection:
    """Least resolved tree of the subgraph that the non-empty vertex mask
    ``ground`` induces, as a cluster family over vertex bitsets, or a staged
    rejection; several pieces are joined under a fresh root.  The caller
    vouches that the subgraph has two colours and no arc inside one; then
    each sink-free piece passes every structure check.

    One body, from the vertex keys to the R' sets.  A class is the bitset of
    its vertices, keyed by both neighbourhoods within ``ground``.  Only the
    out-keys are listed, each once, as the classes whose representatives,
    their smallest vertices, it holds: ``scan_bits`` walks ``key & reps``,
    reading a dense key, such as one of a deep two-colour caterpillar, in
    one C-level scan.  Class a has an arc to class b exactly when a's
    representative lies in b's in-key, so the in-tables are the transpose
    of these lists: one pass over them builds in1 and N(N(.)), a second in2
    and the classes whose N(N(N(.))) leaves N(.), which break N2.  No class
    neighbourhood crosses a piece, so one class numbering serves every
    piece, and the pieces, ordered by smallest vertex, come from N(.).  The
    axioms run piece by piece, each in the order N2, N3, N1, and the first
    violating class (pair) in class order is the witness.  Once they hold,
    each piece is a best match graph and its R' sets form its hierarchy, so
    the one Hasse pass over the R' sets of all pieces cannot fail; its
    rejections stay as safety checks.  Each node is built as the pass
    places its set: its kids are the nodes of its Hasse children, and the
    vertices of the classes whose R' set it is are its own leaves."""
    check_vertex_mask(graph, ground)
    if not ground:
        raise GraphError("a colour pair needs at least one vertex")
    outs, ins = graph.out_masks, graph.in_masks
    keyed: dict[tuple[int, int], int] = {}  # (out-key, in-key) -> the class's vertices
    for v in bits(ground):
        out = outs[v] & ground
        if not out:
            return Rejection("sink-vertex", graph.vertex_ids[v])
        key = out, ins[v] & ground
        keyed[key] = keyed.get(key, 0) | 1 << v
    masks = list(keyed.values())  # classes by smallest vertex
    bit = [1 << a for a in range(len(masks))]
    lows = [m & -m for m in masks]
    label = dict(zip([low.bit_length() - 1 for low in lows], range(len(masks)))).__getitem__
    reps = sum(lows)
    lists = [list(map(label, scan_bits(out & reps))) for out, _ in keyed]
    n1 = [sum(map(bit.__getitem__, row)) for row in lists]
    in1, n2 = [0] * len(masks), []
    for row, bit_a in zip(lists, bit):
        here = 0
        for b in row:
            in1[b] |= bit_a
            here |= n1[b]
        n2.append(here)
    in2 = [0] * len(masks)
    broken = 0  # the classes a with N(N(N(a))) outside N(a)
    same_in: dict[int, int] = {}  # an in-neighbourhood -> the classes that have it
    for row, n1_a, in1_a, bit_a in zip(lists, n1, in1, bit):
        here = 0
        for b in row:
            in2[b] |= in1_a
            here |= n2[b]
        if here & ~n1_a:
            broken |= bit_a
        same_in[in1_a] = same_in.get(in1_a, 0) | bit_a
    pieces = _blocks((1 << len(masks)) - 1, (out | bit_a for out, bit_a in zip(n1, bit)))

    def fail(stage: str, *witness: int) -> Rejection:
        ids = tuple(_class_ids(graph, masks, bit[a]) for a in witness)
        return Rejection("axioms", CheckResult(False, stage, ids if len(ids) > 1 else ids[0]))

    # Arcs join the two colours, so only classes of one colour can share
    # out-neighbours (N3) and only classes of two colours can meet N(N(.))
    # through N(.) (N1); each loop visits the later classes b > a of a's
    # piece that the premise of its axiom leaves open, and only when there
    # is one.  A class's colour is that of its highest vertex.
    color_of = graph.color_of
    tops = [color_of[m.bit_length() - 1] for m in masks]
    first_color = sum([bit_a for bit_a, c in zip(bit, tops) if c == tops[0]])
    for piece in pieces:
        hit = piece & broken
        if hit:
            return fail("N2", (hit & -hit).bit_length() - 1)
        classes = list(bits(piece))
        for a in classes:
            same = piece & (first_color if first_color >> a & 1 else ~first_color)
            open_b = same & ~n2[a] & ~in2[a] & (-2 << a)
            if open_b:
                n1_a, in1_a = n1[a], in1[a]
                for b in bits(open_b):
                    n1_b = n1[b]
                    if n1_a & n1_b and not (in1_a == in1[b] and (not n1_a & ~n1_b or not n1_b & ~n1_a)):
                        return fail("N3", a, b)
        for a in classes:
            n1_a, n2_a = n1[a], n2[a]
            other = piece & (~first_color if first_color >> a & 1 else first_color)
            open_b = other & ~n1_a & ~in1[a] & (-2 << a)
            if open_b:
                for b in bits(open_b):
                    if n1_a & n2[b] or n1[b] & n2_a:
                        return fail("N1", a, b)

    # R'(a) = N(a) | N(N(a)) | Q(a) in closed form, Q(a) the classes with
    # a's in-neighbourhood whose out-neighbourhood lies in N(a): a alone
    # when no other class shares its in-neighbourhood
    attached: dict[int, int] = {}  # an R' set -> the vertices of the classes whose R' set it is
    for mask, n1_a, n2_a, in1_a, bit_a in zip(masks, n1, n2, in1, bit):
        q = group = same_in[in1_a]
        if group != bit_a:
            q = 0
            for b in bits(group):
                if not n1[b] & ~n1_a:
                    q |= bit[b]
        r = n1_a | n2_a | q
        attached[r] = attached.get(r, 0) | mask

    def node(s: int, kids: list[Family]) -> Family:
        own = attached[s]
        if not own and len(kids) == 1:
            return kids[0]
        for kid in kids:
            own |= kid[0]
        return own, tuple(kids)

    families = hasse_forest(pieces, attached, node)
    if isinstance(families, Rejection):
        return Rejection(families.stage, tuple(_class_ids(graph, masks, m) for m in families.witness))
    return families[0] if len(families) == 1 else (ground, tuple(families))  # the pieces cover ground


def family_topology(family: Family, names: Sequence[str]) -> Topology:
    """Nested-tuple topology of a cluster family, bit v named ``names[v]``,
    with or without leaf nodes; iterative, so any depth is fine."""
    order, stack = [], [family]
    while stack:  # parents before their kids
        order.append(stack.pop())
        stack.extend(order[-1][1])
    named: dict[int, Topology] = {}  # by node identity; ``order`` keeps every node alive
    for node in reversed(order):
        mask, kids = node
        below = [named[id(k)] for k in kids]
        below += map(names.__getitem__, bits(mask & ~sum(k[0] for k in kids)))  # kids are disjoint
        named[id(node)] = tuple(below) if len(below) > 1 else below[0]
    return named[id(family)]
