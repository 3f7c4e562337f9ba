"""Two-colored recognition: neighborhood axioms, reachable sets, and the
hierarchy route to the unique least resolved tree.

No subgraph is copied.  A graph is read through its own adjacency, each
vertex's out- and in-neighbourhood as a Python-int bitset (``out_masks``,
``in_masks``), and a two-colored graph inside it is a vertex mask, such as
two colours of one component of the n-colour recognizer.  ``pair_classes``
reads its thinness classes off the masks and keeps one class table per
pair: class-level neighbourhoods are bitsets too, bit ``c`` standing for
class ``c``.  No class neighbourhood crosses a weakly connected piece, so
the pieces are class bitsets over that one numbering, found by the same
flood fill as the graph's components.  All axiom algebra runs on these
bitsets; class granularity makes that lossless.  Axioms are checked piece
by piece, in the order N2, N3, N1, and the first violating class (pair) in
class order is the witness.

The hierarchy route uses closed forms that hold only once the axioms do.
With N2, N(N(N(a))) lies in N(a), so the reachable set of class a is
R(a) = N(a) | N(N(a)) and no search is needed; the extended reachable set
R'(a) adds Q(a), the classes with a's in-neighbourhood whose
out-neighbourhood lies in N(a).  One pass over the distinct R' sets,
smallest first, checks that they are laminar and links each to its Hasse
parent.  ``reachable_set`` (a BFS), ``extended_reachable_set`` and
``laminarity_witness`` are the plain definitions on vertex sets, kept as
the references the closed forms are tested against.

A connected, sink-free two-colored digraph satisfies N1-N3 exactly when it
is a best match graph, and then the Hasse tree of its extended reachable
sets is its least resolved tree.  ``check_axioms`` and ``lrt_via_hierarchy``
check the colour count and same-colour arcs, then take the first sink and
the pieces from one ``pair_classes`` call and go on with the one piece.  The
n-colour recognizer calls ``pair_topology`` on each colour pair directly: a
pair has no same-colour arc, so its sink-free pieces pass every structure
check.  Both run the same per-piece steps on the pair's one class table,
down to the tree as a cluster family over vertex bitsets, which
``lrt_via_hierarchy`` names.  No forward construction runs here: the one
exact gate is the n-colour recognizer's final arc-for-arc comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

# bmg_of_tree and thinness_partition stay bound: perfbench/layers.py traces them
from .bmg import bmg_of_tree  # noqa: F401
from .digraph import ColoredDigraph, ThinnessPartition, bits, bitset_components, thinness_partition  # noqa: F401
from .tree import Topology
from .verdicts import CheckResult, Rejection


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
    and ``ins[a]``, each class listed once."""
    bit = [1 << c for c in range(len(outs))]

    def masks(class_sets) -> tuple[int, ...]:
        return tuple(sum(map(bit.__getitem__, s)) for s in class_sets)

    def step(table: tuple[int, ...], class_sets) -> tuple[int, ...]:
        return tuple(reduce(or_, map(table.__getitem__, s), 0) for s in class_sets)

    n1, in1 = masks(outs), masks(ins)
    n2 = step(n1, outs)
    return ClassNeighborhoodTables(n1=n1, n2=n2, n3=step(n2, outs), in1=in1, in2=step(in1, ins))


# A colour pair's thinness classes as member lists by smallest member, its
# class tables, and its weakly connected pieces as class bitsets.
PairClasses = tuple[list[list[int]], ClassNeighborhoodTables, list[int]]


def pair_classes(graph: ColoredDigraph, ground: int) -> PairClasses | Rejection:
    """Thinness classes, class tables and pieces of the subgraph that the
    vertex mask ``ground`` induces, or its first sink.  Both neighbourhoods
    within ``ground`` key a vertex's class.  Keys are lifted one class at a
    time: the lowest vertex left names a class, whose members are then
    cleared.  No class neighbourhood crosses a piece, so one class numbering
    serves every piece, and the pieces, ordered by smallest vertex, come
    from the class tables."""
    outs, ins = graph.out_masks, graph.in_masks
    index: dict[tuple[int, int], int] = {}
    members: list[list[int]] = []
    masks: list[int] = []
    class_of: dict[int, int] = {}
    for v in bits(ground):
        out = outs[v] & ground
        if not out:
            return Rejection("sink-vertex", graph.vertex_ids[v])
        a = class_of[v] = index.setdefault((out, ins[v] & ground), len(members))
        if a == len(members):
            members.append([])
            masks.append(0)
        members[a].append(v)
        masks[a] |= 1 << v

    def lift(mask: int) -> list[int]:
        found = []
        while mask:
            found.append(class_of[(mask & -mask).bit_length() - 1])
            mask &= ~masks[found[-1]]
        return found

    tables = neighborhood_tables([lift(out) for out, _ in index], [lift(into) for _, into in index])
    return members, tables, bitset_components(tables.n1, tables.in1, (1 << len(members)) - 1)


def _structure_check(graph: ColoredDigraph) -> PairClasses | CheckResult:
    """The classes of a two-colored graph without same-colour arcs, sinks or
    a second piece, or the first such failure; once no vertex is a sink, the
    pieces are the weakly connected components."""
    if len(graph.color_ids) != 2:
        return CheckResult(False, "wrong-color-count", graph.vertex_ids)
    bad = graph.same_color_arc()
    if bad is not None:
        i, j = bad
        return CheckResult(False, "same-color-arc", (graph.vertex_ids[i], graph.vertex_ids[j]))
    classes = pair_classes(graph, (1 << len(graph)) - 1)
    if isinstance(classes, Rejection):
        return CheckResult(False, classes.stage, classes.witness)
    if len(classes[2]) != 1:  # each piece's vertex ids; pieces come by smallest vertex
        members, ids = classes[0], graph.vertex_ids
        pieces = (sorted(v for a in bits(p) for v in members[a]) for p in classes[2])
        return CheckResult(False, "disconnected", tuple(tuple(ids[v] for v in p) for p in pieces))
    return classes


def check_axioms(graph: ColoredDigraph) -> CheckResult:
    """Check the three out-neighborhood axioms of connected two-colored graphs."""
    classes = _structure_check(graph)
    if isinstance(classes, CheckResult):
        return classes
    members, tables, (piece,) = classes
    return _axiom_check(graph, members, tables, piece)


def _axiom_check(
    graph: ColoredDigraph, members: list[list[int]], tables: ClassNeighborhoodTables, piece: int
) -> CheckResult:
    """N2, N3, N1 on the classes in the class bitset ``piece``."""
    n1, n2, n3, in1, in2 = tables.n1, tables.n2, tables.n3, tables.in1, tables.in2
    classes = list(bits(piece))

    def fail(stage: str, *witness: int) -> CheckResult:
        ids = tuple(tuple(graph.vertex_ids[v] for v in members[a]) for a in witness)
        return CheckResult(False, stage, ids if len(ids) > 1 else ids[0])

    for a in classes:
        if n3[a] & ~n1[a]:
            return fail("N2", a)
    # Arcs join the two colours, so only classes of one colour can share
    # out-neighbours (N3) and only classes of two colours can meet N(N(.))
    # through N(.) (N1); each loop visits the later classes b > a that the
    # premise of its axiom leaves open.
    color_of = graph.color_of
    first = color_of[members[classes[0]][0]]
    first_color = sum(1 << a for a in classes if color_of[members[a][0]] == first)
    other_color = piece ^ first_color
    for a in classes:
        n1a = n1[a]
        same_color = first_color if first_color >> a & 1 else other_color
        for b in bits(same_color & ~n2[a] & ~in2[a] & ~((2 << a) - 1)):
            n1b = n1[b]
            if n1a & n1b and not (in1[a] == in1[b] and (not n1a & ~n1b or not n1b & ~n1a)):
                return fail("N3", a, b)
    for a in classes:
        n1a, n2a = n1[a], n2[a]
        other = other_color if first_color >> a & 1 else first_color
        for b in bits(other & ~n1a & ~in1[a] & ~((2 << a) - 1)):
            if n1a & n2[b] or n1[b] & n2a:
                return fail("N1", a, b)
    return CheckResult(True)


def reachable_set(graph: ColoredDigraph, seed: frozenset[int] | tuple[int, ...]) -> frozenset[int]:
    """Vertices reachable from ``seed`` along one or more arcs (plain BFS).

    This is the reference definition, meaningful on any graph.  The hierarchy
    route uses the closed form N | N(N) instead, which equals it only once
    axiom N2 holds; tests compare the two.
    """
    outs = graph.out_masks
    seen = frontier = reduce(or_, map(outs.__getitem__, seed), 0)
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= outs[v]
        frontier = nxt & ~seen
        seen |= nxt
    return frozenset(bits(seen))


def class_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    return reachable_set(partition.graph, partition.classes[a])


def extended_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    """R'(a): the reachable set plus all classes with equal in-neighborhood
    and nested out-neighborhood (the set Q), which always contains ``a``.
    Reference definition on vertex sets; see ``extended_reachable_masks``."""
    graph = partition.graph
    q: set[int] = set()
    for b in range(len(partition)):
        if (
            partition.vertex_in(b) == partition.vertex_in(a)
            and partition.vertex_out(b) <= partition.vertex_out(a)
        ):
            q.update(partition.classes[b])
    return reachable_set(graph, partition.classes[a]) | frozenset(q)


def extended_reachable_masks(tables: ClassNeighborhoodTables) -> tuple[int, ...]:
    """R'(a) of every class a as a class bitset, in closed form:
    N(a) | N(N(a)) | Q(a), with Q(a) looked for among the classes that share
    a's in-neighbourhood.  Equals ``extended_reachable_set`` once N2 holds."""
    n1, n2, in1 = tables.n1, tables.n2, tables.in1
    same_in: dict[int, int] = {}
    for b, m in enumerate(in1):
        same_in[m] = same_in.get(m, 0) | 1 << b
    out = []
    for a, n1a in enumerate(n1):
        q = 0
        for b in bits(same_in[in1[a]]):
            if not n1[b] & ~n1a:
                q |= 1 << b
        out.append(n1a | n2[a] | q)
    return tuple(out)


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
    the reference for the one pass in ``hasse_tree``)."""
    for s, t in itertools.combinations(sets, 2):
        if s & t and not (s <= t or t <= s):
            return s, t
    return None


def hasse_tree(ground: int, sets: Iterable[int]) -> Hierarchy | Rejection:
    """Hasse tree of a family of distinct bitsets, or a staged rejection:
    ``laminarity`` names a set and an earlier set it overlaps without
    nesting, ``hasse-not-tree`` the maximal sets unless the only one is
    ``ground``.

    One pass from smallest to largest set.  The sets placed so far form a
    forest whose roots are disjoint; each new set must contain every root it
    meets, and becomes their parent.  ``first[c]`` is the smallest set that
    holds element c, and ``top`` (a union-find over set indices) leads from
    it to the root above it, so each set costs one step per root it meets.
    """
    order = tuple(sorted(sets, key=lambda s: (s.bit_count(), s)))
    parent = [-1] * len(order)
    top: list[int] = []
    first: dict[int, int] = {}
    covered = 0
    for i, s in enumerate(order):
        top.append(i)
        meets = s & covered
        while meets:
            r = first[(meets & -meets).bit_length() - 1]
            while top[r] != r:
                top[r] = top[top[r]]
                r = top[r]
            if order[r] & ~s:
                return Rejection("laminarity", (s, order[r]))
            parent[r] = top[r] = i
            meets &= ~order[r]
        for c in bits(s & ~covered):
            first[c] = i
        covered |= s
    roots = [i for i, p in enumerate(parent) if p == -1]
    if len(roots) != 1 or order[roots[0]] != ground:
        return Rejection("hasse-not-tree", tuple(order[r] for r in roots))
    children: list[list[int]] = [[] for _ in order]
    for i, p in enumerate(parent):
        if p != -1:
            children[p].append(i)
    for kids in children:  # the roots a set absorbs are disjoint
        kids.sort(key=lambda i: order[i] & -order[i])
    return Hierarchy(
        ground=ground,
        sets=order,
        parent=tuple(parent),
        children=tuple(tuple(kids) for kids in children),
        root=roots[0],
    )


def lrt_via_hierarchy(graph: ColoredDigraph) -> Topology | Rejection:
    """Topology of the least resolved tree of a connected two-colored graph,
    via extended reachable sets, or a staged rejection.

    No tree is built and no forward construction checks the result: once the
    structure checks and axioms N1-N3 pass, the graph is a best match graph
    and the topology explains it.  Wrap it as
    ``LeafColoredTree(topology, graph.colors_as_dict())`` to get the tree.
    """
    classes = _structure_check(graph)
    if isinstance(classes, CheckResult):
        return Rejection("axioms", classes)
    family = _pieces_family(graph, *classes)
    return family if isinstance(family, Rejection) else family_topology(family, graph.vertex_ids)


# A cluster family: a node is (vertex bitset, kids), a leaf (1 << v, ()), and
# a node's bitset is the union of its kids'.
Family = tuple


def pair_topology(graph: ColoredDigraph, ground: int) -> Family | Rejection:
    """Least resolved tree of the subgraph that the vertex mask ``ground``
    induces, as a cluster family over vertex bitsets, or a staged rejection;
    several pieces are joined under a fresh root.  The caller vouches that
    the subgraph has two colours and no arc inside one; then each sink-free
    piece passes every structure check."""
    classes = pair_classes(graph, ground)
    return classes if isinstance(classes, Rejection) else _pieces_family(graph, *classes)


def _pieces_family(
    graph: ColoredDigraph, members: list[list[int]], tables: ClassNeighborhoodTables, pieces: list[int]
) -> Family | Rejection:
    """Least resolved tree of sink-free pieces, each in turn through axioms,
    R' and its Hasse tree; the first piece to fail gives the rejection."""
    r_ext = extended_reachable_masks(tables)
    families: list[Family] = []
    for piece in pieces:
        verdict = _axiom_check(graph, members, tables, piece)
        if not verdict:
            return Rejection("axioms", verdict)
        hierarchy = hasse_tree(piece, {r_ext[a] for a in bits(piece)})
        if isinstance(hierarchy, Rejection):
            ids = graph.vertex_ids
            witness = (sorted(ids[v] for a in bits(m) for v in members[a]) for m in hierarchy.witness)
            return Rejection(hierarchy.stage, tuple(map(tuple, witness)))
        families.append(_family(members, r_ext, hierarchy))
    return families[0] if len(families) == 1 else (sum(f[0] for f in families), tuple(families))


def _family(members: list[list[int]], r_ext: tuple[int, ...], hierarchy: Hierarchy) -> Family:
    """The Hasse tree as a cluster family, built bottom-up: a node's kids are
    its Hasse children, then the vertices of the classes whose R' set it is."""
    node_of = {s: i for i, s in enumerate(hierarchy.sets)}
    attached: list[list[int]] = [[] for _ in hierarchy.sets]
    for a in bits(hierarchy.ground):
        attached[node_of[r_ext[a]]].extend(members[a])
    built: list[Family] = []
    for i, kids_at in enumerate(hierarchy.children):  # children before parents
        kids = [built[c] for c in kids_at]
        kids.extend((1 << v, ()) for v in sorted(attached[i]))
        built.append((sum(k[0] for k in kids), tuple(kids)) if len(kids) > 1 else kids[0])
    return built[hierarchy.root]


def family_topology(family: Family, names: Sequence[str]) -> Topology:
    """Nested-tuple topology of a cluster family, bit v named ``names[v]``;
    iterative, so any depth is fine."""
    order, stack = [], [family]
    while stack:  # parents before their kids
        order.append(stack.pop())
        stack.extend(order[-1][1])
    named: dict[int, Topology] = {}  # by node identity; ``order`` keeps every node alive
    for node in reversed(order):
        mask, kids = node
        named[id(node)] = tuple(named[id(k)] for k in kids) if kids else names[mask.bit_length() - 1]
    return named[id(family)]
