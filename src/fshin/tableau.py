"""Completion-forest tableau engine.

Decides fuzzy ABox consistency by expanding a forest of labelled nodes and
edges under the completion rules, backtracking depth-first over the
nondeterministic choices (disjunction splits, merge picks, general-inclusion
splits).  Blocking keeps branches finite: label-equality blocking with
un/re-blocking for f-SI KBs; for f-SHIN and GCI KBs, Forest.pairwise turns
on pair-wise blocking and the number-restriction rules.

Rule priority (fixed, deterministic): clash check, then negation pushing,
then deterministic decompositions, then propagations, then merges, then
generators, then the remaining nondeterministic splits.  _RULES lists the
rules in that order; Forest.rules keeps those the forest's fragment runs,
and expand walks it: f-SI leaves out both merges, the at-least generator
and the inclusion split, f-SHIN the inclusion split.  Nodes are always
scanned oldest-first and label sets in a canonical order, so identical
input yields identical behaviour.  Each rule is written once: _propagate
holds negation, decomposition and the table _PROPAGATIONS (universal,
negated existential, and their transitive forms), _generate both witness
generators, and Triple.atmost and Triple.atleast the views of a count
triple that the merges, the counting clash, the at-least generator and the
property audit of the tests (tests/audit.py) read.

The canonical order of triples is by subject text, then INEQ_ORDER, then
degree (Triple.key).  Each fact of the forest is kept once: Forest.edges
maps (a, b) to the edge's role triples, and the rest lives on the nodes.
A Node holds id, parent, root_name, label, distinct (the ids it is
distinct from) and merged_into (the root it was merged into), and the
views derived from them, which the forest keeps current as it changes
rather than recomputing them on every call: ordered, the label in
canonical order (what Forest.sorted_label returns); _kinds, rebuilt on
demand, its triples grouped by rule kind; adjacent, the keys of the edges
at it; neighbours, its neighbour_bounds results; status, its blocking
status, which starts unblocked; and children, the ids of its children
(below).  Besides,

- a Triple caches its order key, bound, unary clash, rule kind and the
  triples the rules derive from it (see below);
- a Forest keeps the first clash of each node pair whose edges clash, the
  set of nodes whose label holds a triple that clashes on its own or a
  conjugated pair, the least root the ABox makes distinct from itself, and
  the dirty sets and their holders (below).  add_label looks for a
  conjugated pair only when a neighbour of the added triple's place in
  `ordered` has its subject text, since the triples on one subject lie
  in a run of equal text.

These hold because every change goes through the Forest methods that keep
them (new_node, add_label, clear_label, set_edge, pop_edge, union_edge,
set_parent, add_neq, set_field); labels only grow, except that a root
merge empties the merged node and undo takes triples back; distinct sets
are symmetric; and node ids are handed out in increasing order and only
the newest node is ever removed, by undo.  clone copies the mutable
indexes and shares the rest.  Forest.rbox, the role hierarchy, is closed
once by prepare and only read.

Triples are shared: Triple is hash-consed through syntax's one constructor
table, a dict of weak references, like the concepts and roles it holds,
keyed by (Triple, subject, ineq, numerator, denominator), so every triple a
rule derives or init_forest makes is one object per value, equality is
identity and the hash is object's, as an Ineq's is.  The caches above are
filled once per instance; the newest 2^16 triples the process made are also
held in syntax._KEEP, so a triple that no forest holds any more keeps its
caches for the next task that derives it.  A triple dropped from the
keep-alive that a forest still holds stays in the table, so two equal
triples never exist at once.  Hashes are ids, so the order of a set of
triples varies between runs, which nothing may follow (below).
Triple.parts holds the pushed negation, the operands and the quantifier
body, and Triple.edge the role triple of every witness edge the generators
make for it.  Triple.over and Triple.inverse build through the table on
each call, so no cache of a triple refers back to it, and reference
counting frees it once its last forest and the keep-alive let go.

Undo trail.  solve backtracks on one forest.  Once mark() has been called,
each of those methods and blocking append to Forest.trail a record
(function, arguments) that reverses their change, and each mark() appends
one more, a snapshot of the dirty sets and holders (below).  Each frame of
solve's stack holds the trail length at its choice point, and each further
alternative starts with undo(mark), which runs the newer records newest
first and then the mark's own snapshot.  The records put back facts only
(labels, edges, parents, children, distinct sets, merged_into and
statuses), as the change found them; a value a change replaces (a cleared
label, an edge label, an adjacent or distinct set) is kept by reference,
since none is changed in place.  A field write is one setattr record.  No
write to a dirty set or a holder is logged: every label add, scan, fold
and blocking pass writes them, and the mark's snapshot puts every set back
at once, whatever the scans and folds since the mark did to them (the
snapshot of a nested mark, which an outer undo pops and runs on its way,
is overwritten by the outer one).  Derived state is reset, not saved.
The caches, Node._kinds and both ends' neighbour tables, are dropped and
rebuilt on the next read.  The clash indexes are emptied once the records
have run: solve marks only at a choice point, which expand returns right
after find_clash found nothing, with no change since the fold, so they are
empty at every mark (mark() asserts it, and folds the fresh set first for a
caller that marks a forest before expanding it, so the snapshot's fresh
set is empty too).  self_distinct is set once, by init_forest:
a merge never makes a node distinct from itself.  Undo does not restore set
and dict order: a popped edge comes back at the end of Forest.edges.  So no
result follows such an order: a root merge moves y's edges in key order,
and distinct sets are only tested for membership.  first_clash_forest is
the one clone, taken at the first clash while a choice point is open.
A record holds nodes and the forest's dicts and lists, never the forest,
so the trail makes no reference cycle and stays with the forest: a caller
that marked it before solve can undo back to its mark (services.Probes
marks a KB's initial forest for glb and lub, and undoes each probe back to
it).

Dirty sets.  Forest.dirty holds one Python int per scan over the nodes,
a bitset with bit x for node x: one per rule of Forest.rules (the
deterministic rules as one group in node-major order, each generator, the
two merge passes, the disjunction and inclusion splits), then the counting
clash's, then blocking's, then the fresh set.  A label add marks its node
directly: add_label puts it into the sets of the groups that read the
added triple's kind (Forest._wakes, from _READS) and into blocking's, and
into no other set (see the argument below).  A node that is created,
re-parented or cleared, or at which an edge changes (Forest._changed),
joins the fresh set instead, which costs one int.  blocking() folds the
fresh set into every other set, once per expand iteration and before its
own check, and empties it.  A set takes only the nodes that may enter it
(Forest.holders): for a scan group that reads some kinds of triple
(_READS), the nodes whose label holds one, since the group finds nothing
at the others; every node for _gci_at and for blocking.  A node whose
blocking status changes kind goes back into every scan set, and a grown
distinct set puts every holder of a count triple into the counting
clash's.  expand and find_clash skip an empty set.  Each scan goes
through _first, which takes the lowest set bit, (v & -v).bit_length() - 1,
and drops each node where it finds nothing as it goes; it never writes its
set back at the end, since the rule that fires may mark a node the scan
dropped before.
Node ids are handed out in increasing order, so the lowest bit is the
oldest node, the one a walk over Forest.nodes in id order would reach
first, and the scans fire in the order that walk gives.  blocking()
empties its set and checks those nodes and their descendants again, in id
order, and no others; it reaches the descendants through Node.children,
which new_node and set_parent keep, and returns at once when its set is
empty.  A root in the set is followed to its children but never checked
itself: a root is unblocked for good, as no node gains or loses a parent
of None.  A node's status depends on its parent's status, its in-edge, and
the labels and in-edges of itself and its ancestors (the blocker
candidates and their parents), all on its path to the root; so a change
that can move it puts the node or an ancestor into the set.  Every parent
has a smaller id than its child: a generated node takes the next id below
an existing parent, roots are made before any generated node, and only a
root's children are re-parented, to another root.  So the pass in id order
sees a parent's new status before its children's, and each child it adds
lies above the id being checked.  It traces the block events as the
statuses change, oldest first, blocks before unblocks: the events a
comparison of all the old and new statuses would give.  A node in a set
without need is always safe: the scan or the check runs there and changes
nothing.  The sets roll back with the mark's snapshot, so after an undo a
node outside a set still means that the scan finds nothing, or that the
status holds, in the state the undo put back.

A group's result at x depends on x's label, the edges at x, x's blocking
status and, beyond those, only on the labels and parents of x's
neighbours, the distinct sets and x's merged_into.  Of x's own label, a
group reads the triples of the kinds in its _READS, and otherwise only
tests whether a conclusion is there already: a derived triple, a split's
alternative, an inclusion split's, or, through a self-loop, a witness.  So
an add to x's label of a triple of another kind can only satisfy a
conclusion that was missing, which switches the group off at x, never on;
add_label wakes only the groups that read the added kind.  The others can
only switch a group off at x, never on, except where x is put into the set
for them:

- a neighbour's label only grows, and a grown label only satisfies a
  propagation, a witness or a split that was missing; the one label that
  empties, a root merged away, first loses every edge, so each former
  neighbour is changed;
- distinct sets only grow and merged_into is set once, and a new distinct
  pair only rules out a merge pair or satisfies an at-least, and a merged
  node takes no more inclusion splits; a new distinct pair can complete a
  counting clash, which is why add_neq puts every holder into that set;
- a neighbour's parent changes only when its root parent is merged into
  another root, which re-links the neighbour's edge and so changes x when
  x is either root; whether one non-root neighbour is an ancestor of
  another never changes, since only children of roots are re-parented.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, AbstractSet, Iterable, Optional, Union

from .degrees import (
    Degree,
    INEQ_ORDER,
    Ineq,
    ONE,
    SignedBound,
    ZERO,
    conjugates,
    format_degree,
    fraction_text,
    neg_lukasiewicz,
    reflect,
)
from .kb import ABox, RoleHierarchy, compute_ell
from .oracle import FuzzyInterpretation
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Bottom,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Role,
    Subject,
    Top,
    _hash_consed,
    _new_triple,
    _Shared,
    inv,
)

if TYPE_CHECKING:
    from .services import Prepared


class ResourceLimit(Exception):
    """Raised when the configured work budget is exhausted; distinct from
    both verdicts."""


_AT_LEAST_0, _AT_MOST_0 = SignedBound(Ineq.GE, ZERO), SignedBound(Ineq.LE, ZERO)
_AT_LEAST_1, _AT_MOST_1 = SignedBound(Ineq.GE, ONE), SignedBound(Ineq.LE, ONE)


@_hash_consed
class Triple(_Shared):
    subject: Subject  # Concept in node labels, Role in edge labels
    ineq: Ineq
    degree: Degree
    __new__ = _new_triple

    # Derived values are cached on the shared instance the first time they
    # are read (cached_property writes the instance dict, which a frozen
    # dataclass allows); they are not fields, so repr and the constructor
    # table see (subject, ineq, degree) alone.

    @cached_property
    def key(self) -> tuple[str, int, Degree]:
        """Canonical order: subject text, then INEQ_ORDER, then degree."""
        return (str(self.subject), INEQ_ORDER[self.ineq], self.degree)

    @cached_property
    def unary_clash(self) -> Optional[str]:
        """Kind of clash this triple is on its own ("bottom", "top",
        "interval"), or None: its bound conjugates what every degree of its
        subject meets, <= 0 for bottom, >= 1 for top, and >= 0 and <= 1 for
        any subject."""
        c, b = self.subject, self.bound
        if isinstance(c, Bottom) and conjugates(b, _AT_MOST_0):
            return "bottom"
        if isinstance(c, Top) and conjugates(b, _AT_LEAST_1):
            return "top"
        if conjugates(b, _AT_LEAST_0) or conjugates(b, _AT_MOST_1):
            return "interval"
        return None

    @cached_property
    def kind(self) -> Optional[str]:
        """The group of rules that reads this triple, or None for atoms."""
        c, positive = self.subject, self.ineq.positive
        if isinstance(c, Not):
            return "not"
        if isinstance(c, (And, Or)):
            return "decompose" if isinstance(c, And) == positive else "split"
        if isinstance(c, Forall):
            return "forall+" if positive else "forall-"
        if isinstance(c, Exists):
            return "exists+" if positive else "exists-"
        if isinstance(c, (AtLeast, AtMost)):
            return "count"
        return None

    @cached_property
    def parts(self) -> tuple["Triple", ...]:
        """The triples the concept rules derive from this one: the pushed
        negation, both operands of a conjunction or disjunction, or a
        quantifier's body."""
        c, k, n = self.subject, self.ineq, self.degree
        if isinstance(c, Not):
            return (Triple(c.arg, reflect(k), neg_lukasiewicz(n)),)
        if isinstance(c, (And, Or)):
            return (Triple(c.left, k, n), Triple(c.right, k, n))
        if isinstance(c, (Exists, Forall)):
            return (Triple(c.body, k, n),)
        return ()

    def over(self, r: Role) -> "Triple":
        """This quantifier triple over role r; self when r is its own role."""
        c = self.subject
        return self if r is c.role else Triple(type(c)(r, c.body), self.ineq, self.degree)

    @property
    def inverse(self) -> "Triple":
        """This role triple read in the other direction."""
        assert isinstance(self.subject, Role)
        return Triple(inv(self.subject), self.ineq, self.degree)

    @cached_property
    def edge(self) -> "Triple":
        """The role triple on each edge to a witness of this triple: its
        bound when positive (exists, at-least), else its reflected bound."""
        bound = self.bound if self.ineq.positive else self.reflected
        return Triple(self.subject.role, bound.ineq, bound.degree)

    @cached_property
    def atmost(self) -> Optional[tuple[AtMost, SignedBound, str]]:
        """(at-most concept, probe, merge rule) when this triple caps the
        neighbours whose bound conjugates the probe: a positive at-most, or
        a negative at-least read as its at-most counterpart; else None."""
        c = self.subject
        if isinstance(c, AtMost) and self.ineq.positive:
            return c, self.reflected, "atmost-merge"
        # a negative (>= m R) caps at m - 1, so (>= 0 R) caps nothing
        if isinstance(c, AtLeast) and self.ineq.negative and c.count >= 1:
            return AtMost(c.count - 1, c.role), self.bound, "atleast-merge"
        return None

    @cached_property
    def atleast(self) -> Optional[tuple[AtLeast, "Triple", str]]:
        """(at-least concept, Triple.edge, generator rule) when this triple
        asks for neighbours through that edge's bound: a positive at-least,
        or a negative at-most read as its at-least counterpart (the <=-neg
        rule delegates to >=-pos); else None."""
        c = self.subject
        if isinstance(c, AtLeast) and self.ineq.positive and c.count >= 1:
            return c, self.edge, "atleast-pos"
        if isinstance(c, AtMost) and self.ineq.negative:
            return AtLeast(c.count + 1, c.role), self.edge, "atmost-neg"
        return None

    @cached_property
    def bound(self) -> SignedBound:
        return SignedBound(self.ineq, self.degree)

    @cached_property
    def reflected(self) -> SignedBound:
        """The bound with reflected inequality and degree 1 - n: what an
        edge must conjugate for a universal to apply, or carry for a
        negated universal's witness."""
        return SignedBound(reflect(self.ineq), neg_lukasiewicz(self.degree))

    def __str__(self) -> str:
        return f"<{self.subject},{self.ineq},{format_degree(self.degree)}>"


triple_key = attrgetter("key")

UNBLOCKED = "unblocked"
DIRECT = "direct"
INDIRECT = "indirect"
_UNBLOCKED_STATUS = (UNBLOCKED, None)
_INDIRECT_STATUS = (INDIRECT, None)
_NO_EDGE: frozenset = frozenset()  # a missing edge's label


@dataclass(slots=True)
class Node:
    id: int
    parent: Optional[int] = None
    root_name: Optional[str] = None  # on the roots of individuals alone
    # the label changes only through add() and clear(), which keep
    # `ordered`, the label in canonical order, in step with it
    label: set[Triple] = field(default_factory=set)
    ordered: list[Triple] = field(default_factory=list, repr=False, compare=False)
    # kind -> triples of that kind in canonical order; rebuilt on first read
    # after a change, never changed in place, so copies may share it
    _kinds: Optional[dict[str, list[Triple]]] = field(default=None, repr=False, compare=False)
    # the ids of the node's children as a bitset, bit x for node x, which
    # Forest.blocking follows from a changed node down to its descendants
    children: int = field(default=0, repr=False, compare=False)
    # (kind, blocker) as of the last Forest.blocking(); unblocked before it
    status: tuple[str, Optional[int]] = field(default=_UNBLOCKED_STATUS, compare=False)
    # the keys of the edges that start or end here, and role ->
    # neighbour_bounds result, emptied when an edge here changes or is
    # undone; both are replaced, never changed in place, so copies share them
    adjacent: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False, compare=False)
    neighbours: dict[Role, list[tuple[int, SignedBound]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    # symmetric across nodes, and replaced, never changed in place
    distinct: frozenset[int] = field(default=frozenset(), repr=False, compare=False)
    merged_into: Optional[int] = field(default=None, compare=False)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def kinds(self) -> dict[str, list[Triple]]:
        """Triple.kind -> the label's triples of that kind, in canonical
        order."""
        if self._kinds is None:
            kinds: dict[str, list[Triple]] = {}
            for t in self.ordered:
                if t.kind:
                    kinds.setdefault(t.kind, []).append(t)
            self._kinds = kinds
        return self._kinds

    def of_kind(self, kind: str) -> list[Triple]:
        return self.kinds().get(kind, [])

    def add(self, t: Triple) -> int:
        """Add t, which the label lacks; returns its place in `ordered`."""
        self.label.add(t)
        self._kinds = None
        i = bisect_right(self.ordered, t.key, key=triple_key)
        self.ordered.insert(i, t)
        return i

    def conjugate_of(self, i: int) -> Optional[Triple]:
        """The first triple of `ordered` on the subject of the triple at
        place i whose bound conjugates that triple's, or None."""
        ordered = self.ordered
        t = ordered[i]
        # equal subjects have equal text, so the triples on t's subject lie
        # in the run of equal text around t in the canonical order
        text, subject, bound = t.key[0], t.subject, t.bound
        lo, hi = i, i + 1
        while lo > 0 and ordered[lo - 1].key[0] == text:
            lo -= 1
        while hi < len(ordered) and ordered[hi].key[0] == text:
            hi += 1
        # concepts are shared instances, so identity is equality
        for u in ordered[lo:hi]:
            if u.subject is subject and conjugates(u.bound, bound):
                return u
        return None

    def _unadd(self, t: Triple, i: int) -> None:
        """Undo the add() of t, which gave place i."""
        self.label.remove(t)
        del self.ordered[i]
        self._kinds = None

    def clear(self) -> None:
        self.label = set()
        self.ordered = []
        self._kinds = None

    def _unclear(self, label: set[Triple], ordered: list[Triple]) -> None:
        """Undo a clear() of this label and order."""
        self.label, self.ordered, self._kinds = label, ordered, None

    def copy(self) -> "Node":
        return replace(self, label=set(self.label), ordered=list(self.ordered))


@dataclass(frozen=True)
class Clash:
    kind: str
    where: Union[int, tuple[int, int]]
    triples: tuple[Triple, ...]

    def __str__(self) -> str:
        ts = " ".join(str(t) for t in self.triples)
        return f"{self.kind} at {self.where}: {ts}"


DEFAULT_BUDGET = 10**6


@dataclass
class Budget:
    limit: int
    used: int = 0

    def charge(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimit(f"work budget of {self.limit} exceeded")


@dataclass(frozen=True)
class ChoicePoint:
    rule: str
    node: int
    alternatives: tuple  # each alternative is ("add", node, Triple) or
    #                      ("merge"/"merge_root", x, y, z)


class Forest:
    def __init__(
        self,
        pairwise: bool,
        rbox: RoleHierarchy,
        budget: Budget,
        gci_splits: tuple[tuple[Degree, Triple, Triple], ...] = (),
    ):
        # pair-wise blocking, the at-least generator, the merges and the
        # counting clash: the f-SHIN procedure, which GCI KBs use as well
        self.pairwise = pairwise
        self.rbox = rbox
        self.budget = budget
        self.trace: list = []
        # init_forest's (n, lhs <= n - ell, rhs >= n) for each degree n that
        # can constrain and each inclusion lhs (= rhs, in scan order
        self.gci_splits = gci_splits
        # the rules this fragment runs, in priority order
        skip = set() if pairwise else {_merge_at, _merge_roots_at, _rule_atleast}
        self.rules = tuple(r for r in _RULES if r not in skip and (gci_splits or r is not _gci_at))
        # the dirty sets, bitsets over node ids: one per rule of self.rules,
        # in that order, then the counting clash's (_COUNTING), blocking's
        # (_BLOCKING), and the nodes made, re-parented, cleared or at a
        # changed edge since the last fold (_FRESH); a label add marks its
        # sets directly (add_label)
        self.dirty = [0] * (len(self.rules) + 3)
        # for each dirty set, at the same index, the nodes that may enter
        # it: those whose label holds a kind of triple the scan group reads
        # (a node stays one when a root merge empties its label), or -1,
        # every node, for a group that reads every node, for blocking and
        # for the fresh set
        groups = (*self.rules, _counting_clash)
        self.holders = [-1 if _READS[at] is None else 0 for at in groups] + [-1, -1]
        # kind of triple (None for an atom) -> the indexes of the sets an add
        # of that kind wakes: the groups that read it, then blocking's.  The
        # groups every fragment runs read every kind between them.
        self._wakes: dict[Optional[str], list[int]] = {None: []}
        for i, at in enumerate(groups):
            for kind in _READS[at] or ():
                self._wakes.setdefault(kind, []).append(i)
        for wakes in self._wakes.values():
            wakes.append(len(groups))
        self.nodes: dict[int, Node] = {}
        # edge labels are replaced, never changed in place, so a clone or an
        # undo record may share them
        self.edges: dict[tuple[int, int], frozenset[Triple]] = {}
        # each (min, max) node pair whose role triples clash -> its first clash
        self.clashing_pairs: dict[tuple[int, int], Clash] = {}
        # the ids of the nodes whose label clashes
        self.clashing_nodes: set[int] = set()
        # the least root the ABox makes distinct from itself, set by init_forest
        self.self_distinct: Optional[int] = None
        # undo records (function, arguments) since the first mark, None
        # before it; a record holds nodes and this forest's dicts and lists,
        # never the forest, so the trail lives and dies with it
        self.trail: Optional[list[tuple]] = None

    # --- construction and copying ---

    def new_node(self, parent: Optional[int], root_name: Optional[str] = None) -> Node:
        self.budget.charge()
        # ids are handed out in increasing order and only the newest node is
        # ever removed (by undo), so the next id is the number of nodes
        x = len(self.nodes)
        node = self.nodes[x] = Node(x, parent, root_name)
        self._log(self.nodes.pop, x)
        if parent is not None:
            up = self.nodes[parent]
            self._log(setattr, up, "children", up.children)
            up.children |= 1 << x
        self.dirty[_FRESH] |= 1 << x
        return node

    def clone(self) -> "Forest":
        """An independent copy, without the trail; shares rbox, budget,
        trace and the GCI splits with self.  Edge labels are replaced
        rather than changed, so copying their dict is enough."""
        g = copy.copy(self)
        g.nodes = {i: n.copy() for i, n in self.nodes.items()}
        g.edges = dict(self.edges)
        g.clashing_pairs = dict(self.clashing_pairs)
        g.clashing_nodes = set(self.clashing_nodes)
        g.dirty, g.holders = list(self.dirty), list(self.holders)
        g.trail = None
        return g

    # --- the undo trail ---

    def mark(self) -> int:
        """Start recording undo records if not yet, and append a snapshot of
        the dirty sets and holders, with the fresh set folded; undo(mark())
        later puts the forest back as it is now, which must be clash-free."""
        assert not self.clashing_nodes and not self.clashing_pairs
        self._fold()
        if self.trail is None:
            self.trail = []
        d, h = self.dirty, self.holders
        self.trail.append((_restore_sets, (d, d[:], h, h[:])))
        return len(self.trail)

    def undo(self, mark: int) -> None:
        """Run the records since the mark, newest first, then its snapshot."""
        trail = self.trail
        for fn, args in reversed(trail[mark - 1:]):
            fn(*args)
        del trail[mark:]
        # empty at every mark, so not restored record by record
        self.clashing_nodes.clear()
        self.clashing_pairs.clear()

    def _log(self, fn, *args) -> None:
        if self.trail is not None:
            self.trail.append((fn, args))

    # --- dirty sets ---

    def _changed(self, node: Node) -> None:
        """The node was cleared or re-parented, or an edge at it changed:
        every scan group and blocking look at it again, from the next fold.
        A label add marks its sets itself (add_label)."""
        self.dirty[_FRESH] |= 1 << node.id

    def _spread(self, ids: int, stop: int) -> None:
        """Add the nodes of `ids` to the dirty sets before index `stop`, each
        set the nodes that may enter it (Forest.holders); not logged, since
        undo puts back the sets of its mark's snapshot."""
        d = self.dirty
        d[:stop] = [v | (ids & h) for v, h in zip(d[:stop], self.holders)]

    def _fold(self) -> None:
        """Move the fresh nodes into every dirty set."""
        fresh = self.dirty[_FRESH]
        if fresh:
            self._spread(fresh, _FRESH)
            self.dirty[_FRESH] = 0

    # --- basic accessors ---

    def sorted_label(self, node: Node) -> list[Triple]:
        """The node's label in canonical order; callers must not keep it
        across a change to the label."""
        return node.ordered

    def add_triple(self, node_id: int, t: Triple, rule: str) -> bool:
        node = self.nodes[node_id]
        if t in node.label:
            return False
        self.budget.charge()
        self.add_label(node, t)
        self.trace.append(("add", rule, node_id, t))
        return True

    # every change to a label, an edge, a parent, a distinct set or
    # merged_into goes through the methods below, which keep the indexes in
    # step and log the undo

    def add_label(self, node: Node, t: Triple) -> None:
        """Add t, which the label lacks, to the node's label."""
        i = node.add(t)
        if self.trail is not None:
            self.trail.append((node._unadd, (t, i)))
        if node.id not in self.clashing_nodes:
            # a conjugated pair needs another triple on t's subject next to i
            ordered, text = node.ordered, t.key[0]
            paired = i and ordered[i - 1].key[0] == text or (
                i + 1 < len(ordered) and ordered[i + 1].key[0] == text)
            if t.unary_clash or paired and node.conjugate_of(i):
                self.clashing_nodes.add(node.id)
        # the node now holds for, and enters the sets of, the groups that
        # read t's kind, and blocking's: no other group can find more at it
        bit = 1 << node.id
        holders, d = self.holders, self.dirty
        for j in self._wakes[t.kind]:
            holders[j] |= bit
            d[j] |= bit

    def clear_label(self, node: Node) -> None:
        self._log(node._unclear, node.label, node.ordered)
        node.clear()
        self.clashing_nodes.discard(node.id)
        self._changed(node)

    def set_field(self, obj, name: str, value) -> None:
        """Set obj.name to value, logging the old value."""
        self._log(setattr, obj, name, getattr(obj, name))
        setattr(obj, name, value)

    def set_parent(self, node: Node, parent: int) -> None:
        """Move a node that has a parent to another parent."""
        bit = 1 << node.id
        old, new = self.nodes[node.parent], self.nodes[parent]
        self.set_field(old, "children", old.children & ~bit)
        self.set_field(new, "children", new.children | bit)
        self.set_field(node, "parent", parent)
        self._changed(node)

    def add_neq(self, groups: Iterable[Iterable[int]]) -> None:
        """Make the members of each group pairwise distinct.  Each node
        whose distinct set grows gets one new set; a new pair can complete a
        counting clash at any node."""
        nodes = self.nodes
        new: dict[int, frozenset[int]] = {}
        for group in groups:
            members = frozenset(group)
            for x in members:
                others = members - {x}
                old = new.get(x, nodes[x].distinct)
                if not others <= old:
                    new[x] = old | others if old else others
        for x, distinct in new.items():
            self.set_field(nodes[x], "distinct", distinct)
        if new:
            self.dirty[_COUNTING] = self.holders[_COUNTING]

    def set_edge(self, a: int, b: int, triples: Iterable[Triple]) -> None:
        """Create edge (a, b), or replace its label."""
        key = (a, b)
        self._save_edge(key)
        self.edges[key] = frozenset(triples)
        for end in key:
            node = self.nodes[end]
            if key not in node.adjacent:
                node.adjacent = node.adjacent | {key}
        self._edge_changed(a, b)

    def pop_edge(self, key: tuple[int, int]) -> frozenset[Triple]:
        self._save_edge(key)
        for end in key:
            node = self.nodes[end]
            node.adjacent = node.adjacent - {key}
        triples = self.edges.pop(key)
        self._edge_changed(*key)
        return triples

    def _save_edge(self, key: tuple[int, int]) -> None:
        if self.trail is not None:
            na, nb = (self.nodes[end] for end in key)
            edges = self.edges
            self._log(_restore_edge, edges, key, edges.get(key), na, na.adjacent, nb, nb.adjacent)

    def _edge_changed(self, a: int, b: int) -> None:
        na, nb = self.nodes[a], self.nodes[b]
        self._changed(na)
        self._changed(nb)
        na.neighbours = nb.neighbours = {}
        pair = (min(a, b), max(a, b))
        clash = _pair_clash(self, *pair)
        if clash:
            self.clashing_pairs[pair] = clash
        else:
            self.clashing_pairs.pop(pair, None)

    def union_edge(self, a: int, b: int, triples: AbstractSet[Triple]) -> None:
        """Add role triples between a and b, reusing an existing edge in
        either orientation (inverting as needed)."""
        if (a, b) in self.edges:
            self.set_edge(a, b, self.edges[(a, b)] | triples)
        elif (b, a) in self.edges:
            self.set_edge(b, a, self.edges[(b, a)] | {t.inverse for t in triples})
        else:
            self.set_edge(a, b, triples)

    # --- neighbours ---

    def neighbour_bounds(self, x: int, r: Role) -> list[tuple[int, SignedBound]]:
        """All (y, bound) with y an r-neighbour of x through that bound:
        successor edges carry a sub-role of r, predecessor edges a sub-role
        of Inv(r).  The list is shared: callers must not change it."""
        node = self.nodes[x]
        known = node.neighbours
        out = known.get(r)
        if out is not None:
            return out
        out = []
        rinv = inv(r)
        includes = self.rbox.includes
        for a, b in node.adjacent:
            lab = self.edges[(a, b)]
            if a == x:
                for t in lab:
                    if includes(t.subject, r):
                        out.append((b, t.bound))
            if b == x:
                for t in lab:
                    if includes(t.subject, rinv):
                        out.append((a, t.bound))
        out.sort(key=lambda p: (p[0], INEQ_ORDER[p[1].ineq], p[1].degree))
        # not logged: the table holds for as long as the edges at x do, and
        # a change to those edges, or its undo, drops it
        node.neighbours = {**known, r: out}
        return out

    def conjugated_neighbours(self, x: int, r: Role, probe: SignedBound) -> list[int]:
        """The members of R^F_C(x, probe): r-neighbours whose connecting
        bound conjugates with the probe."""
        return sorted({y for y, b in self.neighbour_bounds(x, r) if conjugates(b, probe)})

    def has_exact_neighbour(self, x: int, r: Role, bound: SignedBound, required: Triple) -> bool:
        ineq, ratio = bound.ineq, bound.ratio
        for y, b in self.neighbour_bounds(x, r):
            if b.ineq is ineq and b.ratio == ratio and required in self.nodes[y].label:
                return True
        return False

    # --- blocking ---

    def blocking(self) -> None:
        """Fold the fresh nodes into every dirty set, then bring every
        Node.status up to date.  Only the nodes of the blocking set (the
        fresh ones, and those whose label grew, which add_label put there),
        and their descendants through Node.children, are checked again, in id
        order, so top-down (parents have smaller ids than their children
        throughout); an empty set returns at once.  Traces a block event for
        each node newly directly blocked, or by a new blocker, in id order,
        then an unblock event for each node no longer directly blocked.  A
        node whose status changes kind goes back into every scan set."""
        self._fold()
        d = self.dirty
        todo = d[_BLOCKING]
        if not todo:
            return
        d[_BLOCKING] = 0
        nodes = self.nodes
        moved = 0
        unblocked = []
        while todo:
            low = todo & -todo
            todo ^= low
            node = nodes[low.bit_length() - 1]
            todo |= node.children
            if node.parent is None:
                continue  # a root is unblocked for good
            new, old = self._status_of(node), node.status
            if new != old:
                self.set_field(node, "status", new)
                if new[0] == DIRECT:
                    self.trace.append(("block", node.id, new[1]))
                elif old[0] == DIRECT:
                    unblocked.append(node.id)
                if old[0] != new[0]:
                    moved |= low
        for x in unblocked:
            self.trace.append(("unblock", x))
        if moved:
            self._spread(moved, _BLOCKING)

    def _status_of(self, node: Node) -> tuple[str, Optional[int]]:
        """The status of a node that has a parent, its parent's up to date."""
        parent = node.parent
        if self.nodes[parent].status[0] != UNBLOCKED:
            return _INDIRECT_STATUS
        in_edge = self.edges.get((parent, node.id))
        if in_edge is not None and not in_edge:
            return _INDIRECT_STATUS
        blocker = self._direct_blocker(node)
        return _UNBLOCKED_STATUS if blocker is None else (DIRECT, blocker)

    def _direct_blocker(self, node: Node) -> Optional[int]:
        """The nearest ancestor that blocks the node, which has a parent,
        directly, or None."""
        nodes, edges, label, y = self.nodes, self.edges, node.label, node.parent
        if not self.pairwise:
            while y is not None:
                ynode = nodes[y]
                if ynode.label == label:
                    return y
                y = ynode.parent
            return None
        # pair-wise blocking: equal labels, equal parent labels, equal
        # connecting edge labels; the blocker must not be a root
        ynode, own_edge = nodes[y], edges.get((y, node.id), _NO_EDGE)
        parent_label = ynode.label
        while (yp := ynode.parent) is not None:
            if ynode.label == label and nodes[yp].label == parent_label:
                if edges.get((yp, y), _NO_EDGE) == own_edge:
                    return y
            y, ynode = yp, nodes[yp]
        return None

    # --- rendering ---

    def dump(self) -> str:
        def text(ts: Iterable[Triple]) -> str:
            return " ".join(f"⟨{t.subject},{t.ineq},{fraction_text(t.degree)}⟩" for t in ts)

        lines = []
        for node in self.nodes.values():
            tag = " root" if node.is_root else ""
            lines.append(f"node {node.id}{tag} {{{text(self.sorted_label(node))}}}")
        for (a, b) in sorted(self.edges):
            lines.append(f"edge {a} -> {b} {{{text(sorted(self.edges[(a, b)], key=triple_key))}}}")
        return "\n".join(lines) + ("\n" if lines else "")


def _restore_sets(dirty, saved_dirty, holders, saved_holders) -> None:
    """Put back a forest's dirty sets and holders as Forest.mark saved them."""
    dirty[:] = saved_dirty
    holders[:] = saved_holders


def _restore_edge(edges, key, label, na, adjacent_a, nb, adjacent_b) -> None:
    """Undo a change to edge `key` of edges, a forest's edge dict.  A popped
    edge comes back at the end: nothing may depend on that dict's order."""
    if label is None:
        del edges[key]
    else:
        edges[key] = label
    nb.adjacent, nb.neighbours = adjacent_b, {}
    na.adjacent, na.neighbours = adjacent_a, {}


def init_forest(
    prepared: Prepared, budget: Optional[Budget] = None, individuals: Optional[list[str]] = None
) -> Forest:
    """The initial forest of a prepared KB: a root per individual, labelled
    with its assertions, or one unlabelled root for a fresh element when
    there are inclusions and no individual.  The roots are made in the order
    of `individuals`, which must hold the ABox's; by default that is
    ABox.individuals().

    The paper's ⊑-rule splits each node, for each inclusion lhs ⊑ rhs and
    each n in xa, into ⟨lhs ≤ n − ℓ⟩ or ⟨rhs ≥ n⟩.  Here n gets no split
    unless 0 < n and n − ℓ < 1.  Else one alternative clashes on its own
    (a bound below 0 or above 1) and every degree meets the other, so the
    split asks nothing of a model.  xa holds 1/2, so inclusions still split.
    With n = p/q and ℓ = r/s, n − ℓ < 1 is tested as p·s − r·q < q·s on
    integers, since a denominator is positive."""
    splits = []
    if prepared.gcis:  # else there is no split, and outside GCI mode no ℓ
        ell = prepared.ell
        r, s = ell.as_integer_ratio()
        for n in prepared.xa:
            p, q = n.as_integer_ratio()
            if p > 0 and p * s - r * q < q * s:
                cap = n - ell
                splits += [(n, Triple(lhs, Ineq.LE, cap), Triple(rhs, Ineq.GE, n)) for lhs, rhs in prepared.gcis]
    f = Forest(prepared.mode != "si", prepared.rbox, budget or Budget(DEFAULT_BUDGET), tuple(splits))
    abox = prepared.abox
    if individuals is None:
        individuals = abox.individuals()
    roots = {ind: f.new_node(None, ind).id for ind in individuals}
    if splits and not roots:
        # a domain is never empty: the inclusions must hold of some element
        f.new_node(None)
    add_assertions(f, abox, roots)
    # a merge never makes a node distinct from itself (_merge_pairs skips
    # distinct pairs), so only the ABox does
    selves = [roots[a] for pair in abox.inequalities if len(pair) == 1 for a in pair]
    f.self_distinct = min(selves, default=None)
    return f


def add_assertions(f: Forest, abox: ABox, roots: dict[str, int]) -> None:
    """Add a prepared ABox to f, whose root for each individual is in roots:
    the concept assertions to the labels, in order and traced with rule
    "init", then the role assertions to the edges and the inequalities to
    the distinct sets.  Those last two neither trace nor read a label, so
    concept assertions added after them give the forest and the trace that
    adding them first would give."""
    for ca in abox.concept_assertions:
        f.add_triple(roots[ca.individual], Triple(ca.concept, ca.bound.ineq, ca.bound.degree), "init")
    for ra in abox.role_assertions:
        t = Triple(ra.role, ra.bound.ineq, ra.bound.degree)
        f.union_edge(roots[ra.subject], roots[ra.object], {t})
    f.add_neq([roots[a] for a in pair] for pair in abox.inequalities)


# --- clash detection ---


def _concept_clash(f: Forest, node: Node) -> Optional[Clash]:
    label = node.ordered
    for t in label:
        if t.unary_clash:
            return Clash(t.unary_clash, node.id, (t,))
    # conjugate_of scans from the start of the run, so this is the pair the
    # all-pairs order finds first: no triple before the least member of any
    # conjugated pair conjugates it
    for i, t in enumerate(label):
        u = node.conjugate_of(i)
        if u:
            return Clash("conjugated-pair", node.id, (t, u))
    return None


def _directed_edge_triples(f: Forest, a: int, b: int) -> list[Triple]:
    out = list(f.edges.get((a, b), ()))
    out.extend(t.inverse for t in f.edges.get((b, a), ()))
    return sorted(out, key=triple_key)


def _pair_clash(f: Forest, a: int, b: int) -> Optional[Clash]:
    """The first clash among the role triples between a and b (a <= b)."""
    # each clash needs a negative or unary-clash triple; an inverse keeps its bound
    labels = f.edges.get((a, b), ()), f.edges.get((b, a), ())
    if not any(t.ineq.negative or t.unary_clash for label in labels for t in label):
        return None
    ts = _directed_edge_triples(f, a, b)
    for t in ts:
        if t.unary_clash:
            return Clash(t.unary_clash, (a, b), (t,))
    for t1 in ts:
        if not t1.ineq.positive:
            continue
        for t2 in ts:
            if t2.ineq.positive:
                continue
            if f.rbox.includes(t1.subject, t2.subject) and conjugates(t1.bound, t2.bound):
                return Clash("edge", (a, b), (t1, t2))
    return None


def _has_pairwise_distinct(f: Forest, members: list[int], k: int) -> bool:
    """Whether k of the (distinct) members are pairwise distinct, that is,
    whether the graph of distinct sets on the members has a k-clique."""
    if k <= 1 or len(members) < k:
        return len(members) >= k
    among = set(members)
    partners = {u: among & f.nodes[u].distinct for u in members}
    # a member of a k-clique has k - 1 partners in it: drop, until none is
    # left, each member with fewer partners among the members not dropped
    degree = {u: len(p) for u, p in partners.items()}
    weak = [u for u in members if degree[u] < k - 1]
    dropped = set(weak)
    while weak:
        for v in partners[weak.pop()]:
            degree[v] -= 1
            if degree[v] < k - 1 and v not in dropped:
                dropped.add(v)
                weak.append(v)
    live = [u for u in members if u not in dropped]
    if len(live) < k:
        return False
    # a greedy clique next: it settles the common case, members made
    # pairwise distinct together by the at-least rule, without the search,
    # whose recursion is as deep as its clique
    kept: set[int] = set()
    for v in live:
        if kept <= partners[v]:
            kept.add(v)
            if len(kept) >= k:
                return True
    return _has_clique(partners, live, 0, k, f.budget)


def _has_clique(
    partners: dict[int, set[int]], candidates: list[int], size: int, k: int, budget: Budget
) -> bool:
    """Whether size + the largest clique among the candidates reaches k;
    charges the budget one unit per call.

    Branch and bound after Tomita & Seki (DMTCS 2003): a greedy colouring
    puts each candidate in the first class that holds none of its
    partners, and a clique has at most one member of each class, so a
    clique among the candidates up to one of colour c has at most c
    members."""
    budget.charge()
    classes: list[list[int]] = []
    for v in candidates:
        for cls in classes:
            if partners[v].isdisjoint(cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    order = [(colour, v) for colour, cls in enumerate(classes, 1) for v in cls]
    while order:
        colour, v = order.pop()
        if size + colour < k:
            return False
        if size + 1 >= k:
            return True
        if _has_clique(partners, [u for _, u in order if u in partners[v]], size + 1, k, budget):
            return True
    return False


def _counting_clash(f: Forest, node: Node) -> Optional[Clash]:
    # the count triples in label order, with a negative (>= 0 R), which caps
    # nothing, tested in its place among them
    for t in node.of_kind("count"):
        c = t.subject
        if isinstance(c, AtLeast) and c.count == 0 and t.ineq.negative:
            # (>= 0 R) is identically 1
            if not t.ineq.holds(ONE, t.degree):
                return Clash("at-least", node.id, (t,))
        elif t.atmost:
            cap, probe, _ = t.atmost
            members = f.conjugated_neighbours(node.id, cap.role, probe)
            if _has_pairwise_distinct(f, members, cap.count + 1):
                kind = "at-most" if isinstance(c, AtMost) else "at-least"
                return Clash(kind, node.id, (t,))
    return None


def find_clash(f: Forest) -> Optional[Clash]:
    if f.self_distinct is not None:
        return Clash("distinct-self", f.self_distinct, ())
    if f.clashing_nodes:
        return _concept_clash(f, f.nodes[min(f.clashing_nodes)])
    if f.clashing_pairs:
        return f.clashing_pairs[min(f.clashing_pairs)]
    return _first(f, _counting_clash, _COUNTING) if f.pairwise and f.dirty[_COUNTING] else None


def _first(f: Forest, at, i: int):
    """The first truthy at(f, node) over the nodes of dirty set i, oldest
    (lowest id) first, or None.

    Drops from the set each node where `at` gives nothing, as it goes, and
    logs no drop: undo puts the set back from its mark's snapshot, and `at`
    must change nothing when it gives nothing.  The set is never written
    back at the end: the rule that fires may mark a node dropped earlier in
    the same scan."""
    d, nodes = f.dirty, f.nodes
    todo = d[i]
    while todo:
        low = todo & -todo
        out = at(f, nodes[low.bit_length() - 1])
        if out:
            return out
        todo ^= low
        d[i] = todo
    return None


# --- deterministic rules ---


# the propagations in rule priority order: (triple kind, probe the connecting
# bound must conjugate, over the transitive sub-roles?, trace name).  A
# universal and a negated existential are one rule read through inequality
# duality; the transitive forms pass the quantifier itself on along each
# transitive sub-role.
_bound, _reflected = attrgetter("bound"), attrgetter("reflected")
_PROPAGATIONS = (
    ("forall+", _reflected, False, "forall-pos"),
    ("exists-", _bound, False, "exists-neg"),
    ("forall+", _reflected, True, "forall-trans"),
    ("exists-", _bound, True, "exists-trans"),
)


def _propagate(f: Forest, node: Node) -> bool:
    """Apply the first deterministic rule that applies at the node:
    negation, then decomposition, then the propagations."""
    kinds = node._kinds or node.kinds()
    for t in kinds.get("not", ()):
        derived = t.parts[0]
        if derived not in node.label:
            return f.add_triple(node.id, derived, "negation")
    if node.status[0] == INDIRECT:
        return False
    for t in kinds.get("decompose", ()):
        for derived in t.parts:
            if derived not in node.label:
                rule = "and-pos" if isinstance(t.subject, And) else "or-neg"
                return f.add_triple(node.id, derived, rule)
    for kind, probe_of, transitive, rule in _PROPAGATIONS:
        for t in kinds.get(kind, ()):
            probe, role = probe_of(t), t.subject.role
            for r in f.rbox.transitive_subroles(role) if transitive else (role,):
                derived = t.over(r) if transitive else t.parts[0]
                for y, b in node.neighbours.get(r) or f.neighbour_bounds(node.id, r):
                    if conjugates(b, probe) and derived not in f.nodes[y].label:
                        return f.add_triple(y, derived, rule)
    return False


def _generate_node(f: Forest, x: int, edge: Triple, label: Triple, rule: str) -> None:
    y = f.new_node(x)
    f.set_edge(x, y.id, {edge})
    f.add_label(y, label)
    f.trace.append(("new-node", rule, x, y.id, edge, label))


def _generate(f: Forest, node: Node, kind: str, rule: str) -> bool:
    """Give the first triple of the kind that lacks one a witness: a new
    successor whose edge carries the triple's Triple.edge and whose label
    holds the triple's body."""
    if node.status[0] != UNBLOCKED:
        return False
    for t in node.of_kind(kind):
        edge, derived = t.edge, t.parts[0]
        if f.has_exact_neighbour(node.id, edge.subject, edge.bound, derived):
            continue
        f.budget.charge()
        _generate_node(f, node.id, edge, derived, rule)
        return True
    return False


# the generators stay separate functions: each is a scan group of its own
def _rule_exists_pos(f: Forest, node: Node) -> bool:
    return _generate(f, node, "exists+", "exists-pos")


def _rule_forall_neg(f: Forest, node: Node) -> bool:
    return _generate(f, node, "forall-", "forall-neg")


def _rule_atleast(f: Forest, node: Node) -> bool:
    if node.status[0] != UNBLOCKED:
        return False
    for c, edge, rule in (t.atleast for t in node.of_kind("count") if t.atleast):
        ineq, ratio = edge.ineq, edge.bound.ratio
        members = sorted(
            {y for y, b in f.neighbour_bounds(node.id, c.role) if b.ineq is ineq and b.ratio == ratio}
        )
        if _has_pairwise_distinct(f, members, c.count):
            continue
        created = []
        for _ in range(c.count):
            f.budget.charge()
            y = f.new_node(node.id)
            f.set_edge(node.id, y.id, {edge})
            created.append(y.id)
        f.add_neq((created,))
        f.trace.append(("new-nodes", rule, node.id, tuple(created)))
        return True
    return False


# --- merge choice points ---


def _merge_pairs(
    f: Forest, x: int, members: list[int], roots_only: bool
) -> list[tuple[str, int, int, int]]:
    out = []
    for z in members:
        for y in sorted(members, reverse=True):
            if y == z or z in f.nodes[y].distinct:
                continue
            ny, nz = f.nodes[y], f.nodes[z]
            if roots_only:
                if ny.is_root and nz.is_root:
                    out.append(("merge_root", x, y, z))
            else:
                if ny.is_root:
                    continue
                # the pruned node must hang below x so its edge can be
                # transferred and emptied.  Then z, another neighbour of x,
                # is x's parent, another child of x or a root, and never
                # below y: a non-root's only neighbours are its parent and
                # its children.
                if ny.parent != x:
                    continue
                out.append(("merge", x, y, z))
    return out


def _merge_at(f: Forest, node: Node, roots_only: bool = False) -> Optional[ChoicePoint]:
    if node.status[0] == INDIRECT:
        return None
    for c, probe, rule in (t.atmost for t in node.of_kind("count") if t.atmost):
        members = f.conjugated_neighbours(node.id, c.role, probe)
        if len(members) <= c.count:
            continue
        pairs = _merge_pairs(f, node.id, members, roots_only)
        if pairs:
            name = rule + ("-roots" if roots_only else "")
            return ChoicePoint(name, node.id, tuple(pairs))
    return None


def _merge_roots_at(f: Forest, node: Node) -> Optional[ChoicePoint]:
    return _merge_at(f, node, roots_only=True)


def _merge_into(f: Forest, y: int, z: int) -> None:
    """z takes over y's label and y's distinct partners."""
    ynode, znode = f.nodes[y], f.nodes[z]
    for t in ynode.ordered:
        if t not in znode.label:
            f.add_label(znode, t)
    f.add_neq((z, w) for w in ynode.distinct)


def _apply_merge(f: Forest, x: int, y: int, z: int) -> None:
    _merge_into(f, y, z)
    xy = f.edges[(x, y)]
    f.union_edge(x, z, xy)
    f.set_edge(x, y, ())
    f.trace.append(("merge", x, y, z))


def _apply_root_merge(f: Forest, x: int, y: int, z: int) -> None:
    _merge_into(f, y, z)
    # y's edges in key order, so that which orientation a joined edge keeps
    # does not depend on the history of f.edges
    for (a, b) in sorted(f.nodes[y].adjacent):
        ts = f.pop_edge((a, b))
        if a == y and b == y:
            f.union_edge(z, z, ts)
        elif a == y:
            f.union_edge(z, b, ts)
        else:
            f.union_edge(a, z, ts)
    children = f.nodes[y].children
    while children:
        low = children & -children
        children ^= low
        f.set_parent(f.nodes[low.bit_length() - 1], z)
    f.clear_label(f.nodes[y])
    f.set_field(f.nodes[y], "merged_into", z)
    f.trace.append(("merge-root", x, y, z))


# --- nondeterministic concept choices ---


def _split_at(f: Forest, node: Node) -> Optional[ChoicePoint]:
    if node.status[0] == INDIRECT:
        return None
    for t in node.of_kind("split"):
        if any(part in node.label for part in t.parts):
            continue
        alts = tuple(("add", node.id, part) for part in t.parts)
        rule = "or-pos" if isinstance(t.subject, Or) else "and-neg"
        return ChoicePoint(rule, node.id, alts)
    return None


def _gci_at(f: Forest, node: Node) -> Optional[ChoicePoint]:
    if node.merged_into is not None or node.status[0] == INDIRECT:
        return None
    for _, t1, t2 in f.gci_splits:
        if t1 in node.label or t2 in node.label:
            continue
        alts = (("add", node.id, t1), ("add", node.id, t2))
        return ChoicePoint("gci", node.id, alts)
    return None


# --- search ---


# the rules in priority order: propagations, merges, generators, splits
_RULES = (
    _propagate, _merge_at, _merge_roots_at, _rule_exists_pos, _rule_forall_neg, _rule_atleast,
    _split_at, _gci_at,
)
# the indexes in Forest.dirty past the rules' sets
_COUNTING, _BLOCKING, _FRESH = -3, -2, -1
# the kinds of triple each scan group reads in a node's label: it finds
# nothing at a node that holds none of them (None: it reads every node)
_READS = {
    _propagate: ("not", "decompose", "forall+", "exists-"),
    _merge_at: ("count",),
    _merge_roots_at: ("count",),
    _rule_exists_pos: ("exists+",),
    _rule_forall_neg: ("forall-",),
    _rule_atleast: ("count",),
    _split_at: ("split",),
    _gci_at: None,
    _counting_clash: ("count",),
}


def expand(f: Forest) -> Union[Clash, ChoicePoint, None]:
    """Run deterministic rules to fixpoint; stop at a clash or at the first
    nondeterministic choice in priority order.  None means the forest is
    complete."""
    while True:
        f.budget.charge()
        f.blocking()
        clash = find_clash(f)
        if clash:
            f.trace.append(("clash", clash))
            return clash
        # the first rule that applies: a deterministic one (True) starts over,
        # a merge or a split returns its choice point, and None means complete
        d, out = f.dirty, None
        for i, rule in enumerate(f.rules):
            if d[i]:
                out = _first(f, rule, i)
                if out:
                    break
        if out is not True:
            return out


def apply_alternative(f: Forest, alt: tuple) -> None:
    if alt[0] == "add":
        _, node, triple = alt
        f.add_triple(node, triple, "choice")
    elif alt[0] == "merge":
        _, x, y, z = alt
        _apply_merge(f, x, y, z)
    elif alt[0] == "merge_root":
        _, x, y, z = alt
        _apply_root_merge(f, x, y, z)
    else:  # pragma: no cover
        raise ValueError(f"unknown alternative {alt!r}")


@dataclass
class SolveResult:
    consistent: bool
    forest: Optional[Forest]  # complete clash-free forest when consistent
    first_clash_forest: Optional[Forest]
    trace: list


def solve(f: Forest) -> SolveResult:
    """Depth-first chronological backtracking over choice points, on the
    one forest f: each choice point keeps a trail mark, and each further
    alternative starts from undoing back to it.  The trail stays with f, so
    a caller that marked f before the call can undo back to its mark."""
    first_clash: Optional[Forest] = None
    # frames: [trail mark, choice point, index of next alternative]
    stack: list[list] = []
    while True:
        result = expand(f)
        if result is None:
            return SolveResult(True, f, first_clash, f.trace)
        if isinstance(result, ChoicePoint):
            stack.append([f.mark(), result, 0])
        else:  # clash
            if first_clash is None:
                # with no choice point open the search ends here, and f with it
                first_clash = f.clone() if stack else f
            while stack and stack[-1][2] >= len(stack[-1][1].alternatives):
                stack.pop()
            if not stack:
                f.trace.append(("exhausted",))
                return SolveResult(False, None, first_clash, f.trace)
        mark, cp, idx = stack[-1]
        stack[-1][2] = idx + 1
        f.undo(mark)
        f.trace.append(("branch", cp.rule, cp.node, idx, cp.alternatives[idx]))
        apply_alternative(f, cp.alternatives[idx])


# --- model extraction (SI soundness construction) ---


def _glb_value(bounds: list[SignedBound], eps: Degree) -> Degree:
    positives = [b for b in bounds if b.ineq.positive]
    if not positives:
        return ZERO
    top = max(b.degree for b in positives)
    if any(b.degree == top and b.ineq is Ineq.GT for b in positives):
        return top + eps
    return top


def extract_model(f: Forest) -> Optional[FuzzyInterpretation]:
    """Finite witnessed interpretation read off a complete clash-free SI
    forest: non-blocked nodes form the domain, degrees are the least values
    compatible with the labels (a strict lower bound gets a small exact
    bump), edges to blocked nodes are redirected to their blockers, and
    transitive roles are closed under sup-min composition.  None for a
    pair-wise blocked forest, which it reads no model off."""
    if f.pairwise:
        return None
    f.blocking()
    domain = tuple(i for i in sorted(f.nodes) if f.nodes[i].status[0] == UNBLOCKED)

    labels = [node.label for node in f.nodes.values()] + list(f.edges.values())
    eps = compute_ell([t.degree for label in labels for t in label])

    concept_bounds: dict[tuple[str, int], list[SignedBound]] = {}
    for e in domain:
        for t in f.nodes[e].label:
            if isinstance(t.subject, Name):
                concept_bounds.setdefault((t.subject.id, e), []).append(t.bound)
    # a complete interpretation reads a missing name as 0
    concept_map = {key: _glb_value(b, eps) for key, b in concept_bounds.items()}

    bounds_by_pair: dict[tuple[str, int, int], list[SignedBound]] = {}
    for (u, v), lab in f.edges.items():
        if f.nodes[u].status[0] != UNBLOCKED:
            continue
        # no f-SI edge is ever emptied, so an edge from an unblocked node
        # ends at a node that is unblocked or directly blocked
        target = v if f.nodes[v].status[0] == UNBLOCKED else f.nodes[v].status[1]
        for t in lab:
            role = t.subject
            pair = (target, u) if role.inverted else (u, target)
            bounds_by_pair.setdefault((role.name, *pair), []).append(t.bound)

    # a complete interpretation reads a missing pair as 0, so only the
    # nonzero pairs are kept, as a successor map per role and element
    succ: dict[tuple[str, int], dict[int, Degree]] = {}
    for (name, a, b), bounds in bounds_by_pair.items():
        value = _glb_value(bounds, eps)
        if value:
            succ.setdefault((name, a), {})[b] = value
    # the sup-min closure of a transitive role: the widest path from each
    # element, relaxed until no successor rises
    for (name, a), best in succ.items():
        todo = list(best) if name in f.rbox.transitive else []
        while todo:
            b = todo.pop()
            for c, value in list(succ.get((name, b), {}).items()):
                through = min(best[b], value)
                if best.get(c, ZERO) < through:
                    best[c] = through
                    todo.append(c)
    role_map = {(name, a, b): v for (name, a), best in succ.items() for b, v in best.items()}

    individual_map = {n.root_name: n.id for n in f.nodes.values() if n.root_name is not None}
    return FuzzyInterpretation(domain, concept_map, role_map, individual_map)

