"""User-facing inference problems, each reduced to ABox consistency."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from . import oracle
from .degrees import (
    Degree,
    HALF,
    Ineq,
    ONE,
    SignedBound,
    ZERO,
    neg_lukasiewicz,
    negate,
    reflect,
)
from .kb import (
    ABox,
    ConceptAssertion,
    FuzzyKB,
    Query,
    RoleAssertion,
    RoleHierarchy,
    compute_ell,
    expand_concept,
    fragment,
    hierarchy_closure,
    normalize_for_gci,
    relative_degrees,
    unfold,
)
from .syntax import Concept, Forall, Name, Not, nnf
from .tableau import (
    DEFAULT_BUDGET,
    Budget,
    Forest,
    SolveResult,
    add_assertions,
    extract_model,
    init_forest,
    solve,
)


class ModeError(Exception):
    """The knowledge base lies outside the decidable fragment."""


@dataclass
class Prepared:
    mode: str
    abox: ABox
    rbox: RoleHierarchy
    # defined name -> its unfolding; empty in GCI mode
    unfolded: dict[str, Concept]
    gcis: tuple
    xa: tuple
    ell: Optional[Degree]


def prepare(kb: FuzzyKB) -> Prepared:
    """The KB made ready for the tableau, in the fragment its constructors
    need (fragment, as detect_mode): one walk for number restrictions, then
    ModeError for one over a role that is not simple, then one unfolding."""
    rbox = hierarchy_closure(kb.rbox)
    restrictions = list(kb.number_restrictions())
    for d in restrictions:
        if not rbox.simple(d.role):
            raise ModeError(f"number restriction {d} is over the non-simple role {d.role}; "
                            "f-SHIN allows only simple roles there")
    unfolded = unfold(kb.tbox)
    mode = fragment(kb, unfolded is not None, bool(restrictions))
    if unfolded is not None:
        abox = _tableau_abox(kb.abox, rbox, partial(expand_concept, unfolded=unfolded))
        return Prepared(mode, abox, rbox, unfolded, (), (), None)
    gcis: list[tuple[Concept, Concept]] = []
    for name, (kind, body) in kb.tbox.definitions.items():
        gcis.append((Name(name), nnf(body)))
        if kind == "equiv":
            gcis.append((nnf(body), Name(name)))
    for lhs, rhs in kb.tbox.gcis:
        gcis.append((nnf(lhs), nnf(rhs)))
    ell = compute_ell(kb.abox.degrees())
    abox, xa = normalize_for_gci(_tableau_abox(kb.abox, rbox, nnf), ell)
    return Prepared(mode, abox, rbox, {}, tuple(gcis), xa, ell)


def _tableau_abox(abox: ABox, rbox: RoleHierarchy, fn) -> ABox:
    """A copy of abox with fn applied to each asserted concept, and each
    role assertion ⟨(a, b) : R ◁ n⟩ with ◁ negative and R not simple
    rewritten, after the concept assertions, into ⟨a : ∀R.¬{b} reflect(◁)
    1 − n⟩ and ⟨b : {b} ≥ 1⟩.  {b} is a Name that the parser cannot produce.

    The tableau closes edges under transitivity only through the ∀-rules,
    and never tests a negative role bound against a chain of edges; the
    ∀-transitive rule carries ∀R.¬{b} along every such chain to b.  The
    rewrite is equisatisfiable: with {b} of degree 1 at b and 0 elsewhere,
    (∀R.¬{b})(a) is 1 − R(a, b).  A concept assertion that fn leaves as it is
    is kept."""
    cas = [a if (c := fn(a.concept)) is a.concept else ConceptAssertion(a.individual, c, a.bound)
           for a in abox.concept_assertions]
    ras = []
    for ra in abox.role_assertions:
        if ra.bound.ineq.positive or rbox.simple(ra.role):
            ras.append(ra)
            continue
        nominal = Name("{" + ra.object + "}")
        bound = SignedBound(reflect(ra.bound.ineq), neg_lukasiewicz(ra.bound.degree))
        cas.append(ConceptAssertion(ra.subject, Forall(ra.role, Not(nominal)), bound))
        cas.append(ConceptAssertion(ra.object, nominal, SignedBound(Ineq.GE, ONE)))
    return ABox(cas, ras, set(abox.inequalities))


def consistency(kb: FuzzyKB, budget: int = DEFAULT_BUDGET) -> SolveResult:
    prepared = prepare(kb)
    result = solve(init_forest(prepared, Budget(budget)))
    result.prepared = prepared
    return result


def _fresh_individual(kb: FuzzyKB) -> str:
    taken = set(kb.abox.individuals())
    n = next(n for n in itertools.count() if f"x{n}" not in taken)
    return f"x{n}"


def satisfiable(c: Concept, kb: Optional[FuzzyKB] = None, budget: int = DEFAULT_BUDGET) -> bool:
    kb = kb or FuzzyKB()
    return not entails(kb, (_fresh_individual(kb), c), SignedBound(Ineq.LE, ZERO), budget)


def n_satisfiable(
    c: Concept,
    n: Degree,
    kb: Optional[FuzzyKB] = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    kb = kb or FuzzyKB()
    a = _fresh_individual(kb)
    kb = kb.with_assertion((a, c), SignedBound(Ineq.GE, n))
    return not entails(kb, (a, c), SignedBound(Ineq.GT, n), budget)


def _with_negated(kb: FuzzyKB, query: Query, bound: SignedBound) -> FuzzyKB:
    return kb.with_assertion(query, SignedBound(negate(bound.ineq), bound.degree))


class Probes:
    """The consistency checks that decide KB |= query ◁ n for glb and lub's
    binary search, for one inequality ◁ and one degree n after another: each
    checks KB plus the negated assertion, ⟨query negate(◁) n⟩.

    prepare runs once, on the KB with the query asserted, and init_forest
    builds one forest from the KB's assertions, with the roots in the order
    of that KB's individuals, which depends on the query and not on its
    bound; then the trail is marked.  Each check undoes back to the mark
    what the check before it did, adds what the negated assertion prepares
    to, and solves.  Its budget starts at what init charged and its trace at
    init's events, so it searches as consistency(_with_negated(kb, query,
    bound)) does: the same node ids, trace, budget.used and verdict.  The
    trail holds the forest's nodes and dicts, never the forest, so both go
    with the Probes.

    Each check is that consistency call where one forest cannot search the
    same: in GCI mode, where normalize_for_gci shifts a strict negated
    bound by ell, so that each degree brings splits of its own; when the
    forest clashes at init, since a mark needs a clash-free forest; and for
    a concept query on a KB with a role assertion that prepare rewrites,
    whose concept assertions init adds after the query's.  The prepared KB
    shows that case: its concept assertions are the KB's, the query's, and
    two per rewrite."""

    def __init__(self, kb: FuzzyKB, query: Query, ineq: Ineq, budget: int = DEFAULT_BUDGET):
        self.kb, self.query, self.ineq, self.budget = kb, query, ineq, budget
        self.forest: Optional[Forest] = None
        # the degree does not change what a KB outside GCI mode prepares to,
        # except in the query's own assertion
        prepared = prepare(_with_negated(kb, query, SignedBound(ineq, ONE)))
        self.rbox, self.expand = prepared.rbox, partial(expand_concept, unfolded=prepared.unfolded)
        rewritten = len(prepared.abox.concept_assertions) > len(kb.abox.concept_assertions) + 1
        if prepared.mode == "gci" or (len(query) == 2 and rewritten):
            return
        # the prepared ABox less the query's assertion or its rewrite's two,
        # which end it (a KB role assertion equal to the query's shares its rewrite)
        abox = prepared.abox
        cas, ras = abox.concept_assertions, abox.role_assertions
        if len(query) == 3 and ras[-1:] == [RoleAssertion(*query, SignedBound(negate(ineq), ONE))]:
            ras = ras[:-1]
        else:
            cas = cas[:len(cas) + 1 - len(query)]
        base = ABox(cas, ras, abox.inequalities)
        f = init_forest(replace(prepared, abox=base), Budget(budget), abox.individuals())
        if f.clashing_nodes or f.clashing_pairs:
            return
        self.roots = {n.root_name: n.id for n in f.nodes.values() if n.root_name is not None}
        self.init_used, self.init_trace = f.budget.used, f.trace
        self.mark = f.mark()
        self.forest = f

    def check(self, degree: Degree) -> SolveResult:
        """The check of KB plus ⟨query negate(◁) degree⟩, which is
        consistent iff KB does not entail query ◁ degree.  On the shared
        forest, the result's forest, and its first_clash_forest unless a
        choice point was open at the first clash, are that forest, which
        the next check undoes."""
        f = self.forest
        if f is None:
            kb = _with_negated(self.kb, self.query, SignedBound(self.ineq, degree))
            return consistency(kb, self.budget)
        f.undo(self.mark)
        f.budget, f.trace = Budget(self.budget, self.init_used), list(self.init_trace)
        negated = ABox()
        negated.add(self.query, SignedBound(negate(self.ineq), degree))
        add_assertions(f, _tableau_abox(negated, self.rbox, self.expand), self.roots)
        return solve(f)


def entails(
    kb: FuzzyKB,
    query: Query,
    bound: SignedBound,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    return not consistency(_with_negated(kb, query, bound), budget).consistent


class InconsistentKB(Exception):
    """Degree bounds are not meaningful over an inconsistent KB."""


def glb(kb: FuzzyKB, query: Query, budget: int = DEFAULT_BUDGET) -> Degree:
    """Greatest lower bound: the largest candidate degree n with
    KB |= query >= n.  Raises InconsistentKB when the KB has no model."""
    return _tightest_bound(kb, query, Ineq.GE, budget)


def lub(kb: FuzzyKB, query: Query, budget: int = DEFAULT_BUDGET) -> Degree:
    """Least upper bound: the smallest candidate degree n with
    KB |= query <= n."""
    return _tightest_bound(kb, query, Ineq.LE, budget)


def _tightest_bound(kb: FuzzyKB, query: Query, ineq: Ineq, budget: int) -> Degree:
    """The first candidate n, largest first for >= and smallest first for
    <=, with KB |= query <ineq> n.

    KB |= q >= n is antitone in n and KB |= q <= n monotone (Straccia, JAIR
    2001), so the entailed candidates form a suffix of the list, and its
    last element, 0 or 1, is entailed by every KB: a binary search finds
    the suffix's first element in ceil(log2 k) probes.  A probe that is not
    entailed found a model of the KB plus the negated query, so the KB is
    consistent; only when every probe is entailed must the KB be checked.

    The candidates are the relative degrees R of the ABox, which hold 0,
    1/2 and 1 and are closed under 1 - x; the TBox and the query carry no
    degrees.  Let a model give the query a value v in an open gap of R,
    and w be in the same gap.  A strictly increasing map g of [0, 1] that
    fixes R, sends v to w and has g(1 - x) = 1 - g(x) (v's gap and its
    mirror differ, as 1/2 is in R) commutes with min, max, sup, inf and
    1 - x, and keeps every comparison, strict or not, with a degree of R.
    Applied to every degree it gives a model, witnessed if the first was,
    where the query's value is w.
    So a gap holding one value of the query holds them all, and neither
    the infimum of the values (the greatest n with KB |= q >= n) nor the
    supremum (the least n with KB |= q <= n) lies inside a gap."""
    ladder = relative_degrees(kb.abox.degrees(), unit=True)
    candidates = ladder[::-1] if ineq.positive else ladder
    lo, hi = 0, len(candidates) - 1
    probes = Probes(kb, query, ineq, budget)
    while lo < hi:
        mid = (lo + hi) // 2
        if not probes.check(candidates[mid]).consistent:
            hi = mid
        else:
            lo = mid + 1
    if lo == 0 and not consistency(kb, budget).consistent:
        raise InconsistentKB()
    return candidates[lo]


def subsumes(
    d: Concept, c: Concept, kb: Optional[FuzzyKB] = None, budget: int = DEFAULT_BUDGET
) -> bool:
    """Crisp subsumption c (= d w.r.t. the KB's TBox and RBox: (x0:c) >= n
    must entail (x0:d) >= n over them, for n in {1/2, 1}."""
    kb = kb or FuzzyKB()
    for n in (HALF, ONE):
        at_least = SignedBound(Ineq.GE, n)
        premise = FuzzyKB(kb.tbox, kb.rbox).with_assertion(("x0", c), at_least)
        if not entails(premise, ("x0", d), at_least, budget):
            return False
    return True


def model_for(result: SolveResult) -> Optional[oracle.FuzzyInterpretation]:
    """The finite model read off a consistent verdict's forest, the KB's
    defined names read through their unfoldings (a name no label bounds reads
    0), or None where extract_model reads none (f-SHIN and GCI verdicts)."""
    if not result.consistent or result.forest is None:
        raise ValueError("no model: the knowledge base is inconsistent")
    model = extract_model(result.forest)
    if model is None:
        return None
    for name, body in result.prepared.unfolded.items():
        for e in model.domain:
            model.concept_map[(name, e)] = oracle.eval_concept(model, body, e)
    return model


def cross_check(kb: FuzzyKB, result: SolveResult) -> Optional[str]:
    """What fails when the oracle checks the verdict on kb, or None: the
    model_for model of a consistent verdict, if any, must satisfy kb, and an
    inconsistent kb must have no model of at most two elements.  Raises
    oracle.BudgetExceeded when that search runs out of its budget."""
    if result.consistent:
        model = model_for(result)
        if model is not None and not oracle.satisfies_kb(model, kb):
            return "the model read off a consistent verdict does not satisfy the KB"
    elif oracle.search_model(kb, max_domain=2, budget=200_000) is not None:
        return "oracle found a model for a KB judged inconsistent"
    return None
