"""User-facing inference problems, each reduced to ABox consistency."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

from .degrees import (
    Degree,
    HALF,
    Ineq,
    ONE,
    SignedBound,
    ZERO,
    negate,
)
from .kb import (
    ABox,
    ConceptAssertion,
    FuzzyKB,
    RBox,
    RoleAssertion,
    TBox,
    compute_ell,
    detect_mode,
    expand_concept,
    hierarchy_closure,
    non_simple_restrictions,
    normalize_for_gci,
    relative_degrees,
    unfold,
    uses_shin_features,
)
from .syntax import Concept, Name, Role, nnf, subconcepts
from .tableau import (
    Budget,
    Forest,
    SolveResult,
    extract_model,
    init_forest,
    solve,
)

DEFAULT_BUDGET = 10**6


class ModeError(Exception):
    """The requested engine mode cannot handle the knowledge base."""


@dataclass
class Prepared:
    mode: str
    abox: ABox
    rbox: RBox
    unfolded: Optional[TBox]
    gcis: tuple
    xa: tuple
    ell: Optional[Degree]


def prepare(kb: FuzzyKB, mode: str = "auto") -> Prepared:
    resolved = detect_mode(kb) if mode == "auto" else mode
    if mode == "si" and uses_shin_features(kb):
        raise ModeError(
            "mode 'si' cannot handle number restrictions, role inclusions, "
            "or inequality assertions"
        )
    if mode in ("si", "shin") and not kb.tbox.is_unfoldable():
        raise ModeError(f"mode {mode!r} requires an unfoldable TBox; use 'gci'")
    rbox = hierarchy_closure(kb.rbox)
    bad = non_simple_restrictions(kb, rbox)
    if bad:
        raise ModeError(
            f"number restriction {bad[0]} is over the non-simple role "
            f"{bad[0].role}; f-SHIN allows only simple roles there"
        )
    if resolved == "gci":
        gcis: list[tuple[Concept, Concept]] = []
        for name, (kind, body) in kb.tbox.definitions.items():
            gcis.append((Name(name), nnf(body)))
            if kind == "equiv":
                gcis.append((nnf(body), Name(name)))
        for lhs, rhs in kb.tbox.gcis:
            gcis.append((nnf(lhs), nnf(rhs)))
        unfolded = None
        mapped = nnf
    else:
        unfolded = unfold(kb.tbox)
        mapped = partial(expand_concept, unfolded=unfolded)
    abox = ABox(
        [
            ConceptAssertion(ca.individual, mapped(ca.concept), ca.bound)
            for ca in kb.abox.concept_assertions
        ],
        list(kb.abox.role_assertions),
        set(kb.abox.inequalities),
    )
    if resolved != "gci":
        return Prepared(resolved, abox, rbox, unfolded, (), (), None)
    ell = compute_ell(abox.degrees())
    abox, xa = normalize_for_gci(abox, ell)
    return Prepared("gci", abox, rbox, None, tuple(gcis), xa, ell)


@dataclass
class ConsistencyResult:
    consistent: bool
    prepared: Prepared
    solve_result: SolveResult

    @property
    def trace(self) -> list:
        return self.solve_result.trace

    @property
    def forest(self) -> Optional[Forest]:
        return self.solve_result.forest


def consistency(
    kb: FuzzyKB, mode: str = "auto", budget: int = DEFAULT_BUDGET
) -> ConsistencyResult:
    prepared = prepare(kb, mode)
    result = solve(init_forest(prepared, Budget(budget)))
    return ConsistencyResult(result.consistent, prepared, result)


def _fresh_individual(kb: FuzzyKB) -> str:
    taken = set(kb.abox.individuals())
    name = "x0"
    n = 0
    while name in taken:
        n += 1
        name = f"x{n}"
    return name


def satisfiable(
    c: Concept, kb: Optional[FuzzyKB] = None, mode: str = "auto", budget: int = DEFAULT_BUDGET
) -> bool:
    kb = kb or FuzzyKB()
    a = _fresh_individual(kb)
    probe = kb.with_concept_assertion(ConceptAssertion(a, c, SignedBound(Ineq.GT, ZERO)))
    return consistency(probe, mode, budget).consistent


def n_satisfiable(
    c: Concept,
    n: Degree,
    kb: Optional[FuzzyKB] = None,
    mode: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> bool:
    kb = kb or FuzzyKB()
    a = _fresh_individual(kb)
    probe = kb.with_concept_assertion(
        ConceptAssertion(a, c, SignedBound(Ineq.GE, n))
    ).with_concept_assertion(ConceptAssertion(a, c, SignedBound(Ineq.LE, n)))
    return consistency(probe, mode, budget).consistent


Query = Union[tuple[str, Concept], tuple[str, str, Role]]


def _with_negated(kb: FuzzyKB, query: Query, bound: SignedBound) -> FuzzyKB:
    nb = SignedBound(negate(bound.ineq), bound.degree)
    if len(query) == 2:
        a, c = query
        return kb.with_concept_assertion(ConceptAssertion(a, c, nb))
    a, b, r = query
    return kb.with_role_assertion(RoleAssertion(a, b, r, nb))


def entails(
    kb: FuzzyKB,
    query: Query,
    bound: SignedBound,
    mode: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> bool:
    return not consistency(_with_negated(kb, query, bound), mode, budget).consistent


class InconsistentKB(Exception):
    """Degree bounds are not meaningful over an inconsistent KB."""


def _candidate_degrees(kb: FuzzyKB, mode: str) -> list[Degree]:
    pool = relative_degrees(kb.abox.degrees())
    if mode == "gci" or (mode == "auto" and detect_mode(kb) == "gci"):
        # the GCI degree set, which already holds each complement
        pool.update(prepare(kb, mode).xa)
    return sorted(d for d in pool if ZERO <= d <= ONE)


def glb(
    kb: FuzzyKB, query: Query, mode: str = "auto", budget: int = DEFAULT_BUDGET
) -> Degree:
    """Greatest lower bound: the largest candidate degree n with
    KB |= query >= n.  Raises InconsistentKB when the KB has no model."""
    return _tightest_bound(kb, query, Ineq.GE, mode, budget)


def lub(
    kb: FuzzyKB, query: Query, mode: str = "auto", budget: int = DEFAULT_BUDGET
) -> Degree:
    """Least upper bound: the smallest candidate degree n with
    KB |= query <= n."""
    return _tightest_bound(kb, query, Ineq.LE, mode, budget)


def _tightest_bound(kb: FuzzyKB, query: Query, ineq: Ineq, mode: str, budget: int) -> Degree:
    """The first candidate n, largest first for >= and smallest first for
    <=, with KB |= query <ineq> n."""
    if not consistency(kb, mode, budget).consistent:
        raise InconsistentKB()
    candidates = _candidate_degrees(kb, mode)
    if ineq.positive:
        candidates.reverse()
    for n in candidates:
        if entails(kb, query, SignedBound(ineq, n), mode, budget):
            return n
    # not reached: the last candidate, 0 or 1, is a bound every KB entails
    return candidates[-1]


def subsumes(
    d: Concept, c: Concept, kb: Optional[FuzzyKB] = None, mode: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Crisp subsumption c (= d w.r.t. the KB's TBox and RBox: both probe
    ABoxes {(a:c) >= n, (a:d) < n}, n in {1/2, 1}, must be inconsistent."""
    kb = kb or FuzzyKB()
    for n in (HALF, ONE):
        abox = ABox(
            [
                ConceptAssertion("x0", c, SignedBound(Ineq.GE, n)),
                ConceptAssertion("x0", d, SignedBound(Ineq.LT, n)),
            ]
        )
        probe = FuzzyKB(kb.tbox, kb.rbox, abox)
        if consistency(probe, mode, budget).consistent:
            return False
    return True


def model_for(result: ConsistencyResult):
    """Finite interpretation for a consistent SI verdict, with the original
    KB's defined concept names interpreted through their unfoldings.  A name
    of the unfolded TBox that no label bounds is free, and reads 0."""
    from .oracle import eval_concept

    if not result.consistent or result.forest is None:
        raise ValueError("no model: the knowledge base is inconsistent")
    model = extract_model(result.forest)
    unfolded = result.prepared.unfolded
    if unfolded is not None:
        for _, body in unfolded.definitions.values():
            for sub in subconcepts(body):
                if isinstance(sub, Name):
                    for e in model.domain:
                        model.concept_map.setdefault((sub.id, e), ZERO)
        for name, (_, body) in unfolded.definitions.items():
            for e in model.domain:
                model.concept_map[(name, e)] = eval_concept(model, body, e)
    return model
