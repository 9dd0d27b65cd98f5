"""Property audit of a finished completion forest: an independent re-check,
written apart from the rules, of the completeness and coherence properties a
complete clash-free forest must satisfy.  Test code only; no module of fshin
calls it."""

from __future__ import annotations

from typing import Optional

from fshin.degrees import SignedBound, conjugates, neg_lukasiewicz, reflect
from fshin.kb import ABox
from fshin.syntax import And, Exists, Forall, Not, Or
from fshin.tableau import (
    INDIRECT,
    UNBLOCKED,
    Forest,
    Triple,
    _directed_edge_triples,
    _has_pairwise_distinct,
    _merge_pairs,
    find_clash,
)


def audit_properties(f: Forest, abox: Optional[ABox] = None) -> list[str]:
    """Independent re-check of the completeness/coherence properties a
    complete clash-free forest must satisfy, read as a tableau over
    non-blocked nodes.  Returns human-readable violations (empty = pass)."""
    out: list[str] = []
    f.blocking()
    clash = find_clash(f)
    if clash:
        out.append(f"clash present: {clash}")

    for node in f.nodes.values():
        blocked_kind = node.status[0]
        for t in f.sorted_label(node):
            c = t.subject
            if isinstance(c, Not):
                want = Triple(c.arg, reflect(t.ineq), neg_lukasiewicz(t.degree))
                if want not in node.label:
                    out.append(f"negation not pushed at {node.id}: {t}")
            if blocked_kind == INDIRECT:
                continue
            if isinstance(c, And) and t.ineq.positive or isinstance(c, Or) and t.ineq.negative:
                for part in (c.left, c.right):
                    if Triple(part, t.ineq, t.degree) not in node.label:
                        out.append(f"decomposition incomplete at {node.id}: {t}")
            if isinstance(c, Or) and t.ineq.positive or isinstance(c, And) and t.ineq.negative:
                if not any(
                    Triple(part, t.ineq, t.degree) in node.label for part in (c.left, c.right)
                ):
                    out.append(f"split unresolved at {node.id}: {t}")
            if isinstance(c, Forall) and t.ineq.positive:
                probe = t.reflected
                want = Triple(c.body, t.ineq, t.degree)
                for y, b in f.neighbour_bounds(node.id, c.role):
                    if conjugates(b, probe) and want not in f.nodes[y].label:
                        out.append(f"universal not propagated from {node.id} to {y}: {t}")
                for r in f.rbox.transitive_subroles(c.role):
                    want_r = Triple(Forall(r, c.body), t.ineq, t.degree)
                    for y, b in f.neighbour_bounds(node.id, r):
                        if conjugates(b, probe) and want_r not in f.nodes[y].label:
                            out.append(
                                f"transitive universal not propagated from {node.id} to {y}: {t}"
                            )
            if isinstance(c, Exists) and t.ineq.negative:
                probe = SignedBound(t.ineq, t.degree)
                want = Triple(c.body, t.ineq, t.degree)
                for y, b in f.neighbour_bounds(node.id, c.role):
                    if conjugates(b, probe) and want not in f.nodes[y].label:
                        out.append(f"negated existential not propagated from {node.id} to {y}: {t}")
                for r in f.rbox.transitive_subroles(c.role):
                    want_r = Triple(Exists(r, c.body), t.ineq, t.degree)
                    for y, b in f.neighbour_bounds(node.id, r):
                        if conjugates(b, probe) and want_r not in f.nodes[y].label:
                            out.append(
                                f"transitive negated existential not propagated "
                                f"from {node.id} to {y}: {t}"
                            )
            if blocked_kind != UNBLOCKED:
                continue
            if isinstance(c, Exists) and t.ineq.positive:
                if not f.has_exact_neighbour(
                    node.id, c.role, t.bound, Triple(c.body, t.ineq, t.degree)
                ):
                    out.append(f"existential without witness at {node.id}: {t}")
            if isinstance(c, Forall) and t.ineq.negative:
                bound = t.reflected
                if not f.has_exact_neighbour(
                    node.id, c.role, bound, Triple(c.body, t.ineq, t.degree)
                ):
                    out.append(f"negated universal without witness at {node.id}: {t}")
        if blocked_kind == UNBLOCKED:
            for c, edge, _ in (t.atleast for t in node.of_kind("count") if t.atleast):
                members = sorted(
                    {y for y, b in f.neighbour_bounds(node.id, c.role) if b == edge.bound}
                )
                if not _has_pairwise_distinct(f, members, c.count):
                    out.append(f"at-least unsatisfied at {node.id}: >= {c.count} {c.role}")
        if blocked_kind != INDIRECT:
            for c, probe, _ in (t.atmost for t in node.of_kind("count") if t.atmost):
                members = f.conjugated_neighbours(node.id, c.role, probe)
                if len(members) > c.count:
                    if _merge_pairs(f, node.id, members, False) or _merge_pairs(
                        f, node.id, members, True
                    ):
                        out.append(f"at-most merge still applicable at {node.id}")
            if node.merged_into is None:
                for n, t1, t2 in f.gci_splits:
                    if t1 not in node.label and t2 not in node.label:
                        out.append(f"inclusion split unresolved at {node.id} for degree {n}")

    if abox is not None:
        roots = {n.root_name: n.id for n in f.nodes.values() if n.root_name is not None}

        def resolve(i: int) -> int:
            while f.nodes[i].merged_into is not None:
                i = f.nodes[i].merged_into
            return i

        for ca in abox.concept_assertions:
            node = f.nodes[resolve(roots[ca.individual])]
            if Triple(ca.concept, ca.bound.ineq, ca.bound.degree) not in node.label:
                out.append(f"initial assertion missing at root {ca.individual}")
        for ra in abox.role_assertions:
            a = resolve(roots[ra.subject])
            b = resolve(roots[ra.object])
            t = Triple(ra.role, ra.bound.ineq, ra.bound.degree)
            if t not in _directed_edge_triples(f, a, b):
                out.append(f"initial role assertion missing on ({ra.subject},{ra.object})")
    return out
