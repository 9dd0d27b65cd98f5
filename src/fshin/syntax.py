"""Concept and role ASTs, inverse normalization, NNF, sub-concept closure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union


@dataclass(frozen=True)
class Role:
    """A role name or its inverse.  Double inversion is never represented:
    use inv(), not nested constructors."""

    name: str
    inverted: bool = False

    def __str__(self) -> str:
        return self.name + "-" if self.inverted else self.name


def inv(r: Role) -> Role:
    return Role(r.name, not r.inverted)


class Concept:
    """Base class; all constructors are frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return concept_text(self)


@dataclass(frozen=True)
class Top(Concept):
    pass


@dataclass(frozen=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True)
class Name(Concept):
    id: str


@dataclass(frozen=True)
class Not(Concept):
    arg: Concept


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    body: Concept


@dataclass(frozen=True)
class Forall(Concept):
    role: Role
    body: Concept


@dataclass(frozen=True)
class AtLeast(Concept):
    count: int
    role: Role


@dataclass(frozen=True)
class AtMost(Concept):
    count: int
    role: Role


TOP = Top()
BOTTOM = Bottom()


def concept_text(c: Concept) -> str:
    """Canonical concrete syntax; parseable back by the parser module."""
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bottom"
    if isinstance(c, Name):
        return c.id
    if isinstance(c, Not):
        return f"not {_atom_text(c.arg)}"
    if isinstance(c, And):
        return f"({concept_text(c.left)} and {concept_text(c.right)})"
    if isinstance(c, Or):
        return f"({concept_text(c.left)} or {concept_text(c.right)})"
    if isinstance(c, Exists):
        return f"some {c.role}.{_atom_text(c.body)}"
    if isinstance(c, Forall):
        return f"all {c.role}.{_atom_text(c.body)}"
    if isinstance(c, AtLeast):
        return f">= {c.count} {c.role}"
    if isinstance(c, AtMost):
        return f"<= {c.count} {c.role}"
    raise TypeError(f"not a concept: {c!r}")


def _atom_text(c: Concept) -> str:
    # operands of prefix operators get parentheses unless already atomic
    text = concept_text(c)
    if isinstance(c, (Top, Bottom, Name, And, Or)):
        return text
    return f"({text})"


def rebuild(c: Concept, fn: Callable[[Concept], Concept]) -> Concept:
    """c with fn applied to each of its direct sub-concepts; c itself when
    it has none."""
    if isinstance(c, Not):
        return Not(fn(c.arg))
    if isinstance(c, (And, Or)):
        return type(c)(fn(c.left), fn(c.right))
    if isinstance(c, (Exists, Forall)):
        return type(c)(c.role, fn(c.body))
    return c


def nnf(c: Concept) -> Concept:
    """Equivalent concept with negation pushed onto concept names only."""
    if not isinstance(c, Not):
        return rebuild(c, nnf)
    a = c.arg
    if isinstance(a, Name):
        return c
    if isinstance(a, Top):
        return BOTTOM
    if isinstance(a, Bottom):
        return TOP
    if isinstance(a, Not):
        return nnf(a.arg)
    if isinstance(a, And):
        return Or(nnf(Not(a.left)), nnf(Not(a.right)))
    if isinstance(a, Or):
        return And(nnf(Not(a.left)), nnf(Not(a.right)))
    if isinstance(a, Exists):
        return Forall(a.role, nnf(Not(a.body)))
    if isinstance(a, Forall):
        return Exists(a.role, nnf(Not(a.body)))
    if isinstance(a, AtMost):
        return AtLeast(a.count + 1, a.role)
    if isinstance(a, AtLeast):
        if a.count == 0:
            return BOTTOM
        return AtMost(a.count - 1, a.role)
    raise TypeError(f"not a concept: {a!r}")


def subconcepts(c: Concept) -> Iterator[Concept]:
    """c and all of its syntactic sub-concepts."""
    yield c
    if isinstance(c, Not):
        yield from subconcepts(c.arg)
    elif isinstance(c, (And, Or)):
        yield from subconcepts(c.left)
        yield from subconcepts(c.right)
    elif isinstance(c, (Exists, Forall)):
        yield from subconcepts(c.body)


Subject = Union[Concept, Role]
