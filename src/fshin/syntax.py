"""Concept and role ASTs, inverse normalization, NNF, sub-concept closure.

Roles and concepts, and the tableau's membership triples, are hash-consed:
the process holds one instance per value, and a dict maps (class, *fields),
a degree as its integer ratio, to a weak reference to it, so a constructor
called with the fields of a live instance hands back that instance.  The
classes are frozen dataclasses with eq=False, so equality is identity and
the hash is object's, and neither recurses into the fields.  Every way to
make a value gives the shared instance: a positional or keyword call,
dataclasses.replace, copy.copy, copy.deepcopy and a pickle round trip.  An
instance no one references leaves the table.  The table keys by ==, under
which 2.0 equals 2, True equals 1 and 0.5 has Fraction(1, 2)'s ratio, so the
constructors refuse such fields: a count is an int, a role's inverted a bool
and a triple's degree a Fraction (a degrees.SignedBound's is a Fraction or
an int).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, Union
from weakref import KeyedRef

# (class, *fields) -> a weak reference to the live instance with those
# fields; a plain dict, so that a hit, _TABLE.get(key, _absent)(), runs in C
_TABLE: dict[tuple, KeyedRef] = {}
_absent = type(None)  # calling it gives None, as calling a dead reference does

# the triples made last, held so that a triple no forest holds any more
# keeps its caches for the next task that derives it; dropping one from
# here only drops that cache, since a triple still held stays in _TABLE
_KEEP: deque = deque(maxlen=1 << 16)


class _Shared:
    """copy.copy and unpickling go through the constructor (__reduce__),
    and a deep copy is the instance itself: the table's stays the only one."""

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# one __new__ per field shape, each parameter named after its field, so
# that keyword calls and dataclasses.replace work; the classes set
# init=False, so a shared instance is never written again


def _drop(ref: KeyedRef) -> None:
    if _TABLE.get(ref.key) is ref:  # else the key was made again since
        del _TABLE[ref.key]


def _make(key: tuple, **values) -> object:
    self = object.__new__(key[0])
    self.__dict__.update(values)
    _TABLE[key] = KeyedRef(self, _drop, key)
    return self


def _new_none(cls):
    key = (cls,)
    return _TABLE.get(key, _absent)() or _make(key)


def _new_name(cls, id):
    key = (cls, id)
    return _TABLE.get(key, _absent)() or _make(key, id=id)


def _new_not(cls, arg):
    key = (cls, arg)
    return _TABLE.get(key, _absent)() or _make(key, arg=arg)


def _new_pair(cls, left, right):
    key = (cls, left, right)
    return _TABLE.get(key, _absent)() or _make(key, left=left, right=right)


def _new_quantifier(cls, role, body):
    key = (cls, role, body)
    return _TABLE.get(key, _absent)() or _make(key, role=role, body=body)


def _new_count(cls, count, role):
    if type(count) is not int:
        raise TypeError(f"a count is an int, not {count!r}")
    key = (cls, count, role)
    return _TABLE.get(key, _absent)() or _make(key, count=count, role=role)


def _new_role(cls, name, inverted=False):
    if type(inverted) is not bool:
        raise TypeError(f"inverted is a bool, not {inverted!r}")
    key = (cls, name, inverted)
    return _TABLE.get(key, _absent)() or _make(key, name=name, inverted=inverted)


def _new_triple(cls, subject, ineq, degree):
    if type(degree) is not Fraction:
        raise TypeError(f"a degree is a Fraction, not {degree!r}")
    key = (cls, subject, ineq, *degree.as_integer_ratio())
    self = _TABLE.get(key, _absent)()
    if self is None:
        self = _make(key, subject=subject, ineq=ineq, degree=degree)
        _KEEP.append(self)
    return self


_hash_consed = dataclass(frozen=True, eq=False, init=False)


@_hash_consed
class Role(_Shared):
    """A role name or its inverse.  Double inversion is never represented:
    use inv(), not nested constructors."""

    name: str
    inverted: bool = False
    __new__ = _new_role

    def __str__(self) -> str:
        return self.name + "-" if self.inverted else self.name


def inv(r: Role) -> Role:
    return Role(r.name, not r.inverted)


class Concept(_Shared):
    """Base class; all constructors are the hash-consed frozen dataclasses
    below."""

    def __str__(self) -> str:
        return concept_text(self)


@_hash_consed
class Top(Concept):
    __new__ = _new_none


@_hash_consed
class Bottom(Concept):
    __new__ = _new_none


@_hash_consed
class Name(Concept):
    id: str
    __new__ = _new_name


@_hash_consed
class Not(Concept):
    arg: Concept
    __new__ = _new_not


@_hash_consed
class And(Concept):
    left: Concept
    right: Concept
    __new__ = _new_pair


@_hash_consed
class Or(Concept):
    left: Concept
    right: Concept
    __new__ = _new_pair


@_hash_consed
class Exists(Concept):
    role: Role
    body: Concept
    __new__ = _new_quantifier


@_hash_consed
class Forall(Concept):
    role: Role
    body: Concept
    __new__ = _new_quantifier


@_hash_consed
class AtLeast(Concept):
    count: int
    role: Role
    __new__ = _new_count


@_hash_consed
class AtMost(Concept):
    count: int
    role: Role
    __new__ = _new_count


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
