"""Core term syntax for a lambda-Pi kernel, in locally nameless form.

Bound variables are de Bruijn indices (`Bound(0)` is the nearest
enclosing binder); free variables and rule pattern variables stay named
(`Var`).  A binder keeps the name it was written with only as a hint for
printing: hints take no part in `==` or `hash`, so `==` is
alpha-equivalence and substitution never renames.  Lambda domain
annotations do take part in `==` (conversion ignores them).

Terms are immutable, so they can be shared freely and used as dict keys.
The classes are slotted, and each compound node (`App`, `Lam`, `Pi`)
computes its hash once and keeps it: a term-keyed cache probe then
costs O(1) instead of a walk of the whole subterm, and hashing a term
recurses only into children that have not been hashed yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Union

__all__ = [
    "Sort", "Const", "Var", "Bound", "App", "Lam", "Pi", "Term",
    "TYPE", "KIND",
    "app", "spine", "lam", "pi",
    "free_vars", "fresh_name", "occurs",
    "abstract", "instantiate", "open_binder", "shift", "subst", "msubst",
    "alpha_eq", "Ctx",
]


class _Node:
    """Slotted base of the term classes.  Its one slot, `_h`, holds the
    hash of a compound node once it has been computed; it is no field,
    so it takes no part in construction, `==` or `repr`."""

    __slots__ = ("_h",)


@dataclass(frozen=True, slots=True)
class Sort(_Node):
    kind: str  # "TYPE" or "KIND"


TYPE = Sort("TYPE")
KIND = Sort("KIND")


@dataclass(frozen=True, slots=True)
class Const(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Bound(_Node):
    index: int


def _memo_hash(*fields: str):
    """`__hash__` for a compound node: the dataclass value, the hash of
    the compared fields as a tuple, computed once and kept in `_h`."""
    children = attrgetter(*fields)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash(children(self))
            object.__setattr__(self, "_h", h)
            return h
    return __hash__


@dataclass(frozen=True, slots=True)
class App(_Node):
    fn: "Term"
    arg: "Term"

    __hash__ = _memo_hash("fn", "arg")


@dataclass(frozen=True, slots=True)
class Lam(_Node):
    var: str = field(compare=False)  # printing hint
    dom: Optional["Term"]  # annotation is optional on lambdas
    body: "Term"

    __hash__ = _memo_hash("dom", "body")


@dataclass(frozen=True, slots=True)
class Pi(_Node):
    var: str = field(compare=False)  # printing hint
    dom: "Term"
    cod: "Term"

    __hash__ = _memo_hash("dom", "cod")


Term = Union[Sort, Const, Var, Bound, App, Lam, Pi]


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application of fn to args."""
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split a term into its head and argument list: spine(f a b) = (f, [a, b])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def lam(name: str, dom: Optional[Term], body: Term) -> Lam:
    """The abstraction `name : dom => body`, binding the free `name`."""
    return Lam(name, dom, abstract(body, name))


def pi(name: str, dom: Term, cod: Term) -> Pi:
    """The product `name : dom -> cod`, binding the free `name`."""
    return Pi(name, dom, abstract(cod, name))


def free_vars(t: Term) -> frozenset[str]:
    """Names of the Var occurrences in t."""
    match t:
        case Var(n):
            return frozenset((n,))
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Lam(_, dom, body):
            return free_vars(dom) | free_vars(body)  # a missing dom has none
        case Pi(_, dom, cod):
            return free_vars(dom) | free_vars(cod)
        case _:
            return frozenset()


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    n = 0
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def occurs(t: Term, index: int = 0) -> bool:
    """Whether the bound variable `index`, counted from t's top, occurs in t."""
    match t:
        case Bound(i):
            return i == index
        case App(f, a):
            return occurs(f, index) or occurs(a, index)
        case Lam(_, dom, body):
            return occurs(dom, index) or occurs(body, index + 1)
        case Pi(_, dom, cod):
            return occurs(dom, index) or occurs(cod, index + 1)
        case _:
            return False


def _rebuild(t: Term, leaf: Callable[[Term, int], Term], depth: int) -> Term:
    """Rebuild t with each Var and Bound replaced by `leaf(node, depth)`,
    where depth counts the binders above the node.  Unchanged subterms
    are shared, and a missing lambda domain stays None.  Dispatches on
    the exact class: on this hot path that is twice as fast as `match`."""
    cls = t.__class__
    if cls is App:
        f, a = _rebuild(t.fn, leaf, depth), _rebuild(t.arg, leaf, depth)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is Var or cls is Bound:
        return leaf(t, depth)
    if cls is Lam:
        d, b = _rebuild(t.dom, leaf, depth), _rebuild(t.body, leaf, depth + 1)
        return t if d is t.dom and b is t.body else Lam(t.var, d, b)
    if cls is Pi:
        d, c = _rebuild(t.dom, leaf, depth), _rebuild(t.cod, leaf, depth + 1)
        return t if d is t.dom and c is t.cod else Pi(t.var, d, c)
    return t


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every bound index of t at or above `cutoff` (counted
    from t's top): the indices that point past t's own binders."""
    def leaf(v, depth):
        if isinstance(v, Bound) and v.index >= cutoff + depth:
            return Bound(v.index + by)
        return v
    return _rebuild(t, leaf, 0) if by else t


def abstract(t: Term, name: str) -> Term:
    """The body of a binder over the free variable `name` wrapped around
    t: occurrences of `name` become that binder's index, and indices
    that already pointed past t move up by one."""
    def leaf(v, depth):
        if isinstance(v, Var):
            return Bound(depth) if v.name == name else v
        return Bound(v.index + 1) if v.index >= depth else v
    return _rebuild(t, leaf, 0)


def instantiate(body: Term, arg: Term) -> Term:
    """Open a binder's body with `arg`: the binder's index becomes arg,
    shifted under the binders it passes, and indices pointing further
    out move down by one."""
    def leaf(v, depth):
        if isinstance(v, Var) or v.index < depth:
            return v
        return shift(arg, depth) if v.index == depth else Bound(v.index - 1)
    return _rebuild(body, leaf, 0)


def open_binder(hint: str, body: Term,
                avoid: frozenset[str] | set[str]) -> tuple[str, Term]:
    """Open a binder's body with a free variable named after its hint,
    renamed apart from `avoid`.  Returns the name and the opened body."""
    v = fresh_name(hint, avoid)
    return v, instantiate(body, Var(v))


def msubst(t: Term, sub: dict[str, Term]) -> Term:
    """Simultaneous substitution of free variables: a replacement is
    inserted as is (never substituted again) and shifted under the
    binders it passes."""
    def leaf(v, depth):
        if isinstance(v, Var) and v.name in sub:
            return shift(sub[v.name], depth)
        return v
    return _rebuild(t, leaf, 0) if sub else t


def subst(t: Term, name: str, repl: Term) -> Term:
    """Substitute repl for the free variable `name` in t."""
    return msubst(t, {name: repl})


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables, which is `==`."""
    return a == b


@dataclass(frozen=True)
class Ctx:
    """Typing context: ordered name/type pairs, innermost binding last.

    Lookup resolves to the innermost entry, so pushing an existing name
    shadows the older entry.
    """

    entries: tuple[tuple[str, Term], ...] = ()

    def push(self, name: str, ty: Term) -> "Ctx":
        return Ctx(self.entries + ((name, ty),))

    def lookup(self, name: str) -> Optional[Term]:
        for n, ty in reversed(self.entries):
            if n == name:
                return ty
        return None

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)
