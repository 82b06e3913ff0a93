"""Core term syntax for a lambda-Pi kernel, in locally nameless form.

Bound variables are de Bruijn indices (`Bound(0)` is the nearest
enclosing binder); free variables and rule pattern variables stay named
(`Var`).  A binder keeps the name it was written with only as a hint for
printing: hints take no part in `==` or `hash`, so `==` is
alpha-equivalence and substitution never renames.  The printer opens
no binder: it names each from its hint and prints an index as the name
of its binder.  Lambda domain annotations do take part in `==`
(conversion ignores them).

Terms are immutable, so they can be shared freely and used as dict keys.
The classes are slotted, and each compound node (`App`, `Lam`, `Pi`)
computes its hash when it is built, from its children's kept hashes: a
term-keyed cache probe costs O(1), and hashing never walks a term.
`==` on compound nodes works through an explicit list of pairs, so
neither hashing nor equality is bounded by the interpreter's recursion
limit.  `==` stops early at identical subterms and rejects two nodes
whose kept hashes differ.

Traversals that only read a term go through one walker, `subterms`,
which yields every node in preorder with the number of binders above
it and keeps its own stack: `free_vars`, `occurs`, the printer's
choice of binder names and the rule pattern check are built on it.
The traversals that rebuild a term (`shift`, `abstract`, `instantiate`,
`msubst`) share `_rebuild`, which still recurses.  A firing rule does
not call `msubst` on its right-hand side: `compile_msubst` turns a term
into a function of the substitution, once per rule, which builds the
same term without a walk or a call per node that does not change.
`instantiate` opens
any number of nested binders in one walk, and `abstract` closes them,
so a checker that peels a telescope substitutes into each domain, and
into the final body and its type, once.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Container, Iterator, Optional, Sequence, Union

__all__ = [
    "Record",
    "Sort", "Const", "Var", "Bound", "App", "Lam", "Pi", "Term",
    "TYPE", "KIND",
    "app", "spine", "lam", "pi",
    "subterms", "free_vars", "fresh_name", "occurs",
    "abstract", "instantiate", "shift", "subst", "msubst",
    "compile_msubst",
    "alpha_eq",
]


_set = object.__setattr__


class Record:
    """Base of the package's immutable records: a slotted class whose
    fields are its `__match_args__`, each held in a slot.  `==` compares
    the class and the fields, `hash` is the hash of the fields as a
    tuple, `repr` is `Cls(field=value, ...)`, assigning to a field
    raises AttributeError, and copies and pickles go through the
    constructor.

    The methods are written once, here, rather than generated for each
    class when its module is imported, which every process would pay
    for.  A record that is built or compared on a hot path writes out
    its own `__init__` (and `__eq__` with `__hash__`), with the fields
    as parameters: the generic ones take about twice as long."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # what the generic methods need of a class, found once: a getter
        # of its field values as a tuple, and its `repr` as a format
        fields = cls.__match_args__
        get = attrgetter(*fields) if fields else lambda r: ()
        cls._values = staticmethod(
            (lambda r: (get(r),)) if len(fields) == 1 else get)
        cls._format = (f"{cls.__qualname__}("
                       + ", ".join(f + "={!r}" for f in fields) + ")")
        if not fields and cls.__init__ is Record.__init__:
            # nothing to set: object's own constructor refuses arguments
            cls.__init__ = object.__init__

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args):]
                          if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields "
                            f"{', '.join(fields) or 'none'}")
        for f, v in zip(fields, args):
            _set(self, f, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return self._format.format(*self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return self.__class__(**dict(zip(self.__match_args__,
                                         self._values(self)), **changes))


# A leaf's `==` and `hash` are the generic ones written out: they are on
# every term-keyed probe.

class Sort(Record):
    __slots__ = __match_args__ = ("kind",)  # "TYPE" or "KIND"

    def __init__(self, kind: str):
        _set(self, "kind", kind)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind,))


TYPE = Sort("TYPE")
KIND = Sort("KIND")


def _init_name(self, name: str):
    _set(self, "name", name)


def _eq_name(self, other):
    if other.__class__ is self.__class__:
        return self.name == other.name
    return NotImplemented


def _hash_name(self) -> int:
    return hash((self.name,))


class Const(Record):
    __slots__ = __match_args__ = ("name",)
    __init__, __eq__, __hash__ = _init_name, _eq_name, _hash_name


class Var(Record):
    __slots__ = __match_args__ = ("name",)
    __init__, __eq__, __hash__ = _init_name, _eq_name, _hash_name


class Bound(Record):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))


def _kept_hash(self) -> int:
    return self._h


def _eq(self, other) -> bool:
    """`==` on compound nodes, over an explicit list of pairs rather
    than by recursion.  Identical subterms are equal, and two nodes
    whose kept hashes differ are not."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    todo = []
    a, b = self, other
    while True:
        if a is not b:
            cls = a.__class__
            if cls is not b.__class__:
                return False
            if cls is App:
                if a._h != b._h:
                    return False
                todo.append((a.arg, b.arg))
                a, b = a.fn, b.fn
                continue
            if cls is Lam or cls is Pi:
                if a._h != b._h:
                    return False
                todo.append((a.body, b.body) if cls is Lam else (a.cod, b.cod))
                a, b = a.dom, b.dom  # both None on unannotated lambdas
                continue
            if cls is Bound:
                if a.index != b.index:
                    return False
            elif cls is Sort:
                if a.kind != b.kind:
                    return False
            elif a.name != b.name:  # Const, Var
                return False
        if not todo:
            return True
        a, b = todo.pop()


# A compound node keeps its hash in the slot `_h`, which is no field, set
# when the node is built to the hash of the compared fields as a tuple,
# which reads the children's kept hashes.  A binder's name is a printing
# hint, compared by neither `==` nor `hash`.

class App(Record):
    __slots__ = ("fn", "arg", "_h")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: "Term", arg: "Term"):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "_h", hash((fn, arg)))

    __hash__ = _kept_hash
    __eq__ = _eq


class Lam(Record):
    __slots__ = ("var", "dom", "body", "_h")  # dom: None when unannotated
    __match_args__ = ("var", "dom", "body")

    def __init__(self, var: str, dom: Optional["Term"], body: "Term"):
        _set(self, "var", var)
        _set(self, "dom", dom)
        _set(self, "body", body)
        _set(self, "_h", hash((dom, body)))

    __hash__ = _kept_hash
    __eq__ = _eq


class Pi(Record):
    __slots__ = ("var", "dom", "cod", "_h")
    __match_args__ = ("var", "dom", "cod")

    def __init__(self, var: str, dom: "Term", cod: "Term"):
        _set(self, "var", var)
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "_h", hash((dom, cod)))

    __hash__ = _kept_hash
    __eq__ = _eq


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
    return Lam(name, dom, abstract(body, (name,)))


def pi(name: str, dom: Term, cod: Term) -> Pi:
    """The product `name : dom -> cod`, binding the free `name`."""
    return Pi(name, dom, abstract(cod, (name,)))


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Every node of t in preorder, left to right (a binder's domain
    before its body), each with the number of binders above it.  Keeps
    its own stack; a missing lambda domain is skipped."""
    todo = [(t, 0)]
    while todo:
        t, depth = todo.pop()
        yield t, depth
        cls = t.__class__
        if cls is App:
            todo += ((t.arg, depth), (t.fn, depth))
        elif cls is Lam:
            todo.append((t.body, depth + 1))
            if t.dom is not None:
                todo.append((t.dom, depth))
        elif cls is Pi:
            todo += ((t.cod, depth + 1), (t.dom, depth))


def free_vars(t: Term) -> frozenset[str]:
    """Names of the Var occurrences in t."""
    return frozenset(s.name for s, _ in subterms(t) if s.__class__ is Var)


def fresh_name(base: str, avoid: Container[str]) -> str:
    if base not in avoid:
        return base
    n = 0
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def occurs(t: Term, index: int = 0) -> bool:
    """Whether the bound variable `index`, counted from t's top, occurs in t."""
    return any(s.__class__ is Bound and s.index == index + depth
               for s, depth in subterms(t))


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
    from t's top): the indices that point past t's own binders.  A shift
    by 0 returns t before anything is built."""
    if not by:
        return t

    def leaf(v, depth):
        if isinstance(v, Bound) and v.index >= cutoff + depth:
            return Bound(v.index + by)
        return v
    return _rebuild(t, leaf, 0)


def abstract(t: Term, names: Sequence[str]) -> Term:
    """The body of k = len(names) nested binders wrapped around t in one
    walk, binding the free variable `names[0]` at the outermost binder
    and `names[-1]` at the innermost: occurrences of each name become its
    binder's index (the innermost binder's, for a repeated name), and
    indices that already pointed past t move up by k.  So it is the body
    of nested `lam`s over the names, each binding one; `instantiate` with
    the names' variables undoes it."""
    k = len(names)
    index = {name: k - 1 - i for i, name in enumerate(names)}

    def leaf(v, depth):
        if isinstance(v, Var):
            i = index.get(v.name)
            return v if i is None else Bound(depth + i)
        return Bound(v.index + k) if v.index >= depth else v
    return _rebuild(t, leaf, 0)


def instantiate(body: Term, args: Sequence[Term]) -> Term:
    """Open the body of k = len(args) nested binders in one walk, with
    `args[0]` for the outermost binder and `args[-1]` for the innermost:
    each binder's index becomes its argument, shifted under the binders
    it passes, and indices pointing further out move down by k.  Equal
    to opening the binders one at a time, outermost first.  The
    arguments come as one sequence, so a walk down a telescope passes
    the list it keeps as it is, not a copy at each binder."""
    k = len(args)

    def leaf(v, depth):
        if isinstance(v, Var) or v.index < depth:
            return v
        i = v.index - depth  # 0 is the innermost opened binder
        return shift(args[k - 1 - i], depth) if i < k else Bound(v.index - k)
    return _rebuild(body, leaf, 0) if k else body


def msubst(t: Term, sub: dict[str, Term]) -> Term:
    """Simultaneous substitution of free variables: a replacement is
    inserted as is (never substituted again) and shifted under the
    binders it passes; outside every binder it is inserted itself,
    with no call to `shift`."""
    def leaf(v, depth):
        if v.__class__ is Var:
            repl = sub.get(v.name)
            if repl is not None:
                return shift(repl, depth) if depth else repl
        return v
    return _rebuild(t, leaf, 0) if sub else t


def compile_msubst(t: Term, names: Sequence[str]
                   ) -> Callable[[dict[str, Term]], Term]:
    """`msubst(t, sub)` for a `sub` that binds each of `names` and
    nothing else, compiled once for t, in one bottom-up pass, into a
    function of `sub`.  It returns each subterm without one of the names
    as it is, builds only the nodes above them, and shifts a replacement
    under the binders it passes, as `msubst` does.  It recurses as deep
    as the nodes above the names, as `_rebuild` does."""
    return _compile(t, names, 0) or (lambda sub: t)


def _compile(t: Optional[Term], names: Sequence[str],
             depth: int) -> Optional[Callable[[dict[str, Term]], Term]]:
    """`compile_msubst` of t under `depth` binders, or None when no name
    occurs in t.  A name outside every binder is looked up by
    `itemgetter`, in C."""
    cls = t.__class__
    if cls is Var:
        name = t.name
        if name not in names:
            return None
        if not depth:
            return itemgetter(name)
        return lambda sub: shift(sub[name], depth)
    if cls is App:
        fn, arg = t.fn, t.arg
        f, a = _compile(fn, names, depth), _compile(arg, names, depth)
        if f is None:
            return None if a is None else lambda sub: App(fn, a(sub))
        if a is None:
            return lambda sub: App(f(sub), arg)
        return lambda sub: App(f(sub), a(sub))
    if cls is Lam or cls is Pi:
        dom = t.dom
        body = t.body if cls is Lam else t.cod
        d = _compile(dom, names, depth)
        b = _compile(body, names, depth + 1)
        if d is None and b is None:
            return None
        var, d, b = t.var, d or (lambda sub: dom), b or (lambda sub: body)
        return lambda sub: cls(var, d(sub), b(sub))
    return None  # a constant, a sort, a bound index or a missing domain


def subst(t: Term, name: str, repl: Term) -> Term:
    """Substitute repl for the free variable `name` in t."""
    return msubst(t, {name: repl})


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables, which is `==`."""
    return a == b
