"""Bidirectional type checking for the lambda-Pi calculus modulo the
rewrite rules accumulated in a signature.

Definitional equality is conversion: beta, eta, the signature's rewrite
rules, and unfolding of definitions (a definition is installed as a
rule `name --> body` named `name.def`).

A telescope is checked in one loop, not by recursion down it: an
application's whole spine, a product's nested domains, and a chain of
abstractions, inferred or checked against a product.  Products are
peeled as they are written, so each domain, and at the end the body, is
opened once with a multi-binder `instantiate` over the binders before
it; a type is weak-head normalized only where it is not syntactically a
product.  An inferred chain's type abstracts the body's type over all
the opened names in one walk.

Scope is the parser's: `parser.parse_file` refuses an unbound
identifier at its token, so a declaration's type and body are closed
and a rule's Vars are its pattern variables, which are its context.
The context is a dict from each name in scope to its type.  A telescope
adds each opened binder to its caller's dict under a name fresh for it,
which captures no Var of the term, as each is a key, and deletes them
when it ends, however it ends: nested telescopes copy no context.
An abstraction's annotation is typed whether the abstraction is
inferred or checked.

As in a Dedukti signature, only a definable ('def') constant without a
body may take rules, and `check_rule` alone decides it: the parser asks
only that a rule be headed by a declared constant.  Rule checking then
derives each pattern variable's type from the position it occupies in
the left-hand side, and checks the right-hand side against the
left-hand side's type in that context.  What a left-hand side may hold,
`rewrite.compile_rule` decides first.  Over-applied heads and a variable
used at two incompatible types are rejected; the residual constraint
that a constructor subpattern's computed type matches the surrounding
expected type is not enforced, since it quantifies over the pattern
variables and routinely fails for perfectly sound rules (projections
whose indices the pattern refines).  Unsound rules still surface when
the right-hand side fails to check.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .parser import (Declaration, DefinableConst, Definition, RuleDecl,
                     SourceSpan, StaticConst, pretty)
from .rewrite import (DEFAULT_FUEL, Fuel, Reducer, RewriteRule,
                      RuleCompileError, compile_rule)
from .terms import (App, Const, KIND, Lam, Pi, Record, Sort, TYPE, Term, Var,
                    abstract, fresh_name, instantiate, spine)

__all__ = [
    "TypeCheckError", "ConstInfo", "Signature",
    "infer", "check", "check_rule", "check_declaration", "check_signature",
]


class TypeCheckError(Exception):
    """Any failure of declaration or term checking.

    `kind` is a coarse machine-readable tag: one of mismatch,
    not-a-function, unbound, sort-error, rule-ill-typed, redeclaration.
    Running out of fuel is not a type error: it raises FuelExhausted.
    """

    def __init__(self, msg: str, span: Optional[SourceSpan] = None,
                 expected: Optional[Term] = None,
                 actual: Optional[Term] = None,
                 kind: str = "mismatch"):
        super().__init__(msg)
        self.msg = msg
        self.span = span
        self.expected = expected
        self.actual = actual
        self.kind = kind

    def render(self) -> str:
        head = f"[{self.kind}] {self.msg}"
        if self.span:
            head = f"{self.span}: {head}"
        lines = [head]
        if self.expected is not None:
            lines.append(f"  expected: {pretty(self.expected)}")
        if self.actual is not None:
            lines.append(f"  actual:   {pretty(self.actual)}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class ConstInfo(Record):
    __slots__ = __match_args__ = ("name", "ty", "static", "body")


class Signature:
    """Declared constants plus head-indexed rewrite rules, as in a
    Dedukti signature: `consts` in declaration order (the dict's own)
    and `rules` by head.  It keeps no reduction cache: each `reducer`
    owns its own, for one query."""

    def __init__(self):
        self.consts: dict[str, ConstInfo] = {}
        self.rules: dict[str, list[RewriteRule]] = {}

    def reducer(self, fuel: Optional[Fuel] = None, cached: bool = True) -> Reducer:
        return Reducer(self.rules, fuel, cached)

    def add_const(self, info: ConstInfo) -> None:
        if info.name in self.consts:
            raise TypeCheckError(f"{info.name!r} is already declared",
                                 kind="redeclaration")
        self.consts[info.name] = info

    def add_rule(self, rule: RewriteRule) -> None:
        self.rules.setdefault(rule.head, []).append(rule)

    def rule_list(self) -> list[RewriteRule]:
        """Every installed rule, in declaration order of the head and
        then rule order; definition-unfolding rules included."""
        out = []
        for name in self.consts:
            out.extend(self.rules.get(name, ()))
        return out

    def copy(self) -> "Signature":
        s = Signature()
        s.consts = dict(self.consts)
        s.rules = {k: list(v) for k, v in self.rules.items()}
        return s


def infer(sig: Signature, ctx: dict[str, Term], t: Term, red: Reducer) -> Term:
    """The type of `t` in `ctx`, a dict from each name in scope to its
    type, which is left unchanged.  Every Var of `t` must be a key of
    `ctx`: the names opened for binders avoid those keys alone."""
    match t:
        case Sort(k):
            if k == "TYPE":
                return KIND
            raise TypeCheckError("Kind has no type", kind="sort-error")
        case Const(n):
            info = sig.consts.get(n)
            if info is None:
                raise TypeCheckError(f"undeclared constant {n!r}", kind="unbound")
            return info.ty
        case Var(n):
            ty = ctx.get(n)
            if ty is None:
                raise TypeCheckError(f"unbound variable {n!r}", kind="unbound")
            return ty
        case App():
            head, args = spine(t)
            return _apply(red, infer(sig, ctx, head, red), args,
                          lambda a, dom: check(sig, ctx, a, dom, red),
                          _non_function)
        case Lam() | Pi():
            # the whole telescope of products or of abstractions: each
            # domain is opened with the binders before it, the final
            # codomain or body once with them all
            cls = t.__class__
            opened: list[Term] = []
            binders: list[Term] = []
            try:
                while t.__class__ is cls:
                    if t.dom is None:
                        raise TypeCheckError("cannot infer the type of an "
                                             "unannotated abstraction")
                    dom = instantiate(t.dom, opened)
                    _check_is_type(sig, ctx, dom, red)
                    v = fresh_name(t.var, ctx)
                    ctx[v] = dom
                    opened.append(Var(v))
                    binders.append(t)
                    t = t.cod if cls is Pi else t.body
                s = infer(sig, ctx, instantiate(t, opened), red)
            finally:
                for x in opened:
                    del ctx[x.name]
            if cls is Lam:
                if s == KIND:
                    raise TypeCheckError("an abstraction cannot produce a kind",
                                         kind="sort-error")
                # each annotation as written is its product's domain
                s = abstract(s, [x.name for x in opened])
                for b in reversed(binders):
                    s = Pi(b.var, b.dom, s)
                return s
            s = red.whnf(s)
            if not isinstance(s, Sort):
                raise TypeCheckError("product codomain must be a type or a kind",
                                     actual=s, kind="sort-error")
            return s
    raise TypeCheckError(f"not a term: {t!r}")


def _non_function(w: Term) -> TypeCheckError:
    return TypeCheckError("application of a non-function", actual=w,
                          kind="not-a-function")


def _apply(red: Reducer, ty: Term, args: Sequence[Term],
           on_arg: Callable[[Term, Term], object],
           not_a_product: Callable[[Term], TypeCheckError]) -> Term:
    """The type of a head of type `ty` applied to `args`, calling
    `on_arg(a, dom)` on each argument, left to right, with the domain it
    meets.  Products are peeled as they are written: each domain, and
    at the end the codomain, is instantiated once, with the arguments
    not yet substituted into it.  The pending type is weak-head
    normalized only when it is not syntactically a product; if it is
    still none, `not_a_product` of it is raised."""
    pending: list[Term] = []  # the arguments owed to `ty`, outermost first
    for a in args:
        if ty.__class__ is not Pi:
            ty = red.whnf(instantiate(ty, pending))
            pending = []
            if ty.__class__ is not Pi:
                raise not_a_product(ty)
        on_arg(a, instantiate(ty.dom, pending))
        pending.append(a)
        ty = ty.cod
    return instantiate(ty, pending)


def _check_is_type(sig: Signature, ctx: dict[str, Term], t: Term,
                   red: Reducer) -> None:
    s = red.whnf(infer(sig, ctx, t, red))
    if s != TYPE:
        raise TypeCheckError("expected a type", expected=TYPE, actual=s,
                             kind="sort-error")


def check(sig: Signature, ctx: dict[str, Term], t: Term, ty: Term,
          red: Reducer) -> None:
    """Check `t` against `ty`, a type in `ctx`.  As for `infer`, every
    Var of `t` must be a key of `ctx`, which is left unchanged."""
    if t.__class__ is not Lam:
        it = infer(sig, ctx, t, red)
        if not red.conv(it, ty):
            raise TypeCheckError("type mismatch", expected=ty, actual=it)
        return
    # the whole chain of abstractions, against products peeled as in
    # `_apply`: each annotation and domain is opened with the binders
    # before it, and the body and the codomain once at the end
    opened: list[Term] = []  # a variable for each abstraction so far
    pending: list[Term] = []  # those owed to `ty`, outermost first
    try:
        while t.__class__ is Lam:
            if ty.__class__ is not Pi:
                ty = instantiate(ty, pending)
                pending = []
                w = red.whnf(ty)
                if w.__class__ is not Pi:
                    raise TypeCheckError(
                        "abstraction checked against a non-product type",
                        expected=ty)
                ty = w
            dom = instantiate(ty.dom, pending)
            if t.dom is not None:
                annotated = instantiate(t.dom, opened)
                if not red.conv(annotated, dom):
                    raise TypeCheckError("domain annotation does not match",
                                         expected=dom, actual=annotated)
                # the domain of a type is a type, and so is an annotation
                # equal to it; one that only converts with it may not be
                if annotated != dom:
                    _check_is_type(sig, ctx, annotated, red)
            v = fresh_name(t.var, ctx)
            ctx[v] = dom
            x = Var(v)
            opened.append(x)
            pending.append(x)
            t, ty = t.body, ty.cod
        check(sig, ctx, instantiate(t, opened), instantiate(ty, pending), red)
    finally:
        for x in opened:
            del ctx[x.name]


def _check_const_type(sig: Signature, ty: Term, red: Reducer) -> None:
    s = red.whnf(infer(sig, {}, ty, red))
    if not isinstance(s, Sort):
        raise TypeCheckError("a declared type must be a type or a kind",
                             actual=s, kind="sort-error")


def check_rule(sig: Signature, rule: RewriteRule, red: Reducer) -> None:
    """Check a rule before it joins `sig`.  Its head must be a declared
    'def' constant without a body: an undeclared head is `unbound`, every
    other failure `rule-ill-typed`."""
    info = sig.consts.get(rule.head)
    if info is None:
        raise TypeCheckError(f"rule head {rule.head!r} is not declared",
                             kind="unbound")
    if info.static:
        raise TypeCheckError(
            f"rule head {rule.head!r} is static; only 'def' constants may "
            "be rewritten", kind="rule-ill-typed")
    if info.body is not None:
        raise TypeCheckError(
            f"{rule.head!r} already has a body; it cannot take rules",
            kind="rule-ill-typed")
    types: dict[str, Term] = {}  # each pattern variable's, in order

    def walk(p: Term, expected: Optional[Term]) -> Optional[Term]:
        # binds the pattern variables of p and returns p's computed type
        if isinstance(p, Var):
            if p.name not in types:
                types[p.name] = expected
            elif not red.conv(types[p.name], expected):
                raise TypeCheckError(
                    f"pattern variable {p.name!r} is used at incompatible "
                    "types", expected=types[p.name], actual=expected)
            return expected
        head, args = spine(p)  # a constant head (`compile_rule`)
        # the computed type of a subpattern is not compared with
        # `expected`: it mentions pattern variables the match will only
        # later determine, and sound rules routinely refine it
        ty = infer(sig, {}, head, red)  # `unbound` if undeclared
        return _apply(red, ty, args, walk, lambda w: TypeCheckError(
            f"rule head {head.name!r} is over-applied" if p is rule.lhs
            else f"over-applied constant {head.name!r} in pattern"))

    try:
        ty = walk(rule.lhs, None)
        check(sig, types, rule.rhs, ty, red)
    except TypeCheckError as e:
        e.kind = "rule-ill-typed"
        raise


def check_declaration(sig: Signature, decl: Declaration,
                      fuel_steps: int = DEFAULT_FUEL) -> Signature:
    """Check `decl` and add it to `sig`, which it returns.  As `infer`
    and `check` ask, its terms are closed but for a rule's pattern
    variables: `parser.parse_file` makes them so, and a binder's opened
    name could capture a free Var that it had let through."""
    red = sig.reducer(Fuel(fuel_steps))
    try:
        match decl:
            case StaticConst(name, ty, _) | DefinableConst(name, ty, _):
                _check_const_type(sig, ty, red)
                sig.add_const(ConstInfo(name, ty, isinstance(decl, StaticConst),
                                        None))
            case Definition(name, ty, body, _):
                if ty is None:
                    ty = infer(sig, {}, body, red)
                else:
                    _check_const_type(sig, ty, red)
                    check(sig, {}, body, ty, red)
                sig.add_const(ConstInfo(name, ty, False, body))
                sig.add_rule(RewriteRule(f"{name}.def", name, (),
                                         Const(name), body, ()))
            case RuleDecl(pat_vars, lhs, rhs, _):
                rule = compile_rule("", pat_vars, lhs, rhs)
                serial = len(sig.rules.get(rule.head, ())) + 1
                rule = rule.replace(name=f"{rule.head}.{serial}")
                check_rule(sig, rule, red)
                sig.add_rule(rule)
            case _:
                raise TypeCheckError(f"not a declaration: {decl!r}")
    except RuleCompileError as e:
        raise TypeCheckError(str(e), span=decl.span,
                             kind="rule-ill-typed") from e
    except TypeCheckError as e:
        if e.span is None:
            e.span = decl.span
        raise
    return sig


def check_signature(decls: Sequence[Declaration],
                    fuel_steps: int = DEFAULT_FUEL,
                    sig: Optional[Signature] = None) -> Signature:
    """Check declarations in order, extending `sig` (a fresh signature
    by default) and returning it."""
    if sig is None:
        sig = Signature()
    for d in decls:
        check_declaration(sig, d, fuel_steps)
    return sig

