"""Rewriting engine: first-order rules over lambda terms, weak-head and
full normalization with eta, conversion, reduction traces with replay,
and critical pair analysis.

Rule left-hand sides are applicative patterns: a constant head applied
to argument patterns built from constants, applications headed by
constants and bare pattern variables, with no binders; `compile_rule`
refuses any other left-hand side.  Matching is modulo reduction and
walks the forced argument spine: at a constant head, an argument whose
pattern is not a variable is weak-head normalized once per head attempt,
all of the head's rules read that forced argument, and a nested
application pattern walks the forced subject's spine in lockstep with
its own.  A cache hit costs no fuel, so cached fuel use is that of
forcing at every pattern level; uncached it is never more, so an
uncached run that fits a budget under re-forcing still fits it.  A
repeated pattern variable compares its matches up to conversion, so
non-left-linear rules behave definitionally.

Traced reduction instead takes one leftmost-outermost step at a time with
plain syntactic matching, so every recorded step can be replayed without
hidden work.  After a step the search resumes at the position it just
rewrote instead of starting again from the root, after re-checking the
ancestors that the step can make fire: the applications on the `fn`
chain directly above it (their head changed), every lambda (eta), and
every application headed by a constant with rules (a non-left-linear
pattern compares whole arguments).  No other ancestor can gain a root
step, since a step changes no ancestor's class.  The ancestors are
rebuilt lazily, as in Huet's zipper: when the walk climbs out of them or
must re-check them.  Replay keeps the same kind of path from one step's
position to the next, and checks each recorded step with the search's
own root step.  Replay and the critical pairs rebuild a path's
ancestors with one helper.  On well-typed terms the two
strategies compute the same normal forms.

A rule fires by calling a builder of its right-hand side on the match,
which `compile_msubst` makes on the rule's first firing, where `msubst`
would walk the whole right-hand side at every step.

Normalization, traced or not, walks the term over its own stack or path
instead of recursing, so a deep term whose redexes do not nest, such as
a 10,000-deep numeral, normalizes at the default recursion limit.  The
rest still recurses: `whnf` forces a rule's arguments with one nested
call per level, so nested redexes such as 1,000 nested `sym` exhaust
the recursion limit, and so do `conv` on deep terms and a builder on a
deep right-hand side.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Callable, Optional, Sequence

from .algebra import Fails, Holds, Verdict
from .terms import (App, Bound, Const, Lam, Pi, Record, Sort, Term, Var,
                    app, compile_msubst, free_vars, fresh_name, instantiate,
                    msubst, occurs, shift, spine, subterms)

_set = object.__setattr__

__all__ = [
    "DEFAULT_FUEL", "Fuel", "FuelExhausted",
    "RewriteRule", "RuleCompileError", "compile_rule",
    "Reducer", "ReplayError", "match_pattern",
    "CriticalPair", "critical_pairs", "unify", "joinable",
    "Verdict", "Holds", "Fails",
]

DEFAULT_FUEL = 100_000


class FuelExhausted(Exception):
    """The step budget ran out.  Deliberately not a rewriting verdict:
    callers must not read it as 'normal form reached' or 'not joinable'.
    `steps` holds the steps `Reducer.normalize_traced` took before the
    budget ran out, and is empty when raised elsewhere."""

    steps: Sequence[Step] = ()


class Fuel:
    """Mutable step budget shared by every operation derived from it."""

    __slots__ = ("remaining",)

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.remaining = steps

    def tick(self) -> None:
        if self.remaining <= 0:
            raise FuelExhausted("reduction step budget exhausted")
        self.remaining -= 1


class RuleCompileError(Exception):
    pass


class RewriteRule(Record):
    """A rule as `compile_rule` checks it.  From its first firing on,
    the builder of its right-hand side sits in the slot `_build`, which
    is no field (`_compile_rhs`)."""

    __slots__ = ("name", "head", "pat_vars", "lhs", "rhs", "lhs_args",
                 "_build")
    __match_args__ = ("name", "head", "pat_vars", "lhs", "rhs", "lhs_args")


def _check_pattern(t: Term, pat_vars: frozenset[str]) -> None:
    """Refuse t's first node in preorder that no left-hand side holds: a
    loose variable, a binder, a sort, or a pattern variable applied."""
    for s, _ in subterms(t):
        cls = s.__class__
        if cls is Var:
            if s.name not in pat_vars:
                raise RuleCompileError(f"unbound variable {s.name!r} in pattern")
        elif cls is App:
            if s.fn.__class__ is Var:
                raise RuleCompileError(
                    "pattern variables must occur bare in left-hand sides")
        elif cls is not Const:
            raise RuleCompileError(
                "rule left-hand sides are applicative: no binders or sorts")


def compile_rule(name: str, pat_vars: Sequence[str], lhs: Term,
                 rhs: Term) -> RewriteRule:
    head, args = spine(lhs)
    if not isinstance(head, Const):
        raise RuleCompileError("rule left-hand side must be headed by a constant")
    pv = frozenset(pat_vars)
    _check_pattern(lhs, pv)
    used = free_vars(lhs)
    # the right-hand side's variables the left-hand side does not bind:
    # each is loose, or a pattern variable the left-hand side leaves out
    unmatched = free_vars(rhs) - used
    loose = unmatched - pv
    if loose:
        raise RuleCompileError(
            f"right-hand side has unbound variables: {sorted(loose)}")
    if unmatched:
        raise RuleCompileError(
            f"pattern variables {sorted(unmatched)} appear only on the right-hand side")
    ordered = tuple(v for v in pat_vars if v in used)
    return RewriteRule(name, head.name, ordered, lhs, rhs, tuple(args))


def _compile_rhs(rule: RewriteRule) -> Callable[[dict[str, Term]], Term]:
    """The rule's right-hand side compiled by `compile_msubst`, kept in
    its `_build` slot.  Compiled on the rule's first firing rather than
    when the rule is built, since `_rename_apart` builds renamed copies
    that never fire."""
    build = compile_msubst(rule.rhs, rule.pat_vars)
    _set(rule, "_build", build)
    return build


# -- reduction ------------------------------------------------------------

Step = tuple[tuple[str, ...], str]  # (position, rule name)


class ReplayError(Exception):
    pass


def _eta_body(t: Term) -> Optional[Term]:
    """If t is  x => f x  with x not free in f, return f."""
    if (isinstance(t, Lam) and isinstance(t.body, App)
            and t.body.arg == Bound(0) and not occurs(t.body.fn)):
        return shift(t.body.fn, -1, 1)
    return None


class Reducer:
    """Reduction engine over a fixed head-indexed rule set, serving one
    query: one declaration check, one critical pair, one `reduce`.

    With `cached` it owns a whnf and a normal-form cache, keyed by the
    term alone; a cache hit costs no fuel.  Both die with the reducer, so
    a query's verdict, its fuel use and its printed binder names never
    depend on what an earlier query reduced.  The rule set maps each
    head to a tuple of its rules, as `check.Signature.rules` does, and
    must not change while the reducer is in use.
    """

    def __init__(self, rules: dict[str, tuple[RewriteRule, ...]],
                 fuel: Optional[Fuel] = None, cached: bool = True):
        self.rules = rules
        self.fuel = fuel if fuel is not None else Fuel()
        self.whnf_cache: Optional[dict[Term, Term]] = {} if cached else None
        self.nf_cache: Optional[dict[Term, Term]] = {} if cached else None
        self.deciding: set[tuple[Term, Term]] = set()  # see `conv`

    # matching, modulo reduction

    def match(self, pat: Term, t: Term, sub: dict[str, Term]) -> bool:
        """Match modulo reduction: weak-head normalize the subject where
        the pattern demands it, compare repeated variables by `conv`."""
        if pat.__class__ is not Var:
            t = self.whnf(t)
        return _match(pat, t, sub, self.conv, self.whnf)

    def whnf(self, t: Term) -> Term:
        """The weak-head normal form.  At a constant head the rules are
        tried in order against one list of forced arguments: an argument
        whose pattern is not a variable is forced once per head attempt,
        however many rules read it, and `_match` does not force it again.
        A variable pattern takes its argument as given, with no matcher
        call, on its first occurrence, and compares it with `conv` on a
        repeat; such an argument is never reduced.

        A term whose head is neither an applied lambda nor a constant
        with rules is returned before its spine is built or the cache
        probed: it cannot step."""
        head = t
        while head.__class__ is App:
            head = head.fn
        if head.__class__ is Const:
            if not self.rules.get(head.name):
                return t
        elif head.__class__ is not Lam or head is t:
            return t
        cache = self.whnf_cache
        if cache is not None:
            hit = cache.get(t)
            if hit is not None:
                return hit
        orig = t
        while True:
            head, args = spine(t)
            if isinstance(head, Lam) and args:
                # the chain of abstractions that meets arguments, all
                # contracted by one substitution, a tick per beta step
                body, k = head.body, 1
                while k < len(args) and body.__class__ is Lam:
                    body, k = body.body, k + 1
                for _ in range(k):
                    self.fuel.tick()
                t = app(instantiate(body, args[:k]), *args[k:])
                continue
            nxt = None
            rules = self.rules.get(head.name) if isinstance(head, Const) else None
            if rules:
                forced: list[Optional[Term]] = [None] * len(args)
                for r in rules:
                    n = len(r.lhs_args)
                    if n > len(args):
                        continue
                    sub: dict[str, Term] = {}
                    for i, pat in enumerate(r.lhs_args):
                        if pat.__class__ is Var:
                            seen = sub.get(pat.name)
                            if seen is None:
                                sub[pat.name] = args[i]
                            elif not self.conv(seen, args[i]):
                                break
                            continue
                        a = forced[i]
                        if a is None:
                            a = forced[i] = self.whnf(args[i])
                        if not _match(pat, a, sub, self.conv, self.whnf):
                            break
                    else:
                        build = getattr(r, "_build", None) or _compile_rhs(r)
                        nxt = app(build(sub), *args[n:])
                        break
            if nxt is None:
                break
            self.fuel.tick()
            t = nxt
        if cache is not None:
            cache[orig] = t
            cache[t] = t
        return t

    def normalize(self, t: Term) -> Term:
        """The normal form, eta included.  Works over an explicit stack
        rather than by recursion: each subterm is weak-head normalized,
        then the children of the result are normalized left to right
        (a lambda's body before its domain) and it is rebuilt.  The
        whnf calls, cache probes and entries and fuel ticks come in the
        order of a recursive descent.  A variable, a bound index, a sort
        or a constant without rules is its own normal form, with no
        whnf call and no cache entry; a rebuilt node keeps its identity
        when each child is identical or equal to the one it had.

        With the cache, a whnf that is still being rebuilt further up
        raises FuelExhausted when `whnf` returns it again: the normal
        form would contain itself, and since a cache hit costs no fuel
        the descent would otherwise never end.  That is the verdict the
        uncached reducer reaches on the same input, and a terminating
        normalization never meets such a term."""
        cache, rules = self.nf_cache, self.rules
        todo: list = [t]  # terms to normalize and (term, whnf) to rebuild
        done: list[Term] = []  # normal forms of the children so far
        # the whnfs whose rebuild is pending, when cache hits cost no fuel
        pending: Optional[set[Term]] = set() if cache is not None else None
        while todo:
            item = todo.pop()
            if item.__class__ is tuple:
                orig, w = item
                if pending is not None:
                    pending.remove(w)
                cls = w.__class__
                # w itself when every child is already normal, so
                # that a normal term keeps its identity
                if cls is App:
                    a, f = done.pop(), done.pop()
                    t = w if ((f is w.fn or f == w.fn)
                              and (a is w.arg or a == w.arg)) else App(f, a)
                elif cls is Lam:
                    d = done.pop() if w.dom is not None else None
                    b = done.pop()
                    t = w if ((d is w.dom or d == w.dom)
                              and (b is w.body or b == w.body)) \
                        else Lam(w.var, d, b)
                    contracted = _eta_body(t)
                    if contracted is not None:
                        self.fuel.tick()
                        t = contracted
                else:
                    c, d = done.pop(), done.pop()
                    t = w if ((d is w.dom or d == w.dom)
                              and (c is w.cod or c == w.cod)) \
                        else Pi(w.var, d, c)
            else:
                cls = item.__class__
                if (cls is Var or cls is Bound or cls is Sort
                        or (cls is Const and not rules.get(item.name))):
                    done.append(item)  # a leaf that cannot step
                    continue
                if cache is not None:
                    hit = cache.get(item)
                    if hit is not None:
                        done.append(hit)
                        continue
                orig = item
                t = self.whnf(item)
                cls = t.__class__
                if pending is not None and (cls is App or cls is Lam
                                            or cls is Pi):
                    if t in pending:
                        raise FuelExhausted("the normal form contains itself")
                    pending.add(t)
                if cls is App:
                    todo += ((orig, t), t.arg, t.fn)
                    continue
                if cls is Lam:
                    todo.append((orig, t))
                    if t.dom is not None:
                        todo.append(t.dom)
                    todo.append(t.body)
                    continue
                if cls is Pi:
                    todo += ((orig, t), t.cod, t.dom)
                    continue
            if cache is not None:
                cache[orig] = t
                cache[t] = t
            done.append(t)
        return done[0]

    # conversion

    def conv(self, a: Term, b: Term) -> bool:
        """Incremental conversion: weak-head both sides, compare outer
        structure, recurse.  Eta: an abstraction converts with anything
        whose application to the bound variable converts with its body.

        A weak-head normal pair met again while it is still being decided
        raises FuelExhausted, cached or not: `conv` is deterministic in
        the pair, so that call would never return.  The guard is inline,
        so that it adds no frame to the recursion."""
        if a == b:
            return True
        a, b = pair = self.whnf(a), self.whnf(b)
        deciding = self.deciding
        size = len(deciding)
        deciding.add(pair)  # one probe, where a test and an add take two
        if len(deciding) == size:
            raise FuelExhausted("the conversion problem contains itself")
        try:
            match a, b:
                case Sort(x), Sort(y):
                    return x == y
                case Pi(_, d1, c1), Pi(_, d2, c2):
                    return self.conv(d1, d2) and self.conv(c1, c2)
                case Lam(_, _, b1), Lam(_, _, b2):
                    return self.conv(b1, b2)
                case (Lam(_, _, body), other) | (other, Lam(_, _, body)):
                    return not isinstance(other, (Sort, Pi)) and self.conv(
                        body, App(shift(other, 1), Bound(0)))
                case _:
                    h1, args1 = spine(a)
                    h2, args2 = spine(b)
                    # after whnf a head is a constant, a free or bound
                    # variable, or a sort (an applied product is ill-typed)
                    if len(args1) != len(args2) or isinstance(h1, Pi) or h1 != h2:
                        return False
                    return all(self.conv(x, y) for x, y in zip(args1, args2))
        finally:
            deciding.remove(pair)

    # traced reduction

    def _rule_step_at_root(self, t: Term, name: Optional[str] = None
                           ) -> Optional[tuple[str, Term]]:
        """The first step at t's root, as (name, contractum): beta, else
        eta, else the first of its head's rules whose patterns match
        syntactically.  With `name`, only a step of that name."""
        if name is None or name == "beta":
            if isinstance(t, App) and isinstance(t.fn, Lam):
                return "beta", instantiate(t.fn.body, (t.arg,))
        if name is None or name == "eta":
            contracted = _eta_body(t)
            if contracted is not None:
                return "eta", contracted
        head, args = spine(t)
        if isinstance(head, Const):
            for r in self.rules.get(head.name, ()):
                if ((name is None or r.name == name)
                        and len(r.lhs_args) == len(args)):
                    sub: dict[str, Term] = {}
                    if all(map(_match, r.lhs_args, args, repeat(sub))):
                        build = getattr(r, "_build", None) or _compile_rhs(r)
                        return r.name, build(sub)
        return None

    def _headed_by_rules(self, t: Term) -> bool:
        """Whether t's spine head is a constant that has rules."""
        while t.__class__ is App:
            t = t.fn
        return t.__class__ is Const and bool(self.rules.get(t.name))

    def normalize_traced(self, t: Term) -> tuple[Term, list[Step]]:
        """Leftmost-outermost normalization, one recorded step at a time.

        The search walks the term in preorder, keeping the path from the
        root to the node it is at.  After a step it does not start again
        from the root.  The positions before the rewritten one in
        preorder are its ancestors and the subterms left of its path.
        The search passed them all without finding a step, and a step
        changes only the ancestors, none of which changes class.  So it
        re-checks, root first, the ancestors that a step below can make
        fire, and otherwise continues the preorder at the rewritten
        position.  Those ancestors are:

        - the unbroken chain of applications whose `fn` leads to the
          step: their spine head is the rewritten term's head, and the
          lowest becomes a beta redex when that term is a lambda;
        - every lambda, since a step in its body can make it an eta
          redex;
        - every application whose spine head is a constant with rules:
          a non-left-linear pattern compares whole arguments, so no
          pattern depth bounds where a step can make it match.

        No other ancestor can fire.  A pattern is headed by a constant,
        so an application headed by a variable, a sort or a constant
        without rules has no rule step; one headed by a lambda would
        have been a beta redex at its innermost application, found
        before the search went below it; and a product never steps.

        The path is a zipper with stale parents: a step replaces the
        node alone, and an ancestor is rebuilt when the walk climbs out
        of it or when it must be re-checked, from the step up to the
        highest one re-checked.  The ancestors that can fire are kept as
        a stack of path indices beside the path; after a step the `fn`
        chain above it is entered there again if its new head has rules.
        The steps are those of a fresh search from the root after every
        step, and on the numerals of `exDouble` the work is linear in
        the depth.  A FuelExhausted it raises carries the steps taken."""
        steps: list[Step] = []
        nodes: list[Term] = []  # the ancestors of `node`, root first
        keys: list[str] = []  # the child taken at each ancestor
        watch: list[int] = []  # indices of the ancestors a step can make fire
        node = t
        hit = self._rule_step_at_root(node)
        while True:
            if hit is None:
                depth = len(nodes)
                node = _next_in_preorder(node, nodes, keys)
                if node is None:
                    return nodes[0], steps
                if len(nodes) > depth:
                    top = nodes[-1]
                    if top.__class__ is Lam or self._headed_by_rules(top):
                        watch.append(depth)
                else:
                    del watch[bisect_left(watch, len(nodes)):]
                hit = self._rule_step_at_root(node)
                continue
            try:
                self.fuel.tick()
            except FuelExhausted as e:
                e.steps = steps
                raise
            name, node = hit
            steps.append((tuple(keys), name))
            n = j = len(nodes)
            while j and keys[j - 1] == "fn":
                j -= 1
            del watch[bisect_left(watch, j):]
            recheck = watch + list(range(j, n))
            if j < n and self._headed_by_rules(node):
                watch.extend(range(j, n))
            hit = None
            if recheck:
                child = node
                for i in range(n - 1, recheck[0] - 1, -1):
                    child = nodes[i] = _with_child(nodes[i], keys[i], child)
                for i in recheck:
                    hit = self._rule_step_at_root(nodes[i])
                    if hit is not None:
                        del nodes[i:], keys[i:], watch[bisect_left(watch, i):]
                        break
            if hit is None:
                hit = self._rule_step_at_root(node)

    def replay(self, t: Term, steps: Sequence[Step]) -> Term:
        """Apply recorded steps to t, checking that each is a step:
        a beta or eta redex at its position, or a known rule whose head,
        arity and patterns match there syntactically.  The root step is
        the traced search's own, restricted to the recorded name, so any
        rule of that name that applies is accepted, not only the first
        that applies.  Raises ReplayError otherwise.

        The term is walked as a zipper: `t` is the subterm at the last
        step's position and `nodes` holds its ancestors, not yet
        rebuilt.  For each step the walk climbs to the longest common
        prefix of the two positions, rebuilding each ancestor it leaves
        (every one is stale, since every step replaces the subterm below
        it), and descends from there, so a step next to the last costs
        little whatever the depth."""
        nodes: list[Term] = []  # the ancestors of `t`, root first
        at: tuple[str, ...] = ()  # the position of `t`
        for pos, name in steps:
            k = _common_prefix(at, pos)
            t = _rebuild(t, nodes, at, k)
            del nodes[k:]
            for key in pos[k:]:
                nodes.append(t)
                t = _child(t, key, pos)
            at = pos
            hit = self._rule_step_at_root(t, name)
            if hit is None:
                where = "/".join(pos) or "root"
                if name == "beta" or name == "eta":
                    raise ReplayError(f"no {name} redex at {where}")
                if not any(r.name == name for rs in self.rules.values()
                           for r in rs):
                    raise ReplayError(f"unknown rule {name!r}")
                raise ReplayError(f"rule {name!r} does not apply at {where}")
            t = hit[1]
        return _rebuild(t, nodes, at)


def _match(pat: Term, t: Term, sub: dict[str, Term],
           eq: Optional[Callable[[Term, Term], bool]] = None,
           whnf: Optional[Callable[[Term], Term]] = None) -> bool:
    """The one first-order matcher: extend `sub` so that `pat`, a
    left-hand side pattern as `compile_rule` accepts it, instantiates to
    `t`.  A repeated pattern variable compares its matches with `eq`
    (`==`, which is alpha-equivalence, by default).

    A variable takes `t` as it is.  Otherwise the pattern's spine, which
    ends at a constant, and the subject's are walked in lockstep: the
    heads first, then the arguments left to right.  With `whnf`,
    matching is modulo reduction.  Then `t` must already be weak-head
    normal unless `pat` is a variable, and an argument is forced once,
    when its pattern is not a variable.  A prefix of a weak-head normal
    spine is weak-head normal too, since every rule of its head that
    takes fewer arguments was tried on the same arguments, so the
    prefixes are not forced again."""
    if pat.__class__ is Var:
        seen = sub.setdefault(pat.name, t)  # t itself on a first occurrence
        return seen is t or (eq(seen, t) if eq is not None else seen == t)
    args: list[tuple[Term, Term]] = []  # (pattern, subject) pairs
    while pat.__class__ is App:
        if t.__class__ is not App:
            return False
        args.append((pat.arg, t.arg))
        pat, t = pat.fn, t.fn
    if t.__class__ is not Const or t.name != pat.name:
        return False
    for p, a in reversed(args):
        if whnf is not None and p.__class__ is not Var:
            a = whnf(a)
        if not _match(p, a, sub, eq, whnf):
            return False
    return True


def match_pattern(pat: Term, t: Term,
                  conv: Optional[Callable[[Term, Term], bool]] = None,
                  ) -> Optional[dict[str, Term]]:
    """First-order match of an applicative pattern against a term, with no
    reduction of the subject.  Every variable of the pattern is a pattern
    variable.  A bare variable matches any term; a pattern that no
    left-hand side holds (a variable applied to arguments, a binder or a
    sort) raises RuleCompileError, as `compile_rule` does.  A repeated
    pattern variable compares its matches with `conv` when given, `==`
    otherwise.  Returns the substitution on success."""
    _check_pattern(pat, free_vars(pat))
    sub: dict[str, Term] = {}
    return sub if _match(pat, t, sub, conv) else None


# A position is a path of child names, which are the field names of the
# compound nodes.
_CHILDREN = {App: ("fn", "arg"), Lam: ("dom", "body"), Pi: ("dom", "cod")}


def _child(t: Term, key: str, pos: tuple[str, ...]) -> Term:
    child = getattr(t, key) if key in _CHILDREN.get(t.__class__, ()) else None
    if child is None:  # no such child, or a lambda without a domain
        raise ReplayError(f"position {'/'.join(pos)} does not exist")
    return child


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """The length of the longest common prefix of two positions.  One
    slice comparison, in C, settles the usual case, where one position
    extends the other; otherwise a scan finds the first difference."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    k = 0
    while a[k] == b[k]:
        k += 1
    return k


def _with_child(t: Term, key: str, child: Term) -> Term:
    """t with its child `key` replaced by `child`."""
    if key == "fn":
        return App(child, t.arg)
    if key == "arg":
        return App(t.fn, child)
    if key == "body":
        return Lam(t.var, t.dom, child)
    if key == "cod":
        return Pi(t.var, t.dom, child)
    if t.__class__ is Lam:
        return Lam(t.var, child, t.body)
    return Pi(t.var, child, t.cod)


def _rebuild(t: Term, nodes: Sequence[Term], keys: Sequence[str],
             depth: int = 0) -> Term:
    """The node at `depth` on a path with t at its end: each ancestor in
    `nodes[depth:]` rebuilt around the child below it, the bottom one
    around t.  `keys[i]` is the child taken at `nodes[i]`."""
    for i in range(len(nodes) - 1, depth - 1, -1):
        t = _with_child(nodes[i], keys[i], t)
    return t


def _next_in_preorder(t: Term, nodes: list[Term],
                      keys: list[str]) -> Optional[Term]:
    """The node after t in preorder, t's subterms included: its first
    child, else the next sibling of t or of its nearest ancestor that
    has one.  `nodes` and `keys` hold the path from the root to t and
    are moved along with it.

    The path may be stale: the caller may have replaced t, or a node
    on its way up, without rebuilding the ancestors.  The walk carries
    each rewritten child up, rebuilding a parent as it leaves the child
    if the parent does not hold that child.  None after the last node;
    `nodes` then holds the root alone, with every replacement in it."""
    children = _CHILDREN.get(t.__class__)
    if children is not None:
        nodes.append(t)
        first = children[0]
        if t.__class__ is Lam and t.dom is None:
            first = "body"
        keys.append(first)
        return getattr(t, first)
    while nodes:
        parent, k = nodes[-1], keys[-1]
        if getattr(parent, k) is not t:
            parent = nodes[-1] = _with_child(parent, k, t)
        if k == "fn" or k == "dom":
            k = _CHILDREN[parent.__class__][1]
            keys[-1] = k
            return getattr(parent, k)
        nodes.pop()
        keys.pop()
        t = parent
    nodes.append(t)
    return None


# -- critical pairs -------------------------------------------------------

class CriticalPair(Record):
    """An overlap between two rules: `peak` reduces to `left` by rule1 at
    the root and to `right` by rule2 at `position` inside rule1's
    left-hand side."""

    __slots__ = __match_args__ = ("rule1", "rule2", "position", "peak",
                                  "left", "right")


def unify(a: Term, b: Term) -> Optional[dict[str, Term]]:
    """Syntactic unification of applicative pattern terms.  Returns an
    idempotent most general unifier, or None.  No variable it binds
    occurs in a binding, so one `msubst` applies it: each new binding
    is substituted into the earlier ones."""
    sub: dict[str, Term] = {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x.__class__ is Var:
            x = sub.get(x.name, x)
        if y.__class__ is Var:
            y = sub.get(y.name, y)
        match x, y:
            case Var(n), Var(m) if n == m:
                continue
            case Var(n), _:
                t = msubst(y, sub)
            case _, Var(n):
                t = msubst(x, sub)
            case Const(n), Const(m) if n == m:
                continue
            case App(f1, a1), App(f2, a2):
                todo.append((f1, f2))
                todo.append((a1, a2))
                continue
            case _:
                return None
        if n in free_vars(t):
            return None
        for k, v in sub.items():
            sub[k] = msubst(v, {n: t})
        sub[n] = t
    return sub


def _rename_apart(rule: RewriteRule, avoid: frozenset[str]) -> RewriteRule:
    taken = set(avoid) | set(rule.pat_vars)
    ren: dict[str, Term] = {}
    fresh: list[str] = []
    for v in rule.pat_vars:
        w = fresh_name(v, taken) if v in avoid else v
        taken.add(w)
        fresh.append(w)
        if w != v:
            ren[v] = Var(w)
    if not ren:
        return rule
    return RewriteRule(rule.name, rule.head, tuple(fresh),
                       msubst(rule.lhs, ren), msubst(rule.rhs, ren),
                       tuple(msubst(p, ren) for p in rule.lhs_args))


def critical_pairs(rules: Sequence[RewriteRule]) -> list[CriticalPair]:
    """All critical pairs of the rule set: proper-subterm overlaps for
    every ordered pair (a rule may overlap itself), root overlaps once
    per unordered pair of distinct rules.

    The order is part of the contract, since the `cp` report prints the
    pairs as they come: by the first rule's index, then the second's;
    within one (rule1, rule2), the inner positions of rule1's left-hand
    side in preorder, then the root overlap.

    Only overlaps whose heads can agree are tried.  Every application
    in a left-hand side is headed by a constant (`compile_rule`), and
    two such patterns unify only if both spines have the same head and
    the same number of arguments, so a subterm keyed (head, arity) is
    tried against the rules with that key alone.  The rules are grouped
    by key once, and each first rule visits, in ascending order, only
    the second rules that share a key with one of its inner sites and
    the later rules with its own key, for the root overlap.  A second
    rule is renamed apart once per distinct variable set of the first
    rules, not once per pair.
    """
    keys = [(r.head, len(r.lhs_args)) for r in rules]
    # each rule's inner overlap sites in preorder, with their keys
    sites = []
    for r in rules:
        inner, nodes, path = [], [], []
        sub_t = r.lhs
        while (sub_t := _next_in_preorder(sub_t, nodes, path)) is not None:
            if sub_t.__class__ is not Var:
                head, args = spine(sub_t)
                inner.append((tuple(path), tuple(nodes), sub_t,
                              (head.name, len(args))))
        sites.append(inner)
    by_key: dict[tuple[str, int], list[int]] = {}
    for j, k in enumerate(keys):
        by_key.setdefault(k, []).append(j)
    renamed: dict[tuple[int, frozenset[str]], RewriteRule] = {}
    out: list[CriticalPair] = []
    for i, r1 in enumerate(rules):
        seconds = sorted({j for j in by_key[keys[i]] if j > i}.union(
            *(by_key.get(k, ()) for *_, k in sites[i])))
        avoid = frozenset(r1.pat_vars)
        for j in seconds:
            tried = [(pos, above, sub_t) for pos, above, sub_t, k in sites[i]
                     if k == keys[j]]
            if j > i and keys[j] == keys[i]:
                tried.append(((), (), r1.lhs))
            r2 = rules[j]
            r2r = renamed.get((j, avoid))
            if r2r is None:
                r2r = renamed[j, avoid] = _rename_apart(r2, avoid)
            for pos, above, sub_t in tried:
                mgu = unify(sub_t, r2r.lhs)
                if mgu is None:
                    continue
                out.append(CriticalPair(
                    r1.name, r2.name, pos,
                    peak=msubst(r1.lhs, mgu),
                    left=msubst(r1.rhs, mgu),
                    right=msubst(_rebuild(r2r.rhs, above, pos), mgu)))
    return out


def joinable(red: Reducer, cp: CriticalPair) -> Verdict:
    """Decide whether a critical pair's reducts meet again: normalize both
    sides and compare.  Fails carries the pair of distinct normal forms.
    A fuel shortage surfaces as FuelExhausted, never as a verdict."""
    left = red.normalize(cp.left)
    right = red.normalize(cp.right)
    if left == right:
        return Holds()
    return Fails((left, right))
