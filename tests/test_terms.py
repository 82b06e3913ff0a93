import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from morgandk.parser import parse_term, pretty
from morgandk.terms import (TYPE, App, Bound, Const, Lam, Pi, Sort, Var,
                            abstract, alpha_eq, app, free_vars, fresh_name,
                            instantiate, lam, occurs, pi, shift, spine, subst,
                            subterms)


def test_subst_identity_target():
    assert subst(Var("x"), "x", Const("0")) == Const("0")


def test_subst_homomorphic():
    t = app(Const("Imin"), Var("i"), Var("i"))
    got = subst(t, "i", Const("1"))
    assert got == app(Const("Imin"), Const("1"), Const("1"))


def test_subst_capture_avoidance():
    # substituting a free x under a binder written x cannot capture it:
    # the body stays the free x, and the printer renames the binder
    t = lam("x", None, Var("y"))
    got = subst(t, "y", Var("x"))
    assert isinstance(got, Lam)
    assert got.body == Var("x")
    assert pretty(got) == "x_0 => x"


def test_alpha_eq_binders():
    assert alpha_eq(lam("x", None, Var("x")), lam("y", None, Var("y")))
    assert not alpha_eq(lam("x", None, lam("y", None, Var("x"))),
                        lam("a", None, lam("b", None, Var("b"))))
    a = pi("x", Const("I"), Const("A"))
    b = pi("z", Const("I"), Const("A"))
    assert alpha_eq(a, b)


def test_free_vars():
    assert free_vars(lam("x", None, Var("x"))) == frozenset()
    assert free_vars(App(Var("f"), Var("x"))) == {"f", "x"}
    assert free_vars(pi("x", Var("A"), App(Var("B"), Var("x")))) == {"A", "B"}


def test_subterms_in_preorder_with_binder_depth():
    annotated = Lam("x", Const("A"), App(Bound(0), Var("y")))
    assert list(subterms(annotated)) == [
        (annotated, 0), (Const("A"), 0), (annotated.body, 1),
        (Bound(0), 1), (Var("y"), 1)]
    bare = Lam("x", None, Pi("y", Bound(0), Bound(1)))
    assert list(subterms(bare)) == [
        (bare, 0), (bare.body, 1), (Bound(0), 1), (Bound(1), 2)]


def _deep_binders(n, leaf):
    """n lambdas, each over `f` applied to the next."""
    t = leaf
    for _ in range(n):
        t = Lam("x", None, App(Const("f"), t))
    return t


def test_free_vars_and_occurs_of_deep_terms(default_recursion_limit):
    depth = 10_000
    assert free_vars(_deep_binders(depth, Var("z"))) == {"z"}
    # under `depth` binders, index `depth` is the index 0 of the top
    assert occurs(_deep_binders(depth, Bound(depth)))
    assert not occurs(_deep_binders(depth, Bound(depth - 1)))


def test_instantiate_shifts_under_binders():
    # the body `y => #1` refers past y to the binder being opened
    body = Lam("y", None, Bound(1))
    assert instantiate(body, (Bound(0),)) == Lam("y", None, Bound(1))
    assert instantiate(body, (Var("a"),)) == Lam("y", None, Var("a"))
    assert shift(body, 1) == Lam("y", None, Bound(2))


def test_instantiate_opens_several_binders_at_once():
    # index 0 is the innermost opened binder, so args[-1]; the indices
    # past the two opened binders move down by two, also under a binder
    a, b = Const("a"), Const("b")
    body = App(App(Bound(0), Bound(1)), Lam("w", None, App(Bound(3), Bound(2))))
    assert instantiate(body, (a, b)) == App(
        App(b, a), Lam("w", None, App(Bound(1), a)))
    assert instantiate(App(Bound(2), Bound(5)), (a, b)) == App(Bound(0),
                                                               Bound(3))
    # an argument's own loose index is shifted under the binder it passes
    body = Lam("w", None, App(Bound(1), Bound(2)))
    assert instantiate(body, (Bound(0), Var("a"))) == Lam(
        "w", None, App(Var("a"), Bound(1)))
    assert instantiate(body, ()) is body


def test_spine_left_associative():
    t = app(Const("f"), Var("a"), Var("b"), Var("c"))
    head, args = spine(t)
    assert head == Const("f")
    assert list(args) == [Var("a"), Var("b"), Var("c")]


def test_fresh_name_avoids():
    n = fresh_name("x", frozenset({"x", "x'"}))
    assert n not in {"x", "x'"}


def test_sorts():
    assert TYPE == Sort("TYPE")


_names = st.sampled_from(["x", "y", "z"])


def _terms(names=_names, hints=None, consts=("0", "1")):
    """Terms over free variables `names`, binders named from `hints`
    (default: `names`) and constants `consts`."""
    hints = names if hints is None else hints
    leaves = st.one_of(names.map(Var), st.sampled_from(
        [*map(Const, consts), TYPE]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(hints, st.none() | sub, sub).map(lambda t: lam(*t)),
            st.tuples(hints, sub, sub).map(lambda t: pi(*t))),
        max_leaves=12)


@given(_terms(), _names)
def test_subst_with_same_var_is_identity(t, x):
    assert alpha_eq(subst(t, x, Var(x)), t)


@given(_terms(), _names, _terms())
def test_subst_removes_the_variable(t, x, s):
    if x in free_vars(s):
        return
    assert x not in free_vars(subst(t, x, s))


@given(_terms(), _names)
def test_instantiate_undoes_abstract(t, x):
    assert instantiate(abstract(t, x), (Var(x),)) == t


@given(_terms(), st.lists(_names, max_size=4))
def test_abstract_equals_binding_one_name_at_a_time(t, names):
    # a repeated name is bound by the innermost of its binders
    nested = t
    for name in reversed(names):
        nested = lam(name, None, nested)
    body = abstract(t, names)
    for name in reversed(names):
        body = Lam(name, None, body)
    assert body == nested
    if len(set(names)) == len(names):
        assert instantiate(abstract(t, names), [Var(n) for n in names]) == t


@given(_terms(), _terms())
def test_instantiate_undoes_shift(t, s):
    assert instantiate(shift(t, 1), (s,)) == t


@given(_terms(), st.lists(st.tuples(st.sampled_from(["y", "z"]), _terms()),
                          min_size=1, max_size=4))
def test_instantiate_equals_opening_one_binder_at_a_time(t, binders):
    # k lambdas over `y` and `z` (a repeat shadows), all under an outer
    # binder over `x`: t's `x` is a loose index past the k binders, and
    # so is each argument's, which is shifted where it lands
    nested = t
    for name, _ in reversed(binders):
        nested = lam(name, None, nested)
    nested = abstract(nested, "x")
    args = [abstract(a, "x") for _, a in binders]
    one_at_a_time = nested
    for a in args:
        one_at_a_time = instantiate(one_at_a_time.body, (a,))
    body = nested
    for _ in args:
        body = body.body
    assert instantiate(body, args) == one_at_a_time


# binder hints that collide with free names, with the printer's own
# renamings of them, and with a constant
_hints = st.sampled_from(["x", "y", "x_0", "c"])


@given(_terms(st.sampled_from(["x", "y", "x_0"]), _hints, ("0", "1", "c")))
def test_print_then_parse_is_identity(t):
    assert parse_term(pretty(t), frozenset({"0", "1", "c"})) == t


def test_binder_named_after_a_constant_is_renamed():
    t = lam("A", None, App(Const("A"), Var("A")))
    assert pretty(t) == "A_0 => A A_0"
    assert parse_term(pretty(t), frozenset({"A"})) == t


def _subterms(t):
    """Every node of t, t first."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        todo += [c for c in (getattr(t, f) for f in t.__match_args__)
                 if isinstance(c, (Sort, Const, Var, Bound, App, Lam, Pi))]


def _rebuilt(t, hint=lambda h: h):
    """An equal term made of new nodes, binder hints mapped by `hint`."""
    match t:
        case App(f, a):
            return App(_rebuilt(f, hint), _rebuilt(a, hint))
        case Lam(v, d, b):
            return Lam(hint(v), None if d is None else _rebuilt(d, hint),
                       _rebuilt(b, hint))
        case Pi(v, d, c):
            return Pi(hint(v), _rebuilt(d, hint), _rebuilt(c, hint))
        case _:
            return t.replace()


@given(_terms(), st.booleans(), st.booleans())
def test_hash_does_not_depend_on_what_was_hashed_before(t, warm_t, warm_u):
    u = _rebuilt(t)
    for s, warm in ((t, warm_t), (u, warm_u)):
        if warm:
            for sub in _subterms(s):
                hash(sub)
    assert u == t and hash(u) == hash(t)


@given(_terms())
def test_alpha_variants_hash_alike(t):
    u = _rebuilt(t, lambda h: h + "'")
    assert u == t and hash(u) == hash(t)


@given(_terms())
def test_hash_is_the_hash_of_the_compared_fields(t):
    # the value a frozen dataclass gives, so set and dict order are as
    # before
    for s in _subterms(t):
        match s:
            case App(f, a):
                assert hash(s) == hash((f, a))
            case Lam(_, d, b):
                assert hash(s) == hash((d, b))
            case Pi(_, d, c):
                assert hash(s) == hash((d, c))


@given(_terms())
def test_every_node_keeps_the_hash_of_its_compared_fields(t):
    # leaves included; the kept hash is no field, but it cannot be
    # assigned either
    for s in _subterms(t):
        compared = tuple(getattr(s, f) for f in s.__match_args__
                         if f != "var")  # a binder's name is a hint
        assert s._h == hash(compared) == hash(s)
        with pytest.raises(AttributeError):
            s._h = s._h


@given(_terms())
def test_terms_are_slotted_and_frozen(t):
    for s in _subterms(t):
        assert not hasattr(s, "__dict__")
        hash(s)  # a memoised hash leaves the node frozen
        field = s.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))


def _numeral(n, base="l0"):
    t = App(Const("zero"), Const(base))
    for _ in range(n):
        t = App(App(Const("succ"), Const("l0")), t)
    return t


def test_eq_and_hash_of_deep_numerals_built_apart(default_recursion_limit):
    a, b = _numeral(10_000), _numeral(10_000)
    assert a is not b and hash(a) == hash(b) and a == b
    assert a != _numeral(9_999) and a != _numeral(10_000, "l1")


@given(_terms())
def test_copies_and_pickles_keep_equality_and_hash(t):
    for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and hash(u) == hash(t)
