import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import morgandk.algebra
from morgandk.algebra import (MAX_GENERATORS, ORACLE_CONSTS, Chain3,
                              DM4Value, Eq0, Eq1, Fails, FBot, FJoin, FMeet,
                              FTop, Gen, Holds, Join, Meet, Neg, One,
                              OracleError, OutOfDomain, Zero, audit_equation, canonical_dnf,
                              check_rule_sound, eval_face, eval_interval,
                              face_eq, face_from_term, face_generators,
                              generators, interval_eq, interval_from_term)
from morgandk.parser import parse_term
from morgandk.rewrite import compile_rule
from morgandk.terms import App, Bound, Const, Pi, Var, app
from morgandk.theory import INTERVAL_FACE_HEADS


def test_eval_meet_zero_annihilates():
    for v in DM4Value:
        assert eval_interval(Meet(Gen("i"), Zero()), {"i": v}) \
            == DM4Value.BOT


def test_eval_double_negation():
    for v in DM4Value:
        assert eval_interval(Neg(Neg(Gen("i"))), {"i": v}) == v


def test_eval_no_excluded_middle():
    got = eval_interval(Join(Gen("i"), Neg(Gen("i"))), {"i": DM4Value.A})
    assert got == DM4Value.A


def test_interval_commutativity_holds():
    v = interval_eq(Meet(Gen("i"), Gen("j")), Meet(Gen("j"), Gen("i")))
    assert isinstance(v, Holds)


def test_interval_distributivity_holds():
    lhs = Join(Meet(Gen("i"), Gen("j")), Gen("k"))
    rhs = Meet(Join(Gen("i"), Gen("k")), Join(Gen("j"), Gen("k")))
    assert isinstance(interval_eq(lhs, rhs), Holds)


def test_interval_excluded_middle_fails_with_witness():
    v = interval_eq(Join(Gen("i"), Neg(Gen("i"))), One())
    assert isinstance(v, Fails)
    assert v.witness == {"i": DM4Value.A}


def test_face_opposite_faces_never_meet():
    f = FMeet(Eq0(Gen("i")), Eq1(Gen("i")))
    for v in Chain3:
        assert eval_face(f, {"i": v}) is False


def test_face_union_misses_interior():
    f = FJoin(Eq0(Gen("i")), Eq1(Gen("i")))
    assert eval_face(f, {"i": Chain3.HALF}) is False
    assert eval_face(FTop(), {"i": Chain3.HALF}) is True


def test_face_discreteness_holds():
    v = face_eq(FMeet(Eq0(Gen("i")), Eq1(Gen("i"))), FBot())
    assert isinstance(v, Holds)


def test_face_test_distributes_over_join():
    v = face_eq(Eq1(Join(Gen("i"), Gen("j"))),
                FJoin(Eq1(Gen("i")), Eq1(Gen("j"))))
    assert isinstance(v, Holds)


def test_face_union_not_top_interior_witness():
    v = face_eq(FJoin(Eq0(Gen("i")), Eq1(Gen("i"))), FTop())
    assert isinstance(v, Fails)
    assert v.witness == {"i": Chain3.HALF}


def _rule(pat_vars, lhs, rhs):
    return compile_rule("fixture", pat_vars, lhs, rhs)


def test_rule_sound_de_morgan():
    r = _rule(("i", "j"),
              App(Const("sym"), app(Const("Imin"), Var("i"), Var("j"))),
              app(Const("Imax"), App(Const("sym"), Var("i")),
                  App(Const("sym"), Var("j"))))
    assert isinstance(check_rule_sound(r), Holds)


def test_rule_sound_right_unit_and_miscopy():
    good = _rule(("i",), app(Const("Imax"), Var("i"), Const("0")), Var("i"))
    assert isinstance(check_rule_sound(good), Holds)
    bad = _rule(("i",), app(Const("Imax"), Var("i"), Const("1")),
                Const("0"))
    v = check_rule_sound(bad)
    assert isinstance(v, Fails)
    assert v.witness == {"i": DM4Value.TOP}


def test_rule_sound_face_substitution():
    r = _rule(("e",), App(Const("eq1"), App(Const("sym"), Var("e"))),
              App(Const("eq0"), Var("e")))
    assert isinstance(check_rule_sound(r), Holds)


def test_the_interval_and_face_vocabulary():
    # the rule heads the confluence claim covers, and the constants an
    # oracle query may name; everything else in a query is a generator
    assert INTERVAL_FACE_HEADS == {"sym", "Imin", "Imax",
                                   "eq0", "eq1", "Fmin", "Fmax"}
    assert ORACLE_CONSTS == {"0", "1", "sym", "Imin", "Imax",
                             "0f", "1f", "eq0", "eq1", "Fmin", "Fmax"}


def test_rule_sound_rejects_non_algebraic(full_sig):
    r = next(r for r in full_sig.rule_list() if r.head == "p1")
    with pytest.raises(OutOfDomain):
        check_rule_sound(r)


def test_term_translation():
    t = parse_term("Imax (sym i) 0", frozenset({"Imax", "sym", "0"}))
    assert interval_from_term(t) == Join(Neg(Gen("i")), Zero())
    f = parse_term("Fmin (eq0 i) 1f", frozenset({"Fmin", "eq0", "1f"}))
    assert face_from_term(f) == FMeet(Eq0(Gen("i")), FTop())


def test_term_translation_out_of_domain():
    with pytest.raises(OutOfDomain):
        interval_from_term(App(Const("succ"), Const("0")))


def test_audit_equation(full_sig):
    assert isinstance(audit_equation(full_sig.consts["Imax_comm"].ty),
                      Holds)
    assert isinstance(audit_equation(full_sig.consts["Fdiscr"].ty), Holds)


def test_audit_equation_keeps_binders_with_one_hint_apart():
    # `i : I -> j : I -> i = j`, and the same with the inner binder
    # also written `i`: two generators either way
    def ceps(t):
        return App(Const("ceps"), t)
    eq = ceps(app(Const("cEq"), Const("I"), Bound(1), Bound(0)))
    for hints in (("i", "i"), ("i", "j")):
        ty = Pi(hints[0], ceps(Const("I")), Pi(hints[1], ceps(Const("I")), eq))
        verdict = audit_equation(ty)
        assert isinstance(verdict, Fails), hints
        assert len(verdict.witness) == 2


_gens = st.sampled_from(["i", "j", "k"])


def _iexprs(gens=_gens):
    leaves = st.one_of(gens.map(Gen),
                       st.sampled_from([Zero(), One()]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda p: Meet(*p)),
            st.tuples(sub, sub).map(lambda p: Join(*p))),
        max_leaves=8)


def interval_eq_canonical(a, b) -> bool:
    return canonical_dnf(a) == canonical_dnf(b)


@given(_iexprs(), _iexprs())
def test_canonical_dnf_agrees_with_sweep(a, b):
    assert interval_eq_canonical(a, b) \
        == isinstance(interval_eq(a, b), Holds)


@given(_iexprs())
def test_interval_eq_reflexive(a):
    assert isinstance(interval_eq(a, a), Holds)


@given(_iexprs(), _iexprs())
def test_interval_eq_symmetric(a, b):
    assert isinstance(interval_eq(a, b), Holds) \
        == isinstance(interval_eq(b, a), Holds)


@given(_iexprs(), _iexprs())
def test_interval_eq_congruence_under_neg(a, b):
    if isinstance(interval_eq(a, b), Holds):
        assert isinstance(interval_eq(Neg(a), Neg(b)), Holds)


@given(_iexprs())
def test_canonical_dnf_is_minimal_and_involution_stable(a):
    nf = canonical_dnf(a)
    assert not any(m1 < m2 for m1 in nf for m2 in nf)
    assert canonical_dnf(Neg(Neg(a))) == nf


# -- the bit-parallel deciders against a per-assignment sweep ---------------

# The sweep order the deciders promise: generators sorted by name, the
# first varying slowest, values in these orders.
_DM4_ORDER = (DM4Value.TOP, DM4Value.A, DM4Value.B, DM4Value.BOT)
_CHAIN3_ORDER = (Chain3.ONE, Chain3.HALF, Chain3.ZERO)


def _first_refutation(names, values, differ):
    for point in itertools.product(values, repeat=len(names)):
        rho = dict(zip(sorted(names), point))
        if differ(rho):
            return rho
    return None


def _witness(verdict):
    return None if isinstance(verdict, Holds) else verdict.witness


_gens4 = st.sampled_from(["i", "j", "k", "l"])


def _faces(gens):
    leaves = st.one_of(_iexprs(gens).map(Eq0), _iexprs(gens).map(Eq1),
                       st.sampled_from([FBot(), FTop()]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: FMeet(*p)),
            st.tuples(sub, sub).map(lambda p: FJoin(*p))),
        max_leaves=6)


@given(_iexprs(_gens4), _iexprs(_gens4))
def test_interval_eq_agrees_with_sweep_and_dnf(a, b):
    expected = _first_refutation(
        generators(a) | generators(b), _DM4_ORDER,
        lambda rho: eval_interval(a, rho) is not eval_interval(b, rho))
    verdict = interval_eq(a, b)
    assert _witness(verdict) == expected
    assert interval_eq_canonical(a, b) == (expected is None)


@given(_faces(_gens4), _faces(_gens4))
def test_face_eq_agrees_with_sweep(a, b):
    expected = _first_refutation(
        face_generators(a) | face_generators(b), _CHAIN3_ORDER,
        lambda rho: eval_face(a, rho) != eval_face(b, rho))
    assert _witness(face_eq(a, b)) == expected


def _chain(gens, ops):
    e = gens[0]
    for g, op in zip(gens[1:], itertools.cycle(ops)):
        e = op(e, g)
    return e


def test_interval_eq_ten_generators():
    gens = [Gen(f"g{k}") for k in range(10)]
    lhs = _chain(gens, (Meet, Join))
    rhs = Join(lhs, Neg(gens[3]))
    v = interval_eq(lhs, rhs)
    assert isinstance(v, Fails)
    assert sorted(v.witness) == [g.name for g in gens]
    assert eval_interval(lhs, v.witness) is not eval_interval(rhs, v.witness)
    assert not interval_eq_canonical(lhs, rhs)


def test_generator_cap():
    gens = [Gen(f"g{k:02d}") for k in range(MAX_GENERATORS + 1)]
    big = _chain(gens, (Join,))
    with pytest.raises(OracleError, match=f"{MAX_GENERATORS + 1} generators"
                                          f".* at most {MAX_GENERATORS}"):
        interval_eq(big, One())
    with pytest.raises(OracleError, match=f"{MAX_GENERATORS + 1} generators"):
        face_eq(Eq1(big), FTop())


def test_algebra_imports_only_terms():
    # The auditor must not share code with the kernel it audits.  ast.walk
    # also visits function bodies, so a local import would count too.
    tree = ast.parse(Path(morgandk.algebra.__file__).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = {(node.level, node.module) for node in imports
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in imports
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {(1, "terms")}
    assert not any(name.split(".")[0] == "morgandk" for name in absolute)
