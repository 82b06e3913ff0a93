"""Acceptance gate: one test per shipped guarantee.

Each test records a pass/fail line for the terminal summary before it
asserts, so the report survives a red run.  Values asserted here were
computed once by the independent lattice oracles and frozen; the tests
re-derive them from scratch on every run.
"""

import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from morgandk.algebra import (DM4Value, Fails as OFails, Holds as OHolds,
                              audit_equation, check_rule_sound)
from morgandk.check import check, infer
from morgandk.parser import (RuleDecl, parse_file, parse_term,
                             print_declaration, pretty)
from morgandk.rewrite import (Fails as RFails, Fuel, Holds as RHolds,
                              critical_pairs, joinable)
from morgandk.surface import (EXTERNAL, INTERNAL, AApp, ACoerce, AEq, AFst,
                              AIsoDown, AIsoUp, ALam, ALift, ANat, APair,
                              APi, ARefl, ASig, ASucc, AUniv, AVar, AZero,
                              L0, Level, encode, encode_context)
from morgandk.terms import App, Const, Sort, alpha_eq, app, free_vars, msubst
from morgandk.theory import (INTERVAL_FACE_HEADS, NAT_STRENGTHS,
                             TheoryConfig, build_theory, interval_face_rules)

THEORIES = Path(__file__).resolve().parent.parent / "theories"

EQUATION_NAMES = (
    "Imax_idem", "Imax_comm", "Imax_dist", "Imax_distl",
    "Imin_idem", "Imin_comm", "Imin_dist", "Imin_distl",
    "Fmax_idem", "Fmax_comm", "Fmax_dist", "Fmax_distl",
    "Fmin_idem", "Fmin_comm", "Fmin_dist", "Fmin_distl",
    "Fdiscr",
)


def _all_configs(cubical: bool):
    for t1, t2, t3, univ, nat in itertools.product(
            (False, True), (False, True), (False, True), (False, True),
            NAT_STRENGTHS):
        yield TheoryConfig(t1_injectivity=t1,
                           t2_primitive_iso_as_rewrite=t2,
                           t3_repletion=t3,
                           nat_morphism_strength=nat,
                           include_weak_univalence=univ,
                           cubical=cubical)


def test_criterion_01_corpus_checks(record):
    built = 0
    ok = True
    try:
        for cfg in _all_configs(cubical=False):
            build_theory(cfg)
            built += 1
        for cfg in _all_configs(cubical=True):
            build_theory(cfg)
            built += 1
    except Exception:
        ok = False
    ok = ok and built == 96
    record(1, f"corpus checks under all {built} accepted flag combinations",
           ok)
    assert ok


def _nf_is(red, consts, term_text, want_text) -> bool:
    got = red.normalize(parse_term(term_text, consts))
    want = parse_term(want_text, consts)
    return alpha_eq(got, want)


def test_criterion_02_computation_rules_fire(record, full_sig):
    red = full_sig.reducer()
    consts = frozenset(full_sig.consts)
    named = [
        ("p1 l0 A B (pair l0 A B a b)", "a"),
        ("p2 l0 A B (pair l0 A B a b)", "b"),
        ("eps (lsuc l0) (t l0)", "T l0"),
        ("eps (lsuc l0) (lUp l0 A)", "eps l0 A"),
        ("isoDown l0 A (isoUp l0 A a)", "a"),
        ("isoUp l0 A (isoDown l0 A a)", "a"),
        ("app A u v (lam A f) e", "f e"),
        ("app A u v p 0", "u"),
        ("app A u v p 1", "v"),
    ]
    ok = all(_nf_is(red, consts, t, w) for t, w in named)
    # every interval/face rule, eq0/eq1 substitution rules included,
    # fires on its own left-hand side read as an open term
    alg = interval_face_rules(full_sig)
    ok = ok and len(alg) == 35
    for rule in alg:
        lhs_nf = red.normalize(rule.lhs)
        ok = ok and alpha_eq(lhs_nf, red.normalize(rule.rhs))
        ok = ok and not alpha_eq(lhs_nf, rule.lhs)
    record(2, "projection, decode, coercion, path and interval rules all "
              "fire", ok)
    assert ok


def test_criterion_03_oracle_soundness_sweep(record, full_sig):
    alg = interval_face_rules(full_sig)
    ok = len(alg) == 35 and all(
        isinstance(check_rule_sound(r), OHolds) for r in alg)
    for name in EQUATION_NAMES:
        ok = ok and isinstance(
            audit_equation(full_sig.consts[name].ty), OHolds)
    # the uncorrected right-unit line must be refuted with i at the top
    consts = frozenset(full_sig.consts)
    bogus = SimpleNamespace(lhs=parse_term("Imax i 1", consts),
                            rhs=parse_term("0", consts))
    verdict = check_rule_sound(bogus)
    ok = ok and isinstance(verdict, OFails)
    ok = ok and verdict.witness == {"i": DM4Value.TOP}
    record(3, "all 35 rules and 17 equations pass the lattice sweep; the "
              "known-bad right-unit rule is refuted at i = Top", ok)
    assert ok


def test_criterion_04_external_vs_definitional(record, full_sig):
    red = full_sig.reducer()
    consts = frozenset(full_sig.consts)
    pairs = [
        ("Imax i j", "Imax j i"),        # commutativity
        ("Imax i i", "i"),               # idempotence
        ("Imax i (Imin j k)", "Imin (Imax i j) (Imax i k)"),  # distribution
    ]
    ok = True
    for a, b in pairs:
        ta, tb = parse_term(a, consts), parse_term(b, consts)
        from morgandk.algebra import interval_eq, interval_from_term
        ok = ok and isinstance(
            interval_eq(interval_from_term(ta), interval_from_term(tb)),
            OHolds)
        ok = ok and not red.conv(ta, tb)
    record(4, "join laws hold in the oracle but are not convertible", ok)
    assert ok


def test_criterion_05_confluence(record, full_sig, fa_sig):
    shipped = interval_face_rules(full_sig)
    cps = critical_pairs(shipped)
    red = full_sig.reducer(fuel=Fuel(1000), cached=False)
    ok = len(cps) == 89
    ok = ok and all(isinstance(joinable(red, cp), RHolds) for cp in cps)
    # merging the quarantined decoding rules breaks it, on the documented
    # pair: the decoded meet of two true faces versus the pair type
    merged = [r for r in fa_sig.rule_list()
              if r.head == "faceType" or r.head in INTERVAL_FACE_HEADS]
    bad = [cp for cp in critical_pairs(merged)
           if isinstance(joinable(fa_sig.reducer(), cp), RFails)]
    ok = ok and bad
    fred = fa_sig.reducer()
    fconsts = frozenset(fa_sig.consts)
    want = {pretty(fred.normalize(parse_term("cTrue", fconsts))),
            pretty(fred.normalize(parse_term("cSig cTrue (_ => cTrue)",
                                             fconsts)))}
    hit = False
    for cp in bad:
        ground = {v: Const("1f") for v in free_vars(cp.peak)}
        got = {pretty(fred.normalize(msubst(cp.left, ground))),
               pretty(fred.normalize(msubst(cp.right, ground)))}
        hit = hit or got == want
    ok = ok and hit
    record(5, "all 89 shipped critical pairs join; the quarantined decode "
              "rules produce the documented clash", bool(ok))
    assert ok


def test_criterion_06_face_decoding_block(record, full_sig):
    from morgandk.algebra import face_eq, face_from_term
    consts = frozenset(full_sig.consts)
    a = face_from_term(parse_term("Fmin (eq0 i) (eq1 i)", consts))
    b = face_from_term(parse_term("0f", consts))
    ok = isinstance(face_eq(a, b), OHolds)
    ok = ok and not full_sig.rules.get("faceType")
    isos = ("ftFalse", "ftFalseInv", "ftTrue", "ftTrueInv",
            "ftEq0", "ftEq0Inv", "ftEq1", "ftEq1Inv",
            "ftMin", "ftMinInv", "ftMax", "ftMaxInv")
    for name in isos:
        ok = ok and name in full_sig.consts
        ok = ok and "faceType" in pretty(full_sig.consts[name].ty)
    record(6, "empty meet of opposite faces holds; decoding is rule-free "
              "with per-former isomorphisms", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the composition primitive is opaque, so the filling line at "
           "its source endpoint is the stuck constant-line composition, "
           "not the starting point itself; see the decisions ledger")
def test_criterion_07_filling(record, full_sig):
    red = full_sig.reducer()
    fill = full_sig.consts["fillLine"]
    term, ty = fill.body, fill.ty
    checks = True
    try:
        check(full_sig, {}, term, ty, red)
    except Exception:
        checks = False
    at1 = red.normalize(App(term, Const("1")))
    consts = frozenset(full_sig.consts)
    want1 = red.normalize(
        parse_term("primCompTerm l0 phi0 A0 u0 a00 coh0", consts))
    ok1 = alpha_eq(at1, want1)
    at0 = red.normalize(App(term, Const("0")))
    ok0 = alpha_eq(at0, Const("a00"))
    record(7, "filling line checks and hits the composition at one, but "
              "does not collapse to the start at zero", checks and ok1 and ok0)
    assert checks and ok1 and ok0


def test_criterion_08_translation_soundness(record, full_sig):
    red = full_sig.reducer()
    L1 = Level("l0", 1)

    def judge(entries, tm_ast, ty_ast, lev=L0, layer=INTERNAL,
              ty_lev=None, ty_layer=None) -> bool:
        ctx = encode_context(entries)
        tm = encode(tm_ast, lev, layer)
        tla = ty_layer or layer
        decoder = Const("eps" if tla == INTERNAL else "xeps")
        tty = app(decoder, (ty_lev or lev).term(),
                  encode(ty_ast, ty_lev or lev, tla))
        try:
            check(full_sig, ctx, tm, tty, red)
        except Exception:
            return False
        return True

    nat = ANat()
    judgments = [
        judge([("n", nat, L0, INTERNAL)], AVar("n"), nat),
        judge([], ASucc(AZero()), nat),
        judge([], nat, AUniv(), lev=L0, ty_lev=L1),
        judge([], APair("x", nat, nat, AZero(), ASucc(AZero())),
              ASig("x", nat, nat)),
        judge([("p", ASig("x", nat, nat), L0, INTERNAL)],
              AFst("x", nat, nat, AVar("p")), nat),
        judge([], ALam("x", nat, ASucc(AVar("x"))), APi("x", nat, nat)),
        judge([("f", APi("x", nat, nat), L0, INTERNAL),
               ("n", nat, L0, INTERNAL)],
              AApp(AVar("f"), AVar("n")), nat),
        judge([], ARefl(nat, AZero()), AEq(nat, AZero(), AZero())),
        judge([("a", nat, L0, INTERNAL)], AVar("a"), ALift(nat), lev=L1),
        judge([("m", nat, L0, EXTERNAL)], ASucc(AVar("m")), nat,
              layer=EXTERNAL),
        judge([], AIsoUp(nat, AZero()), ACoerce(nat), layer=EXTERNAL),
        judge([("y", ACoerce(nat), L0, EXTERNAL)],
              AIsoDown(nat, AVar("y")), nat),
    ]
    ok = len(judgments) >= 10 and all(judgments)
    record(8, f"{len(judgments)} two-layer judgments translate and check",
           ok)
    assert ok


def test_criterion_09_subject_reduction(record, full_sig):
    red = full_sig.reducer()
    ok = True
    types = bodies = 0
    for info in full_sig.consts.values():
        try:
            nty = red.normalize(info.ty)
            sort = red.whnf(infer(full_sig, {}, nty, red))
            ok = ok and isinstance(sort, Sort)
            types += 1
            if info.body is not None:
                check(full_sig, {}, red.normalize(info.body),
                      info.ty, red)
                bodies += 1
        except Exception:
            ok = False
    ok = ok and types == len(full_sig.consts) and bodies > 0
    record(9, f"normal forms of all {types} types and {bodies} definition "
              "bodies re-check", ok)
    assert ok


def test_criterion_10_parser_roundtrip(record):
    files = sorted(THEORIES.glob("*.dk"))
    quarantine = THEORIES / "quarantine" / "faces-first-attempt.dk"
    ok = len(files) == 15 and quarantine.is_file()
    consts: set[str] = set()
    snapshots = {}
    for f in files:
        snapshots[f] = set(consts)
        parse_file(f.read_text(), f.name, consts)
    # the quarantined file lives under the prefix that precedes the
    # shipped decoding block
    qpref = (THEORIES / "11-cubical-facetype.dk")
    snapshots[quarantine] = snapshots[qpref]
    for f in list(files) + [quarantine]:
        cs = snapshots[f]
        first = parse_file(f.read_text(), f.name, set(cs))
        printed = "\n".join(print_declaration(d) for d in first)
        second = parse_file(printed, f.name, set(cs))
        ok = ok and len(first) == len(second)
        for a, b in zip(first, second):
            ok = ok and _decl_equiv(a, b)
    record(10, "print then re-parse is identity on every shipped theory "
               "file", ok)
    assert ok


def _decl_equiv(a, b) -> bool:
    from morgandk.parser import Definition
    if type(a) is not type(b):
        return False
    if isinstance(a, RuleDecl):
        return (a.pat_vars == b.pat_vars and alpha_eq(a.lhs, b.lhs)
                and alpha_eq(a.rhs, b.rhs))
    if isinstance(a, Definition):
        ty_ok = (a.ty is None and b.ty is None) or (
            a.ty is not None and b.ty is not None and alpha_eq(a.ty, b.ty))
        return a.name == b.name and ty_ok and alpha_eq(a.body, b.body)
    return a.name == b.name and alpha_eq(a.ty, b.ty)
