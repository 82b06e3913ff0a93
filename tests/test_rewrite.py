import pytest
from hypothesis import given, settings, strategies as st

from morgandk.algebra import interval_eq, interval_from_term, Holds as AHolds
from morgandk.parser import parse_term, pretty
from morgandk.rewrite import (DEFAULT_FUEL, CriticalPair, Fails, Fuel,
                              FuelExhausted, Holds, Reducer, ReplayError,
                              RuleCompileError, compile_rule, critical_pairs,
                              joinable, match_pattern)
from morgandk.terms import (App, Bound, Const, Lam, Pi, Sort, Var, alpha_eq,
                            app, lam, subst)
from morgandk.theory import interval_face_rules


def _pt(text: str, sig):
    return parse_term(text, frozenset(sig.consts))


def test_match_binds_variable(full_sig):
    pat = app(Const("Imin"), Const("1"), Var("i"))
    t = _pt("Imin 1 (sym j)", full_sig)
    sub = match_pattern(pat, t)
    assert sub == {"i": App(Const("sym"), Var("j"))}


def test_match_nonlinear_needs_agreement(full_sig):
    red = full_sig.reducer()
    pat = app(Const("isoDown"), Var("i"), Var("A"),
              app(Const("isoUp"), Var("i"), Var("A"), Var("a")))
    good = _pt("isoDown l B (isoUp l B x)", full_sig)
    bad = _pt("isoDown l B (isoUp l C x)", full_sig)
    assert match_pattern(pat, good, conv=red.conv) is not None
    assert match_pattern(pat, bad, conv=red.conv) is None


def test_match_bare_variable():
    t = app(Const("f"), Var("y"))
    assert match_pattern(Var("x"), t) == {"x": t}


def test_whnf_beta(full_sig):
    red = full_sig.reducer()
    t = App(lam("x", None, Var("x")), Const("0"))
    assert red.whnf(t) == Const("0")


def test_alpha_variants_share_a_cache_entry(full_sig):
    a = _pt("x => sym (sym x)", full_sig)
    b = _pt("y => sym (sym y)", full_sig)
    assert a == b and hash(a) == hash(b)
    red = Reducer(full_sig.rules, Fuel())
    nf = red.normalize(a)
    entries = len(red.nf_cache)
    assert red.normalize(b) is nf
    assert len(red.nf_cache) == entries


def test_conv_ignores_lambda_domains(full_sig):
    a = _pt("x : A => x", full_sig)
    b = _pt("x : B => x", full_sig)
    assert a != b
    assert full_sig.reducer().conv(a, b)


def test_whnf_universe_decode(full_sig):
    red = full_sig.reducer()
    got = red.whnf(_pt("eps (lsuc l0) (t l0)", full_sig))
    assert got == app(Const("T"), Const("l0"))


def test_whnf_second_projection(full_sig):
    red = full_sig.reducer()
    got = red.whnf(_pt("p2 l0 A B (pair l0 A B a b)", full_sig))
    assert got == Var("b")


def test_normalize_involution(full_sig):
    red = full_sig.reducer()
    assert red.normalize(_pt("sym (sym i)", full_sig)) == Var("i")


def test_normalize_de_morgan(full_sig):
    red = full_sig.reducer()
    got = red.normalize(_pt("sym (Imin i j)", full_sig))
    assert got == _pt("Imax (sym i) (sym j)", full_sig)


def test_normalize_rule_chain(full_sig):
    red = full_sig.reducer()
    assert red.normalize(_pt("sym (Imax 0 (sym i))", full_sig)) == Var("i")


def test_convertible_lift(full_sig):
    red = full_sig.reducer()
    assert red.conv(_pt("eps (lsuc l0) (lUp l0 exA)", full_sig),
                    _pt("eps l0 exA", full_sig))


def test_convertible_iso_inverse(full_sig):
    red = full_sig.reducer()
    assert red.conv(_pt("isoUp l0 exA (isoDown l0 exA x)", full_sig),
                    Var("x"))


def test_commutativity_not_convertible(full_sig):
    red = full_sig.reducer()
    assert not red.conv(_pt("Imax i j", full_sig), _pt("Imax j i", full_sig))


def test_critical_pair_root_overlap():
    r1 = compile_rule("Imin.1", ("i",),
                      app(Const("Imin"), Const("0"), Var("i")), Const("0"))
    r2 = compile_rule("Imin.2", ("i",),
                      app(Const("Imin"), Var("i"), Const("0")), Const("0"))
    cps = critical_pairs([r1, r2])
    peaks = [cp for cp in cps
             if alpha_eq(cp.peak, app(Const("Imin"), Const("0"), Const("0")))]
    assert peaks
    cp = peaks[0]
    assert cp.left == Const("0") and cp.right == Const("0")


def test_critical_pairs_disjoint_heads():
    r1 = compile_rule("sym.1", (), App(Const("sym"), Const("0")), Const("1"))
    r2 = compile_rule("sym.2", (), App(Const("sym"), Const("1")), Const("0"))
    assert critical_pairs([r1, r2]) == []


def test_joinable_trivial_pair(full_sig):
    cp = CriticalPair("Imin.1", "Imin.2", (),
                      app(Const("Imin"), Const("0"), Const("0")),
                      Const("0"), Const("0"))
    assert isinstance(joinable(full_sig.reducer(), cp), Holds)


def test_associativity_self_overlap_joins(full_sig):
    rules = [r for r in full_sig.rule_list() if r.head == "Imin"]
    cps = critical_pairs(rules)
    deep = app(Const("Imin"),
               app(Const("Imin"), app(Const("Imin"), Var("a"), Var("b")),
                   Var("c")), Var("d"))
    assert any(match_pattern(deep, cp.peak) is not None for cp in cps)
    red = full_sig.reducer()
    for cp in cps:
        assert isinstance(joinable(red, cp), Holds)


def test_joinable_failure_carries_normal_forms(fa_sig):
    rules = [r for r in fa_sig.rule_list()
             if r.head in ("faceType", "Fmin", "Fmax")]
    red = fa_sig.reducer()
    bad = [joinable(red, cp) for cp in critical_pairs(rules)]
    bad = [v for v in bad if isinstance(v, Fails)]
    assert bad
    left, right = bad[0].witness
    assert not alpha_eq(left, right)


def test_compile_rule_rejects_loose_rhs_var():
    with pytest.raises(RuleCompileError):
        compile_rule("bad", ("i",), App(Const("sym"), Var("i")), Var("j"))


def test_fuel_exhaustion(full_sig):
    t = _pt("exDouble exTwo", full_sig)
    red = full_sig.reducer(fuel=Fuel(2), cached=False)
    with pytest.raises(FuelExhausted):
        red.normalize(t)
    assert full_sig.reducer(fuel=Fuel(1000), cached=False).normalize(t) \
        == _pt("succ l0 (succ l0 (succ l0 (succ l0 (zero l0))))", full_sig)


def _numeral(n):
    t = App(Const("zero"), Const("l0"))
    for _ in range(n):
        t = app(Const("succ"), Const("l0"), t)
    return t


def _successors(t):
    """n if t is the numeral with n successors, else None.  Iterative,
    since `==` on a numeral hundreds deep overflows the stack."""
    n = 0
    while isinstance(t, App) and t.fn == App(Const("succ"), Const("l0")):
        n, t = n + 1, t.arg
    return n if t == App(Const("zero"), Const("l0")) else None


def test_cached_normalization_hashes_each_term_a_bounded_number_of_times(
        full_sig, monkeypatch):
    # every cache probe used to re-hash the whole subterm, which is
    # quadratic in the depth: 437,569 hashes here
    calls = [0]
    for cls in (Sort, Const, Var, Bound, App, Lam, Pi):
        def counted(t, h=cls.__dict__["__hash__"]):
            calls[0] += 1
            return h(t)
        monkeypatch.setattr(cls, "__hash__", counted)
    red = full_sig.copy().reducer()
    nf = red.normalize(App(Const("exDouble"), _numeral(100)))
    assert _successors(nf) == 200
    assert calls[0] <= 20_000, calls[0]


def test_cached_normalization_of_a_deep_numeral(full_sig):
    # the recursion inside hashing overflowed the stack at ~250 deep
    red = full_sig.copy().reducer()
    nf = red.normalize(App(Const("exDouble"), _numeral(400)))
    assert _successors(nf) == 800


def test_trace_replays(full_sig):
    red = full_sig.reducer()
    t = _pt("Imin 1 (sym (sym (Imax 0 i)))", full_sig)
    nf, steps = red.normalize_traced(t)
    assert steps
    assert alpha_eq(red.replay(t, steps), nf)


def test_replay_rejects_wrong_position(full_sig):
    red = full_sig.reducer()
    t = _pt("sym (sym i)", full_sig)
    nf, steps = red.normalize_traced(t)
    with pytest.raises(ReplayError):
        red.replay(Var("unrelated"), steps)


_gen = st.sampled_from(["i", "j", "k"])


def _interval_terms():
    leaves = st.one_of(_gen.map(Var),
                       st.sampled_from([Const("0"), Const("1")]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(lambda t: App(Const("sym"), t)),
            st.tuples(sub, sub).map(
                lambda p: app(Const("Imin"), p[0], p[1])),
            st.tuples(sub, sub).map(
                lambda p: app(Const("Imax"), p[0], p[1]))),
        max_leaves=10)


@given(_interval_terms())
def test_interval_normalization_is_sound(t):
    # rewriting must stay inside the semantic equivalence class
    from morgandk.theory import FULL_CONFIG, build_theory
    sig = build_theory(FULL_CONFIG)
    nf = sig.reducer().normalize(t)
    v = interval_eq(interval_from_term(t), interval_from_term(nf))
    assert isinstance(v, AHolds)


@given(_interval_terms())
def test_match_soundness(t):
    # a successful match makes the pattern literally equal after subst
    pat = app(Const("Imin"), Var("a"), App(Const("sym"), Var("b")))
    sub = match_pattern(pat, t)
    if sub is None:
        return
    instantiated = pat
    for v, s in sub.items():
        instantiated = subst(instantiated, v, s)
    assert alpha_eq(instantiated, t)


def _conv_pairs():
    # an unrelated term converts rarely, so most partners are rewrites
    # or an eta expansion of the first term
    def partners(t):
        return st.one_of(
            _interval_terms(),
            st.just(App(Const("sym"), App(Const("sym"), t))),
            st.just(app(Const("Imin"), Const("1"), t)),
            st.just(app(Const("Imax"), t, Const("0"))),
            st.just(lam("x", None, App(t, Var("x"))))).map(lambda u: (t, u))
    return _interval_terms().flatmap(partners)


@settings(deadline=None)
@given(_conv_pairs(), st.booleans())
def test_incremental_conv_agrees_with_normal_form_comparison(full_sig, pair,
                                                              use_nf):
    # uncached reducers, so neither side reuses the other's work; the
    # claim holds where the budget suffices, and an uncached reducer
    # spends steps exponentially in nested sym
    a, b = pair
    try:
        if use_nf:
            b = full_sig.reducer(Fuel(500), cached=False).normalize(b)
        incremental = full_sig.reducer(Fuel(500), cached=False).conv(a, b)
        # `==` also compares lambda domains, which conv ignores; the
        # generated lambdas carry none
        red = full_sig.reducer(Fuel(500), cached=False)
        reference = red.normalize(a) == red.normalize(b)
    except FuelExhausted:
        return
    assert incremental == reference


# -- verdicts depend on the input alone -------------------------------------
# Each reducer owns its caches, so one query cannot hand its work, or
# the fuel that work saved, to the next.

def _pair_verdicts(sig, pairs, fuel_steps, cached=True):
    out = {}
    for cp in pairs:
        red = sig.reducer(Fuel(fuel_steps), cached=cached)
        try:
            v = joinable(red, cp)
        except FuelExhausted:
            out[cp.rule1, cp.rule2, cp.position] = "out of fuel"
            continue
        out[cp.rule1, cp.rule2, cp.position] = (
            "joins" if isinstance(v, Holds)
            else tuple(pretty(t) for t in v.witness))
    return out


def test_pair_verdicts_do_not_depend_on_pair_order(full_sig):
    pairs = critical_pairs(interval_face_rules(full_sig))
    assert len(pairs) == 89
    for b in range(1, 5):
        forward = _pair_verdicts(full_sig.copy(), pairs, b)
        backward = _pair_verdicts(full_sig.copy(), pairs[::-1], b)
        assert forward == backward, b


def test_cached_pair_report_equals_uncached(full_sig):
    pairs = critical_pairs(interval_face_rules(full_sig))
    cached = _pair_verdicts(full_sig.copy(), pairs, DEFAULT_FUEL)
    assert set(cached.values()) == {"joins"}
    assert _pair_verdicts(full_sig.copy(), pairs, DEFAULT_FUEL,
                          cached=False) == cached


def test_fuel_use_does_not_depend_on_a_warm_up(full_sig):
    sig = full_sig.copy()
    t = _pt("exDouble exTwo", sig)
    with pytest.raises(FuelExhausted):
        sig.reducer(Fuel(3)).normalize(t)
    sig.reducer().normalize(t)
    with pytest.raises(FuelExhausted):
        sig.reducer(Fuel(3)).normalize(t)


def test_printed_normal_types_do_not_depend_on_order(full_sig):
    def printed(names):
        sig = full_sig.copy()
        return {n: pretty(sig.reducer().normalize(sig.consts[n].ty))
                for n in names}
    assert printed(full_sig.order) == printed(full_sig.order[::-1])
