import signal
from contextlib import contextmanager
from itertools import repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from morgandk.algebra import interval_eq, interval_from_term, Holds as AHolds
from morgandk.parser import parse_term, pretty
from morgandk import rewrite
from morgandk.rewrite import (DEFAULT_FUEL, CriticalPair, Fails, Fuel,
                              FuelExhausted, Holds, Reducer, ReplayError,
                              RuleCompileError, compile_rule, critical_pairs,
                              joinable, match_pattern, unify)
from morgandk.terms import (App, Bound, Const, Lam, Pi, Sort, Var, alpha_eq,
                            app, free_vars, instantiate, lam, msubst, pi,
                            spine, subst, subterms)
from morgandk.theory import INTERVAL_FACE_HEADS, interval_face_rules


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


@pytest.mark.parametrize("subject", ["F", "g"])
def test_match_pattern_refuses_what_compile_rule_refuses(subject):
    # `F x` applies a pattern variable: compile_rule refuses it, and
    # matching it must not answer, whatever the subject's head
    pat = App(Var("F"), Var("x"))
    with pytest.raises(RuleCompileError, match="occur bare"):
        compile_rule("r", ("F", "x"), App(Const("f"), pat), Var("x"))
    with pytest.raises(RuleCompileError, match="occur bare"):
        match_pattern(pat, App(Const(subject), Const("a")))


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


def test_compile_rule_reports_the_first_bad_node_in_preorder():
    # function before argument, a binder before what is under it
    lam_x = Lam("x", None, Var("y"))
    with pytest.raises(RuleCompileError, match="unbound variable 'y'"):
        compile_rule("bad", (), app(Const("f"), Var("y"), lam_x), Const("c"))
    with pytest.raises(RuleCompileError, match="applicative"):
        compile_rule("bad", (), app(Const("f"), lam_x, Var("y")), Const("c"))
    with pytest.raises(RuleCompileError, match="applicative"):
        compile_rule("bad", (), app(Const("f"), Sort("TYPE")), Const("c"))
    # an applied pattern variable before what it is applied to, and
    # before a later binder
    f_x = app(Var("F"), Var("y"))
    with pytest.raises(RuleCompileError, match="must occur bare"):
        compile_rule("bad", ("F",), app(Const("f"), app(Const("g"), f_x),
                                        lam_x), Const("c"))


def test_fuel_exhaustion(full_sig):
    t = _pt("exDouble exTwo", full_sig)
    red = full_sig.reducer(fuel=Fuel(2), cached=False)
    with pytest.raises(FuelExhausted):
        red.normalize(t)
    assert full_sig.reducer(fuel=Fuel(1000), cached=False).normalize(t) \
        == _pt("succ l0 (succ l0 (succ l0 (succ l0 (zero l0))))", full_sig)


def _rule_dict(*rules):
    out = {}
    for r in rules:
        out.setdefault(r.head, []).append(r)
    return out


def test_whnf_compares_a_repeated_variable_by_conversion(monkeypatch):
    # eq x x --> tt binds x to the first argument as given and compares
    # the second with it by conversion, without a matcher call
    rules = _rule_dict(compile_rule(
        "refl", ("x",), app(Const("eq"), Var("x"), Var("x")), Const("tt")))
    matched = _counting(monkeypatch, "_match")
    a, b = Const("a"), Const("b")
    redex = App(Lam("y", None, Bound(0)), a)
    assert redex != a
    assert Reducer(rules).whnf(app(Const("eq"), a, redex)) == Const("tt")
    stuck = app(Const("eq"), a, App(Lam("y", None, Bound(0)), b))
    assert Reducer(rules).whnf(stuck) == stuck
    assert matched[0] == 0


@pytest.mark.parametrize("cached", [False, True])
def test_whnf_never_reduces_an_argument_under_a_variable_pattern(cached):
    # k x --> c fires on `k loop` without forcing `loop --> loop`
    rules = _rule_dict(
        compile_rule("k", ("x",), App(Const("k"), Var("x")), Const("c")),
        compile_rule("loop", (), Const("loop"), Const("loop")))
    fuel = Fuel(3)
    red = Reducer(rules, fuel, cached)
    assert red.whnf(App(Const("k"), Const("loop"))) == Const("c")
    assert fuel.remaining == 2


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the block runs longer than `seconds`."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# rule sets whose normal form of `f` would contain `f` itself
_SELF_CONTAINING = {
    "f --> g f": [compile_rule("f", (), Const("f"),
                               App(Const("g"), Const("f")))],
    "f --> g h, h --> k f": [
        compile_rule("f", (), Const("f"), App(Const("g"), Const("h"))),
        compile_rule("h", (), Const("h"), App(Const("k"), Const("f")))],
}


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("label", list(_SELF_CONTAINING))
def test_normalize_runs_out_of_fuel_on_a_normal_form_that_contains_itself(
        label, cached):
    # a cache hit costs no fuel, so the cached reducer must notice that it
    # is rebuilding a term it has not finished yet
    red = Reducer(_rule_dict(*_SELF_CONTAINING[label]), Fuel(1000), cached)
    with _deadline(60), pytest.raises(FuelExhausted):
        red.normalize(Const("f"))


@pytest.mark.parametrize("fuel", [20, DEFAULT_FUEL])
@pytest.mark.parametrize("cached", [False, True])
def test_conv_runs_out_of_fuel_on_a_problem_that_contains_itself(
        cached, fuel):
    # conv(f, h) asks conv(g f, g h), which asks conv(f, h) again
    red = Reducer(_rule_dict(
        compile_rule("f", (), Const("f"), App(Const("g"), Const("f"))),
        compile_rule("h", (), Const("h"), App(Const("g"), Const("h")))),
        Fuel(fuel), cached)
    with _deadline(60), pytest.raises(FuelExhausted):
        red.conv(Const("f"), Const("h"))
    assert not red.deciding


def test_conv_decides_a_repeated_problem_that_does_not_contain_itself():
    # both arguments ask conv(a, c), one after the other
    red = Reducer(_rule_dict(compile_rule("a", (), Const("a"), Const("b")),
                             compile_rule("c", (), Const("c"), Const("b"))))
    assert red.conv(app(Const("k"), Const("a"), Const("a")),
                    app(Const("k"), Const("c"), Const("c")))


def test_a_chain_of_beta_steps_costs_a_tick_each():
    # one substitution contracts the three steps, and the budget still
    # runs out at the third, as one step at a time did; a trace records
    # each step on its own
    rules = {}
    k = parse_term("x => y => z => x", frozenset())
    t = app(k, Const("a"), Const("b"), Const("c"))
    with pytest.raises(FuelExhausted):
        Reducer(rules, Fuel(2)).whnf(t)
    fuel = Fuel(3)
    assert Reducer(rules, fuel).whnf(t) == Const("a")
    assert fuel.remaining == 0
    # a chain longer than its arguments stops at the last argument
    fuel = Fuel(5)
    assert Reducer(rules, fuel).whnf(App(k, Const("a"))) == parse_term(
        "y => z => a", frozenset({"a"}))
    assert fuel.remaining == 4
    nf, steps = Reducer(rules).normalize_traced(t)
    assert nf == Const("a") and [name for _, name in steps] == ["beta"] * 3


def _numeral(n):
    t = App(Const("zero"), Const("l0"))
    for _ in range(n):
        t = app(Const("succ"), Const("l0"), t)
    return t


def test_cached_normalization_hashes_each_term_a_bounded_number_of_times(
        full_sig, monkeypatch):
    # every cache probe used to re-hash the whole subterm, which is
    # quadratic in the depth: 437,569 hashes here
    term, want = App(Const("exDouble"), _numeral(100)), _numeral(200)
    calls = [0]
    for cls in (Sort, Const, Var, Bound, App, Lam, Pi):
        def counted(t, h=cls.__dict__["__hash__"]):
            calls[0] += 1
            return h(t)
        monkeypatch.setattr(cls, "__hash__", counted)
    red = full_sig.copy().reducer()
    nf = red.normalize(term)
    assert calls[0] <= 20_000, calls[0]
    assert nf == want


# The depth tests below run at the interpreter's default recursion
# limit: hashing, `==`, normalization and the traced search keep their
# own stacks, so a term's depth is not bounded by it.

def test_cached_normalization_of_a_deep_numeral(full_sig,
                                                default_recursion_limit):
    red = full_sig.copy().reducer()
    assert red.normalize(App(Const("exDouble"), _numeral(10_000))) \
        == _numeral(20_000)


def test_uncached_normalization_of_a_deep_numeral(full_sig,
                                                  default_recursion_limit):
    red = full_sig.reducer(cached=False)
    assert red.normalize(App(Const("exDouble"), _numeral(10_000))) \
        == _numeral(20_000)


@pytest.mark.parametrize("cached", [True, False])
def test_normalizing_a_normal_term_returns_it(full_sig, cached,
                                              default_recursion_limit):
    # the cached reducer used to rebuild every node of an already normal
    # term, and compared each rebuilt node with the original, all the
    # way down, when caching it: quadratic in the depth
    t = _numeral(10_000)
    assert full_sig.reducer(cached=cached).normalize(t) is t


def test_compile_a_deep_rule(default_recursion_limit):
    lhs = app(Const("f"), _numeral(10_000), Var("x"))
    rule = compile_rule("deep", ("x",), lhs, Var("x"))
    assert rule.pat_vars == ("x",) and rule.lhs_args[1] == Var("x")
    with pytest.raises(RuleCompileError, match="unbound variable 'y'"):
        compile_rule("deep", ("x",), app(Const("f"), _numeral(10_000),
                                         Var("y")), Var("x"))


def test_traced_normalization_of_a_deep_numeral(full_sig,
                                                default_recursion_limit):
    red = full_sig.reducer(cached=False)
    term = App(Const("exDouble"), _numeral(600))
    nf, steps = red.normalize_traced(term)
    assert nf == _numeral(1200) and len(steps) == 3 * 600 + 2
    assert red.replay(term, steps) == nf


def test_traced_work_is_linear_in_the_depth(full_sig, monkeypatch):
    # a step rebuilds no ancestor at once: the walk rebuilds each when it
    # climbs out, and replay climbs only to the next step's position, so
    # twice the depth builds about twice the applications
    init = App.__init__
    built = [0]

    def counted(self, fn, arg):
        built[0] += 1
        init(self, fn, arg)

    terms = [App(Const("exDouble"), _numeral(d)) for d in (100, 200)]
    monkeypatch.setattr(App, "__init__", counted)
    counts = []
    for term in terms:
        red = full_sig.reducer(cached=False)
        built[0] = 0
        nf, steps = red.normalize_traced(term)
        assert red.replay(term, steps) == nf
        counts.append(built[0])
    assert counts[1] <= 2.3 * counts[0], counts


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


def test_replay_errors_after_a_valid_step(full_sig):
    # replay keeps the path to the last step and climbs from there to
    # the next one: its errors are those of a walk from the root
    red = full_sig.reducer()
    t = _pt("g (sym (sym i)) (x => h x)", full_sig)
    first = red.normalize_traced(t)[1][0]
    assert first[0] == ("fn", "arg")
    sym = first[1]
    for bad, msg in [
            ((("fn", "arg", "fn"), "beta"), "position fn/arg/fn does not exist"),
            ((("arg", "dom"), "beta"), "position arg/dom does not exist"),
            ((("arg",), "beta"), "no beta redex at arg"),
            ((("fn", "arg"), "eta"), "no eta redex at fn/arg"),
            ((("arg",), "nope"), "unknown rule 'nope'"),
            ((("arg",), sym), f"rule {sym!r} does not apply at arg")]:
        with pytest.raises(ReplayError) as e:
            red.replay(t, [first, bad])
        assert str(e.value) == msg


def test_replay_accepts_a_rule_that_is_not_the_first_to_apply():
    # both rules match `f c`: the search takes the first, and replay
    # accepts a step by either
    r1 = compile_rule("f.1", ("x",), App(Const("f"), Var("x")), Const("a"))
    r2 = compile_rule("f.2", (), App(Const("f"), Const("c")), Const("b"))
    red = Reducer({"f": [r1, r2]})
    t = app(Const("g"), App(Const("f"), Const("c")))
    assert red.normalize_traced(t)[1] == [(("arg",), "f.1")]
    assert red.replay(t, [(("arg",), "f.2")]) == app(Const("g"), Const("b"))


def _common_prefix_reference(a, b):
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


_keys = st.sampled_from(["fn", "arg", "dom", "body", "cod"])


def _position_pairs():
    # a shared prefix of up to 150 keys, then two tails that may differ
    # at once, so one position need not extend the other
    prefix = st.integers(0, 150).flatmap(
        lambda n: st.lists(_keys, min_size=n, max_size=n))
    return st.tuples(prefix, st.lists(_keys, max_size=20),
                     st.lists(_keys, max_size=20)).map(
        lambda p: (tuple(p[0] + p[1]), tuple(p[0] + p[2])))


@example((("fn",) * 120 + ("arg",) * 3, ("fn",) * 120 + ("fn", "arg")))
@example((("arg",) + ("fn",) * 110, ("fn",) * 111))
@given(_position_pairs())
def test_common_prefix_agrees_with_a_plain_loop(pair):
    a, b = pair
    assert rewrite._common_prefix(a, b) == _common_prefix_reference(a, b)


# -- traced reduction: the resumed search ------------------------------------
# `normalize_traced` resumes its search at the position it just rewrote,
# after re-checking the ancestors that the step can make fire.  The loop
# it replaced, which searched again from the root after every step,
# stays here as the reference: the steps, their positions and the normal
# form must agree, and replaying the steps must give that normal form.

def _find_step_reference(red, t, pos=()):
    hit = red._rule_step_at_root(t)
    if hit is not None:
        return pos, hit[0], hit[1]
    match t:
        case App(f, a):
            return (_find_step_reference(red, f, pos + ("fn",))
                    or _find_step_reference(red, a, pos + ("arg",)))
        case Lam(_, d, b):
            found = (_find_step_reference(red, d, pos + ("dom",))
                     if d is not None else None)
            return found or _find_step_reference(red, b, pos + ("body",))
        case Pi(_, d, c):
            return (_find_step_reference(red, d, pos + ("dom",))
                    or _find_step_reference(red, c, pos + ("cod",)))
    return None


def _replace_at_reference(t, pos, repl):
    """t with the subterm at `pos` replaced by `repl`, rebuilt by
    recursion through each node's fields as `__match_args__` names them."""
    if not pos:
        return repl
    fields = [getattr(t, f) for f in t.__match_args__]
    i = t.__match_args__.index(pos[0])
    fields[i] = _replace_at_reference(fields[i], pos[1:], repl)
    return t.__class__(*fields)


def _normalize_traced_reference(red, t):
    steps = []
    while True:
        found = _find_step_reference(red, t)
        if found is None:
            return t, steps
        pos, name, repl = found
        t = _replace_at_reference(t, pos, repl)
        steps.append((pos, name))


def _same_trace(sig, t):
    red = sig.reducer(cached=False)
    want = _normalize_traced_reference(red, t)
    got = red.normalize_traced(t)
    assert got[1] == want[1]
    assert repr(got[0]) == repr(want[0])  # binder hints included
    assert repr(red.replay(t, got[1])) == repr(got[0])
    return got


def test_traced_steps_equal_the_reference_on_numerals(full_sig):
    for n in range(61):
        nf, _ = _same_trace(full_sig, App(Const("exDouble"), _numeral(n)))
        assert nf == _numeral(2 * n)


# A step deep inside a term can create a redex at an ancestor, which the
# resumed search must find before anything below it.
_REDEX_ABOVE = {
    # exId unfolds to a lambda: a beta redex at its parent
    "beta at the parent": "f (g (exId a))",
    # the projection erases the last x in `f` of `x => f x`: an eta
    # redex three levels up
    "eta at a distant ancestor": "x => g (p2 l0 A B (pair l0 A B x b)) x",
    # the inner projection makes the two `B`s of the non-left-linear
    # projection rule equal: a match at the root
    "non-left-linear match at the root":
        "p2 l0 A B (pair l0 A (p2 l0 C D (pair l0 C D e B)) a b)",
    # the head of the fn chain above the step unfolds from exDouble to
    # natElim, which fires at the root once exTwo unfolds in the argument
    "a head that gains rules": "exDouble exTwo",
    # three steps under the lambda before its body becomes `g i x`
    "eta above several steps": "f (x => g (sym (sym i)) (exId x))",
}


@pytest.mark.parametrize("label", list(_REDEX_ABOVE))
def test_traced_search_rechecks_the_ancestors(full_sig, label):
    t = _pt(_REDEX_ABOVE[label], full_sig)
    nf, steps = _same_trace(full_sig, t)
    above = {"beta at the parent": (("arg", "arg"), "beta"),
             "eta at a distant ancestor": ((), "eta"),
             "non-left-linear match at the root": ((), "p2.1"),
             "a head that gains rules": ((), "natElim.2"),
             "eta above several steps": (("arg",), "eta")}[label]
    assert above in steps, steps


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
def test_traced_steps_equal_the_reference_on_interval_terms(full_sig, t):
    _same_trace(full_sig, t)


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
    names = list(full_sig.consts)
    assert printed(names) == printed(names[::-1])


# -- critical pairs: the head index ------------------------------------------
# `critical_pairs` tries only the overlaps whose heads can agree.  The
# unfiltered loop it replaced stays here as the reference: the index may
# skip work, never a pair, and never reorder the list.  The reference
# keeps its own recursive position walk and its own unifier, the
# triangular one `unify` replaced, so it checks the kernel against
# independent code.

def _unify_triangular(a, b):
    """Syntactic unification with a triangular substitution: a binding
    may mention variables bound later, so a lookup walks chains."""
    sub = {}

    def walk(t):
        while isinstance(t, Var) and t.name in sub:
            t = sub[t.name]
        return t

    def occurs(name, t):
        t = walk(t)
        match t:
            case Var(n):
                return n == name
            case App(f, x):
                return occurs(name, f) or occurs(name, x)
            case _:
                return False

    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        x, y = walk(x), walk(y)
        match x, y:
            case Var(n), Var(m) if n == m:
                pass
            case Var(n), _:
                if occurs(n, y):
                    return None
                sub[n] = y
            case _, Var(m):
                if occurs(m, x):
                    return None
                sub[m] = x
            case Const(n), Const(m) if n == m:
                pass
            case App(f1, a1), App(f2, a2):
                todo.append((f1, f2))
                todo.append((a1, a2))
            case _:
                return None
    return sub


def _resolve(t, sub):
    """t under a triangular substitution, every chain followed."""
    match t:
        case Var(n) if n in sub:
            return _resolve(sub[n], sub)
        case App(f, a):
            return App(_resolve(f, sub), _resolve(a, sub))
        case _:
            return t


def _apply_triangular(t, sub):
    return msubst(t, {k: _resolve(v, sub) for k, v in sub.items()})


def _pattern_positions(t):
    out = [((), t)]
    if isinstance(t, App):
        out.extend(((("fn",) + p), s) for p, s in _pattern_positions(t.fn))
        out.extend(((("arg",) + p), s) for p, s in _pattern_positions(t.arg))
    return out


def _critical_pairs_reference(rules):
    out = []
    for i, r1 in enumerate(rules):
        avoid = frozenset(r1.pat_vars)
        for j, r2 in enumerate(rules):
            r2r = rewrite._rename_apart(r2, avoid)
            for pos, sub_t in _pattern_positions(r1.lhs):
                if not pos or isinstance(sub_t, Var):
                    continue
                mgu = _unify_triangular(sub_t, r2r.lhs)
                if mgu is None:
                    continue
                out.append(CriticalPair(
                    r1.name, r2.name, pos,
                    peak=_apply_triangular(r1.lhs, mgu),
                    left=_apply_triangular(r1.rhs, mgu),
                    right=_apply_triangular(
                        _replace_at_reference(r1.lhs, pos, r2r.rhs), mgu)))
            if j > i:
                mgu = _unify_triangular(r1.lhs, r2r.lhs)
                if mgu is not None:
                    out.append(CriticalPair(
                        r1.name, r2.name, (),
                        peak=_apply_triangular(r1.lhs, mgu),
                        left=_apply_triangular(r1.rhs, mgu),
                        right=_apply_triangular(r2r.rhs, mgu)))
    return out


def _corpus_rule_sets(full_sig, fa_sig):
    merged = [r for r in fa_sig.rule_list()
              if r.head == "faceType" or r.head in INTERVAL_FACE_HEADS]
    return {"algebraic": interval_face_rules(full_sig), "merged": merged,
            "full": full_sig.rule_list()}


def _same_pairs(got, want):
    assert [repr(cp) for cp in got] == [repr(cp) for cp in want]


@pytest.mark.parametrize("label", ["algebraic", "merged", "full"])
def test_critical_pairs_equal_the_unfiltered_reference(full_sig, fa_sig,
                                                       label):
    rules = _corpus_rule_sets(full_sig, fa_sig)[label]
    want = _critical_pairs_reference(rules)
    assert len(want) == {"algebraic": 89, "merged": 109, "full": 95}[label]
    _same_pairs(critical_pairs(rules), want)


def _counting(monkeypatch, name):
    calls = [0]
    fn = getattr(rewrite, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)
    monkeypatch.setattr(rewrite, name, counted)
    return calls


def test_critical_pairs_try_only_overlaps_whose_heads_agree(full_sig, fa_sig,
                                                            monkeypatch):
    # the unfiltered loop made 48,330 unify and 11,664 rename calls on the
    # full set; visiting every rule pair and renaming the second rule for
    # each, the filtered loop renamed as often as it unified
    sets = _corpus_rule_sets(full_sig, fa_sig)
    want = {"algebraic": (89, 135, 76), "merged": (109, 170, 105),
            "full": (95, 159, 99)}
    for label, (pairs, unify_calls, rename_calls) in want.items():
        unified = _counting(monkeypatch, "unify")
        renamed = _counting(monkeypatch, "_rename_apart")
        assert len(critical_pairs(sets[label])) == pairs, label
        assert (unified[0], renamed[0]) == (unify_calls, rename_calls), label
        monkeypatch.undo()


def _key(t):
    head, args = spine(t)
    return head.name, len(args)


# small applicative rule sets over three heads, used at several arities
# (nullary included)
_heads = st.sampled_from(["f", "g", "c"])
_pvars = st.sampled_from(["x", "y", "F"])


def _patterns():
    return st.recursive(
        st.one_of(_pvars.map(Var), _heads.map(Const)),
        lambda sub: st.tuples(
            _heads, st.lists(sub, min_size=1, max_size=2)).map(
                lambda p: app(Const(p[0]), *p[1])),
        max_leaves=5)


def _right_hand_sides():
    """Patterns that may also bind `z` under an abstraction or a product
    and apply any term, so that a pattern variable can sit under a binder
    and an index can point past another binder."""
    return st.recursive(
        st.one_of(_pvars.map(Var), _heads.map(Const), st.just(Var("z"))),
        lambda sub: st.one_of(
            st.tuples(sub, st.lists(sub, min_size=1, max_size=2)).map(
                lambda p: app(p[0], *p[1])),
            st.tuples(st.none() | sub, sub).map(
                lambda p: lam("z", p[0], p[1])),
            # unannotated once more, so that binders nest more often
            sub.map(lambda body: lam("z", None, body)),
            st.tuples(sub, sub).map(lambda p: pi("z", p[0], p[1]))),
        max_leaves=5)


@st.composite
def _rule(draw, name):
    lhs = app(Const(draw(_heads)), *draw(st.lists(_patterns(), max_size=2)))
    used = free_vars(lhs)
    rhs = draw(_right_hand_sides())
    rhs = msubst(rhs, {v: Const("c") for v in free_vars(rhs) - used})
    return compile_rule(name, sorted(used), lhs, rhs)


@st.composite
def _rule_sets(draw):
    n = draw(st.integers(1, 4))
    return [draw(_rule(f"r{k}")) for k in range(n)]


# one rule set with every case the index must get right: a nullary
# constant rule, `f` at two arities, and a self-overlap
_EDGE_CASES = [
    compile_rule("nullary", (), Const("c"), Const("g")),
    compile_rule("f1", ("x",), app(Const("f"), Var("x")), Var("x")),
    compile_rule("f2", ("x", "y"), app(Const("f"), Var("x"), Var("y")),
                 Var("y")),
    compile_rule("self", ("x",), app(Const("g"), app(Const("g"), Var("x"))),
                 Var("x")),
    compile_rule("uses-c", ("x",), app(Const("f"), Const("c"), Var("x")),
                 Const("c")),
]


@settings(deadline=None)
@example(_EDGE_CASES)
@given(_rule_sets())
def test_critical_pairs_equal_the_reference_on_random_rule_sets(rules):
    want = _critical_pairs_reference(rules)
    tried = []
    unify = rewrite.unify

    def recorded(a, b):
        tried.append((a, b))
        return unify(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "unify", recorded)
        got = critical_pairs(rules)
    _same_pairs(got, want)
    # no overlap is tried whose constant heads or arities disagree
    for a, b in tried:
        assert _key(a) == _key(b), (a, b)


@settings(deadline=None)
@example(_EDGE_CASES)
@given(_rule_sets())
def test_unify_agrees_with_the_triangular_reference(rules):
    # every pair of patterns in the rule set, each side renamed apart
    # from the other as `critical_pairs` does
    patterns = [(r, sub_t) for r in rules
                for _, sub_t in _pattern_positions(r.lhs)]
    for r1, a in patterns:
        for r2, b in patterns:
            b = msubst(b, {v: Var(v + "'") for v in r2.pat_vars})
            mgu = unify(a, b)
            ref = _unify_triangular(a, b)
            assert (mgu is None) == (ref is None), (a, b)
            if mgu is None:
                continue
            assert msubst(a, mgu) == msubst(b, mgu) \
                == _apply_triangular(a, ref) == _apply_triangular(b, ref)
            assert mgu == {k: _resolve(v, ref) for k, v in ref.items()}
            # idempotent: applying it again changes nothing
            assert {k: msubst(v, mgu) for k, v in mgu.items()} == mgu


# -- matching against the forced argument spine ------------------------------
# The reference below is the matcher and rule loop that `_match` and
# `Reducer.whnf` replaced: each rule of a head forces its arguments again,
# and the matcher weak-head normalizes the subject at every application
# level of a pattern, the bare head included.

def _match_reference(pat, t, sub, eq=None, whnf=None):
    match pat:
        case Var(v):
            if v in sub:
                return eq(sub[v], t) if eq is not None else sub[v] == t
            sub[v] = t
            return True
        case Const(c):
            if whnf is not None:
                t = whnf(t)
            return isinstance(t, Const) and t.name == c
        case App(pf, pa):
            if whnf is not None:
                t = whnf(t)
            return (isinstance(t, App)
                    and _match_reference(pf, t.fn, sub, eq, whnf)
                    and _match_reference(pa, t.arg, sub, eq, whnf))
    return False


class _ReferenceReducer(Reducer):
    def whnf(self, t):
        if self.whnf_cache is not None and t in self.whnf_cache:
            return self.whnf_cache[t]
        orig = t
        while True:
            head, args = spine(t)
            if isinstance(head, Lam) and args:
                body, k = head.body, 1
                while k < len(args) and body.__class__ is Lam:
                    body, k = body.body, k + 1
                for _ in range(k):
                    self.fuel.tick()
                t = app(instantiate(body, args[:k]), *args[k:])
                continue
            nxt = None
            if isinstance(head, Const):
                def match(p, a, sub):
                    return _match_reference(p, a, sub, self.conv, self.whnf)
                for r in self.rules.get(head.name, ()):
                    n = len(r.lhs_args)
                    if n <= len(args):
                        sub = {}
                        if all(map(match, r.lhs_args, args, repeat(sub))):
                            nxt = app(msubst(r.rhs, sub), *args[n:])
                            break
            if nxt is None:
                break
            self.fuel.tick()
            t = nxt
        if self.whnf_cache is not None:
            self.whnf_cache[orig] = t
            self.whnf_cache[t] = t
        return t


def _signature_subterms(sig):
    """Every subterm of the signature's types, definition bodies and rule
    right-hand sides, once per `==` class, loose bound indices included."""
    roots = [info.ty for info in sig.consts.values()]
    roots += [info.body for info in sig.consts.values()
              if info.body is not None]
    roots += [r.rhs for r in sig.rule_list()]
    return list(dict.fromkeys(s for t in roots for s, _ in subterms(t)))


def _normal_form_and_fuel(red, t):
    """t's normal form, or None when the fuel runs out, and the fuel used."""
    start = red.fuel.remaining
    try:
        return red.normalize(t), start - red.fuel.remaining
    except FuelExhausted:
        return None, start - red.fuel.remaining


@pytest.mark.parametrize("label", ["full", "first-attempt"])
def test_reducer_agrees_with_the_reference_on_the_signature(full_sig, fa_sig,
                                                            label):
    # a fresh reducer per subterm, so each fuel count is the subterm's own
    sig = full_sig if label == "full" else fa_sig
    budget = 5_000
    terms = _signature_subterms(sig)
    assert len(terms) > 800
    fewer = 0
    for t in terms:
        want, used = _normal_form_and_fuel(
            _ReferenceReducer(sig.rules, Fuel(budget)), t)
        assert want is not None, t  # every subterm fits the budget cached
        assert _normal_form_and_fuel(sig.reducer(Fuel(budget)), t) \
            == (want, used), t
        ref, ref_used = _normal_form_and_fuel(
            _ReferenceReducer(sig.rules, Fuel(budget), cached=False), t)
        got, got_used = _normal_form_and_fuel(
            sig.reducer(Fuel(budget), cached=False), t)
        assert got_used <= ref_used, t
        fewer += got_used < ref_used
        # running out of fuel uncached can only turn into a result
        assert got == want or (got is None is ref), t
    assert fewer > 0  # 36 subterms of the full signature, 8 of the other


# subjects over the pattern heads, two free variables and a pattern
# variable's name, so that a subject may also contain a pattern, and over
# abstractions and bound indices, loose ones included, so that rules
# fire under binders and matches carry indices
_subjects = st.recursive(
    st.sampled_from(["f", "g", "c"]).map(Const)
    | st.sampled_from(["a", "b", "x"]).map(Var)
    | st.integers(0, 1).map(Bound),
    lambda sub: st.one_of(
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3)).map(
            lambda p: app(p[0], *p[1])),
        sub.map(lambda body: Lam("z", None, body))),
    max_leaves=8)


@st.composite
def _match_cases(draw):
    pat = draw(_patterns())
    # an instance of the pattern, often with repeated variables made to
    # agree, or an unrelated subject
    if draw(st.booleans()):
        sub = {v: draw(_subjects) for v in sorted(free_vars(pat))}
        return pat, msubst(pat, sub)
    return pat, draw(_subjects)


_x, _y = Var("x"), Var("y")
_f, _g, _c = Const("f"), Const("g"), Const("c")


@example((app(_f, _x, _y), App(_f, _c)))            # spine too short
@example((app(_f, App(_g, _x), _x), app(_f, app(_g, _c, _c), _c)))
@example((app(_f, _x, _x), app(_f, _c, _g)))        # repeated, disagree
@example((app(_f, _x, App(_g, _x)), app(_f, _c, App(_g, _c))))
@given(_match_cases())
def test_lockstep_match_agrees_with_the_binary_reference(case):
    pat, t = case
    sub = {}
    want = sub if _match_reference(pat, t, sub) else None
    assert match_pattern(pat, t) == want


# uncached and cached steps of normalize(i => sym^k (Imin i i)).  Uncached,
# forcing at every pattern level took 68 / 414 / 2,080 / 11,946 / 57,632
# steps for k = 3..7 and ran out of the default fuel at 8.  What growth is
# left comes from `Imin i i`, which duplicates its argument
_NESTED_SYM_STEPS = {3: (11, 4), 4: (20, 7), 5: (33, 8), 6: (50, 12),
                     7: (79, 13), 8: (112, 18), 9: (173, 19),
                     10: (238, 25), 11: (363, 26), 12: (492, 33),
                     13: (745, 34), 14: (1002, 42), 15: (1511, 43),
                     16: (2024, 52)}


@pytest.mark.parametrize("k", sorted(_NESTED_SYM_STEPS))
def test_steps_to_normalize_nested_sym(full_sig, k):
    t = _pt("i => " + "sym (" * k + "Imin i i" + ")" * k, full_sig)
    want = "i => Imax (sym i) (sym i)" if k % 2 else "i => Imin i i"
    for cached, steps in zip((False, True), _NESTED_SYM_STEPS[k]):
        fuel = Fuel()
        assert pretty(full_sig.reducer(fuel, cached).normalize(t)) == want
        assert DEFAULT_FUEL - fuel.remaining == steps, cached


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="whnf forces a rule's arguments with one nested "
                          "call per level (ROADMAP item 7)")
def test_normalize_of_deeply_nested_sym(full_sig, default_recursion_limit):
    t = Var("i")
    for _ in range(10_000):
        t = App(Const("sym"), t)
    assert full_sig.reducer().normalize(t) == Var("i")


def test_each_argument_is_forced_once_per_head_attempt(full_sig,
                                                       monkeypatch):
    # every whnf call on this term makes one head attempt on a spine with
    # arguments (after its step, `sym (sym i)` goes on from the bare `i`),
    # so no call may weak-head normalize the same argument object twice
    whnf, calls, callers = Reducer.whnf, [], []

    def counted(self, t):
        calls.append((callers[-1] if callers else None, t))
        callers.append(len(calls))
        try:
            return whnf(self, t)
        finally:
            callers.pop()
    monkeypatch.setattr(Reducer, "whnf", counted)
    t = _pt("sym (sym (sym i))", full_sig)
    assert full_sig.reducer(cached=False).normalize(t) == App(Const("sym"),
                                                              Var("i"))
    forced = [(caller, id(arg)) for caller, arg in calls if caller]
    assert len(forced) == len(set(forced))
    # the reference makes 206 calls: 203 from inside another, which force
    # 43 distinct (call, argument) pairs
    assert len(calls) == 8


@settings(deadline=None)
@given(_right_hand_sides(), st.data())
def test_a_compiled_right_hand_side_builds_what_msubst_builds(rhs, data):
    # matches with bound indices, loose ones included, shifted under the
    # binders of the right-hand side; without a pattern variable there,
    # the right-hand side itself
    rhs = msubst(rhs, {"z": Const("c")})
    pat_vars = sorted(free_vars(rhs))
    rule = compile_rule("r", pat_vars, app(_f, *map(Var, pat_vars)), rhs)
    sub = {v: data.draw(_subjects) for v in pat_vars}
    build = rewrite._compile_rhs(rule)
    assert build(sub) == msubst(rule.rhs, sub)
    assert rule._build is build
    if not free_vars(rule.rhs):
        assert build(sub) is rule.rhs


# [x] f x --> y : A => g x y
_UNDER_A_BINDER = compile_rule("f", ("x",), App(_f, _x),
                               lam("y", Const("A"), app(_g, _x, Var("y"))))


def test_a_match_is_shifted_under_a_binder_of_the_right_hand_side():
    # fired under a lambda, x matches that lambda's index, which must
    # point past the new binder y
    rules = _rule_dict(_UNDER_A_BINDER)
    step = Lam("y", Const("A"), app(_g, Bound(1), Bound(0)))
    assert Reducer(rules).whnf(App(_f, Bound(0))) == step
    assert _ReferenceReducer(rules).whnf(App(_f, Bound(0))) == step
    # z => k (f z); eta then contracts y : A => g z y to g z, where an
    # unshifted match would leave y : A => g y y
    t = Lam("z", None, App(Const("k"), App(_f, Bound(0))))
    want = Lam("z", None, App(Const("k"), App(_g, Bound(0))))
    for cached in (True, False):
        assert Reducer(rules, cached=cached).normalize(t) == want
        assert _ReferenceReducer(rules, cached=cached).normalize(t) == want
    nf, steps = Reducer(rules).normalize_traced(t)
    assert nf == want and [name for _, name in steps] == ["f", "eta"]
    assert Reducer(rules).replay(t, steps) == want


@settings(deadline=None)
@example([_UNDER_A_BINDER],
         Lam("z", None, app(Const("k"), App(_f, Bound(0)), Bound(1))))
@example([compile_rule("nested", ("x",), app(_f, app(_g, _c, _x)), _x),
          compile_rule("unfold", (), Const("d"), _c)],
         app(_f, app(_g, Const("d"), Var("a"))))
@given(_rule_sets(), _subjects)
def test_reducer_agrees_with_the_reference_on_random_rule_sets(case_rules, t):
    # no corpus rule nests a non-variable pattern inside an argument
    # pattern, so random rule sets check that nested arguments are
    # still forced, and their right-hand sides may put a match under a
    # binder, against the reference's `msubst`.
    # They need not terminate, and a cache hit costs no fuel, so the
    # cached reducers are run only where the uncached reference reached a
    # normal form
    rules = {}
    for r in case_rules:
        rules.setdefault(r.head, []).append(r)
    budget = 100
    ref, ref_used = _normal_form_and_fuel(
        _ReferenceReducer(rules, Fuel(budget), cached=False), t)
    got, got_used = _normal_form_and_fuel(
        Reducer(rules, Fuel(budget), cached=False), t)
    assert got_used <= ref_used
    if ref is None:
        return
    assert got == ref
    want = _normal_form_and_fuel(_ReferenceReducer(rules, Fuel(budget)), t)
    assert want[0] == ref
    assert _normal_form_and_fuel(Reducer(rules, Fuel(budget)), t) == want
