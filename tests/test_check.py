import pytest

from morgandk import check as check_module, terms
from morgandk.check import (Signature, TypeCheckError, check,
                            check_declaration, check_rule, check_signature,
                            infer)
from morgandk.parser import (Definition, RuleDecl, SourceSpan, parse_file,
                             parse_term, pretty)
from morgandk.rewrite import compile_rule
from morgandk.terms import TYPE, App, Const, Var, app


def _pt(text, sig):
    return parse_term(text, frozenset(sig.consts))


def _decls(text, sig):
    return parse_file(text, "<t>", set(sig.consts))


def test_infer_nat_code(full_sig):
    red = full_sig.reducer()
    got = infer(full_sig, {}, _pt("Nat l0", full_sig), red)
    assert red.conv(got, _pt("T l0", full_sig))


def test_infer_universe_code(full_sig):
    red = full_sig.reducer()
    got = infer(full_sig, {}, _pt("t l0", full_sig), red)
    assert red.conv(got, _pt("T (lsuc l0)", full_sig))


def test_infer_variable_lookup(full_sig):
    red = full_sig.reducer()
    ty = _pt("eps l0 exA", full_sig)
    ctx = {"x": ty}
    assert infer(full_sig, ctx, Var("x"), red) == ty


def test_check_pair_through_definition(full_sig):
    red = full_sig.reducer()
    t = _pt("pair l0 exA exB exa exb", full_sig)
    got = infer(full_sig, {}, t, red)
    assert red.conv(got, _pt("eps l0 (Sig l0 exA exB)", full_sig))


def test_check_mismatch_distinct_types(full_sig):
    red = full_sig.reducer()
    ctx = {"a": _pt("eps l0 exA", full_sig)}
    ty = infer(full_sig, ctx, Var("a"), red)
    assert not red.conv(ty, _pt("eps l0 (Nat l0)", full_sig))


def test_universe_decode_rule_checks(full_sig):
    sig = full_sig.copy()
    # re-adding the decode rule is fine typing-wise (duplicate but typed)
    for d in _decls("[i] eps (lsuc i) (t i) --> T i.", sig):
        check_declaration(sig, d, 100000)


def test_projection_rule_checks(full_sig):
    sig = full_sig.copy()
    for d in _decls("[i, A, B, a, b] p1 i A B (pair i A B a b) --> a.", sig):
        check_declaration(sig, d, 100000)


def test_rule_mixing_carriers_rejected(full_sig):
    sig = full_sig.copy()
    decls = _decls("[i] sym i --> Fmax i i.", sig)
    with pytest.raises(TypeCheckError) as e:
        for d in decls:
            check_declaration(sig, d, 100000)
    assert e.value.kind == "rule-ill-typed"


def test_declare_into_empty_signature():
    sig = Signature()
    for d in parse_file("Lev : Type.", "<t>", set()):
        check_declaration(sig, d, 100000)
    assert sig.consts["Lev"].ty == TYPE


def test_unbound_reference_rejected():
    # `A` is in the parser's namespace but not declared in the signature
    decl = parse_file("x : A.", "<t>", {"A"})[0]
    with pytest.raises(TypeCheckError) as e:
        check_declaration(Signature(), decl, 100000)
    assert e.value.kind == "unbound"


@pytest.mark.parametrize("ty", [None, Const("A")], ids=["untyped", "typed"])
def test_a_hand_built_free_variable_is_unbound(ty):
    # the parser refuses it; a declaration built by hand still meets
    # `infer`'s lookup
    sig = check_signature(parse_file("A : Type.", "<t>", set()))
    decl = Definition("c", ty, Var("x"), SourceSpan("<t>", 2, 1))
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, decl)
    assert e.value.render() == "<t>:2:1: [unbound] unbound variable 'x'"


def test_redeclaration_rejected():
    sig = Signature()
    decls = parse_file("Lev : Type.", "<t>", set())
    check_declaration(sig, decls[0], 100000)
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, decls[0], 100000)
    assert e.value.kind == "redeclaration"


def test_rule_on_static_head_rejected(full_sig):
    from morgandk.parser import RuleDecl
    sig = full_sig.copy()
    lhs = app(Const("Sum"), Const("l0"), Const("exA"), Const("exA"))
    rhs = Const("exA")
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, RuleDecl((), lhs, rhs, None), 100000)
    assert "static" in str(e.value)


_HEADS = "T : Type. c : T. def f : T -> T. def g : T -> T := x : T => x."


def _heads_sig():
    return check_signature(_decls(_HEADS, Signature()))


def test_rule_head_must_be_definable():
    # the parser accepts a rule on a static constant; the checker rejects it
    sig = check_signature(_decls("U : Type. T : U -> Type.", Signature()))
    (d,) = _decls("[i] T i --> T i.", sig)
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, d)
    assert (e.value.kind, e.value.msg) == (
        "rule-ill-typed",
        "rule head 'T' is static; only 'def' constants may be rewritten")


def test_check_rule_alone_rejects_an_undeclared_or_static_head():
    sig = _heads_sig()
    for head, kind in (("k", "unbound"), ("c", "rule-ill-typed")):
        rule = compile_rule(f"{head}.1", (), Const(head), Const("c"))
        with pytest.raises(TypeCheckError) as e:
            check_rule(sig, rule, sig.reducer())
        assert e.value.kind == kind, head


def test_check_rule_rejects_an_undeclared_constant_in_a_pattern():
    sig = _heads_sig()
    rule = compile_rule("f.1", ("x",), app(Const("f"), app(Const("k"), Var("x"))),
                        Var("x"))
    with pytest.raises(TypeCheckError) as e:
        check_rule(sig, rule, sig.reducer())
    assert (e.value.kind, e.value.msg) == ("rule-ill-typed",
                                           "undeclared constant 'k'")


@pytest.mark.parametrize("text,kind", [
    ("[] k --> c.", "unbound"),
    ("[] c --> c.", "rule-ill-typed"),
    ("[x] g x --> x.", "rule-ill-typed"),
])
def test_rule_head_errors_keep_their_kind(text, kind):
    sig = _heads_sig()
    # `k` is in the parser's namespace but not declared in the signature
    (d,) = parse_file(text, "<t>", set(sig.consts) | {"k"})
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, d)
    assert (e.value.kind, e.value.span.line) == (kind, 1)


def test_rules_are_named_by_head_and_serial():
    sig = _heads_sig()
    for d in _decls("[] f c --> c. [x] f (f x) --> f x.", sig):
        check_declaration(sig, d)
    assert [r.name for r in sig.rules["f"]] == ["f.1", "f.2"]


def test_rule_headed_by_a_variable_is_ill_typed():
    # the parser rejects such a rule; one built directly reaches the
    # checker, which reports it at the declaration's span
    sig = _heads_sig()
    span = SourceSpan("<t>", 3, 5)
    decl = RuleDecl(("x",), App(Var("x"), Const("c")), Const("c"), span)
    with pytest.raises(TypeCheckError) as e:
        check_declaration(sig, decl)
    assert (e.value.kind, e.value.msg, e.value.span) == (
        "rule-ill-typed", "rule left-hand side must be headed by a constant",
        span)


def test_corrupted_rule_reports_location(full_sig):
    sig = full_sig.copy()
    text = "[i, P, d] trueElim i P d (tt i) --> P."
    with pytest.raises(TypeCheckError) as e:
        for d in _decls(text, sig):
            check_declaration(sig, d, 100000)
    msg = str(e.value)
    assert "[rule-ill-typed]" in msg and "<t>:1:1" in msg


def test_empty_signature():
    assert check_signature([]).consts == {}


def test_convenience_wrappers(full_sig):
    assert full_sig.reducer().normalize(_pt("sym (sym i)", full_sig)) \
        == Var("i")
    assert full_sig.reducer().conv(_pt("eps (lsuc l0) (lUp l0 exA)", full_sig),
                                   _pt("eps l0 exA", full_sig))


def test_prefix_monotonicity(full_sig):
    # a checked signature stays valid under extension by fresh names
    sig = full_sig.copy()
    for d in _decls("extra : T l0.\ndef extraId : eps l0 extra -> "
                    "eps l0 extra := (x : eps l0 extra => x).", sig):
        check_declaration(sig, d, 100000)
    assert "extraId" in sig.consts
    assert "extra" not in full_sig.consts


# -- telescopes: application spines, products and abstraction chains ----

_TELESCOPE = "A : Type. a : A. P : A -> Type. g : x : A -> y : A -> P x."


def _telescope_error(text):
    sig = check_signature(_decls(_TELESCOPE + " def f1 : A -> A.", Signature()))
    decls = _decls(text, sig)
    with pytest.raises(TypeCheckError) as e:
        for d in decls:
            check_declaration(sig, d)
    err = e.value
    return (err.kind, err.msg,
            None if err.expected is None else pretty(err.expected),
            None if err.actual is None else pretty(err.actual))


@pytest.mark.parametrize("text,expected", [
    # the third argument meets `P a`, with the pending `x` substituted
    ("def d : A := g a a a.",
     ("not-a-function", "application of a non-function", None, "P a")),
    ("def h : x : A -> P x := x => y => x.",
     ("mismatch", "abstraction checked against a non-product type",
      "P x", None)),
    # the third abstraction's annotation, with the opened names printed
    ("def k : x : A -> y : P x -> z : P x -> A := "
     "x : A => y : P x => z : P y => x.",
     ("mismatch", "domain annotation does not match", "P x", "P y")),
    # names drawn along one chain stay apart
    ("def k : x : A -> x : A -> x : P x -> A := "
     "x : A => x : A => x : P x => x.",
     ("mismatch", "type mismatch", "A", "P x_0")),
    # two products equal up to binder names, in one declaration: each
    # application prints the names of its own head's type
    ("k : x : A -> z : A -> P z. k2 : y : A -> w : A -> P w. "
     "h : (z : A -> P z) -> A -> A. def e : A := h (k a) (k2 a).",
     ("mismatch", "type mismatch", "A", "w : A -> P w")),
    ("c : x : A -> y : P x -> y.",
     ("sort-error", "product codomain must be a type or a kind", None,
      "P x")),
    ("[x] f1 x x --> x.",
     ("rule-ill-typed", "rule head 'f1' is over-applied", None, None)),
    ("[x] f1 (a x) --> x.",
     ("rule-ill-typed", "over-applied constant 'a' in pattern", None, None)),
    # an annotation that converts with its domain is still typed
    ("def K : A -> A -> A. [x, y] K x y --> x. "
     "def f : P a -> P a := x : P (K a (a a)) => x.",
     ("not-a-function", "application of a non-function", None, "A")),
])
def test_errors_inside_a_telescope(text, expected):
    assert _telescope_error(text) == expected


def _wide(n):
    """A constant over n binders, an n-argument application of it, and
    an n-abstraction definition checked against its n-binder type."""
    xs = [f"x{i}" for i in range(n)]
    ty = " -> ".join(f"{x} : A" for x in xs) + " -> P x0"
    return _decls(
        f"{_TELESCOPE} p : x : A -> P x. c : {ty}.\n"
        f"def d : P a := c {' '.join(['a'] * n)}.\n"
        f"def f : {ty} := {' => '.join(f'{x} : A' for x in xs)} => p x0.",
        Signature())


def test_telescope_work_is_linear_in_the_width(monkeypatch):
    # each domain is opened once with the binders before it, and the
    # final codomain and body once with them all: twice the width
    # rebuilds about twice the nodes
    rebuild = terms._rebuild
    visits = [0]

    def counted(t, leaf, depth):
        visits[0] += 1
        return rebuild(t, leaf, depth)

    decls = [_wide(n) for n in (200, 400)]
    monkeypatch.setattr(terms, "_rebuild", counted)
    counts = []
    for ds in decls:
        visits[0] = 0
        sig = check_signature(ds)
        counts.append(visits[0])
        assert sig.consts["d"].ty == _pt("P a", sig)
    assert counts[1] <= 2.3 * counts[0], counts


def test_a_wide_telescope_checks_without_recursion(default_recursion_limit):
    sig = check_signature(_wide(8000))
    assert {"c", "d", "f"} <= sig.consts.keys()


def test_nested_telescope_work_is_linear_in_the_width(monkeypatch):
    # `c : x0 : (y : A -> A) -> ... -> A`, whose every domain is itself
    # a telescope: each binder is opened in the one context that the
    # declaration's check starts with, not in a copy of it.  The entries
    # of the contexts that names are opened in, each counted once at its
    # largest, grow as the width; copying the context for each nested
    # domain made them grow as its square
    fresh_name = check_module.fresh_name
    contexts = {}  # id -> (the context, kept alive, and its largest size)

    def recorded(base, ctx):
        size = contexts.get(id(ctx), (None, 0))[1]
        contexts[id(ctx)] = ctx, max(size, len(ctx))
        return fresh_name(base, ctx)

    monkeypatch.setattr(check_module, "fresh_name", recorded)
    entries = []
    for n in (200, 400):
        contexts.clear()
        ty = " -> ".join(f"x{i} : (y : A -> A)" for i in range(n))
        check_signature(_decls(f"{_TELESCOPE} c : {ty} -> A.", Signature()))
        entries.append(sum(size for _, size in contexts.values()))
    assert entries[1] <= 2.3 * entries[0], entries


@pytest.mark.parametrize("text,ty,fails", [
    # a product telescope, an inferred chain and a checked chain
    ("y : A -> P y -> P x", None, False),
    ("y : A => z : P y => x", None, False),
    ("y => z => x", "y : A -> P y -> A", False),
    # each failing after it has opened names
    ("y : A -> z : P y -> P (a a)", None, True),
    ("y : A => z : P y => y y", None, True),
    ("y => z => y y", "A -> A -> A", True),
])
def test_infer_and_check_leave_the_caller_s_context_as_it_was(text, ty,
                                                              fails):
    sig = check_signature(_decls(_TELESCOPE, Signature()))
    red = sig.reducer()
    ctx = {"x": _pt("A", sig)}
    before = dict(ctx)
    t = _pt(text, sig)
    raised = False
    try:
        if ty is None:
            infer(sig, ctx, t, red)
        else:
            check(sig, ctx, t, _pt(ty, sig), red)
    except TypeCheckError:
        raised = True
    assert raised == fails
    assert ctx == before


def _chain(n):
    """An untyped definition over n annotated abstractions, its type
    inferred."""
    xs = [f"x{i}" for i in range(n)]
    return _decls(f"{_TELESCOPE} def u := "
                  f"{' => '.join(f'{x} : A' for x in xs)} => x0.", Signature())


def test_an_inferred_abstraction_chain_checks_without_recursion(
        default_recursion_limit):
    sig = check_signature(_chain(2000))
    assert sig.consts["u"].ty == _pt(" -> ".join(["A"] * 2001), sig)


def test_inferred_chain_work_is_linear_in_the_width(monkeypatch):
    # each annotation is opened once with the binders before it, the
    # body once with them all, and the body's type abstracted over them
    # all in one walk
    rebuild = terms._rebuild
    visits = [0]

    def counted(t, leaf, depth):
        visits[0] += 1
        return rebuild(t, leaf, depth)

    decls = [_chain(n) for n in (200, 400)]
    monkeypatch.setattr(terms, "_rebuild", counted)
    counts = []
    for ds in decls:
        visits[0] = 0
        check_signature(ds)
        counts.append(visits[0])
    assert counts[1] <= 2.3 * counts[0], counts


@pytest.mark.parametrize("text,expected", [
    ("def u := x : A => y => x.",
     ("mismatch", "cannot infer the type of an unannotated abstraction",
      None, None)),
    ("def u := x : A => y : A => Type.",
     ("sort-error", "an abstraction cannot produce a kind", None, None)),
    ("def u := x : A => y : Type => y.",
     ("sort-error", "expected a type", "Type", "Kind")),
    ("def K : A -> A -> A. [x, y] K x y --> x. "
     "def u := x : P (K a (a a)) => x.",
     ("not-a-function", "application of a non-function", None, "A")),
])
def test_errors_inside_an_inferred_abstraction_chain(text, expected):
    assert _telescope_error(text) == expected


@pytest.mark.parametrize("text,expected", [
    ("def u := x : A => x : P x => x.", "x : A -> P x -> P x"),
    ("def u := x : A => x_0 : A => x : P x_0 => x.",
     "A -> x_0 : A -> P x_0 -> P x_0"),
])
def test_an_inferred_chain_keeps_the_written_binder_names(text, expected):
    sig = check_signature(_decls(_TELESCOPE + text, Signature()))
    assert pretty(sig.consts["u"].ty) == expected
