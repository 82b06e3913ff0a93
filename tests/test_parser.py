from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from morgandk import parser
from morgandk.parser import (Definition, ParseError, RuleDecl, SourceSpan,
                             StaticConst, Token, identifiers, parse_file,
                             parse_term, pretty, print_declaration, tokenize)
from morgandk.terms import (TYPE, App, Bound, Const, Lam, Pi, Var, alpha_eq,
                            app, lam, pi)
from morgandk.theory import FULL_CONFIG, blocks_for


def test_static_decl():
    decls = parse_file("T : Lev -> Type.", "<t>", {"Lev"})
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, StaticConst)
    assert d.name == "T"
    assert isinstance(d.ty, Pi)
    assert d.ty.cod == TYPE


def test_rule_decl_pattern_vars():
    consts = {"p1", "pair"}
    decls = parse_file(
        "[i, A, B, a, b] p1 i A B (pair i A B a b) --> a.",
        "<t>", consts)
    (d,) = decls
    assert isinstance(d, RuleDecl)
    assert d.pat_vars == ("i", "A", "B", "a", "b")


def test_empty_input():
    assert parse_file("", "<t>", set()) == []
    assert parse_file("(; only a comment ;)", "<t>", set()) == []


def test_parse_term_lambda():
    t = parse_term("x : A => x")
    assert t == lam("x", Var("A"), Var("x"))


def test_parse_term_left_assoc():
    t = parse_term("Imax (sym i) j", frozenset({"Imax", "sym"}))
    assert t == App(App(Const("Imax"), App(Const("sym"), Var("i"))),
                    Var("j"))


def test_parse_term_pi():
    t = parse_term("i : Lev -> T (lsuc i)", frozenset({"Lev", "T", "lsuc"}))
    assert t == pi("i", Const("Lev"),
                   App(Const("T"), App(Const("lsuc"), Var("i"))))


def test_annotation_may_end_in_application():
    # the domain of A extends to `T i`; the arrow after it is the binder's
    t = parse_term("i : Lev => A : T i => A", frozenset({"Lev", "T"}))
    assert t == lam("i", Const("Lev"),
                    lam("A", App(Const("T"), Var("i")), Var("A")))


def test_pretty_sort():
    assert pretty(TYPE) == "Type"


def test_pretty_reparses():
    t = lam("x", None, Var("x"))
    assert alpha_eq(parse_term(pretty(t)), t)


def test_rule_head_must_be_a_constant():
    for text in ("[x] x --> x.", "[] Type --> Type."):
        with pytest.raises(ParseError) as err:
            parse_file(text, "<t>", set())
        assert err.value.msg == ("rule left-hand side must be headed by "
                                 "a declared constant")
        assert err.value.span == SourceSpan("<t>", 1, 1)
    # whether the constant may take rules is the checker's decision
    (d,) = parse_file("[i] T i --> T i.", "<t>", {"T"})
    assert isinstance(d, RuleDecl)


def test_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_file("A : Type.\nA : Type.", "<t>", set())


def test_reserved_name():
    with pytest.raises(ParseError):
        parse_file("Type : Type.", "<t>", set())


def test_parameterized_definition_sugar():
    decls = parse_file(
        "def f (i : Lev) (A : T i) : T i := A.",
        "<t>", {"Lev", "T"})
    (d,) = decls
    assert isinstance(d, Definition)
    assert isinstance(d.ty, Pi) and isinstance(d.body, Lam)
    assert d.body.var == "i" and d.body.body.var == "A"


def _decl_equiv(a, b) -> bool:
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


CORPUS_BLOCKS = [(p.name, p.read_text()) for p in blocks_for(FULL_CONFIG)]


@pytest.mark.parametrize("fname,text", CORPUS_BLOCKS,
                         ids=lambda v: v if isinstance(v, str) and
                         v.endswith(".dk") else None)
def test_roundtrip_corpus_block(fname, text):
    consts: set[str] = set()
    # feed every earlier block so cross-block references resolve
    for f2, t2 in CORPUS_BLOCKS:
        if f2 == fname:
            break
        parse_file(t2, f2, consts)
    first = parse_file(text, fname, set(consts))
    printed = "\n".join(print_declaration(d) for d in first)
    second = parse_file(printed, fname + "<reprint>", set(consts))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert _decl_equiv(a, b), print_declaration(a)


# identifier characters (non-ASCII letters and digits among them) and the
# pieces that end an identifier: symbols, blanks and comment brackets
_PIECES = list("ab_'9é²٣Ω ;\t\n") + [
    "(;", ";)", ":=", "-->", "->", "=>", ":", "(", ")", "[", "]", ",", "."]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_identifiers_cover_every_identifier_token(text):
    try:
        toks = tokenize(text)
    except ParseError:
        return
    assert {t.text for t in toks if t.kind == "ident"} <= identifiers(text)


_SYMBOLS = (":=", "-->", "->", "=>", ":", "(", ")", "[", "]", ",", ".")


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_" or c == "'"


def reference_tokenize(text: str, file: str = "<input>") -> list[Token]:
    """One character at a time: the reference for `tokenize`."""
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("(;", i):
            depth = 1
            sl, sc = line, col
            i += 2
            col += 2
            while i < n and depth > 0:
                if text.startswith("(;", i):
                    depth += 1
                    i += 2
                    col += 2
                elif text.startswith(";)", i):
                    depth -= 1
                    i += 2
                    col += 2
                elif text[i] == "\n":
                    i += 1
                    line += 1
                    col = 1
                else:
                    i += 1
                    col += 1
            if depth > 0:
                raise ParseError("unterminated comment",
                                 SourceSpan(file, sl, sc))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if _ident_char(c):
                j = i
                while j < n and _ident_char(text[j]):
                    j += 1
                toks.append(Token("ident", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}",
                                 SourceSpan(file, line, col))
    toks.append(Token("eof", "", line, col))
    return toks


def _tokenized(tokenizer, text, file="<t>"):
    """The tokens, or the message and span of the ParseError."""
    try:
        return tokenizer(text, file)
    except ParseError as e:
        return str(e), e.msg, e.span


# identifier characters, every symbol and its first characters, blanks
# (`\xa0` is one, `\r` and `\u2028` are blanks that start no line),
# comment brackets, and characters no token starts with
_TOKEN_PIECES = list("ab_'é٣9-=> \t\r\f\xa0\n;@\u2028") + [
    "(;", ";)", *_SYMBOLS]
_token_texts = st.recursive(
    st.lists(st.sampled_from(_TOKEN_PIECES), max_size=30).map("".join),
    lambda inner: st.lists(inner | inner.map(lambda t: f"(;{t};)"),
                           max_size=4).map("".join),
    max_leaves=8)


@given(_token_texts)
def test_tokenize_agrees_with_the_reference(text):
    assert _tokenized(tokenize, text) == _tokenized(reference_tokenize, text)


THEORIES = Path(__file__).resolve().parent.parent / "theories"


@pytest.mark.parametrize("path", sorted(THEORIES.rglob("*.dk")),
                         ids=lambda p: str(p.relative_to(THEORIES)))
def test_tokenize_agrees_with_the_reference_on_the_corpus(path):
    # every shipped file, the quarantined first attempt among them
    text = path.read_text()
    assert tokenize(text, path.name) == reference_tokenize(text, path.name)


def test_parse_and_print_a_deep_numeral(default_recursion_limit):
    depth = 10_000
    text = "succ l0 (" * depth + "zero l0" + ")" * depth
    t = parse_term(text, frozenset({"succ", "zero", "l0"}))
    want = App(Const("zero"), Const("l0"))
    for _ in range(depth):
        want = App(App(Const("succ"), Const("l0")), want)
    assert t == want
    assert pretty(t) == text


def test_names_of_a_deep_term(default_recursion_limit):
    depth = 10_000
    t = Var("x")
    for _ in range(depth):
        t = Lam("y", Const("A"), App(App(Const("succ"), Const("l0")), t))
    assert parser._names(t) == {"x", "A", "succ", "l0"}


def test_parse_a_long_arrow_chain(default_recursion_limit):
    length = 10_000
    t = parse_term(" -> ".join(["A"] * length), frozenset({"A"}))
    for _ in range(length - 1):
        assert isinstance(t, Pi) and t.dom == Const("A")
        t = t.cod
    assert t == Const("A")


def test_parse_a_deep_binder_chain(default_recursion_limit):
    # each name resolves to its innermost binder, and a closed binder
    # leaves scope: the trailing x0 is free
    depth = 10_000
    names = [f"x{i}" for i in range(depth)]
    text = "(" + " => ".join(names) + " => x0 x9999 (x9999 => x9999)) x0"
    body = app(Bound(depth - 1), Bound(0), Lam("x9999", None, Bound(0)))
    for name in reversed(names):
        body = Lam(name, None, body)
    assert parse_term(text) == App(body, Var("x0"))
    arrows = parse_term(" -> ".join(["A"] * depth) + " -> x : A -> x")
    want = Pi("x", Var("A"), Bound(0))
    for _ in range(depth):
        want = Pi("_", Var("A"), want)
    assert arrows == want
