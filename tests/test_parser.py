import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from morgandk import parser, theory
from morgandk.parser import (Definition, ParseError, RuleDecl, SourceSpan,
                             StaticConst, identifiers, parse_file,
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


# `Type` always reads as the sort, so a parameter or a pattern variable of
# that name would bind nothing
@pytest.mark.parametrize("text,line,col", [
    ("A : Type.\ndef f (Type : A) : A := Type.", 2, 8),
    ("A : Type.\ndef g : A -> A.\n[Type] g Type --> Type.", 3, 2),
])
def test_type_is_reserved_as_a_parameter_and_a_pattern_variable(text, line,
                                                                col):
    with pytest.raises(ParseError) as err:
        parse_file(text, "<t>", set())
    assert (err.value.msg, err.value.span) == (
        "'Type' is reserved", SourceSpan("<t>", line, col))


@pytest.mark.parametrize("name", ["Typ", "Type2"])
def test_names_that_start_like_type_still_bind(name):
    decls = parse_file(f"A : Type.\ndef f ({name} : A) : A := {name}.\n"
                       f"def g : A -> A.\n[{name}] g {name} --> {name}.",
                       "<t>", set())
    assert decls[1].body == Lam(name, Const("A"), Bound(0))
    assert decls[1].body.var == name
    assert decls[3].pat_vars == (name,)
    assert decls[3].lhs == App(Const("g"), Var(name))


# the parser is the one owner of scope: in a file, an identifier that
# nothing binds is refused at its own token, in every declaration
@pytest.mark.parametrize("text,col", [
    ("c : A -> x.", 10),
    ("def c : x -> A.", 9),
    ("def c : A := x.", 14),
    ("def c := y : A => x.", 19),
    ("def c (y : x) : A := y.", 12),
    ("[y] f y --> x.", 13),
    ("[y] f x --> y.", 7),
], ids=["static-type", "def-type", "def-body", "untyped-def-body",
        "parameter-type", "rule-rhs", "rule-lhs"])
def test_an_unbound_identifier_is_refused_at_its_token(text, col):
    with pytest.raises(ParseError) as err:
        parse_file("A : Type.\ndef f : A -> A.\n" + text, "<t>", set())
    assert (err.value.msg, err.value.span) == (
        "unbound identifier 'x'", SourceSpan("<t>", 3, col))


def test_a_declaration_is_not_in_scope_in_its_own_type_or_body():
    for text, col in (("c : c.", 5), ("def c : A := c.", 14)):
        with pytest.raises(ParseError) as err:
            parse_file("A : Type.\n" + text, "<t>", set())
        assert (err.value.msg, err.value.span) == (
            "unbound identifier 'c'", SourceSpan("<t>", 2, col))


def test_each_binding_form_resolves():
    consts: set[str] = set()
    parse_file("A : Type.", "<a>", consts)  # an earlier file
    f, g, h, _, r, s, t = parse_file(
        "f : A -> A.\n"
        "def g (x : A) : A := f x.\n"
        "def h : A -> A := f : A => g f.\n"
        "def k : A -> A.\n"
        "[z] k z --> g z.\n"
        "[f] k f --> (f : A => f) f.\n"
        "[z] k (f z) --> f z.", "<b>", consts)
    assert f.ty == Pi("_", Const("A"), Const("A"))
    # a parameter, and the declaration before it in the same file
    assert g.body == Lam("x", Const("A"), App(Const("f"), Bound(0)))
    # a term binder, over a constant of the same name
    assert h.body == Lam("f", Const("A"), App(Const("g"), Bound(0)))
    # a pattern variable
    assert (r.lhs, r.rhs) == (App(Const("k"), Var("z")),
                              App(Const("g"), Var("z")))
    # a pattern variable over a constant, a binder over a pattern variable
    assert (s.lhs, s.rhs) == (
        App(Const("k"), Var("f")),
        App(Lam("f", Const("A"), Bound(0)), Var("f")))
    # a constant where no pattern variable has its name
    assert t.rhs == App(Const("f"), Var("z"))
    assert consts == {"A", "f", "g", "h", "k"}


def test_parse_term_keeps_an_unbound_identifier_free():
    assert parse_term("Imin 1 i", frozenset({"Imin", "1"})) == App(
        App(Const("Imin"), Const("1")), Var("i"))


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
    assert {t for kind, t, _, _ in toks if kind == "ident"} <= identifiers(text)


_SYMBOLS = (":=", "-->", "->", "=>", ":", "(", ")", "[", "]", ",", ".")


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_" or c == "'"


def reference_tokenize(text: str, file: str = "<input>") -> list[tuple]:
    """One character at a time: the reference for `tokenize`."""
    toks: list[tuple] = []
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
                toks.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if _ident_char(c):
                j = i
                while j < n and _ident_char(text[j]):
                    j += 1
                toks.append(("ident", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}",
                                 SourceSpan(file, line, col))
    toks.append(("eof", "", line, col))
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


class ReferenceParser(parser._Parser):
    """The parser with one method call per token: `peek`, `at_sym` and
    `next` at every step of `term`, a symbol told by its kind and its
    text, and scope kept through `bind` and `_name`.  It reads the same
    token tuples as `parser._Parser` and shares its declaration-level
    code, which it drives through these helpers: the reference for the
    index-walking `term`."""

    def peek(self, ahead=0):
        return self.toks[self.pos + ahead]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def at_sym(self, s):
        kind, text, _, _ = self.peek()
        return kind == "sym" and text == s

    def bind(self, name):
        if name is not None:
            self.binders.setdefault(name, []).append(self.depth)
        self.depth += 1

    def unbind(self, name):
        self.depth -= 1
        if name is not None:
            self.binders[name].pop()

    def term(self):
        stack = []
        start = "term"
        while True:
            if start == "term":
                kind, text, _, _ = self.peek()
                if (kind == "ident" and text != "Type"
                        and self.peek(1)[0] == "sym"
                        and self.peek(1)[1] in (":", "=>")):
                    name = self.next()[1]
                    if self.next()[1] == "=>":
                        stack.append(("lam", name, None))
                        self.bind(name)
                        continue
                    stack.append(("binder", name))
                else:
                    stack.append(("arrow",))
                stack.append(("appl", None))
                start = "atom"
                continue
            if start == "atom":
                tok = self.peek()
                if self.at_sym("("):
                    self.next()
                    stack.append(("paren",))
                    start = "term"
                    continue
                if tok[0] != "ident":
                    self.fail(f"expected a term, found {tok[1]!r}", tok)
                self.next()
                done = self._name(tok)
                start = None
            if not stack:
                return done
            frame = stack.pop()
            kind = frame[0]
            if kind == "appl":
                fn = frame[1]
                if fn is not None:
                    done = App(fn, done)
                nxt = self.peek()
                if self.at_sym("(") or (nxt[0] == "ident" and not (
                        nxt[1] != "Type" and self.peek(1)[0] == "sym"
                        and self.peek(1)[1] == ":")):
                    stack.append(("appl", done))
                    start = "atom"
            elif kind == "paren":
                self.expect_sym(")")
            elif kind == "arrow":
                if self.at_sym("->"):
                    self.next()
                    stack.append(("pi", None, done))
                    self.bind(None)
                    start = "term"
            elif kind == "binder":
                name = frame[1]
                if self.at_sym("->"):
                    stack.append(("pi", name, done))
                elif self.at_sym("=>"):
                    stack.append(("lam", name, done))
                else:
                    self.fail("expected '->' or '=>' after binder")
                self.next()
                self.bind(name)
                start = "term"
            else:
                _, name, dom = frame
                self.unbind(name)
                done = (Pi if kind == "pi" else Lam)(name or "_", dom, done)

    def _name(self, tok):
        text = tok[1]
        if text == "Type":
            return TYPE
        depths = self.binders.get(text)
        if depths:
            return Bound(self.depth - 1 - depths[-1])
        if text in (self.pat_vars or ()):
            return Var(text)
        if text in self.consts:
            return Const(text)
        if self.pat_vars is not None:
            self.fail(f"unbound identifier {text!r}", tok)
        return Var(text)


def _parsed(parser_class, toks, file, consts):
    """The declarations with their reprs, or the ParseError's message
    and span."""
    try:
        decls = parser_class(toks, file, set(consts)).file_decls()
    except ParseError as e:
        return e.msg, e.span
    return decls, [repr(d) for d in decls]


_MUTATIONS = ("delete", "duplicate", "swap")


def _mutate(toks, i, how):
    """A copy of `toks` with token i deleted, duplicated, or swapped
    with the next one; the final eof stays."""
    out = list(toks)
    if how == "delete":
        del out[i]
    elif how == "duplicate":
        out.insert(i, out[i])
    else:
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _scopes():
    """Each shipped file, with the names declared by the files a build
    checks before it."""
    orders = [blocks_for(FULL_CONFIG),
              blocks_for(FULL_CONFIG.replace(
                  nat_morphism_strength="external_eq")),
              theory._FIRST_ATTEMPT_PATHS]
    scopes = {}
    for order in orders:
        consts: set[str] = set()
        for path in order:
            scopes.setdefault(path.resolve(), frozenset(consts))
            parse_file(path.read_text(), path.name, consts)
    return scopes


SCOPES = _scopes()


@pytest.mark.parametrize("how", [None, *_MUTATIONS],
                         ids=lambda how: how or "shipped")
@pytest.mark.parametrize("path", sorted(THEORIES.rglob("*.dk")),
                         ids=lambda p: str(p.relative_to(THEORIES)))
def test_parse_agrees_with_the_reference_parser(path, how):
    # the file as shipped, or 10 seeded mutants of it, in the names the
    # files before it declare: equal declarations, binder hints and
    # spans included, or the same error at the same place
    consts = SCOPES[path.resolve()]
    toks = tokenize(path.read_text(), path.name)
    rng = random.Random(f"{path.name}:{how}")
    mutants = [toks] if how is None else [
        _mutate(toks, rng.randrange(len(toks) - 2), how) for _ in range(10)]
    for i, mutant in enumerate(mutants):
        assert (_parsed(parser._Parser, mutant, path.name, consts)
                == _parsed(ReferenceParser, mutant, path.name, consts)), i


_binder_names = st.sampled_from(["x", "y", "A", "f", "Type"])


def _compound_terms(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        st.tuples(_binder_names, inner, inner).map(
            lambda t: "{} : {} -> {}".format(*t)),
        st.tuples(_binder_names, inner, inner).map(
            lambda t: "{} : {} => {}".format(*t)),
        st.tuples(_binder_names, inner).map(lambda t: "{} => {}".format(*t)),
        pair.map(" -> ".join), pair.map(" ".join), inner.map("({})".format))


_term_texts = st.recursive(_binder_names, _compound_terms, max_leaves=8)
# declarations of the names c0, c1, ... over the constants A and f
_decl_texts = st.lists(st.one_of(
    _term_texts.map("c{{}} : {}.".format),
    st.tuples(_term_texts, _term_texts).map(
        lambda t: "def c{{}} : {} := {}.".format(*t)),
    st.tuples(_term_texts, _term_texts).map(
        lambda t: "[x, y] f {} --> {}.".format(*t))), max_size=3).map(
    lambda ds: "\n".join(d.format(i) for i, d in enumerate(ds)))


@settings(max_examples=500)
@given(_decl_texts, st.integers(0, 10**6),
       st.sampled_from((None, *_MUTATIONS)))
def test_parse_agrees_with_the_reference_parser_on_random_text(
        text, where, how):
    toks = tokenize(text)
    if how is not None and len(toks) > 2:
        toks = _mutate(toks, where % (len(toks) - 2), how)
    assert (_parsed(parser._Parser, toks, "<t>", {"A", "f"})
            == _parsed(ReferenceParser, toks, "<t>", {"A", "f"}))


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
    # under 10,000 binders of its own, the body refers to the binder
    # being named and to the innermost of the two around it, `b`
    depth = 10_000
    t = app(Var("x"), Bound(depth), Bound(depth + 1))
    for _ in range(depth):
        t = Lam("y", Const("A"), App(App(Const("succ"), Const("l0")), t))
    # the hint is renamed apart from the free variable, the constants
    # and `b`, not from the enclosing `a` that the body does not name
    for hint, name in [("x", "x_0"), ("b", "b_0"), ("a", "a"),
                       ("l0", "l0_0"), ("y", "y")]:
        assert parser._binder_name(hint, t, ["a", "b"], 2) == (name, True)
    assert parser._binder_name("y", Var("x"), [], 0) == ("y", False)


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
