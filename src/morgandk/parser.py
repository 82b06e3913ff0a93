"""Concrete syntax: tokenizer, declaration parser, pretty printer.

The surface language is a small Dedukti-style format:

    Lev : Type.                      static constant
    def eps : i : Lev -> T i -> Type.  definable constant (may get rules)
    def two := suc (suc zero).       definition, type inferred
    def f (x : A) : B := body.       parameterized definition sugar
    [x, y] plus (suc x) y --> suc (plus x y).   rewrite rule

Terms: `x : A -> B` (product), `A -> B` (non-dependent product),
`x : A => b` and `x => b` (abstraction), juxtaposition (application),
`Type` (the sort of types).  Comments are `(; ... ;)` and nest.

Identifier resolution happens at parse time: binder-bound names become
de Bruijn indices (Bound), rule pattern variables become Var, previously
declared names become Const.  Anything else is a free Var in term
position but an error inside rewrite rules, where an unbound identifier
is always a mistake.  The parser keeps scope only: a rule must be headed
by a declared constant, and whether that constant may take rules is the
checker's decision (`check.check_rule`).
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .terms import (App, Bound, Const, Lam, Pi, Record, Sort, Term, TYPE,
                    Var, occurs, open_binder, spine, subterms)

__all__ = [
    "SourceSpan", "ParseError", "Token",
    "StaticConst", "DefinableConst", "Definition", "RuleDecl", "Declaration",
    "tokenize", "identifiers", "parse_file", "parse_term",
    "pretty", "print_declaration",
]


_set = object.__setattr__


class SourceSpan(Record):
    __slots__ = __match_args__ = ("file", "line", "col")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, msg: str, span: SourceSpan):
        super().__init__(f"{span}: {msg}")
        self.msg = msg
        self.span = span


class Token(Record):
    __slots__ = __match_args__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _set(self, "kind", kind)  # "ident", "sym", "eof"
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


class StaticConst(Record):
    __slots__ = __match_args__ = ("name", "ty", "span")


class DefinableConst(Record):
    __slots__ = __match_args__ = ("name", "ty", "span")


class Definition(Record):
    # ty is None when the type is inferred from the body
    __slots__ = __match_args__ = ("name", "ty", "body", "span")


class RuleDecl(Record):
    __slots__ = __match_args__ = ("pat_vars", "lhs", "rhs", "span")


Declaration = Union[StaticConst, DefinableConst, Definition, RuleDecl]

# `\w` is exactly `str.isalnum()` or "_", and `\s` exactly
# `str.isspace()`, so a match is a maximal run of identifier characters
_IDENT_RUN = re.compile(r"[\w']+")
# the blanks before a token, then the token: a comment opener, a symbol
# (`:=` before `:`, `-->` before `->`), an identifier run, or any other
# character, which is an error.  No group matches at the end of the text.
_TOKEN = re.compile(r"\s*(?:(\(;)|(:=|-->|->|=>|[:()\[\],.])|([\w']+)"
                    r"|(.)|\Z)", re.DOTALL)
# inside a comment, what nests, closes or starts a line
_COMMENT = re.compile(r"\(;|;\)|\n")


def identifiers(text: str) -> frozenset[str]:
    """Every maximal run of identifier characters in `text`, comments
    included.  A superset of the identifiers `tokenize` reads, so of
    every name a parse of `text` can look up in its namespace."""
    return frozenset(_IDENT_RUN.findall(text))


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, bol = 0, 1, 0  # bol: where the current line begins
    while True:
        m = _TOKEN.match(text, i)
        kind = m.lastindex
        start = m.start(kind) if kind else m.end()
        nl = text.rfind("\n", i, start)
        if nl >= 0:
            line += text.count("\n", i, start)
            bol = nl + 1
        col = start - bol + 1
        if kind is None:
            toks.append(Token("eof", "", line, col))
            return toks
        i = m.end()
        if kind == 1:
            opened, depth = SourceSpan(file, line, col), 1
            while depth:
                c = _COMMENT.search(text, i)
                if c is None:
                    raise ParseError("unterminated comment", opened)
                i = c.end()
                if c.group() == "\n":
                    line, bol = line + 1, i
                else:
                    depth += 1 if c.group() == "(;" else -1
        elif kind == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}",
                             SourceSpan(file, line, col))
        else:
            toks.append(Token("sym" if kind == 2 else "ident", m.group(kind),
                              line, col))


class _Parser:
    def __init__(self, toks: list[Token], file: str, consts: set[str]):
        # one more eof, so that `peek(1)` at the end is a plain index
        self.toks = toks + toks[-1:]
        self.pos = 0
        self.file = file
        self.consts = consts
        # inside a rewrite rule: its pattern variables; no free identifiers
        self.pat_vars: Optional[frozenset[str]] = None
        # the scope: how many binders enclose the current position, and
        # for each name the depths of the enclosing binders of that name,
        # innermost last (a non-dependent arrow binds no name)
        self.depth = 0
        self.binders: dict[str, list[int]] = {}

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def span(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.file, tok.line, tok.col)

    def fail(self, msg: str, tok: Optional[Token] = None):
        raise ParseError(msg, self.span(tok or self.peek()))

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def expect_sym(self, s: str) -> Token:
        if not self.at_sym(s):
            self.fail(f"expected {s!r}, found {self.peek().text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected an identifier, found {t.text!r}")
        return self.next()

    # -- terms ------------------------------------------------------------

    def bind(self, name: Optional[str]) -> None:
        """Open a binder of `name` (None: a non-dependent arrow)."""
        if name is not None:
            self.binders.setdefault(name, []).append(self.depth)
        self.depth += 1

    def unbind(self, name: Optional[str]) -> None:
        """Close the innermost binder, which `bind(name)` opened."""
        self.depth -= 1
        if name is not None:
            self.binders[name].pop()

    def term(self) -> Term:
        """Parse a term in the current scope.  Works over an explicit
        stack of the constructions still open, innermost last, rather
        than by recursion, so nesting is not bounded by the
        interpreter's recursion limit:

            ("binder", name)  `name :` read; the domain is parsed
            ("arrow",)        an application is parsed; `->` may follow
            ("appl", fn)      an application so far (fn None: none yet)
            ("paren",)        `(` read
            ("pi" | "lam", name, dom)  the body is parsed in the scope
                              of a binder of `name` (None: an arrow)
        """
        stack: list[tuple] = []
        start: Optional[str] = "term"  # what to parse next
        done: Term  # the subterm just parsed, when `start` is None
        while True:
            if start == "term":
                tok = self.peek()
                if (tok.kind == "ident" and tok.text != "Type"
                        and self.peek(1).kind == "sym"
                        and self.peek(1).text in (":", "=>")):
                    name = self.next().text
                    if self.next().text == "=>":
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
                if tok.kind != "ident":
                    self.fail(f"expected a term, found {tok.text!r}", tok)
                self.next()
                done = self._name(tok)
                start = None
            # hand the finished subterm to the innermost open construction
            if not stack:
                return done
            frame = stack.pop()
            kind = frame[0]
            if kind == "appl":
                fn = frame[1]
                if fn is not None:
                    done = App(fn, done)
                nxt = self.peek()
                if self.at_sym("(") or (nxt.kind == "ident" and not (
                        nxt.text != "Type" and self.peek(1).kind == "sym"
                        and self.peek(1).text == ":")):
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

    def _name(self, tok: Token) -> Term:
        """The term an identifier stands for in the current scope."""
        if tok.text == "Type":
            return TYPE
        depths = self.binders.get(tok.text)
        if depths:
            return Bound(self.depth - 1 - depths[-1])
        if tok.text in (self.pat_vars or ()):
            return Var(tok.text)
        if tok.text in self.consts:
            return Const(tok.text)
        if self.pat_vars is not None:
            self.fail(f"unbound identifier {tok.text!r} in rewrite rule", tok)
        return Var(tok.text)

    # -- declarations -----------------------------------------------------

    def declare(self, name: str, tok: Token):
        if name in self.consts:
            self.fail(f"{name!r} is already declared", tok)
        if name == "Type":
            self.fail("'Type' is reserved", tok)
        self.consts.add(name)

    def declaration(self) -> Declaration:
        start = self.peek()
        if self.at_sym("["):
            return self.rule()
        if start.kind == "ident" and start.text == "def":
            self.next()
            return self.definition(start)
        name_tok = self.expect_ident()
        self.expect_sym(":")
        ty = self.term()
        self.expect_sym(".")
        self.declare(name_tok.text, name_tok)
        return StaticConst(name_tok.text, ty, self.span(name_tok))

    def definition(self, start: Token) -> Declaration:
        name_tok = self.expect_ident()
        name = name_tok.text
        params: list[tuple[str, Term]] = []
        while self.at_sym("("):
            self.next()
            p = self.expect_ident()
            self.expect_sym(":")
            pty = self.term()
            self.expect_sym(")")
            params.append((p.text, pty))
            self.bind(p.text)
        ty: Optional[Term] = None
        if self.at_sym(":"):
            self.next()
            ty = self.term()
        if self.at_sym("."):
            self.next()
            if ty is None:
                self.fail("definition needs a type or a body", name_tok)
            if params:
                self.fail("a definable constant cannot take parameters",
                          name_tok)
            self.declare(name, name_tok)
            return DefinableConst(name, ty, self.span(name_tok))
        self.expect_sym(":=")
        body = self.term()
        self.expect_sym(".")
        for p, pty in reversed(params):
            self.unbind(p)
            body = Lam(p, pty, body)
            if ty is not None:
                ty = Pi(p, pty, ty)
        self.declare(name, name_tok)
        return Definition(name, ty, body, self.span(name_tok))

    def rule(self) -> RuleDecl:
        start = self.expect_sym("[")
        pat_vars: list[str] = []
        if not self.at_sym("]"):
            while True:
                v = self.expect_ident()
                if v.text in pat_vars:
                    self.fail(f"duplicate pattern variable {v.text!r}", v)
                pat_vars.append(v.text)
                # an explicit arity annotation is tolerated and ignored
                if self.peek().kind == "ident" and self.peek().text.isdigit():
                    self.next()
                if self.at_sym(","):
                    self.next()
                else:
                    break
        self.expect_sym("]")
        self.pat_vars = frozenset(pat_vars)
        try:
            lhs = self.term()
            self.expect_sym("-->")
            rhs = self.term()
        finally:
            self.pat_vars = None
        self.expect_sym(".")
        if not isinstance(spine(lhs)[0], Const):
            self.fail("rule left-hand side must be headed by a declared "
                      "constant", start)
        return RuleDecl(tuple(pat_vars), lhs, rhs, self.span(start))

    def file_decls(self) -> list[Declaration]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.declaration())
        return out


def parse_file(text: str, file: str = "<input>",
               consts: Optional[set[str]] = None) -> list[Declaration]:
    """Parse one file's declarations.  `consts` carries the names
    declared by earlier files and is updated in place."""
    p = _Parser(tokenize(text, file), file,
                consts if consts is not None else set())
    return p.file_decls()


def parse_term(text: str, consts: set[str] | frozenset[str] = frozenset(),
               file: str = "<term>") -> Term:
    p = _Parser(tokenize(text, file), file, set(consts))
    t = p.term()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return t


# -- printing -------------------------------------------------------------

def pretty(t: Term) -> str:
    """A term in the surface syntax.  Works over an explicit stack of
    what is left to print, rather than by recursion, and joins the
    printed pieces once."""
    out: list[str] = []
    # strings to emit and (term, level) pairs to print, next one last;
    # level 0: anything, 1: application, 2: atom
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, level = item
        match t:
            case Sort(k):
                out.append("Type" if k == "TYPE" else "Kind")
                continue
            case Const(n) | Var(n):
                out.append(n)
                continue
            case App(f, a):
                pieces = [(f, 1), " ", (a, 2)]
                bracket = level > 1
            case Lam(hint, dom, body):
                v, body = open_binder(hint, body, _names(body))
                ann = [] if dom is None else [" : ", (dom, 1)]
                pieces = [v, *ann, " => ", (body, 0)]
                bracket = level > 0
            case Pi(hint, dom, cod):
                if occurs(cod):
                    v, cod = open_binder(hint, cod, _names(cod))
                    pieces = [v, " : ", (dom, 1), " -> ", (cod, 0)]
                else:
                    pieces = [(dom, 1), " -> ", (cod, 0)]
                bracket = level > 0
            case _:
                raise TypeError(f"not a term: {t!r}")
        if bracket:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)


def _names(t: Term) -> set[str]:
    """The free variables and the constants of t.  A binder printed over
    t must avoid both: re-parsing would read either name as the binder."""
    return {s.name for s, _ in subterms(t)
            if s.__class__ is Const or s.__class__ is Var}


def print_declaration(d: Declaration) -> str:
    match d:
        case StaticConst(name, ty, _):
            return f"{name} : {pretty(ty)}."
        case DefinableConst(name, ty, _):
            return f"def {name} : {pretty(ty)}."
        case Definition(name, None, body, _):
            return f"def {name} := {pretty(body)}."
        case Definition(name, ty, body, _):
            return f"def {name} : {pretty(ty)} := {pretty(body)}."
        case RuleDecl(pat_vars, lhs, rhs, _):
            return f"[{', '.join(pat_vars)}] {pretty(lhs)} --> {pretty(rhs)}."
    raise TypeError(f"not a declaration: {d!r}")
