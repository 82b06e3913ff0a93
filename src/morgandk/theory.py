"""The shipped theories: a two-layer type theory over a level
hierarchy, optional axiom blocks selected by `TheoryConfig`, a cubical
fragment (interval, faces, paths, systems, composition) and worked
example terms.  The two-layer surface syntax and its translation into
kernel terms live in `morgandk.surface`, off the command path.

The corpus is the `theories/` directory next to this module, one
theory file per block.  `blocks_for` names the files a configuration
selects; `build_theory` parses and checks them under the default fuel
into a fresh signature.  One cache, shared by every builder, makes
sweeping the whole flag lattice cheap.  It holds each file's parses,
keyed on the names the file mentions that the signature before it
declares, so each file is parsed once per way its names resolve: once
in all for the shipped lattice, and again, with its old parses and
checks dropped, when its modification time or size changes.  With each
parse it holds its checks, keyed on the names each check looked up in
the signature before it and on what those lookups answered.  So a file
is checked again only when something it read differs, not whenever an
earlier file does: 26 file checks for the 96 configurations, and none
for a warm build.  The bookkeeping costs what a check touched: a miss
records each name's answer at its first lookup or write and stores
what it installed from the names it wrote, with no copy of the
signature; a hit installs its constants with one dict update; and a
result that repeats an earlier one is found by `==` and a walk of the
binder hints of the terms the two do not share, with nothing printed.
`write_theory_files` copies the selected files out, so the exported
corpus is the shipped one byte for byte.

The first-attempt decoding of faces by rewrite rules is kept out of
every built signature: it breaks confluence (see the analyzer tests)
and exists only as a fixture, checked on top of the core and faces
blocks by `first_attempt_signature`.
"""

from __future__ import annotations

from itertools import chain, repeat
from pathlib import Path
from typing import Iterator

from .algebra import FACE_HEADS, INTERVAL_HEADS
from .check import Signature, check_signature
from .parser import identifiers, parse_file
from .rewrite import RewriteRule
from .terms import Lam, Pi, Record, Term, subterms

__all__ = [
    "TheoryConfig", "FULL_CONFIG", "NAT_STRENGTHS",
    "blocks_for", "build_theory", "first_attempt_signature",
    "INTERVAL_FACE_HEADS", "interval_face_rules",
    "write_theory_files", "read_source",
]


# -- configuration and builders -------------------------------------------

_THEORY_DIR = Path(__file__).with_name("theories")

NAT_STRENGTHS = ("none", "external_eq", "definitional")


class TheoryConfig(Record):
    """Flag set selecting optional blocks of the two-layer theory.

    Any combination is accepted: in this realization no pair of
    optional blocks rewrites the same left-hand sides, so no flag
    interaction adds an overlap.  The critical pairs of every
    combination, and which of them join, are pinned by
    `test_critical_pair_verdicts_of_every_configuration` in
    `tests/test_theory.py`.
    """

    __slots__ = __match_args__ = (
        "t1_injectivity", "t2_primitive_iso_as_rewrite", "t3_repletion",
        "nat_morphism_strength", "include_weak_univalence", "cubical")

    def __init__(self, t1_injectivity: bool = False,
                 t2_primitive_iso_as_rewrite: bool = False,
                 t3_repletion: bool = False,
                 nat_morphism_strength: str = "none",
                 include_weak_univalence: bool = False,
                 cubical: bool = False):
        if nat_morphism_strength not in NAT_STRENGTHS:
            raise ValueError(
                f"nat_morphism_strength must be one of {NAT_STRENGTHS}, "
                f"got {nat_morphism_strength!r}")
        super().__init__(t1_injectivity, t2_primitive_iso_as_rewrite,
                         t3_repletion, nat_morphism_strength,
                         include_weak_univalence, cubical)


FULL_CONFIG = TheoryConfig(
    t1_injectivity=True,
    t2_primitive_iso_as_rewrite=True,
    t3_repletion=True,
    nat_morphism_strength="definitional",
    include_weak_univalence=True,
    cubical=True,
)

# The corpus files in dependency order, each with the `TheoryConfig`
# field that selects it and the value that field must have (no field:
# every configuration).  Every path is built once, here: a `Path` keeps
# its string and its hash once computed, so each build's `stat` and
# cache probe reuse them.
_BLOCKS = tuple((_THEORY_DIR / name, field, value) for name, field, value in (
    ("01-2ltt-core.dk", None, None),
    ("02-axioms-t1.dk", "t1_injectivity", True),
    ("03-axioms-t2.dk", "t2_primitive_iso_as_rewrite", True),
    ("04-axioms-t3.dk", "t3_repletion", True),
    ("05-univalence.dk", "include_weak_univalence", True),
    ("nat-external_eq/06-nat-morphism.dk", "nat_morphism_strength",
     "external_eq"),
    ("06-nat-morphism.dk", "nat_morphism_strength", "definitional"),
    ("07-cubical-core.dk", "cubical", True),
    ("08-cubical-interval.dk", "cubical", True),
    ("09-cubical-paths.dk", "cubical", True),
    ("10-cubical-faces.dk", "cubical", True),
    ("11-cubical-facetype.dk", "cubical", True),
    ("12-cubical-systems.dk", "cubical", True),
    ("13-cubical-comp.dk", "cubical", True),
    ("14-examples-2ltt.dk", None, None),
    ("15-examples-filling.dk", "cubical", True),
))


def blocks_for(cfg: TheoryConfig) -> list[Path]:
    """The corpus files a configuration selects: the rows of `_BLOCKS`
    whose field has the row's value, in dependency order.  File names
    are stable across configurations: the `external_eq` number morphism
    sits in a subdirectory under the same name as the definitional
    one."""
    return [path for path, field, value in _BLOCKS
            if field is None or getattr(cfg, field) == value]


# path -> ((st_mtime_ns, st_size) of the file read, its identifiers,
# {declared names among them: (the parse, {a key, the names a check of it
# looked up in `sig.consts` and in `sig.rules`: {the ids of what `_read`
# yields of that key: (what checking the parse installed, what `_read`
# yielded)}})}).  Every namespace lookup the parser makes is on one of
# the file's identifiers, so two namespaces that agree on them give
# equal parses.  Declarations and terms are immutable, so the signatures
# built from a parse share it.  A signature that answers a stored key's
# lookups as stored runs that check again lookup for lookup, so any
# stored key that matches is a valid hit.  What a check installed is its
# constants, as (name, ConstInfo) pairs in order, and the new rules of
# each head, in the order the check first wrote the heads: the heads it
# created enter `sig.rules` of a hit in the order they entered it.
# Answers are compared by identity, not `==`: `==` on terms ignores
# binder hints, and an untyped `def` takes its type from its
# dependencies' types as they are written.  A stored check keeps the
# objects whose ids it is stored under alive, so no stored id is reused,
# even after a rewritten file drops the checks that installed them.
_CACHE: dict[Path, tuple[tuple[int, int], frozenset[str], dict]] = {}


def read_source(path: Path) -> str:
    """A theory file's text, read as UTF-8 without the byte-order mark
    it may start with.  The mark is dropped after decoding, so the byte
    offset of a decoding error counts from the start of the file."""
    return path.read_text(encoding="utf-8").removeprefix("\ufeff")


def _parse(path: Path, sig: Signature) -> tuple:
    """The cache entry of `parse_file` on a corpus file in the namespace
    of `sig`, keyed by the declared names the file mentions.  A stat of
    the file tells whether it changed since it was read; one that did is
    read again, and its old parses and their checks dropped.  A failed
    parse raises as `parse_file` does and caches nothing."""
    st = path.stat()
    stamp = (st.st_mtime_ns, st.st_size)
    known = _CACHE.get(path)
    text = None
    if known is None or known[0] != stamp:
        text = read_source(path)
        known = (stamp, identifiers(text), {})
    _, names, parses = known
    seen = frozenset(sig.consts.keys() & names)
    parse = parses.get(seen)
    if parse is None:
        if text is None:
            text = read_source(path)
        decls = tuple(parse_file(text, path.name, set(sig.consts)))
        parse = parses[seen] = (decls, {})
        _CACHE[path] = known
    return parse


class _Noted:
    """A namespace of a signature under check: forwards the lookups and
    writes the checker makes, and records what the namespace held for
    each name at the first lookup or write of it, in `answers`: the
    ConstInfo or None of a constant.  A write notes its name before it
    writes, so each answer is what the namespace held before the check.
    The names written go in `written`, a dict used as a set that keeps
    the order of first writes.  Iterating the namespace, subscripting it
    or calling any other dict method raises, so a checker that read a
    namespace otherwise could not be cached under too few names."""

    __slots__ = ("_data", "answers", "written")

    def __init__(self, data: dict):
        self._data, self.answers, self.written = data, {}, {}

    def _note(self, name: str) -> None:
        self.answers[name] = self._data.get(name)

    def get(self, name: str, default=None):
        if name not in self.answers:
            self._note(name)
        return self._data.get(name, default)

    def __contains__(self, name: str) -> bool:
        if name not in self.answers:
            self._note(name)
        return name in self._data

    def setdefault(self, name: str, default):
        if name not in self.answers:
            self._note(name)
        self.written[name] = None
        return self._data.setdefault(name, default)

    def __setitem__(self, name: str, value) -> None:
        if name not in self.answers:
            self._note(name)
        self.written[name] = None
        self._data[name] = value


class _NotedRules(_Noted):
    """`_Noted` over `sig.rules`: the answer for a head is a tuple of
    its rules, taken before the check appends to the head's list."""

    __slots__ = ()

    def _note(self, name: str) -> None:
        self.answers[name] = tuple(self._data.get(name, ()))


def _read(key: tuple[tuple[str, ...], tuple[str, ...]], sig: Signature):
    """What `sig` answers to the lookups of `key`: the installed
    ConstInfo (or None) of each name looked up in `sig.consts`, then the
    rules of each name looked up in `sig.rules`, in order.  One flat
    sequence of rules is exact, since a rule sits under its own head
    only."""
    consts, rules = key
    return chain(map(sig.consts.get, consts),
                 chain.from_iterable(map(sig.rules.get, rules, repeat(()))))


def _terms(done: tuple) -> Iterator[Term | None]:
    """The terms of a check result that may hold binders, in order: each
    constant's type and body (None for none), then each new rule's
    right-hand side.  A left-hand side holds no binder."""
    consts, rules = done
    for _, info in consts:
        yield info.ty
        yield info.body
    for _, rs in rules:
        for r in rs:
            yield r.rhs


def _same_hints(a: Term | None, b: Term | None) -> bool:
    """Whether two `==` terms name their binders alike: the hint of each
    `Lam` and `Pi` of one equals that of the other's binder at the same
    place.  `==` ignores hints, so the two walks stay in step."""
    if a is b:
        return True
    for (s, _), (t, _) in zip(subterms(a), subterms(b)):
        if (s.__class__ is Lam or s.__class__ is Pi) and s.var != t.var:
            return False
    return True


def _check(parse: tuple, sig: Signature) -> None:
    """`check_signature` on a `_parse` entry's declarations, extending
    `sig`, cached in the entry by the names the check looked up and what
    `sig` answered.  The check is deterministic in its declarations and
    in those answers, so a signature that answers the same runs it
    lookup for lookup.

    A miss runs the check through `_Noted` namespaces and stores, from
    what they recorded, the names looked up, what `sig` held for them
    before the check, and what the check installed: the constants it
    wrote and the new tail of each head's rules, read off the written
    names alone.  A hit installs the stored constants with one
    `dict.update`, which is what `add_const` one at a time would do:
    `add_const` looked each name up, so the key holds it, and the stored
    answer, which `sig` has just matched, was "absent".

    A check whose result equals an earlier one of the same parse,
    binder hints included, installs the earlier objects, so the files
    after it still hit.  The hints are compared term by term where `==`
    holds, and only between terms that are not the same object: usually
    just an untyped `def`'s inferred type, since the declarations are
    shared.  A failed check raises as `check_signature` does and caches
    nothing."""
    decls, checks = parse
    for key, states in checks.items():
        hit = states.get(tuple(map(id, _read(key, sig))))
        if hit is not None:
            consts, rules = hit[0]
            sig.consts.update(consts)
            for head, rs in rules:
                sig.rules.setdefault(head, []).extend(rs)
            return
    plain = sig.consts, sig.rules
    consts, rules = _Noted(plain[0]), _NotedRules(plain[1])
    sig.consts, sig.rules = consts, rules
    try:
        check_signature(decls, sig=sig)
    finally:
        sig.consts, sig.rules = plain
    key = (tuple(sorted(consts.answers)), tuple(sorted(rules.answers)))
    read = (*map(consts.answers.__getitem__, key[0]),
            *chain.from_iterable(map(rules.answers.__getitem__, key[1])))
    done = (tuple((name, sig.consts[name]) for name in consts.written),
            tuple((head, tuple(sig.rules[head][len(rules.answers[head]):]))
                  for head in rules.written))
    same = next((c for states in checks.values() for c, _ in states.values()
                 if c == done and all(map(_same_hints, _terms(c),
                                          _terms(done)))), None)
    if same is not None:
        sig.consts.update(same[0])
        for (head, _), (_, old_rules) in zip(done[1], same[1]):
            sig.rules[head][-len(old_rules):] = old_rules
        done = same
    checks.setdefault(key, {})[tuple(map(id, read))] = (done, read)


def _build(paths: tuple[Path, ...]) -> Signature:
    """Parse and check `paths` in order into a fresh Signature.  Each
    file is parsed in the namespace of the signature before it, once per
    way its names resolve (`_parse`), and checked once per parse and
    answers to the lookups its check made (`_check`), so the signatures
    of a whole flag lattice share every check whose inputs agree.  The
    shipped corpus is always checked under the default fuel, so a built
    signature does not depend on a caller's budget."""
    sig = Signature()
    for path in paths:
        _check(_parse(path, sig), sig)
    return sig


def build_theory(cfg: TheoryConfig) -> Signature:
    """Parse and check the blocks `cfg` selects into a fresh Signature."""
    return _build(tuple(blocks_for(cfg)))


_FIRST_ATTEMPT = _THEORY_DIR / "quarantine" / "faces-first-attempt.dk"
# the core and the cubical blocks through faces
_FIRST_ATTEMPT_PATHS = (*blocks_for(TheoryConfig(cubical=True))[:5],
                        _FIRST_ATTEMPT)


def first_attempt_signature() -> Signature:
    """Core-through-faces plus the first-attempt faceType rules, as one
    checked signature.  It type-checks; what fails is confluence."""
    return _build(_FIRST_ATTEMPT_PATHS)


INTERVAL_FACE_HEADS = INTERVAL_HEADS | FACE_HEADS


def interval_face_rules(sig: Signature) -> list[RewriteRule]:
    """The algebraic fragment of a signature's rules: exactly the ones
    the confluence claim covers."""
    return [r for r in sig.rule_list() if r.head in INTERVAL_FACE_HEADS]


# -- on-disk corpus -------------------------------------------------------

def write_theory_files(dest: str | Path,
                       cfg: TheoryConfig = FULL_CONFIG) -> list[Path]:
    """Copy the corpus under `dest`: the selected blocks, the
    quarantined first attempt under quarantine/, and the audit notes.
    Returns the written paths."""
    root = Path(dest)
    (root / "quarantine").mkdir(parents=True, exist_ok=True)
    copies = [(p, root / p.name) for p in blocks_for(cfg)]
    copies.append((_FIRST_ATTEMPT, root / "quarantine" / _FIRST_ATTEMPT.name))
    copies.append((_THEORY_DIR / "CORRECTIONS.md", root / "CORRECTIONS.md"))
    for src, dst in copies:
        dst.write_bytes(src.read_bytes())
    return [dst for _, dst in copies]
