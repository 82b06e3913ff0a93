"""Every record class against a frozen dataclass twin.

`terms.Record` stands in for `@dataclass(frozen=True)`, so a frozen
dataclass with the same fields is the reference: the same `repr`, `==`
and `!=` (across classes too), `hash` and `__match_args__`, copies and
pickles that come back equal, and an AttributeError on assignment.  The
classes are found by walking `Record`'s subclasses, so a new record is
covered without an edit here."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

# every module that defines records, the surface syntax included
from morgandk import (algebra, check, cli, parser, rewrite,  # noqa: F401
                      surface, theory)
from morgandk.algebra import interval_eq, interval_from_term
from morgandk.parser import parse_file, parse_term, tokenize
from morgandk.rewrite import critical_pairs
from morgandk.terms import (KIND, TYPE, App, Bound, Const, Lam, Pi, Record,
                            Var)
from morgandk.theory import (FULL_CONFIG, NAT_STRENGTHS, build_theory,
                             interval_face_rules)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(set(_subclasses(Record)),
                 key=lambda c: (c.__module__, c.__qualname__))

# fields that `==` and `hash` skip: a binder's name is a printing hint
HINTS = {Lam: {"var"}, Pi: {"var"}}


def _twin(cls):
    hints = HINTS.get(cls, ())
    fields = [(f, object, dataclasses.field(compare=f not in hints))
              for f in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def test_every_module_s_records_are_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Sort", "Const", "Var", "Bound", "App", "Lam", "Pi",
            "SourceSpan", "RuleDecl", "ConstInfo", "RewriteRule",
            "CriticalPair", "Gen", "Holds", "Fails", "TheoryConfig",
            "Level", "APair"} <= names


def _pair(record):
    """`record` and its twin over the same field values."""
    values = [getattr(record, f) for f in record.__match_args__]
    return record, TWINS[record.__class__](*values)


def _hash(x):
    try:
        return hash(x)
    except TypeError as e:  # a witness dict, say: both must refuse
        return type(e)


def _assert_alike(record, twin):
    assert repr(record) == repr(twin)
    assert record.__match_args__ == twin.__match_args__
    assert _hash(record) == _hash(twin)
    assert record == record and not (record != record)
    for back in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert back.__class__ is record.__class__
        assert repr(back) == repr(record)
        assert back == record and not (back != record)
        assert _hash(back) == _hash(record)
    for obj in (record, twin):
        for f in obj.__match_args__:
            with pytest.raises(AttributeError):
                setattr(obj, f, getattr(obj, f))
            with pytest.raises(AttributeError):
                delattr(obj, f)
    assert not hasattr(record, "__dict__")


def _assert_compare_alike(a, b):
    (ra, ta), (rb, tb) = a, b
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    if ra.__class__ is not rb.__class__:
        assert ra.__eq__(rb) is NotImplemented


# -- sample values: records the program builds -----------------------------

def _samples():
    sig = build_theory(FULL_CONFIG)
    text = ("A : Type.\ndef f : A -> A.\n[x] f (f x) --> f x.\n"
            "def g := x : A => f x.\n")
    decls = parse_file(text, "s.dk")
    yield from decls
    yield decls[0].span
    yield from list(sig.consts.values())[::10]
    rules = interval_face_rules(sig)
    yield from rules[::5]
    yield from critical_pairs(rules)[::20]
    i = parse_term("Imax i (sym (Imin j 0))",
                   frozenset({"Imax", "sym", "Imin", "0"}))
    yield interval_from_term(i)
    yield interval_eq(interval_from_term(i), interval_from_term(i))
    yield FULL_CONFIG
    yield theory.TheoryConfig()
    yield surface.L0.suc()
    yield surface.APair("x", surface.ANat(), surface.AUniv(),
                        surface.AZero(), surface.ATt())
    yield parse_term("x : Type -> y : Type => x", frozenset())
    yield Bound(3)


SAMPLES = list(_samples())

# tokens are plain `(kind, text, line, col)` tuples, not records; their twin
# is the frozen dataclass they replaced, and they must carry its values in
# its order and compare, hash, copy and pickle as it does
TokenTwin = dataclasses.make_dataclass(
    "Token", [("kind", str), ("text", str), ("line", int), ("col", int)],
    frozen=True)
TOKENS = tokenize("A : Type.\ndef f : A -> A.\n[x] f (f x) --> f x.\n"
                  "def g := x : A => f x.\n", "s.dk")


def _assert_token_alike(token, twin):
    assert token.__class__ is tuple
    assert token == dataclasses.astuple(twin)
    assert [type(v) for v in token] == [str, str, int, int]
    assert hash(token) == hash(twin)
    for back in (copy.copy(token), pickle.loads(pickle.dumps(token))):
        assert back.__class__ is tuple and back == token
        assert hash(back) == hash(token)
    for i in range(len(token)):
        with pytest.raises(TypeError):
            token[i] = token[i]
    assert not hasattr(token, "__dict__")


def _sample_id(value):
    return "Token" if value.__class__ is tuple else value.__class__.__name__


@pytest.mark.parametrize("record", TOKENS + SAMPLES, ids=_sample_id)
def test_sample_records_behave_as_their_twins(record):
    if record.__class__ is tuple:
        _assert_token_alike(record, TokenTwin(*record))
    else:
        _assert_alike(*_pair(record))


def test_tokens_compare_as_their_twins():
    twins = [TokenTwin(*t) for t in TOKENS]
    for a, ta in zip(TOKENS, twins):
        for b, tb in zip(TOKENS, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)


def test_sample_records_compare_as_their_twins():
    pairs = [_pair(r) for r in SAMPLES]
    for a in pairs:
        for b in pairs:
            _assert_compare_alike(a, b)


@pytest.mark.parametrize("cls", [c for c in RECORDS if not c.__match_args__],
                         ids=lambda c: c.__name__)
def test_a_record_without_fields_takes_no_arguments(cls):
    for make in (cls, TWINS[cls]):
        assert make() == make()
        with pytest.raises(TypeError):
            make(1)
        with pytest.raises(TypeError):
            make(value=1)


# -- hypothesis values ------------------------------------------------------

_names = st.sampled_from(["a", "b", "x"])
_leaves = st.one_of(st.builds(Const, _names), st.builds(Var, _names),
                    st.builds(Bound, st.integers(0, 2)),
                    st.sampled_from([TYPE, KIND]))
_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(st.builds(App, sub, sub),
                          st.builds(Lam, _names, st.none() | sub, sub),
                          st.builds(Pi, _names, sub, sub)),
    max_leaves=6)
_atoms = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
              st.text("ab", max_size=2), _leaves),
    lambda sub: st.tuples(sub, sub), max_leaves=3)

# the fields of a term's own children must hold terms: `==` on compound
# terms walks them
_TERM_FIELDS = {"fn", "arg", "body", "cod"}


def _field_values(cls):
    def value(f):
        if f == "nat_morphism_strength":
            return st.sampled_from(NAT_STRENGTHS)
        if f == "dom":
            return st.none() | _terms
        if f in _TERM_FIELDS:
            return _terms
        return _atoms
    return st.tuples(*map(value, cls.__match_args__))


@st.composite
def _records(draw, cls=None):
    cls = cls or draw(st.sampled_from(RECORDS))
    return _pair(cls(*draw(_field_values(cls))))


@settings(max_examples=300)
@given(_records())
def test_records_behave_as_their_twins(pair):
    _assert_alike(*pair)


@settings(max_examples=300)
@given(st.data())
def test_records_compare_as_their_twins(data):
    a = data.draw(_records())
    cls = a[0].__class__
    same_fields = [c for c in RECORDS
                   if c.__match_args__ == cls.__match_args__]
    choice = data.draw(st.sampled_from(("same class", "same fields", "any")))
    if choice == "same class":
        b = data.draw(_records(cls))
    elif choice == "same fields":  # Meet against Join over equal values
        other = data.draw(st.sampled_from(same_fields))
        b = _pair(other(*(getattr(a[0], f) for f in cls.__match_args__)))
    else:
        b = data.draw(_records())
    _assert_compare_alike(a, b)
    _assert_compare_alike(b, a)


def test_keyword_construction_and_replace():
    span = parser.SourceSpan(file="f.dk", line=2, col=3)
    assert span == parser.SourceSpan("f.dk", 2, 3)
    assert span.replace(col=4) == parser.SourceSpan("f.dk", 2, 4)
    cp = rewrite.CriticalPair("r1", "r2", (), peak=TYPE, left=TYPE,
                              right=KIND)
    assert cp.right == KIND and cp.replace(right=TYPE).right == TYPE
    assert FULL_CONFIG.replace(cubical=False).cubical is False
    with pytest.raises(ValueError, match="nat_morphism_strength"):
        FULL_CONFIG.replace(nat_morphism_strength="strong")
    for bad in ((), ("r1",) * 7):
        with pytest.raises(TypeError):
            rewrite.CriticalPair(*bad)
    with pytest.raises(TypeError):
        rewrite.CriticalPair("r1", "r2", (), TYPE, TYPE, TYPE, rule1="r1")
    with pytest.raises(TypeError):
        parser.RuleDecl((), TYPE, TYPE, spam=None)
