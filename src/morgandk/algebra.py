"""Semantic oracles for interval and face expressions.

The rewrite system orients only part of the De Morgan laws (commutativity,
idempotence and distributivity stay external), so kernel convertibility is
deliberately weaker than equality in the free De Morgan algebra.  The
functions here decide the full equational theories from outside the kernel:

* interval expressions are evaluated in the four-element diamond algebra;
  an identity holds in the free De Morgan algebra iff it holds under every
  assignment of generators to the four elements,
* face expressions get a point semantics in which every generator sits at
  an endpoint of its axis or strictly inside it; two faces are equal iff
  they contain the same points.

Both deciders evaluate each side once, bit-parallel, over all 4^n (or 3^n)
assignments, encoded as big-integer masks; queries with more than
MAX_GENERATORS generators are refused.  The per-assignment evaluators stay
as the reference semantics.  There is one interval evaluator: a face
evaluates its interval expressions in DM4, at a point of the chain
embedded as DM4's subalgebra {BOT, A, TOP}.

Nothing in this module calls the rewrite engine.  The confluence analyzer
and the test suite use these oracles to audit the shipped rules, which is
only meaningful if the auditor cannot share a bug with the kernel.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Union

from .terms import (Record, Term, Const, Pi, Var, fresh_name, instantiate,
                    spine)

_set = object.__setattr__


class OracleError(Exception):
    """Malformed oracle query (unbound generator, bad expression, more
    than MAX_GENERATORS generators)."""


class OutOfDomain(Exception):
    """Raised when a term or rule falls outside the interval/face fragment.

    Distinct from a Fails verdict: an out-of-domain rule is not wrong,
    the oracle just has nothing to say about it.  `term`, when there is
    one, is the term that falls outside.  This module shares no code
    with the kernel's printer, so a front end shows `msg` and renders
    `term` itself (the CLI in the surface syntax).
    """

    def __init__(self, msg: str, term: Term | None = None):
        super().__init__(msg if term is None else f"{msg}: {term!r}")
        self.msg = msg
        self.term = term


# ---------------------------------------------------------------------------
# Expression grammars


# The nodes and verdicts are built on every oracle query, so each one
# with fields writes out its constructor.

class Zero(Record):
    __slots__ = ()


class One(Record):
    __slots__ = ()


class Gen(Record):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


def _init_arg(self, arg):
    _set(self, "arg", arg)


def _init_pair(self, left, right):
    _set(self, "left", left)
    _set(self, "right", right)


class Neg(Record):
    __slots__ = __match_args__ = ("arg",)
    __init__ = _init_arg


class Meet(Record):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _init_pair


class Join(Record):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _init_pair


IExpr = Union[Zero, One, Gen, Neg, Meet, Join]


class FBot(Record):
    __slots__ = ()


class FTop(Record):
    __slots__ = ()


class Eq0(Record):
    __slots__ = __match_args__ = ("arg",)
    __init__ = _init_arg


class Eq1(Record):
    __slots__ = __match_args__ = ("arg",)
    __init__ = _init_arg


class FMeet(Record):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _init_pair


class FJoin(Record):
    __slots__ = __match_args__ = ("left", "right")
    __init__ = _init_pair


FExpr = Union[FBot, FTop, Eq0, Eq1, FMeet, FJoin]


# ---------------------------------------------------------------------------
# Verdicts

# Shared with the confluence analyzer: Holds, or Fails with a witness.
# For the oracles the witness is a refuting assignment; for joinability
# queries it is the pair of distinct normal forms.


class Holds(Record):
    __slots__ = ()


class Fails(Record):
    __slots__ = __match_args__ = ("witness",)

    def __init__(self, witness: object):
        _set(self, "witness", witness)


Verdict = Union[Holds, Fails]


# ---------------------------------------------------------------------------
# The four-element De Morgan algebra

# Encoded as bit pairs on the 2x2 diamond: meet/join are componentwise,
# negation swaps the components complemented.  That encoding turns the
# sweep into boolean operations on two bits per assignment, which the
# deciders below run on all assignments at once (see "Bit-parallel sweep").


class DM4Value(Enum):
    BOT = (0, 0)
    A = (1, 0)
    B = (0, 1)
    TOP = (1, 1)


def dm_meet(x: DM4Value, y: DM4Value) -> DM4Value:
    return DM4Value((min(x.value[0], y.value[0]), min(x.value[1], y.value[1])))


def dm_join(x: DM4Value, y: DM4Value) -> DM4Value:
    return DM4Value((max(x.value[0], y.value[0]), max(x.value[1], y.value[1])))


def dm_neg(x: DM4Value) -> DM4Value:
    p, q = x.value
    return DM4Value((1 - q, 1 - p))


# Witness search order: descending, so the first refuting assignment of a
# degenerate identity names the top element rather than the bottom one.
_DM4_SWEEP = (DM4Value.TOP, DM4Value.A, DM4Value.B, DM4Value.BOT)


def generators(e: IExpr) -> set:
    match e:
        case Zero() | One():
            return set()
        case Gen(name):
            return {name}
        case Neg(a):
            return generators(a)
        case Meet(a, b) | Join(a, b):
            return generators(a) | generators(b)
    raise OracleError(f"not an interval expression: {e!r}")


def eval_interval(e: IExpr, rho: Mapping[str, DM4Value]) -> DM4Value:
    match e:
        case Zero():
            return DM4Value.BOT
        case One():
            return DM4Value.TOP
        case Gen(name):
            if name not in rho:
                raise OracleError(f"unbound generator: {name}")
            return rho[name]
        case Neg(a):
            return dm_neg(eval_interval(a, rho))
        case Meet(a, b):
            return dm_meet(eval_interval(a, rho), eval_interval(b, rho))
        case Join(a, b):
            return dm_join(eval_interval(a, rho), eval_interval(b, rho))
    raise OracleError(f"not an interval expression: {e!r}")


# ---------------------------------------------------------------------------
# Faces: three-valued point semantics

# A point of the n-cube is classified per axis: at 0, at 1, or strictly
# inside.  Two values would not do: with only vertices, the union of the
# two endpoint faces of an axis would wrongly cover the whole cube.


class Chain3(Enum):
    ZERO = 0
    HALF = 1
    ONE = 2


_CHAIN3_SWEEP = (Chain3.ONE, Chain3.HALF, Chain3.ZERO)


# The chain is DM4's subalgebra {BOT, A, TOP}: an interval expression at
# a cube point is evaluated in DM4 under this embedding.
_CHAIN3_IN_DM4 = {Chain3.ZERO: DM4Value.BOT, Chain3.HALF: DM4Value.A,
                  Chain3.ONE: DM4Value.TOP}


def face_generators(f: FExpr) -> set:
    match f:
        case FBot() | FTop():
            return set()
        case Eq0(a) | Eq1(a):
            return generators(a)
        case FMeet(a, b) | FJoin(a, b):
            return face_generators(a) | face_generators(b)
    raise OracleError(f"not a face expression: {f!r}")


def eval_face(f: FExpr, rho: Mapping[str, Chain3]) -> bool:
    """Does the cube point rho lie on the face f?"""
    match f:
        case FBot():
            return False
        case FTop():
            return True
        case Eq0(a) | Eq1(a):
            at = eval_interval(a, {n: _CHAIN3_IN_DM4[v] for n, v in rho.items()})
            return at is (DM4Value.BOT if isinstance(f, Eq0) else DM4Value.TOP)
        case FMeet(a, b):
            return eval_face(a, rho) and eval_face(b, rho)
        case FJoin(a, b):
            return eval_face(a, rho) or eval_face(b, rho)
    raise OracleError(f"not a face expression: {f!r}")


# ---------------------------------------------------------------------------
# Bit-parallel sweep

# The deciders number the assignments in sweep order: generators sorted by
# name, the first varying slowest, each running through _DM4_SWEEP or
# _CHAIN3_SWEEP.  Bit k of a mask says something about assignment k, so an
# expression is evaluated once for all assignments, and the lowest set bit
# of the difference of two sides is the first refuting assignment.
#
# An interval value is a pair of masks.  On DM4 they are the two diamond
# bits; on the chain they are (>= Half, = One), which embeds the chain as
# the subalgebra {Bot, A, Top}.  Either way meet is &, join is |, and
# negation swaps the pair and complements both against `full`.

# At 12 generators a mask is 2 MB (4^12 bits); an interval query took
# about 0.3-0.5 s and 110-120 MB on a 2-CPU Xeon host.  Time and memory
# grow fourfold per generator.
MAX_GENERATORS = 12


def _sweep_names(names: set) -> list[str]:
    if len(names) > MAX_GENERATORS:
        raise OracleError(
            f"the query has {len(names)} generators; the oracle decides "
            f"at most {MAX_GENERATORS}")
    return sorted(names)


def _repeat(block: int, period: int, times: int) -> int:
    """`block`, a pattern within `period` bits, repeated `times` times.
    Built by doubling, linear in the result's size; the repunit division
    `((1 << period*times) - 1) // ((1 << period) - 1)` is not, and took
    seconds at 11 generators."""
    out = shift = 0
    while times:
        if times & 1:
            out |= block << shift
            shift += period
        block |= block << period
        period *= 2
        times >>= 1
    return out


def _generator_masks(names: list[str], sweep: tuple, tests) -> tuple:
    """`full` and, per generator, one mask per test: the assignments at
    which the generator's value passes it."""
    n, base = len(names), len(sweep)
    masks = {}
    for k, name in enumerate(names):
        stride = base ** (n - 1 - k)
        run = (1 << stride) - 1
        masks[name] = tuple(
            _repeat(sum(run << d * stride
                        for d, v in enumerate(sweep) if test(v)),
                    base * stride, base ** k)
            for test in tests)
    return (1 << base ** n) - 1, masks


def _interval_masks(e: IExpr, gens: dict, full: int) -> tuple[int, int]:
    match e:
        case Zero():
            return 0, 0
        case One():
            return full, full
        case Gen(name):
            return gens[name]
        case Neg(a):
            p, q = _interval_masks(a, gens, full)
            return full ^ q, full ^ p
        case Meet(a, b):
            (p1, q1), (p2, q2) = (_interval_masks(a, gens, full),
                                  _interval_masks(b, gens, full))
            return p1 & p2, q1 & q2
        case Join(a, b):
            (p1, q1), (p2, q2) = (_interval_masks(a, gens, full),
                                  _interval_masks(b, gens, full))
            return p1 | p2, q1 | q2
    raise OracleError(f"not an interval expression: {e!r}")


def _face_mask(f: FExpr, gens: dict, full: int) -> int:
    match f:
        case FBot():
            return 0
        case FTop():
            return full
        case Eq0(a):
            return full ^ _interval_masks(a, gens, full)[0]
        case Eq1(a):
            return _interval_masks(a, gens, full)[1]
        case FMeet(a, b):
            return _face_mask(a, gens, full) & _face_mask(b, gens, full)
        case FJoin(a, b):
            return _face_mask(a, gens, full) | _face_mask(b, gens, full)
    raise OracleError(f"not a face expression: {f!r}")


def _verdict(diff: int, names: list[str], sweep: tuple) -> Verdict:
    """Holds, or Fails at the assignment of the lowest set bit of diff,
    decoded most significant digit first."""
    if not diff:
        return Holds()
    index = (diff & -diff).bit_length() - 1
    digits = []
    for _ in names:
        index, d = divmod(index, len(sweep))
        digits.append(sweep[d])
    return Fails(dict(zip(names, reversed(digits))))


def interval_eq(a: IExpr, b: IExpr) -> Verdict:
    """Decide a = b in the free De Morgan algebra: both sides evaluated
    at all 4^n assignments to DM4 at once."""
    names = _sweep_names(generators(a) | generators(b))
    full, gens = _generator_masks(names, _DM4_SWEEP,
                                  (lambda v: v.value[0], lambda v: v.value[1]))
    (p1, q1), (p2, q2) = (_interval_masks(a, gens, full),
                          _interval_masks(b, gens, full))
    return _verdict((p1 ^ p2) | (q1 ^ q2), names, _DM4_SWEEP)


def face_eq(a: FExpr, b: FExpr) -> Verdict:
    """Decide face equality: same set of cube points, all 3^n of them."""
    names = _sweep_names(face_generators(a) | face_generators(b))
    full, gens = _generator_masks(names, _CHAIN3_SWEEP,
                                  (lambda v: v is not Chain3.ZERO,
                                   lambda v: v is Chain3.ONE))
    return _verdict(_face_mask(a, gens, full) ^ _face_mask(b, gens, full),
                    names, _CHAIN3_SWEEP)


# ---------------------------------------------------------------------------
# Cross-check: canonical normal forms in the free algebra

# The free De Morgan algebra on X is the free bounded distributive lattice
# on the literals {x, ~x | x in X}: negation normalizes away by De Morgan
# and involution and leaves no relation between a literal and its partner.
# So a canonical form is the antichain of minimal monomials of the DNF,
# with 0 the empty join and 1 the empty monomial.  This is a second,
# independently-derived decision procedure; the test suite runs it against
# the DM4 sweep on small expressions so each guards the other.

# A literal is (generator name, polarity); a monomial a frozenset of them.


def _nnf(e: IExpr, positive: bool):
    match e:
        case Zero():
            return ("const", not positive)
        case One():
            return ("const", positive)
        case Gen(name):
            return ("lit", (name, positive))
        case Neg(a):
            return _nnf(a, not positive)
        case Meet(a, b):
            op = "meet" if positive else "join"
            return (op, _nnf(a, positive), _nnf(b, positive))
        case Join(a, b):
            op = "join" if positive else "meet"
            return (op, _nnf(a, positive), _nnf(b, positive))
    raise OracleError(f"not an interval expression: {e!r}")


def _dnf(n) -> frozenset:
    match n:
        case ("const", True):
            return frozenset({frozenset()})
        case ("const", False):
            return frozenset()
        case ("lit", lit):
            return frozenset({frozenset({lit})})
        case ("join", a, b):
            return _dnf(a) | _dnf(b)
        case ("meet", a, b):
            return frozenset(ma | mb for ma in _dnf(a) for mb in _dnf(b))
    raise OracleError(f"bad normal form node: {n!r}")


def canonical_dnf(e: IExpr) -> frozenset:
    """Canonical form: minimal monomials only (absorption)."""
    monomials = _dnf(_nnf(e, True))
    return frozenset(
        m
        for m in monomials
        if not any(other < m for other in monomials)
    )


# ---------------------------------------------------------------------------
# Terms to expressions

# Pattern and free variables become generators, named after themselves, so
# non-linear occurrences share a generator.  A variable sitting in face
# position stands for an arbitrary face; `Eq1` of a fresh generator is a
# complete stand-in because it takes both truth values across the sweep and
# distinct variables get independent generators.

# The interval and face signature: the operations that head its rules,
# and with the endpoints, every constant the oracle grammar knows.
INTERVAL_HEADS = frozenset({"sym", "Imin", "Imax"})
FACE_HEADS = frozenset({"eq0", "eq1", "Fmin", "Fmax"})
ORACLE_CONSTS = INTERVAL_HEADS | FACE_HEADS | {"0", "1", "0f", "1f"}


def interval_from_term(t: Term) -> IExpr:
    head, args = spine(t)
    match head:
        case Var(name) if not args:
            return Gen(name)
        case Const("0") if not args:
            return Zero()
        case Const("1") if not args:
            return One()
        case Const("sym") if len(args) == 1:
            return Neg(interval_from_term(args[0]))
        case Const("Imin") if len(args) == 2:
            return Meet(interval_from_term(args[0]), interval_from_term(args[1]))
        case Const("Imax") if len(args) == 2:
            return Join(interval_from_term(args[0]), interval_from_term(args[1]))
    raise OutOfDomain("not an interval term", t)


def face_from_term(t: Term) -> FExpr:
    head, args = spine(t)
    match head:
        case Var(name) if not args:
            return Eq1(Gen(name))
        case Const("0f") if not args:
            return FBot()
        case Const("1f") if not args:
            return FTop()
        case Const("eq0") if len(args) == 1:
            return Eq0(interval_from_term(args[0]))
        case Const("eq1") if len(args) == 1:
            return Eq1(interval_from_term(args[0]))
        case Const("Fmin") if len(args) == 2:
            return FMeet(face_from_term(args[0]), face_from_term(args[1]))
        case Const("Fmax") if len(args) == 2:
            return FJoin(face_from_term(args[0]), face_from_term(args[1]))
    raise OutOfDomain("not a face term", t)


def check_rule_sound(rule) -> Verdict:
    """Audit one rewrite rule against the algebraic semantics.

    Accepts anything with `.lhs` and `.rhs` term attributes.  Rules headed
    outside the interval/face signature raise OutOfDomain; they are not
    wrong, merely invisible to the oracle.
    """
    head, _ = spine(rule.lhs)
    name = head.name if isinstance(head, Const) else None
    if name in INTERVAL_HEADS:
        return interval_eq(interval_from_term(rule.lhs), interval_from_term(rule.rhs))
    if name in FACE_HEADS:
        return face_eq(face_from_term(rule.lhs), face_from_term(rule.rhs))
    raise OutOfDomain(f"rule head outside the interval/face fragment: {name}")


def audit_equation(ty: Term) -> Verdict:
    """Audit an external-equation constant by its declared type.

    The type must be a Pi telescope ending in `ceps (cEq I lhs rhs)` or
    `ceps (cEq F lhs rhs)`; bound variables become generators named
    after their binders.
    """
    core, taken, opened = ty, set(), []
    while isinstance(core, Pi):
        v = fresh_name(core.var, taken)
        taken.add(v)
        opened.append(Var(v))
        core = core.cod
    core = instantiate(core, opened)
    head, args = spine(core)
    if not (isinstance(head, Const) and head.name == "ceps" and len(args) == 1):
        raise OutOfDomain("equation type does not end in ceps", core)
    eq_head, eq_args = spine(args[0])
    if not (isinstance(eq_head, Const) and eq_head.name == "cEq" and len(eq_args) == 3):
        raise OutOfDomain("equation type does not end in cEq", args[0])
    carrier, lhs, rhs = eq_args
    match carrier:
        case Const("I"):
            return interval_eq(interval_from_term(lhs), interval_from_term(rhs))
        case Const("F"):
            return face_eq(face_from_term(lhs), face_from_term(rhs))
    raise OutOfDomain("equation carrier is neither I nor F", carrier)
