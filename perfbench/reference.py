"""Seeded inputs and independent references for the benchmark.

Nothing here imports morgandk: the expected verdicts, witnesses and
normal forms are computed by code the benchmark times nowhere.

Expressions are plain nested lists so they can cross a process boundary
as JSON:

    interval  ["0"] ["1"] ["gen", name] ["neg", e] ["meet", a, b] ["join", a, b]
    face      ["bot"] ["top"] ["eq0", e] ["eq1", e] ["fmeet", f, g] ["fjoin", f, g]

The bit-parallel evaluators give every generator two big-integer masks
over all assignments, numbered in the oracles' sweep order (generators
sorted by name, the first varying slowest; De Morgan values in the order
Top, A, B, Bot; cube coordinates in the order One, Half, Zero).  The
lowest set bit of the difference of two sides is therefore the first
refuting assignment of the sweep.
"""

from __future__ import annotations

import random
from statistics import median

DM4_SWEEP = ("Top", "A", "B", "Bot")
CHAIN3_SWEEP = ("One", "Half", "Zero")


# -- bit-parallel evaluation ------------------------------------------------

def _repeat(period: int, width: int, times: int) -> int:
    """`period` (a `width`-bit pattern) repeated `times` times."""
    return period * (((1 << (width * times)) - 1) // ((1 << width) - 1))


def _digit_masks(n: int, k: int, base: int) -> list[int]:
    """Mask of the assignments where generator k (0 = slowest) takes
    its d-th sweep value, for each d < base."""
    stride = base ** (n - 1 - k)
    ones = (1 << stride) - 1
    return [_repeat(ones << (d * stride), base * stride, base ** k)
            for d in range(base)]


def interval_masks(e, names: list[str]):
    """(p, q) masks of e over all 4^n assignments: the two bits of the
    diamond encoding Top=(1,1), A=(1,0), B=(0,1), Bot=(0,0)."""
    n = len(names)
    full = (1 << (4 ** n)) - 1
    gens = {}
    for k, name in enumerate(names):
        top, a, b, _ = _digit_masks(n, k, 4)
        gens[name] = (top | a, top | b)

    def ev(x):
        match x[0]:
            case "0":
                return 0, 0
            case "1":
                return full, full
            case "gen":
                return gens[x[1]]
            case "neg":
                p, q = ev(x[1])
                return full ^ q, full ^ p
            case "meet":
                (p1, q1), (p2, q2) = ev(x[1]), ev(x[2])
                return p1 & p2, q1 & q2
            case "join":
                (p1, q1), (p2, q2) = ev(x[1]), ev(x[2])
                return p1 | p2, q1 | q2
        raise ValueError(f"not an interval expression: {x!r}")
    return ev(e)


def _chain3_masks(e, gens, full):
    """(at least Half, equal to One) masks of an interval expression on
    the three-point chain."""
    match e[0]:
        case "0":
            return 0, 0
        case "1":
            return full, full
        case "gen":
            return gens[e[1]]
        case "neg":
            ge, one = _chain3_masks(e[1], gens, full)
            return full ^ one, full ^ ge
        case "meet":
            (g1, o1), (g2, o2) = (_chain3_masks(e[1], gens, full),
                                  _chain3_masks(e[2], gens, full))
            return g1 & g2, o1 & o2
        case "join":
            (g1, o1), (g2, o2) = (_chain3_masks(e[1], gens, full),
                                  _chain3_masks(e[2], gens, full))
            return g1 | g2, o1 | o2
    raise ValueError(f"not an interval expression: {e!r}")


class _Cube:
    """The 3^n points of the cube over `names`, as bit positions."""

    def __init__(self, names: list[str]):
        n = len(names)
        self.full = (1 << (3 ** n)) - 1
        self.gens = {}
        for k, name in enumerate(names):
            one, half, _ = _digit_masks(n, k, 3)
            self.gens[name] = (one | half, one)

    def face(self, f) -> int:
        """Mask of the points that lie on face f."""
        match f[0]:
            case "bot":
                return 0
            case "top":
                return self.full
            case "eq0":
                return self.full ^ _chain3_masks(f[1], self.gens, self.full)[0]
            case "eq1":
                return _chain3_masks(f[1], self.gens, self.full)[1]
            case "fmeet":
                return self.face(f[1]) & self.face(f[2])
            case "fjoin":
                return self.face(f[1]) | self.face(f[2])
        raise ValueError(f"not a face expression: {f!r}")

    def work(self, f, reach: int) -> int:
        """Node visits of a per-point evaluator that short-circuits meets
        and joins, summed over the points in `reach`."""
        here = reach.bit_count()
        match f[0]:
            case "eq0" | "eq1":
                return here * (1 + size(f[1]))
            case "fmeet":
                return (here + self.work(f[1], reach)
                        + self.work(f[2], reach & self.face(f[1])))
            case "fjoin":
                return (here + self.work(f[1], reach)
                        + self.work(f[2], reach & ~self.face(f[1])))
        return here


def _assignment(index: int, names: list[str], sweep: tuple[str, ...]):
    base = len(sweep)
    out = {}
    for k in range(len(names) - 1, -1, -1):
        index, d = divmod(index, base)
        out[names[k]] = sweep[d]
    return out


def _first_set_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def interval_verdict(lhs, rhs):
    """(None, None) if lhs = rhs in the free De Morgan algebra, else the
    first refuting assignment in sweep order and its index."""
    names = sorted(generators(lhs) | generators(rhs))
    (p1, q1), (p2, q2) = interval_masks(lhs, names), interval_masks(rhs, names)
    diff = (p1 ^ p2) | (q1 ^ q2)
    if not diff:
        return None, None
    i = _first_set_bit(diff)
    return _assignment(i, names, DM4_SWEEP), i


def face_verdict(lhs, rhs):
    names = sorted(face_generators(lhs) | face_generators(rhs))
    cube = _Cube(names)
    diff = cube.face(lhs) ^ cube.face(rhs)
    if not diff:
        return None, None
    i = _first_set_bit(diff)
    return _assignment(i, names, CHAIN3_SWEEP), i


def generators(e) -> set[str]:
    if e[0] == "gen":
        return {e[1]}
    out: set[str] = set()
    for sub in e[1:]:
        out |= generators(sub)
    return out


def face_generators(f) -> set[str]:
    if f[0] in ("eq0", "eq1"):
        return generators(f[1])
    out: set[str] = set()
    for sub in f[1:]:
        out |= face_generators(sub)
    return out


def size(e) -> int:
    if e[0] == "gen":
        return 1
    return 1 + sum(size(s) for s in e[1:])


# -- surface syntax for the command line -----------------------------------

_SURFACE = {"0": "0", "1": "1", "neg": "sym", "meet": "Imin", "join": "Imax",
            "bot": "0f", "top": "1f", "eq0": "eq0", "eq1": "eq1",
            "fmeet": "Fmin", "fjoin": "Fmax"}


def surface(e) -> str:
    """The expression as a term the command-line oracle parses."""
    if e[0] == "gen":
        return e[1]
    head = _SURFACE[e[0]]
    if len(e) == 1:
        return head
    return " ".join([head] + [f"({surface(s)})" for s in e[1:]])


# -- seeded equations ---------------------------------------------------------

def _leaf_literals(rng: random.Random, names: list[str], leaves: int):
    """`leaves` literals in random order, each generator of `names` at
    least once when there is room, so the sweep covers all of them.  A
    fixed share is negated, so the size depends on `leaves` alone."""
    gens = list(names[:leaves]) + [rng.choice(names)
                                   for _ in range(leaves - len(names))]
    rng.shuffle(gens)
    negated = set(rng.sample(range(leaves), (2 * leaves) // 5))
    return [["neg", ["gen", g]] if i in negated else ["gen", g]
            for i, g in enumerate(gens)]


def _interval_tree(rng: random.Random, leaves: list):
    if len(leaves) == 1:
        return leaves[0]
    left = rng.randint(1, len(leaves) - 1)
    return [rng.choice(("meet", "join")),
            _interval_tree(rng, leaves[:left]),
            _interval_tree(rng, leaves[left:])]


def _random_interval(rng: random.Random, names: list[str], leaves: int):
    """A random meet/join tree with exactly `leaves` literals."""
    return _interval_tree(rng, _leaf_literals(rng, names, leaves))


def _shuffle_ac(rng: random.Random, e):
    """An equal expression of the same size: commute and reassociate."""
    match e[0]:
        case "meet" | "join":
            a, b = _shuffle_ac(rng, e[1]), _shuffle_ac(rng, e[2])
            if rng.random() < 0.5:
                a, b = b, a
            if b[0] == e[0] and rng.random() < 0.5:
                # a op (b1 op b2)  =  (a op b1) op b2
                return [e[0], [e[0], a, b[1]], b[2]]
            return [e[0], a, b]
        case "neg":
            return ["neg", _shuffle_ac(rng, e[1])]
        case "fmeet" | "fjoin":
            a, b = _shuffle_ac(rng, e[1]), _shuffle_ac(rng, e[2])
            return [e[0], b, a] if rng.random() < 0.5 else [e[0], a, b]
        case "eq0" | "eq1":
            return [e[0], _shuffle_ac(rng, e[1])]
    return e


def _meet_all(op: str, parts: list):
    out = parts[0]
    for p in parts[1:]:
        out = [op, out, p]
    return out


def interval_equation(rng: random.Random, n: int, leaves: int,
                      refute_at: tuple[int, ...] | None):
    """An interval equation over n generators.

    With `refute_at` None it holds by construction (the right side is
    the left side commuted and reassociated).
    Otherwise `refute_at` gives sweep digits (0 = Top, 1 = A, 3 = Bot)
    for the slowest generators and the equation's first refuting
    assignment has exactly those digits, the rest at Top: a difference
    gated by the negated generator vanishes before the digit is reached,
    and for digit 3 the term x /\\ ~x absorbs it at A and B."""
    names = [chr(ord("a") + k) for k in range(n)]
    base = _random_interval(rng, names, leaves)
    if refute_at is None:
        return base, _shuffle_ac(rng, base)
    k = len(refute_at)
    free = names[k:]
    gates, kleene = [], []
    for name, d in zip(names, refute_at):
        if d in (1, 3):
            gates.append(["neg", ["gen", name]])
        if d == 3:
            kleene.append(["meet", ["gen", name], ["neg", ["gen", name]]])
    # common part, Bot at the target: a meet with a negated free generator
    common = ["meet", base, ["neg", ["gen", rng.choice(free)]]]
    # Top at the target on one side, Bot on the other
    hi = _meet_all("meet", [["gen", x] for x in rng.sample(free, min(2, len(free)))])
    lo = ["meet", _random_interval(rng, names, 2), ["neg", ["gen", rng.choice(free)]]]
    lhs_parts = [common] + kleene + ([["meet", _meet_all("meet", gates), hi]]
                                     if gates else [hi])
    rhs_parts = [common] + kleene + ([["meet", _meet_all("meet", gates), lo]]
                                     if gates else [lo])
    lhs = _meet_all("join", lhs_parts)
    rhs = _meet_all("join", rhs_parts)
    return lhs, _shuffle_ac(rng, rhs)


def _face_tree(rng: random.Random, leaves: list[str], width: int):
    if len(leaves) == width:
        return [rng.choice(("eq0", "eq1")), _interval_tree(rng, leaves)]
    left = width * rng.randint(1, len(leaves) // width - 1)
    return [rng.choice(("fmeet", "fjoin")),
            _face_tree(rng, leaves[:left], width),
            _face_tree(rng, leaves[left:], width)]


def _random_face(rng: random.Random, names: list[str], atoms: int, width: int):
    """A random face meet/join tree of `atoms` eq0/eq1 atoms, each over
    an interval expression with `width` literals."""
    return _face_tree(rng, _leaf_literals(rng, names, atoms * width), width)


def face_equation(rng: random.Random, n: int, atoms: int,
                  refute_at: tuple[int, ...] | None):
    """A face equation over n generators, holding by construction when
    `refute_at` is None.  Otherwise the first refuting point has sweep
    digits `refute_at` (0 = One, 2 = Zero) on the slowest generators
    and One elsewhere: the difference is met with eq0 of each generator
    whose digit is 2, which is false at One and Half."""
    names = [chr(ord("a") + k) for k in range(n)]
    base = _random_face(rng, names, atoms, 2)
    if refute_at is None:
        return base, _shuffle_ac(rng, base)
    k = len(refute_at)
    free = names[k:]
    gates = [["eq0", ["gen", name]] for name, d in zip(names, refute_at) if d == 2]
    common = ["fmeet", base, ["eq0", ["gen", rng.choice(free)]]]
    hi = ["eq1", ["gen", rng.choice(free)]]
    lo = ["fmeet", _random_face(rng, names, 1, 2), ["eq0", ["gen", rng.choice(free)]]]
    if gates:
        hi = ["fmeet", _meet_all("fmeet", gates), hi]
        lo = ["fmeet", _meet_all("fmeet", gates), lo]
    return (["fjoin", common, hi],
            _shuffle_ac(rng, ["fjoin", common, lo]))


# -- numerals -------------------------------------------------------------------

def numeral_text(n: int) -> str:
    """`succ l0 (... (zero l0))` with n successors, as the printer
    writes it."""
    return "succ l0 (" * n + "zero l0" + ")" * n if n else "zero l0"


def numeral_depth(t) -> int | None:
    """n if t is the numeral `succ l0 (... (zero l0))` with n successors,
    else None.  Walks the term iteratively by field access, so it neither
    recurses nor relies on the term classes' own equality."""
    n = 0
    while True:
        if _is(t, "App") and _is(t.fn, "App") and _const(t.fn.fn, "succ") \
                and _const(t.fn.arg, "l0"):
            n += 1
            t = t.arg
        elif _is(t, "App") and _const(t.fn, "zero") and _const(t.arg, "l0"):
            return n
        else:
            return None


def same_term(a, b) -> bool:
    """Structural equality of two terms, iteratively."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x).__name__ != type(y).__name__:
            return False
        match type(x).__name__:
            case "Sort":
                ok = x.kind == y.kind
            case "Const" | "Var":
                ok = x.name == y.name
            case "App":
                ok = True
                todo += [(x.fn, y.fn), (x.arg, y.arg)]
            case "Lam" | "Pi":
                ok = x.var == y.var
                dx, dy = x.dom, y.dom
                if (dx is None) != (dy is None):
                    return False
                if dx is not None:
                    todo.append((dx, dy))
                todo.append((x.body, y.body) if type(x).__name__ == "Lam"
                            else (x.cod, y.cod))
            case _:
                return False
        if not ok:
            return False
    return True


def _is(t, cls: str) -> bool:
    return type(t).__name__ == cls


def _const(t, name: str) -> bool:
    return _is(t, "Const") and t.name == name


# -- workload inputs ---------------------------------------------------------

# Numeral depths for `normalize(exDouble n)`.  Each is jittered by the
# seed within a band that keeps it clear of the known failure depths:
# the cached reducer overflows the stack from about 250 deep and the
# uncached one from about 500, so 280 and 540 fail by design.
NUMERAL_DEPTHS = (12, 24, 48, 96, 160, 224, 280, 540)
TRACED_DEPTHS = (8, 16, 32, 48, 60)
CACHED_LIMIT_DEPTH = 250
UNCACHED_LIMIT_DEPTH = 500

# (generator count, sweep digits of the planted refutation) per query.
# The digits put the first refuting assignment at a fixed share of the
# sweep: 0, 1/4, 13/16, 7/16 for intervals and 0, 2/3, 8/27, 8/9, 20/27
# for faces.  The seed picks the expressions, which have a fixed size.
INTERVAL_QUERIES = ((4, ()), (5, (1,)), (6, (3, 1)), (7, (1, 3)))
FACE_QUERIES = ((5, ()), (6, (2,)), (7, (0, 2, 2)), (8, (2, 2)), (9, (2, 0, 2)))


def _jitter(rng: random.Random, depths) -> list[int]:
    """Each depth moved by up to 2% (at least 1), so seeds vary the
    numerals but hardly the work."""
    return [d + rng.randint(-max(1, d // 50), max(1, d // 50)) for d in depths]


FACE_CANDIDATES = 12


def _face_candidate(rng: random.Random, n: int, digits):
    lhs, rhs = face_equation(rng, n, (n + 1) // 2, digits)
    witness, index = face_verdict(lhs, rhs)
    cube = _Cube(sorted(face_generators(lhs) | face_generators(rhs)))
    swept = cube.full if index is None else (1 << (index + 1)) - 1
    return lhs, rhs, witness, index, cube.work(lhs, swept) + cube.work(rhs, swept)


def _oracle_query(rng: random.Random, kind: str, n: int, digits) -> dict:
    if kind == "interval":
        lhs, rhs = interval_equation(rng, n, n, digits)
        witness, index = interval_verdict(lhs, rhs)
    else:
        # The face sweep short-circuits, so its work depends on the
        # expression.  Of several seeded candidates take the one whose
        # work is nearest a seed-independent target, so that seeds vary
        # the equations but hardly the work.
        target = median(_face_candidate(random.Random(f"face/{n}/{digits}"),
                                        n, digits)[4]
                        for _ in range(FACE_CANDIDATES))
        lhs, rhs, witness, index, _ = min(
            (_face_candidate(rng, n, digits) for _ in range(FACE_CANDIDATES)),
            key=lambda c: abs(c[4] - target))
    return {"kind": kind, "n": n, "lhs": lhs, "rhs": rhs,
            "witness": witness, "index": index}


def oracle_queries(rng: random.Random, interval, face) -> list[dict]:
    """For each (n, digits): one equation that holds by construction and
    one refuted at the planted position."""
    out = []
    for kind, plan in (("interval", interval), ("face", face)):
        for n, digits in plan:
            out.append(_oracle_query(rng, kind, n, None))
            out.append(_oracle_query(rng, kind, n, digits))
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload's rounds need that depends on the seed,
    with the expected results computed here."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus_sweep":
        return {}
    if workload == "rewrite_mix":
        return {"depths": _jitter(rng, NUMERAL_DEPTHS),
                "traced_depths": _jitter(rng, TRACED_DEPTHS)}
    if workload == "oracle_mix":
        return {"queries": oracle_queries(rng, INTERVAL_QUERIES, FACE_QUERIES)}
    if workload == "cli_commands":
        return {"depths": _jitter(rng, (16, 96)),
                "deep": 400,
                "queries": oracle_queries(rng, ((4, (1, 3)),), ((5, (2, 0)),))}
    raise ValueError(f"unknown workload {workload!r}")
