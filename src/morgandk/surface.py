"""Two-layer surface syntax and its translation into kernel terms.

`encode` maps the surface syntax of the two-level type theory, over a
level expression and a layer, homomorphically onto the constants the
shipped core declares: one table names the constant of each of the 16
formers that 2LTT has once per layer, and one case encodes them all.
`encode_context` does the same for a typing context.  No command uses
this module, so nothing on the command path imports it.
"""

from __future__ import annotations

from .terms import App, Const, Record, Term, Var, app, lam

__all__ = [
    "Level", "L0", "CL",
    "EncodeError", "INTERNAL", "EXTERNAL",
    "AVar", "AUniv", "AFalse", "ATrue", "ANat", "ASum", "APi", "ASig",
    "AEq", "ALift", "ATt", "AZero", "ASucc", "ALam", "AApp", "APair",
    "AFst", "ASnd", "AInl", "AInr", "ARefl", "ACoerce", "AIsoUp",
    "AIsoDown",
    "encode", "encode_context",
]


# -- levels ---------------------------------------------------------------

class Level(Record):
    """A level expression: a declared base constant under finitely many
    successors."""

    __slots__ = __match_args__ = ("base", "ups")

    def __init__(self, base: str, ups: int = 0):
        super().__init__(base, ups)

    def term(self) -> Term:
        t: Term = Const(self.base)
        for _ in range(self.ups):
            t = App(Const("lsuc"), t)
        return t

    def suc(self) -> "Level":
        return Level(self.base, self.ups + 1)

    def pred(self) -> "Level":
        if self.ups == 0:
            raise ValueError(f"level {self.base} has no predecessor")
        return Level(self.base, self.ups - 1)


L0 = Level("l0")
CL = Level("cL")


# -- two-layer surface syntax and its translation -------------------------

class EncodeError(Exception):
    """Ill-formed surface syntax, a layer violation included."""


INTERNAL = "internal"
EXTERNAL = "external"


class AVar(Record):
    __slots__ = __match_args__ = ("name",)


class AUniv(Record):
    """The universe of the level below the current one."""

    __slots__ = ()


class AFalse(Record):
    __slots__ = ()


class ATrue(Record):
    __slots__ = ()


class ANat(Record):
    __slots__ = ()


class ASum(Record):
    __slots__ = __match_args__ = ("left", "right")


class APi(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod")


class ASig(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod")


class AEq(Record):
    __slots__ = __match_args__ = ("carrier", "lhs", "rhs")


class ALift(Record):
    """A type of the level below, seen one level up."""

    __slots__ = __match_args__ = ("inner",)


class ATt(Record):
    __slots__ = ()


class AZero(Record):
    __slots__ = ()


class ASucc(Record):
    __slots__ = __match_args__ = ("arg",)


class ALam(Record):
    __slots__ = __match_args__ = ("var", "dom", "body")


class AApp(Record):
    __slots__ = __match_args__ = ("fn", "arg")


class APair(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod", "fst", "snd")


class AFst(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod", "pair")


class ASnd(Record):
    __slots__ = __match_args__ = ("var", "dom", "cod", "pair")


class AInl(Record):
    __slots__ = __match_args__ = ("left", "right", "arg")


class AInr(Record):
    __slots__ = __match_args__ = ("left", "right", "arg")


class ARefl(Record):
    __slots__ = __match_args__ = ("carrier", "arg")


class ACoerce(Record):
    """An internal type seen as an external one (types only)."""

    __slots__ = __match_args__ = ("inner",)


class AIsoUp(Record):
    """An internal term carried into the coerced external type."""

    __slots__ = __match_args__ = ("carrier", "arg")


class AIsoDown(Record):
    """A term of a coerced type carried back to the internal layer."""

    __slots__ = __match_args__ = ("carrier", "arg")


Ast = (AVar | AUniv | AFalse | ATrue | ANat | ASum | APi | ASig | AEq
       | ALift | ATt | AZero | ASucc | ALam | AApp | APair | AFst | ASnd
       | AInl | AInr | ARefl | ACoerce | AIsoUp | AIsoDown)


# The formers that encode homomorphically, each to the constant of this
# name in its layer (prefixed `x` in the external one), applied to the
# level and then to the encoded fields in order.  A binder's (var, dom,
# cod) becomes the domain followed by the abstraction.
_FORMERS = {
    AFalse: "False", ATrue: "True", ANat: "Nat", ASum: "Sum", APi: "Pi",
    ASig: "Sig", AEq: "Eq", ATt: "tt", AZero: "zero", ASucc: "succ",
    APair: "pair", AFst: "p1", ASnd: "p2", AInl: "inl", AInr: "inr",
    ARefl: "refl",
}


def _former(layer: str, name: str) -> Const:
    return Const(name if layer == INTERNAL else "x" + name)


def _decoder(layer: str) -> Const:
    return Const("eps" if layer == INTERNAL else "xeps")


def encode(e: Ast, lev: Level, layer: str = INTERNAL) -> Term:
    """Translate surface syntax to a kernel term at level `lev`.

    Homomorphic: free variables keep their names, every former maps to
    its constant in the current layer (`_FORMERS` for all but the
    universe, the lift and the meta-level abstraction and application),
    fully applied, with bound variables annotated by the decoded
    domain.  The three coercion nodes are the only places the layer
    changes; using them in the wrong layer raises EncodeError.
    """
    if layer not in (INTERNAL, EXTERNAL):
        raise EncodeError(f"unknown layer {layer!r}")
    lt = lev.term()
    name = _FORMERS.get(e.__class__)
    if name is not None:
        fields = [getattr(e, f) for f in e.__match_args__]
        args = [lt]
        if e.__match_args__[:1] == ("var",):
            var, dom, cod, *fields = fields
            d = encode(dom, lev, layer)
            args += (d, lam(var, app(_decoder(layer), lt, d),
                            encode(cod, lev, layer)))
        args += (encode(f, lev, layer) for f in fields)
        return app(_former(layer, name), *args)
    match e:
        case AVar(name):
            return Var(name)
        case AUniv():
            if lev.ups == 0:
                raise EncodeError(
                    f"no universe below base level {lev.base!r}")
            return app(_former(layer, "t"), lev.pred().term())
        case ALift(inner):
            below = lev.pred() if lev.ups else None
            if below is None:
                raise EncodeError(
                    f"nothing to lift below base level {lev.base!r}")
            return app(_former(layer, "lUp"), below.term(),
                       encode(inner, below, layer))
        case ALam(var, dom, body):
            ann = app(_decoder(layer), lt, encode(dom, lev, layer))
            return lam(var, ann, encode(body, lev, layer))
        case AApp(fn, arg):
            return App(encode(fn, lev, layer), encode(arg, lev, layer))
        case ACoerce(inner):
            if layer != EXTERNAL:
                raise EncodeError("a coerced type is external")
            return app(Const("c"), lt, encode(inner, lev, INTERNAL))
        case AIsoUp(carrier, arg):
            if layer != EXTERNAL:
                raise EncodeError("an upward-coerced term is external")
            return app(Const("isoUp"), lt, encode(carrier, lev, INTERNAL),
                       encode(arg, lev, INTERNAL))
        case AIsoDown(carrier, arg):
            if layer != INTERNAL:
                raise EncodeError("a downward-coerced term is internal")
            return app(Const("isoDown"), lt, encode(carrier, lev, INTERNAL),
                       encode(arg, lev, EXTERNAL))
    raise EncodeError(f"not surface syntax: {e!r}")


def encode_context(entries: list[tuple[str, Ast, Level, str]]) -> dict[str, Term]:
    """Translate (name, type, level, layer) entries to a typing context:
    each name's decoded type, a later entry shadowing an earlier one."""
    return {name: app(_decoder(layer), lev.term(), encode(ty, lev, layer))
            for name, ty, lev, layer in entries}
