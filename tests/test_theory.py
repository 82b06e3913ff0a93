import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from morgandk import check, parser, theory
from morgandk.check import (ConstInfo, Signature, TypeCheckError,
                            check_signature, infer)
from morgandk.parser import ParseError, parse_file, parse_term, pretty
from morgandk.rewrite import (DEFAULT_FUEL, Fuel, Holds, critical_pairs,
                              joinable)
from morgandk.surface import (CL, EXTERNAL, INTERNAL, L0, AApp, AEq, AFalse,
                              AFst, AInl, AInr, ALam, ANat, APair, APi, ARefl,
                              ASig, ASnd, ASucc, ASum, ATrue, ATt, AVar,
                              AZero, Level, encode, encode_context,
                              filling_example)
from morgandk.terms import (TYPE, App, Const, Record, Var, alpha_eq, app,
                            lam)
from morgandk.theory import (FULL_CONFIG, NAT_STRENGTHS, TheoryConfig,
                             blocks_for, build_theory,
                             first_attempt_signature, interval_face_rules)

THEORIES = Path(__file__).resolve().parent.parent / "theories"


def _pt(text, sig):
    return parse_term(text, frozenset(sig.consts))


def _flat_configs():
    for t1, t2, t3, nat, univ in itertools.product(
            (False, True), (False, True), (False, True),
            NAT_STRENGTHS, (False, True)):
        yield TheoryConfig(t1, t2, t3, nat, univ, cubical=False)


def _all_configs():
    for cfg in _flat_configs():
        yield cfg
        yield cfg.replace(cubical=True)


def test_every_flat_config_builds():
    for cfg in _flat_configs():
        sig = build_theory(cfg)
        assert "isoUp" in sig.consts


def test_every_cubical_config_builds():
    for cfg in _flat_configs():
        sig = build_theory(TheoryConfig(
            cfg.t1_injectivity, cfg.t2_primitive_iso_as_rewrite,
            cfg.t3_repletion, cfg.nat_morphism_strength,
            cfg.include_weak_univalence, cubical=True))
        assert "primCompTerm" in sig.consts


def test_critical_pair_verdicts_of_every_configuration():
    # the non-cubical rules overlap only in isoUp/isoDown, and under a
    # definitional Nat morphism in natMorph/natMorphInv too, and every
    # pair joins; the cubical ones add 91 pairs, of which exactly two
    # path pairs at the root do not join
    for cfg in _all_configs():
        sig = build_theory(cfg)
        pairs = critical_pairs(sig.rule_list())
        bad = [(cp.rule1, cp.rule2, cp.position) for cp in pairs
               if not isinstance(joinable(sig.reducer(Fuel(DEFAULT_FUEL)),
                                          cp), Holds)]
        definitional = cfg.nat_morphism_strength == "definitional"
        if cfg.cubical:
            assert len(pairs) == (95 if definitional else 93), cfg
            assert bad == [("app.1", "app.2", ()), ("app.1", "app.3", ())], cfg
        else:
            assert len(pairs) == (4 if definitional else 2), cfg
            assert bad == [], cfg


def test_all_off_has_no_optional_constants():
    sig = build_theory(TheoryConfig())
    for absent in ("repletion", "T1", "clift", "WeakUnivalence",
                   "natMorphInv", "cL"):
        assert absent not in sig.consts
    assert "natMorph" in sig.consts


def test_t3_repletion_rule_fires():
    sig = build_theory(TheoryConfig(t3_repletion=True))
    got = sig.reducer().normalize(_pt("c l0 (repletion l0 A B e)", sig))
    assert got == Var("A")


def test_t2_collapses_pair_coercion():
    on = build_theory(TheoryConfig(t2_primitive_iso_as_rewrite=True))
    lhs = _pt("c l0 (Sig l0 exA exB)", on)
    rhs = _pt("xSig l0 (c l0 exA) (clift l0 exA exB)", on)
    assert on.reducer().conv(lhs, rhs)

    off = build_theory(TheoryConfig())
    lhs = _pt("c l0 (Sig l0 exA exB)", off)
    inlined = _pt("xSig l0 (c l0 exA) "
                  "(a : xeps l0 (c l0 exA) => c l0 (exB (isoDown l0 exA a)))",
                  off)
    assert not off.reducer().conv(lhs, inlined)
    assert on.reducer().conv(_pt("c l0 (Sig l0 exA exB)", on),
                             _pt("xSig l0 (c l0 exA) "
                                 "(a : xeps l0 (c l0 exA) => "
                                 "c l0 (exB (isoDown l0 exA a)))", on))


def test_t2_unit_coercion():
    sig = build_theory(TheoryConfig(t2_primitive_iso_as_rewrite=True))
    assert sig.reducer().normalize(_pt("c l0 (True l0)", sig)) \
        == app(Const("xTrue"), Const("l0"))


def test_nat_strength_none_vs_axioms_vs_rules():
    none = build_theory(TheoryConfig())
    ext = build_theory(TheoryConfig(nat_morphism_strength="external_eq"))
    defi = build_theory(TheoryConfig(nat_morphism_strength="definitional"))
    assert "natMorphInv" not in none.consts
    assert "natMorphSection" in ext.consts and not ext.rules.get(
        "natMorphInv")
    assert defi.rules.get("natMorphInv")
    got = defi.reducer().normalize(_pt("natMorphInv l0 (natMorph l0 n)",
                                       defi))
    assert got == Var("n")
    both = defi.reducer().normalize(_pt("natMorph l0 (natMorphInv l0 m)",
                                        defi))
    assert both == Var("m")


def test_bad_nat_strength_rejected():
    with pytest.raises(ValueError):
        TheoryConfig(nat_morphism_strength="propositional")


def test_build_2ltt_is_checkable_and_flat():
    sig = build_theory(FULL_CONFIG.replace(cubical=False))
    assert "WeakUnivalence" in sig.consts
    assert "cL" not in sig.consts


def test_cubical_path_beta(full_sig):
    red = full_sig.reducer()
    got = red.normalize(_pt("app A u v (lam A f) e", full_sig))
    assert got == App(Var("f"), Var("e"))


def test_cubical_face_substitution(full_sig):
    red = full_sig.reducer()
    got = red.normalize(_pt("eq1 (Imax i j)", full_sig))
    assert got == _pt("Fmax (eq1 i) (eq1 j)", full_sig)


def test_fdiscr_type(full_sig):
    want = _pt("i : ceps I -> ceps (cEq F (Fmin (eq0 i) (eq1 i)) 0f)",
               full_sig)
    assert full_sig.reducer().conv(full_sig.consts["Fdiscr"].ty, want)


def test_interval_face_rule_count(full_sig):
    rules = interval_face_rules(full_sig)
    by_head = {}
    for r in rules:
        by_head[r.head] = by_head.get(r.head, 0) + 1
    assert by_head == {"Imin": 5, "Imax": 5, "sym": 5,
                       "Fmin": 5, "Fmax": 5, "eq0": 5, "eq1": 5}


def test_first_attempt_contains_union_rule():
    rules = first_attempt_signature().rules["faceType"]
    assert len(rules) == 6
    assert any(isinstance(r.lhs, App)
               and alpha_eq(r.rhs, _rhs_sum(r)) for r in rules)


def _rhs_sum(r):
    a, b = r.pat_vars[:2] if len(r.pat_vars) >= 2 else ("a", "b")
    return app(Const("cSum"), App(Const("faceType"), Var(a)),
               App(Const("faceType"), Var(b)))


def test_first_attempt_alone_is_confluent(fa_sig):
    own = [r for r in fa_sig.rule_list() if r.head == "faceType"]
    red = fa_sig.reducer()
    assert all(isinstance(joinable(red, cp), Holds)
               for cp in critical_pairs(own))


def test_encode_sigma_shape():
    got = encode(ASig("x", ANat(), ANat()), L0)
    want = app(Const("Sig"), Const("l0"),
               app(Const("Nat"), Const("l0")),
               lam("x", app(Const("eps"), Const("l0"),
                            app(Const("Nat"), Const("l0"))),
                   app(Const("Nat"), Const("l0"))))
    assert got == want


def test_encode_pair_shape():
    got = encode(APair("x", ANat(), ANat(), AZero(), AZero()), L0)
    head = got
    for _ in range(5):
        head = head.fn
    assert head == Const("pair")


def _pair():
    return APair("x", ANat(), ATrue(), AZero(), ATt())


# every former that encodes homomorphically, with its encoding at L0 in
# the internal and the external layer; True marks a type former
_FORMERS = [
    (AFalse(), "False l0", "xFalse l0", True),
    (ATrue(), "True l0", "xTrue l0", True),
    (ANat(), "Nat l0", "xNat l0", True),
    (ASum(ANat(), ATrue()),
     "Sum l0 (Nat l0) (True l0)", "xSum l0 (xNat l0) (xTrue l0)", True),
    (APi("x", ANat(), ANat()),
     "Pi l0 (Nat l0) (x : eps l0 (Nat l0) => Nat l0)",
     "xPi l0 (xNat l0) (x : xeps l0 (xNat l0) => xNat l0)", True),
    (ASig("y", ANat(), ATrue()),
     "Sig l0 (Nat l0) (y : eps l0 (Nat l0) => True l0)",
     "xSig l0 (xNat l0) (y : xeps l0 (xNat l0) => xTrue l0)", True),
    (AEq(ANat(), AZero(), AZero()),
     "Eq l0 (Nat l0) (zero l0) (zero l0)",
     "xEq l0 (xNat l0) (xzero l0) (xzero l0)", True),
    (ATt(), "tt l0", "xtt l0", False),
    (AZero(), "zero l0", "xzero l0", False),
    (ASucc(AZero()), "succ l0 (zero l0)", "xsucc l0 (xzero l0)", False),
    (_pair(),
     "pair l0 (Nat l0) (x : eps l0 (Nat l0) => True l0) (zero l0) (tt l0)",
     "xpair l0 (xNat l0) (x : xeps l0 (xNat l0) => xTrue l0) (xzero l0) "
     "(xtt l0)", False),
    (AFst("u", ANat(), ATrue(), _pair()),
     "p1 l0 (Nat l0) (u : eps l0 (Nat l0) => True l0) "
     "(pair l0 (Nat l0) (x : eps l0 (Nat l0) => True l0) (zero l0) (tt l0))",
     "xp1 l0 (xNat l0) (u : xeps l0 (xNat l0) => xTrue l0) "
     "(xpair l0 (xNat l0) (x : xeps l0 (xNat l0) => xTrue l0) (xzero l0) "
     "(xtt l0))", False),
    (ASnd("v", ANat(), ATrue(), _pair()),
     "p2 l0 (Nat l0) (v : eps l0 (Nat l0) => True l0) "
     "(pair l0 (Nat l0) (x : eps l0 (Nat l0) => True l0) (zero l0) (tt l0))",
     "xp2 l0 (xNat l0) (v : xeps l0 (xNat l0) => xTrue l0) "
     "(xpair l0 (xNat l0) (x : xeps l0 (xNat l0) => xTrue l0) (xzero l0) "
     "(xtt l0))", False),
    (AInl(ANat(), ATrue(), AZero()),
     "inl l0 (Nat l0) (True l0) (zero l0)",
     "xinl l0 (xNat l0) (xTrue l0) (xzero l0)", False),
    (AInr(ANat(), ATrue(), ATt()),
     "inr l0 (Nat l0) (True l0) (tt l0)",
     "xinr l0 (xNat l0) (xTrue l0) (xtt l0)", False),
    (ARefl(ANat(), AZero()),
     "refl l0 (Nat l0) (zero l0)", "xrefl l0 (xNat l0) (xzero l0)", False),
]


@pytest.mark.parametrize("layer", [INTERNAL, EXTERNAL])
@pytest.mark.parametrize("e, internal, external, is_type", _FORMERS,
                         ids=[e.__class__.__name__ for e, *_ in _FORMERS])
def test_encode_formers(full_sig, layer, e, internal, external, is_type):
    want = internal if layer == INTERNAL else external
    got = encode(e, L0, layer)
    assert pretty(got) == want
    # repr shows the binder hints, which pretty could rename
    assert repr(got) == repr(_pt(want, full_sig))
    ty = infer(full_sig, {}, got, full_sig.reducer())
    if is_type:
        assert ty == App(Const("T" if layer == INTERNAL else "xT"),
                         Const("l0"))


def test_encode_variable():
    assert encode(AVar("x"), L0) == Var("x")
    assert encode(AVar("x"), CL, EXTERNAL) == Var("x")


def test_encode_application_is_meta_level(full_sig):
    t = encode(AApp(ALam("x", ANat(), AVar("x")), AZero()), L0)
    assert isinstance(t, App)
    assert full_sig.reducer().normalize(t) == app(Const("zero"),
                                                  Const("l0"))


def test_encode_context_shapes():
    assert encode_context([]) == {}
    nat = app(Const("eps"), Const("l0"), app(Const("Nat"), Const("l0")))
    assert encode_context([("x", ANat(), L0, INTERNAL)]) == {"x": nat}
    ctx = encode_context([("p", ASig("x", ANat(), ANat()), L0, INTERNAL)])
    assert ctx == {"p": app(Const("eps"), Const("l0"),
                            encode(ASig("x", ANat(), ANat()), L0))}
    # a later entry of a name shadows an earlier one
    ctx = encode_context([("x", ASig("y", ANat(), ANat()), L0, INTERNAL),
                          ("x", ANat(), L0, INTERNAL)])
    assert ctx == {"x": nat}


def test_levels():
    assert Level("l0").term() == Const("l0")
    assert Level("l0").suc().term() == App(Const("lsuc"), Const("l0"))
    assert Level("l0", 2).pred() == Level("l0", 1)
    with pytest.raises(ValueError):
        Level("l0").pred()


def test_filling_example_shape(full_sig):
    term, ty = filling_example()
    red = full_sig.reducer()
    got = infer(full_sig, {}, term, red)
    assert red.conv(got, ty)


def test_corpus_files_parse_as_their_own_reexport(tmp_path):
    from morgandk.theory import write_theory_files
    written = write_theory_files(tmp_path)
    names = {p.name for p in written}
    assert "01-2ltt-core.dk" in names
    assert "faces-first-attempt.dk" in names
    assert "CORRECTIONS.md" in names


def test_package_build_ships_the_corpus(tmp_path):
    # build_py copies package data through the src/morgandk/theories
    # symlink; the built package must carry real files and use them
    pytest.importorskip("setuptools")
    root = THEORIES.parent
    lib, egg = tmp_path / "lib", tmp_path / "egg"
    egg.mkdir()
    setup = "from setuptools import setup; setup()"
    subprocess.run([sys.executable, "-c", setup, "-q",
                    "egg_info", "--egg-base", str(egg),
                    "build_py", "--build-lib", str(lib)],
                   cwd=root, check=True, capture_output=True)
    built = lib / "morgandk" / "theories"
    shipped = {p.relative_to(THEORIES) for p in THEORIES.rglob("*")
               if p.is_file()}
    assert {p.relative_to(built) for p in built.rglob("*")
            if p.is_file()} == shipped
    assert not any(p.is_symlink() for p in (built, *built.rglob("*")))
    script = (
        "import sys\n"
        "import morgandk.theory as t\n"
        "assert t.__file__.startswith(sys.argv[1]), t.__file__\n"
        "for nat in t.NAT_STRENGTHS:\n"
        "    cfg = t.FULL_CONFIG.replace(nat_morphism_strength=nat)\n"
        "    t.build_theory(cfg)\n"
        "t.first_attempt_signature()\n"
        "t.write_theory_files(sys.argv[2])\n")
    subprocess.run([sys.executable, "-c", script, str(lib),
                    str(tmp_path / "export")],
                   cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(lib)},
                   check=True)
    assert (tmp_path / "export" / "CORRECTIONS.md").is_file()


# (constants, rules) each corpus file adds to a signature, as counted
# before the builds shared parses
_FILE_COUNTS = {
    "01-2ltt-core.dk": (62, 30), "02-axioms-t1.dk": (1, 0),
    "03-axioms-t2.dk": (1, 4), "04-axioms-t3.dk": (1, 1),
    "05-univalence.dk": (5, 4), "06-nat-morphism.dk": (1, 2),
    "nat-external_eq/06-nat-morphism.dk": (3, 0),
    "07-cubical-core.dk": (15, 13), "08-cubical-interval.dk": (14, 15),
    "09-cubical-paths.dk": (3, 3), "10-cubical-faces.dk": (16, 20),
    "11-cubical-facetype.dk": (20, 4), "12-cubical-systems.dk": (1, 0),
    "13-cubical-comp.dk": (2, 0), "14-examples-2ltt.dk": (16, 11),
    "15-examples-filling.dk": (6, 1),
}

CORPUS_DIR = blocks_for(TheoryConfig())[0].parent


@pytest.fixture
def cold_caches(monkeypatch):
    monkeypatch.setattr(theory, "_CACHE", {})


def test_cold_sweep_parses_each_file_once(cold_caches, monkeypatch):
    tokenized, parsed = Counter(), Counter()
    tokenize, parse = parser.tokenize, theory.parse_file

    def counting_tokenize(text, file="<input>"):
        tokenized[file, text] += 1
        return tokenize(text, file)

    def counting_parse(text, file, consts):
        parsed[file, text] += 1
        return parse(text, file, consts)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    monkeypatch.setattr(theory, "parse_file", counting_parse)
    paths = set()
    for cfg in _all_configs():
        sig = build_theory(cfg)
        blocks = blocks_for(cfg)
        paths.update(blocks)
        added = [_FILE_COUNTS[str(p.relative_to(CORPUS_DIR))] for p in blocks]
        assert (len(sig.consts), len(sig.rule_list())) == (
            sum(c for c, _ in added), sum(r for _, r in added)), cfg
    assert len(paths) == len(_FILE_COUNTS) == 16
    files = Counter({(p.name, p.read_text()): 1 for p in paths})
    assert tokenized == files
    assert parsed == files


def test_a_corpus_file_may_start_with_a_byte_order_mark(cold_caches,
                                                        tmp_path):
    # the same declarations and spans as the file without the mark
    core = CORPUS_DIR / "01-2ltt-core.dk"
    parses = []
    for folder, prefix in (("plain", ""), ("marked", "\ufeff")):
        path = tmp_path / folder / core.name
        path.parent.mkdir()
        path.write_text(prefix + core.read_text(), encoding="utf-8")
        decls, _ = theory._parse(path, Signature())
        parses.append((decls, repr(decls)))
    assert parses[0] == parses[1] and len(parses[0][0]) == 86


def _reference_blocks(cfg):
    """The corpus files a configuration selects, written out flag by
    flag."""
    names = ["01-2ltt-core.dk"]
    if cfg.t1_injectivity:
        names.append("02-axioms-t1.dk")
    if cfg.t2_primitive_iso_as_rewrite:
        names.append("03-axioms-t2.dk")
    if cfg.t3_repletion:
        names.append("04-axioms-t3.dk")
    if cfg.include_weak_univalence:
        names.append("05-univalence.dk")
    if cfg.nat_morphism_strength == "external_eq":
        names.append("nat-external_eq/06-nat-morphism.dk")
    elif cfg.nat_morphism_strength == "definitional":
        names.append("06-nat-morphism.dk")
    if cfg.cubical:
        names += ["07-cubical-core.dk", "08-cubical-interval.dk",
                  "09-cubical-paths.dk", "10-cubical-faces.dk",
                  "11-cubical-facetype.dk", "12-cubical-systems.dk",
                  "13-cubical-comp.dk"]
    names.append("14-examples-2ltt.dk")
    if cfg.cubical:
        names.append("15-examples-filling.dk")
    return names


def test_blocks_for_selects_the_files_in_dependency_order():
    configs = list(_all_configs())
    assert len(set(configs)) == 96
    for cfg in configs:
        assert [p.relative_to(CORPUS_DIR).as_posix()
                for p in blocks_for(cfg)] == _reference_blocks(cfg), cfg


def test_first_attempt_checks_core_through_faces(monkeypatch):
    built = []
    monkeypatch.setattr(theory, "_build", built.append)
    first_attempt_signature()
    assert [p.relative_to(CORPUS_DIR).as_posix() for p in built[0]] == [
        "01-2ltt-core.dk", "07-cubical-core.dk", "08-cubical-interval.dk",
        "09-cubical-paths.dk", "10-cubical-faces.dk",
        "quarantine/faces-first-attempt.dk"]


def test_cached_parses_equal_fresh_ones(cold_caches):
    # file-path prefix -> uncached parse of its last file, and the
    # namespace after it
    fresh = {(): ((), set())}
    shown = set()
    for cfg in _all_configs():
        sig = Signature()
        blocks = tuple(blocks_for(cfg))
        for n, path in enumerate(blocks, 1):
            if blocks[:n] not in fresh:
                c = set(fresh[blocks[:n - 1]][1])
                fresh[blocks[:n]] = (
                    parse_file(path.read_text(), path.name, c), c)
            expected, fresh_consts = fresh[blocks[:n]]
            entry = theory._parse(path, sig)
            theory._check(entry, sig)
            cached = entry[0]
            assert list(cached) == expected
            # == skips binder hints; repr shows every field, once per parse
            if id(cached) not in shown:
                shown.add(id(cached))
                assert ([repr(d) for d in cached]
                        == [repr(d) for d in expected])
            assert set(sig.consts) == fresh_consts
    parses = sum(len(p) for _, _, p in theory._CACHE.values())
    assert (len(theory._CACHE), parses) == (16, 16)


def test_failed_parse_raises_as_parse_file_and_caches_nothing(cold_caches):
    core, t1 = blocks_for(TheoryConfig(t1_injectivity=True))[:2]
    good = theory._build((core,))
    # declare T1, the name 02-axioms-t1.dk declares, ahead of it
    clash = good.copy()
    check.check_declaration(
        clash, parse_file(t1.read_text(), t1.name, set(good.consts))[0])

    def failure(parse):
        with pytest.raises(ParseError) as err:
            parse()
        return str(err.value), err.value.msg, err.value.span

    expected = failure(
        lambda: parse_file(t1.read_text(), t1.name, set(clash.consts)))
    assert expected[1] == "'T1' is already declared"
    assert failure(lambda: theory._parse(t1, clash)) == expected
    assert t1 not in theory._CACHE
    # with the good parse cached, the clashing namespace misses it
    theory._parse(t1, good)
    before = dict(theory._CACHE[t1][2])
    assert failure(lambda: theory._parse(t1, clash)) == expected
    assert theory._CACHE[t1][2] == before


def test_a_file_rewritten_in_place_is_parsed_again(cold_caches, tmp_path):
    copies = []
    for path in blocks_for(FULL_CONFIG):
        copies.append(tmp_path / path.name)
        copies[-1].write_text(path.read_text())
    before = theory._build(tuple(copies))
    assert "extra" not in before.consts
    last = copies[-1]
    old_stamp = theory._CACHE[last][0]
    last.write_text(last.read_text() + "extra : Type.\n")
    after = theory._build(tuple(copies))
    assert list(after.consts) == list(before.consts) + ["extra"]
    # the old parse is gone, and its checks with it: no stale entry
    stamp, _, parses = theory._CACHE[last]
    ((decls, checks),) = parses.values()
    assert stamp != old_stamp and decls[-1].name == "extra"
    assert [len(states) for states in checks.values()] == [1]


def _checks():
    """(path, declared names a parse saw) -> a copy of its checks, for
    every parse in the theory cache."""
    return {(path, seen): {key: dict(states)
                           for key, states in checks.items()}
            for path, (_, _, parses) in theory._CACHE.items()
            for seen, (_, checks) in parses.items()}


def _shown(sig, memo=None):
    """Everything a signature holds, binder hints included.  `memo`
    keeps the repr of each object by id, for objects that outlive it."""
    memo = {} if memo is None else memo

    def shown(x):
        got = memo.get(id(x))
        if got is None:
            got = memo[id(x)] = repr(x)
        return got

    return ([(n, shown(info)) for n, info in sig.consts.items()],
            [shown(r) for r in sig.rule_list()],
            [(head, [shown(r) for r in rs]) for head, rs in sig.rules.items()])


def _fresh_signatures(configs):
    """config -> `check_signature` over fresh parses of its blocks, with
    no theory cache; each file-path prefix is checked once."""
    by_prefix = {(): (Signature(), set())}
    out = {}
    for cfg in configs:
        blocks = tuple(blocks_for(cfg))
        for n, path in enumerate(blocks, 1):
            if blocks[:n] not in by_prefix:
                sig, consts = by_prefix[blocks[:n - 1]]
                sig, consts = sig.copy(), set(consts)
                check_signature(parse_file(path.read_text(), path.name,
                                           consts), sig=sig)
                by_prefix[blocks[:n]] = (sig, consts)
        out[cfg] = by_prefix[blocks][0]
    return out


def test_cold_cached_builds_equal_fresh_checks(cold_caches):
    configs = list(_all_configs())
    fresh = _fresh_signatures(configs)
    built = {cfg: build_theory(cfg) for cfg in configs}
    memo = {}
    for cfg in configs:
        assert _shown(built[cfg], memo) == _shown(fresh[cfg], memo), cfg


def test_cold_sweep_checks_each_file_once_per_key(cold_caches, monkeypatch):
    files, decls = Counter(), Counter()
    check_file, check_decl = theory.check_signature, check.check_declaration

    def counting_file(ds, *args, **kwargs):
        files[ds[0].span.file] += 1
        return check_file(ds, *args, **kwargs)

    def counting_decl(sig, d, *args):
        decls[d.span.file] += 1
        return check_decl(sig, d, *args)

    monkeypatch.setattr(theory, "check_signature", counting_file)
    monkeypatch.setattr(check, "check_declaration", counting_decl)
    for cfg in _all_configs():
        build_theory(cfg)
    assert (sum(files.values()), sum(decls.values())) == (26, 311)
    # the core reads none of the optional blocks
    assert files["01-2ltt-core.dk"] == 1
    # a warm sweep re-reads stored keys: no check
    files.clear()
    for cfg in _all_configs():
        build_theory(cfg)
    assert not files


def test_cold_sweep_bookkeeping_prints_and_copies_nothing(cold_caches,
                                                          monkeypatch):
    # a miss reads what it stores off the names the check touched, and
    # the dedupe of repeated results compares binder hints without
    # printing: no signature copy, no repr, and the same work
    calls = Counter()

    def counting(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    counting(Record, "__repr__")
    counting(Signature, "copy")
    counting(theory, "check_signature")
    counting(check, "check_declaration")
    for cfg in _all_configs():
        build_theory(cfg)
    assert calls == {"check_signature": 26, "check_declaration": 311}
    calls.clear()
    for cfg in _all_configs():
        build_theory(cfg)
    assert not calls


class _Recording:
    """Forwards the lookups and writes a check makes to a namespace,
    noting every name looked up."""

    def __init__(self, data, seen):
        self.data, self.seen = data, seen

    def __contains__(self, key):
        self.seen.add(key)
        return key in self.data

    def get(self, key, default=None):
        self.seen.add(key)
        return self.data.get(key, default)

    def setdefault(self, key, default=None):
        self.seen.add(key)
        return self.data.setdefault(key, default)

    def __setitem__(self, key, value):
        self.data[key] = value


def test_a_file_check_reads_only_names_in_its_key(cold_caches, monkeypatch):
    check_file = theory.check_signature
    recorded = Counter()

    def recording_check(decls, sig):
        consts, rules = sig.consts, sig.rules
        seen = (set(), set())
        sig.consts = _Recording(consts, seen[0])
        sig.rules = _Recording(rules, seen[1])
        try:
            check_file(decls, sig=sig)
        finally:
            sig.consts, sig.rules = consts, rules
        recorded[id(decls), tuple(map(frozenset, seen))] += 1

    monkeypatch.setattr(theory, "check_signature", recording_check)
    for cfg in _all_configs():
        build_theory(cfg)
    stored = Counter({
        (id(decls), tuple(map(frozenset, key))): len(states)
        for _, _, parses in theory._CACHE.values()
        for decls, checks in parses.values()
        for key, states in checks.items()})
    assert sum(recorded.values()) == 26
    assert recorded == stored


def test_a_new_rule_that_a_file_reaches_forces_a_recheck(
        cold_caches, tmp_path, monkeypatch):
    # b.dk mentions g alone; g unfolds to `f t`, so b.dk checks exactly
    # when a rule on f reduces that to t
    files = {
        "a.dk": "T : Type.\nt : T.\nP : T -> Type.\n"
                "def f : T -> T.\ndef g : T := f t.\n",
        "r.dk": "[x] f x --> x.\n",
        "b.dk": "def h : P g -> P t := y => y.\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    a, r, b = (tmp_path / name for name in files)
    checked = Counter()
    check_file = theory.check_signature

    def counting_check(decls, sig):
        checked[decls[0].span.file] += 1
        return check_file(decls, sig=sig)

    monkeypatch.setattr(theory, "check_signature", counting_check)
    assert "h" in theory._build((a, r, b)).consts
    with pytest.raises(TypeCheckError) as err:
        theory._build((a, b))
    assert (err.value.kind, err.value.span.file) == ("mismatch", "b.dk")
    assert checked == {"a.dk": 1, "r.dk": 1, "b.dk": 2}
    theory._build((a, r, b))
    assert checked == {"a.dk": 1, "r.dk": 1, "b.dk": 2}


def test_a_rule_that_a_file_never_fires_forces_no_recheck(
        cold_caches, tmp_path, monkeypatch):
    # b.dk looks f up, but its check never reduces a term headed by f
    files = {"a.dk": "T : Type.\ndef f : T -> T.\n",
             "r.dk": "[x] f x --> x.\n",
             "b.dk": "def k : T -> T := f.\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    a, r, b = (tmp_path / name for name in files)
    checked = Counter()
    check_file = theory.check_signature

    def counting_check(decls, sig):
        checked[decls[0].span.file] += 1
        return check_file(decls, sig=sig)

    monkeypatch.setattr(theory, "check_signature", counting_check)
    assert "k" in theory._build((a, b)).consts
    built = theory._build((a, r, b))
    assert checked == {"a.dk": 1, "r.dk": 1, "b.dk": 1}
    consts = set()
    assert _shown(built) == _shown(check_signature(
        [d for p in (a, r, b)
         for d in parse_file(p.read_text(), p.name, consts)]))


def test_a_check_that_reads_a_namespace_otherwise_raises(
        cold_caches, monkeypatch):
    check_file = theory.check_signature

    def iterating_check(decls, sig):
        list(sig.consts)
        return check_file(decls, sig=sig)

    monkeypatch.setattr(theory, "check_signature", iterating_check)
    with pytest.raises(TypeError):
        build_theory(TheoryConfig())
    # the core's parse is cached, with no check
    assert list(_checks().values()) == [{}]
    sig = Signature()
    with pytest.raises(TypeError):
        theory._check(theory._parse(blocks_for(TheoryConfig())[0], sig), sig)
    # the failed check put the plain namespaces back
    assert type(sig.consts) is dict and type(sig.rules) is dict


def test_checks_keep_binder_hints_apart(cold_caches, tmp_path):
    # f's types in x.dk and y.dk are == and differ only in their binder
    # hint; g takes its type from f, so each build needs its own check
    files = {"x.dk": "T : Type.\ndef f : x : T -> T.\n",
             "y.dk": "T : Type.\ndef f : y : T -> T.\n",
             "g.dk": "def g := f.\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    x, y, g = (tmp_path / name for name in files)
    for paths in ((x, g), (y, g)):
        consts = set()
        fresh = check_signature(
            [d for p in paths
             for d in parse_file(p.read_text(), p.name, consts)])
        assert _shown(theory._build(paths)) == _shown(fresh)
    assert theory._build((y, g)).consts["g"].ty.var == "y"


def test_mutating_a_built_signature_leaves_the_next_build_unchanged(
        cold_caches):
    sig = build_theory(FULL_CONFIG)
    before = _shown(sig)
    sig.consts["Imin"] = ConstInfo("Imin", TYPE, static=True, body=None)
    del sig.consts["cL"]
    sig.rules["Imin"].clear()
    sig.rules["sym"].append(sig.rules["Imax"][0])
    for name in reversed(list(sig.consts)):  # the declaration order
        sig.consts[name] = sig.consts.pop(name)
    assert _shown(build_theory(FULL_CONFIG)) == before


def test_failed_check_raises_as_check_signature_and_caches_nothing(
        cold_caches, tmp_path):
    blocks = blocks_for(FULL_CONFIG)
    (tmp_path / "good").mkdir()
    (tmp_path / "bad").mkdir()
    good = []
    for path in blocks:
        good.append(tmp_path / "good" / path.name)
        good[-1].write_text(path.read_text())
    at = [p.name for p in blocks].index("09-cubical-paths.dk")
    broken = tmp_path / "bad" / blocks[at].name
    broken.write_text(good[at].read_text() + "def broken : Type := Type.\n")
    bad = good[:at] + [broken] + good[at + 1:]

    consts = set()
    decls = [d for p in bad
             for d in parse_file(p.read_text(), p.name, consts)]
    with pytest.raises(TypeCheckError) as err:
        check_signature(decls)
    expected = (err.value.render(), err.value.span, err.value.kind)
    assert expected[1].file == broken.name and expected[2] == "mismatch"

    reference = _shown(theory._build(tuple(good)))
    assert reference == _shown(_fresh_signatures([FULL_CONFIG])[FULL_CONFIG])
    cached = _checks()
    for _ in range(2):
        with pytest.raises(TypeCheckError) as err:
            theory._build(tuple(bad))
        assert (err.value.render(), err.value.span,
                err.value.kind) == expected
        # the broken file's parse is cached, with no check
        checks = _checks()
        assert [v for (path, _), v in checks.items() if path == broken] == [{}]
        assert {k: v for k, v in checks.items() if k[0] != broken} == cached
    assert _shown(theory._build(tuple(good))) == reference
