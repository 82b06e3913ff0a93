import itertools
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from morgandk import parser, theory
from morgandk.check import infer
from morgandk.parser import ParseError, parse_file, parse_term
from morgandk.terms import App, Const, Ctx, Var, alpha_eq, app, lam
from morgandk.theory import (CL, EXTERNAL, FULL_CONFIG, INTERNAL, L0,
                             NAT_STRENGTHS, AApp, ALam, ANat, APair, ASig,
                             AVar, AZero, EncodeError, Level, TheoryConfig,
                             blocks_for, build_theory, encode,
                             encode_context, filling_example,
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
        yield replace(cfg, cubical=True)


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
    sig = build_theory(replace(FULL_CONFIG, cubical=False))
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
    from morgandk.rewrite import critical_pairs, joinable, Holds
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


def test_encode_variable():
    assert encode(AVar("x"), L0) == Var("x")
    assert encode(AVar("x"), CL, EXTERNAL) == Var("x")


def test_encode_application_is_meta_level(full_sig):
    t = encode(AApp(ALam("x", ANat(), AVar("x")), AZero()), L0)
    assert isinstance(t, App)
    assert full_sig.reducer().normalize(t) == app(Const("zero"),
                                                  Const("l0"))


def test_encode_context_shapes():
    assert len(encode_context([])) == 0
    ctx = encode_context([("x", ANat(), L0, INTERNAL)])
    assert ctx.lookup("x") == app(Const("eps"), Const("l0"),
                                  app(Const("Nat"), Const("l0")))
    ctx = encode_context([("p", ASig("x", ANat(), ANat()), L0, INTERNAL)])
    assert ctx.lookup("p") == app(Const("eps"), Const("l0"),
                                  encode(ASig("x", ANat(), ANat()), L0))


def test_levels():
    assert Level("l0").term() == Const("l0")
    assert Level("l0").suc().term() == App(Const("lsuc"), Const("l0"))
    assert Level("l0", 2).pred() == Level("l0", 1)
    with pytest.raises(ValueError):
        Level("l0").pred()


def test_filling_example_shape(full_sig):
    term, ty = filling_example()
    red = full_sig.reducer()
    got = infer(full_sig, Ctx(), term, red)
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
        "from dataclasses import replace\n"
        "import morgandk.theory as t\n"
        "assert t.__file__.startswith(sys.argv[1]), t.__file__\n"
        "for nat in t.NAT_STRENGTHS:\n"
        "    cfg = replace(t.FULL_CONFIG, nat_morphism_strength=nat)\n"
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
    monkeypatch.setattr(theory, "_BUILD_CACHE", {})
    monkeypatch.setattr(theory, "_PARSE_CACHE", {})


def test_cold_sweep_parses_each_file_once(cold_caches, monkeypatch):
    tokenized, parsed = Counter(), Counter()
    tokenize, parse = parser.tokenize, theory.parse_file

    def counting_tokenize(text, file="<input>"):
        tokenized[file, text] += 1
        return tokenize(text, file)

    def counting_parse(text, file, *namespace):
        parsed[file, text] += 1
        return parse(text, file, *namespace)

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


def test_cached_parses_equal_fresh_ones(cold_caches):
    # file-path prefix -> uncached parse of its last file, and the
    # namespace after it
    fresh = {(): ((), set(), set())}
    shown = set()
    for cfg in _all_configs():
        consts, defs = set(), set()
        blocks = tuple(blocks_for(cfg))
        for n, path in enumerate(blocks, 1):
            if blocks[:n] not in fresh:
                _, c, d = fresh[blocks[:n - 1]]
                c, d = set(c), set(d)
                fresh[blocks[:n]] = (
                    parse_file(path.read_text(), path.name, c, d), c, d)
            expected, fresh_consts, fresh_defs = fresh[blocks[:n]]
            cached = theory._parse(path, consts, defs)
            assert list(cached) == expected
            # == skips binder hints; repr shows every field, once per parse
            if id(cached) not in shown:
                shown.add(id(cached))
                assert ([repr(d) for d in cached]
                        == [repr(d) for d in expected])
            assert (consts, defs) == (fresh_consts, fresh_defs)
    parses = sum(len(p) for _, p in theory._PARSE_CACHE.values())
    assert (len(theory._PARSE_CACHE), parses) == (16, 16)


def test_failed_parse_raises_as_parse_file_and_caches_nothing(cold_caches):
    core, t1 = blocks_for(TheoryConfig(t1_injectivity=True))[:2]
    consts, defs = set(), set()
    theory._parse(core, consts, defs)
    good = (set(consts), set(defs))
    # declare T1, the name 02-axioms-t1.dk declares, ahead of it
    clash = parse_file(t1.read_text(), t1.name, set(consts), set(defs))[0]
    consts.add(clash.name)

    def failure(parse_with):
        with pytest.raises(ParseError) as err:
            parse_with(set(consts), set(defs))
        return str(err.value), err.value.msg, err.value.span

    expected = failure(lambda c, d: parse_file(t1.read_text(), t1.name, c, d))
    assert expected[1] == "'T1' is already declared"
    assert failure(lambda c, d: theory._parse(t1, c, d)) == expected
    assert t1 not in theory._PARSE_CACHE
    # with the good parse cached, the clashing namespace misses it
    theory._parse(t1, *good)
    before = dict(theory._PARSE_CACHE[t1][1])
    assert failure(lambda c, d: theory._parse(t1, c, d)) == expected
    assert theory._PARSE_CACHE[t1][1] == before
