import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morgandk import algebra, theory
from morgandk.cli import main
from morgandk.parser import parse_term
from morgandk.terms import alpha_eq
from morgandk.theory import FULL_CONFIG, blocks_for

SRC = str(Path(__file__).resolve().parent.parent / "src")
THEORIES = Path(__file__).resolve().parent.parent / "theories"
CORPUS = sorted(str(p) for p in THEORIES.glob("*.dk"))
QUARANTINE = str(THEORIES / "quarantine" / "faces-first-attempt.dk")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_shipped_corpus(capsys):
    code, out, err = run(capsys, "check", *CORPUS)
    assert code == 0
    assert "15-examples-filling.dk" in out


def test_check_quarantine_merge_types_fine(capsys):
    code, _, _ = run(capsys, "check",
                     str(THEORIES / "01-2ltt-core.dk"),
                     str(THEORIES / "07-cubical-core.dk"),
                     str(THEORIES / "08-cubical-interval.dk"),
                     str(THEORIES / "09-cubical-paths.dk"),
                     str(THEORIES / "10-cubical-faces.dk"),
                     QUARANTINE)
    assert code == 0


def test_check_fuel_is_per_declaration(capsys):
    # checking the whole corpus takes 157 rewrite steps, but no single
    # declaration takes more than 50
    code, _, _ = run(capsys, "check", "--fuel", "50", *CORPUS)
    assert code == 0
    code, _, err = run(capsys, "check", "--fuel", "20", *CORPUS)
    assert code == 3 and "fuel" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such.dk")
    assert code == 2
    assert "no such file" in err


def test_check_a_directory_is_not_a_file(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: not a file: {tmp_path}\n")


_BOM = "\ufeff"


def test_a_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    # the mark is dropped on reading: the same output and the same
    # spans as the file without it, for check and for reduce
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    outputs = []
    for text in ("A : Type.\ndef id : A -> A.\n[x] id x --> x.\n",
                 "A : ) .\n"):
        got = []
        for folder, prefix in ((plain, ""), (marked, _BOM)):
            f = folder / "t.dk"
            f.write_text(prefix + text, encoding="utf-8")
            runs = [run(capsys, "check", str(f)),
                    run(capsys, "reduce", "id (id a)", str(f))]
            got.append([(code, out.replace(str(folder), "DIR"),
                         err.replace(str(folder), "DIR"))
                        for code, out, err in runs])
        assert got[0] == got[1]
        outputs.append(got[0])
    parse_error = "parse error: DIR/t.dk:1:5: expected a term, found ')'\n"
    assert outputs == [
        [(0, "checked DIR/t.dk (3 declarations)\n", ""), (0, "a\n", "")],
        2 * [(2, "", parse_error)]]


def test_a_byte_order_mark_elsewhere_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "t.dk"
    f.write_text(f"{_BOM}A : Type.\nB :{_BOM} A.\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out, err) == (
        2, "", f"parse error: {f}:2:4: unexpected character '\\ufeff'\n")


def test_a_decoding_error_counts_the_byte_order_mark(tmp_path):
    f = tmp_path / "latin1.dk"
    f.write_bytes(_BOM.encode() + "A : Type.\ncafé : A -> Type.\n".encode(
        "latin-1"))
    done = _check_in_the_c_locale(f)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {f}: not valid UTF-8 at byte 16\n")


def _run_in_locale(argv, locale="C"):
    """`morgandk *argv` in a fresh process under `locale`, with UTF-8
    mode and locale coercion off, so that Python decodes the arguments
    with the locale's codec (ASCII for C).  An argument may be bytes;
    the output is read as UTF-8."""
    env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": locale,
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "morgandk", *argv],
                          env=env, capture_output=True, encoding="utf-8")


def _check_in_the_c_locale(path):
    return _run_in_locale(["check", str(path)])


def test_check_reads_utf8_whatever_the_locale(tmp_path):
    f = tmp_path / "cafe.dk"
    f.write_bytes("A : Type.\ncafé : A -> Type.\n".encode("utf-8"))
    done = _check_in_the_c_locale(f)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"checked {f} (2 declarations)\n", "")


def test_check_rejects_a_file_that_is_not_utf8(tmp_path):
    f = tmp_path / "latin1.dk"
    f.write_bytes("A : Type.\ncafé : A -> Type.\n".encode("latin-1"))
    done = _check_in_the_c_locale(f)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {f}: not valid UTF-8 at byte 13\n")


def test_diagnostics_are_utf8_whatever_the_locale(tmp_path):
    f = tmp_path / "cafe.dk"
    f.write_bytes("A : Type.\nc : café.\n".encode("utf-8"))
    done = [_run_in_locale(["check", str(f)], locale)
            for locale in ("C", "C.UTF-8")]
    assert [(d.returncode, d.stdout, d.stderr) for d in done] == 2 * [(
        2, "", f"parse error: {f}:2:5: unbound identifier 'café'\n")]


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_terms_are_read_as_utf8_whatever_the_locale(locale):
    # the arguments' bytes, so that this runs under an ASCII locale too
    done = [_run_in_locale(argv, locale) for argv in (
        ["reduce", "café".encode()],
        ["oracle", "interval", "Imin café café".encode(), "café".encode()])]
    assert [(d.returncode, d.stdout, d.stderr) for d in done] == [
        (0, "café\n", ""), (0, "holds\n", "")]


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_a_term_that_is_not_utf8_is_an_input_error(locale):
    done = [_run_in_locale(argv, locale) for argv in (
        ["reduce", "café".encode("latin-1")],
        ["oracle", "face", "1f", b"eq0 \xff"])]
    assert [(d.returncode, d.stdout, d.stderr) for d in done] == [
        (2, "", "error: the term argument is not valid UTF-8 at byte 3\n"),
        (2, "", "error: the rhs argument is not valid UTF-8 at byte 4\n")]


def test_check_type_error_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.dk"
    bad.write_text("A : Type.\nB : A.\nC : B.\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "bad.dk:3:1" in err


def test_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.dk"
    bad.write_text("A :")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


def test_check_parse_error_located_in_a_later_file(capsys, tmp_path):
    good, bad = tmp_path / "good.dk", tmp_path / "bad.dk"
    good.write_text("A : Type.\n")
    bad.write_text("B : A.\n(; the next line is cut short ;)\nC : A -> ).\n")
    code, _, err = run(capsys, "check", str(good), str(bad))
    assert code == 2
    assert err == f"parse error: {bad}:3:10: expected a term, found ')'\n"


@pytest.mark.parametrize("text,where", [
    ("A : Type.\ndef f (Type : A) : A := Type.\n", "2:8"),
    ("A : Type.\ndef g : A -> A.\n[Type] g Type --> Type.\n", "3:2"),
])
def test_check_refuses_type_as_a_bound_name(capsys, tmp_path, text, where):
    bad = tmp_path / "bad.dk"
    bad.write_text(text)
    assert run(capsys, "check", str(bad)) == (
        2, "", f"parse error: {bad}:{where}: 'Type' is reserved\n")


_RULE_CONTEXT = ("T : Type. U : Type. c : T. def f : T -> T. "
                 "def h : T -> U -> T. def g : T -> T := x : T => x.\n")


@pytest.mark.parametrize("rule,code,first", [
    ("[x] h x x --> x.", 1, "type error: {}:1:1: [rule-ill-typed] pattern "
     "variable 'x' is used at incompatible types"),
    ("[] f (c c) --> c.", 1, "type error: {}:1:1: [rule-ill-typed] "
     "over-applied constant 'c' in pattern"),
    ("[x, y] f x y --> x.", 1, "type error: {}:1:1: [rule-ill-typed] rule "
     "head 'f' is over-applied"),
    ("[F, x] f (F x) --> x.", 1, "type error: {}:1:1: [rule-ill-typed] "
     "pattern variables must occur bare in left-hand sides"),
    ("[x] g x --> x.", 1, "type error: {}:1:1: [rule-ill-typed] 'g' already "
     "has a body; it cannot take rules"),
    ("[] c --> c.", 1, "type error: {}:1:1: [rule-ill-typed] rule head 'c' "
     "is static; only 'def' constants may be rewritten"),
    ("[x] x --> x.", 2, "parse error: {}:1:1: rule left-hand side must be "
     "headed by a declared constant"),
])
def test_check_rejects_a_misshapen_rule(capsys, tmp_path, rule, code, first):
    ctx, bad = tmp_path / "ctx.dk", tmp_path / "rule.dk"
    ctx.write_text(_RULE_CONTEXT)
    bad.write_text(rule + "\n")
    got, out, err = run(capsys, "check", str(ctx), str(bad))
    assert (got, out, err.splitlines()[0]) == (
        code, f"checked {ctx} (6 declarations)\n", first.format(bad))


def test_reduce_builtin_theory(capsys):
    code, out, _ = run(capsys, "reduce", "sym (sym i)")
    assert code == 0 and out.strip() == "i"
    code, out, _ = run(capsys, "reduce", "x")
    assert code == 0 and out.strip() == "x"


def test_reduce_keeps_a_captured_constant_free(capsys):
    # the constant function into l0, not the identity
    code, out, _ = run(capsys, "reduce", "(x => l0 => x) l0")
    assert code == 0 and out.strip() == "l0_0 => l0"


def test_reduce_under_files(capsys, tmp_path):
    ctx = tmp_path / "ctx.dk"
    ctx.write_text("A : T l0.\nB : eps l0 A -> T l0.\n"
                   "a : eps l0 A.\nb : eps l0 (B a).\n")
    code, out, _ = run(capsys, "reduce", "p1 l0 A B (pair l0 A B a b)",
                       *CORPUS, str(ctx))
    assert code == 0 and out.strip() == "a"


def test_reduce_trace_json_replays(capsys, full_sig):
    code, out, _ = run(capsys, "reduce", "--trace", "--format",
                       "json-lines", "Imin 1 (sym (sym (Imax 0 i)))")
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    assert events[-1]["event"] == "normal"
    steps = [(tuple(e["path"]), e["rule"]) for e in events
             if e["event"] == "step"]
    start = parse_term("Imin 1 (sym (sym (Imax 0 i)))",
                       frozenset(full_sig.consts))
    replayed = full_sig.reducer().replay(start, steps)
    want = parse_term(events[-1]["term"], frozenset(full_sig.consts))
    assert alpha_eq(replayed, want)


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_reduce_trace_out_of_fuel_prints_the_steps_taken(capsys, fmt):
    code, full, _ = run(capsys, "reduce", "--trace", "--format", fmt,
                        "exDouble exTwo")
    assert code == 0 and len(full.splitlines()) > 4
    code, out, err = run(capsys, "reduce", "--trace", "--fuel", "3",
                         "--format", fmt, "exDouble exTwo")
    assert (code, out, err) == (
        3, "".join(full.splitlines(keepends=True)[:3]),
        "error: fuel exhausted\n")
    # untraced, nothing is printed but the error
    code, out, err = run(capsys, "reduce", "--fuel", "3", "--format", fmt,
                         "exDouble exTwo")
    assert (code, out, err) == (3, "", "error: fuel exhausted\n")


def test_reduce_refuses_a_flag_with_files(capsys):
    # the flag selects the built-in theory, which the files replace: it
    # was dropped without a word, and `Imin 1 i` printed `i`
    code, out, err = run(capsys, "reduce", "--flag", "t1", "Imin 1 i",
                         *CORPUS)
    assert (code, out, err) == (
        2, "", "error: --flag selects the built-in theory, which FILE "
        "arguments replace: give one or the other\n")


def test_reduce_fuel_flag(capsys, monkeypatch):
    code, _, err = run(capsys, "reduce", "--fuel", "2", "exDouble exTwo")
    assert code == 3 and "fuel" in err
    code, out, _ = run(capsys, "reduce", "--fuel", "1000", "exDouble exTwo")
    assert code == 0
    assert out.strip() == "succ l0 (succ l0 (succ l0 (succ l0 (zero l0))))"
    # the flag alone sets the budget: the environment variable that once
    # set its default is not read
    monkeypatch.setenv("MORGANDK_FUEL", "2")
    assert run(capsys, "reduce", "exDouble exTwo")[0] == 0


def test_reduce_fuel_bounds_only_the_term(capsys, monkeypatch):
    # with no files the built-in corpus is checked under the default
    # fuel, even from a cold check cache
    monkeypatch.setattr(theory, "_CACHE", {})
    code, out, err = run(capsys, "reduce", "--fuel", "20", "Imin 1 i")
    assert (code, out, err) == (0, "i\n", "")
    monkeypatch.setattr(theory, "_CACHE", {})
    code, _, err = run(capsys, "reduce", "--fuel", "2", "exDouble exTwo")
    assert code == 3 and "fuel" in err


@pytest.mark.parametrize("rules", ["[] f --> g f.",
                                   "def h : A.\n[] f --> g h.\n[] h --> g f."])
def test_reduce_runs_out_of_fuel_on_a_normal_form_that_contains_itself(
        tmp_path, rules):
    # in a process of its own, so that a regression fails on the timeout
    # instead of hanging the suite
    f = tmp_path / "loop.dk"
    f.write_text(f"A : Type.\ng : A -> A.\ndef f : A.\n{rules}\n")
    done = subprocess.run([sys.executable, "-m", "morgandk", "reduce", "f",
                           str(f)], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, encoding="utf-8", timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "error: fuel exhausted\n")


def test_check_runs_out_of_fuel_on_a_conversion_that_contains_itself(
        tmp_path):
    # conv(f, h) asks conv(g f, g h), which asks conv(f, h) again; in a
    # process of its own, so that a regression fails on the timeout
    f = tmp_path / "loop.dk"
    f.write_text("A : Type.\ng : A -> A.\ndef f : A.\n[] f --> g f.\n"
                 "def h : A.\n[] h --> g h.\nP : A -> Type.\np : P f.\n"
                 "def q : P h := p.\n")
    done = subprocess.run([sys.executable, "-m", "morgandk", "check",
                           str(f)], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, encoding="utf-8", timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "error: fuel exhausted\n")


@pytest.mark.parametrize("text,code,error", [
    # an unbound identifier is a parse error at its token, so a binder's
    # opened name cannot capture it, as `_` and `y_0` would
    ("A : Type. P : A -> Type. T : A -> P _.",
     2, "parse error: {}:1:37: unbound identifier '_'"),
    ("A : Type.\ndef f : A -> A -> A := y : A => y : A => y_0.",
     2, "parse error: {}:2:42: unbound identifier 'y_0'"),
    ("A : Type. P : A -> Type.\nT : y : A -> y : A -> P y_0.",
     2, "parse error: {}:2:25: unbound identifier 'y_0'"),
    ("A : Type.\ndef g := y : A => y : A => y_0.",
     2, "parse error: {}:2:28: unbound identifier 'y_0'"),
    # a checked abstraction's annotation is typed, though it converts
    ("A : Type. a : A. U : Type. El : U -> Type. u : U.\n"
     "def K : U -> A -> U. [x, y] K x y --> x.\n"
     "def f : El u -> El u := x : El (K u (a a)) => x.",
     1, "type error: {}:3:5: [not-a-function] application of a "
     "non-function\n  actual:   A"),
], ids=["arrow", "checked-chain", "pi-telescope", "inferred-chain",
        "annotation"])
def test_check_rejects_a_free_variable_and_an_ill_typed_annotation(
        tmp_path, text, code, error):
    f = tmp_path / "t.dk"
    f.write_text(text + "\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "morgandk", "check",
                           str(f)], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, encoding="utf-8", timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        code, "", error.format(f) + "\n")


def test_reduce_rejects_nonpositive_fuel(capsys):
    code, _, err = run(capsys, "reduce", "--fuel", "0", "x")
    assert code == 2 and "positive" in err


def _numeral_text(depth):
    return "succ l0 (" * depth + "zero l0" + ")" * depth


@pytest.mark.parametrize("depth", [1200, 10_000])
def test_reduce_deep_numeral(capsys, depth, default_recursion_limit):
    # parsing, normalizing and printing keep their own stacks, so the
    # depth is not bounded by the interpreter's recursion limit
    code, out, err = run(capsys, "reduce",
                         f"exDouble ({_numeral_text(depth)})")
    assert code == 0 and err == ""
    assert out == _numeral_text(2 * depth) + "\n"


def test_reduce_of_nested_redexes(capsys, default_recursion_limit):
    # matching forces a rule's argument with one nested whnf call per
    # level, so 500 levels fit the default recursion limit (README,
    # "Depth")
    depth = 500
    code, out, err = run(capsys, "reduce",
                         "sym (" * depth + "i" + ")" * depth)
    assert code == 0 and err == ""
    assert out == "i\n"


def test_reduce_of_deeply_nested_redexes_still_exits_3(
        capsys, default_recursion_limit):
    # weak-head normalizing a rule's argument during matching is still a
    # nested call, one per nested redex (README, "Depth")
    depth = 2000
    code, out, err = run(capsys, "reduce",
                         "sym (" * depth + "i" + ")" * depth)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_printing_a_deep_binder_body(capsys, default_recursion_limit):
    # the printer opens no binder: it reads a bound index's name from a
    # stack, so printing does not recurse (README, "Depth")
    depth = 10_000
    code, out, err = run(capsys, "reduce",
                         "x => " + "succ l0 (" * depth + "x" + ")" * depth)
    assert (code, err) == (0, "")
    assert out == ("x => " + "succ l0 (" * (depth - 1) + "succ l0 x"
                   + ")" * (depth - 1) + "\n")


def test_printing_a_long_binder_chain(capsys, default_recursion_limit):
    # the innermost body names the outermost of 1,000 binders
    text = " => ".join(f"x{i}" for i in range(1000)) + " => x0"
    assert run(capsys, "reduce", text) == (0, text + "\n", "")


def test_reduce_too_deep_is_resource_exhaustion(capsys, monkeypatch):
    def too_deep(self, t):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr("morgandk.rewrite.Reducer.normalize", too_deep)
    code, out, err = run(capsys, "reduce", "exDouble exTwo")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    # only flag and fuel validation map to exit 2; any other ValueError
    # is a bug and propagates
    def broken(*args):
        raise ValueError("internal")
    monkeypatch.setattr("morgandk.cli.build_theory", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["reduce", "x"])


def test_flag_composition(capsys):
    code, out, _ = run(capsys, "reduce", "--flag", "t3",
                       "c l0 (repletion l0 A B e)")
    assert code == 0 and out.strip() == "A"
    # without t3 the constant does not exist; parse keeps it a variable
    code, out, _ = run(capsys, "reduce", "--flag", "t1",
                       "c l0 (repletion l0 A B e)")
    assert code == 0 and out.strip() == "c l0 (repletion l0 A B e)"


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "reduce", "--flag", "t9", "x")
    assert code == 2
    code, _, err = run(capsys, "reduce", "--flag", "nat=strong", "x")
    assert code == 2 and "nat_morphism_strength" in err


def test_oracle_examples(capsys):
    code, out, _ = run(capsys, "oracle", "interval", "Imax i j", "Imax j i")
    assert code == 0 and out.strip() == "holds"
    code, out, _ = run(capsys, "oracle", "face",
                       "Fmin (eq0 i) (eq1 i)", "0f")
    assert code == 0
    code, out, _ = run(capsys, "oracle", "interval", "Imax i (sym i)", "1")
    assert code == 1 and "i = A" in out


def test_oracle_json_witness(capsys):
    code, out, _ = run(capsys, "oracle", "--format", "json-lines",
                       "interval", "Imax i (sym i)", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"event": "verdict", "holds": False,
                       "witness": {"i": "A"}}


def test_oracle_out_of_domain(capsys):
    code, _, err = run(capsys, "oracle", "interval", "eq0 i", "0")
    assert code == 2 and "oracle error" in err


def test_oracle_out_of_domain_prints_the_surface_syntax(capsys):
    assert run(capsys, "oracle", "interval", "Imin i", "i") == (
        2, "", "oracle error: not an interval term: Imin i\n")
    assert run(capsys, "oracle", "face", "Fmin (Fmax j) 1f", "0f") == (
        2, "", "oracle error: not a face term: Fmax j\n")


def test_oracle_generator_cap(capsys, monkeypatch):
    def no_masks(*args):
        raise AssertionError("masks built for a query over the cap")
    monkeypatch.setattr(algebra, "_generator_masks", no_masks)
    names = [f"g{k:02d}" for k in range(algebra.MAX_GENERATORS + 1)]
    lhs = names[-1]
    for name in reversed(names[:-1]):
        lhs = f"Imax {name} ({lhs})"
    code, _, err = run(capsys, "oracle", "interval", lhs, "1")
    assert code == 2 and "oracle error" in err
    assert f"{len(names)} generators" in err


def test_cp_shipped_rules_all_join(capsys):
    code, out, _ = run(capsys, "cp", "--fuel", "1000",
                       "--context", str(THEORIES / "01-2ltt-core.dk"),
                       "--context", str(THEORIES / "07-cubical-core.dk"),
                       str(THEORIES / "08-cubical-interval.dk"),
                       str(THEORIES / "10-cubical-faces.dk"))
    assert code == 0
    assert "non-joinable: 0" in out


def test_cp_quarantine_merge_reports_pair(capsys):
    args = ("cp", "--fuel", "1000",
            "--context", str(THEORIES / "01-2ltt-core.dk"),
            "--context", str(THEORIES / "07-cubical-core.dk"),
            str(THEORIES / "08-cubical-interval.dk"),
            str(THEORIES / "10-cubical-faces.dk"), QUARANTINE)
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert "faceType" in out and "xSig cL" in out and "xTrue cL" in out
    # determinism: identical invocations print identical reports
    code2, out2, _ = run(capsys, *args)
    assert (code, out) == (code2, out2)


def test_cp_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.dk"
    empty.write_text("")
    code, out, _ = run(capsys, "cp", str(empty))
    assert code == 0 and "critical pairs: 0" in out


@pytest.mark.parametrize("nat", ["none", "external_eq", "definitional"])
def test_export_then_check(capsys, tmp_path, nat):
    flags = ("t1", "t2", "t3", "univalence", "cubical", f"nat={nat}")
    code, _, _ = run(capsys, "export", str(tmp_path),
                     *(f"--flag={f}" for f in flags))
    assert code == 0
    cfg = FULL_CONFIG.replace(nat_morphism_strength=nat)
    files = [str(tmp_path / p.name) for p in blocks_for(cfg)]
    code, out, err = run(capsys, "check", *files)
    assert code == 0, err
    assert out.count("checked ") == len(files)


def test_export_is_the_shipped_corpus(capsys, tmp_path):
    code, _, _ = run(capsys, "export", str(tmp_path))
    assert code == 0
    exported = {p.relative_to(tmp_path) for p in tmp_path.rglob("*")
                if p.is_file()}
    shipped = {p.relative_to(THEORIES) for p in THEORIES.rglob("*")
               if p.is_file() and p.parent.name != "nat-external_eq"}
    assert exported == shipped
    for rel in exported:
        assert (tmp_path / rel).read_bytes() == (THEORIES / rel).read_bytes()


def test_export(capsys, tmp_path):
    dest = tmp_path / "out"
    code, out, _ = run(capsys, "export", str(dest))
    assert code == 0
    assert (dest / "01-2ltt-core.dk").is_file()
    assert (dest / "quarantine" / "faces-first-attempt.dk").is_file()
    listed = [line for line in out.splitlines() if line]
    assert str(dest / "CORRECTIONS.md") in listed
