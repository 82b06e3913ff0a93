"""Batch front end: check theory files, normalize terms, query the
algebraic oracles, run the confluence analyzer, export the corpus.

Exit codes, uniformly: 0 success, 1 semantic failure (type error,
refuted equation, non-joinable pair), 2 input problem (missing file,
parse error, bad flag or fuel, oracle query out of domain or over the
generator cap), 3 resource exhausted (fuel, or recursion depth on a
deeply nested term).  All orderings in reports follow declaration
order, so identical inputs print identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .algebra import (ORACLE_CONSTS, Holds, OracleError, OutOfDomain,
                      face_eq, face_from_term, interval_eq, interval_from_term)
from .check import (DEFAULT_FUEL, Signature, TypeCheckError,
                    check_signature)
from .parser import ParseError, parse_file, parse_term, pretty
from .rewrite import (CriticalPair, Fuel, FuelExhausted, critical_pairs,
                      joinable)
from .theory import FULL_CONFIG, TheoryConfig, build_theory, read_source

# theory flag -> the TheoryConfig field it switches on
_FLAGS = {"t1": "t1_injectivity", "t2": "t2_primitive_iso_as_rewrite",
          "t3": "t3_repletion", "univalence": "include_weak_univalence",
          "cubical": "cubical"}


class _InputError(Exception):
    """A bad flag, fuel setting or path."""


def _config_from_flags(flags: list[str] | None) -> TheoryConfig:
    """No flags: the full built-in theory.  Any flag: start from the
    bare core and switch on exactly what was asked."""
    if not flags:
        return FULL_CONFIG
    cfg = TheoryConfig()
    for f in flags:
        if f in _FLAGS:
            cfg = cfg.replace(**{_FLAGS[f]: True})
        elif f.startswith("nat="):
            try:
                cfg = cfg.replace(nat_morphism_strength=f[len("nat="):])
            except ValueError as e:
                raise _InputError(str(e)) from None
        else:
            raise _InputError(
                f"unknown flag {f!r}: expected one of "
                f"{', '.join(_FLAGS)} or nat=<strength>")
    return cfg


def _resolve_fuel(fuel: int) -> int:
    if fuel <= 0:
        raise _InputError(f"fuel must be positive, got {fuel}")
    return fuel


class _Out:
    """Result channel: plain text or one JSON object per line."""

    def __init__(self, fmt: str):
        self.json = fmt == "json-lines"

    def emit(self, text: str, **payload) -> None:
        if self.json:
            import json  # only this format pays for the import
            print(json.dumps(payload, sort_keys=True))
        else:
            print(text)


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require_paths(paths: list[str]) -> list[Path]:
    out = []
    for p in paths:
        path = Path(p)
        if not path.is_file():
            what = "not a file" if path.exists() else "no such file"
            raise _InputError(f"{what}: {p}")
        out.append(path)
    return out


def _check_files(paths: list[Path], fuel_steps: int,
                 out: _Out | None = None,
                 sig: Signature | None = None) -> Signature:
    """Check the files in argument order as one signature, extending
    `sig` (a fresh signature by default)."""
    if sig is None:
        sig = Signature()
    consts = set(sig.consts)
    for path in paths:
        try:
            text = read_source(path)
        except UnicodeDecodeError as e:
            raise _InputError(
                f"{path}: not valid UTF-8 at byte {e.start}") from None
        decls = parse_file(text, str(path), consts)
        check_signature(decls, fuel_steps, sig)
        if out is not None:
            out.emit(f"checked {path} ({len(decls)} declarations)",
                     event="checked", file=str(path), declarations=len(decls))
    return sig


def cmd_check(args) -> int:
    paths = _require_paths(args.paths)
    out = _Out(args.format)
    fuel = _resolve_fuel(args.fuel)
    _check_files(paths, fuel, out)
    return 0


def _emit_steps(out: _Out, steps) -> None:
    for pos, rule in steps:
        out.emit(f"step {rule} at {'.'.join(pos) or 'root'}",
                 event="step", rule=rule, path=list(pos))


def cmd_reduce(args) -> int:
    out = _Out(args.format)
    fuel = _resolve_fuel(args.fuel)
    if args.paths and args.flag:
        raise _InputError("--flag selects the built-in theory, which FILE "
                          "arguments replace: give one or the other")
    if args.paths:
        sig = _check_files(_require_paths(args.paths), fuel)
    else:
        sig = build_theory(_config_from_flags(args.flag))
    term = parse_term(args.term, frozenset(sig.consts))
    red = sig.reducer(fuel=Fuel(fuel))
    if args.trace:
        try:
            nf, steps = red.normalize_traced(term)
        except FuelExhausted as e:
            _emit_steps(out, e.steps)  # the steps taken, then the error
            raise
        _emit_steps(out, steps)
        out.emit(pretty(nf), event="normal", term=pretty(nf))
    else:
        nf = pretty(red.normalize(term))
        out.emit(nf, event="normal", term=nf)
    return 0


def cmd_oracle(args) -> int:
    out = _Out(args.format)
    from_term, decide = ((interval_from_term, interval_eq)
                         if args.kind == "interval"
                         else (face_from_term, face_eq))
    lhs = from_term(parse_term(args.lhs, ORACLE_CONSTS))
    verdict = decide(lhs, from_term(parse_term(args.rhs, ORACLE_CONSTS)))
    if isinstance(verdict, Holds):
        out.emit("holds", event="verdict", holds=True)
        return 0
    witness = {n: v.name.title() for n, v in sorted(verdict.witness.items())}
    lines = ", ".join(f"{n} = {v}" for n, v in witness.items())
    out.emit(f"fails at {lines}", event="verdict", holds=False,
             witness=witness)
    return 1


def _report_pair(out: _Out, cp: CriticalPair, verdict) -> None:
    ok = isinstance(verdict, Holds)
    if out.json:
        payload = {"event": "critical-pair", "rule1": cp.rule1,
                   "rule2": cp.rule2, "path": list(cp.position),
                   "joinable": ok, "peak": pretty(cp.peak)}
        if not ok:
            payload["left"] = pretty(verdict.witness[0])
            payload["right"] = pretty(verdict.witness[1])
        out.emit("", **payload)
    elif not ok:
        out.emit(f"non-joinable: {cp.rule1} overlaps {cp.rule2} "
                 f"at {'.'.join(cp.position) or 'root'}")
        out.emit(f"  peak:  {pretty(cp.peak)}")
        out.emit(f"  left:  {pretty(verdict.witness[0])}")
        out.emit(f"  right: {pretty(verdict.witness[1])}")


def cmd_cp(args) -> int:
    out = _Out(args.format)
    fuel = _resolve_fuel(args.fuel)
    ctx_paths = _require_paths(args.context or [])
    tgt_paths = _require_paths(args.paths)
    sig = _check_files(ctx_paths, fuel)
    before = set(map(id, sig.rule_list()))
    _check_files(tgt_paths, fuel, sig=sig)
    target_rules = [r for r in sig.rule_list() if id(r) not in before]
    pairs = critical_pairs(target_rules)
    bad = 0
    for cp in pairs:
        red = sig.reducer(fuel=Fuel(fuel))
        verdict = joinable(red, cp)
        if not isinstance(verdict, Holds):
            bad += 1
        _report_pair(out, cp, verdict)
    out.emit(f"critical pairs: {len(pairs)}, non-joinable: {bad}",
             event="summary", pairs=len(pairs), non_joinable=bad)
    return 1 if bad else 0


def cmd_export(args) -> int:
    from .theory import write_theory_files
    out = _Out(args.format)
    written = write_theory_files(args.dest, _config_from_flags(args.flag))
    for p in written:
        out.emit(str(p), event="written", file=str(p))
    return 0


def _add_common(p: argparse.ArgumentParser, fuel=True, flags=False) -> None:
    p.add_argument("--format", choices=("text", "json-lines"),
                   default="text")
    if fuel:
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                       help="reduction step budget (default: %(default)s)")
    if flags:
        p.add_argument("--flag", action="append", default=[],
                       metavar="NAME",
                       help="theory flag: t1, t2, t3, univalence, "
                            "cubical, or nat=<none|external_eq|"
                            "definitional>; repeatable")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="morgandk",
        description="type-check, normalize and analyze two-layer "
                    "theory files")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check files as one signature")
    _add_common(p)
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("reduce", help="print a term's normal form")
    _add_common(p, flags=True)
    p.add_argument("--trace", action="store_true",
                   help="print each rewrite step")
    p.add_argument("term")
    p.add_argument("paths", nargs="*", metavar="FILE",
                   help="theory files (default: the built-in theory)")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("oracle",
                       help="decide an algebraic equation semantically")
    _add_common(p, fuel=False)
    p.add_argument("kind", choices=("interval", "face"))
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("cp", help="critical pair analysis of rule files")
    _add_common(p)
    p.add_argument("--context", action="append", metavar="FILE",
                   help="checked for scope but excluded from the pair "
                        "set; repeatable")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.set_defaults(run=cmd_cp)

    p = sub.add_parser("export", help="write the theory corpus to disk")
    _add_common(p, fuel=False, flags=True)
    p.add_argument("dest")
    p.set_defaults(run=cmd_export)

    return ap


def _terms_as_utf8(args) -> None:
    """Python decodes a process's arguments with the locale's codec and
    keeps undecodable bytes as surrogates: read the terms' bytes
    (`os.fsencode`) as UTF-8 instead, and write the output and the
    diagnostics as UTF-8.  File paths keep the OS's bytes, in and out."""
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    for name in ("term", "lhs", "rhs"):
        arg = getattr(args, name, None)
        if arg is not None:
            try:
                setattr(args, name, os.fsencode(arg).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise _InputError(f"the {name} argument is not valid "
                                  f"UTF-8 at byte {e.start}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if argv is None:  # the process's own arguments
            _terms_as_utf8(args)
        return args.run(args)
    except ParseError as e:
        _diag(f"parse error: {e}")
        return 2
    except OracleError as e:
        _diag(f"oracle error: {e}")
        return 2
    except OutOfDomain as e:
        shown = e.msg if e.term is None else f"{e.msg}: {pretty(e.term)}"
        _diag(f"oracle error: {shown}")
        return 2
    except (OSError, _InputError) as e:
        _diag(f"error: {e}")
        return 2
    except TypeCheckError as e:
        _diag(f"type error: {e}")
        return 1
    except FuelExhausted:
        _diag("error: fuel exhausted")
        return 3
    except RecursionError:
        _diag("error: recursion depth exhausted: the input is nested too deeply")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
