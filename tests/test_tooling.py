"""The benchmark's layer tracer (`perfbench/layertrace.py`) wraps kernel
functions by name from outside `src/`.  These tests keep the names it
pins and the reducer attributes it reads in place, and check that it
leaves the package as it found it.  Two more keep the package free of
runtime dependencies and of imports that nothing uses."""

import ast
import gc
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morgandk import cli, rewrite, terms  # noqa: F401  (the tracer rebinds cli too)
from morgandk.parser import parse_term
from morgandk.rewrite import Reducer

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _package_attributes(layertrace):
    """Every attribute the tracer may replace, by (owner, name)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "morgandk" or name.startswith("morgandk."):
            out.update(((name, k), v) for k, v in vars(mod).items())
    for mod_name, attr, _ in layertrace.WRAPPED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"morgandk.{mod_name}"),
                          cls_name)
            out[cls, meth] = cls.__dict__[meth]
    for cls_name in layertrace.TERM_CLASSES:
        cls = getattr(terms, cls_name)
        out[cls, "__hash__"] = cls.__dict__["__hash__"]
        out[cls, "__eq__"] = cls.__dict__["__eq__"]
    return out


def test_every_wrapped_name_resolves(layertrace):
    for mod_name, attr, _ in layertrace.WRAPPED:
        owner = importlib.import_module(f"morgandk.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_cli_import_loads_the_wrapped_modules_and_not_the_surface(
        layertrace):
    # the CLI tracer installs right after `import morgandk.cli` and looks
    # each wrapped module up in sys.modules; the surface syntax is for
    # the tests alone, so no command pays for importing it, and no
    # command pays for `dataclasses` and the `inspect` it imports, nor
    # for `json` unless it writes json-lines
    src = str(Path(__file__).resolve().parent.parent / "src")

    def modules(script):
        return set(subprocess.run(
            [sys.executable, "-c", f"import sys{script}; print(*sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True).stdout.split())
    shown = modules(", morgandk.cli")
    loaded = shown - modules("")  # beyond a bare interpreter's
    wrapped = {f"morgandk.{mod}" for mod, _, _ in layertrace.WRAPPED}
    assert wrapped <= shown
    assert "morgandk.surface" not in shown
    assert "dataclasses" not in shown and "inspect" not in shown
    assert "json" not in loaded


def test_reducer_exposes_its_caches():
    assert Reducer({}).whnf_cache == {} and Reducer({}).nf_cache == {}
    red = Reducer({}, cached=False)
    assert red.whnf_cache is None and red.nf_cache is None


def test_tracer_install_and_uninstall_round_trip(layertrace, full_sig):
    before = _package_attributes(layertrace)
    callbacks = list(gc.callbacks)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        t = parse_term("sym (sym i)", frozenset(full_sig.consts))
        full_sig.reducer().normalize(t)
    finally:
        tracer.uninstall()
    counts = tracer.counters()
    assert counts["calls"]["rewrite.Reducer.normalize"] > 0
    assert counts["extra"]["nf_cache_misses"] > 0
    assert counts["extra"]["whnf_cache_misses"] > 0
    after = _package_attributes(layertrace)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
    assert list(gc.callbacks) == callbacks


def test_tracer_counts_every_unify_call(layertrace, full_sig, monkeypatch):
    # the harness's `rewrite.unify_calls` wraps the module-global name,
    # which `critical_pairs` must call through
    rules = full_sig.rule_list()
    calls = [0]
    unify = rewrite.unify

    def counted(*args):
        calls[0] += 1
        return unify(*args)
    with monkeypatch.context() as mp:
        mp.setattr(rewrite, "unify", counted)
        rewrite.critical_pairs(rules)
    assert calls[0] > 0
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rewrite.critical_pairs(rules)
    finally:
        tracer.uninstall()
    assert tracer.counters()["calls"]["rewrite.unify"] == calls[0]


def test_the_package_imports_the_standard_library_alone():
    # the README's "no runtime dependencies": every import in every
    # module, nested ones included, is relative, of the package itself,
    # or of a module of the standard library
    src = Path(__file__).resolve().parent.parent / "src" / "morgandk"
    allowed = sys.stdlib_module_names | {"morgandk"}
    seen, outside = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top not in allowed:
                    outside.append((path.name, name))
    assert outside == []
    assert "json" in seen  # cli.py imports it inside a function


def test_every_imported_name_is_used_or_exported():
    # a name a module imports is read in the module or listed in its
    # `__all__`, so a deletion cannot leave its import behind
    src = Path(__file__).resolve().parent.parent / "src" / "morgandk"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [t.id for t in node.targets
                       if isinstance(t, ast.Name)] == ["__all__"]):
                used.update(ast.literal_eval(node.value))
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert unused == []
