"""Per-layer tracing of morgandk from outside its source.

`Tracer.install` replaces the public functions of each module with
counting wrappers and rebinds every morgandk module attribute that
pointed at an original, because modules import each other's functions
by name (`from .terms import subst`).  Reducer and Fuel methods are
wrapped on their classes, and term `__hash__`/`__eq__` are counted
through the term classes' attributes (counted, never timed: a timer
around every hash would dominate what it measures).

Every call is counted.  A recursive function is timed at its outermost
call only.  Entering a different layer opens a span; a layer's self time
is its spans' duration minus the time of the spans nested directly in
them.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, layer).  parse_file and parse_term
# call tokenize, which gets a layer of its own so parse time excludes it.
WRAPPED = (
    ("parser", "tokenize", "parser.tokenize"),
    ("parser", "parse_file", "parser"),
    ("parser", "parse_term", "parser"),
    ("theory", "build_theory", "theory"),
    ("theory", "first_attempt_signature", "theory"),
    ("check", "check_declaration", "check"),
    ("check", "check_signature", "check"),
    ("check", "infer", "check"),
    ("check", "check", "check"),
    ("check", "check_rule", "check"),
    ("rewrite", "Reducer.whnf", "rewrite"),
    ("rewrite", "Reducer.normalize", "rewrite"),
    ("rewrite", "Reducer.conv", "rewrite"),
    ("rewrite", "Reducer.match", "rewrite"),
    ("rewrite", "Reducer.normalize_traced", "rewrite"),
    ("rewrite", "Reducer.replay", "rewrite"),
    ("rewrite", "Fuel.tick", "rewrite"),
    ("rewrite", "match_pattern", "rewrite"),
    ("rewrite", "critical_pairs", "rewrite"),
    ("rewrite", "unify", "rewrite"),
    ("rewrite", "joinable", "rewrite"),
    ("terms", "subst", "terms"),
    ("terms", "msubst", "terms"),
    ("terms", "free_vars", "terms"),
    ("terms", "alpha_eq", "terms"),
    ("algebra", "interval_eq", "algebra"),
    ("algebra", "face_eq", "algebra"),
    ("algebra", "eval_interval", "algebra"),
    ("algebra", "eval_face", "algebra"),
    ("algebra", "check_rule_sound", "algebra"),
    ("algebra", "audit_equation", "algebra"),
)

TERM_CLASSES = ("Sort", "Const", "Var", "App", "Lam", "Pi")

MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.outer: dict[str, int] = defaultdict(int)
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, start, nested time, span id]
        self.spans: list[tuple] = []  # (id, parent id, layer, key, start, end)
        self.dropped_spans = 0
        self._hashes = 0
        self._eqs = 0
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn, before=None, after=None):
        calls, outer, times, active = (self.calls, self.outer, self.time,
                                       self._active)
        stack, spans, self_time = self._stack, self.spans, self.self_time
        tracer = self

        def wrapper(*args, **kw):
            calls[key] += 1
            if before is not None:
                before(args)
            if active[key]:
                active[key] += 1
                try:
                    return fn(*args, **kw)
                finally:
                    active[key] -= 1
            active[key] = 1
            outer[key] += 1
            opened = not stack or stack[-1][0] != layer
            t0 = perf_counter()
            if opened:
                span_id = len(spans) + tracer.dropped_spans
                stack.append([layer, t0, 0.0, span_id])
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                active[key] = 0
                times[key] += t1 - t0
                if opened:
                    _, _, nested, span_id = stack.pop()
                    self_time[layer] += t1 - t0 - nested
                    parent = None
                    if stack:
                        stack[-1][2] += t1 - t0
                        parent = stack[-1][3]
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, layer, key, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe(self, cache_attr: str, name: str):
        """Before each call, look the term up in the reducer's cache, so
        the hit ratio is seen from outside.  The lookup's own hashing and
        equality tests are not counted."""
        extra = self.extra

        def before(args):
            cache = getattr(args[0], cache_attr)
            if cache is None:
                return
            h, e = self._hashes, self._eqs
            hit = args[1] in cache
            self._hashes, self._eqs = h, e
            extra[f"{name}_hits" if hit else f"{name}_misses"] += 1
        return before

    def _count_into(self, name: str):
        extra = self.extra

        def after(result):
            extra[name] += len(result)
        return after

    def _traced_steps(self, result):
        self.extra["traced_steps"] += len(result[1])

    def install(self) -> None:
        """Wrap every function in WRAPPED; the morgandk modules must
        already be imported."""
        hooks = {
            "parser.tokenize": (None, self._count_into("tokens")),
            "parser.parse_file": (None, self._count_into("decls")),
            "rewrite.Reducer.whnf": (self._probe("whnf_cache", "whnf_cache"), None),
            "rewrite.Reducer.normalize": (self._probe("nf_cache", "nf_cache"), None),
            "rewrite.Reducer.normalize_traced": (None, self._traced_steps),
            "rewrite.critical_pairs": (None, self._count_into("cp_pairs")),
        }
        modules = {n: m for n, m in sys.modules.items()
                   if n == "morgandk" or n.startswith("morgandk.")}
        originals: dict[int, object] = {}
        for mod_name, attr, layer in WRAPPED:
            mod = modules[f"morgandk.{mod_name}"]
            key = f"{mod_name}.{attr}"
            before, after = hooks.get(key, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(key, layer, fn, before, after))
            else:
                fn = getattr(mod, attr)
                originals[id(fn)] = self._wrap(key, layer, fn, before, after)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)
        terms = modules["morgandk.terms"]
        for cls_name in TERM_CLASSES:
            cls = getattr(terms, cls_name)
            self._restore.append((cls, "__hash__", cls.__dict__["__hash__"]))
            self._restore.append((cls, "__eq__", cls.__dict__["__eq__"]))
            cls.__hash__ = self._hash_counter(cls.__dict__["__hash__"])
            cls.__eq__ = self._eq_counter(cls.__dict__["__eq__"])
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    def _hash_counter(self, fn):
        def __hash__(term):
            self._hashes += 1
            return fn(term)
        return __hash__

    def _eq_counter(self, fn):
        def __eq__(term, other):
            self._eqs += 1
            return fn(term, other)
        return __eq__

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- results -------------------------------------------------------------

    def counters(self) -> dict:
        """Raw counters, summable across processes."""
        return {"calls": dict(self.calls), "outer": dict(self.outer),
                "time": dict(self.time), "self_time": dict(self.self_time),
                "extra": {**self.extra, "hash_calls": self._hashes,
                          "eq_calls": self._eqs,
                          "gc_collections": self.gc_collections},
                "gc_s": self.gc_s, "dropped_spans": self.dropped_spans}

    def span_records(self) -> list[dict]:
        return [{"id": i, "parent": p, "layer": layer, "fn": key,
                 "start": t0, "end": t1}
                for i, p, layer, key, t0, t1 in self.spans]


def write_spans(path, records: list[dict]) -> None:
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


def merge(counters: list[dict]) -> dict:
    """Sum raw counters of several traced processes."""
    out = {"calls": defaultdict(int), "outer": defaultdict(int),
           "time": defaultdict(float), "self_time": defaultdict(float),
           "extra": defaultdict(int), "gc_s": 0.0, "dropped_spans": 0}
    for c in counters:
        for part in ("calls", "outer", "time", "self_time", "extra"):
            for k, v in c[part].items():
                out[part][k] += v
        out["gc_s"] += c["gc_s"]
        out["dropped_spans"] += c["dropped_spans"]
    return out
