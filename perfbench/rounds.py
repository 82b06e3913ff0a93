"""One round of one workload, in a fresh process.

Reads a JSON job from stdin ({"workload", "inputs", "trace", "limit"}),
sets the workload up, runs its items one at a time under a per-item time
limit, checks every completed item against its reference after the timed
phase, and prints one JSON object with the timings on stdout.

Run by run.py with the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

from time import perf_counter

_T_START = perf_counter()

import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import process_time  # noqa: E402
from typing import Callable, Optional  # noqa: E402

import reference as ref  # noqa: E402
import layertrace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

# the 17 external equations of the cubical corpus
EQUATION_NAMES = (
    "Imax_idem", "Imax_comm", "Imax_dist", "Imax_distl",
    "Imin_idem", "Imin_comm", "Imin_dist", "Imin_distl",
    "Fmax_idem", "Fmax_comm", "Fmax_dist", "Fmax_distl",
    "Fmin_idem", "Fmin_comm", "Fmin_dist", "Fmin_distl",
    "Fdiscr",
)


class ItemTimeout(BaseException):
    """Raised by the interval timer: a BaseException, so no handler in
    the program under test can swallow it."""


@dataclass
class Item:
    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_defect: bool = False
    # for command items: a completed run that still counts as failed
    failed_if: Optional[Callable[[object], Optional[str]]] = None


def _on_alarm(signum, frame):
    raise ItemTimeout()


# -- host speed ------------------------------------------------------------------

class _Cell:
    __slots__ = ("n",)


def _reference_step(cell: _Cell, table: dict, i: int) -> bool:
    cell.n = (cell.n * 1103515245 + i) & 0xFFFF
    key = (cell.n & 63, i & 3)
    table[key] = table.get(key, 0) + 1
    return isinstance(key, tuple)


def reference_loop(iterations: int = 4000) -> int:
    """Fixed interpreter work that never touches morgandk: calls,
    attribute stores, tuples and dict updates, a few milliseconds."""
    cell = _Cell()
    cell.n = 1
    table: dict = {}
    return sum(_reference_step(cell, table, i) for i in range(iterations))


class HostSpeed:
    """Times the reference loop between items, at most every `every`
    seconds, with the collector held off so it measures the host alone.
    Items are timed apart from it."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.last = -math.inf
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def sample(self, force: bool = False) -> None:
        if not force and perf_counter() - self.last < self.every:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0, t0 = process_time(), perf_counter()
            reference_loop()
            t1, c1 = perf_counter(), process_time()
        finally:
            if enabled:
                gc.enable()
        self.walls.append(t1 - t0)
        self.cpus.append(c1 - c0)
        self.last = t1


def run_items(items: list[Item], limit: float, children: bool,
              host: HostSpeed) -> list[dict]:
    """The timed phase.  In-process items run under a one-shot interval
    timer; command items enforce the limit with a subprocess timeout."""
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    host.sample(force=True)
    for it in items:
        host.sample()
        err = None
        result = None
        c0 = _cpu(children)
        t0 = perf_counter()
        try:
            if not children:
                signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = it.run()
            finally:
                if not children:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (ItemTimeout, subprocess.TimeoutExpired):
            err = "timeout"
        except Exception as e:  # the item failed; the round goes on
            err = type(e).__name__
        t1 = perf_counter()
        c1 = _cpu(children)
        if err is None and it.failed_if is not None:
            err = it.failed_if(result)
        records.append({"item": it, "wall": t1 - t0, "cpu": c1 - c0,
                        "error": err, "result": result})
    host.sample(force=True)
    return records


def _cpu(children: bool) -> float:
    if not children:
        return process_time()
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _import_morgandk(tracing: bool) -> dict:
    """Import morgandk.  When tracing, the dependencies of
    `morgandk.theory` come first so its own import time can be taken
    alone."""
    probes = {}
    if tracing:
        import morgandk.check  # noqa: F401  (everything theory needs)
        t0 = perf_counter()
    import morgandk.theory  # noqa: F401
    if tracing:
        probes["theory_import_s"] = perf_counter() - t0
    return probes


def all_configs(theory) -> list:
    """The 96 flag combinations, in the order criterion 01 builds them."""
    return [theory.TheoryConfig(
                t1_injectivity=t1, t2_primitive_iso_as_rewrite=t2,
                t3_repletion=t3, nat_morphism_strength=nat,
                include_weak_univalence=univ, cubical=cubical)
            for cubical in (False, True)
            for t1, t2, t3, univ, nat in itertools.product(
                (False, True), (False, True), (False, True), (False, True),
                theory.NAT_STRENGTHS)]


def rule_sets(theory) -> list:
    """(label, signature, rules) of the three critical-pair workloads:
    the algebraic fragment, the first-attempt face decoding merged with
    it, and the full rule list."""
    full = theory.build_theory(theory.FULL_CONFIG)
    fa = theory.first_attempt_signature()
    return [("alg", full, theory.interval_face_rules(full)),
            ("merged", fa, [r for r in fa.rule_list()
                            if r.head == "faceType"
                            or r.head in theory.INTERVAL_FACE_HEADS]),
            ("full", full, full.rule_list())]


# -- corpus_sweep ----------------------------------------------------------------

def setup_corpus_sweep(inputs: dict, golden: dict) -> list[Item]:
    from morgandk import theory
    expected = golden["corpus"]

    def build(cfg):
        sig = theory.build_theory(cfg)
        return [len(sig.consts), len(sig.rule_list())]

    def expect(want):
        return lambda got: None if got == want else \
            f"constants and rules {got}, expected {want}"

    return [Item(f"build[{i}]", "build", lambda cfg=cfg: build(cfg),
                 expect(expected[i]))
            for i, cfg in enumerate(all_configs(theory))]


# -- rewrite_mix -----------------------------------------------------------------

def _numeral(terms, n: int):
    t = terms.App(terms.Const("zero"), terms.Const("l0"))
    succ = terms.App(terms.Const("succ"), terms.Const("l0"))
    for _ in range(n):
        t = terms.App(succ, t)
    return t


def setup_rewrite_mix(inputs: dict, golden: dict) -> list[Item]:
    from morgandk import parser, rewrite, terms, theory
    sets = rule_sets(theory)
    full = sets[0][1]
    items = []
    for label, sig, rules in sets:
        want = golden["cp"][label]
        bad = {(r1, r2, tuple(pos)): [left, right]
               for r1, r2, pos, left, right in want["non_joinable"]}
        own = sig.copy()  # its caches are shared by this set's pairs only
        pairs: list = []

        def generate(rules=rules, pairs=pairs):
            pairs[:] = rewrite.critical_pairs(rules)
            return len(pairs)

        def count_ok(got, n=want["pairs"]):
            return None if got == n else f"{got} critical pairs, expected {n}"

        items.append(Item(f"cp.{label}.generate", "cp_generate", generate,
                          count_ok))

        def join_all(own=own, pairs=pairs):
            # one reducer per pair over the set's shared caches, as the
            # command-line analyzer does it
            return [(cp, rewrite.joinable(
                own.reducer(fuel=rewrite.Fuel(rewrite.DEFAULT_FUEL)), cp))
                for cp in pairs]

        def joins_ok(got, bad=bad):
            for cp, verdict in got:
                key = (cp.rule1, cp.rule2, tuple(cp.position))
                if isinstance(verdict, rewrite.Holds):
                    if key in bad:
                        return f"{key} joins, expected not"
                    continue
                if key not in bad:
                    return f"{key} does not join, expected it to"
                left, right = verdict.witness
                seen = [parser.pretty(left), parser.pretty(right)]
                if seen != bad[key]:
                    return f"{key} normal forms {seen}, expected {bad[key]}"
            return None

        items.append(Item(f"cp.{label}.join", "joinable", join_all, joins_ok))

    exdouble = terms.Const("exDouble")
    for d in inputs["depths"]:
        term = terms.App(exdouble, _numeral(terms, d))
        for cached in (True, False):
            own = full.copy()

            def normalize(own=own, term=term, cached=cached):
                red = own.reducer(fuel=rewrite.Fuel(rewrite.DEFAULT_FUEL),
                                  cached=cached)
                return red.normalize(term)

            def is_double(got, d=d):
                n = ref.numeral_depth(got)
                return None if n == 2 * d else \
                    f"normal form has depth {n}, expected {2 * d}"

            defect = (d >= ref.UNCACHED_LIMIT_DEPTH
                      or (cached and d >= ref.CACHED_LIMIT_DEPTH))
            mode = "cached" if cached else "uncached"
            items.append(Item(f"normalize.{mode}[{d}]", f"normalize_{mode}",
                              normalize, is_double, known_defect=defect))

    for d in inputs["traced_depths"]:
        term = terms.App(exdouble, _numeral(terms, d))

        def traced(term=term):
            red = full.reducer(fuel=rewrite.Fuel(rewrite.DEFAULT_FUEL),
                               cached=False)
            nf, steps = red.normalize_traced(term)
            return nf, red.replay(term, steps)

        def replay_ok(got, d=d):
            nf, back = got
            n = ref.numeral_depth(nf)
            if n != 2 * d:
                return f"traced normal form has depth {n}, expected {2 * d}"
            return None if ref.same_term(back, nf) else \
                "replay does not reproduce the traced normal form"

        items.append(Item(f"traced[{d}]", "traced", traced, replay_ok))
    return items


# -- oracle_mix ------------------------------------------------------------------

def _to_interval(algebra, e):
    match e[0]:
        case "0":
            return algebra.Zero()
        case "1":
            return algebra.One()
        case "gen":
            return algebra.Gen(e[1])
        case "neg":
            return algebra.Neg(_to_interval(algebra, e[1]))
        case "meet":
            return algebra.Meet(_to_interval(algebra, e[1]),
                                _to_interval(algebra, e[2]))
        case "join":
            return algebra.Join(_to_interval(algebra, e[1]),
                                _to_interval(algebra, e[2]))
    raise ValueError(e)


def _to_face(algebra, f):
    match f[0]:
        case "bot":
            return algebra.FBot()
        case "top":
            return algebra.FTop()
        case "eq0":
            return algebra.Eq0(_to_interval(algebra, f[1]))
        case "eq1":
            return algebra.Eq1(_to_interval(algebra, f[1]))
        case "fmeet":
            return algebra.FMeet(_to_face(algebra, f[1]), _to_face(algebra, f[2]))
        case "fjoin":
            return algebra.FJoin(_to_face(algebra, f[1]), _to_face(algebra, f[2]))
    raise ValueError(f)


def _verdict_check(algebra, kind, lhs, rhs, witness):
    """Compare a verdict with the reference witness; re-evaluate a Fails
    witness with the per-assignment evaluator; for intervals also
    compare with the canonical-DNF decision."""
    def check(verdict):
        holds = isinstance(verdict, algebra.Holds)
        if kind == "interval":
            same_dnf = algebra.canonical_dnf(lhs) == algebra.canonical_dnf(rhs)
            if holds != same_dnf:
                return f"verdict holds={holds}, canonical DNF says {same_dnf}"
        if witness is None:
            return None if holds else f"refuted at {verdict.witness}, expected to hold"
        if holds:
            return f"holds, expected refutation at {witness}"
        seen = {n: v.name.title() for n, v in verdict.witness.items()}
        if seen != witness:
            return f"witness {seen}, expected {witness}"
        if kind == "interval":
            differ = (algebra.eval_interval(lhs, verdict.witness)
                      is not algebra.eval_interval(rhs, verdict.witness))
        else:
            differ = (algebra.eval_face(lhs, verdict.witness)
                      != algebra.eval_face(rhs, verdict.witness))
        return None if differ else "the two sides agree at the witness"
    return check


def setup_oracle_mix(inputs: dict, golden: dict) -> list[Item]:
    from morgandk import algebra, theory
    full = theory.build_theory(theory.FULL_CONFIG)
    items, generated = [], []
    for r in theory.interval_face_rules(full):
        if r.head in ("sym", "Imin", "Imax"):
            check = _verdict_check(algebra, "interval",
                                   algebra.interval_from_term(r.lhs),
                                   algebra.interval_from_term(r.rhs), None)
        else:
            check = _verdict_check(algebra, "face", None, None, None)
        items.append(Item(f"rule[{r.name}]", "corpus",
                          lambda r=r: algebra.check_rule_sound(r), check))
    for name in EQUATION_NAMES:
        ty = full.consts[name].ty
        items.append(Item(f"equation[{name}]", "corpus",
                          lambda ty=ty: algebra.audit_equation(ty),
                          _verdict_check(algebra, "face", None, None, None)))
    for i, q in enumerate(inputs["queries"]):
        if q["kind"] == "interval":
            lhs, rhs = (_to_interval(algebra, q["lhs"]),
                        _to_interval(algebra, q["rhs"]))
            run = lambda lhs=lhs, rhs=rhs: algebra.interval_eq(lhs, rhs)
        else:
            lhs, rhs = _to_face(algebra, q["lhs"]), _to_face(algebra, q["rhs"])
            run = lambda lhs=lhs, rhs=rhs: algebra.face_eq(lhs, rhs)
        generated.append(Item(f"{q['kind']}[{i}] n={q['n']}", "generated",
                              run, _verdict_check(algebra, q["kind"], lhs,
                                                  rhs, q["witness"])))
    return _interleave(items, generated)


def _interleave(small: list[Item], large: list[Item]) -> list[Item]:
    """The small items spread evenly between the large ones, so that
    they are timed across the whole round rather than in one moment."""
    out = []
    for i, it in enumerate(large):
        out += small[i * len(small) // len(large):
                     (i + 1) * len(small) // len(large)]
        out.append(it)
    return out


# -- cli_commands ----------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Commands:
    """Runs `python -m morgandk` commands; when tracing, through the
    tracing shim, collecting each process's counters."""

    def __init__(self, limit: float, tracing: bool):
        self.limit = limit
        self.tracing = tracing
        self.env = _env()
        self.counters: list[dict] = []
        self.spans: list[dict] = []

    def __call__(self, argv: list[str]):
        if not self.tracing:
            cmd = [sys.executable, "-m", "morgandk", *argv]
            return self._run(cmd)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"cli-trace-{os.getpid()}.json"
        cmd = [sys.executable, str(BENCH / "tracecli.py"), str(dump), *argv]
        try:
            result = self._run(cmd)
            data = json.loads(dump.read_text())
            self.counters.append(data["counters"])
            self.spans += data["spans"]
        finally:
            dump.unlink(missing_ok=True)
        return result

    def _run(self, cmd):
        p = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                           text=True, timeout=self.limit)
        return p.returncode, p.stdout, p.stderr

    def wall(self, cmd: list[str]) -> float:
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                       timeout=self.limit, check=True)
        return perf_counter() - t0


def _expect_output(code, stdout, stderr=None):
    def failed_if(got):
        return None if got[0] == code else f"exit code {got[0]}, expected {code}"

    def check(got):
        if got[1] != stdout:
            return f"stdout {got[1][:200]!r}, expected {stdout[:200]!r}"
        if stderr is not None and got[2] != stderr:
            return f"stderr {got[2][:200]!r}, expected {stderr[:200]!r}"
        return None
    return failed_if, check


def setup_cli_commands(inputs: dict, golden: dict, limit: float,
                       tracing: bool):
    run = Commands(limit, tracing)
    help_cmd = [sys.executable, "-m", "morgandk", "--help"]
    setups = [run.wall(help_cmd) for _ in range(3)]
    items = []

    def command(name, group, argv, code, stdout, stderr=None, defect=False):
        failed_if, check = _expect_output(code, stdout, stderr)
        items.append(Item(name, group, lambda: run(argv), check,
                          known_defect=defect, failed_if=failed_if))

    for g in golden["cli"]:
        command(g["name"], g["group"], g["argv"], g["code"], g["stdout"],
                g.get("stderr"))
    for d in inputs["depths"]:
        command(f"reduce[{d}]", "reduce",
                ["reduce", f"exDouble ({ref.numeral_text(d)})"], 0,
                ref.numeral_text(2 * d) + "\n")
    deep = inputs["deep"]
    command(f"reduce[{deep}]", "reduce",
            ["reduce", f"exDouble ({ref.numeral_text(deep)})"], 0,
            ref.numeral_text(2 * deep) + "\n", defect=True)
    for i, q in enumerate(inputs["queries"]):
        lhs, rhs = ref.surface(q["lhs"]), ref.surface(q["rhs"])
        if q["witness"] is None:
            code, out = 0, "holds\n"
        else:
            code = 1
            out = "fails at " + ", ".join(
                f"{n} = {v}" for n, v in sorted(q["witness"].items())) + "\n"
        command(f"oracle.{q['kind']}[{i}]", "oracle",
                ["oracle", q["kind"], lhs, rhs], code, out)
    return setups, items, run


def cli_probes(run: Commands) -> dict:
    """Interpreter start and import cost, outside any traced process."""
    py = sys.executable
    interp = median(run.wall([py, "-c", "pass"]) for _ in range(3))
    imports, theory_imports = [], []
    for _ in range(3):
        p = subprocess.run([py, "-X", "importtime", "-c", "import morgandk.cli"],
                           cwd=ROOT, env=run.env, capture_output=True,
                           text=True, timeout=run.limit, check=True)
        cumulative = {}
        for line in p.stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        imports.append(cumulative["morgandk.cli"])
        theory_imports.append(cumulative["morgandk.theory"])
    return {"interpreter_s": interp, "import_s": median(imports),
            "theory_import_s": median(theory_imports)}


# -- the round -------------------------------------------------------------------

SETUPS = {"corpus_sweep": setup_corpus_sweep,
          "rewrite_mix": setup_rewrite_mix,
          "oracle_mix": setup_oracle_mix}


def main() -> int:
    job = json.loads(sys.stdin.read())
    workload, tracing, limit = job["workload"], job["trace"], job["limit"]
    golden = _golden()
    tracer = None
    probes = {}
    run = None
    if workload == "cli_commands":
        setups, items, run = setup_cli_commands(job["inputs"], golden, limit,
                                                tracing)
        if tracing:
            probes = cli_probes(run)
        children = True
    else:
        probes = _import_morgandk(tracing)
        if tracing:
            tracer = layertrace.Tracer()
            tracer.install()
        items = SETUPS[workload](job["inputs"], golden)
        setups = [perf_counter() - _T_START]
        children = False

    host = HostSpeed()
    records = run_items(items, limit, children, host)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children
                               else resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    wrong, unexpected = [], []
    for r in records:
        it = r["item"]
        if r["error"] is None:
            problem = it.check(r["result"])
            if problem is not None:
                wrong.append(f"{it.name}: {problem}")
        elif not (it.known_defect
                  or (tracing and r["error"] == "RecursionError")):
            unexpected.append(f"{it.name}: {r['error']}")

    out = {
        "setup": setups,
        "items": [[r["item"].name, r["item"].group, r["wall"], r["cpu"],
                   r["error"]] for r in records],
        # the host's speed over the round: mean, so that bursts of
        # slowness count as much as they do in the items
        "ref_wall": sum(host.walls) / len(host.walls),
        "ref_cpu": sum(host.cpus) / len(host.cpus),
        "rss_mb": usage.ru_maxrss / 1024,
        "wrong": wrong, "unexpected": unexpected,
        "probes": probes,
    }
    if tracing:
        OUT.mkdir(exist_ok=True)
        if tracer is not None:
            out["counters"] = tracer.counters()
            spans = tracer.span_records()
        else:
            out["counters"] = layertrace.merge(run.counters)
            spans = run.spans
        layertrace.write_spans(OUT / f"spans-{workload}.jsonl", spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
