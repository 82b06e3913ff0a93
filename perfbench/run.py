"""Benchmark for morgandk: four workloads, measured end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is corpus_sweep, rewrite_mix, oracle_mix, cli_commands, or all.
The run repeats rounds of the workload, each in a fresh process
(rounds.py), until S seconds have passed; every round runs the same
items, generated from the seed.  With --trace 0 it prints the end-to-end
metrics (medians over the rounds); with --trace 1 it alternates plain
and traced rounds and prints the per-layer metrics.  Times are rescaled
to a nominal host speed (see REF_NOMINAL_S); the end-to-end times as
measured, failed_share and wrong_verdicts follow as `#` lines.  Each
metric goes on a line of its own with its unit, and the last line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false, and the exit code 1, when a completed item disagrees
with its reference or an item other than a known defect fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Per-item time limit in seconds.  A failed item is charged this limit
# in place of its measured time (PAR-1), in wall and CPU time alike.
LIMITS = {"corpus_sweep": 10.0, "rewrite_mix": 2.5, "oracle_mix": 10.0,
          "cli_commands": 5.0}
ROUND_TIMEOUT = 150
# Duration of rounds.py's reference loop at the nominal host speed.  The
# *_adj metrics and setup_s rescale each round's measured times by this
# over the loop's mean duration in that round: on a shared host whose
# speed drifts by tens of percent over minutes, they stay comparable.
# The times as measured are printed too.
REF_NOMINAL_S = 0.002
# item_p50 and item_tail: mean of the items' median times, over the
# items ranked within these quantile bands
P50_BAND = (0.35, 0.65)
TAIL_BAND = (0.80, 0.95)

CLI_GROUPS = ("check", "cp", "reduce", "oracle")


class RoundError(Exception):
    pass


def run_round(workload: str, inputs: dict, trace: bool) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    job = json.dumps({"workload": workload, "inputs": inputs, "trace": trace,
                      "limit": LIMITS[workload]})
    # its own process group, so that a round cut at the timeout takes
    # the commands it started down with it
    p = subprocess.Popen([sys.executable, str(BENCH / "rounds.py")],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                         start_new_session=True)
    try:
        out, err = p.communicate(job, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired as e:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise RoundError(f"{workload} round ran past {ROUND_TIMEOUT}s") from e
    if p.returncode != 0 or not out.strip():
        raise RoundError(f"{workload} round exited {p.returncode}:\n"
                         f"{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool):
    """Plain rounds (and, when tracing, a traced round after each) until
    `seconds` have passed; at least one of each."""
    inputs = reference.make_inputs(workload, seed)
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(run_round(workload, inputs, False))
        if trace:
            traced.append(run_round(workload, inputs, True))
        if perf_counter() - start >= seconds:
            return plain, traced


# -- end-to-end metrics ----------------------------------------------------------

def _round_times(rnd: dict, limit: float, adjust: bool):
    """(wall, cpu, {item: wall}) of a round's timed phase, the last for
    completed items only.  Each failed item is charged the limit
    (PAR-1).  With `adjust`, measured times are first rescaled to the
    nominal host speed, by the reference loop's mean time in the round."""
    sw = REF_NOMINAL_S / rnd["ref_wall"] if adjust else 1.0
    sc = REF_NOMINAL_S / rnd["ref_cpu"] if adjust else 1.0
    wall = cpu = 0.0
    times = {}
    for name, _, w, c, err in rnd["items"]:
        if err is None:
            wall += w * sw
            cpu += c * sc
            times[name] = w * sw
        else:
            wall += limit
            cpu += limit
    return wall, cpu, times


def band_mean(values: list[float], lo: float, hi: float) -> float:
    """Mean of the values ranked between the lo and hi quantiles: a
    percentile smoothed over its neighbourhood, so it does not jump when
    one item crosses a gap between clusters of item times."""
    s = sorted(values)
    a = math.floor(lo * len(s))
    b = max(a + 1, math.ceil(hi * len(s)))
    return sum(s[a:b]) / (b - a)


def timing(rounds: list[dict], limit: float, adjust: bool) -> dict:
    """Medians over rounds of wall and CPU time; item percentiles over
    each item's median time across the rounds it completed in."""
    per_round = [_round_times(r, limit, adjust) for r in rounds]
    by_item: dict[str, list[float]] = {}
    for _, _, times in per_round:
        for name, t in times.items():
            by_item.setdefault(name, []).append(t)
    typical = [median(ts) for ts in by_item.values()]
    return {"wall": median(w for w, _, _ in per_round),
            "cpu": median(c for _, c, _ in per_round),
            "p50": band_mean(typical, *P50_BAND),
            "tail": band_mean(typical, *TAIL_BAND),
            "completed": sum(len(t) for _, _, t in per_round),
            "items": len(typical)}


def end_to_end(workload: str, rounds: list[dict]) -> tuple[dict, list[str]]:
    limit = LIMITS[workload]
    adj = timing(rounds, limit, True)
    raw = timing(rounds, limit, False)
    metrics = {
        "wall_adj_s": (adj["wall"], "s"),
        "cpu_adj_s": (adj["cpu"], "s"),
        "setup_s": (median(s * REF_NOMINAL_S / r["ref_wall"]
                           for r in rounds for s in r["setup"]), "s"),
        "item_p50_adj_ms": (adj["p50"] * 1e3, "ms"),
        "item_tail_adj_ms": (adj["tail"] * 1e3, "ms"),
        "peak_rss_mb": (median(r["rss_mb"] for r in rounds), "MB"),
    }
    attempted = sum(len(r["items"]) for r in rounds)
    failed = attempted - raw["completed"]
    wrong = sum(len(r["wrong"]) for r in rounds)
    beyond = raw["items"] - math.ceil(TAIL_BAND[1] * raw["items"])
    ref = median(r["ref_wall"] for r in rounds)
    setup = median(s for r in rounds for s in r["setup"])
    notes = [f"setup {setup:.6g} s (as measured)",
             f"wall_s {raw['wall']:.6g} s (as measured)",
             f"cpu_s {raw['cpu']:.6g} s (as measured)",
             f"item_p50_ms {raw['p50'] * 1e3:.6g} ms (as measured)",
             f"item_tail_ms {raw['tail'] * 1e3:.6g} ms (as measured)",
             f"failed_share {failed / attempted:.4f} ({failed} of {attempted})",
             f"wrong_verdicts {wrong} count",
             f"{len(rounds)} rounds of {len(rounds[0]['items'])} items; "
             f"item times are medians over the rounds of {raw['items']} "
             f"items that completed, {beyond} beyond the tail band; "
             f"reference loop "
             f"{ref * 1e3:.3f} ms against {REF_NOMINAL_S * 1e3:.3f} ms nominal"]
    return metrics, notes


# -- per-layer metrics -----------------------------------------------------------

def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


COUNTS = {
    "parser.tokens": lambda c: c["extra"].get("tokens", 0),
    "parser.decls": lambda c: c["extra"].get("decls", 0),
    "theory.builds": lambda c: (c["calls"].get("theory.build_theory", 0)
                                + c["calls"].get("theory.first_attempt_signature", 0)),
    "check.declarations": lambda c: c["calls"].get("check.check_declaration", 0),
    "check.infer_calls": lambda c: c["calls"].get("check.infer", 0),
    "rewrite.whnf_calls": lambda c: c["calls"].get("rewrite.Reducer.whnf", 0),
    "rewrite.conv_calls": lambda c: c["calls"].get("rewrite.Reducer.conv", 0),
    "rewrite.match_calls": lambda c: (c["calls"].get("rewrite.Reducer.match", 0)
                                      + c["calls"].get("rewrite.match_pattern", 0)),
    "rewrite.steps": lambda c: c["calls"].get("rewrite.Fuel.tick", 0),
    "rewrite.traced_steps": lambda c: c["extra"].get("traced_steps", 0),
    "rewrite.cp_pairs": lambda c: c["extra"].get("cp_pairs", 0),
    "rewrite.unify_calls": lambda c: c["calls"].get("rewrite.unify", 0),
    "terms.subst_calls": lambda c: c["calls"].get("terms.subst", 0),
    "terms.msubst_calls": lambda c: c["calls"].get("terms.msubst", 0),
    "terms.free_vars_calls": lambda c: c["calls"].get("terms.free_vars", 0),
    "terms.alpha_eq_calls": lambda c: c["calls"].get("terms.alpha_eq", 0),
    "terms.hash_calls": lambda c: c["extra"].get("hash_calls", 0),
    "terms.eq_calls": lambda c: c["extra"].get("eq_calls", 0),
    "algebra.queries": lambda c: (c["calls"].get("algebra.interval_eq", 0)
                                  + c["calls"].get("algebra.face_eq", 0)),
    "algebra.evals": lambda c: (c["outer"].get("algebra.eval_interval", 0)
                                + c["outer"].get("algebra.eval_face", 0)),
    "runtime.gc_collections": lambda c: c["extra"].get("gc_collections", 0),
}


def _t(c: dict, *keys: str) -> float:
    return sum(c["time"].get(k, 0.0) for k in keys)


TIMES = {
    "parser.tokenize_s": lambda c: _t(c, "parser.tokenize"),
    "parser.parse_s": lambda c: (_t(c, "parser.parse_file", "parser.parse_term")
                                 - _t(c, "parser.tokenize")),
    "theory.build_s": lambda c: _t(c, "theory.build_theory",
                                   "theory.first_attempt_signature"),
    "check.declaration_s": lambda c: c["self_time"].get("check", 0.0),
    "rewrite.whnf_s": lambda c: _t(c, "rewrite.Reducer.whnf"),
    "rewrite.conv_s": lambda c: _t(c, "rewrite.Reducer.conv"),
    "rewrite.normalize_s": lambda c: _t(c, "rewrite.Reducer.normalize"),
    "rewrite.whnf_cache_hit_ratio": lambda c: _ratio(
        c["extra"].get("whnf_cache_hits", 0), c["extra"].get("whnf_cache_misses", 0)),
    "rewrite.nf_cache_hit_ratio": lambda c: _ratio(
        c["extra"].get("nf_cache_hits", 0), c["extra"].get("nf_cache_misses", 0)),
    "rewrite.traced_s": lambda c: _t(c, "rewrite.Reducer.normalize_traced"),
    "rewrite.cp_generate_s": lambda c: _t(c, "rewrite.critical_pairs"),
    "rewrite.joinable_s": lambda c: _t(c, "rewrite.joinable"),
    "terms.subst_s": lambda c: _t(c, "terms.subst"),
    "terms.free_vars_s": lambda c: _t(c, "terms.free_vars"),
    "terms.alpha_eq_s": lambda c: _t(c, "terms.alpha_eq"),
    "algebra.interval_eq_s": lambda c: _t(c, "algebra.interval_eq"),
    "algebra.face_eq_s": lambda c: _t(c, "algebra.face_eq"),
    "runtime.gc_s": lambda c: c["gc_s"],
}

UNITS = {**{k: "count" for k in COUNTS}, **{k: "s" for k in TIMES}}
UNITS.update({"rewrite.whnf_cache_hit_ratio": "ratio",
              "rewrite.nf_cache_hit_ratio": "ratio",
              "theory.import_s": "s", "cli.interpreter_s": "s",
              "cli.import_s": "s", "cli.check_s": "s", "cli.cp_s": "s",
              "cli.reduce_s": "s", "cli.oracle_s": "s",
              "trace.overhead_ratio": "ratio"})


def per_layer(workload: str, plain: list[dict],
              traced: list[dict]) -> tuple[dict, list[str]]:
    notes = []
    values = {}
    for name, f in COUNTS.items():
        seen = [f(r["counters"]) for r in traced]
        values[name] = seen[0]
        if len(set(seen)) > 1:
            notes.append(f"{name} does not repeat across traced rounds: {seen}")

    # times are rescaled to the nominal host speed, as end to end
    def adjusted(rounds, f):
        return median(f(r) * REF_NOMINAL_S / r["ref_wall"] for r in rounds)

    for name, f in TIMES.items():
        values[name] = adjusted(traced, lambda r: f(r["counters"]))
    for key, name in (("theory_import_s", "theory.import_s"),
                      ("interpreter_s", "cli.interpreter_s"),
                      ("import_s", "cli.import_s")):
        values[name] = adjusted(traced, lambda r: r["probes"].get(key, 0.0))
    for group in CLI_GROUPS:
        values[f"cli.{group}_s"] = adjusted(
            plain, lambda r: sum(w for _, g, w, _, _ in r["items"] if g == group))
    limit = LIMITS[workload]
    values["trace.overhead_ratio"] = (timing(traced, limit, True)["wall"]
                                      / timing(plain, limit, True)["wall"])
    dropped = sum(r["counters"]["dropped_spans"] for r in traced)
    if dropped:
        notes.append(f"{dropped} spans past the in-memory cap were not kept")
    notes.append(f"{len(traced)} traced and {len(plain)} plain rounds; spans "
                 f"of the last traced round in perfbench/out/spans-{workload}.jsonl")
    return {k: (v, UNITS[k]) for k, v in values.items()}, notes


# -- entry point -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool):
    plain, traced = run_rounds(workload, seed, seconds, trace)
    rounds = plain + traced
    if trace:
        metrics, notes = per_layer(workload, plain, traced)
    else:
        metrics, notes = end_to_end(workload, plain)
    problems = [p for r in rounds for p in r["wrong"] + r["unexpected"]]
    attempted = sum(len(r["items"]) for r in rounds)
    failed = sum(err is not None for r in rounds for *_, err in r["items"])
    return metrics, notes, problems, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*LIMITS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "morgandk" / "__init__.py").is_file() \
            or not (ROOT / "theories").is_dir():
        print(f"error: no morgandk sources under {ROOT}", file=sys.stderr)
        return 2

    workloads = list(LIMITS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            metrics, notes, problems, attempted, failed = measure(
                w, args.seed, args.seconds, bool(args.trace))
        except RoundError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"== {w} (seed {args.seed}, trace {args.trace})")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for note in notes:
            print(f"# {note}")
        for p in problems:
            print(f"! {p}")
        prefix = f"{w}." if len(workloads) > 1 else ""
        result["metrics"].update({prefix + k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()})
        result["correct"] = result["correct"] and not problems
        result["attempted"] += attempted
        result["failed"] += failed
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
