"""Record the reference results that the benchmark's seed-independent
items are checked against, by running morgandk itself.

Usage, from the root of a checkout:  PYTHONPATH=src python3 perfbench/record_golden.py

Run it only on a commit whose verdicts are known to be right; the file
it writes, perfbench/golden.json, is what later commits are held to.
"""

import json
import subprocess
import sys
from pathlib import Path

from morgandk import parser, rewrite, theory

import rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = sorted(f"theories/{p.name}" for p in (ROOT / "theories").glob("*.dk"))

# Commands whose output does not depend on the seed: (name, group, argv,
# whether stderr is compared too).
COMMANDS = (
    ("check.corpus", "check", ["check", *CORPUS], False),
    ("check.type_error", "check",
     ["check", "perfbench/data/type_error.dk"], True),
    ("check.fuel", "check", ["check", "--fuel", "20", *CORPUS], True),
    ("cp.algebraic", "cp",
     ["cp", "--context", "theories/01-2ltt-core.dk",
      "--context", "theories/07-cubical-core.dk",
      "theories/08-cubical-interval.dk", "theories/10-cubical-faces.dk"],
     False),
    ("reduce.trace", "reduce",
     ["reduce", "--trace", "--format", "json-lines", "exDouble exTwo"], False),
)


def corpus() -> list[list[int]]:
    out = []
    for cfg in rounds.all_configs(theory):
        sig = theory.build_theory(cfg)
        out.append([len(sig.consts), len(sig.rule_list())])
    return out


def critical_pairs() -> dict:
    out = {}
    for label, sig, rules in rounds.rule_sets(theory):
        own = sig.copy()
        pairs = rewrite.critical_pairs(rules)
        keys = [(cp.rule1, cp.rule2, cp.position) for cp in pairs]
        if len(set(keys)) != len(keys):
            raise SystemExit(f"{label}: critical pairs are not told apart "
                             "by rules and position")
        bad = []
        for cp in pairs:
            verdict = rewrite.joinable(
                own.reducer(fuel=rewrite.Fuel(rewrite.DEFAULT_FUEL)), cp)
            if isinstance(verdict, rewrite.Fails):
                left, right = verdict.witness
                bad.append([cp.rule1, cp.rule2, list(cp.position),
                            parser.pretty(left), parser.pretty(right)])
        out[label] = {"pairs": len(pairs), "non_joinable": bad}
    return out


def commands() -> list[dict]:
    out = []
    for name, group, argv, with_stderr in COMMANDS:
        p = subprocess.run([sys.executable, "-m", "morgandk", *argv],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=60)
        rec = {"name": name, "group": group, "argv": argv,
               "code": p.returncode, "stdout": p.stdout}
        if with_stderr:
            rec["stderr"] = p.stderr
        out.append(rec)
    return out


def main() -> None:
    golden = {"corpus": corpus(), "cp": critical_pairs(), "cli": commands()}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
