"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect OUT_DIR [TREE [TREE]] [--workloads a,b] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/compare.py report SET_A [SET_B]

``collect`` runs each TREE's own ``perfbench/run.py`` once per workload and
seed, one run at a time, with the run length of this checkout's
BENCHMARK.json.  A TREE is the root of a source checkout holding
``src/qsl3``, ``perfbench/`` and ``BENCHMARK.json``; the default is this
checkout.  The trees take turns run by run, and which one goes first
alternates, so that a drift of the machine's speed falls on both sets
alike: compare a parent with a change only from sets collected together.
The runs of the first tree form set ``OUT_DIR/A``, those of the second
``OUT_DIR/B``; each run's output, whose last line is its JSON result, is
stored there as ``<workload>.seed<n>.trace<t>.json``.

``report`` prints, for each workload and end-to-end metric, the median and
quartiles of each set and the spread (quartile distance over the median).
Given two sets it adds the change of B's median against A's, in the
direction that is worse, and a verdict: ``agree`` when the change stays
within the bound of BENCHMARK.json and both spreads are within it too,
``worse`` when it exceeds the bound, ``unresolved`` when a spread is wider
than the bound (unless every run of B is better than every run of A).
Deterministic counts from traced runs (``*.calls``,
``tensor.psi_block.built``, ``canonical.correction_steps``,
``laurent.max_coeff_bits``) must be identical across every run of both
sets; so must the share of failed operations, and the operations of a
round, so that two trees whose workloads differ are not compared as if
they did the same work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("tensor.psi_block.built", "canonical.correction_steps", "laurent.max_coeff_bits")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(out: Path, trees: list, workloads: list, seeds: list, trace: int) -> int:
    seconds = _spec()["run_seconds"]
    sets = [(tree.resolve(), out / "AB"[n]) for n, tree in enumerate(trees)]
    for tree, dest in sets:
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"{tree} has no perfbench/run.py", file=sys.stderr)
            return 1
        dest.mkdir(parents=True, exist_ok=True)
    status = 0
    turn = 0
    for seed in seeds:
        for w in workloads:
            for tree, dest in sets[turn:] + sets[:turn]:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=tree, capture_output=True, text=True)
                tag = f"{dest.name} {w} seed {seed}"
                if proc.returncode != 0:
                    print(f"{tag}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    status = 1
                    continue
                (dest / f"{w}.seed{seed}.trace{trace}.json").write_text(proc.stdout)
                print(f"{tag}: done", file=sys.stderr)
            turn = (turn + 1) % len(sets)
    return status


def load_set(path: Path) -> dict:
    """{workload: {"e2e": [results], "trace": [results], "round_ops": [lists]}}"""
    runs: dict = {}
    for f in sorted(path.glob("*.json")):
        workload, _, rest = f.name.partition(".seed")
        kind = "trace" if rest.endswith("trace1.json") else "e2e"
        lines = f.read_text().strip().splitlines()
        entry = runs.setdefault(workload, {"e2e": [], "trace": [], "round_ops": []})
        entry[kind].append(json.loads(lines[-1]))
        rounds = [json.loads(x[len("rounds "):]) for x in lines if x.startswith("rounds ")]
        entry["round_ops"].append(rounds[0]["ops"] if rounds else None)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _worse_share(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def report(set_a: Path, set_b: Path | None) -> int:
    spec = _spec()
    sets = [load_set(set_a)] + ([load_set(set_b)] if set_b else [])
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        e2e = [s.get(workload, {}).get("e2e", []) for s in sets]
        for n, runs in enumerate(e2e):
            if runs:
                failed = {r["failed"] / r["attempted"] for r in runs}
                print(f"  set {'AB'[n]}: {len(runs)} runs, failed share {sorted(failed)}, "
                      f"correct {all(r['correct'] for r in runs)}")
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in e2e if runs]
        if len(set().union(*shares)) > 1:
            print("  failed share DIFFERS")
            bad += 1
        round_ops = [ops for s in sets for ops in s.get(workload, {}).get("round_ops", [])]
        if round_ops:
            per_round = {n for ops in round_ops for n in (ops or [None])}
            if len(per_round) == 1 and None not in per_round:
                print(f"  operations per round: {per_round.pop()} in all {len(round_ops)} runs")
            else:
                print("  operations per round DIFFER or are missing: "
                      f"{sorted(per_round, key=str)}")
                bad += 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            stats = []
            for runs in e2e:
                vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                stats.append((vals, med, (q3 - q1) / med))
                cols.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {100 * (q3 - q1) / med:5.1f}%")
            line = f"  {name:12s} {m['unit']:4s} " + " | ".join(cols)
            if len(stats) == 2:
                (va, ma, sa), (vb, mb, sb) = stats
                change = _worse_share(ma, mb, m["better"])
                clear_win = (max(vb) < min(va)) if m["better"] == "lower" else (min(vb) > max(va))
                if change > bound:
                    verdict = "worse"
                elif max(sa, sb) > bound and not clear_win:
                    verdict = "unresolved"
                else:
                    verdict = "agree"
                bad += verdict != "agree"
                line += f" | worse by {100 * change:+.1f}% (bound {100 * bound:.0f}%) {verdict}"
            elif stats and name != "setup_s" and stats[0][2] > bound / 3:
                line += f"   spread above a third of the bound {bound}"
            print(line)
        traced = [r for s in sets for r in s.get(workload, {}).get("trace", [])]
        if traced:
            names = sorted({k for r in traced for k in r["metrics"]
                            if k.endswith(".calls") or k in EXACT})
            differ = [k for k in names
                      if len({r["metrics"][k]["value"] for r in traced if k in r["metrics"]}) > 1]
            print(f"  deterministic counts over {len(traced)} traced runs: "
                  + (f"DIFFER in {differ}" if differ else f"all {len(names)} match"))
            bad += bool(differ)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="collect or compare benchmark run sets")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out", type=Path)
    c.add_argument("trees", type=Path, nargs="*", default=[ROOT])
    c.add_argument("--workloads", default=",".join(w["name"] for w in _spec()["workloads"]))
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("set_a", type=Path)
    r.add_argument("set_b", type=Path, nargs="?")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        if len(args.trees) > 2:
            ap.error("collect takes one or two trees")
        return collect(args.out, args.trees, args.workloads.split(","), _seeds(args.seeds),
                       args.trace)
    return report(args.set_a, args.set_b)


if __name__ == "__main__":
    sys.exit(main())
