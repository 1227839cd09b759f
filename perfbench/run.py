"""Benchmark of qsl3's two computations: catalog sweeps and canonical bases.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Each round is a fresh worker
process (``worker.py``) that imports qsl3 from ``src/`` and runs the
workload's command lines through ``qsl3.cli.main``.  Rounds repeat, one at
a time, as long as their timed phases fit in ``--seconds`` (at least one),
and every end-to-end metric is a median over them; set-up time is the
median over probe workers that stop once qsl3 is imported, too.  With
``--trace 1`` one more round runs under the per-layer tracer and the
per-layer metrics are reported instead, with the tracing overhead; no
probes run then, since set-up time is not reported.

A whole run must end within 180 s, so every worker is stopped at
``RUN_LIMIT_S`` and the run then exits with status 1 and no result.
Rounds stop early when the next one, and the traced round after it,
would not end before that limit, so a slower program gets fewer rounds
before it gets no figures: with one untraced round, ``canbasis-cold``
fails once that round takes about 55 s.

The rho disk cache of every cold round is a fresh empty directory of the
run; warm rounds read a cache filled once per source tree under
``.bench_build/perfbench`` and must leave it byte-identical.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qsl3"
STATE = ROOT / ".bench_build" / "perfbench"
PROBES = 8
# a run must end within 180 s; this leaves time to stop a late worker and
# report (the warm-cache prefill of a new source tree has its own limit)
RUN_LIMIT_S = 170.0
PREFILL_LIMIT_S = 600.0
# a traced round takes up to about twice an untraced one (canbasis-cold
# pays the most, +90%, for 13.5 million wrapped Laurent calls)
TRACE_FACTOR = 2.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _source_key() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(f.read_bytes())
    return h.hexdigest()[:20]


def _worker(spec: dict, outdir: Path, cache: Path, deadline: float) -> dict:
    """Run one worker to completion and return its measurements."""
    outdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, outdir=str(outdir))
    spec_path = outdir / "spec.json"
    # bytecode is always cached, outside src/, and site-packages stay out
    # of the worker (-S): qsl3 needs only the standard library
    env = dict(os.environ, QSL3_CACHE_DIR=str(cache), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(STATE / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spec["launched"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, "-S", str(HERE / "worker.py"), str(spec_path)],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} worker exceeded the time limit")
    result_path = outdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{spec['mode']} worker failed (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    return json.loads(result_path.read_text())


def _warm_cache(run_dir: Path, deadline: float) -> tuple:
    """The pre-filled cache directory for warm rounds and its digest."""
    key = _source_key()
    cache = STATE / f"warm-{key}"
    manifest = STATE / f"warm-{key}.sha256"
    if cache.is_dir() and manifest.exists() and manifest.read_text() == _tree_digest(cache):
        return cache, manifest.read_text()
    shutil.rmtree(cache, ignore_errors=True)
    tmp = run_dir / "prefill"
    spec = {"workload": "sweep-warm", "mode": "prefill", "trace": False,
            "seed": 0, "round": 0}
    result = _worker(spec, tmp / "out", tmp / "cache", deadline)
    if any(result["exit_codes"]):
        raise BenchError(f"prefill commands exited with {result['exit_codes']}")
    digest = _tree_digest(tmp / "cache")
    (tmp / "cache").rename(cache)
    manifest.write_text(digest)
    return cache, digest


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "cli.py").is_file():
        raise BenchError(f"no qsl3 sources under {SRC}")
    STATE.mkdir(parents=True, exist_ok=True)
    run_dir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        warm = workloads.WORKLOADS[workload]["cache"] == "warm"
        if warm:
            cache, digest = _warm_cache(run_dir, started + PREFILL_LIMIT_S)
            deadline = time.monotonic() + RUN_LIMIT_S
        base = {"workload": workload, "seed": seed, "trace": False}

        def probe(n: int) -> float:
            return _worker(dict(base, mode="probe", round=0), run_dir / f"probe{n}",
                           run_dir / "probe-cache", deadline)["setup_s"]

        # set-up is sampled before and after the rounds, so that one stretch
        # of machine noise does not set the median; the first probe is not
        # measured, so every measured one finds compiled bytecode
        setups = []
        if not trace:
            probe(0)
            setups += [probe(n) for n in range(1, PROBES + 1)]

        def run_round(n: int, tracing: bool) -> dict:
            outdir = run_dir / f"round{n}"
            r = _worker(dict(base, mode="round", round=n, trace=tracing), outdir,
                        cache if warm else outdir / "cache", deadline)
            if warm and _tree_digest(cache) != digest:
                shutil.rmtree(cache, ignore_errors=True)
                r["problems"].append("the warm cache directory changed during the round")
            if any(r["exit_codes"]):
                r["problems"].append(f"commands exited with {r['exit_codes']}")
            shutil.rmtree(outdir, ignore_errors=True)
            return r

        # whole rounds, as many as fit in --seconds of timed phase (at least
        # one) and end, with the traced round, before the deadline
        rounds = [run_round(0, tracing=False)]
        reserve = TRACE_FACTOR * rounds[0]["wall_s"] if trace else 0.0
        while (sum(r["wall_s"] for r in rounds) + rounds[-1]["wall_s"] <= seconds
               and time.monotonic() + 1.5 * rounds[-1]["wall_s"] + reserve < deadline):
            rounds.append(run_round(len(rounds), tracing=False))
        setups += [r["setup_s"] for r in rounds]
        traced = run_round(len(rounds), tracing=True) if trace else None
        if not trace:
            setups += [probe(n) for n in range(PROBES + 1, 2 * PROBES + 1)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    done = rounds + ([traced] if traced else [])
    problems = [p for r in done for p in r["problems"]]
    out = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "problems": problems,
        "rounds": {"wall_s": [r["wall_s"] for r in done], "ops": [r["ops"] for r in done]},
    }
    wall = statistics.median([r["wall_s"] for r in rounds])
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median([r["cpu_s"] for r in rounds]), "unit": "s"},
            "ops_per_s": {"value": statistics.median([r["ops"] / r["wall_s"] for r in rounds]),
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in rounds]),
                            "unit": "MB"},
        }
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for p in res.pop("problems")[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    rounds = res.pop("rounds")
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds['ops'])} rounds "
          f"({', '.join(f'{w:.3f}' for w in rounds['wall_s'])} s"
          f"{', the last traced' if args.trace else ''}), "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"correct={res['correct']}")
    # the operations of each round, which compare.py requires to be equal
    # across every run of two sets
    print("rounds " + json.dumps(rounds))
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
