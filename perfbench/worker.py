"""One round of a workload in a fresh process.

    python3 perfbench/worker.py SPEC_JSON

The runner writes the spec (workload, output directory, seed, mode) and
the monotonic time at which it launched this process; the worker writes
its measurements to ``<outdir>/result.json``.  Modes: ``probe`` stops
after set-up, ``round`` runs the timed phase and the checks, ``prefill``
runs the timed phase only (to fill a warm cache).  With ``trace`` set the
timed phase runs under the per-layer tracer.
"""

import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    outdir = spec["outdir"]

    import qsl3.cli
    import checks
    import workloads

    commands = workloads.command_lines(spec["workload"], outdir)
    result = {"setup_s": time.monotonic() - spec["launched"]}
    if spec["mode"] == "probe":
        return _write(outdir, result)

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    codes = []
    c0 = time.process_time()
    t0 = time.monotonic()
    for argv, _ in commands:
        codes.append(qsl3.cli.main(argv))
    wall = time.monotonic() - t0
    cpu = time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_mb, exit_codes=codes)
    paths = [p for _, p in commands]
    if tracer is not None:
        result["layers"] = tracer.metrics(os.environ["QSL3_CACHE_DIR"], paths)
    if spec["mode"] == "round":
        ops, failed, problems = _check(spec, paths, checks, workloads)
        result.update(ops=ops, failed=failed, problems=problems)
    return _write(outdir, result)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check(spec, paths, checks, workloads) -> tuple:
    from qsl3.tensor import _registry, get_tensor_space

    rng = random.Random(f"{spec['seed']}:{spec['workload']}:{spec['round']}")
    docs = [_load(p) for p in paths]
    ops = failed = 0
    problems = []
    if workloads.WORKLOADS[spec["workload"]]["kind"] == "sweep":
        for sweep, doc in zip(workloads.SWEEPS, docs):
            config = workloads.sweep_config(sweep)
            o, f, p = checks.check_sweep(doc, config, checks.sweep_expectation(config))
            ops, failed, problems = ops + o, failed + f, problems + p
        problems += checks.check_families_covered(docs, workloads.ALL_FAMILIES)
        spaces = [_registry[k] for k in sorted(_registry) if _registry[k]._psi is not None]
        for space in rng.sample(spaces, min(8, len(spaces))):
            problems += checks.check_psi_involution(space, rng, trials=6)
    else:
        for params, doc in zip(workloads.CANBASIS_PARAMS, docs):
            o, f, p = checks.check_canbasis(doc, params)
            ops, failed, problems = ops + o, failed + f, problems + p
            if doc is not None:
                space = get_tensor_space(*params)
                problems += checks.check_psi_fixed(doc, space)
                problems += checks.check_psi_involution(space, rng, trials=20)
    return ops, failed, problems


def _write(outdir, result) -> int:
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
