"""The benchmark's workloads: which qsl3 command lines one round runs.

A round is one fresh worker process that runs the workload's command lines
through ``qsl3.cli.main``, so the process-wide registry, ``lru_cache`` and
prefix caches start empty every time.

    sweep-warm     the A5 tier-1 families at exponents <= 2, then all 52
                   families at exponents <= 1, window 3, against a rho
                   cache filled once beforehand and only read by timed
                   rounds
    canbasis-cold  every canonical element of T(2,2,2,2) and T(4,1,1,4),
                   empty rho cache
"""

from __future__ import annotations

TIER1_FAMILIES = ("1", "2", "6", "8", "1p", "2p", "6p", "8p")
ALL_FAMILIES = tuple(f"{i}{p}{m}" for m in ("", "m") for p in ("", "p")
                     for i in range(1, 14))

# One verify-all command each: (families or None for the default 52,
# max exponent, max |weight coordinate|, window).
SWEEPS = (
    (TIER1_FAMILIES, 2, 6, 3),
    (None, 1, 6, 3),
)

CANBASIS_PARAMS = ((2, 2, 2, 2), (4, 1, 1, 4))

WORKLOADS = {
    "sweep-warm": {"kind": "sweep", "cache": "warm"},
    "canbasis-cold": {"kind": "canbasis", "cache": "cold"},
}


def sweep_config(sweep: tuple) -> dict:
    families, max_exp, max_weight, window = sweep
    return {"families": list(families or ALL_FAMILIES), "max_exp": max_exp,
            "max_weight": max_weight, "window": window}


def command_lines(workload: str, outdir: str) -> list:
    """``(argv, output path)`` for every command of one round, in order."""
    kind = WORKLOADS[workload]["kind"]
    out = []
    if kind == "sweep":
        for n, (families, max_exp, max_weight, window) in enumerate(SWEEPS):
            path = f"{outdir}/sweep{n}.json"
            argv = ["verify-all"]
            if families is not None:
                argv += ["--families", ",".join(families)]
            argv += ["--max-exp", str(max_exp), "--max-weight", str(max_weight),
                     "--window", str(window), "--jobs", "1", "--out", path]
            out.append((argv, path))
    else:
        for params in CANBASIS_PARAMS:
            path = f"{outdir}/canbasis_{'_'.join(map(str, params))}.json"
            out.append((["canbasis", "--params", ",".join(map(str, params)),
                         "--out", path], path))
    return out
