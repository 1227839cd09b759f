"""Command-line front end.

Subcommands: identities, module, psi, canbasis, verify, verify-all,
sigma-check.  All outputs are deterministic JSON.  Exit codes: 0 all checks
passed, 1 mathematical mismatch, 2 usage or configuration error, 3 internal
integrity failure (an invariant that is a theorem was violated at runtime).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__, qcomb
from .canonical import (canonical_basis, sigma_closure_check,
                        verify_family, verify_expr)
from .errors import (AntisymmetryFailure, DomainError, IntegralityFailure,
                     RealizationError)
from .laurent import NotDivisible
from .linalg import Inconsistent
from .modules import build_highest_module, build_lowest_module
from .tensor import build_psi, get_tensor_space, set_cache_dir
from .udot import (ALL_FAMILY_IDS, FamilyId, UdotExpr, family_admissible,
                   parse_word, word_labels)

SCHEMA = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3

_INTEGRITY_ERRORS = (AntisymmetryFailure, IntegralityFailure, Inconsistent,
                     NotDivisible, RealizationError)

# The work of one window grows four- to sevenfold per step: checking one
# word takes seconds at window 6 and over half a minute at window 7.
MAX_WINDOW = 6


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_INT_ONLY = {int}

# Per nesting depth: list open, item separator, list close, dict open, dict
# close.  Built once and shared, so every chunk of the output that is not a
# scalar is one of these objects.
_LEVELS: list = []


def _level(depth: int) -> tuple:
    while len(_LEVELS) <= depth:
        d = len(_LEVELS)
        inner = "\n" + "  " * (d + 1)
        outer = "\n" + "  " * d
        _LEVELS.append(("[" + inner, "," + inner, outer + "]",
                        "{" + inner, outer + "}"))
    return _LEVELS[depth]


def _write(o, depth: int, out) -> None:
    if isinstance(o, str):
        out(_encode_str(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(_int_repr(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"non-finite float {o!r} has no JSON text")
        out(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        opener, sep, closer, _, _ = _level(depth)
        if set(map(type, o)) == _INT_ONLY:    # plain ints, no bools
            out(opener + sep.join(map(_int_repr, o)) + closer)
            return
        out(opener)
        first = True
        for x in o:
            if first:
                first = False
            else:
                out(sep)
            _write(x, depth + 1, out)
        out(closer)
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        _, sep, _, opener, closer = _level(depth)
        out(opener)
        first = True
        for key, x in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if first:
                first = False
            else:
                out(sep)
            out(_encode_str(key))
            out(": ")
            _write(x, depth + 1, out)
        out(closer)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, written directly.

    The stdlib's C encoder does not take ``indent``, so its pretty printer
    runs in pure Python; this writer produces the same text with fewer,
    mostly shared chunks.  Dict keys must be strings and floats finite.
    """
    chunks: list = []
    _write(payload, 0, chunks.append)
    return "".join(chunks)


def _emit(payload: dict, out_path) -> None:
    text = _dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_ints(text: str, n: int, what: str) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"{what} must be {n} comma-separated integers")
    if len(parts) != n:
        raise DomainError(f"{what} must be {n} comma-separated integers")
    return parts


def _int_range(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` and, when given,
    no larger than ``high``."""
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n
    return integer


# -- identities ---------------------------------------------------------------


def cmd_identities(args) -> int:
    na, ra, ma = _parse_ints(args.grid_a, 3, "--grid-a")
    mb, db = _parse_ints(args.grid_b, 2, "--grid-b")
    ac, uc, bc = _parse_ints(args.grid_c, 3, "--grid-c")
    checks = []
    failures = []

    def run(identity, argtuple, fn, sides):
        ok = fn(*argtuple)
        checks.append({"identity": identity, "args": list(argtuple), "ok": ok})
        if not ok:
            lhs, rhs = sides(*argtuple)
            failures.append({"identity": identity, "args": list(argtuple),
                             "lhs": lhs.text(), "rhs": rhs.text()})

    for n in range(na + 1):
        for r in range(ra + 1):
            for m in range(-ma, ma + 1):
                run("vandermonde", (n, r, m), qcomb.qvandermonde_check, qcomb.qvandermonde_sides)
    for m in range(mb + 1):
        for k in range(m + 1):
            for d in range(db + 1):
                run("vandermonde-negative", (m, k, d), qcomb.qvandermonde_negative_check, qcomb.qvandermonde_negative_sides)
    for a in range(ac + 1):
        for c in range(a + 1):
            for u in range(uc + 1):
                for r in range(uc + 1):
                    for b in range(-bc, bc + 1):
                        run("triple-transform", (a, c, u, r, b),
                            qcomb.triple_transform_check, qcomb.triple_transform_sides)
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "total": len(checks),
        "failures": failures,
        "checks": checks,
        "ok": not failures,
    }
    _emit(payload, args.out)
    return EXIT_OK if not failures else EXIT_MISMATCH


# -- structure dumps ----------------------------------------------------------


def cmd_module(args) -> int:
    a, b = _parse_ints(args.weight, 2, "--weight")
    mod = build_lowest_module(a, b) if args.lowest else build_highest_module(a, b)
    payload = {"schema": SCHEMA, "version": __version__}
    payload.update(mod.to_json())
    _emit(payload, args.out)
    return EXIT_OK


def cmd_psi(args) -> int:
    s, t, a, b = _parse_ints(args.params, 4, "--params")
    space = get_tensor_space(s, t, a, b)
    op = build_psi(space)
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "params": [s, t, a, b],
        "dimension": space.dim,
        "blocks": op.blocks_json(),
        "invariants": {
            "verified": True,
            "checks": ["entries in Z[v,v^-1]", "unit diagonal",
                       "triangular for the pair order", "bar(rho) rho = 1"],
            "num_blocks": len(space.weight_spaces),
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_canbasis(args) -> int:
    s, t, a, b = _parse_ints(args.params, 4, "--params")
    space = get_tensor_space(s, t, a, b)
    elements = canonical_basis(space)
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "params": [s, t, a, b],
        "dimension": space.dim,
        "elements": [elements[k].to_json(space) for k in sorted(elements)],
    }
    _emit(payload, args.out)
    return EXIT_OK


# -- verification -------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.expr:
        if args.family or args.exps or args.weight:
            raise DomainError("--expr excludes --family/--exps/--weight")
        word = parse_word(args.expr)
        expr = UdotExpr.from_word(word)
        labels = word_labels(word)
        rep = verify_expr(expr, labels, word.zeta(), args.window,
                          name=f"expr[{word.text()}]", keep_vectors=True)
    else:
        if not (args.family and args.exps and args.weight):
            raise DomainError("need --family, --exps and --weight (or --expr)")
        fid = FamilyId.parse(args.family)
        h, k, j, u, v, w = _parse_ints(args.exps, 6, "--exps")
        l, m = _parse_ints(args.weight, 2, "--weight")
        rep = verify_family(fid, (h, k, j, l, m, u, v, w),
                               window=args.window, keep_vectors=True)
    payload = {"schema": SCHEMA, "version": __version__, "report": rep.to_json()}
    _emit(payload, args.out)
    if not rep.admissible:
        return EXIT_OK
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def cmd_sigma_check(args) -> int:
    fid = FamilyId.parse(args.family)
    h, k, j, u, v, w = _parse_ints(args.exps, 6, "--exps")
    l, m = _parse_ints(args.weight, 2, "--weight")
    rep = sigma_closure_check(fid, (h, k, j, l, m, u, v, w), window=args.window)
    payload = {"schema": SCHEMA, "version": __version__, "report": rep.to_json()}
    _emit(payload, args.out)
    if not rep.admissible:
        return EXIT_OK
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def iter_admissible_params(fid: FamilyId, max_exp: int, max_weight: int):
    rng = range(max_exp + 1)
    for h, k, j, u, v, w in itertools.product(rng, repeat=6):
        if k < h + j or v < u + w:
            continue
        for l in range(-max_weight, max_weight + 1):
            for m in range(-max_weight, max_weight + 1):
                if family_admissible(fid, h, k, j, l, m, u, v, w):
                    yield (h, k, j, l, m, u, v, w)


def _verify_work_item(item):
    fid, params, window, keep_vectors = item
    rep = verify_family(fid, params, window, keep_vectors=keep_vectors)
    return rep.to_json()


def cmd_verify_all(args) -> int:
    if args.families:
        fids = [FamilyId.parse(x) for x in args.families.split(",")]
    else:
        fids = list(ALL_FAMILY_IDS)
    t0 = time.monotonic()
    work = [(fid, params, args.window, args.full_vectors)
            for fid in fids
            for params in iter_admissible_params(fid, args.max_exp, args.max_weight)]
    workers = min(args.jobs, os.cpu_count() or 1, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_verify_work_item, work, chunksize=8))
    else:
        reports = [_verify_work_item(item) for item in work]
    counts = {"canonical": 0, "zero": 0, "mismatch": 0}
    for rep in reports:
        for o in rep["outcomes"]:
            counts[o["status"]] += 1
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "config": {
            "families": [str(f) for f in fids],
            "max_exp": args.max_exp,
            "max_weight": args.max_weight,
            "window": args.window,
            "jobs": args.jobs,
        },
        "summary": {
            "tuples": len(work),
            "window_checks": sum(counts.values()),
            **counts,
            "elapsed_seconds": round(time.monotonic() - t0, 3),
        },
        "reports": reports,
    }
    _emit(payload, args.out)
    return EXIT_OK if counts["mismatch"] == 0 else EXIT_MISMATCH


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsl3",
        description="Exact canonical-basis computations for the modified "
                    "quantized enveloping algebra of type A2.")
    ap.add_argument("--cache-dir", default=None,
                    help="involution cache directory (overrides QSL3_CACHE_DIR;"
                         " empty string disables)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="check the quantum-binomial identities")
    p.add_argument("--grid-a", default="4,4,5", help="n_max,r_max,|m|_max")
    p.add_argument("--grid-b", default="6,4", help="m_max,delta_max")
    p.add_argument("--grid-c", default="4,3,4", help="a_max,(u,r)_max,|b|_max")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("module", help="dump a module realization")
    p.add_argument("--weight", required=True, help="a,b")
    p.add_argument("--lowest", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("psi", help="dump the involution matrices per weight space")
    p.add_argument("--params", required=True, help="s,t,a,b")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("canbasis", help="dump the canonical basis of a tensor product")
    p.add_argument("--params", required=True, help="s,t,a,b")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_canbasis)

    p = sub.add_parser("verify", help="verify one catalog element or word expression")
    p.add_argument("--family", help="family id, e.g. 6, 6p, 6m, 6pm")
    p.add_argument("--exps", help="h,k,j,u,v,w")
    p.add_argument("--weight", help="l,m")
    p.add_argument("--expr", help="word in the grammar 'e2^3 e1^4 1[(l,m)] f2^1'")
    p.add_argument("--window", type=_int_range(0, MAX_WINDOW), default=4)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-all", help="sweep families over parameter grids")
    p.add_argument("--families", help="comma-separated ids (default: all 52)")
    p.add_argument("--max-exp", type=_int_range(0), default=1)
    p.add_argument("--max-weight", type=_int_range(0), default=6)
    p.add_argument("--window", type=_int_range(0, MAX_WINDOW), default=4)
    p.add_argument("--jobs", type=_int_range(1), default=1,
                   help="worker processes, at most one per CPU and per tuple")
    p.add_argument("--full-vectors", action="store_true",
                   help="embed canonical vectors in every certificate")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("sigma-check", help="verify the sigma image of an element")
    p.add_argument("--family", required=True)
    p.add_argument("--exps", required=True, help="h,k,j,u,v,w")
    p.add_argument("--weight", required=True, help="l,m")
    p.add_argument("--window", type=_int_range(0, MAX_WINDOW), default=4)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sigma_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cache_dir is not None:
        set_cache_dir(args.cache_dir)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"qsl3: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INTEGRITY_ERRORS as exc:
        print(f"qsl3: internal integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
