"""Checks of a round's outputs, made after the timed phase.

Nothing here compares against stored copies of earlier output.  The sweep
checks rest on two independent routes to the same element (the closed-form
catalog and the triangular correction, whose disagreement the program
reports as ``mismatch``) and on counts the benchmark derives itself: it
enumerates the exponent grid, keeps the tuples that meet the families'
displayed side conditions (restated here, not taken from the program),
and applies the window rule to the right weight of each tuple's leading
word.  The canbasis checks rest on properties the method must have: the
Weyl dimension count, unit diagonal, coefficients in v^-1 Z[v^-1],
triangular support for the pair order, psi-fixed elements, and psi being
the bar-semilinear involution that fixes xi (x) eta and commutes with
divided-power words.

Every check returns ``(operations, failed, problems)``: the operations the
output should hold, how many of them are missing or reported as failed by
the program, and a list of human-readable problems (empty when correct).
"""

from __future__ import annotations

import itertools
import random


def weyl_dim(a: int, b: int) -> int:
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def window_rule(zeta: tuple, window: int) -> list:
    """Every (s, t, a, b) with s+t <= window, a+b <= window, all four
    nonnegative, and (a - s, b - t) == zeta."""
    z1, z2 = zeta
    out = []
    for s, t, a, b in itertools.product(range(window + 1), repeat=4):
        if s + t <= window and a + b <= window and a - s == z1 and b - t == z2:
            out.append((s, t, a, b))
    return sorted(out)


# The displayed side conditions of the 13 base families, restated with
# L = -l, M = -m and the two slacks p = k - h - j, q = v - u - w (both >= 0
# on the grid).  Sigma images and mirrors keep their base family's
# conditions.
def _conditions(index, h, k, j, L, M, u, v, w) -> bool:
    p, q = k - h - j, v - u - w
    a, c = v - u + k - j, u + j        # families 1-7 (lowering part f2 f1 f2)
    b, d = u + k - j, v + j - u        # families 8-13 (lowering part f1 f2 f1)
    s = h + j + u + w
    if index == 1:
        return L >= a and M >= c
    if index == 2:
        return L >= a and c - min(p, q) <= M <= c
    if index == 3:
        return L >= a and c - q <= M <= c - p
    if index == 4:
        return L >= a and c - p <= M <= c - q
    if index == 5:
        return L >= a and c - p - q <= M <= c - max(p, q)
    if index == 6:
        return M <= c - p - q and L + M >= s
    if index == 7:
        return L >= a and L + M <= s
    if index == 8:
        return L >= b and M >= d
    if index == 9:
        return L >= b and d - p <= M <= d
    if index == 10:
        return b - q <= L <= b and M >= d
    if index == 11:
        return b - q <= L <= b and d - p <= M <= d
    if index == 12:
        return L + M >= u + w + k and L <= b - q
    if index == 13:
        return L + M <= u + w + k and M >= d
    raise ValueError(f"unknown family index {index}")


def _parse_family(text: str) -> tuple:
    """'6pm' -> (6, sigma, mirror)."""
    base = text.rstrip("pm")
    return int(base), "p" in text[len(base):], "m" in text[len(base):]


def _right_weight(index, sigma, mirror, h, k, j, l, m, u, v, w) -> tuple:
    """The right weight of the family's leading word
    e2^h e1^k e2^j 1_(l,m) F, with F = f2^u f1^v f2^w for families 1-7 and
    f1^u f2^v f1^w for 8-13 (alpha_1 = (2,-1), alpha_2 = (-1,2)).  A word
    in U-dot 1_zeta has zeta = its idempotent plus the roots of its
    lowering part; sigma reverses the word and negates the idempotent, so
    the raising part ends up on the right; the mirror swaps the indices."""
    if sigma:
        n1, n2 = k, h + j
        z = (-l - (2 * n1 - n2), -m - (2 * n2 - n1))
    else:
        n1, n2 = (v, u + w) if index <= 7 else (u + w, v)
        z = (l + 2 * n1 - n2, m + 2 * n2 - n1)
    return (z[1], z[0]) if mirror else z


def sweep_expectation(config: dict) -> dict:
    """{(family, params): right weight} for every grid tuple that meets its
    family's side conditions, derived without the program."""
    e = range(config["max_exp"] + 1)
    mw = config["max_weight"]
    weights = list(itertools.product(range(-mw, mw + 1), repeat=2))
    out = {}
    for fam in config["families"]:
        index, sigma, mirror = _parse_family(fam)
        for h, k, j, u, v, w in itertools.product(e, repeat=6):
            if k < h + j or v < u + w:
                continue
            for l, m in weights:
                if _conditions(index, h, k, j, -l, -m, u, v, w):
                    params = (h, k, j, l, m, u, v, w)
                    out[(fam, params)] = _right_weight(index, sigma, mirror, *params)
    return out


def check_sweep(doc: dict, config: dict, expected: dict) -> tuple:
    """One verify-all output against its configuration and the derived
    tuples; the window checks are the operations."""
    problems = []
    window = config["window"]
    expected_windows = {key: window_rule(z, window) for key, z in expected.items()}
    ops = sum(len(w) for w in expected_windows.values())
    if doc is None:
        return ops, ops, ["no output"]
    cfg = doc.get("config", {})
    for key in ("max_exp", "max_weight", "window"):
        if cfg.get(key) != config[key]:
            problems.append(f"config {key} is {cfg.get(key)}, expected {config[key]}")
    if sorted(cfg.get("families", [])) != sorted(config["families"]):
        problems.append("config families differ from the command's")

    seen = {}
    for rep in doc.get("reports", []):
        key = (rep["family"], tuple(rep["params"]))
        if key in seen:
            problems.append(f"duplicate report {key}")
        seen[key] = rep
    missing = expected_windows.keys() - seen.keys()
    extra = seen.keys() - expected_windows.keys()
    if missing:
        problems.append(f"{len(missing)} grid tuples have no report, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} reports are not grid tuples, e.g. {min(extra)}")

    failed = sum(len(expected_windows[k]) for k in missing)
    counts = {"canonical": 0, "zero": 0, "mismatch": 0}
    for key, rep in seen.items():
        outcomes = rep.get("outcomes", [])
        for o in outcomes:
            counts[o["status"]] = counts.get(o["status"], 0) + 1
            if o["status"] == "mismatch":
                failed += 1
                problems.append(f"mismatch {key} window {o['window']}: {o.get('detail', '')}")
        if key in expected_windows:
            got = sorted(tuple(o["window"]) for o in outcomes)
            if got != expected_windows[key]:
                problems.append(f"{key}: windows {got} differ from the window rule "
                                f"{expected_windows[key]}")
            if not rep.get("admissible"):
                problems.append(f"{key}: reported inadmissible")
    summary = doc.get("summary", {})
    if summary.get("tuples") != len(expected):
        problems.append(f"summary tuples {summary.get('tuples')}, derived {len(expected)}")
    if summary.get("window_checks") != ops:
        problems.append(f"summary window checks {summary.get('window_checks')}, derived {ops}")
    if summary.get("mismatch") != counts["mismatch"]:
        problems.append("summary mismatch count disagrees with the reports")
    return ops, failed, problems


def check_families_covered(docs: list, families) -> list:
    """Every family has at least one window where it is canonical."""
    canonical = set()
    for doc in docs:
        for rep in (doc or {}).get("reports", []):
            if any(o["status"] == "canonical" for o in rep.get("outcomes", [])):
                canonical.add(rep["family"])
    return [f"family {f} has no canonical outcome" for f in families
            if f not in canonical]


def _label_key(label: dict) -> tuple:
    return (label["shape"], *label["exps"])


def check_canbasis(doc: dict, params: tuple) -> tuple:
    """One canbasis output; its canonical elements are the operations."""
    s, t, a, b = params
    ops = weyl_dim(s, t) * weyl_dim(a, b)
    if doc is None:
        return ops, ops, ["no output"]
    problems = []
    if doc.get("params") != list(params):
        problems.append(f"params {doc.get('params')}, expected {list(params)}")
    if doc.get("dimension") != ops:
        problems.append(f"dimension {doc.get('dimension')}, Weyl product {ops}")
    elements = doc.get("elements", [])
    pairs = set()
    for el in elements:
        low, high = (_label_key(x) for x in el["pair"])
        if (low, high) in pairs:
            problems.append(f"duplicate element at {(low, high)}")
        pairs.add((low, high))
        problems.extend(_check_element(low, high, el["vector"]))
    if len(pairs) != ops:
        problems.append(f"{len(pairs)} distinct elements, Weyl product {ops}")
    return ops, max(0, ops - len(pairs)), problems


def _check_element(low: tuple, high: tuple, vector: list) -> list:
    """Unit at its own pair, v^-1 Z[v^-1] elsewhere, triangular support."""
    def tr(label):
        return sum(label[1:])

    problems = []
    own = False
    for lab_l, lab_h, coeff in vector:
        q = (_label_key(lab_l), _label_key(lab_h))
        terms = [(int(e), int(c)) for e, c in coeff]
        if q == (low, high):
            own = True
            if terms != [(0, 1)]:
                problems.append(f"element {(low, high)}: coefficient at its own pair is {terms}")
            continue
        if not terms or any(c == 0 or e >= 0 for e, c in terms):
            problems.append(f"element {(low, high)}: coefficient {terms} at {q} "
                            "is not in v^-1 Z[v^-1]")
        ql, qh = q
        if not (tr(ql) - tr(qh) == tr(low) - tr(high)
                and tr(ql) < tr(low) and tr(qh) < tr(high)):
            problems.append(f"element {(low, high)}: support {q} is not below it "
                            "in the pair order")
    if not own:
        problems.append(f"element {(low, high)}: no coefficient at its own pair")
    return problems


# -- checks that need the program's involution ----------------------------------


def _space_vector(space, vector: list) -> dict:
    from qsl3.labels import MonomialLabel
    from qsl3.laurent import LaurentPoly

    out = {}
    for lab_l, lab_h, coeff in vector:
        k = space.index_of_labels(MonomialLabel(lab_l["shape"], *lab_l["exps"]),
                                  MonomialLabel(lab_h["shape"], *lab_h["exps"]))
        if k is None:
            raise ValueError(f"labels {lab_l}, {lab_h} index no basis pair")
        out[k] = LaurentPoly.from_json(coeff)
    return out


def check_psi_fixed(doc: dict, space) -> list:
    """psi(x) == x for every element of a canbasis output."""
    psi = space.psi()
    problems = []
    for el in doc.get("elements", []):
        try:
            x = _space_vector(space, el["vector"])
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if psi.apply(x) != x:
            problems.append(f"element at {el['pair']} is not psi-fixed")
    return problems


def _random_poly(rng: random.Random):
    from qsl3.laurent import LaurentPoly

    return LaurentPoly({rng.randint(-3, 3): rng.choice((-3, -2, -1, 1, 2, 3))
                        for _ in range(rng.randint(1, 3))})


def check_psi_involution(space, rng: random.Random, trials: int) -> list:
    """psi(psi(x)) == x, psi(xi (x) eta) == xi (x) eta and
    psi(X x) == X psi(x) for random Laurent vectors x and divided-power
    words X.  Only weight blocks already built are touched, so the check
    neither builds nor writes involution blocks."""
    from qsl3.laurent import ONE

    psi = space.psi()
    problems = []
    built = set(psi._blocks)
    unit = {space.unit_index: ONE}
    if space.zeta in built and psi.apply(unit) != unit:
        problems.append(f"T{space.params}: psi does not fix xi (x) eta")
    weights = sorted(built, key=lambda w: w.as_tuple())
    gens = (("e", 1), ("e", 2), ("f", 1), ("f", 2))
    for _ in range(trials):
        w = rng.choice(weights)
        idx = space.weight_spaces[w]
        x = {k: _random_poly(rng) for k in rng.sample(idx, min(len(idx), rng.randint(1, 3)))}
        px = psi.apply(x)
        if psi.apply(px) != x:
            problems.append(f"T{space.params}: psi(psi(x)) != x at weight {w}")
        word = [(rng.choice(gens), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        xx, xpx = x, px
        for gen, n in word:
            xx = space.delta_act(gen, n, xx)
            xpx = space.delta_act(gen, n, xpx)
        if xx and space.vec_weight(xx) not in built:
            continue
        if psi.apply(xx) != xpx:
            problems.append(f"T{space.params}: psi(X x) != X psi(x) for X={word}")
    return problems
