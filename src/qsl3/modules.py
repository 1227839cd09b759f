"""Concrete realizations of simple highest- and lowest-weight modules.

A highest-weight module V(a*w1 + b*w2) is realized as the cyclic submodule
generated by the top vector inside the a+b fold tensor power of the two
fundamental 3-dimensional modules.  Its basis is the image of the monomial
labels from basis_labels applied (as lowering words) to the top vector; the
build verifies linear independence and extracts exact structure matrices
for the four Chevalley generators, whose entries must stay in Z[v, v^-1].

A lowest-weight module V(-s*w1 - t*w2) is the highest-weight module
V(t*w1 + s*w2) rebased onto the raising-word images of its one-dimensional
bottom weight space.

Divided powers act on tensor powers of fundamentals by subset splitting of
the coproduct, which never needs a division; on an extracted realization
they are cached matrix powers with exact division by quantum integers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, RealizationError
from .labels import ALPHA, Weight, basis_labels, weyl_dim
from .laurent import NotDivisible, ONE, ZERO, vpow
from .linalg import Inconsistent, rank_laurent, solve_laurent
from .qcomb import qint

# generator keys: ("e", 1), ("e", 2), ("f", 1), ("f", 2)
GENS = (("e", 1), ("e", 2), ("f", 1), ("f", 2))


@dataclass(frozen=True)
class _Fundamental:
    weights: tuple
    steps: dict  # ("e"|"f", letter) -> {source index: target index}


_FUND = {
    1: _Fundamental(
        weights=(Weight(1, 0), Weight(-1, 1), Weight(0, -1)),
        steps={("f", 1): {0: 1}, ("f", 2): {1: 2}, ("e", 1): {1: 0}, ("e", 2): {2: 1}},
    ),
    2: _Fundamental(
        weights=(Weight(0, 1), Weight(1, -1), Weight(-1, 0)),
        steps={("f", 2): {0: 1}, ("f", 1): {1: 2}, ("e", 2): {1: 0}, ("e", 1): {2: 1}},
    ),
}


class _TensorPowerAmbient:
    """Tensor power of fundamental modules with exact divided-power action.

    Vectors are dicts {index tuple: LaurentPoly}.  On a fundamental factor a
    generator moves one basis vector with coefficient 1 and kills the rest,
    so a divided power e_i^(n) acts by a signed-free sum over n-element
    subsets of the active positions, with an explicit v-power from the
    coproduct.
    """

    def __init__(self, kinds: list):
        self.kinds = list(kinds)
        self.factors = [_FUND[k] for k in self.kinds]

    def top_index(self) -> tuple:
        return (0,) * len(self.factors)

    def weight_of_index(self, tup: tuple) -> Weight:
        w = Weight(0, 0)
        for f, j in zip(self.factors, tup):
            w = w + f.weights[j]
        return w

    def act_divided(self, gen: tuple, n: int, vec: dict) -> dict:
        if n == 0:
            return dict(vec)
        kind, i = gen
        out: dict = {}
        factors = self.factors
        r = len(factors)
        base = n * (n - 1) // 2
        for tup, c in vec.items():
            steps = [factors[p].steps.get(gen, {}).get(tup[p]) for p in range(r)]
            active = [p for p in range(r) if steps[p] is not None]
            if len(active) < n:
                continue
            pair = [factors[p].weights[tup[p]].pairing(i) for p in range(r)]
            if kind == "e":
                acc = [0] * (r + 1)          # prefix sums of pairings
                for p in range(r):
                    acc[p + 1] = acc[p] + pair[p]
                weight_at = lambda p: acc[p]
            else:
                acc = [0] * (r + 1)          # suffix sums of pairings
                for p in range(r - 1, -1, -1):
                    acc[p] = acc[p + 1] + pair[p]
                weight_at = lambda p: acc[p + 1]
            for sel in combinations(active, n):
                expo = base
                for p in sel:
                    expo += weight_at(p) if kind == "e" else -weight_at(p)
                new = list(tup)
                for p in sel:
                    new[p] = steps[p]
                key = tuple(new)
                add = c * vpow(expo)
                s = out.get(key)
                s = add if s is None else s + add
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out


@dataclass
class ModuleRealization:
    """A simple module with an explicit monomial basis and exact matrices."""

    kind: str                      # "highest" or "lowest"
    params: tuple                  # (a, b) or (s, t)
    labels: list
    weights: list                  # weight of each basis vector
    columns: dict                  # gen -> list of sparse columns {row: poly}
    label_index: dict = field(default_factory=dict)
    _divided: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self):
        if not self.label_index:
            self.label_index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def defining_weight(self) -> Weight:
        a, b = self.params
        return Weight(a, b) if self.kind == "highest" else Weight(-a, -b)

    def weight_of_index(self, i: int) -> Weight:
        return self.weights[i]

    def act(self, gen: tuple, vec: dict) -> dict:
        return _apply_columns(self.columns[gen], vec)

    def divided_columns(self, gen: tuple, n: int) -> list:
        if n == 1:
            return self.columns[gen]
        key = (gen, n)
        cols = self._divided.get(key)
        if cols is not None:
            return cols
        prev = self.divided_columns(gen, n - 1)
        d = qint(n)
        cols = []
        for col in prev:
            img = _apply_columns(self.columns[gen], col)
            cols.append({r: p.exact_div(d) for r, p in img.items()})
        with self._lock:
            return self._divided.setdefault(key, cols)

    def act_divided(self, gen: tuple, n: int, vec: dict) -> dict:
        """Apply the divided power gen^(n): the n-th matrix power divided by
        the quantum factorial, always integral on the basis."""
        if n == 0:
            return dict(vec)
        return _apply_columns(self.divided_columns(gen, n), vec)

    def pbw_images(self, kind: str) -> list:
        """Images of each basis vector under the PBW monomials of one half.

        Entry j maps (n1, n12, n2) to the nonzero vector
        X1^(n1) X12^(n12) X2^(n2) b_j (rightmost factor first), where X is
        E for kind "e" and F for kind "f", and the root vectors are
        E12 = E2 E1 - v^-1 E1 E2 and F12 = F1 F2 - v F2 F1.  A root
        divided power is the n-th power over [n]!; the table is computed
        once per module.
        """
        key = ("pbw", kind)
        table = self._divided.get(key)
        if table is not None:
            return table
        g1, g2 = (kind, 1), (kind, 2)
        c1, c2 = self.columns[g1], self.columns[g2]
        if kind == "e":       # E2 E1 - v^-1 E1 E2
            first, second, scale = c1, c2, vpow(-1)
        else:                 # F1 F2 - v F2 F1
            first, second, scale = c2, c1, vpow(1)
        root = []
        for j in range(self.dim):
            col = _apply_columns(second, first[j])
            for r, p in _apply_columns(first, second[j]).items():
                s = col.get(r, ZERO) - scale * p
                if s:
                    col[r] = s
                else:
                    col.pop(r, None)
            root.append(col)
        table = []
        for j in range(self.dim):
            images = {}
            for n2, x2 in _divided_orbit(c2, {j: ONE}):
                for n12, x12 in _divided_orbit(root, x2):
                    for n1, x1 in _divided_orbit(c1, x12):
                        images[(n1, n12, n2)] = x1
            table.append(images)
        with self._lock:
            return self._divided.setdefault(key, table)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "dimension": self.dim,
            "basis": [lab.to_json() for lab in self.labels],
            "weights": [list(w.as_tuple()) for w in self.weights],
            "generators": {
                f"{k}{i}": [sorted([r, p.to_json()] for r, p in col.items())
                            for col in self.columns[(k, i)]]
                for (k, i) in GENS
            },
        }


def _apply_columns(cols: list, vec: dict) -> dict:
    out: dict = {}
    for idx, c in vec.items():
        for r, m in cols[idx].items():
            add = c * m
            s = out.get(r)
            s = add if s is None else s + add
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def _divided_orbit(cols: list, vec: dict):
    """(n, X^(n) vec) for n = 0, 1, ... while the image is nonzero.

    X^(n) vec = X X^(n-1) vec / [n]; the division is exact because divided
    powers preserve the integral span of the basis.
    """
    n = 0
    while vec:
        yield n, vec
        n += 1
        d = qint(n)
        vec = {r: p.exact_div(d) for r, p in _apply_columns(cols, vec).items()}


def _extract_realization(ambient, labels, seed_vec, seed_weight, letter, kind, params):
    """Express the cyclic span of label-word images as a ModuleRealization.

    ``ambient`` provides act_divided and weight_of_index; ``letter`` selects
    lowering words ("f", highest-weight case) or raising words ("e",
    lowest-weight case).
    """
    sign = -1 if letter == "f" else 1
    vecs = []
    weights = []
    for lab in labels:
        vec = seed_vec
        for gi, e in reversed(lab.factors()):
            vec = ambient.act_divided((letter, gi), e, vec)
        if not vec:
            raise RealizationError(f"basis word {lab} vanished on the seed vector")
        w = seed_weight + lab.root_shift().scaled(sign)
        for key in vec:
            if ambient.weight_of_index(key) != w:
                raise RealizationError(f"word image of {lab} is not homogeneous")
        vecs.append(vec)
        weights.append(w)

    by_weight: dict = {}
    for i, w in enumerate(weights):
        by_weight.setdefault(w, []).append(i)

    # independence of the candidate basis, one weight space at a time
    for w, idxs in by_weight.items():
        rows = sorted({k for i in idxs for k in vecs[i]})
        cols = [[vecs[i].get(k, ZERO) for k in rows] for i in idxs]
        if rank_laurent(cols) != len(idxs):
            raise RealizationError(f"dependent basis candidates in weight space {w}")

    columns = {gen: [dict() for _ in labels] for gen in GENS}
    for gen in GENS:
        shift = ALPHA[gen[1]] if gen[0] == "e" else -ALPHA[gen[1]]
        images: dict = {}
        for i in range(len(labels)):
            img = ambient.act_divided(gen, 1, vecs[i])
            if not img:
                continue
            images.setdefault(weights[i] + shift, []).append((i, img))
        for w, batch in images.items():
            idxs = by_weight.get(w)
            if not idxs:
                raise RealizationError(f"generator image escapes the span at weight {w}")
            rows = sorted({k for j in idxs for k in vecs[j]}
                          | {k for _, img in batch for k in img})
            a_rows = [[vecs[j].get(k, ZERO) for j in idxs] for k in rows]
            b_cols = [[img.get(k, ZERO) for k in rows] for _, img in batch]
            try:
                det, sols, rank, free = solve_laurent(a_rows, b_cols)
            except Inconsistent as exc:
                raise RealizationError(
                    f"generator image not in the span at weight {w}") from exc
            if free:
                raise RealizationError(f"dependent basis candidates in weight space {w}")
            for (i, _), sol in zip(batch, sols):
                col = {}
                for cix, val in sol.items():
                    try:
                        entry = val.exact_div(det)
                    except NotDivisible as exc:
                        raise RealizationError(
                            f"non-integral structure constant at weight {w}") from exc
                    if entry:
                        col[idxs[cix]] = entry
                columns[gen][i] = col

    return ModuleRealization(kind=kind, params=tuple(params), labels=list(labels),
                             weights=weights, columns=columns)


@lru_cache(maxsize=None)
def build_highest_module(a: int, b: int) -> ModuleRealization:
    """The simple highest-weight module V(a*w1 + b*w2)."""
    if a < 0 or b < 0:
        raise DomainError("highest weight must be dominant")
    lam = Weight(a, b)
    labels = basis_labels(lam)
    if len(labels) != weyl_dim(a, b):
        raise RealizationError("label count disagrees with the Weyl dimension")
    ambient = _TensorPowerAmbient([1] * a + [2] * b)
    seed = {ambient.top_index(): ONE}
    return _extract_realization(ambient, labels, seed, lam, "f", "highest", (a, b))


@lru_cache(maxsize=None)
def build_lowest_module(s: int, t: int) -> ModuleRealization:
    """The simple lowest-weight module V(-s*w1 - t*w2).

    Realized inside the highest-weight module V(t*w1 + s*w2), whose unique
    bottom weight space has weight -(s*w1 + t*w2); the basis consists of the
    raising-word images of the bottom vector, indexed by basis_labels((s,t)).
    """
    if s < 0 or t < 0:
        raise DomainError("lowest-weight parameters must be nonnegative")
    carrier = build_highest_module(t, s)
    bottom = Weight(-s, -t)
    seats = [i for i, w in enumerate(carrier.weights) if w == bottom]
    if len(seats) != 1:
        raise RealizationError("bottom weight space is not one-dimensional")
    seed = {seats[0]: ONE}
    labels = basis_labels(Weight(s, t))
    return _extract_realization(carrier, labels, seed, bottom, "e", "lowest", (s, t))


def act_divided(mod: ModuleRealization, gen: tuple, n: int, vec: dict) -> dict:
    if n < 0:
        raise DomainError("divided-power order must be nonnegative")
    return mod.act_divided(gen, n, vec)
