"""The tensor product T of a lowest- and a highest-weight module.

T = V(-s*w1 - t*w2) (x) V(a*w1 + b*w2) carries the standard basis of pairs
(b1, b1') of monomial labels, acting through the coproduct, and the
bar-semilinear involution Psi that pins down the canonical basis.

Psi fixes the generating vector xi (x) eta and intertwines the algebra
action through the bar involution, Psi(u x) = bar(u) Psi(x).  On this
tensor product it is Lusztig's quasi-R-matrix Theta applied after the
coordinatewise bar, so the matrix of Psi on a weight space is the matrix
rho of Theta (Lusztig, Introduction to Quantum Groups, Thm 4.1.2 and
Ch. 24).  Theta factors over the positive roots in the convex order
alpha1, alpha1+alpha2, alpha2 (Kirillov-Reshetikhin 1990):

    Theta = Theta_1 Theta_12 Theta_2,
    Theta_r = sum_n c(n) F_r^(n) (x) E_r^(n),
    c(n) = (-1)^n v^(-n(n-1)/2) (v - v^-1)^n [n]!,

with the root vectors F12 = F1 F2 - v F2 F1 acting on the lowest-weight
factor and E12 = E2 E1 - v^-1 E1 E2 on the highest-weight factor.  The
column of rho at the pair (b, b') is therefore the sum over (n1, n12, n2)
of c(n1) c(n12) c(n2) (F1^(n1) F12^(n12) F2^(n2) b) (x)
(E1^(n1) E12^(n12) E2^(n2) b'), read from the PBW tables of the two
modules.  Every block is checked to be integral, unitriangular for the
pair order and to satisfy bar(rho) rho = 1.

Computed rho blocks are cached on disk (override the location with
QSL3_CACHE_DIR; set it empty to disable), one append-only file
rho_s_t_a_b.jsonl per space: a header line with the cache schema, the
package version and the parameters, then one JSON record per weight
space.  Loaded blocks are verified like built ones.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from functools import lru_cache
from pathlib import Path

from ._version import __version__
from .errors import IntegralityFailure
from .labels import MonomialLabel, Weight
from .laurent import LaurentPoly, ONE, vpow
from .modules import build_highest_module, build_lowest_module
from .qcomb import qfact

# A change to the construction of rho or to the file format bumps this.
CACHE_SCHEMA = 2

_cache_dir_override = None
_registry: dict = {}
_registry_lock = threading.Lock()


def set_cache_dir(path) -> None:
    """Override the rho cache directory (None restores the default)."""
    global _cache_dir_override
    _cache_dir_override = path


def cache_dir():
    if _cache_dir_override is not None:
        return Path(_cache_dir_override) if _cache_dir_override else None
    env = os.environ.get("QSL3_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "qsl3"


class TensorSpace:
    """Standard-basis bookkeeping for one tensor product."""

    def __init__(self, s: int, t: int, a: int, b: int):
        self.params = (s, t, a, b)
        self.low = build_lowest_module(s, t)
        self.high = build_highest_module(a, b)
        self.zeta = Weight(a - s, b - t)
        self.pairs = [(iL, iH)
                      for iL in range(self.low.dim)
                      for iH in range(self.high.dim)]
        self.pair_pos = {p: k for k, p in enumerate(self.pairs)}
        self.pair_weight = [self.low.weights[iL] + self.high.weights[iH]
                            for iL, iH in self.pairs]
        self.trL = [self.low.labels[iL].tr for iL, _ in self.pairs]
        self.trH = [self.high.labels[iH].tr for _, iH in self.pairs]
        self.weight_spaces: dict = {}
        for k, w in enumerate(self.pair_weight):
            self.weight_spaces.setdefault(w, []).append(k)
        self.unit_index = self.pair_pos[(0, 0)]
        self._prefix_cache: dict = {(): {self.unit_index: ONE}}
        self._psi = None
        self._canonical: dict = {}
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def pair_labels(self, k: int) -> tuple:
        iL, iH = self.pairs[k]
        return (self.low.labels[iL], self.high.labels[iH])

    def index_of_labels(self, low_label: MonomialLabel, high_label: MonomialLabel):
        iL = self.low.label_index.get(low_label)
        iH = self.high.label_index.get(high_label)
        if iL is None or iH is None:
            return None
        return self.pair_pos[(iL, iH)]

    # -- coproduct action ---------------------------------------------------

    def delta_act(self, gen: tuple, n: int, vec: dict) -> dict:
        """Divided power gen^(n) on T through the coproduct splitting."""
        if n == 0:
            return dict(vec)
        kind, i = gen
        low, high = self.low, self.high
        pair_pos = self.pair_pos
        out: dict = {}
        for pidx, c in vec.items():
            iL, iH = self.pairs[pidx]
            wL = low.weights[iL].pairing(i)
            wH = high.weights[iH].pairing(i)
            for a1 in range(n + 1):
                a2 = n - a1
                colL = low.divided_columns(gen, a1)[iL] if a1 else {iL: ONE}
                if not colL:
                    continue
                colH = high.divided_columns(gen, a2)[iH] if a2 else {iH: ONE}
                if not colH:
                    continue
                expo = a1 * a2 + (a2 * wL if kind == "e" else -a1 * wH)
                base = c.shifted(expo)
                for jL, cL in colL.items():
                    cc = base * cL
                    for jH, cH in colH.items():
                        key = pair_pos[(jL, jH)]
                        add = cc * cH
                        s = out.get(key)
                        s = add if s is None else s + add
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return out

    def apply_prefix(self, seq: tuple) -> dict:
        """Image of xi (x) eta under a word of divided powers.

        ``seq`` lists ((kind, letter), exponent) in application order; the
        result is cached per prefix, so families of words sharing initial
        segments cost one delta_act each.
        """
        vec = self._prefix_cache.get(seq)
        if vec is not None:
            return vec
        head = self.apply_prefix(seq[:-1])
        gen, n = seq[-1]
        vec = self.delta_act(gen, n, head)
        self._prefix_cache[seq] = vec
        return vec

    def vec_weight(self, vec: dict):
        if not vec:
            return None
        return self.pair_weight[next(iter(vec))]

    # -- pair order ---------------------------------------------------------

    def pair_order_leq(self, p: int, q: int) -> bool:
        """The partial order on basis pairs used by the triangular shape."""
        if self.trL[p] - self.trH[p] != self.trL[q] - self.trH[q]:
            return False
        return p == q or (self.trL[p] < self.trL[q] and self.trH[p] < self.trH[q])

    # -- involution ---------------------------------------------------------

    def psi(self) -> "PsiOperator":
        with self._lock:
            if self._psi is None:
                self._psi = PsiOperator(self)
            return self._psi


def get_tensor_space(s: int, t: int, a: int, b: int) -> TensorSpace:
    key = (s, t, a, b)
    with _registry_lock:
        sp = _registry.get(key)
        if sp is None:
            sp = TensorSpace(s, t, a, b)
            _registry[key] = sp
        return sp


def clear_registry() -> None:
    with _registry_lock:
        _registry.clear()


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = -c if s is None else s - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_add_scaled(acc: dict, coeff: LaurentPoly, vec: dict) -> None:
    for k, c in vec.items():
        add = coeff * c
        s = acc.get(k)
        s = add if s is None else s + add
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


class _PsiBlock:
    __slots__ = ("indices", "pos", "cols")

    def __init__(self, indices, cols):
        self.indices = list(indices)
        self.pos = {p: r for r, p in enumerate(indices)}
        self.cols = cols  # cols[c] = {row: LaurentPoly}, image of indices[c]


class PsiOperator:
    """Per-weight-space matrices of the involution, built lazily."""

    def __init__(self, space: TensorSpace):
        self.space = space
        self._blocks: dict = {}
        self._lock = threading.Lock()
        self._store = _CacheStore(space.params)
        for w, block in self._store.load(space).items():
            self._blocks[w] = block

    def block(self, weight: Weight) -> _PsiBlock:
        blk = self._blocks.get(weight)
        if blk is not None:
            return blk
        with self._lock:
            blk = self._blocks.get(weight)
            if blk is None:
                blk = _build_block(self.space, weight)
                self._blocks[weight] = blk
                self._store.save(weight, blk)
        return blk

    def ensure_all(self) -> None:
        for w in self.space.weight_spaces:
            self.block(w)

    def apply(self, vec: dict) -> dict:
        """psi(x): coordinate-wise bar followed by the rho matrix."""
        out: dict = {}
        by_weight: dict = {}
        for k, c in vec.items():
            by_weight.setdefault(self.space.pair_weight[k], {})[k] = c
        for w, part in by_weight.items():
            blk = self.block(w)
            for k, c in part.items():
                cb = c.bar()
                for r, e in blk.cols[blk.pos[k]].items():
                    gk = blk.indices[r]
                    add = cb * e
                    s = out.get(gk)
                    s = add if s is None else s + add
                    if s:
                        out[gk] = s
                    else:
                        out.pop(gk, None)
        return out

    def blocks_json(self) -> dict:
        self.ensure_all()
        return {f"{w.w1},{w.w2}": _block_json(blk)
                for w, blk in sorted(self._blocks.items(),
                                     key=lambda kv: kv[0].as_tuple())}


def build_psi(space: TensorSpace) -> PsiOperator:
    """Construct the involution with every weight-space block forced."""
    op = space.psi()
    op.ensure_all()
    return op


@lru_cache(maxsize=None)
def _theta_coefficient(n1: int, n12: int, n2: int) -> LaurentPoly:
    """c(n1) c(n12) c(n2), c(n) = (-1)^n v^(-n(n-1)/2) (v - v^-1)^n [n]!."""
    out = ONE
    for n in (n1, n12, n2):
        c = (vpow(1) - vpow(-1)) ** n * qfact(n)
        out = out * (c if n % 2 == 0 else -c).shifted(-n * (n - 1) // 2)
    return out


def _build_block(space: TensorSpace, weight: Weight) -> _PsiBlock:
    """rho on one weight space: the column of each pair is Theta applied to
    it, summed over the PBW monomials both factors admit."""
    indices = space.weight_spaces[weight]
    pos = {p: r for r, p in enumerate(indices)}
    pair_pos = space.pair_pos
    low = space.low.pbw_images("f")
    high = space.high.pbw_images("e")
    cols = []
    for p in indices:
        iL, iH = space.pairs[p]
        raising = high[iH]
        col: dict = {}
        for mono, vec_low in low[iL].items():
            vec_high = raising.get(mono)
            if vec_high is None:
                continue
            coeff = _theta_coefficient(*mono)
            for jL, cL in vec_low.items():
                cc = coeff * cL
                for jH, cH in vec_high.items():
                    r = pos[pair_pos[(jL, jH)]]
                    add = cc * cH
                    s = col.get(r)
                    s = add if s is None else s + add
                    if s:
                        col[r] = s
                    else:
                        col.pop(r, None)
        cols.append(col)
    _verify_block(space, weight, indices, cols)
    return _PsiBlock(indices, cols)


def _verify_block(space, weight, indices, cols) -> None:
    d = len(indices)
    for c in range(d):
        col = cols[c]
        if col.get(c) != ONE:
            raise IntegralityFailure(
                f"rho diagonal entry != 1 at weight {weight} of T{space.params}")
        for r in col:
            if r != c and not space.pair_order_leq(indices[r], indices[c]):
                raise IntegralityFailure(
                    f"rho not triangular at weight {weight} of T{space.params}")
    # bar(rho) rho = identity
    for c in range(d):
        acc: dict = {}
        for r, e in cols[c].items():
            eb = e.bar()
            for r2, e2 in cols[r].items():
                # the diagonal is already known to be 1
                add = e2 if r == c else eb if r2 == r else eb * e2
                s = acc.get(r2)
                s = add if s is None else s + add
                if s:
                    acc[r2] = s
                else:
                    acc.pop(r2, None)
        if acc != {c: ONE}:
            raise IntegralityFailure(
                f"bar(rho) rho != 1 at weight {weight} of T{space.params}")


# -- disk cache ---------------------------------------------------------------


def _block_json(blk: _PsiBlock) -> dict:
    return {
        "pairs": blk.indices,
        "rho": [[[r, e.to_json()] for r, e in sorted(col.items())]
                for col in blk.cols],
    }


class _CacheStore:
    """One append-only file per space: a header line, then one JSON record
    per weight space, each appended by a single write."""

    def __init__(self, params):
        self.params = params
        self.header = {"schema": CACHE_SCHEMA, "version": __version__,
                       "params": list(params)}

    def _path(self):
        base = cache_dir()
        if base is None:
            return None
        s, t, a, b = self.params
        return base / f"rho_{s}_{t}_{a}_{b}.jsonl"

    def load(self, space) -> dict:
        """Every block of the file, each checked like a built one; a file
        that fails to parse or to verify is reported and deleted."""
        path = self._path()
        if path is None:
            return {}
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return {}
        # a last line without its newline is a record still being written
        lines = data.split(b"\n")[:-1]
        try:
            if not lines or json.loads(lines[0]) != self.header:
                raise ValueError("header does not match this build")
            blocks = {}
            for line in lines[1:]:
                record = json.loads(line)
                w = Weight(*record["weight"])
                if w in blocks:
                    continue
                indices = record["pairs"]
                if indices != space.weight_spaces.get(w):
                    raise ValueError(f"pairs of weight {w} do not match the space")
                d = len(indices)
                cols = [{int(r): LaurentPoly.from_json(e) for r, e in col}
                        for col in record["rho"]]
                if len(cols) != d or any(not 0 <= r < d for col in cols for r in col):
                    raise ValueError(f"malformed rho at weight {w}")
                _verify_block(space, w, indices, cols)
                blocks[w] = _PsiBlock(indices, cols)
            return blocks
        except (ValueError, KeyError, TypeError, IntegralityFailure) as exc:
            print(f"qsl3: ignoring corrupt rho cache {path}: {exc}", file=sys.stderr)
            try:
                path.unlink()
            except OSError:
                pass
            return {}

    def save(self, weight: Weight, blk: _PsiBlock) -> None:
        path = self._path()
        if path is None:
            return
        record = {"weight": list(weight.as_tuple()), **_block_json(blk)}
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if not path.exists():
                self._create(path)
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                if os.write(fd, line) != len(line):
                    raise OSError("short write")
            finally:
                os.close(fd)
        except OSError as exc:
            print(f"qsl3: cannot write rho cache {path}: {exc}", file=sys.stderr)

    def _create(self, path: Path) -> None:
        """Publish the file with its header in place: the header goes to a
        private O_EXCL file that is then linked to the shared name, so no
        writer ever sees the file without its first line."""
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, (json.dumps(self.header) + "\n").encode())
            finally:
                os.close(fd)
            os.link(tmp, path)
        except FileExistsError:
            pass
        finally:
            tmp.unlink(missing_ok=True)
