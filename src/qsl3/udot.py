"""Symbolic elements of the modified algebra: divided-power words with one
weight idempotent, Laurent coefficients, and the closed-form element catalog.

A word looks like  e2^(h) e1^(k) e2^(j) 1_(l,m) f2^(u) f1^(v) f2^(w); the
rightmost factor acts first on a module.  Expressions are finite Laurent
combinations of words.  Supported symmetries:

    sigma       anti-automorphism: reverses words, negates the idempotent,
                fixes generators and coefficients
    index_swap  the diagram symmetry exchanging letters 1 and 2 and the two
                idempotent coordinates
    bar         bar involution on coefficients (words are bar-fixed)

The catalog has 13 base families; sigma images and index-swap mirrors give
52 in total.  Each family is an explicit sum of words with quantum-binomial
coefficients plus an admissibility test on its eight integer parameters,
and carries the pair of monomial labels naming the canonical element that
its evaluation on a tensor product must produce.

Text grammar for words: whitespace-separated factors ``e2^3 e1^4 1[(l,m)]
f2^1``; zero-exponent factors are elided and the printer inverts the parser
exactly.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

from .errors import DomainError
from .labels import ALPHA, Weight, label_from_factors
from .laurent import LaurentPoly, ONE
from .qcomb import qbinom
from .tensor import TensorSpace, get_tensor_space, vec_add_scaled

_GEN_RE = re.compile(r"^([ef])([12])\^(-?\d+)$")
_IDEM_RE = re.compile(r"^1\[\((-?\d+),(-?\d+)\)\]$")


def _gen_shift(gen: tuple, n: int) -> Weight:
    kind, i = gen
    step = ALPHA[i].scaled(n)
    return step if kind == "e" else -step


@dataclass(frozen=True)
class UdotWord:
    left: tuple       # ((kind, letter), exponent) in written order
    idem: Weight
    right: tuple

    @staticmethod
    def make(left, idem: Weight, right) -> "UdotWord":
        def clean(fs):
            out = []
            for gen, e in fs:
                if e < 0:
                    raise DomainError(f"negative divided-power exponent {e}")
                if e:
                    out.append((tuple(gen), e))
            return tuple(out)

        return UdotWord(clean(left), idem, clean(right))

    def zeta(self) -> Weight:
        """The right weight: the word lives in U-dot 1_zeta."""
        z = self.idem
        for gen, e in self.right:
            z = z - _gen_shift(gen, e)
        return z

    def left_weight(self) -> Weight:
        z = self.idem
        for gen, e in self.left:
            z = z + _gen_shift(gen, e)
        return z

    def sigma(self) -> "UdotWord":
        return UdotWord(tuple(reversed(self.right)), -self.idem,
                        tuple(reversed(self.left)))

    def index_swap(self) -> "UdotWord":
        def sw(fs):
            return tuple(((kind, 3 - i), e) for (kind, i), e in fs)

        return UdotWord(sw(self.left), self.idem.swapped(), sw(self.right))

    def applied_sequence(self) -> tuple:
        """All factors in application order (rightmost first)."""
        return tuple(reversed(self.right)) + tuple(reversed(self.left))

    def text(self) -> str:
        def fmt(fs):
            return [f"{kind}{i}^{e}" for (kind, i), e in fs]

        mid = f"1[({self.idem.w1},{self.idem.w2})]"
        return " ".join(fmt(self.left) + [mid] + fmt(self.right))

    def sort_key(self):
        return (self.idem.as_tuple(), self.left, self.right)

    def __str__(self):
        return self.text()


def parse_word(text: str) -> UdotWord:
    left: list = []
    right: list = []
    idem = None
    for tok in text.split():
        m = _IDEM_RE.match(tok)
        if m:
            if idem is not None:
                raise DomainError("word has more than one idempotent")
            idem = Weight(int(m.group(1)), int(m.group(2)))
            continue
        m = _GEN_RE.match(tok)
        if not m:
            raise DomainError(f"bad word factor {tok!r}")
        gen = (m.group(1), int(m.group(2)))
        exp = int(m.group(3))
        (right if idem is not None else left).append((gen, exp))
    if idem is None:
        raise DomainError("word has no idempotent 1[(l,m)]")
    return UdotWord.make(left, idem, right)


class UdotExpr:
    """Laurent combination of words, stored in canonical combined form."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        acc: dict = {}
        for coeff, word in terms:
            s = acc.get(word)
            s = coeff if s is None else s + coeff
            if s:
                acc[word] = s
            else:
                acc.pop(word, None)
        self.terms = tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))
        self.terms = tuple((c, w) for w, c in self.terms)

    @classmethod
    def from_word(cls, word: UdotWord) -> "UdotExpr":
        return cls([(ONE, word)])

    def is_zero(self) -> bool:
        return not self.terms

    def sigma(self) -> "UdotExpr":
        return UdotExpr([(c, w.sigma()) for c, w in self.terms])

    def index_swap(self) -> "UdotExpr":
        return UdotExpr([(c, w.index_swap()) for c, w in self.terms])

    def bar(self) -> "UdotExpr":
        return UdotExpr([(c.bar(), w) for c, w in self.terms])

    def __add__(self, other: "UdotExpr") -> "UdotExpr":
        return UdotExpr(list(self.terms) + list(other.terms))

    def scaled(self, coeff: LaurentPoly) -> "UdotExpr":
        return UdotExpr([(coeff * c, w) for c, w in self.terms])

    def __eq__(self, other):
        return isinstance(other, UdotExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def zeta(self) -> Weight:
        zetas = {w.zeta() for _, w in self.terms}
        if len(zetas) != 1:
            raise DomainError("expression mixes right weights")
        return zetas.pop()

    def text(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(f"({c.text()}) * [{w.text()}]" for c, w in self.terms)

    def __str__(self):
        return self.text()


def sigma(x: UdotExpr) -> UdotExpr:
    return x.sigma()


def bar_udot(x: UdotExpr) -> UdotExpr:
    return x.bar()


def index_swap(x: UdotExpr) -> UdotExpr:
    return x.index_swap()


def evaluate_on(x: UdotExpr, space: TensorSpace) -> dict:
    """Image of x applied to xi (x) eta in the given tensor product.

    Per word: apply the right factors (rightmost first), project by the
    idempotent (zero unless the weight matches), then the left factors.
    """
    out: dict = {}
    for coeff, word in x.terms:
        rseq = tuple(reversed(word.right))
        vec = space.apply_prefix(rseq)
        if not vec:
            continue
        if space.vec_weight(vec) != word.idem:
            continue
        vec = space.apply_prefix(word.applied_sequence())
        if vec:
            vec_add_scaled(out, coeff, vec)
    return out


def evaluate(x: UdotExpr, s: int, t: int, a: int, b: int) -> dict:
    if min(s, t, a, b) < 0:
        raise DomainError("tensor parameters must be nonnegative")
    return evaluate_on(x, get_tensor_space(s, t, a, b))


# -- the closed-form element catalog ------------------------------------------


@dataclass(frozen=True)
class FamilyId:
    index: int
    sigma: bool = False
    swap: bool = False

    def __post_init__(self):
        if not 1 <= self.index <= 13:
            raise DomainError(f"family index {self.index} out of range")

    def __str__(self):
        return f"{self.index}{'p' if self.sigma else ''}{'m' if self.swap else ''}"

    @classmethod
    def parse(cls, text: str) -> "FamilyId":
        m = re.match(r"^(\d+)(p|')?(m|\*)?$", text.strip())
        if not m:
            raise DomainError(f"bad family id {text!r}")
        return cls(int(m.group(1)), bool(m.group(2)), bool(m.group(3)))


ALL_FAMILY_IDS = tuple(FamilyId(i, sg, sw)
                       for sw in (False, True)
                       for sg in (False, True)
                       for i in range(1, 14))

MONOMIAL_FAMILY_INDICES = (1, 8)


def family_admissible(fid: FamilyId, h, k, j, l, m, u, v, w) -> bool:
    """Displayed side conditions of a family; sigma images and mirrors keep
    the base family's parameter conditions."""
    return _admissible(fid.index, h, k, j, l, m, u, v, w)

# test hook: the mutation harness replaces this to corrupt one coefficient
_BINOM = qbinom
_BINOM_LOCK = threading.Lock()


@contextmanager
def override_family_binomial(fn):
    """Swap the quantum binomial used inside family sums (test harness)."""
    global _BINOM
    with _BINOM_LOCK:
        saved = _BINOM
        _BINOM = fn
    try:
        yield
    finally:
        with _BINOM_LOCK:
            _BINOM = saved


def _sign(p: int) -> int:
    return -1 if p % 2 else 1


def _terms_family(index, h, k, j, l, m, u, v, w):
    """Yield (coefficient, e-exponents, idempotent, f-exponents) per term.

    Families 1..7 carry lowering part f2 f1 f2, families 8..13 carry
    f1 f2 f1; the raising part is always e2 e1 e2.
    """
    B = _BINOM
    if index == 1:
        yield ONE, (h, k, j), (l, m), (u, v, w)
    elif index == 2:
        for p in range(0, min(j, u) + 1):
            c = B(m + u + j + p - 1, p) * _sign(p)
            if c:
                yield c, (h, k, j - p), (l - p, m + 2 * p), (u - p, v, w)
    elif index == 3:
        for p in range(0, j + 1):
            for q in range(0, min(h, u - p) + 1):
                c = (B(m + u + j + q + p - 1, p)
                     * B(m + u + j + (j + h - k) + q - 1, q) * _sign(p + q))
                if c:
                    yield (c, (h - q, k, j - p),
                           (l - p - q, m + 2 * p + 2 * q), (u - p - q, v, w))
    elif index == 4:
        for p in range(0, u + 1):
            for q in range(0, min(w, j - p) + 1):
                c = (B(u + j + m + q + p - 1, p)
                     * B(u + j + m + u + w - v + q - 1, q) * _sign(p + q))
                if c:
                    yield (c, (h, k, j - p - q),
                           (l - p - q, m + 2 * p + 2 * q), (u - p, v, w - q))
    elif index == 5:
        for p in range(0, j + 1):
            for q in range(0, min(w, j - p) + 1):
                for r in range(0, min(h, u - p) + 1):
                    c = (B(u + j + m + r + q + p - 1, p)
                         * B(u + j + m + u + w - v + q - 1, q)
                         * B(m + u + j + (j + h - k) + r - 1, r) * _sign(p + q + r))
                    if c:
                        yield (c, (h - r, k, j - p - q),
                               (l - p - q - r, m + 2 * (p + q + r)),
                               (u - p - r, v, w - q))
    elif index == 6:
        for p, q in _cartesian(range(j + 1), range(j + 1)):
            if p + q > j:
                continue
            for r, i in _cartesian(range(h + 1), range(h + 1)):
                if r + i > h or p + r > u or q + i > w:
                    continue
                c = (B(u + j + m + r + 2 * i + q + p - 1, p)
                     * B(u + j + m + u + w - v + i + q - 1, q)
                     * B(m + u + j + j + h - k + i + r - 1, r)
                     * B(m + u + j + j + h - k + u + w - v + i - 1, i)
                     * _sign(p + q + r + i))
                if c:
                    yield (c, (h - r - i, k, j - p - q),
                           (l - p - q - r - i, m + 2 * (p + q + r + i)),
                           (u - p - r, v, w - q - i))
    elif index == 7:
        for z in range(0, min(k, v) + 1):
            for p, q in _cartesian(range(j + 1), range(j + 1)):
                if p + q > j:
                    continue
                for r, i in _cartesian(range(h + 1), range(h + 1)):
                    if r + i + z > h or p + r > u or q + i + z > w:
                        continue
                    c = (B(u + j + m + r + 2 * i + q + z + p - 1, p)
                         * B(u + j + m + u + w - v + z + i + q - 1, q)
                         * B(m + u + j + (j + h - k) + z + i + r - 1, r)
                         * B(m + u + j + (j + h - k) + (u + w - v) + z + i - 1, i)
                         * B(l + m + j + h + u + w + z - 1, z)
                         * _sign(p + q + r + i + z))
                    if c:
                        yield (c, (h - r - i - z, k - z, j - p - q),
                               (l - p - q - r - i + z, m + 2 * (p + q + r + i) + z),
                               (u - p - r, v - z, w - q - i - z))
    elif index == 8:
        yield ONE, (h, k, j), (l, m), (u, v, w)
    elif index == 9:
        for p in range(0, min(j, v) + 1):
            c = B(m + j + v - u + p - 1, p) * _sign(p)
            if c:
                yield c, (h, k, j - p), (l - p, m + 2 * p), (u, v - p, w)
    elif index == 10:
        for p in range(0, min(k, u) + 1):
            c = B(l + u + k - j + p - 1, p) * _sign(p)
            if c:
                yield c, (h, k - p, j), (l + 2 * p, m - p), (u - p, v, w)
    elif index == 11:
        for p in range(0, min(j, v) + 1):
            for q in range(0, min(k, u) + 1):
                c = (B(m + j + v - u + p - 1, p)
                     * B(l + u + k - j + q - 1, q) * _sign(p + q))
                if c:
                    yield (c, (h, k - q, j - p),
                           (l - p + 2 * q, m + 2 * p - q), (u - q, v - p, w))
    elif index == 12:
        for p in range(0, u + 1):
            for q in range(0, min(w, k - p) + 1):
                c = (B(u + l + k - j + q + p - 1, p)
                     * B(u + l + k - j + u + w - v + q - 1, q) * _sign(p + q))
                if c:
                    yield (c, (h, k - p - q, j),
                           (l + 2 * (p + q), m - p - q), (u - p, v, w - q))
    elif index == 13:
        for r in range(0, min(j, v) + 1):
            for p in range(0, u + 1):
                for q in range(0, min(w - r, k - p - r) + 1):
                    c = (B(u + l + k - j + r + q + p - 1, p)
                         * B(u + l + k - j + u + w - v + r + q - 1, q)
                         * B(u + w + l + m + k + r - 1, r) * _sign(p + q + r))
                    if c:
                        yield (c, (h, k - p - q - r, j - r),
                               (l + 2 * (p + q) + r, m - p - q + r),
                               (u - p, v - r, w - q - r))
    else:
        raise DomainError(f"unknown family index {index}")


def _admissible(index, h, k, j, l, m, u, v, w) -> bool:
    if k < h + j or v < u + w:
        return False
    if index == 1:
        return -l >= v + k - j - u and -m >= u + j
    if index == 2:
        return (-l >= v - u + k - j
                and u + j + (u + w - v) <= -m <= u + j
                and -m >= u + j + (j + h - k))
    if index == 3:
        return (-l >= v - u + k - j and -m >= u + j + (u + w - v)
                and -m <= u + j + (j + h - k))
    if index == 4:
        return (-l >= v - u + k - j and -m <= u + j + u + w - v
                and -m >= u + j + (j + h - k))
    if index == 5:
        return (-l >= v - u + k - j and -m <= u + j + u + w - v
                and u + j + (j + h - k) + (u + w - v) <= -m <= u + j + (j + h - k))
    if index == 6:
        return (-m <= u + j + (j + h - k) + (u + w - v)
                and -l - m >= j + h + u + w)
    if index == 7:
        return -l >= v - u + k - j and -l - m <= j + h + u + w
    if index == 8:
        return -l >= u + k - j and -m >= j + v - u
    if index == 9:
        return (-l >= u + k - j
                and v + j - u + (j + h - k) <= -m <= v + j - u)
    if index == 10:
        return (u + k - j + (u + w - v) <= -l <= u + k - j
                and -m >= v + j - u)
    if index == 11:
        return (u + k - j + (u + w - v) <= -l <= u + k - j
                and v + j - u + (j + h - k) <= -m <= v + j - u)
    if index == 12:
        return -l - m >= u + w + k and -l <= u + k - j + (u + w - v)
    if index == 13:
        return -l - m <= u + w + k and -m >= v - u + j
    raise DomainError(f"unknown family index {index}")


_E_GENS = (("e", 2), ("e", 1), ("e", 2))
_F_GENS_212 = (("f", 2), ("f", 1), ("f", 2))
_F_GENS_121 = (("f", 1), ("f", 2), ("f", 1))


def _base_word(index, e_exps, idem, f_exps) -> UdotWord:
    fgens = _F_GENS_212 if index <= 7 else _F_GENS_121
    return UdotWord.make(tuple(zip(_E_GENS, e_exps)), Weight(*idem),
                         tuple(zip(fgens, f_exps)))


@dataclass
class FamilyElement:
    fid: FamilyId
    params: tuple
    expr: UdotExpr
    admissible: bool
    leading: UdotWord
    labels: tuple | None    # (low-side label, high-side label) when admissible
    zeta: Weight | None


def word_labels(word: UdotWord) -> tuple:
    """Monomial labels of the raising and lowering parts of a word."""
    return _factor_labels(word.left + word.right)


@lru_cache(maxsize=4096)
def _factor_labels(seq: tuple) -> tuple:
    # a sweep meets only a few hundred distinct factor sequences, and the
    # pattern search in label_from_factors is the costly part
    e_part = [(i, e) for (kind, i), e in seq if kind == "e"]
    f_part = [(i, e) for (kind, i), e in seq if kind == "f"]
    return label_from_factors(e_part), label_from_factors(f_part)


def family_element(fid: FamilyId, h, k, j, l, m, u, v, w) -> FamilyElement:
    """Build one catalog element.

    Returns the expression, its admissibility, the leading word, the label
    pair naming its canonical evaluation, and its right weight.  Sigma
    variants are generated by applying sigma to the base family; mirrors by
    the index swap.  Inadmissible parameter choices still produce the formal
    expression, with labels and zeta omitted when they are undefined.
    """
    for name, val in (("h", h), ("k", k), ("j", j), ("u", u), ("v", v), ("w", w)):
        if val < 0:
            raise DomainError(f"exponent {name} must be nonnegative")
    params = (h, k, j, l, m, u, v, w)
    terms = []
    for c, e_exps, idem, f_exps in _terms_family(fid.index, *params):
        word = _base_word(fid.index, e_exps, idem, f_exps)
        # sigma and the index swap are injective on words, so mapping the
        # words before combining gives the terms of expr.sigma() etc.
        if fid.sigma:
            word = word.sigma()
        if fid.swap:
            word = word.index_swap()
        terms.append((c, word))
    leading = terms[0][1]       # the all-zero summation indices come first
    expr = UdotExpr(terms)
    adm = _admissible(fid.index, *params)
    labels = None
    zeta = None
    if adm:
        labels = word_labels(leading)
        zeta = expr.zeta()
        lw = {w2.left_weight() for _, w2 in expr.terms}
        if len(lw) != 1:
            raise DomainError("family terms mix left weights")
    return FamilyElement(fid=fid, params=params, expr=expr, admissible=adm,
                         leading=leading, labels=labels, zeta=zeta)
