"""Exact arithmetic in Z[v, v^-1].

LaurentPoly is the universal coefficient type of the package: quantum
integers, module structure constants, involution matrices and certificate
payloads are all Laurent polynomials in one indeterminate v with Python-int
(hence arbitrary-precision) coefficients.  No computation leaves the ring:
where a quotient must exist, exact_div finds it or raises NotDivisible.

Values are immutable and hashable, and every operation is pure, so values
can be shared freely between threads.
"""

from __future__ import annotations


class NotDivisible(ArithmeticError):
    """Exact division failed: the quotient does not lie in Z[v, v^-1]."""


def _prune(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


class LaurentPoly:
    """Sparse Laurent polynomial over Z, stored as {exponent: coefficient}.

    The term map never contains zero coefficients; the empty map is 0.
    Instances must not be mutated after construction.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = _prune(dict(terms)) if terms else {}
        self._hash = None

    @classmethod
    def _make(cls, terms: dict) -> "LaurentPoly":
        # internal: terms must already be pruned and owned by the callee
        p = object.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({0: c} if c else {})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls._make({exp: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            if other == 1:
                return self
            return LaurentPoly._make({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) == 1:
            (e0, c0), = a.items()
            return other.shifted(e0) * c0
        if len(b) == 1:
            (e0, c0), = b.items()
            return self.shifted(e0) * c0
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        if k == 0 or not self.terms:
            return self
        return LaurentPoly._make({e + k: c for e, c in self.terms.items()})

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^-1."""
        return LaurentPoly._make({-e: c for e, c in self.terms.items()})

    def exact_div(self, b: "LaurentPoly") -> "LaurentPoly":
        """Return q with q*b == self, raising NotDivisible if none exists."""
        if b.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        # Shift both operands so they become ordinary polynomials; unit
        # factors v^k never obstruct divisibility.
        sa, sb = self.min_exp(), b.min_exp()
        rem = {e - sa: c for e, c in self.terms.items()}
        bt = {e - sb: c for e, c in b.terms.items()}
        db = max(bt)
        bl = bt[db]
        quot: dict = {}
        while rem:
            dr = max(rem)
            if dr < db:
                raise NotDivisible(f"({self}) / ({b})")
            cr = rem[dr]
            if cr % bl:
                raise NotDivisible(f"({self}) / ({b})")
            c = cr // bl
            e = dr - db
            quot[e] = c
            for eb, cb in bt.items():
                k = eb + e
                s = rem.get(k, 0) - c * cb
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return LaurentPoly._make({e + sa - sb: c for e, c in quot.items()})

    # -- inspection ---------------------------------------------------------

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def in_v_inverse_lattice(self) -> bool:
        """True iff the polynomial lies in v^-1 Z[v^-1]."""
        return all(e < 0 for e in self.terms)

    def is_bar_symmetric(self) -> bool:
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    def is_bar_antisymmetric(self) -> bool:
        return all(self.terms.get(-e, 0) == -c for e, c in self.terms.items())

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form, terms in increasing exponent order.

        Examples: ``0``, ``-v^-3 + 1 + 2*v^2``, ``v + v^-1`` is rendered
        ``v^-1 + v``.
        """
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                vpart = "v" if e == 1 else f"v^{e}"
                body = vpart if mag == 1 else f"{mag}*{vpart}"
            pieces.append((c < 0, body))
        neg, body = pieces[0]
        out = ("-" if neg else "") + body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json(self) -> list:
        """Bit-exact JSON form: [[exponent, coefficient-as-string], ...]."""
        return [[e, str(self.terms[e])] for e in sorted(self.terms)]

    @classmethod
    def from_json(cls, data) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data})

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"


ZERO = LaurentPoly._make({})
ONE = LaurentPoly._make({0: 1})
V = LaurentPoly._make({1: 1})


def vpow(k: int) -> LaurentPoly:
    """The monomial v^k."""
    return LaurentPoly._make({k: 1})
