"""Canonical bases of tensor products, read off the involution's matrices.

On each weight space psi(x) = rho bar(x), with rho unitriangular for the
pair order.  The canonical element at a pair p is the unique psi-fixed
vector c_p = sum_q pi[q, p] b_q with pi[p, p] = 1 and every other
coefficient in v^-1 Z[v^-1] (Lusztig, Introduction to Quantum Groups,
Ch. 24 and 27.3).  Comparing coefficients of psi(c_p) = c_p gives

    pi[r, p] - bar(pi[r, p]) = sum_{r < q <= p} rho[r, q] bar(pi[q, p]),

so pi is found one entry at a time by walking the pairs in descending left
total degree: the right-hand side f at r only involves pairs already
passed, and pi[r, p] is its part in negative exponents.  f must be
bar-antisymmetric with zero constant term for that part to solve the
equation; this is asserted, not assumed.  Pairs of equal left degree are
incomparable, so the order among them does not matter.

The same module drives the verification of the closed-form element catalog:
an admissible catalog element evaluated on an admissible tensor product
must equal the canonical element named by its label pair when both labels
index basis vectors, and must vanish otherwise.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from .errors import AntisymmetryFailure
from .labels import Weight, in_basis_set
from .laurent import LaurentPoly, ONE
from .tensor import TensorSpace, get_tensor_space, vec_add_scaled, vec_sub
from .udot import FamilyId, UdotExpr, evaluate_on, family_element, word_labels

_canonical_lock = threading.Lock()


@dataclass
class CanonicalElement:
    pair: int                   # index into space.pairs
    labels: tuple               # (low label, high label)
    vector: dict                # {pair index: LaurentPoly}, unit at `pair`

    def corrections(self) -> dict:
        return {k: c for k, c in self.vector.items() if k != self.pair}

    def to_json(self, space: TensorSpace) -> dict:
        lab_l, lab_h = self.labels
        return {
            "pair": [lab_l.to_json(), lab_h.to_json()],
            "vector": [
                [space.pair_labels(k)[0].to_json(),
                 space.pair_labels(k)[1].to_json(),
                 c.to_json()]
                for k, c in sorted(self.vector.items())
            ],
        }


def canonical_block(space: TensorSpace, weight: Weight, order_seed=None) -> dict:
    """Canonical elements for every pair in one weight space.

    Pairs are walked in descending left total degree, ties by basis
    position, and the results are cached on the space.  ``order_seed``
    shuffles the order inside equal-degree groups, for uniqueness tests.
    """
    if order_seed is None:
        cached = space._canonical.get(weight)
        if cached is not None:
            return cached
    blk = space.psi().block(weight)
    indices, cols = blk.indices, blk.cols
    order = list(range(len(indices)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    # a stable sort keeps the shuffled order inside equal-degree groups
    order.sort(key=lambda c: -space.trL[indices[c]])
    elements: dict = {}
    for i, p in enumerate(order):
        # acc[r] = sum over the pairs q already passed of rho[r, q] bar(pi[q]),
        # seeded with the unit at p; diagonal terms land on passed pairs only
        pi = {p: ONE}
        acc = dict(cols[p])
        for r in order[i + 1:]:
            f = acc.get(r)
            if f is None:
                continue
            if f.coeff(0) or not f.is_bar_antisymmetric():
                raise AntisymmetryFailure(
                    f"correction coefficient at pair {space.pair_labels(indices[r])} of "
                    f"T{space.params} is not bar-antisymmetric: {f.text()}")
            pi[r] = LaurentPoly._make({e: c for e, c in f.terms.items() if e < 0})
            vec_add_scaled(acc, pi[r].bar(), cols[r])
        k = indices[p]
        elements[k] = CanonicalElement(
            pair=k, labels=space.pair_labels(k),
            vector={indices[r]: c for r, c in pi.items()})
    if order_seed is None:
        with _canonical_lock:
            space._canonical.setdefault(weight, elements)
    return elements


def canonical_basis(space: TensorSpace, order_seed=None) -> dict:
    """All canonical elements of the tensor product, keyed by pair index."""
    out: dict = {}
    for w in sorted(space.weight_spaces, key=Weight.as_tuple):
        out.update(canonical_block(space, w, order_seed=order_seed))
    return out


def canonical_element_at(space: TensorSpace, pair: int) -> CanonicalElement:
    return canonical_block(space, space.pair_weight[pair])[pair]


def verify_canonical(space: TensorSpace, x: dict, expected_pair: int) -> bool:
    """Involution-fixed, unit coefficient at the expected pair, everything
    else inside v^-1 Z[v^-1]."""
    if x.get(expected_pair) != ONE:
        return False
    for k, c in x.items():
        if k != expected_pair and not c.in_v_inverse_lattice():
            return False
    return space.psi().apply(x) == x


# -- windowed verification of catalog elements --------------------------------


@dataclass
class WindowOutcome:
    window: tuple               # (s, t, a, b)
    status: str                 # "canonical" | "zero" | "mismatch"
    detail: str = ""
    vector: list | None = None  # certificate payload when requested

    def to_json(self) -> dict:
        out = {"window": list(self.window), "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.vector is not None:
            out["vector"] = self.vector
        return out


@dataclass
class VerificationReport:
    family: str
    params: tuple
    admissible: bool
    labels: tuple | None = None
    outcomes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def mismatches(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "mismatch")

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "params": list(self.params),
            "admissible": self.admissible,
            "mismatches": self.mismatches,
            "elapsed_seconds": round(self.elapsed, 6),
            "outcomes": [o.to_json() for o in self.outcomes],
        }
        if self.labels is not None:
            out["labels"] = [lab.to_json() for lab in self.labels]
        return out


def windows_for(zeta: Weight, window: int):
    """All (s, t, a, b) with s+t <= window, a+b <= window and the given
    weight difference."""
    for s in range(window + 1):
        for t in range(window - s + 1):
            a, b = s + zeta.w1, t + zeta.w2
            if a >= 0 and b >= 0 and a + b <= window:
                yield (s, t, a, b)


def _diff_text(space: TensorSpace, diff: dict, limit: int = 4) -> str:
    items = []
    for k, c in sorted(diff.items())[:limit]:
        ll, lh = space.pair_labels(k)
        items.append(f"({ll},{lh}): {c.text()}")
    more = "" if len(diff) <= limit else f" (+{len(diff) - limit} more)"
    return "; ".join(items) + more


def _vector_json(space: TensorSpace, vec: dict) -> list:
    out = []
    for k, c in sorted(vec.items()):
        ll, lh = space.pair_labels(k)
        out.append([ll.to_json(), lh.to_json(), c.to_json()])
    return out


def verify_expr(expr: UdotExpr, labels: tuple, zeta: Weight, window: int,
                name: str = "expr", params: tuple = (),
                keep_vectors: bool = False) -> VerificationReport:
    """Check one expression against canonical elements over a weight window.

    For every admissible tensor product in the window the evaluation must
    be the canonical element at ``labels`` when both labels index basis
    vectors, and zero otherwise.  The evaluation is also independently
    required to be involution-fixed before any comparison.
    """
    t0 = time.monotonic()
    rep = VerificationReport(family=name, params=tuple(params), admissible=True,
                             labels=labels)
    lab_low, lab_high = labels
    for stab in windows_for(zeta, window):
        s, t, a, b = stab
        space = get_tensor_space(s, t, a, b)
        val = evaluate_on(expr, space)
        if in_basis_set(lab_low, Weight(s, t)) and in_basis_set(lab_high, Weight(a, b)):
            pidx = space.index_of_labels(lab_low, lab_high)
            if space.psi().apply(val) != val:
                rep.outcomes.append(WindowOutcome(stab, "mismatch",
                                                  "evaluation not involution-fixed"))
                continue
            ce = canonical_element_at(space, pidx)
            if val == ce.vector:
                rep.outcomes.append(WindowOutcome(
                    stab, "canonical",
                    vector=_vector_json(space, val) if keep_vectors else None))
            else:
                diff = vec_sub(val, ce.vector)
                rep.outcomes.append(WindowOutcome(
                    stab, "mismatch", "differs from canonical element: "
                    + _diff_text(space, diff)))
        else:
            if val:
                rep.outcomes.append(WindowOutcome(
                    stab, "mismatch", "expected zero outside the basis index "
                    "sets, got " + _diff_text(space, val)))
            else:
                rep.outcomes.append(WindowOutcome(stab, "zero"))
    rep.elapsed = time.monotonic() - t0
    return rep


def verify_family(fid: FamilyId, params: tuple, window: int = 4,
                     keep_vectors: bool = False) -> VerificationReport:
    """Verify one catalog element over all admissible windows."""
    fe = family_element(fid, *params)
    if not fe.admissible:
        return VerificationReport(family=str(fid), params=tuple(params),
                                  admissible=False)
    rep = verify_expr(fe.expr, fe.labels, fe.zeta, window,
                      name=str(fid), params=params, keep_vectors=keep_vectors)
    return rep


def sigma_closure_check(fid: FamilyId, params: tuple, window: int = 4) -> VerificationReport:
    """Verify that the sigma image of a catalog element is again canonical.

    The image is evaluated over its own (mirrored) window set and checked
    with verify_canonical semantics through the generic harness, under the
    label pair read off the reversed leading word.
    """
    fe = family_element(fid, *params)
    if not fe.admissible:
        return VerificationReport(family=f"sigma({fid})", params=tuple(params),
                                  admissible=False)
    image = fe.expr.sigma()
    leading = fe.leading.sigma()
    labels = word_labels(leading)
    rep = verify_expr(image, labels, image.zeta(), window,
                      name=f"sigma({fid})", params=params)
    return rep
