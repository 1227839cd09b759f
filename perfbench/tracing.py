"""Per-layer tracing of qsl3 from outside the program.

``Tracer.install`` wraps the public functions of each qsl3 module in place,
in every qsl3 module that holds a reference to them, so a traced round runs
the unchanged program.  Calls at layer boundaries become spans (name,
start, end, parent) kept in memory until ``metrics`` is read; a span's self
time is its duration minus the durations of its child spans.  The Laurent
methods, called tens of millions of times, keep a count and summed time
instead; their time is measured at the outermost Laurent call only, so a
``__sub__`` that calls ``__add__`` is not counted twice, and it stays part
of the self time of the enclosing span.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from pathlib import Path

_pc = time.perf_counter


def _replace_everywhere(orig, new) -> None:
    """Rebind every qsl3 module global that refers to ``orig``."""
    for name, mod in list(sys.modules.items()):
        if name == "qsl3" or name.startswith("qsl3."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self.seconds: dict = {}
        self._laurent_depth = [0]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(_pc())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.span_end[idx] = _pc()

    def spanned(self, name: str, fn):
        nid = self._intern(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def counted(self, name: str, fn):
        """Count calls and sum their time, without spans."""
        self.counts.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)
        counts, seconds = self.counts, self.seconds

        def wrapper(*args):
            t = _pc()
            try:
                return fn(*args)
            finally:
                seconds[name] += _pc() - t
                counts[name] += 1
        return wrapper

    def _laurent(self, op: str, fn):
        counts, seconds, depth = self.counts, self.seconds, self._laurent_depth
        counts.setdefault(op, 0)
        seconds.setdefault(op, 0.0)

        def wrapper(*args):
            counts[op] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            t = _pc()
            try:
                return fn(*args)
            finally:
                seconds[op] += _pc() - t
                depth[0] = 0
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from qsl3 import canonical, cli, linalg, modules, qcomb, tensor, udot
        from qsl3.laurent import LaurentPoly

        for attr, op in (("__mul__", "laurent.mul"), ("__rmul__", "laurent.mul"),
                         ("__add__", "laurent.add"), ("__radd__", "laurent.add"),
                         ("__sub__", "laurent.sub"), ("__rsub__", "laurent.sub"),
                         ("exact_div", "laurent.exact_div"), ("bar", "laurent.bar")):
            setattr(LaurentPoly, attr, self._laurent(op, getattr(LaurentPoly, attr)))

        for fn, name in ((cli._emit, "cli.emit"),
                         (canonical.verify_expr, "canonical.verify_expr"),
                         (udot.family_element, "udot.family_element"),
                         (udot.evaluate_on, "udot.evaluate_on"),
                         (linalg.solve_laurent, "linalg.solve")):
            _replace_everywhere(fn, self.spanned(name, fn))
        _replace_everywhere(qcomb.qbinom, self.counted("qcomb.qbinom", qcomb.qbinom))
        cli.main = self.spanned("cli.command", cli.main)

        self._install_canonical(canonical)
        self._install_modules(modules)
        self._install_tensor(tensor)
        self._install_echelon(linalg)

    def _install_canonical(self, canonical) -> None:
        orig = canonical.canonical_block
        spanned = self.spanned("canonical.block", orig)
        counts = self.counts
        counts["canonical.elements"] = 0

        def canonical_block(space, weight, order_seed=None):
            fresh = order_seed is not None or weight not in space._canonical
            out = spanned(space, weight, order_seed)
            if fresh:
                counts["canonical.elements"] += len(out)
            return out
        _replace_everywhere(orig, canonical_block)

    def _install_modules(self, modules) -> None:
        nid_build = self._intern("modules.build")
        nid_hit = self._intern("modules.build_hit")
        for orig in (modules.build_highest_module, modules.build_lowest_module):
            def build(*args, _orig=orig):
                misses = _orig.cache_info().misses
                idx = self._open(nid_build)
                try:
                    return _orig(*args)
                finally:
                    self._close(idx)
                    if _orig.cache_info().misses == misses:
                        self.span_name[idx] = nid_hit
            _replace_everywhere(orig, build)

    def _install_tensor(self, tensor) -> None:
        TS, PO = tensor.TensorSpace, tensor.PsiOperator
        TS.delta_act = self.spanned("tensor.delta_act", TS.delta_act)
        PO.apply = self.spanned("tensor.psi_apply", PO.apply)

        counts = self.counts
        counts.update({"tensor.apply_prefix.calls": 0, "tensor.apply_prefix.hits": 0,
                       "tensor.psi_block.loaded": 0})
        orig_prefix = TS.apply_prefix

        def apply_prefix(space, seq):
            counts["tensor.apply_prefix.calls"] += 1
            if seq in space._prefix_cache:
                counts["tensor.apply_prefix.hits"] += 1
            return orig_prefix(space, seq)
        TS.apply_prefix = apply_prefix

        load = self.spanned("tensor.psi_load", PO.__init__)

        def init(op, *args, **kwargs):
            load(op, *args, **kwargs)
            counts["tensor.psi_block.loaded"] += len(op._blocks)
        PO.__init__ = init

        orig_block = PO.block
        build = self.spanned("tensor.psi_block", orig_block)

        def block(op, weight):
            if weight in op._blocks:
                return orig_block(op, weight)
            return build(op, weight)
        PO.block = block

    def _install_echelon(self, linalg) -> None:
        counts = self.counts
        counts.update({"linalg.echelon.tried": 0, "linalg.echelon.kept": 0})
        add = self.spanned("linalg.echelon", linalg.LaurentEchelon.add)

        def echelon_add(ech, row):
            kept = add(ech, row)
            counts["linalg.echelon.tried"] += 1
            counts["linalg.echelon.kept"] += bool(kept)
            return kept
        linalg.LaurentEchelon.add = echelon_add

    # -- read-out -----------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: number of spans, total time and self time."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            agg = out[self.names[names[i]]]
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
        return out

    def _outer_build_seconds(self) -> float:
        nid = self._ids["modules.build"]
        hit = self._ids["modules.build_hit"]
        total = 0.0
        for i, name in enumerate(self.span_name):
            p = self.span_parent[i]
            if name == nid and (p < 0 or self.span_name[p] not in (nid, hit)):
                total += self.span_end[i] - self.span_start[i]
        return total

    def _correction_applies(self) -> int:
        block = self._ids["canonical.block"]
        apply_ = self._ids.get("tensor.psi_apply")
        return sum(1 for i, name in enumerate(self.span_name)
                   if name == apply_ and self.span_parent[i] >= 0
                   and self.span_name[self.span_parent[i]] == block)

    def metrics(self, cache_dir, output_paths) -> dict:
        """Every per-layer metric of the round just traced."""
        from qsl3 import tensor

        spans = self.span_totals()
        c, s = self.counts, self.seconds

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return spans.get(name, [0, 0.0, 0.0])[2]

        max_bits, max_terms = _largest_coefficients(tensor._registry.values())
        prefix_calls = c["tensor.apply_prefix.calls"]
        tried = c["linalg.echelon.tried"]
        values = {
            "laurent.mul.calls": (c["laurent.mul"], "count"),
            "laurent.mul.s": (s["laurent.mul"], "s"),
            "laurent.exact_div.calls": (c["laurent.exact_div"], "count"),
            "laurent.exact_div.s": (s["laurent.exact_div"], "s"),
            "laurent.add.calls": (c["laurent.add"], "count"),
            "laurent.sub.calls": (c["laurent.sub"], "count"),
            "laurent.addsub.s": (s["laurent.add"] + s["laurent.sub"], "s"),
            "laurent.bar.calls": (c["laurent.bar"], "count"),
            "laurent.max_coeff_bits": (max_bits, "bits"),
            "laurent.max_terms": (max_terms, "count"),
            "linalg.solve.calls": (calls("linalg.solve"), "count"),
            "linalg.solve.self_s": (self_s("linalg.solve"), "s"),
            "linalg.echelon.tried": (tried, "count"),
            "linalg.echelon.kept": (c["linalg.echelon.kept"], "count"),
            "linalg.echelon.kept_ratio": (c["linalg.echelon.kept"] / tried if tried else 0.0, "ratio"),
            "linalg.echelon.self_s": (self_s("linalg.echelon"), "s"),
            "modules.build.calls": (calls("modules.build"), "count"),
            "modules.build.s": (self._outer_build_seconds(), "s"),
            "tensor.spaces": (len(tensor._registry), "count"),
            "tensor.delta_act.calls": (calls("tensor.delta_act"), "count"),
            "tensor.delta_act.self_s": (self_s("tensor.delta_act"), "s"),
            "tensor.apply_prefix.calls": (prefix_calls, "count"),
            "tensor.apply_prefix.hit_ratio": (
                c["tensor.apply_prefix.hits"] / prefix_calls if prefix_calls else 0.0, "ratio"),
            "tensor.psi_block.built": (calls("tensor.psi_block"), "count"),
            "tensor.psi_block.loaded": (c["tensor.psi_block.loaded"], "count"),
            "tensor.psi_block.self_s": (self_s("tensor.psi_block"), "s"),
            "tensor.psi_load.s": (spans.get("tensor.psi_load", [0, 0.0])[1], "s"),
            "tensor.psi_apply.calls": (calls("tensor.psi_apply"), "count"),
            "tensor.psi_apply.self_s": (self_s("tensor.psi_apply"), "s"),
            "tensor.cache.bytes": (_tree_bytes(cache_dir), "bytes"),
            "canonical.block.calls": (calls("canonical.block"), "count"),
            "canonical.block.self_s": (self_s("canonical.block"), "s"),
            "canonical.correction_steps": (
                self._correction_applies() - c["canonical.elements"], "count"),
            "canonical.elements": (c["canonical.elements"], "count"),
            "canonical.verify_expr.calls": (calls("canonical.verify_expr"), "count"),
            "canonical.verify_expr.self_s": (self_s("canonical.verify_expr"), "s"),
            "udot.family_element.calls": (calls("udot.family_element"), "count"),
            "udot.family_element.self_s": (self_s("udot.family_element"), "s"),
            "udot.evaluate_on.calls": (calls("udot.evaluate_on"), "count"),
            "udot.evaluate_on.self_s": (self_s("udot.evaluate_on"), "s"),
            "qcomb.qbinom.calls": (c["qcomb.qbinom"], "count"),
            "qcomb.qbinom.s": (s["qcomb.qbinom"], "s"),
            "cli.emit.s": (spans.get("cli.emit", [0, 0.0])[1], "s"),
            "cli.output_bytes": (sum(os.path.getsize(p) for p in output_paths
                                     if os.path.exists(p)), "bytes"),
            "trace.spans": (len(self.span_name), "count"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _largest_coefficients(spaces) -> tuple:
    """Largest coefficient bit length and term count over every rho entry
    and canonical coefficient held by the given spaces."""
    bits = terms = 0

    def see(p):
        nonlocal bits, terms
        terms = max(terms, len(p.terms))
        for c in p.terms.values():
            bits = max(bits, abs(c).bit_length())

    for space in spaces:
        if space._psi is not None:
            for blk in space._psi._blocks.values():
                for col in blk.cols:
                    for e in col.values():
                        see(e)
        for elements in space._canonical.values():
            for el in elements.values():
                for e in el.vector.values():
                    see(e)
    return bits, terms


def _tree_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())
