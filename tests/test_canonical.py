import pytest

from qsl3.canonical import (canonical_basis, canonical_block,
                            canonical_element_at, sigma_closure_check,
                            verify_family, verify_canonical, verify_expr,
                            windows_for)
from qsl3.errors import AntisymmetryFailure
from qsl3.labels import MonomialLabel, SHAPE212, Weight
from qsl3.laurent import ONE, V, vpow
from qsl3.qcomb import qbinom
from qsl3.tensor import TensorSpace, _PsiBlock, get_tensor_space
from qsl3.udot import (FamilyId, UdotExpr, family_element,
                       override_family_binomial, parse_word, word_labels)


def test_unit_pair_is_already_fixed():
    sp = get_tensor_space(1, 1, 1, 1)
    ce = canonical_element_at(sp, sp.unit_index)
    assert ce.vector == {sp.unit_index: ONE}


def test_one_dimensional_weight_spaces_are_untouched():
    sp = get_tensor_space(1, 0, 1, 0)
    for w, idxs in sp.weight_spaces.items():
        if len(idxs) == 1:
            ce = canonical_element_at(sp, idxs[0])
            assert ce.vector == {idxs[0]: ONE}


@pytest.mark.parametrize("params", [(1, 0, 1, 0), (1, 1, 1, 1), (2, 0, 1, 1)])
def test_canonical_invariants(params):
    sp = get_tensor_space(*params)
    basis = canonical_basis(sp)
    assert len(basis) == sp.dim
    for p, ce in basis.items():
        assert ce.vector.get(p) == ONE
        for k, c in ce.vector.items():
            if k != p:
                # strictly below the leading pair, coefficients in v^-1 Z[v^-1]
                assert sp.pair_order_leq(k, p) and k != p
                assert c.in_v_inverse_lattice()
        assert sp.psi().apply(ce.vector) == ce.vector
        assert verify_canonical(sp, ce.vector, p)


def test_verify_canonical_rejections():
    sp = get_tensor_space(1, 0, 1, 0)
    u = sp.unit_index
    assert verify_canonical(sp, {u: ONE}, u)
    assert not verify_canonical(sp, {u: V}, u)        # not involution-fixed
    assert not verify_canonical(sp, {u: ONE}, u + 1)  # wrong leading pair


def test_uniqueness_under_processing_order():
    for params in [(1, 0, 1, 0), (1, 1, 1, 1)]:
        sp = get_tensor_space(*params)
        ref = canonical_basis(sp)
        for seed in (1, 2):
            alt = canonical_basis(sp, order_seed=seed)
            assert all(ref[p].vector == alt[p].vector for p in ref)


def test_nontrivial_correction_exists():
    # at least one canonical element of T(1,1,1,1) has a correction term
    sp = get_tensor_space(1, 1, 1, 1)
    basis = canonical_basis(sp)
    assert any(len(ce.vector) > 1 for ce in basis.values())


def test_windows_for():
    wins = list(windows_for(Weight(0, 0), 2))
    assert (0, 0, 0, 0) in wins and (1, 1, 1, 1) in wins
    assert all(s + t <= 2 and a + b <= 2 for s, t, a, b in wins)
    assert list(windows_for(Weight(-5, 0), 2)) == []


def test_family_1_identity_element():
    rep = verify_family(FamilyId(1), (0, 0, 0, 0, 0, 0, 0, 0), window=2)
    assert rep.admissible and rep.ok
    assert all(o.status == "canonical" for o in rep.outcomes)


def test_family_1_lowering_monomial():
    # 1_(l,m) f1 matches the canonical element at (empty, t1) when t1 indexes
    # the highest-weight factor, and vanishes otherwise
    rep = verify_family(FamilyId(1), (0, 0, 0, -2, 0, 0, 1, 0), window=2)
    assert rep.admissible and rep.ok
    statuses = {o.window: o.status for o in rep.outcomes}
    assert statuses[(0, 1, 0, 0)] == "zero"       # t1 needs a >= 1
    assert statuses[(1, 1, 1, 0)] == "canonical"
    assert statuses[(0, 2, 0, 1)] == "zero"
    assert rep.labels == (MonomialLabel(SHAPE212, 0, 0, 0),
                          MonomialLabel(SHAPE212, 0, 1, 0))


def test_inadmissible_report():
    rep = verify_family(FamilyId(1), (0, 1, 0, -2, 1, 0, 1, 0), window=2)
    assert not rep.admissible and rep.outcomes == []


def test_family_2_two_term_element():
    params = (0, 2, 1, -2, -1, 1, 2, 0)
    rep = verify_family(FamilyId(2), params, window=3)
    assert rep.admissible and rep.ok
    assert any(o.status == "canonical" for o in rep.outcomes)


def test_family_6_multi_term_element():
    params = (0, 1, 1, -4, 0, 0, 1, 1)
    fe = family_element(FamilyId(6), *params)
    assert fe.admissible and len(fe.expr.terms) == 2
    rep = verify_family(FamilyId(6), params, window=4)
    assert rep.ok and any(o.status == "canonical" for o in rep.outcomes)


def test_report_json_shape():
    rep = verify_family(FamilyId(1), (0, 0, 0, 0, 0, 0, 0, 0), window=1,
                           keep_vectors=True)
    data = rep.to_json()
    assert data["family"] == "1" and data["mismatches"] == 0
    canon = [o for o in data["outcomes"] if o["status"] == "canonical"]
    assert canon and all("vector" in o for o in canon)


def test_every_idempotent_is_canonical():
    for lm in [(0, 0), (1, 0), (-2, 3)]:
        word = parse_word(f"1[({lm[0]},{lm[1]})]")
        rep = verify_expr(UdotExpr.from_word(word), word_labels(word),
                          word.zeta(), 2)
        assert rep.ok


def test_verify_expr_detects_non_canonical():
    # e1 1_(l,m) f1 with l above the rank-one threshold -(a+b) fails
    word = parse_word("e1^1 1[(-1,0)] f1^1")
    expr = UdotExpr.from_word(word)
    labels = word_labels(word)
    rep = verify_expr(expr, labels, word.zeta(), 2)
    assert not rep.ok and rep.mismatches > 0


def test_sigma_closure_trivial_and_nontrivial():
    rep = sigma_closure_check(FamilyId(1), (0, 0, 0, 0, 0, 0, 0, 0), window=2)
    assert rep.ok and all(o.status == "canonical" for o in rep.outcomes)
    rep = sigma_closure_check(FamilyId(2), (0, 2, 1, -2, -1, 1, 2, 0), window=3)
    assert rep.ok and any(o.status == "canonical" for o in rep.outcomes)


def test_sigma_image_equals_primed_family_report():
    # the sigma image of a base element is itself a catalog element; its
    # windowed verification agrees with the primed family's
    params = (0, 2, 1, -2, -1, 1, 2, 0)
    direct = sigma_closure_check(FamilyId(2), params, window=3)
    primed = verify_family(FamilyId(2, sigma=True), params, window=3)
    assert direct.ok and primed.ok
    assert ([o.window for o in direct.outcomes]
            == [o.window for o in primed.outcomes])


def test_mutation_is_detected():
    params = (0, 2, 1, -2, -1, 1, 2, 0)

    def corrupt(a, b):
        val = qbinom(a, b)
        return val * vpow(1) if (b == 1 and val) else val

    with override_family_binomial(corrupt):
        rep = verify_family(FamilyId(2), params, window=3)
    assert rep.mismatches > 0


def test_canonical_block_is_cached():
    sp = get_tensor_space(1, 0, 1, 0)
    w = Weight(0, 0)
    assert canonical_block(sp, w) is canonical_block(sp, w)


def test_tampered_rho_raises_antisymmetry_failure():
    # with one off-diagonal rho entry set to 1, no pi in v^-1 Z[v^-1] has
    # pi - bar(pi) = 1; the block is put in place directly, past _verify_block
    sp = TensorSpace(1, 1, 1, 1)
    op = sp.psi()
    w = next(w for w in sp.weight_spaces
             if any(len(col) > 1 for col in op.block(w).cols))
    blk = op.block(w)
    cols = [dict(col) for col in blk.cols]
    c = next(c for c, col in enumerate(cols) if len(col) > 1)
    r = next(r for r in cols[c] if r != c)
    cols[c][r] = ONE
    op._blocks[w] = _PsiBlock(blk.indices, cols)
    with pytest.raises(AntisymmetryFailure, match="not bar-antisymmetric"):
        canonical_block(sp, w)
