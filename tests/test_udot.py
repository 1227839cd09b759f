from itertools import product

import pytest

from qsl3.errors import DomainError
from qsl3.labels import MonomialLabel, SHAPE212, Weight, label_from_factors
from qsl3.laurent import LaurentPoly, ONE, V, vpow
from qsl3.qcomb import qbinom
from qsl3.tensor import get_tensor_space
from qsl3.udot import (ALL_FAMILY_IDS, FamilyId, UdotExpr, UdotWord,
                       _base_word, _terms_family, evaluate, evaluate_on,
                       family_admissible, family_element,
                       override_family_binomial, parse_word, sigma)


def w(text):
    return parse_word(text)


def test_grammar_round_trip():
    for text in ["e2^3 e1^4 1[(-2,1)] f2^1",
                 "1[(0,0)]",
                 "f1^2 1[(5,-3)]",
                 "1[(1,2)] e1^1 e2^2"]:
        assert parse_word(text).text() == text


def test_grammar_errors():
    for bad in ["e3^1 1[(0,0)]", "e1^1", "1[(0,0)] 1[(1,1)]", "e1^-2 1[(0,0)]",
                "x1^2 1[(0,0)]"]:
        with pytest.raises(DomainError):
            parse_word(bad)


def test_zero_exponents_elided():
    word = UdotWord.make(((("e", 1), 0), (("e", 2), 2)), Weight(0, 0),
                         ((("f", 1), 0),))
    assert word.text() == "e2^2 1[(0,0)]"


def test_weight_bookkeeping():
    word = w("e2^1 e1^2 1[(-1,0)] f1^1 f2^1")
    # zeta = idem + shifts of the lowering part
    assert word.zeta() == Weight(-1, 0) + Weight(2, -1) + Weight(-1, 2)
    assert word.left_weight() == Weight(-1, 0) + Weight(2, -1).scaled(2) + Weight(-1, 2)


def test_sigma_on_words():
    assert sigma(UdotExpr.from_word(w("1[(3,-2)]"))) == UdotExpr.from_word(w("1[(-3,2)]"))
    word = w("e2^1 e1^3 e2^2 1[(-4,-1)] f2^2 f1^3 f2^1")
    assert word.sigma().text() == "f2^1 f1^3 f2^2 1[(4,1)] e2^2 e1^3 e2^1"
    assert word.sigma().sigma() == word


def test_index_swap_on_words():
    word = w("e2^1 e1^3 1[(-4,-1)] f1^2")
    assert word.index_swap().text() == "e1^1 e2^3 1[(-1,-4)] f2^2"
    assert word.index_swap().index_swap() == word


def test_bar_on_expressions():
    word = w("e1^1 1[(0,0)]")
    x = UdotExpr([(V, word)])
    assert x.bar() == UdotExpr([(vpow(-1), word)])
    # quantum binomials are bar-symmetric, so family sums are bar-fixed
    fe = family_element(FamilyId(2), 0, 2, 1, -2, -1, 1, 2, 0)
    assert fe.expr.bar() == fe.expr


def test_expr_combines_like_terms():
    word = w("1[(0,0)]")
    x = UdotExpr([(V, word), (ONE, word), (-V, word)])
    assert x.terms == ((ONE, word),)
    assert UdotExpr([(V, word), (-V, word)]).is_zero()


def test_evaluate_idempotent_projection():
    sp = get_tensor_space(1, 0, 1, 0)    # zeta = (0, 0)
    assert evaluate_on(UdotExpr.from_word(w("1[(0,0)]")), sp) == {sp.unit_index: ONE}
    assert evaluate_on(UdotExpr.from_word(w("1[(1,0)]")), sp) == {}
    # mismatch inside the word: lowering part lands away from the idempotent
    assert evaluate_on(UdotExpr.from_word(w("e1^1 1[(0,0)] f1^1")), sp) == {}


def test_evaluate_rank_one_round_trip():
    # e1 1[...] f1 on the fundamental module sends the cyclic vector back
    sp = get_tensor_space(0, 0, 1, 0)
    word = w("e1^1 1[(-1,1)] f1^1")
    assert evaluate_on(UdotExpr.from_word(word), sp) == {sp.unit_index: ONE}
    assert evaluate(UdotExpr.from_word(word), 0, 0, 1, 0) == {sp.unit_index: ONE}


def test_evaluate_matches_factorwise_composition():
    sp = get_tensor_space(1, 0, 1, 1)
    word = w("e2^1 1[(0,-2)] f2^2 f1^1")
    got = evaluate_on(UdotExpr.from_word(word), sp)
    vec = {sp.unit_index: ONE}
    vec = sp.delta_act(("f", 1), 1, vec)
    vec = sp.delta_act(("f", 2), 2, vec)
    assert sp.vec_weight(vec) == Weight(0, -2)
    vec = sp.delta_act(("e", 2), 1, vec)
    assert got == vec and got


def test_evaluate_is_linear():
    sp = get_tensor_space(1, 0, 1, 0)
    w1 = w("1[(0,0)]")
    w2 = w("e1^1 1[(-2,1)] f1^1")
    c = LaurentPoly({2: 3, -1: 1})
    combo = UdotExpr([(c, w1), (ONE, w2)])
    lhs = evaluate_on(combo, sp)
    rhs = {}
    for k, val in evaluate_on(UdotExpr.from_word(w1), sp).items():
        rhs[k] = rhs.get(k, LaurentPoly({})) + c * val
    for k, val in evaluate_on(UdotExpr.from_word(w2), sp).items():
        rhs[k] = rhs.get(k, LaurentPoly({})) + val
    assert lhs == {k: v for k, v in rhs.items() if v}


def test_family_catalog_size():
    assert len(ALL_FAMILY_IDS) == 52
    assert len({str(f) for f in ALL_FAMILY_IDS}) == 52


def test_family_id_parse():
    assert FamilyId.parse("6") == FamilyId(6)
    assert FamilyId.parse("6p") == FamilyId(6, sigma=True)
    assert FamilyId.parse("6'") == FamilyId(6, sigma=True)
    assert FamilyId.parse("6pm") == FamilyId(6, sigma=True, swap=True)
    assert FamilyId.parse("6*") == FamilyId(6, swap=True)
    with pytest.raises(DomainError):
        FamilyId.parse("14")
    with pytest.raises(DomainError):
        FamilyId.parse("abc")


def test_family_1_trivial():
    fe = family_element(FamilyId(1), 0, 0, 0, 0, 0, 0, 0, 0)
    assert fe.admissible
    assert fe.expr == UdotExpr.from_word(w("1[(0,0)]"))
    assert fe.labels == (MonomialLabel(SHAPE212, 0, 0, 0),) * 2
    assert fe.zeta == Weight(0, 0)


def test_family_1_inadmissible_example():
    fe = family_element(FamilyId(1), 0, 1, 0, -2, 1, 0, 1, 0)
    assert not fe.admissible       # -m >= u + j fails


def test_family_2_term_structure():
    # with u = j = 1 the sum has p in {0, 1}; the p = 1 term carries
    # -[m+2; 1] and shifted word data
    h, k, j, l, m, u, v, w_ = 0, 2, 1, -2, -1, 1, 2, 0
    fe = family_element(FamilyId(2), h, k, j, l, m, u, v, w_)
    assert fe.admissible and len(fe.expr.terms) == 2
    by_word = {word: c for c, word in fe.expr.terms}
    # leading word: e2^0 e1^2 e2^1 1[(l,m)] f2^1 f1^2 f2^0
    assert fe.leading == parse_word("e1^2 e2^1 1[(-2,-1)] f2^1 f1^2")
    second = parse_word("e1^2 1[(-3,1)] f1^2")
    assert by_word[second] == -qbinom(m + u + j, 1)


def test_family_terms_share_weights():
    for fid, params in [(FamilyId(2), (0, 2, 1, -2, -1, 1, 2, 0)),
                        (FamilyId(6), (0, 1, 1, -4, 0, 0, 1, 1)),
                        (FamilyId(13), (0, 1, 0, 0, -4, 0, 1, 1))]:
        fe = family_element(fid, *params)
        if not fe.admissible:
            continue
        zetas = {word.zeta() for _, word in fe.expr.terms}
        lefts = {word.left_weight() for _, word in fe.expr.terms}
        assert len(zetas) == 1 and len(lefts) == 1


def test_family_labels_shapes():
    fe = family_element(FamilyId(8), 0, 1, 0, -2, -2, 0, 1, 1)
    assert fe.labels[0] == MonomialLabel(SHAPE212, 0, 1, 0)
    assert fe.labels[1] == MonomialLabel(SHAPE212, 1, 1, 0)  # boundary v = u+w
    fem = family_element(FamilyId(1, swap=True), 1, 1, 0, -2, 0, 0, 1, 0)
    assert fem.admissible
    assert fem.leading.text() == "e1^1 e2^1 1[(0,-2)] f2^1"
    # boundary word e1 e2 normalizes into shape 212
    assert fem.labels[0] == MonomialLabel(SHAPE212, 0, 1, 1)


def test_sigma_family_is_sigma_of_base():
    params = (0, 2, 1, -2, -1, 1, 2, 0)
    base = family_element(FamilyId(2), *params)
    im = family_element(FamilyId(2, sigma=True), *params)
    assert im.expr == base.expr.sigma()
    assert im.admissible == base.admissible
    mir = family_element(FamilyId(2, swap=True), *params)
    assert mir.expr == base.expr.index_swap()


def _old_route(fid, params):
    """A family element built as before: the base family's expression, then
    UdotExpr.sigma() and .index_swap(), labels by an uncached lookup."""
    terms = [(c, _base_word(fid.index, e_exps, idem, f_exps))
             for c, e_exps, idem, f_exps in _terms_family(fid.index, *params)]
    expr, leading = UdotExpr(terms), terms[0][1]
    if fid.sigma:
        expr, leading = expr.sigma(), leading.sigma()
    if fid.swap:
        expr, leading = expr.index_swap(), leading.index_swap()
    labels = zeta = None
    if family_admissible(fid, *params):
        seq = list(leading.left) + list(leading.right)
        labels = (label_from_factors([(i, e) for (kind, i), e in seq if kind == "e"]),
                  label_from_factors([(i, e) for (kind, i), e in seq if kind == "f"]))
        zeta = expr.zeta()
    return expr, leading, labels, zeta


def test_one_pass_family_element_matches_old_route():
    # every exponent tuple at most 1 with k >= h + j and v >= u + w, every
    # weight with |l|, |m| <= 3, admissible or not
    rng = range(2)
    exps = [(h, k, j, u, v, w) for h, k, j, u, v, w in product(rng, repeat=6)
            if k >= h + j and v >= u + w]
    checked = admissible = 0
    for fid in ALL_FAMILY_IDS:
        for h, k, j, u, v, w in exps:
            for l, m in product(range(-3, 4), repeat=2):
                params = (h, k, j, l, m, u, v, w)
                fe = family_element(fid, *params)
                assert (fe.expr, fe.leading, fe.labels, fe.zeta) == _old_route(fid, params)
                checked += 1
                admissible += fe.admissible
    assert checked == 52 * 16 * 49
    assert admissible == 4864


def test_family_admissible_helper():
    assert family_admissible(FamilyId(1), 0, 0, 0, 0, 0, 0, 0, 0)
    assert not family_admissible(FamilyId(1), 0, 1, 0, -2, 1, 0, 1, 0)
    assert family_admissible(FamilyId(1, sigma=True), 0, 0, 0, 0, 0, 0, 0, 0)


def test_family_rejects_negative_exponents():
    with pytest.raises(DomainError):
        family_element(FamilyId(1), -1, 0, 0, 0, 0, 0, 0, 0)


def test_binomial_override_hook():
    params = (0, 2, 1, -2, -1, 1, 2, 0)
    plain = family_element(FamilyId(2), *params)

    def corrupt(a, b):
        val = qbinom(a, b)
        return val * vpow(1) if (b == 1 and val) else val

    with override_family_binomial(corrupt):
        mutated = family_element(FamilyId(2), *params)
    assert mutated.expr != plain.expr
    assert family_element(FamilyId(2), *params).expr == plain.expr


# -- transcriptions of the printed sigma-side families (1'), (2') -------------
#
# The sigma-generated families must coincide with direct transcriptions of
# the printed sums under the parameter correspondence
#     (h,k,j,l,m,u,v,w)  printed  =  sigma of base at (j,k,h,-l,-m,w,v,u).


def printed_1p(h, k, j, l, m, u, v, w_):
    word = UdotWord.make(
        ((("f", 2), u), (("f", 1), v), (("f", 2), w_)), Weight(l, m),
        ((("e", 2), h), (("e", 1), k), (("e", 2), j)))
    return UdotExpr.from_word(word)


def adm_1p(h, k, j, l, m, u, v, w_):
    return -l <= w_ - v + h - k and -m <= -w_ - h and k >= h + j and v >= u + w_


def printed_2p(h, k, j, l, m, u, v, w_):
    terms = []
    for p in range(0, min(h, w_) + 1):
        c = qbinom(w_ - m + h + p - 1, p) * (-1 if p % 2 else 1)
        if not c:
            continue
        word = UdotWord.make(
            ((("f", 2), u), (("f", 1), v), (("f", 2), w_ - p)),
            Weight(l + p, m - 2 * p),
            ((("e", 2), h - p), (("e", 1), k), (("e", 2), j)))
        terms.append((c, word))
    return UdotExpr(terms)


def adm_2p(h, k, j, l, m, u, v, w_):
    return (-l <= w_ - v + h - k and -w_ - h <= -m <= -w_ - h + v - u - w_
            and -m <= -w_ - h + (k - j - h) and k >= h + j and v >= u + w_)


@pytest.mark.parametrize("printed,adm,base_index",
                         [(printed_1p, adm_1p, 1), (printed_2p, adm_2p, 2)])
def test_printed_sigma_transcriptions(printed, adm, base_index):
    from itertools import product
    checked = 0
    for h, k, j, u, v, w_ in product(range(3), repeat=6):
        if k < h + j or v < u + w_:
            continue
        for l in range(-6, 7):
            for m in range(-6, 7):
                pa = adm(h, k, j, l, m, u, v, w_)
                ga = family_admissible(FamilyId(base_index),
                                       j, k, h, -l, -m, w_, v, u)
                assert pa == ga, (h, k, j, l, m, u, v, w_)
                if not pa:
                    continue
                fe = family_element(FamilyId(base_index, sigma=True),
                                    j, k, h, -l, -m, w_, v, u)
                assert printed(h, k, j, l, m, u, v, w_) == fe.expr
                checked += 1
    assert checked > 100
