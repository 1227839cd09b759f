import json
import os
import random
import subprocess
import sys
from pathlib import Path

import qsl3

from qsl3.labels import Weight
from qsl3.laurent import LaurentPoly, ONE, V, vpow
from qsl3.modules import GENS
from qsl3.qcomb import qint
from qsl3.tensor import TensorSpace, build_psi, get_tensor_space, vec_sub


def unit(space):
    return {space.unit_index: ONE}


def test_dimensions_and_weights():
    sp = get_tensor_space(1, 1, 1, 1)
    assert sp.dim == sp.low.dim * sp.high.dim == 64
    assert sp.zeta == Weight(0, 0)
    for k, (iL, iH) in enumerate(sp.pairs):
        assert sp.pair_weight[k] == sp.low.weights[iL] + sp.high.weights[iH]
    assert sum(len(v) for v in sp.weight_spaces.values()) == sp.dim
    assert sp.pair_weight[sp.unit_index] == sp.zeta


def test_delta_act_order_zero_is_identity():
    sp = get_tensor_space(1, 0, 1, 0)
    x = {3: V, 5: ONE}
    assert sp.delta_act(("e", 1), 0, x) == x


def test_delta_act_lowest_weight_vanishing():
    # f1 on xi (x) eta has no (f1 xi) term because f's kill the bottom vector
    sp = get_tensor_space(1, 0, 1, 0)
    out = sp.delta_act(("f", 1), 1, unit(sp))
    fh = sp.high.act(("f", 1), {0: ONE})
    expected = {sp.pair_pos[(0, iH)]: c for iH, c in fh.items()}
    assert out == expected


def test_divided_coproduct_against_square_over_q2():
    # f1^(2) must agree with f1 f1 / [2] applied through the coproduct, on a
    # vector where all three splittings genuinely contribute
    sp = get_tensor_space(2, 0, 2, 0)
    x = sp.delta_act(("e", 1), 2, unit(sp))
    assert len(x) == 1
    twice = sp.delta_act(("f", 1), 1, sp.delta_act(("f", 1), 1, x))
    divided = sp.delta_act(("f", 1), 2, x)
    q2 = qint(2)
    assert len(divided) >= 3
    assert {k: c.exact_div(q2) for k, c in twice.items()} == divided
    # raising powers on the cyclic vector act on the lowest factor alone
    for n in (1, 2):
        lifted = sp.delta_act(("e", 1), n, unit(sp))
        low_only = sp.low.divided_columns(("e", 1), n)[0]
        assert lifted == {sp.pair_pos[(iL, 0)]: c for iL, c in low_only.items()}


def test_pair_order():
    sp = get_tensor_space(1, 0, 1, 0)
    u = sp.unit_index
    p11 = sp.pair_pos[(1, 1)]       # both first lowering words
    p01 = sp.pair_pos[(0, 1)]
    assert sp.pair_order_leq(u, u)
    assert sp.pair_order_leq(u, p11) and not sp.pair_order_leq(p11, u)
    assert not sp.pair_order_leq(p01, p11)   # difference classes differ
    assert not sp.pair_order_leq(p11, p01)


def test_psi_fixes_cyclic_vector_and_is_semilinear():
    sp = get_tensor_space(1, 1, 1, 1)
    op = sp.psi()
    assert op.apply(unit(sp)) == unit(sp)
    assert op.apply({sp.unit_index: V}) == {sp.unit_index: vpow(-1)}


def test_psi_identity_on_multiplicity_free_space():
    sp = get_tensor_space(0, 0, 1, 0)
    op = build_psi(sp)
    for k in range(sp.dim):
        assert op.apply({k: ONE}) == {k: ONE}


def test_psi_square_is_identity():
    for params in [(1, 0, 1, 0), (1, 1, 1, 1), (2, 0, 1, 1)]:
        sp = get_tensor_space(*params)
        op = sp.psi()
        for k in range(sp.dim):
            x = {k: ONE}
            assert op.apply(op.apply(x)) == x, (params, k)


def test_psi_fixes_bar_fixed_word_images():
    rng = random.Random(11)
    sp = get_tensor_space(1, 0, 1, 1)
    op = sp.psi()
    for _ in range(20):
        vec = {sp.unit_index: ONE}
        for _ in range(rng.randint(1, 4)):
            gen = GENS[rng.randrange(4)]
            vec = sp.delta_act(gen, rng.randint(1, 2), vec)
            if not vec:
                break
        if vec:
            assert op.apply(vec) == vec


def test_psi_commutes_with_generator_action():
    rng = random.Random(7)
    sp = get_tensor_space(1, 0, 1, 0)
    op = sp.psi()
    for _ in range(20):
        x = {}
        for k in rng.sample(range(sp.dim), 3):
            p = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            if p:
                x[k] = p
        for gen in GENS:
            for n in (1, 2):
                assert op.apply(sp.delta_act(gen, n, x)) == sp.delta_act(gen, n, op.apply(x))


def test_psi_block_structure_zeta_space():
    # the (0,0) weight space of T(1,0,1,0) is 3-dimensional; the involution
    # matrix is unitriangular there with Laurent entries (checked at build)
    sp = get_tensor_space(1, 0, 1, 0)
    blk = sp.psi().block(Weight(0, 0))
    assert len(blk.indices) == 3
    for c, col in enumerate(blk.cols):
        assert col.get(c) == ONE


def test_psi_preserves_weight_spaces():
    sp = get_tensor_space(1, 1, 1, 0)
    op = sp.psi()
    for k in range(sp.dim):
        img = op.apply({k: ONE})
        for k2 in img:
            assert sp.pair_weight[k2] == sp.pair_weight[k]


def _cache_lines(tmp_path):
    files = list(tmp_path.glob("rho_*"))
    assert len(files) == 1
    return files[0], [json.loads(line) for line in files[0].read_text().splitlines()]


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    sp = TensorSpace(1, 0, 0, 1)
    op = build_psi(sp)
    path, lines = _cache_lines(tmp_path)
    assert path.name == "rho_1_0_0_1.jsonl"
    assert lines[0]["schema"] == 2 and lines[0]["params"] == [1, 0, 0, 1]
    # a fresh operator loads every block from disk and agrees
    sp2 = TensorSpace(1, 0, 0, 1)
    op2 = sp2.psi()
    assert set(op2._blocks) == set(sp.weight_spaces)
    for w in sp.weight_spaces:
        assert op2.block(w).cols == op.block(w).cols


def test_disk_cache_writes_each_block_once(tmp_path, monkeypatch):
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    sp = TensorSpace(1, 1, 1, 0)
    sp.psi().ensure_all()
    _, lines = _cache_lines(tmp_path)
    header, records = lines[0], lines[1:]
    assert set(header) == {"schema", "version", "params"}
    weights = [tuple(rec["weight"]) for rec in records]
    assert sorted(weights) == sorted(w.as_tuple() for w in sp.weight_spaces)


def test_disk_cache_two_writers_leave_a_loadable_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    params = (1, 0, 1, 1)
    ops = [TensorSpace(*params).psi() for _ in range(2)]
    weights = sorted(ops[0].space.weight_spaces, key=Weight.as_tuple)
    # both operators start from an empty directory, so each weight is
    # appended twice, once by each
    for w in weights[::2]:
        ops[0].block(w)
    ops[1].ensure_all()
    ops[0].ensure_all()
    _, lines = _cache_lines(tmp_path)
    assert sum("schema" in line for line in lines) == 1
    assert len(lines) - 1 == 2 * len(weights)
    loaded = TensorSpace(*params).psi()
    assert capsys.readouterr().err == ""
    assert set(loaded._blocks) == set(weights)
    for w in weights:
        assert loaded._blocks[w].cols == ops[0].block(w).cols


def test_disk_cache_concurrent_processes_leave_a_loadable_file(tmp_path, monkeypatch, capsys):
    # more writer processes than cores build the same space into one directory
    params = (2, 1, 1, 1)
    env = dict(os.environ, QSL3_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(Path(qsl3.__file__).parent.parent))
    code = ("from qsl3.tensor import TensorSpace, build_psi\n"
            f"build_psi(TensorSpace(*{params}))")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(4)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == "", err
    _, lines = _cache_lines(tmp_path)
    assert sum("schema" in line for line in lines) == 1
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    loaded = TensorSpace(*params).psi()
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("QSL3_CACHE_DIR", "")
    fresh = build_psi(TensorSpace(*params))
    assert set(loaded._blocks) == set(fresh.space.weight_spaces)
    for w, blk in loaded._blocks.items():
        assert blk.cols == fresh.block(w).cols


def test_disk_cache_corruption_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    sp = TensorSpace(0, 1, 1, 0)
    build_psi(sp)
    path = next(tmp_path.glob("rho_*.jsonl"))
    path.write_text(path.read_text() + "{ not json\n")
    sp2 = TensorSpace(0, 1, 1, 0)
    op2 = build_psi(sp2)
    assert "ignoring corrupt" in capsys.readouterr().err
    for k in range(sp2.dim):
        x = {k: ONE}
        assert op2.apply(op2.apply(x)) == x


def test_disk_cache_stale_header_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    build_psi(TensorSpace(0, 1, 1, 0))
    path = next(tmp_path.glob("rho_*.jsonl"))
    header, *records = path.read_text().splitlines(keepends=True)
    stale = dict(json.loads(header), schema=1)
    path.write_text(json.dumps(stale) + "\n" + "".join(records))
    op = TensorSpace(0, 1, 1, 0).psi()
    assert "header does not match" in capsys.readouterr().err
    assert op._blocks == {}


def test_disk_cache_changed_entry_is_rejected(tmp_path, monkeypatch, capsys):
    # a parseable file with one rho entry changed fails the block checks on
    # load; it is deleted and the rebuilt involution equals a fresh build
    monkeypatch.setenv("QSL3_CACHE_DIR", str(tmp_path))
    params = (1, 1, 1, 1)
    build_psi(TensorSpace(*params))
    path = next(tmp_path.glob("rho_*.jsonl"))
    lines = path.read_text().splitlines()
    n, record, entry = next(
        (n, record, entry)
        for n, record in enumerate(map(json.loads, lines[1:]), 1)
        for col in record["rho"] for entry in col if entry[1] != ONE.to_json())
    entry[1] = (LaurentPoly.from_json(entry[1]) + V).to_json()
    lines[n] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    sp = TensorSpace(*params)
    op = build_psi(sp)
    assert "bar(rho) rho != 1" in capsys.readouterr().err
    monkeypatch.setenv("QSL3_CACHE_DIR", "")
    fresh = build_psi(TensorSpace(*params))
    for w in sp.weight_spaces:
        assert op.block(w).cols == fresh.block(w).cols


def test_helper_vector_ops():
    a = {1: V, 2: ONE}
    b = {2: ONE, 3: vpow(-1)}
    assert vec_sub(a, b) == {1: V, 3: -vpow(-1)}
    sp = get_tensor_space(0, 0, 1, 0)
    assert sp.psi().apply(unit(sp)) == unit(sp)
