import json

import pytest

from qsl3 import qcomb
from qsl3.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_identities_pass(capsys):
    code, data = run_json(capsys, ["identities", "--grid-a", "2,2,2",
                                   "--grid-b", "3,2", "--grid-c", "2,2,2"])
    assert code == 0
    assert data["ok"] and not data["failures"]
    assert data["total"] == len(data["checks"])
    assert all(c["ok"] for c in data["checks"])


def test_identities_negative_control(capsys, monkeypatch):
    monkeypatch.setattr(qcomb, "qvandermonde_check", lambda n, r, m: False)
    code, data = run_json(capsys, ["identities", "--grid-a", "1,1,1",
                                   "--grid-b", "1,1", "--grid-c", "1,1,1"])
    assert code == 1
    assert data["failures"]
    failure = data["failures"][0]
    assert failure["identity"] == "vandermonde" and "lhs" in failure and "rhs" in failure


def test_identities_empty_ranges_pass_vacuously(capsys):
    code, data = run_json(capsys, ["identities", "--grid-a", "0,0,0",
                                   "--grid-b", "0,0", "--grid-c", "0,0,0"])
    assert code == 0 and data["ok"]


def test_module_dump(capsys):
    code, data = run_json(capsys, ["module", "--weight", "1,0"])
    assert code == 0
    assert data["dimension"] == 3 and len(data["basis"]) == 3
    assert set(data["generators"]) == {"e1", "e2", "f1", "f2"}


def test_module_lowest_dump(capsys):
    code, data = run_json(capsys, ["module", "--weight", "1,0", "--lowest"])
    assert code == 0 and data["kind"] == "lowest" and data["dimension"] == 3


def test_psi_dump_identity_space(capsys):
    code, data = run_json(capsys, ["psi", "--params", "0,0,1,0"])
    assert code == 0 and data["invariants"]["verified"]
    for block in data["blocks"].values():
        rho = block["rho"]
        for c, col in enumerate(rho):
            assert col == [[c, [[0, "1"]]]]


def test_canbasis_trivial(capsys):
    code, data = run_json(capsys, ["canbasis", "--params", "0,0,0,0"])
    assert code == 0 and len(data["elements"]) == 1


def test_verify_family(capsys):
    code, data = run_json(capsys, ["verify", "--family", "2",
                                   "--exps", "0,2,1,1,2,0",
                                   "--weight=-2,-1", "--window", "3"])
    assert code == 0
    rep = data["report"]
    assert rep["mismatches"] == 0
    assert any(o["status"] == "canonical" and o.get("vector")
               for o in rep["outcomes"])


def test_verify_expression(capsys):
    code, data = run_json(capsys, ["verify", "--expr", "e1^1 1[(-2,0)] f1^1",
                                   "--window", "2"])
    assert code == 0 and data["report"]["mismatches"] == 0


def test_verify_expression_mismatch_exit(capsys):
    code, data = run_json(capsys, ["verify", "--expr", "e1^1 1[(-1,0)] f1^1",
                                   "--window", "2"])
    assert code == 1 and data["report"]["mismatches"] > 0


def test_verify_all_small(capsys):
    code, data = run_json(capsys, ["verify-all", "--families", "1,1p",
                                   "--max-exp", "1", "--max-weight", "3",
                                   "--window", "2"])
    assert code == 0
    assert data["summary"]["mismatch"] == 0
    assert data["summary"]["tuples"] == len(data["reports"])


def test_verify_all_parallel(capsys):
    code, data = run_json(capsys, ["verify-all", "--families", "1",
                                   "--max-exp", "1", "--max-weight", "2",
                                   "--window", "2", "--jobs", "2"])
    assert code == 0 and data["summary"]["mismatch"] == 0
    assert data["config"]["jobs"] == 2


def test_integrity_failure_exit_code(capsys, monkeypatch):
    from qsl3 import cli
    from qsl3.errors import IntegralityFailure

    def boom(args):
        raise IntegralityFailure("synthetic")

    # main() builds its parser per call, so the handler is looked up late
    monkeypatch.setitem(cli.__dict__, "cmd_canbasis", boom)
    code = cli.main(["canbasis", "--params", "0,0,0,0"])
    assert code == 3
    assert "integrity" in capsys.readouterr().err


def test_sigma_check(capsys):
    code, data = run_json(capsys, ["sigma-check", "--family", "2",
                                   "--exps", "0,2,1,1,2,0",
                                   "--weight=-2,-1", "--window", "3"])
    assert code == 0 and data["report"]["mismatches"] == 0


def test_usage_errors(capsys):
    assert main(["verify", "--family", "nonsense", "--exps", "0,0,0,0,0,0",
                 "--weight", "0,0"]) == 2
    assert main(["module", "--weight", "1"]) == 2
    assert main(["verify", "--family", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["canbasis", "--params", "0,0,1,0", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 3
    assert capsys.readouterr().out == ""


def test_cache_dir_flag(tmp_path, capsys):
    from qsl3 import tensor
    # force a fresh space so blocks are really recomputed and persisted
    tensor._registry.pop((0, 2, 2, 0), None)
    try:
        code = main(["--cache-dir", str(tmp_path), "psi", "--params", "0,2,2,0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 0
        assert list(tmp_path.glob("rho_0_2_2_0.jsonl"))
    finally:
        tensor.set_cache_dir(None)
        tensor._registry.pop((0, 2, 2, 0), None)


@pytest.mark.parametrize("argv", [
    ["verify", "--expr", "e1^1 1[(-2,0)] f1^1", "--window", "-1"],
    ["sigma-check", "--family", "2", "--exps", "0,2,1,1,2,0",
     "--weight=-2,-1", "--window", "-1"],
    ["verify-all", "--families", "1", "--max-exp", "-1"],
    ["verify-all", "--families", "1", "--max-weight", "-1"],
    ["verify-all", "--families", "1", "--window", "-1"],
    ["verify-all", "--families", "1", "--jobs", "0"],
])
def test_rejects_empty_or_unbounded_requests(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_verify_all_pool_is_capped(capsys, monkeypatch):
    from qsl3 import cli
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["verify-all", "--families", "1", "--max-exp", "0",
            "--max-weight", "1", "--window", "1", "--jobs", "1000"]
    for cpus in (3, 100):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, data = run_json(capsys, argv)
        assert code == 0 and data["config"]["jobs"] == 1000
        assert data["summary"]["tuples"] == 4
    # capped by the CPUs, then by the tuples
    assert sizes == [3, 4]
