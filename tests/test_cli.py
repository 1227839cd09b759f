import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from qsl3 import qcomb
from qsl3.cli import _dumps, main


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


_TOO_LOW = "must be at least"
_TOO_HIGH = "must be at most 6, got 7"
_REJECTED = [
    (["verify", "--expr", "e1^1 1[(-2,0)] f1^1", "--window", "-1"], _TOO_LOW),
    (["sigma-check", "--family", "2", "--exps", "0,2,1,1,2,0",
      "--weight=-2,-1", "--window", "-1"], _TOO_LOW),
    (["verify-all", "--families", "1", "--max-exp", "-1"], _TOO_LOW),
    (["verify-all", "--families", "1", "--max-weight", "-1"], _TOO_LOW),
    (["verify-all", "--families", "1", "--window", "-1"], _TOO_LOW),
    (["verify-all", "--families", "1", "--jobs", "0"], _TOO_LOW),
    # argparse rejects these before any space is built
    (["verify", "--expr", "e1^1 1[(-2,0)] f1^1", "--window", "7"], _TOO_HIGH),
    (["sigma-check", "--family", "2", "--exps", "0,2,1,1,2,0",
      "--weight=-2,-1", "--window", "7"], _TOO_HIGH),
    (["verify-all", "--families", "1", "--window", "7"], _TOO_HIGH),
]


@pytest.mark.parametrize("argv,message", [pytest.param(argv, message, id=f"argv{n}")
                                          for n, (argv, message) in enumerate(_REJECTED)])
def test_rejects_empty_or_unbounded_requests(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


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


# -- the JSON writer ----------------------------------------------------------

_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/",
                           "é", " ", "\U0001f600", "\ud800"])
_strings = st.text(alphabet=_TRICKY | st.characters(), max_size=12)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2 ** 300, max_value=2 ** 300)
            | st.floats(allow_nan=False, allow_infinity=False) | _strings)
_trees = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=6)
                  | st.lists(st.integers(), max_size=6)
                  | st.dictionaries(_strings, kids, max_size=6)),
    max_leaves=40)


@given(_trees)
def test_dumps_matches_json_indent_2(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


def test_dumps_tuples_match_and_unsupported_values_raise():
    for value in [(1, 2), ((), [(3, "a")]), {"t": (True, None)}]:
        assert _dumps(value) == json.dumps(value, indent=2)
    for value in [float("nan"), [float("inf")], {"x": -float("inf")}]:
        with pytest.raises(ValueError):
            _dumps(value)
    for value in [{1: "int key"}, {"a": object()}, [b"bytes"], {"s": {1, 2}}]:
        with pytest.raises(TypeError):
            _dumps(value)


@pytest.mark.parametrize("argv", [
    ["identities", "--grid-a", "1,1,1", "--grid-b", "1,1", "--grid-c", "1,1,1"],
    ["module", "--weight", "1,1"],
    ["module", "--weight", "1,0", "--lowest"],
    ["psi", "--params", "1,0,1,0"],
    ["canbasis", "--params", "1,0,1,1"],
    ["verify", "--family", "2", "--exps", "0,2,1,1,2,0", "--weight=-2,-1",
     "--window", "2"],
    ["verify", "--expr", "e1^1 1[(-1,0)] f1^1", "--window", "2"],
    ["verify-all", "--families", "2,6p", "--max-exp", "1", "--max-weight", "2",
     "--window", "1", "--full-vectors"],
    ["sigma-check", "--family", "2", "--exps", "0,2,1,1,2,0",
     "--weight=-2,-1", "--window", "2"],
], ids=lambda argv: argv[0])
def test_every_payload_is_written_as_json_indent_2(capsys, monkeypatch, argv):
    from qsl3 import cli
    payloads = []
    emit = cli._emit

    def recording_emit(payload, out_path):
        payloads.append(payload)
        emit(payload, out_path)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    main(argv)
    (payload,) = payloads
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


# sha256 of each output as printed before the direct writer, the one-pass
# family elements and the cached labels, with the '"elapsed' lines dropped
_GOLDEN = [
    (["verify-all", "--families", "1,2,6p,8m", "--max-exp", "1",
      "--max-weight", "3", "--window", "2"],
     "4322f7aa293a9d2df9d42c9e05c8a6b7af74629dee7f9f94a4c4fcdca14edd63"),
    (["canbasis", "--params", "1,1,1,1"],
     "2e060d5af07a6557be4d4e32cccb337869b5415eec9ccca2d6c01d70c7e2672d"),
    (["psi", "--params", "1,0,1,0"],
     "5cd9f61d5d5394ad4a56dfebf98fb17d4aa5b61fe63621495566783a328c4dfc"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN, ids=[argv[0] for argv, _ in _GOLDEN])
def test_output_is_byte_identical_to_recorded(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("QSL3_CACHE_DIR", "")
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = "".join(line for line in lines if '"elapsed' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
