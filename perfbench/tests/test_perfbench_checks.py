"""The benchmark's output checks reject corrupted outputs.

    python3 -m pytest perfbench/tests

Each test takes a real output of a small run, corrupts one thing, and
requires the check that guards it to reject the result.
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from qsl3 import cli, tensor, udot  # noqa: E402
from qsl3.canonical import windows_for  # noqa: E402
from qsl3.labels import Weight  # noqa: E402
from qsl3.udot import FamilyId, family_element  # noqa: E402

SMALL_SWEEP = {"families": ["1", "1p"], "max_exp": 1, "max_weight": 2, "window": 2}
SMALL_SPACE = (1, 1, 1, 1)


@pytest.fixture(scope="module", autouse=True)
def _cache_dir(tmp_path_factory):
    tensor.set_cache_dir(str(tmp_path_factory.mktemp("rho_cache")))
    yield
    tensor.set_cache_dir(None)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.json"
    c = SMALL_SWEEP
    assert cli.main(["verify-all", "--families", ",".join(c["families"]),
                     "--max-exp", str(c["max_exp"]), "--max-weight", str(c["max_weight"]),
                     "--window", str(c["window"]), "--jobs", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text()), checks.sweep_expectation(c)


@pytest.fixture(scope="module")
def canbasis(tmp_path_factory):
    out = tmp_path_factory.mktemp("canbasis") / "canbasis.json"
    assert cli.main(["canbasis", "--params", ",".join(map(str, SMALL_SPACE)),
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _outcomes(doc, status):
    return [o for rep in doc["reports"] for o in rep["outcomes"] if o["status"] == status]


def test_window_rule_matches_the_program():
    for z in ((0, 0), (1, -1), (-2, 1), (3, 0), (4, 4)):
        for window in (1, 2, 3):
            assert checks.window_rule(z, window) == sorted(windows_for(Weight(*z), window))


def test_derived_tuples_match_the_program():
    # the restated side conditions and leading-word weights agree with the
    # catalog's own on every family
    config = {"families": list(workloads.ALL_FAMILIES), "max_exp": 1, "max_weight": 4,
              "window": 3}
    derived = checks.sweep_expectation(config)
    program = {}
    for fam in config["families"]:
        fid = FamilyId.parse(fam)
        for params in cli.iter_admissible_params(fid, config["max_exp"], config["max_weight"]):
            z = family_element(fid, *params).zeta
            program[(fam, params)] = (z.w1, z.w2)
    assert derived == program and len({fam for fam, _ in derived}) == 52


def test_sweep_output_passes(sweep):
    doc, expected = sweep
    ops, failed, problems = checks.check_sweep(doc, SMALL_SWEEP, expected)
    assert problems == [] and failed == 0
    assert ops == doc["summary"]["window_checks"] > 0
    assert checks.check_families_covered([doc], SMALL_SWEEP["families"]) == []


def test_sweep_rejects_an_outcome_flipped_to_mismatch(sweep):
    doc, expected = copy.deepcopy(sweep[0]), sweep[1]
    _outcomes(doc, "canonical")[0]["status"] = "mismatch"
    _, failed, problems = checks.check_sweep(doc, SMALL_SWEEP, expected)
    assert failed == 1 and problems


def test_sweep_rejects_a_dropped_report(sweep):
    doc, expected = copy.deepcopy(sweep[0]), sweep[1]
    n = next(i for i, rep in enumerate(doc["reports"]) if rep["outcomes"])
    dropped = doc["reports"].pop(n)
    _, failed, problems = checks.check_sweep(doc, SMALL_SWEEP, expected)
    assert failed == len(dropped["outcomes"]) and problems


def test_sweep_rejects_a_dropped_window(sweep):
    doc, expected = copy.deepcopy(sweep[0]), sweep[1]
    next(rep for rep in doc["reports"] if rep["outcomes"])["outcomes"].pop()
    _, _, problems = checks.check_sweep(doc, SMALL_SWEEP, expected)
    assert problems


def test_sweep_rejects_a_program_that_skips_tuples(monkeypatch, tmp_path, sweep):
    # a catalog whose side conditions drop tuples does less work; the
    # derived tuples do not follow it
    admissible = udot._admissible
    monkeypatch.setattr(udot, "_admissible",
                        lambda index, h, *rest: h == 0 and admissible(index, h, *rest))
    out = tmp_path / "sweep.json"
    c = SMALL_SWEEP
    assert cli.main(["verify-all", "--families", ",".join(c["families"]),
                     "--max-exp", str(c["max_exp"]), "--max-weight", str(c["max_weight"]),
                     "--window", str(c["window"]), "--jobs", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["summary"]["tuples"] < len(sweep[1])
    ops, failed, problems = checks.check_sweep(doc, SMALL_SWEEP, sweep[1])
    assert failed > 0 and any("have no report" in p for p in problems)


def test_sweep_rejects_a_family_without_canonical_outcomes(sweep):
    doc = copy.deepcopy(sweep[0])
    for rep in doc["reports"]:
        if rep["family"] == "1p":
            for o in rep["outcomes"]:
                o["status"] = "zero"
    assert checks.check_families_covered([doc], SMALL_SWEEP["families"]) == [
        "family 1p has no canonical outcome"]


def test_canbasis_output_passes(canbasis):
    space = tensor.get_tensor_space(*SMALL_SPACE)
    ops, failed, problems = checks.check_canbasis(canbasis, SMALL_SPACE)
    assert (ops, failed, problems) == (64, 0, [])
    assert checks.check_psi_fixed(canbasis, space) == []
    assert checks.check_psi_involution(space, random.Random(1), trials=20) == []


def _element_with_corrections(doc):
    return next(el for el in doc["elements"] if len(el["vector"]) > 1)


def test_canbasis_rejects_a_changed_coefficient(canbasis):
    doc = copy.deepcopy(canbasis)
    el = _element_with_corrections(doc)
    entry = next(e for e in el["vector"] if e[:2] != el["pair"])
    entry[2][0][1] = str(int(entry[2][0][1]) + 1)
    space = tensor.get_tensor_space(*SMALL_SPACE)
    assert checks.check_psi_fixed(doc, space)


def test_canbasis_rejects_a_coefficient_outside_the_lattice(canbasis):
    doc = copy.deepcopy(canbasis)
    el = _element_with_corrections(doc)
    entry = next(e for e in el["vector"] if e[:2] != el["pair"])
    entry[2][0][0] = 0
    _, _, problems = checks.check_canbasis(doc, SMALL_SPACE)
    assert any("v^-1 Z[v^-1]" in p for p in problems)


def test_canbasis_rejects_a_changed_unit(canbasis):
    doc = copy.deepcopy(canbasis)
    el = doc["elements"][5]
    own = next(e for e in el["vector"] if e[:2] == el["pair"])
    own[2] = [[0, "2"]]
    _, _, problems = checks.check_canbasis(doc, SMALL_SPACE)
    assert any("its own pair" in p for p in problems)


def test_canbasis_rejects_a_dropped_element(canbasis):
    doc = copy.deepcopy(canbasis)
    del doc["elements"][10]
    ops, failed, problems = checks.check_canbasis(doc, SMALL_SPACE)
    assert (ops, failed) == (64, 1) and problems


def test_canbasis_rejects_support_outside_the_pair_order(canbasis):
    # a pair above the unit pair in degree, with the same degree difference
    doc = copy.deepcopy(canbasis)
    above = next(el for el in doc["elements"]
                 if sum(el["pair"][0]["exps"]) == sum(el["pair"][1]["exps"]) > 0)
    doc["elements"][0]["vector"].append([*above["pair"], [[-1, "1"]]])
    _, _, problems = checks.check_canbasis(doc, SMALL_SPACE)
    assert any("pair order" in p for p in problems)


def _broken_psi(monkeypatch, change):
    space = tensor.get_tensor_space(*SMALL_SPACE)
    space.psi().ensure_all()
    apply = tensor.PsiOperator.apply
    monkeypatch.setattr(tensor.PsiOperator, "apply", lambda op, vec: change(apply, op, vec))
    return checks.check_psi_involution(space, random.Random(1), trials=20)


def test_psi_check_rejects_a_linear_map(monkeypatch):
    problems = _broken_psi(monkeypatch, lambda apply, op, vec: apply(
        op, {k: c.bar() for k, c in vec.items()}))
    assert any("psi(X x)" in p for p in problems)


def test_psi_check_rejects_a_map_that_is_not_an_involution(monkeypatch):
    problems = _broken_psi(monkeypatch, lambda apply, op, vec: {
        k: c * 2 for k, c in apply(op, vec).items()})
    assert any("psi(psi(x))" in p for p in problems)
    assert any("xi (x) eta" in p for p in problems)


def _fake_run(ops_per_round: int, wall: float) -> str:
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]}
               for m in compare._spec()["end_to_end"]}
    result = {"correct": True, "attempted": 2 * ops_per_round, "failed": 0, "metrics": metrics}
    return "rounds " + json.dumps({"wall_s": [wall, wall], "ops": [ops_per_round] * 2}) \
        + "\n" + json.dumps(result) + "\n"


@pytest.mark.parametrize("ops_b, verdict", [(100, 0), (90, 1)])
def test_report_requires_equal_operations_per_round(tmp_path, capsys, ops_b, verdict):
    # a set that does less work per round is refused even when it is faster
    for name, ops, wall in (("A", 100, 10.0), ("B", ops_b, 9.0)):
        for seed in range(1, 5):
            d = tmp_path / name
            d.mkdir(exist_ok=True)
            (d / f"sweep-warm.seed{seed}.trace0.json").write_text(
                _fake_run(ops, wall + seed / 100))
    assert compare.report(tmp_path / "A", tmp_path / "B") == verdict
    assert ("operations per round DIFFER" in capsys.readouterr().out) == bool(verdict)
