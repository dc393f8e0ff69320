"""CLI round trips against frozen output files, plus the exit-code matrix."""

import importlib.util
import json
import pathlib
import random
import signal
import subprocess
import sys

import pytest

from property_suites import (
    _random_polyhedral_stacky_fan,
    _random_stacky_fan,
    _unstable_all_cones,
    count_calls,
)
from stackyfans import polyhedral
from stackyfans.cli import _COMMANDS, MAX_RANK, _sf_json, run_command
from stackyfans.zlinalg import IntMatrix

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def _run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    (("gbeta", "--input", FIXTURES / "a1.json", "--json"), "a1_gbeta.json"),
    (("present", "--input", FIXTURES / "reduced_torsion_target.json",
      "--json", "--zeros", "3"), "present_reduced.json"),
    (("fantastack", "--input", FIXTURES / "square_cone_fantastack.json",
      "--json"), "square_fantastack.json"),
    (("iso", "--input", FIXTURES / "p1_cox_morphism.json", "--json"),
     "p1_cox_iso.json"),
    (("gms", "--input", FIXTURES / "a1.json", "--json"), "gms_a1.json"),
    (("moduli", "--input", FIXTURES / "p2_cox.json", "--json"),
     "moduli_p2_cox.json"),
    (("gerbe", "--input", FIXTURES / "reduced_torsion_target.json",
      "--zeros", "3", "--json"), "gerbe_reduced.json"),
    (("render", "--input", FIXTURES / "a1.json"), "a1_render.svg"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g for _, g in GOLDEN_CASES])
def test_golden_output(capsys, argv, golden):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / golden).read_text()


def test_every_sweep_run_matches_its_golden(monkeypatch):
    # scripts/outputs.py: every command on every fixture, text and --json,
    # with its --zeros variants; stderr names fixtures relative to the root
    spec = importlib.util.spec_from_file_location(
        "outputs_sweep", FIXTURES.parent / "scripts" / "outputs.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.chdir(FIXTURES.parent)
    got = sweep.sweep()
    want = json.loads((GOLDEN / "outputs.json").read_text(encoding="utf-8"))
    assert list(got) == list(want)
    differ = [argv for argv, result in want.items() if got[argv] != result]
    assert differ == [], (f"{len(differ)} runs differ, first {differ[0]}: "
                          f"got {got[differ[0]]}, golden {want[differ[0]]}")


def test_output_is_deterministic(capsys):
    results = []
    for _ in range(2):
        code, out, _ = _run(capsys, "gms", "--input", FIXTURES / "a1.json",
                            "--json")
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_validate_reports_rather_than_refuses(capsys):
    code, out, _ = _run(capsys, "validate", "--input",
                        FIXTURES / "overlap_invalid.json", "--json")
    assert code == 0
    assert json.loads(out)["valid"] is False


def test_other_commands_refuse_invalid_fan(capsys):
    code, out, err = _run(capsys, "gbeta", "--input",
                          FIXTURES / "overlap_invalid.json")
    assert code == 2
    assert out == ""
    assert "overlap_invalid.json" in err


def test_validate_detects_morphism_files(capsys):
    code, out, _ = _run(capsys, "validate", "--input",
                        FIXTURES / "p1_cox_morphism.json", "--json")
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize("command", ["iso", "gms-check"])
def test_morphism_requests_validate_the_morphism_once(capsys, monkeypatch, command):
    # Phi is applied once per source fan ray (three here) and never again:
    # the loader's validation and the verdict read that one table, and the
    # commuting square is one matrix product per side.  The membership tests
    # are the cone condition's and the preimages'.
    applied = []
    apply = IntMatrix.apply

    def counting_apply(m, v):
        applied.append(v)
        return apply(m, v)

    monkeypatch.setattr(IntMatrix, "apply", counting_apply)
    tested = count_calls(monkeypatch, polyhedral.cone_contains)
    code, _, err = _run(capsys, command, "--input", FIXTURES / "p2_cox_morphism.json", "--json")
    assert code == 0, err
    assert sorted(applied) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(tested) == {"iso": 25, "gms-check": 22}[command]


def test_malformed_input_names_file_and_field(capsys):
    code, _, err = _run(capsys, "gbeta", "--input", FIXTURES / "malformed.json")
    assert code == 2
    assert "malformed.json.target" in err
    assert "torsion" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "gbeta", "--input", tmp_path / "absent.json")
    assert code == 2
    assert "absent.json" in err


def test_input_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"lattice_rank": "\xe9"}')
    code, out, err = _run(capsys, "gbeta", "--input", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"{path}: cannot read input: ") and err.count("\n") == 1


def test_input_nested_too_deep(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = _run(capsys, "gbeta", "--input", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"{path}: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("dest", ["absent/report.json", "."], ids=["missing_dir", "directory"])
def test_unwritable_output(capsys, tmp_path, dest):
    dest = tmp_path / dest
    code, out, err = _run(capsys, "gbeta", "--input", FIXTURES / "a1.json", "--output", dest)
    assert (code, out) == (2, "")
    assert err.startswith(f"{dest}: cannot write output: ") and err.count("\n") == 1


def test_non_orthant_fan_gets_one_refusal(capsys):
    path = FIXTURES / "a1_variety.json"
    errs = set()
    for argv in (["present"], ["moduli"], ["gerbe", "--zeros", "1"]):
        code, out, err = _run(capsys, *argv, "--input", path)
        assert (code, out) == (2, "")
        errs.add(err)
    assert errs == {f"{path}: NotSubfanOfAffineSpace: ray (1, 2) is not a standard basis vector\n"}


def test_unknown_command(capsys):
    assert _run(capsys, "frobnicate", "--input", FIXTURES / "a1.json")[0] == 2


def test_gerbe_requires_zeros(capsys):
    code, _, err = _run(capsys, "gerbe", "--input", FIXTURES / "a1.json")
    assert code == 2
    assert "--zeros" in err


def test_render_refuses_other_ranks(capsys):
    code, _, err = _run(capsys, "render", "--input", FIXTURES / "mu2_line.json")
    assert code == 2
    assert "rank" in err


def test_output_flag_writes_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, "gbeta", "--input", FIXTURES / "a1.json",
                        "--json", "--output", dest)
    assert code == 0
    assert out == ""
    assert dest.read_text() == (GOLDEN / "a1_gbeta.json").read_text()


def test_text_mode_present(capsys):
    code, out, _ = _run(capsys, "present", "--input", FIXTURES / "a1.json")
    assert code == 0
    assert "mu_2" in out


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "stackyfans.cli", "gbeta", "--input",
         str(FIXTURES / "a1.json"), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "a1_gbeta.json").read_text()


def test_fan_with_no_cones_removes_everything(capsys, tmp_path):
    # the empty set is the one primitive collection: both readings agree
    # that V() = A^2 is removed, so the stack is empty
    path = tmp_path / "empty_fan.json"
    path.write_text(json.dumps({"lattice_rank": 2, "fan": {"maximal_cones": []},
                                "target": {"rank": 1, "torsion": []},
                                "beta_images": [[1], [1]]}))
    code, out, _ = _run(capsys, "present", "--input", path, "--json")
    assert code == 0
    assert json.loads(out)["removed_locus"] == [[]]
    code, out, _ = _run(capsys, "present", "--input", path)
    assert code == 0
    assert out == "[(A^2 - A^2) / G_m] with weights 1, -1\n"
    code, out, _ = _run(capsys, "moduli", "--input", path, "--json")
    assert code == 0
    assert json.loads(out) == {"ambient_dim": 2, "linear_relations": [[1, 1]],
                               "intersection_relations": [[]],
                               "forced_zero_sections": []}
    code, out, _ = _run(capsys, "moduli", "--input", path)
    assert code == 0
    assert out == ("2 sections\ndegree relation [1, 1]\n"
                   "never all zero: (empty set, so no point exists)\n")


def test_gms_condition_ii_reports_no_fan(capsys):
    # the line with a doubled origin: both rays map onto one ray, which has
    # no single preimage cone, so no moduli fan is reported
    code, out, err = _run(capsys, "gms", "--input", FIXTURES / "nonseparated.json", "--json")
    assert (code, err) == (0, "")
    assert out == ('{"verdict":false,"failing_condition":"(ii)","tau":[],"gms":null,'
                   '"Phi_images":null,"phi_images":null}\n')


def _shuffled(doc, rng):
    """doc with the cones of every fan, and the rays inside each cone, shuffled."""
    if not isinstance(doc, dict):
        return doc
    out = {k: _shuffled(v, rng) for k, v in doc.items()}
    cones = out.get("maximal_cones")
    if isinstance(cones, list):
        cones = [rng.sample(c, len(c)) if isinstance(c, list) else c for c in cones]
        out["maximal_cones"] = rng.sample(cones, len(cones))
    return out


def _reports(capsys, path):
    """Exit code, stdout and stderr of every command on one file, text and JSON."""
    out = []
    for cmd in _COMMANDS:
        zeros = [(), ("--zeros", "1")] if cmd in ("present", "moduli", "gerbe") else [()]
        for flags in [z + j for z in zeros for j in ((), ("--json",))]:
            code, stdout, stderr = _run(capsys, cmd, "--input", path, *flags)
            out.append((cmd, flags, code, stdout, stderr.replace(str(path), "INPUT")))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_reports_do_not_depend_on_input_order(capsys, tmp_path, seed):
    rng = random.Random(seed)
    moved = 0
    for fixture in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(fixture.read_text())
        shuffled = _shuffled(doc, rng)
        moved += shuffled != doc
        path = tmp_path / fixture.name
        path.write_text(json.dumps(shuffled))
        assert _reports(capsys, path) == _reports(capsys, fixture), fixture.name
    assert moved >= 10


def test_unstable_listing_matches_all_cones_reference(capsys, tmp_path):
    rng = random.Random(37)
    path = tmp_path / "sf.json"
    several = 0
    for i in range(400):
        sf = (_random_stacky_fan if i % 2 else _random_polyhedral_stacky_fan)(rng)
        path.write_text(json.dumps(_sf_json(sf)))
        code, out, err = _run(capsys, "unstable", "--input", path, "--json")
        assert code == 0, err
        unstable, tau = _unstable_all_cones(sf)
        assert json.loads(out) == {
            "unstable_cones": [[list(r) for r in c.rays] for c in unstable],
            "unique_maximal": tau is not None,
            "tau": [list(r) for r in tau.rays] if tau is not None else None}, sf
        several += tau is None
    assert several >= 20


@pytest.mark.parametrize("images", [[[2, 2], [2, -3], [4, 4]], [[-4], [-1], [-1]]])
def test_gerbe_refuses_relations_that_do_not_split(capsys, tmp_path, images):
    # the full cone of A^3 with zeros 1,2: the stabilizer has order 10 in the
    # first case and rank 1 in the second, which no band with one factor per
    # coordinate describes
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps({
        "lattice_rank": 3, "fan": {"maximal_cones": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
        "target": {"rank": len(images[0]), "torsion": []}, "beta_images": images}))
    code, out, err = _run(capsys, "gerbe", "--input", path, "--zeros", "1,2")
    assert (code, out) == (2, "")
    assert "PreconditionViolated" in err


def _alarm(signum, frame):
    raise TimeoutError("the request did not fail fast")


HUGE = 10 ** 30


@pytest.mark.parametrize("command,doc", [
    ("unstable", {"lattice_rank": 0, "fan": {"maximal_cones": [[]]},
                  "target": {"rank": HUGE, "torsion": []}, "beta_images": []}),
    ("gms", {"lattice_rank": 0, "fan": {"maximal_cones": [[]]},
             "target": {"rank": HUGE, "torsion": []}, "beta_images": []}),
    ("cox", {"lattice_rank": HUGE, "fan": {"maximal_cones": [[]]}}),
])
def test_huge_rank_fields_fail_fast(capsys, tmp_path, command, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(2)
    try:
        code, out, err = _run(capsys, command, "--input", path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert f"exceeds the limit {MAX_RANK}" in err


@pytest.mark.parametrize("command,doc,field", [
    ("cox", {"lattice_rank": -1, "fan": {"maximal_cones": [[]]}}, "lattice_rank"),
    ("fantastack", {"lattice_rank": -1, "fan": {"maximal_cones": [[]]},
                    "beta_images": []}, "lattice_rank"),
    ("gbeta", {"lattice_rank": -1, "fan": {"maximal_cones": [[]]},
               "target": {"rank": 0, "torsion": []}, "beta_images": []}, "lattice_rank"),
    ("gbeta", {"lattice_rank": 0, "fan": {"maximal_cones": [[]]},
               "target": {"rank": -1, "torsion": []}, "beta_images": []}, "rank"),
])
def test_negative_rank_fields_are_malformed(capsys, tmp_path, command, doc, field):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, "--input", path)
    assert (code, out) == (2, "")
    assert f"field '{field}' must be nonnegative" in err
