"""End-to-end checks of the command-line surface."""

from __future__ import annotations

import hashlib
import json
import shlex

import pytest

from gluedprod import finite
from gluedprod.cli import main


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_examples(capsys):
    code, out, _ = run_cli(capsys, "eval", "G:1 H:1 G:-1 H:-1")
    assert code == 0
    assert out.strip() == "g=0 h=0 a=(e g:1 h:1)"
    code, out, _ = run_cli(capsys, "eval", "")
    assert out.strip() == "g=0 h=0 a=()"
    code, out, _ = run_cli(capsys, "eval", "G:2 G:3")
    assert out.strip() == "g=5 h=0 a=()"


def test_eval_parse_error(capsys):
    code, _, err = run_cli(capsys, "eval", "X:1")
    assert code == 2
    assert "position" in err


def test_cycle_errors_print_point_text_forms(capsys):
    for word, message in (("PERM:(g:1 g:1)", "repeated point in cycle (g:1 g:1)"),
                          ("PERM:(g:1 h:2)(e h:2)", "point h:2 appears in two cycles")):
        code, out, err = run_cli(capsys, "eval", word)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


def test_eval_regime_error_surfaced(capsys):
    code, _, err = run_cli(
        capsys, "eval",
        "--left", '{"type": "cyclic", "n": 2}',
        "--right", '{"type": "cyclic", "n": 3}',
        "G:1",
    )
    assert code == 2
    assert "finite" in err


def test_classify_output(capsys):
    code, out, _ = run_cli(
        capsys, "classify",
        "--left", '{"type": "cyclic", "n": 4}',
        "--right", '{"type": "cyclic", "n": 3}',
        "--verify",
    )
    assert code == 0
    assert out.strip() == "Sym(6) order=720 verified"
    code, out, _ = run_cli(
        capsys, "classify",
        "--left", '{"type": "cyclic", "n": 3}',
        "--right", '{"type": "cyclic", "n": 3}',
    )
    assert out.strip() == "Alt(5)"


def test_classify_from_file(tmp_path, capsys):
    spec = tmp_path / "z2.json"
    spec.write_text('{"type": "cyclic", "n": 2}')
    code, out, _ = run_cli(capsys, "classify", "--left", str(spec),
                           "--right", str(spec))
    assert code == 0
    assert out.strip() == "Sym(3)"


def test_cube_ball_jsonl(capsys):
    code, out, _ = run_cli(capsys, "cube", "ball", "--radius", "1",
                           "--payload-bound", "1", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 6
    assert {"removed", "added", "s"} == set(records[0])
    assert sorted(r["s"] for r in records) == [-1, -1, -1, 0, 1, 1]


def test_cube_ball_dot(capsys):
    code, out, _ = run_cli(capsys, "cube", "ball", "--radius", "1",
                           "--payload-bound", "1")
    assert code == 0
    assert out.startswith("graph cube {")
    assert 'label="s=0"' in out
    assert "--" in out


@pytest.mark.parametrize("argv, message", [
    (("--radius", "-1"), "ball radius must be at least 0, got -1"),
    (("--radius", "1", "--payload-bound", "-2"), "payload bound must be at least 0, got -2"),
])
def test_cube_ball_rejects_negative_sizes(capsys, argv, message):
    code, out, err = run_cli(capsys, "cube", "ball", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_cube_ball_payload_bound_zero_is_not_the_radius(capsys):
    code, out, _ = run_cli(capsys, "cube", "ball", "--radius", "1",
                           "--payload-bound", "0", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records == [{"added": [], "removed": [], "s": 0},
                       {"added": [], "removed": ["e"], "s": -1}]


def test_cube_ball_over_the_vertex_cap_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "cube", "ball", "--radius", "6")
    assert (code, out) == (2, "")
    assert err == "error: 245506 vertices exceed the cap of 100000\n"


@pytest.mark.parametrize("argv, message", [
    (("cube", "ball", "--radius", "0", "--payload-bound", "100000"),
     "ball of radius 100000 in lattice(2) exceeds cap 1000000"),
    (("folner", "--n", "3000", "--test", "G:1,0"),
     "Folner box of radius 3000 in lattice(2) exceeds cap 1000000"),
])
def test_a_lattice_over_the_cap_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--left", '{"type":"lattice","d":2}')
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_cube_transport(capsys):
    code, out, _ = run_cli(
        capsys, "cube", "transport",
        "--from", '{"removed": ["g:1"]}',
        "--to", '{"removed": ["g:2"]}',
    )
    assert code == 0
    assert out.strip().startswith("g=0 h=0 a=")
    code, _, err = run_cli(
        capsys, "cube", "transport",
        "--from", '{"removed": []}',
        "--to", '{"removed": ["e"]}',
    )
    assert code == 2
    assert "fiber" in err or "s=" in err


@pytest.mark.parametrize("vertex, message", [
    ("{bad", "malformed vertex"),
    ("[1]", "a vertex is a JSON object"),
    ('{"removed": "g:1"}', "vertex fields 'removed' and 'added' must be lists"),
])
def test_cube_transport_rejects_malformed_vertices(capsys, vertex, message):
    code, out, err = run_cli(capsys, "cube", "transport", "--from", vertex, "--to", "{}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_lef_check_report(capsys):
    code, out, _ = run_cli(capsys, "lef", "check", "-n", "1",
                           "--mode", "sample:500", "--modulus", "17")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["name"] for r in reports} == {"multiplicativity", "window-closure",
                                            "injectivity"}
    for r in reports:
        assert r["failures"] == []
        assert {"name", "pairs_checked", "failures", "wall_time"} == set(r)


def test_pong_cli(capsys):
    code, out, _ = run_cli(capsys, "pong", "--g", "1", "--h", "1", "-L", "8")
    assert code == 0
    assert "510" in out


def test_folner_cli(capsys):
    code, out, _ = run_cli(capsys, "folner", "--n", "3", "--test", "G:1")
    assert code == 0
    assert out.strip() == "2/7"
    code, out, _ = run_cli(capsys, "folner", "--n", "3", "--test", "H:4")
    assert out.strip() == "0/1"


@pytest.mark.parametrize("argv, message", [
    (("folner", "--n", "-3", "--test", "G:1"), "Folner radius must be at least 0, got -3"),
    (("pong", "--g", "1", "--h", "1", "-L", "-1"), "word length must be at least 1, got -1"),
    (("pong", "--g", "1", "--h", "1", "-L", "0"), "word length must be at least 1, got 0"),
])
def test_negative_sizes_are_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "suite", "dynamics", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "suite", "dynamics", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_jsonl_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "suite", "finite", "--seed", "3",
                             "--format", "jsonl")
    code2, out2, _ = run_cli(capsys, "suite", "finite", "--seed", "3",
                             "--format", "jsonl")
    assert out1 == out2
    for line in out1.strip().splitlines():
        assert json.loads(line)["ok"] is True


def test_suite_failure_emits_working_repro(capsys):
    code, out, _ = run_cli(capsys, "suite", "selftest")
    assert code == 1
    line = out.strip().splitlines()[0]
    assert line.startswith("FAIL selftest.always-fails")
    repro = line.split("repro:", 1)[1].strip()
    argv = repro.split()[1:]  # drop the program name
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 1
    assert "FAIL selftest.always-fails" in out2


def test_suite_unknown_name(capsys):
    code, _, err = run_cli(capsys, "suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_suite_budget_cap(capsys):
    code, out, _ = run_cli(capsys, "suite", "core", "--budget", "50")
    assert code == 0
    assert "50 samples" in out


@pytest.mark.parametrize("argv, env, message", [
    (("--budget", "0"), None, "--budget must be an integer of at least 1, got 0"),
    (("--budget", "-5"), None, "--budget must be an integer of at least 1, got -5"),
    ((), "abc", "PV_BUDGET must be an integer of at least 1, got abc"),
    ((), "0", "PV_BUDGET must be an integer of at least 1, got 0"),
    ((), "2.5", "PV_BUDGET must be an integer of at least 1, got 2.5"),
])
def test_suite_rejects_a_budget_below_one(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("PV_BUDGET", env)
    code, out, err = run_cli(capsys, "suite", "core", "--only", "projection-monolith", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_suite_budget_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("PV_BUDGET", "20")
    code, out, _ = run_cli(capsys, "suite", "core", "--only", "residual-parity")
    assert code == 0
    assert out.strip() == "ok   core.residual-parity  20 products even"


def test_bad_factor_spec_is_one_error_line(tmp_path, capsys):
    for spec in ("{bad", str(tmp_path / "nofile.json")):
        code, out, err = run_cli(capsys, "eval", "--left", spec, "G:1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "suite", "core", "--left", '{"type": "cyclc"}')
    assert (code, out) == (2, "")
    assert err == "error: unknown group kind 'cyclc'\n"


@pytest.mark.parametrize("spec", [
    '{"type":"table","table":[1,2]}',
    '{"type":"table","table":null}',
    '{"type":"table","table":[[0,1],[1,0.0]]}',
    '{"type":"cyclic","n":true}',
])
def test_malformed_factor_spec_is_one_error_line(capsys, spec):
    code, out, err = run_cli(capsys, "eval", "--right", spec, "G:0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_lef_check_rejects_bad_sample_counts(capsys):
    for mode in ("sample:x", "sample:0", "sample:-3"):
        code, out, err = run_cli(capsys, "lef", "check", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad mode") and err.count("\n") == 1


def test_lef_check_rejects_a_radius_below_one(capsys):
    for n in ("-1", "0"):
        code, out, err = run_cli(capsys, "lef", "check", "-n", n)
        assert (code, out) == (2, "")
        assert err == f"error: the window radius n must be at least 1, got {n}\n"


def test_classify_verify_refuses_more_points_than_the_cap(capsys):
    code, out, err = run_cli(capsys, "classify", "--verify",
                             "--left", '{"type": "cyclic", "n": 40}',
                             "--right", '{"type": "cyclic", "n": 40}')
    assert (code, out) == (2, "")
    assert err == "error: 79 points exceeds the cap of 64\n"


def test_classify_verify_at_31_points(capsys):
    code, out, err = run_cli(capsys, "classify", "--verify",
                             "--left", '{"type": "cyclic", "n": 16}',
                             "--right", '{"type": "cyclic", "n": 16}')
    assert (code, err) == (0, "")
    assert out == "Sym(31) order=8222838654177922817725562880000000 verified\n"


def test_classify_verify_refuses_65_points_before_building(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(finite, "realize_finite", built)
    monkeypatch.setattr(finite, "schreier_sims_order", built)
    code, out, err = run_cli(capsys, "classify", "--verify",
                             "--left", '{"type": "cyclic", "n": 33}',
                             "--right", '{"type": "cyclic", "n": 33}')
    assert (code, out) == (2, "")
    assert err == "error: 65 points exceeds the cap of 64\n"


def test_suite_reports_inapplicable_checks_as_skipped(capsys):
    factors = ("--left", '{"type":"free","rank":2}', "--right", '{"type":"cyclic","n":3}')
    code, out, _ = run_cli(capsys, "suite", "dynamics", *factors)
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split("  ")[0] for line in lines] == [
        "skip dynamics.folner-ratios", "skip dynamics.pong-catalog"]
    assert lines[0] == "skip dynamics.folner-ratios  no Folner scheme registered for kind 'free'"
    code, out, _ = run_cli(capsys, "suite", "dynamics", *factors, "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [sorted(r) for r in records] == [["check", "detail", "skipped"]] * 2
    assert all(r["skipped"] is True for r in records)


@pytest.mark.parametrize("argv, line", [
    (["--right", '{"type":"cyclic","n":2}'],
     "skip core.residual-parity  odd residuals are elements: the finite factor "
     "has a nontrivial cyclic 2-Sylow"),
    (["--right", '{"type":"cyclic","n":3}'], "ok   core.residual-parity  2000 products even"),
    ([], "ok   core.residual-parity  2000 products even"),
])
def test_residual_parity_applies_only_where_residuals_are_even(capsys, argv, line):
    code, out, _ = run_cli(capsys, "suite", "core", "--seed", "42",
                           "--only", "residual-parity", *argv)
    assert (code, out) == (0, line + "\n")


def test_suite_only_runs_just_the_named_check(capsys, monkeypatch):
    from gluedprod import suites

    def never(cfg):
        raise AssertionError("a check outside --only ran")

    monkeypatch.setitem(suites._SUITES["core"], "inverse-law", never)
    code, out, _ = run_cli(capsys, "suite", "core", "--only", "residual-parity",
                           "--budget", "20")
    assert code == 0
    assert out.strip() == "ok   core.residual-parity  20 products even"


def test_suite_only_with_no_such_check_is_one_error_line(capsys):
    for suite in ("lef", "all"):
        code, out, err = run_cli(capsys, "suite", suite, "--only", "nothing")
        assert (code, out) == (2, "")
        assert err == f"error: no check 'nothing' in suite {suite!r}\n"


# SHA-256 of the lef check JSON lines with wall_time dropped, recorded
# before phi was computed lazily in sample mode; the Z^3 x Z and the
# modulus-31 Z^2 x Z digests were recorded while (Z/m)^d was still a table
LEF_CHECK_DIGESTS = [
    (("-n", "1", "--modulus", "17", "--mode", "sample:10000"),
     "25b9e9952713126561868e22149d576b1eaa1f6e60548c2929d5a50ea662af5a"),
    (("-n", "1", "--left", '{"type":"lattice","d":2}', "--modulus", "9",
      "--mode", "sample:2000"),
     "0c150718a8c07132c53f32a16b96608d01a19e05d9d6168042e199ea69b093cd"),
    (("-n", "1", "--left", '{"type":"lattice","d":3}', "--mode", "sample:500"),
     "b8501741b046b4a72b3fa56060f9a14be01f8bfa1ed369713f21198ebac42799"),
    (("-n", "1", "--left", '{"type":"lattice","d":2}', "--modulus", "31",
      "--mode", "sample:500"),
     "b8501741b046b4a72b3fa56060f9a14be01f8bfa1ed369713f21198ebac42799"),
]


@pytest.mark.parametrize("argv, digest", LEF_CHECK_DIGESTS)
def test_lef_check_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "lef", "check", *argv)
    assert code == 0
    lines = []
    for line in out.splitlines():
        record = json.loads(line)
        del record["wall_time"]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


def test_lef_check_refuses_a_quotient_over_the_cap(capsys):
    code, out, err = run_cli(capsys, "lef", "check", "-n", "1", "--left",
                             '{"type":"lattice","d":7}', "--mode", "sample:20")
    assert (code, out) == (2, "")
    assert err == "error: 4782969 quotient elements exceed the cap of 1000000\n"


def test_lef_check_on_a_z4_factor(capsys):
    code, out, _ = run_cli(capsys, "lef", "check", "-n", "1", "--left",
                           '{"type":"lattice","d":4}', "--mode", "sample:20")
    assert code == 0
    assert [json.loads(line)["pairs_checked"] for line in out.splitlines()] == [20, 20, 20]


def test_suite_repro_carries_the_factors_and_budget(capsys):
    argv = ("suite", "selftest", "--left", '{"type":"lattice","d":2}', "--budget", "7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    line = out.strip().splitlines()[0]
    repro = line.split("repro:", 1)[1].strip()
    assert "--left" in repro and "--budget 7" in repro and "--right" not in repro
    code2, out2, _ = run_cli(capsys, *shlex.split(repro)[1:])
    assert code2 == 1
    assert out2.strip() == line


def test_suite_repro_takes_the_budget_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("PV_BUDGET", "3")
    code, out, _ = run_cli(capsys, "suite", "selftest")
    assert code == 1
    assert out.strip().endswith(
        "repro: gluedprod suite selftest --seed 42 --only always-fails --budget 3")


@pytest.mark.parametrize("order", [2, 3])
def test_mixed_multiplicativity_samples_over_the_pair_budget(capsys, order):
    check = f"mixed-z{order}-multiplicativity"
    code, out, _ = run_cli(capsys, "suite", "lef", "--seed", "5", "--only", check,
                           "--left", '{"type":"lattice","d":2}')
    assert (code, out) == (0, f"ok   lef.{check}  10000 checks\n")


@pytest.mark.parametrize("from_env", [False, True])
def test_mixed_checks_honour_the_case_budget(capsys, monkeypatch, from_env):
    monkeypatch.delenv("PV_BUDGET", raising=False)
    if from_env:
        monkeypatch.setenv("PV_BUDGET", "50")
    code, out, _ = run_cli(capsys, "suite", "lef", *(() if from_env else ("--budget", "50")))
    mixed = [line for line in out.splitlines() if "lef.mixed-" in line]
    assert code == 0 and len(mixed) == 4
    assert all(line.endswith("  50 checks") for line in mixed)


def test_mixed_checks_without_a_budget_walk_every_pair(capsys, monkeypatch):
    monkeypatch.delenv("PV_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "suite", "lef")
    mixed = [line.split()[1:] for line in out.splitlines() if "lef.mixed-" in line]
    assert (code, mixed) == (0, [
        ["lef.mixed-z2-multiplicativity", "5184", "checks"],
        ["lef.mixed-z2-injectivity", "10000", "checks"],
        ["lef.mixed-z3-multiplicativity", "32400", "checks"],
        ["lef.mixed-z3-injectivity", "10000", "checks"],
    ])


def test_lef_check_multiplies_each_pair_once(capsys, monkeypatch):
    from gluedprod import PvContext

    calls = 0
    original = PvContext.multiply

    def counting(self, s1, s2):
        nonlocal calls
        calls += 1
        return original(self, s1, s2)

    monkeypatch.setattr(PvContext, "multiply", counting)
    code, out, _ = run_cli(capsys, "lef", "check", "-n", "1", "--modulus", "17",
                           "--mode", "sample:200")
    assert code == 0 and len(out.splitlines()) == 3
    assert calls == 200


# SHA-256 of `gluedprod suite all --seed 42 --format jsonl` without a case
# budget, recorded before the two lef pair checks shared one walk
SUITE_ALL_DIGEST = "9a8e15253caafca2415201bb527d3435b07c658aad05a1e2aa1d605ccfcc567e"


def test_suite_all_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("PV_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "suite", "all", "--seed", "42", "--format", "jsonl")
    assert code == 0 and len(out.splitlines()) == 26
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_ALL_DIGEST


@pytest.mark.parametrize("spec", ['{"type":"cyclic","n":1}', '{"type":"table","table":[[0]]}'])
def test_suite_all_skips_what_a_trivial_factor_cannot_sample(capsys, monkeypatch, spec):
    """With a trivial right factor the commutator and Folner checks have no
    element to draw, and the cube checks refuse the mixed context before
    they draw a vertex: each is skipped, none raises."""
    monkeypatch.delenv("PV_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "suite", "all", "--right", spec)
    assert code == 0 and "Traceback" not in err
    skipped = {line.split()[1] for line in out.splitlines() if line.startswith("skip ")}
    assert {"core.commutator-identity", "cube.s-invariance", "cube.action-compatibility",
            "cube.transporter", "dynamics.folner-ratios"} <= skipped


# SHA-256 of `gluedprod suite all --seed 7 --right '{"type":"cyclic","n":3}'`,
# recorded before the cube checks refused a mixed context ahead of drawing
MIXED_SUITE_ALL_DIGEST = "48b254fce8d8ea346b8020943113d38b25f1d382b9d9640178a3fabf8be6ca31"


def test_mixed_suite_all_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("PV_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "suite", "all", "--seed", "7",
                           "--right", '{"type":"cyclic","n":3}')
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MIXED_SUITE_ALL_DIGEST
    for name in ("s-invariance", "action-compatibility", "transporter"):
        assert f"skip cube.{name}  the cubical complex is built over two infinite factors\n" in out


# SHA-256 of `PV_BUDGET=300 gluedprod suite lef --seed 5` on two lattice
# factors, recorded when sample mode still built all 4,536,000 elements of
# F_1, over every line but the two mixed injectivity ones, which then drew
# 10^4 samples whatever the budget
LATTICE_SUITE_DIGEST = "ceafd80f3142d7f61b6d1bd7b6d0401497a659a3d10de712adff2fe4f1b628e9"


def test_lattice_suite_decodes_its_samples(capsys, monkeypatch):
    from gluedprod import lef

    def refuse(ctx, n):
        raise AssertionError("sample mode enumerated F_n")

    monkeypatch.setattr(lef, "window_elements", refuse)
    monkeypatch.setenv("PV_BUDGET", "300")
    lattice = '{"type":"lattice","d":2}'
    code, out, _ = run_cli(capsys, "suite", "lef", "--seed", "5",
                           "--left", lattice, "--right", lattice)
    assert code == 0
    lines = out.splitlines(keepends=True)
    injectivity = [line for line in lines if "-injectivity" in line and "mixed" in line]
    assert injectivity == ["ok   lef.mixed-z2-injectivity  300 checks\n",
                           "ok   lef.mixed-z3-injectivity  300 checks\n"]
    rest = [line for line in lines if line not in injectivity]
    assert hashlib.sha256("".join(rest).encode()).hexdigest() == LATTICE_SUITE_DIGEST


@pytest.mark.parametrize("factors", [(), ("--left", '{"type":"lattice","d":2}')])
def test_lef_check_samples_the_radius_two_window(capsys, factors):
    code, out, _ = run_cli(capsys, "lef", "check", "-n", "2", "--mode", "sample:200", *factors)
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [(r["name"], r["pairs_checked"], r["failures"]) for r in reports] == [
        ("multiplicativity", 200, []), ("window-closure", 200, []), ("injectivity", 200, [])]
