"""End-to-end checks of the command-line surface."""

from __future__ import annotations

import json

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


def test_bad_factor_spec_is_one_error_line(tmp_path, capsys):
    for spec in ("{bad", str(tmp_path / "nofile.json")):
        code, out, err = run_cli(capsys, "eval", "--left", spec, "G:1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "suite", "core", "--left", '{"type": "cyclc"}')
    assert (code, out) == (2, "")
    assert err == "error: unknown group kind 'cyclc'\n"


def test_lef_check_rejects_bad_sample_counts(capsys):
    for mode in ("sample:x", "sample:0", "sample:-3"):
        code, out, err = run_cli(capsys, "lef", "check", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad mode") and err.count("\n") == 1


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


def test_suite_only_runs_just_the_named_check(capsys, monkeypatch):
    from gluedprod import suites

    def never(cfg):
        raise AssertionError("a check outside --only ran")

    monkeypatch.setitem(suites._SUITES["core"], "inverse-law", never)
    code, out, _ = run_cli(capsys, "suite", "core", "--only", "residual-parity",
                           "--budget", "20")
    assert code == 0
    assert out.strip() == "ok   core.residual-parity  20 products even"
