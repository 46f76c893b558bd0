from __future__ import annotations

import os

import pytest

from mer.cli import main
from mer.syntax import parse

from conftest import DOUBLER_SRC, GENERALISED_SRC, defs_of


GENERALISED_DEFS = {
    "f(X, Y) -> begin X * Y() end.",
    "f(X) -> f(X, fun() -> 2 end).",
    "g(X) -> f(X + 1).",
}


@pytest.fixture
def l1(tmp_path):
    p = tmp_path / "l1.mer"
    p.write_text(DOUBLER_SRC)
    return p


@pytest.fixture
def l2(tmp_path):
    p = tmp_path / "l2.mer"
    p.write_text(GENERALISED_SRC)
    return p


# ---------------------------------------------------------------------------
# check


def test_check_lists_functions(l1, capsys):
    assert main(["check", str(l1)]) == 0
    assert capsys.readouterr().out == "f/1\ng/1\n"


def test_check_duplicate_exits_2(tmp_path, capsys):
    p = tmp_path / "dup.mer"
    p.write_text("f(X) -> X.\nf(Y) -> Y.\n")
    assert main(["check", str(p)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_check_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.mer"
    p.write_text("")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out == ""


def test_check_non_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "latin.mer"
    p.write_bytes(b"f(X) -> \xff.\n")
    assert main(["check", str(p)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_parse_error_position(tmp_path, capsys):
    p = tmp_path / "bad.mer"
    p.write_text("f(X) -> .\n")
    assert main(["check", str(p)]) == 2
    assert "1:9" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# refactor generalise


def test_generalise_by_position(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--pos", "1:19",
                 "--param", "Y"]) == 0
    out = capsys.readouterr().out
    assert defs_of(parse(out)) == GENERALISED_DEFS


def test_generalise_occurrence_below_one_exits_2(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--expr", "2",
                 "--occurrence", "0", "--param", "Y"]) == 2
    assert "--occurrence" in capsys.readouterr().err


def test_generalise_by_expression_text(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--expr", "2",
                 "--occurrence", "1", "--param", "Y"]) == 0
    out = capsys.readouterr().out
    assert defs_of(parse(out)) == GENERALISED_DEFS


def test_generalise_addressing_modes_agree(l1, capsys):
    main(["refactor", "generalise", str(l1), "--pos", "1:19", "--param", "Y"])
    by_pos = capsys.readouterr().out
    main(["refactor", "generalise", str(l1), "--expr", "2", "--param", "Y"])
    by_text = capsys.readouterr().out
    assert by_pos == by_text


def test_generalise_requires_one_addressing_mode(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--pos", "1:19",
                 "--expr", "2", "--param", "Y"]) == 2
    assert main(["refactor", "generalise", str(l1), "--param", "Y"]) == 2


def test_generalise_clash_names_step_and_keeps_file(tmp_path, capsys):
    p = tmp_path / "clash.mer"
    src = "f(X) -> begin X * 2 end.\ng(X) -> f(X+1).\nf(A, B) -> A.\n"
    p.write_text(src)
    code = main(["refactor", "generalise", str(p), "--pos", "1:19",
                 "--param", "Y", "--write"])
    err = capsys.readouterr().err
    assert code == 1
    assert "rename_function" in err
    assert "signature_clash" in err
    assert p.read_text() == src  # untouched even with --write


def test_step_write_keeps_file_mode(l1, capsys):
    os.chmod(l1, 0o644)
    assert main(["refactor", "step", "wrap", str(l1), "--pos", "1:19",
                 "--write"]) == 0
    assert "(fun() -> 2 end)()" in l1.read_text()
    assert os.stat(l1).st_mode & 0o777 == 0o644


def test_generalise_write_in_place(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--pos", "1:19",
                 "--param", "Y", "--write"]) == 0
    assert capsys.readouterr().out == ""
    assert defs_of(parse(l1.read_text())) == GENERALISED_DEFS
    # no stray temp files
    assert [f for f in os.listdir(l1.parent) if f.startswith(".mer-")] == []


def test_generalise_trace_blocks(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--pos", "1:19",
                 "--param", "Y", "--trace"]) == 0
    err = capsys.readouterr().err
    headers = [line for line in err.splitlines() if line.startswith("### step")]
    assert len(headers) == 6
    assert headers[0].startswith("### step 1 wrap")
    assert headers[5].startswith("### step 6 rename_function")


def test_generalise_target_position_outside(l1, capsys):
    assert main(["refactor", "generalise", str(l1), "--pos", "9:1",
                 "--param", "Y"]) == 2


# ---------------------------------------------------------------------------
# refactor step


def test_step_wrap(l1, capsys):
    assert main(["refactor", "step", "wrap", str(l1), "--pos", "1:19"]) == 0
    out = capsys.readouterr().out
    assert "begin X * (fun() -> 2 end)() end" in out


def test_step_extract_to_variable(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("tmp(X) -> begin X * (fun() -> 2 end)() end.\n")
    assert main(["refactor", "step", "extract_to_variable", str(p),
                 "--expr", "fun() -> 2 end", "--name", "Y"]) == 0
    assert capsys.readouterr().out == \
        "tmp(X) -> Y = fun() -> 2 end, begin X * Y() end.\n"


def test_step_extract_to_function(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("f(X) -> X + 1.\n")
    assert main(["refactor", "step", "extract_to_function", str(p),
                 "--expr", "X + 1", "--name", "add1", "--params", "X"]) == 0
    assert defs_of(parse(capsys.readouterr().out)) == {
        "f(X) -> add1(X).", "add1(X) -> X + 1."}


def test_step_var_to_param(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("tmp(X) -> Y = 1, X + Y.\n")
    assert main(["refactor", "step", "var_to_param", str(p),
                 "--expr", "Y = 1"]) == 0
    assert capsys.readouterr().out == "tmp(X, Y) -> X + Y.\n"


def test_step_rename_function(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("f(X) -> X.\ng(X) -> f(X).\n")
    assert main(["refactor", "step", "rename_function", str(p),
                 "--fun", "f/1", "--to", "h"]) == 0
    assert capsys.readouterr().out == "h(X) -> X.\ng(X) -> h(X).\n"


def test_step_outer_variable(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("f(X) -> G = fun() -> Y = 1, X + Y end, G().\n")
    assert main(["refactor", "step", "outer_variable", str(p),
                 "--expr", "Y = 1"]) == 0
    assert capsys.readouterr().out == \
        "f(X) -> Y = 1, G = fun() -> Y, X + Y end, G().\n"


def test_step_failure_exit_1(tmp_path, capsys):
    p = tmp_path / "m.mer"
    p.write_text("f() -> Y = 5, Y + 1.\n")
    assert main(["refactor", "step", "wrap", str(p), "--expr", "Y = 5"]) == 1
    assert "non_bind" in capsys.readouterr().err


def test_generalise_injected_failure_hook(l1, capsys):
    code = main(["refactor", "generalise", str(l1), "--pos", "1:19",
                 "--param", "Y", "--fail-at-step", "4", "--write"])
    err = capsys.readouterr().err
    assert code == 1
    assert "injected" in err
    assert l1.read_text() == DOUBLER_SRC


# ---------------------------------------------------------------------------
# verify


def test_verify_equivalent(l1, l2, capsys):
    code = main(["verify", str(l1), str(l2), "--entry", "f/1", "--entry", "g/1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("verdict=equivalent\n")


def test_verify_inequivalent_with_witness(l1, tmp_path, capsys):
    p = tmp_path / "mut.mer"
    p.write_text("f(X) -> begin X * 3 end.\ng(X) -> f(X+1).\n")
    code = main(["verify", str(l1), str(p), "--entry", "f/1", "--entry", "g/1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("verdict=inequivalent\n")
    assert "entry=" in out and "args=" in out


def test_verify_unknown_on_tiny_fuel(l1, l2, capsys):
    code = main(["verify", str(l1), str(l2), "--entry", "f/1", "--fuel", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.startswith("verdict=unknown\n")


def test_verify_plan_error(l1, tmp_path, capsys):
    p = tmp_path / "other.mer"
    p.write_text("h(X) -> X.\n")
    assert main(["verify", str(l1), str(p), "--entry", "f/1"]) == 2


def test_verify_seed_determinism(l1, l2, capsys):
    main(["verify", str(l1), str(l2), "--entry", "f/1", "--seed", "9"])
    first = capsys.readouterr().out
    main(["verify", str(l1), str(l2), "--entry", "f/1", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_zero_trials_exits_2(l1, l2, capsys):
    code = main(["verify", str(l1), str(l2), "--entry", "f/1", "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "at least one trial" in captured.err
