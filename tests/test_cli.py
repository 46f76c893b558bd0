from __future__ import annotations

import argparse
import gc
import os
import random
import sys
import time
from collections import Counter

import pytest

from mer import cli
from mer.analysis import FunKey
from mer.cli import main
from mer.equiv import Inequivalent, TrialPlan, check_module_equiv, gen_module
from mer.syntax import MAX_NESTING, parse, pretty

from conftest import DOUBLER_SRC, GENERALISED_SRC, defs_of
from test_syntax import _mutant


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


def test_check_non_decimal_digit_exits_2(tmp_path, capsys):
    # str.isdigit accepts '²' but int() does not: it is no decimal digit
    p = tmp_path / "sup.mer"
    p.write_text("f() -> \u00b2.\n", encoding="utf-8")
    assert main(["check", str(p)]) == 2
    assert "1:8: unexpected character '\u00b2'" in capsys.readouterr().err


_INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _INT_DIGITS_LIMIT < 5000,
                    reason="this interpreter converts a 5,000-digit literal")
def test_check_overlong_literal_exits_2(tmp_path, capsys):
    p = tmp_path / "long.mer"
    p.write_text("f() -> 1 + " + "9" * 5000 + ".\n")
    assert main(["check", str(p)]) == 2
    assert "1:12: integer literal of 5000 digits is too long" in capsys.readouterr().err


def test_check_deep_nesting_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.mer"
    p.write_text("f(X) -> " + "(" * 3000 + "X" + ")" * 3000 + ".\n")
    assert main(["check", str(p)]) == 2
    # the body starts at column 9; its level MAX_NESTING + 1 is the first too deep
    err = capsys.readouterr().err
    assert f"1:{9 + MAX_NESTING}: nesting deeper than {MAX_NESTING} levels" in err


def test_check_long_left_chain_parses(tmp_path, capsys):
    p = tmp_path / "chain.mer"
    p.write_text("deep(X) -> " + "X + " * 2999 + "1.\n")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out == "deep/1\n"


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


@pytest.mark.parametrize("occurrence", ["0", "1"])
def test_step_occurrence_without_expr_exits_2(l1, capsys, occurrence):
    assert main(["refactor", "step", "wrap", str(l1), "--pos", "1:19",
                 "--occurrence", occurrence]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--expr" in captured.err
    assert l1.read_text() == DOUBLER_SRC


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


@pytest.mark.parametrize("src, step, message", [
    # h(Y) would read Y before it is bound
    ("f(X) -> print(1), Y = X, Y + 1.\n",
     ["extract_to_function", "--pos", "1:9", "--name", "h", "--params", "Y"],
     "mer: precondition bound violated (f/1: Y)"),
    # f's call to g/0 would reach the renamed h/0
    ("f() -> g().\nh() -> 1.\n", ["rename_function", "--fun", "h/0", "--to", "g"],
     "mer: precondition signature_clash violated (g/0 already called)"),
], ids=["unbound-parameter", "called-key"])
def test_step_that_would_change_behaviour_is_refused(tmp_path, capsys, src, step, message):
    p = tmp_path / "m.mer"
    p.write_text(src)
    assert main(["refactor", "step", step[0], str(p), *step[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == message


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
    assert headers == [
        "### step 1 wrap",
        "### step 2 function_part",
        "### step 3 extract_to_function tmp, (X)",
        "### step 4 extract_to_variable Y",
        "### step 5 to_function_parameter",
        "### step 6 rename_function f",
    ]


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


@pytest.mark.parametrize("keyword", ["print", "begin", "end", "fun", "div"])
@pytest.mark.parametrize("step", ["rename_function", "extract_to_function"])
def test_step_rejects_a_keyword_as_function_name(l1, capsys, step, keyword):
    # the lexer reads a keyword, so a function of that name could not be parsed
    how = (["--fun", "f/1", "--to", keyword] if step == "rename_function"
           else ["--pos", "1:15", "--name", keyword, "--params", "X"])
    assert main(["refactor", "step", step, str(l1), *how]) == 1
    err = capsys.readouterr().err
    assert f"not applicable: invalid function name {keyword!r}" in err
    assert "Traceback" not in err


DEEP_DEF = "deep(X) -> " + "X + " * 2999 + "1."  # 3,000 levels deep


@pytest.mark.parametrize("command,options", [
    (["refactor", "step", "wrap"], ["--pos", "1:15"]),
    (["refactor", "step", "extract_to_variable"], ["--pos", "1:19", "--name", "Y"]),
    (["refactor", "step", "rename_function"], ["--fun", "f/1", "--to", "h"]),
    (["refactor", "generalise"], ["--pos", "1:19", "--param", "Y"]),
], ids=["wrap", "extract_to_variable", "rename_function", "generalise"])
def test_step_next_to_a_deep_definition(tmp_path, capsys, command, options):
    # the step touches f/1 only; deep/1 is neither walked nor rebuilt, and
    # is printed back as it was read
    p = tmp_path / "m.mer"
    p.write_text("f(X) -> begin X * 2 end.\n" + DEEP_DEF + "\n")
    assert main([*command, str(p), *options]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    parse(out)
    assert DEEP_DEF in out.splitlines()


@pytest.mark.parametrize("command,deep,options", [
    (["refactor", "step", "wrap"], DEEP_DEF, ["--pos", "2:12"]),
    (["refactor", "generalise"], DEEP_DEF, ["--pos", "2:12", "--param", "Y"]),
    (["refactor", "step", "extract_to_variable"], "ones() -> " + "1 + " * 2999 + "1.",
     ["--pos", "2:11", "--name", "Y"]),
], ids=["wrap", "generalise", "extract_to_variable"])
def test_step_on_a_deep_definition(tmp_path, capsys, command, deep, options):
    # the step resolves, analyses and rebuilds the 3,000-level definition
    # itself, none of it by recursion
    p = tmp_path / "m.mer"
    p.write_text("f(X) -> begin X * 2 end.\n" + deep + "\n")
    assert main([*command, str(p), *options]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    parse(out)
    assert deep not in out.splitlines()


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


def test_verify_prints_ints_past_the_str_limit(tmp_path, capsys):
    # 14 squarings of X + 7 give results of about 15,000 digits, past the
    # 4,300 digits str() converts by default
    body = "sq(" * 14 + "X + 7" + ")" * 14
    a, b = tmp_path / "a.mer", tmp_path / "b.mer"
    a.write_text(f"sq(X) -> X * X.\np(X) -> {body}.\n")
    b.write_text(f"sq(X) -> X * X.\np(X) -> {body.replace('7', '8')}.\n")
    code = main(["verify", str(a), str(b), "--entry", "p/1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("verdict=inequivalent\n")
    value = out.partition("outcome1=ok value=")[2].split()[0]
    assert len(value) > 10_000 and value.isdigit()


def test_verify_deeply_nested_lambdas(tmp_path, capsys):
    # the closures returned are compared by structure, 199 levels deep
    body = "fun() -> " * (MAX_NESTING - 1) + "X" + " end" * (MAX_NESTING - 1)
    a, b = tmp_path / "a.mer", tmp_path / "b.mer"
    a.write_text(f"f(X) -> {body}.\n")
    b.write_text(f"% the same program\nf(X) ->\n  {body}.\n")
    code = main(["verify", str(a), str(b), "--entry", "f/1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("verdict=equivalent\n")


def test_verify_squaring_at_default_fuel_is_unknown(tmp_path, capsys):
    # each call doubles X's width; fuel alone would let it run for ever
    sq = tmp_path / "sq.mer"
    sq.write_text("f(X) -> f(X * X).\n")
    started = time.perf_counter()
    code = main(["verify", str(sq), str(sq), "--entry", "f/1", "--trials", "3"])
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert capsys.readouterr().out == "verdict=unknown\ntrials=3\ntimeouts=3\n"


def chain(n: int, shared: bool, tail: str) -> str:
    """f/1 binding A0 = X and A{i} = {A{i-1}} (or {A{i-1}, A{i-1}}) up to
    A{n-1}, then ending in tail."""
    lines = ["f(X) ->", "    A0 = X,"]
    for i in range(1, n):
        element = f"A{i - 1}, A{i - 1}" if shared else f"A{i - 1}"
        lines.append(f"    A{i} = {{{element}}},")
    return "\n".join(lines + [f"    {tail}.\n"])


@pytest.mark.parametrize("n,shared,tail,code", [
    (1500, False, "begin A1499 end", 0),
    (1500, False, "{A1499}", 1),
    (40, True, "begin A39 end", 0),
])
def test_verify_compares_deep_and_shared_values(tmp_path, capsys, n, shared, tail, code):
    a, b = tmp_path / "a.mer", tmp_path / "b.mer"
    a.write_text(chain(n, shared, f"A{n - 1}"))
    b.write_text(chain(n, shared, tail))
    assert main(["verify", str(a), str(b), "--entry", "f/1", "--trials", "5"]) == code
    out = capsys.readouterr().out
    if code == 1:  # the witness prints, 1,499 and 1,500 levels deep
        value = out.partition("outcome2=ok value=")[2].split()[0]
        assert value.strip("{}").lstrip("-").isdigit()
        assert value.startswith("{" * 1500) and value.endswith("}" * 1500)


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


def test_verify_runs_an_entry_unchanged_in_place_once_per_distinct_trial(
        tmp_path, capsys, runs):
    # g is edited; f, h and their text are unchanged in place, so f/1
    # runs BEFORE's code only
    a, b = tmp_path / "a.mer", tmp_path / "b.mer"
    a.write_text("f(X) -> (fun() -> h(X) end)() * 2.\nh(X) -> X + 1.\ng(X) -> X - 1.\n")
    b.write_text("f(X) -> (fun() -> h(X) end)() * 2.\nh(X) -> X + 1.\ng(X) -> X + 1 - 2.\n")
    code = main(["verify", str(a), str(b), "--entry", "f/1", "--entry", "g/1",
                 "--trials", "40", "--seed", "3"])
    assert code == 0 and capsys.readouterr().out.startswith("verdict=equivalent\n")
    plan = TrialPlan(entries=(FunKey("f", 1), FunKey("g", 1)), trials=40, seed=3)
    rng = random.Random(plan.seed)
    trials = {(e.name, plan.make_args(rng, e.arity))
              for _ in range(plan.trials) for e in plan.entries}
    f_trials = sum(name == "f" for name, _ in trials)
    g_trials = len(trials) - f_trials
    assert sorted(Counter(runs).values()) == [g_trials, f_trials + g_trials]


_BAD_AT_1_9 = ("f(X) -> .\n", "1:9: expected expression, found '.'")
# AFTER's error lies past a prefix it shares with the doubler, or is a
# duplicate of a definition it shares with it in place
_BAD_AFTER = [
    _BAD_AT_1_9,
    (DOUBLER_SRC + "h(X) -> X +.\n", "3:12: expected expression, found '.'"),
    ("g(X) -> f(X+1).\ng(X) -> f(X+1).\n", "2:1: duplicate definition g/1"),
]


@pytest.mark.parametrize("bad_before,bad_after", [
    (True, None), *((False, bad) for bad in _BAD_AFTER), *((True, bad) for bad in _BAD_AFTER)])
def test_verify_malformed_files_exit_2(tmp_path, capsys, bad_before, bad_after):
    before, after = tmp_path / "before.mer", tmp_path / "after.mer"
    before.write_text(_BAD_AT_1_9[0] if bad_before else DOUBLER_SRC)
    after.write_text(bad_after[0] if bad_after else DOUBLER_SRC)
    code = main(["verify", str(before), str(after), "--entry", "f/1"])
    captured = capsys.readouterr()
    want = []
    if bad_before:
        want.append(f"mer: {before}:{_BAD_AT_1_9[1]}\n")
    if bad_after:
        want.append(f"mer: {after}:{bad_after[1]}\n")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "".join(want)


@pytest.mark.parametrize("fuel", ["0", "-3"])
def test_verify_fuel_below_one_exits_2(l1, l2, capsys, fuel):
    code = main(["verify", str(l1), str(l2), "--entry", "f/1", "--fuel", fuel])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fuel of at least 1" in captured.err


# ---------------------------------------------------------------------------
# the cycle collector during a command


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_collector_and_restores_its_state(
        l1, l2, tmp_path, capsys, monkeypatch, enabled):
    bad = tmp_path / "bad.mer"
    bad.write_text("f(X) -> .\n")
    d1, d2 = tmp_path / "d1.mer", tmp_path / "d2.mer"
    d1.write_text("f(X) -> X + 1.\n")
    d2.write_text("f(X) -> X + 2.\n")
    cases = [
        (["check", str(l1)], 0),
        (["verify", str(d1), str(d2), "--entry", "f/1"], 1),
        (["check", str(bad)], 2),
        (["check", str(tmp_path / "missing.mer")], 2),
        (["verify", str(l1), str(l2), "--entry", "f/1", "--fuel", "1"], 3),
        (["verify", str(l1)], SystemExit),  # argparse: a usage error
    ]
    seen = []
    read = cli._read

    def spy(path):
        seen.append(gc.isenabled())
        return read(path)

    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_read", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, want in cases:
            if want is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == want, argv
            assert gc.isenabled() is enabled, argv
        monkeypatch.setattr(cli, "_read", boom)
        with pytest.raises(RuntimeError):
            main(["check", str(l1)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen and not any(seen)  # each file was read with the collector paused


def test_paused_verify_leaves_garbage_independent_of_trials(tmp_path, capsys):
    # Pausing the collector for a whole command is safe only if the
    # reference cycles a command leaves do not grow with its work: here
    # with closures, printing, a division by zero in about one trial in
    # eleven, and a looping entry that runs out of fuel.
    a, b = tmp_path / "a.mer", tmp_path / "b.mer"
    a.write_text("f(X, Y, Z) -> F = fun(A) -> {A, X} end, G = fun() -> Y div Z end,"
                 " print(F(Y)), {F, G()}.\nloop(X) -> loop(X).\n")
    b.write_text("f(X, Y, Z) -> G = fun() -> Y div Z end, F = fun(A) -> {A, X} end,"
                 " print(F(Y)), {F, G()}.\nloop(X) -> loop(X + 0).\n")

    def garbage_after(trials: int) -> int:
        code = main(["verify", str(a), str(b), "--entry", "f/3", "--entry", "loop/1",
                     "--trials", str(trials), "--fuel", "300"])
        assert code == 3
        assert capsys.readouterr().out.startswith("verdict=unknown\n")
        return gc.collect()

    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        garbage_after(10)  # first-use caches
        assert garbage_after(10) == garbage_after(2000)
    finally:
        if was:
            gc.enable()


def test_argument_parser_built_once_per_process(l1, capsys, monkeypatch):
    main(["check", str(l1)])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(["check", str(l1)]) == 0
        assert main(["refactor", "step", "wrap", str(l1), "--pos", "1:19"]) == 0
    with pytest.raises(SystemExit):
        main(["verify"])
    assert built == []


# ---------------------------------------------------------------------------
# token-mutation fuzz over every command


def _position(rng: random.Random, text: str) -> str:
    """LINE:COL of a random non-blank character of text (1:1 if none)."""
    spots = [i for i, c in enumerate(text) if not c.isspace()]
    if not spots:
        return "1:1"
    i = rng.choice(spots)
    line, line_start = text.count("\n", 0, i) + 1, text.rfind("\n", 0, i) + 1
    return f"{line}:{i - line_start + 1}"


def _fuzz_commands(rng: random.Random, base: str, path: str, text: str, fun: str):
    yield ["check", path]
    for step, extra in (("wrap", []), ("extract_to_variable", ["--name", "Y"]),
                        ("outer_variable", []), ("var_to_param", []),
                        ("extract_to_function", ["--name", "h", "--params", "X"])):
        yield ["refactor", "step", step, path, "--pos", _position(rng, text), *extra]
    yield ["refactor", "step", "rename_function", path, "--fun", fun, "--to", "h"]
    yield ["refactor", "generalise", path, "--pos", _position(rng, text), "--param", "Y"]
    yield ["verify", base, path, "--entry", fun, "--trials", "10"]


def test_mutated_inputs_never_crash_a_command(tmp_path, capsys):
    # README's two modules and generated ones, each mutated by token or
    # character edits: every command exits 0-3 with no traceback, and a
    # refactoring it applies is not shown different from its input
    bases = [DOUBLER_SRC, GENERALISED_SRC] + [pretty(gen_module(s, 3)) for s in range(4)]
    rng = random.Random(1708)
    applied = 0
    for n in range(300):
        base = bases[n % len(bases)]
        first = parse(base).definitions[0]
        text = _mutant(rng, base)
        (tmp_path / "base.mer").write_text(base)
        path = tmp_path / "m.mer"
        path.write_text(text)
        for argv in _fuzz_commands(rng, str(tmp_path / "base.mer"), str(path), text,
                                   f"{first.name}/{first.arity}"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, text, err)
            assert "Traceback" not in err, (argv, text, err)
            if code == 0 and argv[0] == "refactor":
                applied += 1
                before, after = parse(text), parse(out)
                keys = {(d.name, d.arity) for d in after.definitions}
                entries = tuple(FunKey(d.name, d.arity) for d in before.definitions
                                if (d.name, d.arity) in keys)
                if entries:
                    v = check_module_equiv(before, after, TrialPlan(entries, trials=10))
                    assert not isinstance(v, Inequivalent), (argv, text, out, v)
    assert applied >= 30
