"""Command-line surface.

Commands::

    mer check FILE
    mer refactor generalise FILE (--pos L:C | --expr TEXT [--occurrence N])
        --param NAME [--write] [--trace]
    mer refactor step NAME FILE <addressing> [step options] [--write]
    mer verify BEFORE AFTER --entry name/arity [--entry ..]
        [--trials N] [--seed S] [--fuel K]

Exit codes: 0 success, 1 refactoring or equivalence failure, 2 input
error, 3 unknown (timeouts). Diagnostics go to stderr; refactored code
and verdict documents go to stdout. ``--write`` replaces the input file
atomically and never on failure.

``main`` runs each command, from parsing its arguments to its exit code,
under ``syntax.collector_paused``: trees, snapshots and interpreter
values hold no reference cycle, so collections during a command would
free next to nothing. The argument parser, which is full of cycles, is
built once per process; the cyclic garbage a command makes is freed
after it, and a verify command's does not grow with its trials. The
collector's state is restored on a return, on argparse's ``SystemExit``
and on any exception.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import tempfile
from typing import Optional, Sequence

from . import refactorings
from .analysis import FunKey, NodeRef, Snapshot, function
from .equiv import (
    Equivalent, Inequivalent, PlanError, TrialPlan, check_module_equiv,
    format_verdict,
)
from .interp import DEFAULT_FUEL
from .rewrite import Applied, NotApplicable, PreconditionViolated, StepOutcome
from .syntax import (
    ModuleAst, NotFound, ParseError, collector_paused, find_node, is_expr,
    parse_expr_text, parse_patterns_text, pretty, struct_eq, walk,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _err(msg: str):
    print(f"mer: {msg}", file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".mer-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        shutil.copymode(path, tmp)  # mkstemp creates the file 0600
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: str, base: Optional[tuple[str, ModuleAst]] = None,
          ) -> tuple[Optional[str], Optional[Snapshot]]:
    """The text of the file at path and its snapshot, parsed against base
    (see syntax.parse); (None, None), after a message, if either fails."""
    try:
        text = _read(path)
        return text, Snapshot.from_source(text, base)
    except (OSError, UnicodeDecodeError) as exc:
        _err(f"cannot read {path}: {exc}")
    except ParseError as exc:
        _err(f"{path}:{exc}")
    return None, None


def _parse_pos(text: str) -> tuple[int, int]:
    line, _, col = text.partition(":")
    return int(line), int(col)


def _resolve_target(snap: Snapshot, args) -> Optional[NodeRef]:
    if args.pos is not None and args.expr is not None:
        _err("use exactly one of --pos and --expr")
        return None
    if args.occurrence is not None and args.expr is None:
        _err("--occurrence selects among matches of --expr, which is not given")
        return None
    if args.pos is not None:
        try:
            line, col = _parse_pos(args.pos)
        except ValueError:
            _err(f"bad position {args.pos!r}, expected LINE:COL")
            return None
        try:
            return snap.ref(find_node(snap.module, line, col))
        except NotFound as exc:
            _err(str(exc))
            return None
    if args.expr is not None:
        try:
            wanted = parse_expr_text(args.expr)
        except ParseError as exc:
            _err(f"--expr: {exc}")
            return None
        occurrence = 1 if args.occurrence is None else args.occurrence
        if occurrence < 1:
            _err(f"--occurrence must be at least 1, got {occurrence}")
            return None
        count = 0
        for d in snap.module.definitions:
            for n in walk(d):
                if is_expr(n) and struct_eq(n, wanted):
                    count += 1
                    if count == occurrence:
                        return snap.ref(n.node_id)
        _err(f"occurrence {occurrence} of {args.expr!r} not found ({count} present)")
        return None
    _err("a target is required: --pos L:C or --expr TEXT [--occurrence N]")
    return None


def _resolve_fun(snap: Snapshot, spec: str) -> Optional[NodeRef]:
    try:
        key = FunKey.parse(spec)
    except ValueError as exc:
        _err(str(exc))
        return None
    d = snap.find_def(key)
    if d is None:
        _err(f"function {key} is not defined")
        return None
    return snap.ref(d.node_id)


def _emit_result(outcome: StepOutcome, path: str, write: bool) -> int:
    if isinstance(outcome, Applied):
        text = pretty(outcome.snapshot.module)
        if write:
            _write_atomic(path, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if isinstance(outcome, PreconditionViolated):
        where = f" in {outcome.step_name}" if outcome.step_name else ""
        _err(f"precondition {outcome.predicate} violated ({outcome.location}){where}")
        return EXIT_FAILED
    if isinstance(outcome, NotApplicable):
        where = f" in {outcome.step_name}" if outcome.step_name else ""
        _err(f"not applicable: {outcome.reason}{where}")
        return EXIT_FAILED
    raise AssertionError(outcome)


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    _, snap = _load(args.file)
    if snap is None:
        return EXIT_INPUT
    for key in snap.fun_keys():
        print(key)
    return EXIT_OK


def cmd_refactor_generalise(args) -> int:
    _, snap = _load(args.file)
    if snap is None:
        return EXIT_INPUT
    target = _resolve_target(snap, args)
    if target is None:
        return EXIT_INPUT

    def trace(idx: int, label: str, step_args: tuple[str, ...], at: Snapshot):
        shown = f" {', '.join(step_args)}" if step_args else ""
        print(f"### step {idx} {label}{shown}", file=sys.stderr)
        sys.stderr.write(pretty(at.module))

    outcome = refactorings.generalise_function(
        snap, target, args.param,
        on_step=trace if args.trace else None,
        fail_at=args.fail_at_step,
    )
    return _emit_result(outcome, args.file, args.write)


_STEP_NAMES = ("wrap", "extract_to_variable", "outer_variable",
               "extract_to_function", "var_to_param", "rename_function")


def cmd_refactor_step(args) -> int:
    _, snap = _load(args.file)
    if snap is None:
        return EXIT_INPUT
    name = args.step_name
    if name == "rename_function":
        if not args.fun or not args.to:
            _err("rename_function needs --fun name/arity and --to NAME")
            return EXIT_INPUT
        fn = _resolve_fun(snap, args.fun)
        if fn is None:
            return EXIT_INPUT
        outcome = refactorings.rename_function(snap, fn, args.to)
        return _emit_result(outcome, args.file, args.write)

    target = _resolve_target(snap, args)
    if target is None:
        return EXIT_INPUT
    if name == "wrap":
        outcome = refactorings.wrap(snap, target)
    elif name == "extract_to_variable":
        if not args.name:
            _err("extract_to_variable needs --name NAME")
            return EXIT_INPUT
        outcome = refactorings.extract_to_variable(snap, target, args.name)
    elif name == "outer_variable":
        outcome = refactorings.outer_variable(snap, target)
    elif name == "extract_to_function":
        if not args.name:
            _err("extract_to_function needs --name NAME [--params \"P, ..\"]")
            return EXIT_INPUT
        try:
            params = parse_patterns_text(args.params or "")
        except ParseError as exc:
            _err(f"--params: {exc}")
            return EXIT_INPUT
        outcome = refactorings.extract_to_function(snap, target, args.name, params)
    elif name == "var_to_param":
        outcome = refactorings.var_to_param(snap, function(snap, target), target)
    else:
        _err(f"unknown step {name!r}; expected one of {', '.join(_STEP_NAMES)}")
        return EXIT_INPUT
    return _emit_result(outcome, args.file, args.write)


def cmd_verify(args) -> int:
    """Judge AFTER against BEFORE by the differential oracle. AFTER is
    parsed with BEFORE as its base (see syntax.parse), so a definition
    unchanged in place is BEFORE's own object, and a trial whose entry
    reaches only such definitions runs on BEFORE alone (see
    interp.same_code). If BEFORE cannot be loaded, AFTER is parsed
    alone, and the errors of both are reported."""
    before_text, before = _load(args.before)
    _, after = _load(args.after, before and (before_text, before.module))
    if before is None or after is None:
        return EXIT_INPUT
    try:
        entries = tuple(FunKey.parse(e) for e in args.entry)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_INPUT
    plan = TrialPlan(entries=entries, trials=args.trials, seed=args.seed,
                     fuel=args.fuel)
    try:
        verdict = check_module_equiv(before.module, after.module, plan)
    except PlanError as exc:
        _err(str(exc))
        return EXIT_INPUT
    sys.stdout.write(format_verdict(verdict))
    if isinstance(verdict, Equivalent):
        return EXIT_OK
    if isinstance(verdict, Inequivalent):
        return EXIT_FAILED
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# Argument parsing


def _add_target_opts(p: argparse.ArgumentParser):
    p.add_argument("--pos", help="target position LINE:COL (1-based)")
    p.add_argument("--expr", help="target expression text")
    p.add_argument("--occurrence", type=int, default=None,
                   help="which occurrence of --expr (1-based, default 1)")


@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mer",
        description="Refactoring engine and differential verifier for"
                    " a miniature functional language.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a module and list its functions")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_ref = sub.add_parser("refactor", help="apply a refactoring")
    ref_sub = p_ref.add_subparsers(dest="refactoring", required=True)

    p_gen = ref_sub.add_parser("generalise",
                               help="lift an expression into a new function parameter")
    p_gen.add_argument("file")
    _add_target_opts(p_gen)
    p_gen.add_argument("--param", required=True, help="name of the new parameter")
    p_gen.add_argument("--write", action="store_true",
                       help="rewrite the input file in place")
    p_gen.add_argument("--trace", action="store_true",
                       help="print each step and intermediate module to stderr")
    p_gen.add_argument("--fail-at-step", type=int, default=None,
                       help=argparse.SUPPRESS)  # test hook: force step K to fail
    p_gen.set_defaults(fn=cmd_refactor_generalise)

    p_step = ref_sub.add_parser("step", help="apply one prime refactoring")
    p_step.add_argument("step_name", metavar="NAME",
                        help=f"one of {', '.join(_STEP_NAMES)}")
    p_step.add_argument("file")
    _add_target_opts(p_step)
    p_step.add_argument("--name", help="new variable/function name where needed")
    p_step.add_argument("--params", help="comma-separated parameter patterns")
    p_step.add_argument("--fun", help="target function as name/arity")
    p_step.add_argument("--to", help="new function name (rename_function)")
    p_step.add_argument("--write", action="store_true")
    p_step.set_defaults(fn=cmd_refactor_step)

    p_ver = sub.add_parser("verify", help="differential equivalence of two modules")
    p_ver.add_argument("before")
    p_ver.add_argument("after")
    p_ver.add_argument("--entry", action="append", required=True,
                       metavar="NAME/ARITY", help="entry point (repeatable)")
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p_ver.set_defaults(fn=cmd_verify)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    with collector_paused():
        args = build_parser().parse_args(argv)
        return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
