"""Outside-in tracer: wraps mer's functions at each module boundary.

Nothing inside ``src/mer`` is changed. ``Tracer.install`` replaces each
traced function object wherever a mer module holds it: as a module
global (which also covers names other modules re-import, such as
``mer.equiv.eval_call``) and as a value of a module-level dict (such as
the composite runner's table of primes). Methods are wrapped on their
class. ``Tracer.remove`` puts every original back, so an untraced run
pays nothing.

A span records (name, start, end, parent). A layer's self time is its
span time minus the time covered by its child spans. A call made while
a span of the same name is open (recursion such as ``subst_fragment``)
runs unwrapped inside the open span, so ``calls`` counts outermost
calls only. Spans stay in memory, up to ``MAX_SPANS``; the aggregates
are exact however many spans are kept. While ``paused`` is set (the
benchmark checking a result) calls pass through unrecorded.

Evaluator steps and fuel used are not visible from outside: ``Outcome``
carries no fuel count. They need a recorder inside the program.
"""

from __future__ import annotations

import json
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

MODULES = ("syntax", "analysis", "rewrite", "schemes", "refactorings",
           "interp", "equiv", "cli")

# span name -> [(module, qualified name)]. A dotted qualified name is a
# method on a class.
SPANS = {
    "syntax.parse": [("syntax", "parse")],
    "syntax.pretty": [("syntax", "pretty")],
    "syntax.validate": [("syntax", "check_module"), ("syntax", "syntactic_flaws")],
    "analysis.snapshot": [("analysis", "_Index.__init__")],
    "analysis.query": [("analysis", n) for n in
                       ("free_vars", "closed", "non_bind", "pure", "fresh")],
    "analysis.fun_purity": [("analysis", "fun_purity")],
    "analysis.binding_info": [("analysis", "binding_info")],
    "rewrite.apply_rule": [("rewrite", "apply_rule")],
    "rewrite.match": [("rewrite", "match_template")],
    "rewrite.condition": [("rewrite", "eval_condition")],
    "rewrite.substitute": [("rewrite", n) for n in
                           ("substitute", "subst_fragment", "subst_seq")],
    "schemes.run": [("schemes", n) for n in
                    ("run_local", "run_introduce_variable", "run_introduce_function",
                     "run_function_refactoring", "run_signature_refactoring")],
    "refactorings.prime": [("refactorings", n) for n in
                           ("wrap", "extract_to_variable", "outer_variable",
                            "extract_to_function", "var_to_param", "rename_function")],
    "refactorings.composite": [("refactorings", n) for n in
                               ("run_composite", "generalise_function",
                                "to_function_parameter")],
    "interp.call": [("interp", "eval_call"), ("interp", "eval_expr")],
    "interp.setup": [("interp", "_Evaluator.__init__")],
    "equiv.check": [("equiv", "check_module_equiv"), ("equiv", "check_rule_equiv")],
    "equiv.gen": [("equiv", "_instantiate")],
    "cli.main": [("cli", "main")],
}


def _kind(result) -> str:
    return type(result).__name__


def _refactoring(tr: Tracer, result, exc):
    if exc is not None or tr.in_span("refactorings."):
        return  # count each operation once, at its outermost call
    kind = _kind(result)
    if kind == "Applied":
        tr.count("refactorings.applied")
    elif kind == "NotApplicable":
        tr.count("refactorings.rejected.not_applicable")
    else:
        tr.count(f"refactorings.rejected.{result.predicate}")


def _interp(tr: Tracer, result, exc):
    kind = _kind(result)
    if kind == "Timeout":
        tr.count("interp.timeouts")
    elif kind == "Exn":
        tr.count("interp.exceptions")


def _condition(tr: Tracer, result, exc):
    if type(exc).__name__ == "ConditionFailure":
        tr.count("rewrite.condition.rejects")


def _trials(verdict) -> int:
    return verdict.trial if _kind(verdict) == "Inequivalent" else verdict.trials


def _module_check(tr: Tracer, result, exc):
    if result is not None:
        tr.count("equiv.trials", _trials(result))
        tr.count(f"equiv.verdict.{_kind(result).lower()}")


def _rule_check(tr: Tracer, result, exc):
    _module_check(tr, result, exc)
    if result is not None:
        tr.count("equiv.accepted", _trials(result))


def _parse(tr: Tracer, result, exc):
    if result is not None:
        tr.count("syntax.parse.nodes", result.next_node_id)


def _cli(tr: Tracer, result, exc):
    code = result if exc is None else getattr(exc, "code", "exception")
    tr.count(f"cli.exit.{code}")


# Counters taken from results at the boundaries: span name, or
# "module.function" for one traced function (which takes precedence), to
# hook(tracer, result, exception), run after each outermost span closes.
HOOKS = {
    "refactorings.prime": _refactoring,
    "refactorings.composite": _refactoring,
    "interp.call": _interp,
    "rewrite.condition": _condition,
    "equiv.check": _module_check,
    "equiv.check_rule_equiv": _rule_check,
    "syntax.parse": _parse,
    "cli.main": _cli,
}


MAX_SPANS = 100_000  # spans kept for writing out; aggregates count every span


class Tracer:
    def __init__(self):
        self.paused = False  # set while the benchmark checks a result
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # stored spans, column-wise: name id, parent index (-1 = none), times
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        # open spans: [name, start, child time, stored index]
        self._stack: list[list] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self._stack
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if self.paused or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            if len(self.span_name) < MAX_SPANS:
                idx = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [name, perf_counter(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame)
                if hook is not None:
                    hook(self, None, exc)
                raise
            self._close(frame)
            if hook is not None:
                hook(self, result, None)
            return result

        return traced

    def _close(self, frame: list):
        end = perf_counter()
        self._stack.pop()
        name, start, child, idx = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def count(self, key: str, n: int = 1):
        self.counters[key] += n

    def in_span(self, prefix: str) -> bool:
        """True when a span whose name starts with prefix is open, below
        the one now closing."""
        return any(f[0].startswith(prefix) for f in self._stack)

    # -- installing ----------------------------------------------------------

    def install(self, package: types.ModuleType):
        mods = [package] + [getattr(package, m) for m in MODULES]
        for name, targets in SPANS.items():
            for mod_name, qual in targets:
                mod = getattr(package, mod_name)
                hook = HOOKS.get(f"{mod_name}.{qual}", HOOKS.get(name))
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, hook))
                    self._restore.append(lambda c=cls, m=meth, o=orig: setattr(c, m, o))
                    continue
                orig = getattr(mod, qual)
                self._replace_everywhere(mods, orig, self._wrap(name, orig, hook))

    def _replace_everywhere(self, mods: list, orig: Callable, wrapper: Callable):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append(lambda m=mod, a=attr: setattr(m, a, orig))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = wrapper
                            self._restore.append(
                                lambda d=value, k=key: d.__setitem__(k, orig))

    def remove(self):
        while self._restore:
            self._restore.pop()()

    # -- output ----------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per mer module."""
        out: defaultdict = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return dict(out)

    def write_spans(self, path: str):
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "dropped": self.dropped,
            "spans": [[self.span_name[i], self.span_parent[i],
                       round(self.span_start[i], 7), round(self.span_end[i], 7)]
                      for i in range(len(self.span_name))],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
