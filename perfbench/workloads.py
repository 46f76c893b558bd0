"""The four workloads. Each is a closed loop of rounds; a round is a
fixed list of operations, so every complete round keeps the mix of
operation kinds exact whatever the seed.

A workload is built from the imported ``mer`` package, a seed and a
working directory. It looks mer's functions up when it builds a round,
inside the loop, so a traced loop sees the tracer's wrappers. Each
operation returns its result, which is checked against an answer the
benchmark knows from its own generator, never from mer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import gen

# Sizes at the default ("full") scale and at the self-test's "tiny" scale.
SCALES = {
    "full": {"large_defs": 1600, "small_rounds": 30},
    "tiny": {"large_defs": 60, "small_rounds": 2},
}
SMALL_DEFS = 12  # the small module of large_refactor's scale ratio
DEEP_TERMS = 3000  # verify_large's deep entry

VALID_EXIT_CODES = (0, 1, 2, 3)


@dataclass
class Op:
    """One operation. ``run`` does the timed work; ``check`` gets its
    result and returns (failure message or None, oracle verdict or None)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _verdict_name(v) -> str:
    return type(v).__name__.lower()


class Workload:
    name = ""

    def __init__(self, mer, seed: int, scale: str, workdir: str):
        self.mer = mer
        self.seed = seed
        self.size = SCALES[scale]
        self.workdir = workdir
        # only the generated inputs feed the digest, so two seeds that
        # generated the same inputs would show the same digest
        self.digest = hashlib.sha256(self.name.encode())

    def note_input(self, text: str):
        self.digest.update(text.encode())

    def rng(self, k: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + k)

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def post(self) -> list[Op]:
        """Untimed operations run once after the loop."""
        return []


def _follow(node, path: tuple):
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    return node


# ---------------------------------------------------------------------------
# sweep: every prime at seeded sites on small modules, each application
# checked by the differential oracle


class Sweep(Workload):
    name = "sweep"
    TRIALS = 30

    def round(self, k: int) -> list[Op]:
        m = self.mer
        R = m.refactorings
        text = gen.small_module(self.seed * 1_000_003 + k)
        self.note_input(text)
        snap = m.Snapshot.from_source(text)
        module = snap.module
        rng = self.rng(k)
        exprs = [n for d in module.definitions for n in m.syntax.walk(d)
                 if m.syntax.is_expr(n)]
        matches = [n for n in exprs if isinstance(n, m.syntax.Match)]

        ops: list[tuple[str, Callable]] = []
        for n in rng.sample(exprs, min(3, len(exprs))):
            ops.append(("wrap", lambda n=n: R.wrap(snap, snap.ref(n.node_id))))
        n = rng.choice(exprs)
        ops.append(("extract_to_variable", lambda n=n: R.extract_to_variable(
            snap, snap.ref(n.node_id), "W0")))
        n2 = rng.choice(exprs)
        d2 = snap.fundef_of(n2.node_id)
        ops.append(("extract_to_function", lambda n=n2, d=d2: R.extract_to_function(
            snap, snap.ref(n.node_id), "ex0", d.params)))
        for mt in matches[:2]:
            ops.append(("outer_variable", lambda mt=mt: R.outer_variable(
                snap, snap.ref(mt.node_id))))
        for d in module.definitions:
            first = d.body.exprs[0]
            if isinstance(first, m.syntax.Match):
                ops.append(("var_to_param", lambda d=d, first=first: R.var_to_param(
                    snap, snap.ref(d.node_id), snap.ref(first.node_id))))
        d0 = module.definitions[0]
        ops.append(("rename_function", lambda d=d0: R.rename_function(
            snap, snap.ref(d.node_id), "q0")))

        plan_seed = self.seed * 1_000_003 + k
        return [Op(kind, self._applied_then_checked(module, run, plan_seed),
                   self._check)
                for kind, run in ops]

    def _applied_then_checked(self, module, run: Callable, plan_seed: int):
        m = self.mer

        def op():
            outcome = run()
            if not isinstance(outcome, m.rewrite.Applied):
                return outcome, None
            after = outcome.snapshot.module
            keys = ({(d.name, d.arity) for d in module.definitions}
                    & {(d.name, d.arity) for d in after.definitions})
            if not keys:
                return outcome, None  # a module's only entry was renamed
            plan = m.equiv.TrialPlan(
                entries=tuple(m.FunKey(n, a) for n, a in sorted(keys)),
                trials=self.TRIALS, seed=plan_seed)
            return outcome, m.equiv.check_module_equiv(module, after, plan)

        return op

    def _check(self, result) -> tuple:
        outcome, verdict = result
        if verdict is None:
            return None, None
        name = _verdict_name(verdict)
        if name != "equivalent":
            return f"applied step judged {name}: {verdict}", name
        return None, name


# ---------------------------------------------------------------------------
# large_refactor: a fixed mix of refactorings on one large module


# (kind, expected outcome: None = applied, else the rejecting predicate).
# Thirteen operations a round. Sorted by latency, the middle three are the
# extract_ok group and the top three the generalise_ok group, so from four
# rounds on the median and the tail each fall inside one group and do not
# jump between groups from run to run.
_MIX = (
    ("generalise_ok", None), ("generalise_ok", None), ("generalise_ok", None),
    ("generalise_clash", "signature_clash"),
    ("wrap_ok", None), ("wrap_ok", None), ("wrap_binds", "non_bind"),
    ("extract_ok", None), ("extract_ok", None), ("extract_ok", None),
    ("extract_impure", "pure"),
    ("rename_ok", None), ("rename_clash", "signature_clash"),
)


class _Target:
    """A large module parsed once, with its sites resolved."""

    def __init__(self, mer, lm: gen.LargeModule):
        self.mer = mer
        self.lm = lm
        self.snap = mer.Snapshot.from_source(lm.text)
        self.def_ids = {id(d) for d in self.snap.module.definitions}
        self.refs = {kind: [self._resolve(s) for s in sites]
                     for kind, sites in lm.sites.items()}
        self.hubs = {name: self.snap.ref(self._def(name, arity).node_id)
                     for name, arity in (("hub0", 1), ("hub1", 2))}
        self.arity2 = sorted(n for n, a in lm.signatures if a == 2 and n != "hub1")

    def _def(self, name: str, arity: int):
        d = self.snap.find_def(self.mer.FunKey(name, arity))
        if d is None:
            raise RuntimeError(f"generated definition {name}/{arity} not parsed")
        return d

    def _resolve(self, site: gen.Site):
        node = _follow(self._def(site.fun, site.arity), site.path)
        printed = self.mer.syntax.pretty_expr(node)
        if printed != site.text:
            raise RuntimeError(f"site in {site.fun}/{site.arity} prints "
                               f"{printed!r}, expected {site.text!r}")
        return site, self.snap.ref(node.node_id)


class LargeRefactor(Workload):
    name = "large_refactor"

    def __init__(self, mer, seed: int, scale: str, workdir: str):
        super().__init__(mer, seed, scale, workdir)
        big = gen.large_module(seed, self.size["large_defs"])
        small = gen.large_module(seed, SMALL_DEFS)
        self.note_input(big.text)
        self.note_input(small.text)
        self.big = _Target(mer, big)
        self.small = _Target(mer, small)

    def round(self, k: int) -> list[Op]:
        return self._mix(self.big, self.rng(k), k)

    def post(self) -> list[Op]:
        ops = []
        for k in range(self.size["small_rounds"]):
            ops += self._mix(self.small, self.rng(-1 - k), k)
        for op in ops:
            op.kind = "small." + op.kind
        return ops

    def _mix(self, t: _Target, rng: random.Random, k: int) -> list[Op]:
        R = self.mer.refactorings
        base = t.lm.signatures
        ops = []
        for kind, predicate in _MIX:
            expected = base
            if kind == "rename_ok":
                new = f"hubr{k}x{rng.randrange(1000)}"
                run = partial(R.rename_function, t.snap, t.hubs["hub0"], new)
                expected = (base - {("hub0", 1)}) | {(new, 1)}
                site_text = f"hub0 -> {new}"
            elif kind == "rename_clash":
                new = rng.choice(t.arity2)
                run = partial(R.rename_function, t.snap, t.hubs["hub1"], new)
                site_text = f"hub1 -> {new}"
            else:
                site, ref = rng.choice(t.refs[kind])
                site_text = f"{site.fun}/{site.arity} {site.text}"
                if kind.startswith("generalise"):
                    run = partial(R.generalise_function, t.snap, ref, "Gp")
                    if predicate is None:
                        expected = base | {(site.fun, site.arity + 1)}
                elif kind.startswith("wrap"):
                    run = partial(R.wrap, t.snap, ref)
                else:
                    run = partial(R.extract_to_variable, t.snap, ref, "Ev")
            self.note_input(f"{kind} {site_text}")
            ops.append(Op(kind, run, self._checker(t, predicate, expected)))
        return ops

    def _checker(self, t: _Target, predicate: Optional[str], expected: frozenset):
        m = self.mer

        def check(outcome) -> tuple:
            kind = type(outcome).__name__
            if predicate is not None:
                got = getattr(outcome, "predicate", None)
                if kind != "PreconditionViolated" or got != predicate:
                    return f"expected rejection by {predicate}, got {kind} {got}", None
                return None, None
            if kind != "Applied":
                return f"expected Applied, got {outcome}", None
            defs = outcome.snapshot.module.definitions
            sigs = {(d.name, d.arity) for d in defs}
            if sigs != expected:
                return (f"signature set differs: +{sorted(sigs - expected)} "
                        f"-{sorted(expected - sigs)}"), None
            changed = "".join(m.syntax.pretty_def(d) + "\n" for d in defs
                              if id(d) not in t.def_ids)
            if m.pretty(m.parse(changed)) != changed:
                return "changed definitions do not round-trip through parse/pretty", None
            return None, None

        return check


# ---------------------------------------------------------------------------
# rule_check: rule-level differential checks, one accepted instantiation
# per operation


CONTRACT_RULE_TEXT = ("@E\n-----\nbegin Y = @E, Y end\n"
                      "WHEN fresh(Y) AND pure(@E) AND closed(@E)")


class RuleCheck(Workload):
    name = "rule_check"
    PER_ROUND = 50

    def __init__(self, mer, seed: int, scale: str, workdir: str):
        super().__init__(mer, seed, scale, workdir)
        E = mer.equiv
        wrap = mer.refactorings.WRAP_RULE
        contract = mer.parse_rule_text(CONTRACT_RULE_TEXT)
        self.rules = (
            ("wrap_rule", wrap, E.GenConfig(allow_print=True, visible_match=True)),
            ("contract", contract, None),
        )

    def round(self, k: int) -> list[Op]:
        E = self.mer.equiv
        ops = []
        for i in range(self.PER_ROUND):
            kind, rule, cfg = self.rules[i % 2]
            s = (self.seed * 1_000_003 + k) * self.PER_ROUND + i
            self.note_input(f"{kind}:{s}")
            ops.append(Op(kind, lambda rule=rule, cfg=cfg, s=s: E.check_rule_equiv(
                rule.lhs, rule.rhs, rule.condition, trials=1, seed=s, depth=4,
                cfg=cfg), self._check))
        return ops

    @staticmethod
    def _check(verdict) -> tuple:
        name = _verdict_name(verdict)
        if name != "equivalent":
            return f"rule judged {name}: {verdict}", name
        if verdict.trials != 1:
            return f"expected 1 accepted instantiation, got {verdict.trials}", name
        return None, name


# ---------------------------------------------------------------------------
# verify_large: `mer verify` through the CLI entry point on a large module
# and its generalised form


class VerifyLarge(Workload):
    name = "verify_large"
    # Commands per round. Each names four entries: the generalised
    # definition and three others, one of which is the deep entry in one
    # command a round. Every command thus costs about the same, so the
    # median latency is not pulled between a fast and a slow group.
    PER_ROUND = 5
    ENTRIES = 4
    TRIALS = 50

    def __init__(self, mer, seed: int, scale: str, workdir: str):
        super().__init__(mer, seed, scale, workdir)
        lm = gen.large_module(seed, self.size["large_defs"])
        snap = mer.Snapshot.from_source(lm.text)
        site = random.Random(seed).choice(lm.sites["generalise_ok"])
        node = _follow(snap.find_def(mer.FunKey(site.fun, site.arity)), site.path)
        outcome = mer.generalise_function(snap, snap.ref(node.node_id), "Gp")
        if not isinstance(outcome, mer.rewrite.Applied):
            raise RuntimeError(f"set-up generalisation failed: {outcome}")
        deep = gen.deep_definition("deep", DEEP_TERMS)
        self.before = os.path.join(workdir, "before.mer")
        self.after = os.path.join(workdir, "after.mer")
        for path, text in ((self.before, lm.text + deep),
                           (self.after, mer.pretty(outcome.snapshot.module) + deep)):
            self.note_input(text)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.generalised = f"{site.fun}/{site.arity}"
        self.entries = [f"{n}/{a}" for n, a in lm.entries
                        if (n, a) != (site.fun, site.arity)]

    def _cli(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mer.cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def round(self, k: int) -> list[Op]:
        rng = self.rng(k)
        deep_at = rng.randrange(self.PER_ROUND)
        ops = []
        for i in range(self.PER_ROUND):
            entries = [self.generalised] + rng.sample(self.entries, self.ENTRIES - 1)
            kind = "shallow"
            if i == deep_at:
                entries[-1] = "deep/1"
                kind = "deep"
            argv = ["verify", self.before, self.after]
            for e in entries:
                argv += ["--entry", e]
            argv += ["--trials", str(self.TRIALS), "--seed", str(rng.randrange(10**6))]
            self.note_input(" ".join(argv[3:]))
            ops.append(Op(kind, lambda argv=argv: self._cli(argv),
                          self._checker(kind, len(entries))))
        return ops

    def _checker(self, kind: str, n_entries: int):
        want_trials = f"trials={self.TRIALS * n_entries}"

        def check(result) -> tuple:
            code, out, err = result
            if code not in VALID_EXIT_CODES or "Traceback" in err:
                return f"exit code {code}: {err.strip()[-200:]}", None
            lines = out.splitlines()
            verdict = lines[0].partition("=")[2] if lines else ""
            if kind == "deep":
                # every entry terminates: only equivalent or unknown is
                # right, and only the deep entry's trials may time out
                timeouts = next((int(line.partition("=")[2]) for line in lines
                                 if line.startswith("timeouts=")), -1)
                if (verdict not in ("equivalent", "unknown") or want_trials not in lines
                        or not 0 <= timeouts <= self.TRIALS):
                    return f"deep command: exit {code}: {out!r}", verdict or None
                return None, verdict
            if code != 0 or verdict != "equivalent" or want_trials not in lines:
                return f"expected exit 0 with equivalent and {want_trials}, got exit {code}: {out!r}", verdict or None
            return None, verdict

        return check

    def post(self) -> list[Op]:
        path = os.path.join(self.workdir, "case_study.mer")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.CASE_STUDY_SRC)
        argv = ["refactor", "generalise", path, "--pos", gen.CASE_STUDY_POS,
                "--param", "Y"]

        def check(result) -> tuple:
            code, out, err = result
            if code != 0 or set(out.splitlines()) != gen.CASE_STUDY_EXPECTED:
                return f"case study: exit {code}, output {out!r}", None
            return None, None

        return [Op("case_study", lambda: self._cli(argv), check)]


WORKLOADS = {w.name: w for w in (Sweep, LargeRefactor, RuleCheck, VerifyLarge)}
