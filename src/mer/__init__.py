"""mer: a refactoring engine for a miniature functional language, with a
differential program-equivalence oracle to back every transformation."""

from .syntax import (
    DuplicateDefinition, ModuleAst, NotFound, ParseError, find_node,
    module_struct_eq, parse, pretty, struct_eq,
)
from .analysis import FunKey, NodeRef, Snapshot, StaleRef
from .interp import (
    AtomV, ClosureV, Exn, IntV, Ok, Outcome, Timeout, TupleV, Value,
    eval_call, eval_expr,
)
from .rewrite import (
    Applied, Condition, NotApplicable, PreconditionViolated, RewriteRule,
    StepOutcome, apply_rule, parse_rule_text,
)
from .refactorings import (
    extract_to_function, extract_to_variable, generalise_function,
    outer_variable, parse_composite, rename_function, run_composite,
    to_function_parameter, var_to_param, wrap,
)
from .equiv import (
    Equivalent, Inequivalent, TrialPlan, Unknown, Verdict,
    check_module_equiv, check_rule_equiv, format_verdict, gen_args,
    gen_expr, gen_module,
)

__version__ = "0.1.0"
