"""Hook-free baselines for the dormant-overhead gates, derived from live code.

A dormant hook is a branch the live code takes only while a feature is in
use: an adversary installed, tracing on, a trace sink set.  The gates time
the live code against a baseline without those branches.  Rather than keep
hand copies of kernel code that drift, :func:`fold_dormant` rebuilds a
method from its live source with each named condition fixed to its dormant
value, so the baseline is the live code minus exactly those branches.
"""

import ast
import inspect
import sys
import textwrap

from repro.sim.context import ProcessContext
from repro.sim.kernel import SimulationKernel

#: The adversary gate's baseline: no adversary, no schedule controller, no
#: pause faults, no batch budget (``run`` always passes an unlimited one).
ADVERSARY_FOLDS = [
    (
        SimulationKernel,
        "run_batch",
        {
            "adversary is not None": False,
            "adversary is None": True,
            "controller is None": True,
            "proc.paused": False,
            "processed == budget": False,
        },
    ),
]

#: The observability gate's baseline: no trace sink, span markers untraced.
OBS_FOLDS = [
    (SimulationKernel, "_result", {"self.trace_sink is not None": False}),
    (ProcessContext, "mark_round", {"kernel.trace.enabled": False}),
    (ProcessContext, "mark_phase", {"kernel.trace.enabled": False}),
]


def fold_dormant(function, conditions):
    """Recompile ``function`` with every ``if`` on a named condition folded.

    ``conditions`` maps the source of an ``if`` test to its dormant truth
    value; each such ``if`` is replaced by the branch that value selects.  A
    top-level local assigned from a plain name or attribute and no longer
    read afterwards is dropped too.  Raises ``ValueError`` when a condition
    does not occur, so a rename breaks the gate instead of weakening it.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    ast.increment_lineno(tree, function.__code__.co_firstlineno - 1)
    wanted = {ast.dump(ast.parse(test, mode="eval").body): test for test in conditions}
    folded = set()

    class Fold(ast.NodeTransformer):
        def visit_If(self, node):
            self.generic_visit(node)
            test = wanted.get(ast.dump(node.test))
            if test is None:
                return node
            folded.add(test)
            return node.body if conditions[test] else node.orelse

    definition = Fold().visit(tree).body[0]
    missing = sorted(set(conditions) - folded)
    if missing:
        raise ValueError(f"{function.__qualname__} has no condition {missing}")
    read = {
        node.id
        for node in ast.walk(definition)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    definition.body = [
        statement
        for statement in definition.body
        if not (
            isinstance(statement, ast.Assign)
            and isinstance(statement.value, (ast.Name, ast.Attribute))
            and all(
                isinstance(target, ast.Name) and target.id not in read
                for target in statement.targets
            )
        )
    ]
    namespace = {}
    code = compile(tree, inspect.getsourcefile(function), "exec")
    exec(code, sys.modules[function.__module__].__dict__, namespace)
    return namespace[function.__name__]


def patch_dormant(patcher, folds):
    """Swap each ``(owner, name, conditions)`` method for its folded form."""
    for owner, name, conditions in folds:
        patcher.setattr(owner, name, fold_dormant(getattr(owner, name), conditions))
