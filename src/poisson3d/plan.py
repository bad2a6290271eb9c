"""The layout of generated trees, and register plans: one binding of a tree, as steps over a register file.

layout keys, counts and checks the trees once for every binding: expr._kernel_source renders it as the
source of the integrators' compiled job kernels, a line for each subtree that can raise or is read more
than once, and plan_kernel as a plan, each of whose steps names its node's operator.  _Plan.run calls
that operator's function in a table on its operands' registers: expr._BATCH_NS on arrays, through batch
and expr._run_on_arrays under D12's fault rule, and expr._FLOAT_OPS on a compile_expr callable's floats.
No plan writes or compiles source (docs/decisions.md, D13, D15, D16, D23 and D24).
"""

from __future__ import annotations

import math

from .errors import DomainEvalError, UnboundVariableError
from .expr import _BATCH_NS, _MAX_DEPTH, _XS, Bin, Call, Lit, Var, _all_finite, _run_on_arrays


def layout(outputs, checked, varnames):
    """The distinct subtrees of the trees in varnames: (nodes, reads, consts, roots), or None for a tree
    deeper than _MAX_DEPTH.  UnboundVariableError for a variable not in varnames, after the depth test.

    Each value has a number: the variables of varnames first, in order, then the other leaves and the
    subtrees as the walk meets them.  A subtree's key is its operator ("neg" for negation) and the numbers
    of its operands, a variable's its name and a literal's its repr, so Lit(0.0) and Lit(-0.0) stay apart;
    a leaf is keyed wherever it is read and a node object once, by id.  nodes holds each distinct subtree
    in post-order as (n, key, node), with node its first object; reads[n] counts the reads of value n by
    distinct subtrees, plus one for each root it is; consts holds (n, value) per literal; roots are the
    numbers of the outputs, then of the checked trees that are not finite literals.
    """
    number, keyed = {}, {name: i for i, name in enumerate(varnames)}  # id(node) -> number; key -> number
    reads, nodes, consts, missing = [0] * len(varnames), [], [], []

    def walk(e):
        kind = e.__class__
        if kind is Var or kind is Lit:
            key = e.name if kind is Var else repr(e.value)
            n = keyed.get(key)
            if n is None:
                n = keyed[key] = len(reads)
                reads.append(0)
                if kind is Lit:
                    consts.append((n, e.value))
                else:
                    missing.append(e.name)
            return n
        n = number.get(id(e))
        if n is not None:
            return n
        if kind is Bin:
            key = (e.op, walk(e.left), walk(e.right))
        elif kind is Call:
            key = (e.fn, walk(e.arg))
        else:
            key = ("neg", walk(e.operand))
        n = keyed.get(key)
        if n is None:
            n = keyed[key] = len(reads)
            reads.append(0)
            reads[key[1]] += 1
            if kind is Bin:
                reads[key[2]] += 1
            nodes.append((n, key, e))
        number[id(e)] = n
        return n

    trees = [*outputs, *[e for e in checked if not (isinstance(e, Lit) and math.isfinite(e.value))]]
    try:
        roots = list(map(walk, trees))
    except RecursionError:  # far deeper than _MAX_DEPTH
        return None
    if len(reads) > _MAX_DEPTH:  # a tree has at most one level per distinct subtree
        height = [1] * len(reads)
        for n, key, _ in nodes:
            height[n] = 1 + max(height[k] for k in key[1:])
        if max(height) > _MAX_DEPTH:
            return None
    if missing:
        raise UnboundVariableError(f"variables {sorted(set(missing))} not provided by {varnames}")
    for n in roots:
        reads[n] += 1
    return nodes, reads, consts, roots


def plan_kernel(outputs, checked=(), varnames=_XS):
    """The trees in varnames as a kernel for arrays: kernel.batch(*xs) gives each output's values, the
    scalar kernel's (compile_kernel's) elementwise, and no source is written or compiled.  None for a tree
    deeper than _MAX_DEPTH: the caller keeps its per-expression path.  UnboundVariableError for a variable
    not in varnames.

    Each distinct subtree of the layout is one step, in post-order, which applies its operator's function
    (_BATCH_NS's in batch) to its operands' registers; a literal's register holds its Python float.  A
    step takes a register whose value has no read left; a root's reads never run out, so the registers of
    the outputs and checked trees are never given away.
    """
    laid = layout(outputs, checked, varnames)
    if laid is None:
        return None
    nodes, reads, consts, roots = laid
    reg = list(range(len(reads)))  # number -> register: the arguments', then the literals', then the steps'
    registers, free, steps = [], [], []
    for n, value in consts:
        reg[n] = len(varnames) + len(registers)
        registers.append(value)
    for n, key, _ in nodes:
        a, b = key[1], key[-1]  # b is a for a step of one operand
        reads[a] -= 1
        if len(key) == 3:
            reads[b] -= 1
        died = 0
        if reads[a] == 0:  # n is a's last reader
            free.append(reg[a])
            died += 1
        if reads[b] == 0 and b != a:
            free.append(reg[b])
            died += 1
        if free:
            r = free.pop()
        else:
            r = len(varnames) + len(registers)
            registers.append(None)
        reg[n] = r
        # where both operands die, the register the step does not take is emptied after it
        steps.append((key[0], r, reg[a], reg[b] if len(key) == 3 else -1, free[-1] if died == 2 else -1))
    n_out = len(outputs)
    return _Plan(len(varnames), registers, steps, [reg[n] for n in roots[:n_out]],
                 [reg[n] for n in dict.fromkeys(roots[n_out:])])


class _Plan:
    """A register plan (plan_kernel): its register file, steps, outputs and checked values."""

    __slots__ = ("arity", "registers", "steps", "outputs", "checked")

    def __init__(self, arity, registers, steps, outputs, checked):
        self.arity, self.registers, self.steps, self.outputs, self.checked = arity, registers, steps, outputs, checked

    def batch(self, *xs):
        """The outputs' values on float arrays of one shape, each broadcast to that shape, and its faults:
        BatchFault on any fault, non-finite output or non-finite sum of the distinct checked values."""
        return _run_on_arrays(lambda xs: self.run(_BATCH_NS, xs), xs)

    def run(self, ops, xs):
        """The outputs' values on xs, each step calling ops[its operator] (expr._BATCH_NS on arrays,
        expr._FLOAT_OPS on floats); DomainEvalError where the sum of the checked values is not finite."""
        if len(xs) != self.arity:
            raise TypeError(f"kernel() takes {self.arity} positional arguments but {len(xs)} were given")
        regs = [*xs, *self.registers]
        for op, r, a, b, dead in self.steps:
            regs[r] = ops[op](regs[a]) if b < 0 else ops[op](regs[a], regs[b])
            if dead >= 0:
                regs[dead] = None
        if self.checked:
            first, *rest = self.checked
            total = regs[first]
            for r in rest:
                total = total + regs[r]
            if not _all_finite(total):  # a domain fault, so a BatchFault, as the scalar kernel's test raises
                raise DomainEvalError("non-finite value")
        return [regs[r] for r in self.outputs]
