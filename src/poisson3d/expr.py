"""Expression mini-language: parser, printer, evaluator, symbolic derivative.

Scalar formulas entering system definitions (densities, primitives, eta,
Hamiltonians) are written in a small fixed language over the variables
x1, x2, x3 (3-D fields) and u (one-variable fields), with operators
+ - * / ^ (right-associative ^, binding tighter than unary minus), and
the functions exp, ln, sin, cos, sqrt, abs, sign.

Semantics are IEEE double; any evaluation that leaves the real domain or
produces a non-finite value raises DomainEvalError.  sign(0) is declared
undefined (it backs the derivative of abs, which has no value at 0).
"""

from __future__ import annotations

import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import repeat
from types import FunctionType

import numpy as np

from .errors import (
    DomainEvalError,
    ParseError,
    PoissonError,
    UnboundVariableError,
    UnknownIdentifierError,
)

VARIABLES = ("x1", "x2", "x3", "u")
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs", "sign")
_TOO_DEEP = "expression is nested too deeply"
_MAX_DEPTH = 200  # compile_expr compiles every tree of at most this many levels


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    """A tree node.

    + - * / with a tree or a number on the right, and unary minus, build
    plain Bin and Neg nodes, unfolded, so a formula written for floats
    builds the tree of its own operations when given trees
    (docs/decisions.md, D6).
    """

    def __add__(self, other):
        return _bin("+", self, other)

    def __sub__(self, other):
        return _bin("-", self, other)

    def __mul__(self, other):
        return _bin("*", self, other)

    def __truediv__(self, other):
        return _bin("/", self, other)

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


def _bin(op: str, a: Expr, b):
    if isinstance(b, (int, float)):
        b = Lit(float(b))
    return Bin(op, a, b) if isinstance(b, Expr) else NotImplemented


def lit(v: float) -> Lit:
    return Lit(float(v))


def var(name: str) -> Var:
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    return Var(name)


def pow_(a: Expr, b: Expr) -> Bin:
    return Bin("^", a, b)


def call(fn: str, a: Expr) -> Call:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, a)


# --------------------------------------------------------------------------
# Scalar primitives with explicit domain semantics


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    raise DomainEvalError("sign(0) is undefined")


def _pow(a: float, b: float) -> float:
    if b == 2.0:
        # one IEEE multiplication: correctly rounded, where libm's pow(a, 2) can
        # be an ulp off (docs/decisions.md, D4); float() keeps an np.float64
        # base from warning on overflow, which raises pow's error instead
        a = float(a)
        v = a * a
        if v == math.inf and math.isfinite(a):
            raise OverflowError("math range error")
        return v
    # negative base with non-integer exponent would be complex; refuse it
    # rather than let it turn into NaN downstream
    if a < 0.0 and not float(b).is_integer():
        raise DomainEvalError(f"negative base {a!r} with non-integer exponent {b!r}")
    return math.pow(a, b)


def _ln(v: float) -> float:
    if v <= 0.0:
        raise DomainEvalError(f"ln of non-positive value {v!r}")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainEvalError(f"sqrt of negative value {v!r}")
    return math.sqrt(v)


_FN_IMPL = {
    "exp": math.exp,
    "ln": _ln,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": _sqrt,
    "abs": abs,
    "sign": _sign,
}


# --------------------------------------------------------------------------
# Tokenizer / parser

_OPS = set("+-*/^()")


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad numeric literal {text!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows to {value!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _fold_unary(node: Expr) -> Expr:
    if isinstance(node, Neg) and isinstance(node.operand, Lit):
        return Lit(-node.operand.value)
    if isinstance(node, Call) and isinstance(node.arg, Lit):
        try:
            v = _FN_IMPL[node.fn](node.arg.value)
        except (DomainEvalError, ValueError, OverflowError):
            return node
        return Lit(v) if math.isfinite(v) else node
    return node


def _fold_bin(node: Expr) -> Expr:
    if isinstance(node, Bin) and isinstance(node.left, Lit) and isinstance(node.right, Lit):
        try:
            v = _apply_bin(node.op, node.left.value, node.right.value)
        except (DomainEvalError, ValueError, OverflowError, ZeroDivisionError):
            return node
        return Lit(v) if math.isfinite(v) else node
    return node


def _apply_bin(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return _pow(a, b)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = _fold_bin(Bin(op, node, self.parse_term()))
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = _fold_bin(Bin(op, node, self.parse_unary()))
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return _fold_unary(Neg(self.parse_unary()))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent at unary level gives right associativity: 2^3^2 = 512
            return _fold_bin(Bin("^", base, self.parse_unary()))
        return base

    def parse_atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Lit(value)
        if kind == "(":
            node = self.parse_sum()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {value!r}", offset)
                self.advance()
                argument = self.parse_sum()
                self.expect(")")
                return _fold_unary(Call(value, argument))
            if value not in VARIABLES:
                raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
            return Var(value)
        raise ParseError(f"expected a value, found {value!r}" if value else "unexpected end of input", offset)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree.

    Literal-only subtrees are constant-folded when this keeps the value
    finite and defined, so parse(print(parse(s))) == parse(s) holds with
    tree equality for every valid input s.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    try:
        node = parser.parse_sum()
    except RecursionError:
        raise ParseError(_TOO_DEEP, parser.peek()[2]) from None
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", offset)
    level, depth = [node], 0  # level by level: the recursive tree walkers would overflow the stack
    while level:
        level, depth = [c for n in level for c in vars(n).values() if isinstance(c, Expr)], depth + 1
    if depth > _MAX_DEPTH:  # Python compiles no deeper nesting of the brackets _gen writes around each node
        raise ParseError(_TOO_DEEP, 0)
    return node


# --------------------------------------------------------------------------
# Printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _BIN_PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Lit) and math.copysign(1.0, e.value) < 0:
        # negative literals print with a leading minus and must be guarded
        # like a unary expression
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, need_parens: bool) -> str:
    s = to_source(e)
    return f"({s})" if need_parens else s


def to_source(e: Expr) -> str:
    """Render a tree to parseable text with minimal parentheses."""
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _prec(e.operand) < _PREC_NEG)
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Bin):
        p = _BIN_PREC[e.op]
        if e.op == "^":
            # right-associative; the exponent reparses at unary level
            left = _wrap(e.left, _prec(e.left) <= p)
            right = _wrap(e.right, _prec(e.right) < _PREC_NEG)
        else:
            left = _wrap(e.left, _prec(e.left) < p)
            right = _wrap(e.right, _prec(e.right) <= p)
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Evaluation


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    return set()


def eval_expr(e: Expr, env: dict[str, float]) -> float:
    """Reference tree-walking evaluator: compile_expr's value and error text on floats (its fast path).

    As in compiled code, an intermediate may be inf or NaN; only the result must be finite.
    """
    v = _eval(e, env)
    if not math.isfinite(v):
        raise DomainEvalError(f"non-finite result {v!r}")
    return v


def _eval(e: Expr, env) -> float:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Call):
        try:
            return _FN_IMPL[e.fn](_eval(e.arg, env))
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(str(exc)) from None
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    try:
        return _apply_bin(e.op, a, b)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainEvalError(str(exc)) from None


def _gen(e: Expr, operand) -> str:
    """Python source of one node; operand(child) renders each child."""
    if isinstance(e, Bin):
        if e.op == "^":
            return f"_pow({operand(e.left)}, {operand(e.right)})"
        return f"({operand(e.left)} {e.op} {operand(e.right)})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        return f"({e.value!r})"
    if isinstance(e, Call):
        return f"{e.fn}({operand(e.arg)})"
    return f"(-{operand(e.operand)})"


# --------------------------------------------------------------------------
# Bindings.  The scalar binding runs _gen's source on floats with the
# primitives above.  The batch binding is the register plan (plan.py), which
# runs the same operations over numpy arrays, bit-identical to the scalar
# binding wherever it does not fault: + - * / and negation are IEEE-exact
# array operators, and sqrt and abs are correctly rounded, so they stay
# numpy, and so does ^2, which _pow takes as one multiplication; exp, ln,
# sin, cos and other powers run the math.* functions elementwise (ln and ^
# after their domain rule as one array test), because numpy's vectorized
# versions differ from math.* in the last ulp (docs/decisions.md, D4).


class BatchFault(Exception):
    """A batch evaluation or a kernel faulted somewhere; replay through the per-expression scalar path."""


_FAULTS = (DomainEvalError, ValueError, OverflowError, ZeroDivisionError, FloatingPointError)


_HELD = ContextVar("batch_arithmetic_held", default=False)  # the fault rule's errstate is in force here


class batch_arithmetic:
    """The batch binding's fault rule, also for array arithmetic on its results: floating-point
    exceptions other than underflow raise, and a domain fault or floating-point exception is a BatchFault.

    Nested in one that holds the errstate, in the same context, it enters no errstate of its own; code
    inside a pass does not change numpy's errstate around an array call (docs/decisions.md, D12).
    """

    def __enter__(self):
        if _HELD.get():
            self.state = None
            return
        self.state = np.errstate(all="raise", under="ignore")
        self.state.__enter__()
        self.token = _HELD.set(True)

    def __exit__(self, kind, exc, tb):
        if self.state is not None:
            _HELD.reset(self.token)
            self.state.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, _FAULTS):
            raise BatchFault(str(exc)) from None


def batched(on_arrays, per_point):
    """on_arrays() under batch_arithmetic; per_point(), outside it, where that raises BatchFault or a PoissonError.

    The one fault rule of every array pass (docs/decisions.md, D12): the
    per-point reference replays the pass and returns its result or raises
    the first failure in point order.  Any other exception is a program
    error and propagates.
    """
    try:
        with batch_arithmetic():  # looked up per call, so a test can force every per-point path
            return on_arrays()
    except (BatchFault, PoissonError):
        pass
    return per_point()


def _elementwise(fn):
    def apply(a):
        a = np.asarray(a, dtype=float)
        return np.array(list(map(fn, a.ravel().tolist()))).reshape(a.shape)

    return apply


def _batch_pow(a, b):
    # _pow's domain rule as one array test, then _pow's value per element
    a = np.asarray(a, dtype=float)
    if b.__class__ is float and b.is_integer():  # a literal integer exponent: the rule cannot fire
        if b == 2.0:  # _pow's product; an overflow raises under batch_arithmetic
            return a * a
        return np.array(list(map(math.pow, a.ravel().tolist(), repeat(b)))).reshape(a.shape)
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    if np.any((a < 0.0) & ~(np.isfinite(b) & (b == np.floor(b)))):
        raise DomainEvalError("negative base with non-integer exponent")
    return np.array(list(map(_pow, a.ravel().tolist(), b.ravel().tolist()))).reshape(a.shape)


def _batch_ln(a):
    # _ln's domain rule as one array test, then math.log per element
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise DomainEvalError("ln of non-positive value")
    return np.array(list(map(math.log, a.ravel().tolist()))).reshape(a.shape)


def _batch_sign(a):
    if np.any(a == 0.0):
        raise DomainEvalError("sign(0) is undefined")
    return np.sign(a)


def _all_finite(v) -> bool:
    """Every element of v finite."""
    return bool(np.isfinite(v).all())


def _shaped(v, shape):
    """v broadcast to shape, read-only, as np.broadcast_to gives it; an array of that shape as a cheaper view."""
    if not (isinstance(v, np.ndarray) and v.shape == shape):
        return np.broadcast_to(v, shape)
    v = v.view()
    v.flags.writeable = False
    return v


def _run_on_arrays(run, xs):
    """run(*xs) on float arrays of one shape under batch_arithmetic, each value broadcast to that shape.

    The register plan's ending (plan.py), here with D12's fault rule: BatchFault on any fault, or where a
    value has an element that is not finite.
    """
    with batch_arithmetic():
        values = tuple(map(_shaped, run(*xs), repeat(np.shape(xs[0]))))
    if not all(map(_all_finite, values)):
        raise BatchFault("non-finite result")
    return values


_SCALAR_NS = {**_FN_IMPL, "_pow": _pow, "isfinite": math.isfinite, "BatchFault": BatchFault, "__builtins__": {}}
_BATCH_NS = {  # a plan step's function, by its node's operator, "neg" for negation, or function name
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": _batch_pow,
    "neg": operator.neg,
    **{name: _elementwise(_FN_IMPL[name]) for name in ("exp", "sin", "cos")},
    "ln": _batch_ln,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": _batch_sign,
}
_XS = ("x1", "x2", "x3")


def compile_expr(e: Expr, varnames: tuple[str, ...] = _XS):
    """Compile a tree into one positional callable f(*varnames) for floats or arrays.

    Floats (np.float64 included) run the tree's one-output kernel (compile_kernel's writer's for (e,)),
    written and compiled on the first float call, on the scalar binding, which raises DomainEvalError, with
    the text of the first error a walk of the tree raises, on out-of-domain input or a non-finite result.
    Float arrays of one shape run the tree's register plan (plan_kernel), built on the first array call,
    which writes no source: an array of that shape, elementwise equal, or BatchFault on any fault, after
    which the caller replays the points on floats.  UnboundVariableError is raised here, ParseError on the
    first call for a tree deeper than _MAX_DEPTH.
    """
    missing = free_vars(e) - set(varnames)
    if missing:
        raise UnboundVariableError(f"variables {sorted(missing)} not provided by {varnames}")
    return _OneOutput(e, varnames)


class _OneOutput:
    """compile_expr's callable."""

    __slots__ = ("tree", "varnames", "_kernel", "_plan")

    def __init__(self, tree: Expr, varnames: tuple[str, ...]):
        self.tree, self.varnames, self._kernel, self._plan = tree, varnames, None, None

    @property
    def source(self):
        """The kernel's source; None for a tree deeper than _MAX_DEPTH."""
        return self._kernel.source if self._kernel else _kernel_source((self.tree,), (), self.varnames)

    def __call__(self, *args):
        a = args[0] if args else 0.0  # a tree without variables takes no arguments
        # exact floats, the integrators' per-step case, skip the slower isinstance test
        if a.__class__ is not float and isinstance(a, np.ndarray):
            plan = self._plan
            if plan is None:
                plan = self._plan = _plan_of((self.tree,), (), self.varnames)
                if plan is None:
                    raise ParseError(_TOO_DEEP, 0)
            return plan.batch(*args)[0]
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = _kernel_of(_kernel_source((self.tree,), (), self.varnames))
            if kernel is None:
                raise ParseError(_TOO_DEEP, 0)
        try:
            (v,) = kernel(*args)
        except DomainEvalError:
            raise
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainEvalError(str(exc)) from None
        if not math.isfinite(v):
            raise DomainEvalError(f"non-finite result {v!r}")
        return v


def compile_kernel(outputs, checked=()):
    """Compile trees in x1, x2, x3 into one function f(x1, x2, x3) -> tuple of their values.

    Each value is compile_expr's of its tree on floats, each distinct subtree computed once
    (_kernel_source).  It raises BatchFault when the sum of the checked trees' values is not finite, and
    the primitives' errors in walk order; either way the caller replays the call on its per-expression
    path (docs/decisions.md, D6).  None for a tree deeper than _MAX_DEPTH: the caller keeps its
    per-expression path.  UnboundVariableError for a variable other than x1, x2, x3.  The same trees on
    float arrays are plan_kernel's, which compiles nothing.
    """
    return _kernel_of(_kernel_source(outputs, checked, _XS))


def _kernel_source(outputs, checked, varnames):
    """Source of def kernel(*varnames) returning the outputs' values; None for a tree deeper than _MAX_DEPTH.

    It renders the trees' layout (plan.layout), whose keys, read counts, depth test and unbound
    variables it takes as they are.  A subtree read once, by another or by the return, is written into
    its reader; every other one, and each checked tree, gets a line, in post-order.  Before a line that
    can raise, each pending inline text that can raise gets its own line, so the kernel raises the first
    error a walk of the trees raises (docs/decisions.md, D6, D10 and D16).
    """
    laid = layout(outputs, checked, varnames)
    if laid is None:
        return None
    nodes, reads, consts, roots = laid
    text = [*varnames, *[None] * (len(reads) - len(varnames))]  # number -> what a reader writes for it
    for n, value in consts:
        text[n] = _gen(Lit(value), None)
    tested = set(roots[len(outputs):])
    pending, lines = {}, []  # inline number -> (text, raises)

    def operand(c):  # the text of the node's next operand
        nonlocal raises
        k = next(operands)
        if k not in pending:
            return text[k]
        src, its = pending.pop(k)
        raises = raises or its
        return src

    def emit(k, src):
        text[k] = f"_t{len(lines)}"
        lines.append(f"    {text[k]} = {src}")

    for n, key, e in nodes:
        operands, raises = iter(key[1:]), False  # _gen renders the operands in key order
        src = _gen(e, operand)
        raises = raises or key[0] not in ("+", "-", "*", "neg", "abs")  # IEEE gives these inf or NaN
        if reads[n] == 1 and n not in tested:
            pending[n] = (src, raises)
            continue
        if raises:  # the order rule
            for p in [p for p, entry in pending.items() if entry[1]]:
                emit(p, pending.pop(p)[0])
        emit(n, src)
    values = [pending[n][0] if n in pending else text[n] for n in roots]  # the return reads what is pending
    if len(values) > len(outputs):
        lines.append(f"    if not isfinite({' + '.join(dict.fromkeys(values[len(outputs):]))}):")
        lines.append('        raise BatchFault("non-finite value")')
    return "\n".join([f"def kernel({', '.join(varnames)}):", *lines, f"    return {', '.join(values[:len(outputs)])},"])


def _kernel_of(src):
    """The kernel compiled from src on the scalar binding, with .source; None without one."""
    if src is None:
        return None
    try:
        code = compile(src, "<kernel>", "exec").co_consts[0]  # def kernel's code
    except (SyntaxError, RecursionError):  # the writer's source is well formed: only its depth can fail
        return None
    fn = FunctionType(code, _SCALAR_NS)  # the scalar calls run this function itself, with no wrapper
    fn.source = src
    return fn


# --------------------------------------------------------------------------
# Symbolic differentiation

# Tidying constructors fold literal-literal operations and drop exact
# identities (x+0, 1*x, x/1, x^1).  A product with a literal zero becomes
# that zero only when the other factor is total (_total): 0 * sign(f) must
# still fault at f = 0, so zeros next to sign, ln, sqrt, / or a general ^
# stay (docs/decisions.md, D5).

_TOTAL_FNS = ("exp", "sin", "cos", "abs")


def _total(e: Expr) -> bool:
    """True when e is defined at every real point.

    Total trees are built from literals, variables, + - *, negation, exp,
    sin, cos, abs, and ^ with a non-negative integer literal exponent.
    """
    if isinstance(e, (Lit, Var)):
        return True
    if isinstance(e, Neg):
        return _total(e.operand)
    if isinstance(e, Call):
        return e.fn in _TOTAL_FNS and _total(e.arg)
    if e.op == "^":
        c = e.right
        return isinstance(c, Lit) and c.value >= 0.0 and c.value.is_integer() and _total(e.left)
    return e.op != "/" and _total(e.left) and _total(e.right)


def _s_add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Lit) and a.value == 0.0:
        return b
    if isinstance(b, Lit) and b.value == 0.0:
        return a
    return _fold_bin(Bin("+", a, b))


def _s_sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Lit) and b.value == 0.0:
        return a
    if isinstance(a, Lit) and a.value == 0.0:
        return _fold_unary(Neg(b))
    return _fold_bin(Bin("-", a, b))


def _s_mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Lit) and a.value == 1.0:
        return b
    if isinstance(b, Lit) and b.value == 1.0:
        return a
    if isinstance(a, Lit) and a.value == 0.0 and _total(b):
        return a
    if isinstance(b, Lit) and b.value == 0.0 and _total(a):
        return b
    return _fold_bin(Bin("*", a, b))


def _s_div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Lit) and b.value == 1.0:
        return a
    return _fold_bin(Bin("/", a, b))


def _s_pow(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Lit) and b.value == 1.0:
        return a
    return _fold_bin(Bin("^", a, b))


def differentiate(e: Expr, name: str) -> Expr:
    """Symbolic partial derivative with respect to one variable.

    Terms multiplied by a literal zero are dropped where the other factor
    is total (defined at every real point), so a partial carries no dead
    copies of subtrees that do not depend on the variable; its values are
    those of the full product rule up to the sign of an exact zero.  Zeros
    next to a factor that can fault are kept: the derivative of abs is
    sign, and the derivative of sign is a zero that still evaluates sign,
    so both raise DomainEvalError at an argument of exactly 0, where no
    derivative exists.
    """
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    return _diff(e, name)


def _diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Lit):
        return Lit(0.0)
    if isinstance(e, Var):
        return Lit(1.0) if e.name == name else Lit(0.0)
    if isinstance(e, Neg):
        return _fold_unary(Neg(_diff(e.operand, name)))
    if isinstance(e, Call):
        inner = _diff(e.arg, name)
        if e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "ln":
            return _s_div(inner, e.arg)
        elif e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = _fold_unary(Neg(Call("sin", e.arg)))
        elif e.fn == "sqrt":
            return _s_div(inner, _s_mul(Lit(2.0), Call("sqrt", e.arg)))
        elif e.fn == "abs":
            outer = Call("sign", e.arg)
        else:  # sign: zero away from 0, undefined at 0
            outer = _s_mul(Lit(0.0), Call("sign", e.arg))
        return _s_mul(outer, inner)
    if e.op == "+":
        return _s_add(_diff(e.left, name), _diff(e.right, name))
    if e.op == "-":
        return _s_sub(_diff(e.left, name), _diff(e.right, name))
    if e.op == "*":
        return _s_add(
            _s_mul(_diff(e.left, name), e.right),
            _s_mul(e.left, _diff(e.right, name)),
        )
    if e.op == "/":
        da = _diff(e.left, name)
        db = _diff(e.right, name)
        num = _s_sub(_s_mul(da, e.right), _s_mul(e.left, db))
        return _s_div(num, _s_pow(e.right, Lit(2.0)))
    # power rule for a literal exponent, general formula otherwise
    da = _diff(e.left, name)
    db = _diff(e.right, name)
    if isinstance(e.right, Lit):
        c = e.right.value
        return _s_mul(_s_mul(Lit(c), _s_pow(e.left, Lit(c - 1.0))), da)
    general = _s_add(
        _s_mul(db, Call("ln", e.left)),
        _s_div(_s_mul(e.right, da), e.left),
    )
    return _s_mul(Bin("^", e.left, e.right), general)


# --------------------------------------------------------------------------
# Substitution


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of one variable with another expression."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Neg):
        return Neg(substitute(e.operand, name, replacement))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, name, replacement))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    return e


# imported last, since plan.py imports the node classes and the array primitives above from this module;
# _OneOutput builds its plan through its own name, so replacing plan_kernel here leaves it alone
from .plan import layout, plan_kernel, plan_kernel as _plan_of  # noqa: E402
