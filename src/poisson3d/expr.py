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

import contextlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, repeat

import numpy as np

from .errors import (
    DomainEvalError,
    ParseError,
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
    """Reference tree-walking evaluator (compile_expr is the fast path)."""
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
            v = _FN_IMPL[e.fn](_eval(e.arg, env))
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(str(exc)) from None
        return v
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    try:
        v = _apply_bin(e.op, a, b)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainEvalError(str(exc)) from None
    if not math.isfinite(v):
        raise DomainEvalError(f"non-finite intermediate {v!r}")
    return v


def _gen(e: Expr, operand=None) -> str:
    """Python source of one node; operand(child) renders its children, inline by default."""
    sub = operand or _gen
    if isinstance(e, Lit):
        return f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{sub(e.operand)})"
    if isinstance(e, Call):
        return f"{e.fn}({sub(e.arg)})"
    if e.op == "^":
        return f"_pow({sub(e.left)}, {sub(e.right)})"
    return f"({sub(e.left)} {e.op} {sub(e.right)})"


# --------------------------------------------------------------------------
# Bindings of _gen's source.  The scalar binding runs the primitives above on
# floats.  The batch binding runs the same source over numpy arrays,
# bit-identical to the scalar binding wherever it does not fault: + - * /
# and negation are IEEE-exact array operators, and sqrt and abs are
# correctly rounded, so they stay numpy, and so does ^2, which _pow takes
# as one multiplication; exp, ln, sin, cos and other powers run the scalar
# implementations elementwise, because numpy's vectorized versions differ
# from math.* in the last ulp (docs/decisions.md, D4).

_SCALAR_NS = {**_FN_IMPL, "_pow": _pow}


class BatchFault(Exception):
    """A batch evaluation or a kernel faulted somewhere; replay through the per-expression scalar path."""


_FAULTS = (DomainEvalError, ValueError, OverflowError, ZeroDivisionError, FloatingPointError)


@contextlib.contextmanager
def batch_arithmetic():
    """The batch binding's fault rule, also for array arithmetic on its results.

    Floating-point exceptions other than underflow raise, and any domain
    fault or floating-point exception becomes a BatchFault.
    """
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except _FAULTS as exc:
        raise BatchFault(str(exc)) from None


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


def _batch_sign(a):
    if np.any(a == 0.0):
        raise DomainEvalError("sign(0) is undefined")
    return np.sign(a)


_BATCH_NS = {
    **{name: _elementwise(_FN_IMPL[name]) for name in ("exp", "ln", "sin", "cos")},
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": _batch_sign,
    "_pow": _batch_pow,
}


def compile_expr(e: Expr, varnames: tuple[str, ...] = ("x1", "x2", "x3")):
    """Compile a tree into one positional callable f(*varnames) for floats or arrays.

    The first argument picks the binding.  Floats (np.float64 included) run
    the scalar binding, which raises DomainEvalError on out-of-domain input
    or a non-finite result.  Float arrays of one shape run the batch
    binding and give an array of that shape, elementwise equal to the
    scalar values; any domain fault, floating-point exception (underflow
    aside) or non-finite result raises BatchFault instead of naming the
    point, and the caller replays the points through the scalar binding,
    which raises the first fault in index order.

    UnboundVariableError is raised here if the tree references a variable
    outside varnames.  The source is generated here, compiled on the first
    call, and bound to each namespace the first time that binding is used.
    """
    missing = free_vars(e) - set(varnames)
    if missing:
        raise UnboundVariableError(f"variables {sorted(missing)} not provided by {varnames}")
    src = _gen(e)
    code = None
    # closure cells, not globals or keyword defaults: the cheapest lookups per scalar call
    ndarray, isfinite = np.ndarray, math.isfinite

    def bind(namespace):
        nonlocal code
        if code is None:
            try:
                code = compile(f"lambda {', '.join(varnames)}: {src}", "<expr>", "eval")
            except (SyntaxError, RecursionError):  # _gen's source is well formed: only its depth can fail
                raise ParseError(_TOO_DEEP, 0) from None
        return eval(code, dict(namespace, __builtins__={}))

    # each stub binds on its first call and replaces itself with the bound lambda
    def on_floats(*args):
        nonlocal on_floats
        on_floats = bind(_SCALAR_NS)
        return on_floats(*args)

    def on_arrays(*args):
        nonlocal on_arrays
        on_arrays = bind(_BATCH_NS)
        return on_arrays(*args)

    def fn(*args):
        a = args[0] if args else 0.0  # a tree without variables takes no arguments
        # exact floats, the integrators' per-step case, skip the slower isinstance test
        if a.__class__ is not float and isinstance(a, ndarray):
            with batch_arithmetic():
                v = np.broadcast_to(on_arrays(*args), np.shape(a))
            if not np.all(np.isfinite(v)):
                raise BatchFault("non-finite result")
            return v
        try:
            v = on_floats(*args)
        except DomainEvalError:
            raise
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainEvalError(str(exc)) from None
        if not isfinite(v):
            raise DomainEvalError(f"non-finite result {v!r}")
        return v

    fn.source = src
    fn.varnames = varnames
    return fn


def compile_kernel(outputs, checked=()):
    """Compile trees in x1, x2, x3 into one function f(x1, x2, x3) -> tuple of their values.

    Each distinct subtree is computed once, into a local: a node's key is
    the source _gen gives it with its children replaced by their locals, so
    equal subtrees share a local and Lit(0.0) and Lit(-0.0), whose reprs
    differ, do not.  A local that only one other subtree reads is written
    inline there, as compile_expr writes it.  The function runs the scalar
    binding's primitives in each tree's own operation order, so every value
    equals the one that compile_expr's callable of that tree returns.

    It raises BatchFault when the value of a tree in checked is not finite,
    and lets the primitives' errors out in its own order; either way the
    caller replays the call through its per-expression path, which raises
    the first error with its usual message (docs/decisions.md, D6).

    f.batch(x1, x2, x3) runs the same source over float arrays of one
    shape, bound to the batch namespace on its first call and run under
    batch_arithmetic: every output is an array of that shape, elementwise
    equal to compile_expr's array callable of its tree, and any fault, a
    non-finite output or a checked value with a non-finite element raises
    BatchFault.

    It returns None when a tree is deeper than parse admits: compile_expr
    may fail to compile that tree, so the caller keeps its per-expression
    path, which stays the reference for values and errors.
    """
    lines, local, seen, names = [], {}, {}, set()  # seen: id(node) -> operand, so a shared node is walked once
    height = {}  # id(node) -> levels below and including it

    def operand(e: Expr) -> str:
        if isinstance(e, Var):
            names.add(e.name)
        if isinstance(e, (Lit, Var)):
            return _gen(e)
        if id(e) not in seen:
            src = _gen(e, operand)
            if src not in local:
                local[src] = f"_t{len(local)}"
                lines.append((local[src], src))
            seen[id(e)] = local[src]
            children = (e.left, e.right) if isinstance(e, Bin) else (e.arg,) if isinstance(e, Call) else (e.operand,)
            height[id(e)] = 1 + max(height.get(id(c), 1) for c in children)
        return seen[id(e)]

    try:
        results = [operand(e) for e in outputs]
        # a finite literal needs no test
        checks = [operand(e) for e in checked if not (isinstance(e, Lit) and math.isfinite(e.value))]
    except RecursionError:  # far deeper than _MAX_DEPTH
        return None
    if max(height.get(id(e), 1) for e in (*outputs, *checked)) > _MAX_DEPTH:
        return None
    missing = names - {"x1", "x2", "x3"}
    if missing:
        raise UnboundVariableError(f"variables {sorted(missing)} not provided by ('x1', 'x2', 'x3')")
    lines, name = _kernel_body(lines, {*results, *checks})
    results = [name.get(r, r) for r in results]
    tests = dict.fromkeys(f"isfinite({name.get(c, c)})" for c in checks)
    if tests:
        lines.append(f"    if not ({' and '.join(tests)}):")
        lines.append('        raise BatchFault("non-finite value")')
    src = "\n".join(["def kernel(x1, x2, x3):", *lines, f"    return ({', '.join(results)},)"])
    code = compile(src, "<kernel>", "exec")  # a line nests no deeper than its tree

    def bind(namespace, isfinite):
        namespace = dict(namespace, isfinite=isfinite, BatchFault=BatchFault, __builtins__={})
        exec(code, namespace)
        return namespace["kernel"]

    on_arrays = None

    def batch(x1, x2, x3):
        nonlocal on_arrays
        if on_arrays is None:
            on_arrays = bind(_BATCH_NS, _all_finite)
        with batch_arithmetic():
            values = tuple(np.broadcast_to(v, np.shape(x1)) for v in on_arrays(x1, x2, x3))
        if not all(map(_all_finite, values)):
            raise BatchFault("non-finite result")
        return values

    fn = bind(_SCALAR_NS, math.isfinite)  # the scalar calls run this function itself, with no wrapper
    fn.batch = batch
    fn.source = src
    return fn


_LOCAL = re.compile(r"_t\d+")


def _kernel_body(assignments, roots):
    """Body lines from the walk's (local, source) pairs, and the new name of each local kept.

    A local that just one later source reads, and that is no root, is
    written into that source, as compile_expr would write it, so its value
    lives on the interpreter's stack.  Each local kept gives its name to
    the next new value once its last reader has run, so on arrays a dead
    value is released there instead of at the return.  No operation,
    operand or line order changes.
    """
    reads = [_LOCAL.findall(src) for _, src in assignments]
    uses = Counter(chain.from_iterable(reads))
    inline = {t for t, _ in assignments if uses[t] == 1 and t not in roots}
    reader = {k: n for n, names in enumerate(reads) for k in names}
    home = list(range(len(assignments)))  # the kept line that holds line n's value
    for n in reversed(range(len(assignments))):
        if assignments[n][0] in inline:
            home[n] = home[reader[assignments[n][0]]]
    last = {}  # a kept local's last reader; an inlined reader reads it where it is written in
    for n, names in enumerate(reads):
        for k in names:
            if k not in inline:
                last[k] = max(last.get(k, 0), home[n])
    dies = {}
    for k, n in last.items():
        if k not in roots:
            dies.setdefault(n, []).append(k)
    name, text, free, fresh, lines = {}, {}, [], count(), []
    for n, (target, src) in enumerate(assignments):
        src = _LOCAL.sub(lambda m: text.pop(m.group()) if m.group() in inline else name[m.group()], src)
        if target in inline:
            text[target] = src
            continue
        free += [name[k] for k in dies.get(n, ())]
        name[target] = free.pop() if free else f"_t{next(fresh)}"
        lines.append(f"    {name[target]} = {src}")
    return lines, name


def _all_finite(v) -> bool:
    """The batch binding's isfinite: every element finite."""
    return bool(np.isfinite(v).all())


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
