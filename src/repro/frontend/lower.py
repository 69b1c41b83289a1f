"""Lowering: C-subset AST -> data-flow graph (the Fig. 1 front-end).

Every scalar of the kernel is a *bulk bit-vector* (one lane per data
element), so the only legal vector operators are ``& | ^ ~``.  Integer
arithmetic lives exclusively in constant contexts — array sizes, loop
bounds and steps, and array indices — and is folded at lowering time while
``for`` loops are statically unrolled, exactly like the per-iteration DFG
of Fig. 3b.

Input/output convention:

* reading a parameter (or parameter array element) that was never written
  creates a DFG input named ``p`` / ``p[i]``;
* a parameter (or element) the kernel assigns becomes a DFG output with the
  same name, holding its final value;
* ``return expr;`` adds an output named ``return``.
"""

from __future__ import annotations

import math

from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import OpType
from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast

#: refuse to unroll loops beyond this many total iterations
MAX_UNROLL = 1 << 20

_VECTOR_OPS = {"&": OpType.AND, "|": OpType.OR, "^": OpType.XOR}


def _trip_count(start: int, bound: int, step: int, op: str) -> int | None:
    """Iterations of ``for (v = start; v op bound; v += step)``.

    ``step`` is nonzero; ``None`` means the loop never ends.
    """
    if op == "!=":
        distance = bound - start
        if distance % step or distance // step < 0:
            return None
        return distance // step
    if op in (">", ">="):  # mirror onto the ascending forms
        start, bound, step = -start, -bound, -step
        op = "<" if op == ">" else "<="
    if op == "<=":
        bound += 1
    if start >= bound:
        return 0
    if step < 0:
        return None
    return -(-(bound - start) // step)


class _Scope:
    """Name environment: vectors, arrays of vectors, and loop constants."""

    def __init__(self) -> None:
        self.vectors: dict[str, int | None] = {}  # name -> operand id
        self.arrays: dict[str, dict[int, int]] = {}  # name -> index -> id
        self.array_sizes: dict[str, int | None] = {}
        self.consts: dict[str, int] = {}  # loop variables
        self.params: set[str] = set()
        self.written_params: dict[str, int] = {}  # qualified name -> id


class Lowerer:
    """Lower one function to a :class:`DataFlowGraph`."""

    def __init__(self, function: ast.Function) -> None:
        self.function = function
        self.dag = DataFlowGraph(function.name)
        self.scope = _Scope()
        self.return_value: int | None = None
        #: loop bodies lowered so far, across every loop of the function
        self._unrolled = 0
        #: iterations still to come of each enclosing loop, this one included
        self._remaining: list[int] = []

    # ------------------------------------------------------------------
    def lower(self) -> DataFlowGraph:
        """Run the lowering; returns the validated DFG."""
        for param in self.function.params:
            self._declare_param(param)
        self._lower_block(self.function.body)
        for qualified, oid in sorted(self.scope.written_params.items()):
            self.dag.mark_output(oid, qualified)
        if self.return_value is not None:
            self.dag.mark_output(self.return_value, "return")
        if not self.dag.outputs:
            raise FrontendError(
                f"kernel {self.function.name!r} produces no outputs: "
                "assign to a parameter or add a return")
        self.dag.validate()
        return self.dag

    def _declare_param(self, param: ast.Param) -> None:
        if param.array_size is not None:
            size = self._const_expr(param.array_size)
            if size < 1:
                raise FrontendError(
                    f"parameter {param.name!r} has non-positive size {size}")
            self.scope.arrays[param.name] = {}
            self.scope.array_sizes[param.name] = size
        else:
            self.scope.vectors[param.name] = None  # input made lazily on read
        self.scope.params.add(param.name)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _lower_block(self, stmts: tuple[ast.Stmt, ...]) -> None:
        for stmt in stmts:
            if self.return_value is not None:
                raise FrontendError(
                    f"statement after return at line {stmt.line}")
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Decl):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self.return_value = self._vector_expr(stmt.value)
        else:  # pragma: no cover - parser only produces the above
            raise FrontendError(f"unsupported statement at line {stmt.line}")

    def _lower_decl(self, stmt: ast.Decl) -> None:
        if stmt.name in self.scope.vectors or stmt.name in self.scope.arrays:
            raise FrontendError(
                f"redeclaration of {stmt.name!r} at line {stmt.line}")
        if stmt.array_size is not None:
            size = self._const_expr(stmt.array_size)
            if size < 1:
                raise FrontendError(
                    f"array {stmt.name!r} has non-positive size {size}")
            self.scope.arrays[stmt.name] = {}
            self.scope.array_sizes[stmt.name] = size
        else:
            init = None if stmt.init is None else self._vector_expr(stmt.init)
            self.scope.vectors[stmt.name] = init

    def _lower_assign(self, stmt: ast.Assign) -> None:
        value = self._vector_expr(stmt.value)
        if stmt.op != "=":
            current = self._read_lvalue(stmt.lhs)
            value = self.dag.add_op(_VECTOR_OPS[stmt.op[0]], [current, value])
        self._write_lvalue(stmt.lhs, value)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.var in self.scope.consts:
            raise FrontendError(
                f"loop variable {stmt.var!r} shadows an outer loop "
                f"at line {stmt.line}")
        start = self._const_expr(stmt.init)
        bound = self._const_expr(stmt.bound)
        if stmt.step == 0:
            raise FrontendError(f"zero loop step at line {stmt.line}")
        trips = _trip_count(start, bound, stmt.step, stmt.cond_op)
        if trips is None:
            raise FrontendError(
                f"loop at line {stmt.line} never ends ({stmt.var} starts at "
                f"{start}, steps by {stmt.step}, tests {stmt.cond_op} "
                f"{bound})")
        # every remaining iteration of the enclosing loops runs this loop
        # again: project that work before lowering any of it (assuming
        # this entry's trip count repeats, so a nest whose inner bounds
        # shrink with an outer variable is projected high)
        if self._unrolled + trips * math.prod(self._remaining) > MAX_UNROLL:
            raise FrontendError(
                f"loop at line {stmt.line} unrolls beyond {MAX_UNROLL} "
                "iterations in total")
        self._remaining.append(trips)
        for index in range(trips):
            self._unrolled += 1
            self.scope.consts[stmt.var] = start + index * stmt.step
            self._lower_block(stmt.body)
            self._remaining[-1] -= 1
        self._remaining.pop()
        self.scope.consts.pop(stmt.var, None)

    # ------------------------------------------------------------------
    # l-values
    # ------------------------------------------------------------------
    def _read_lvalue(self, lhs: ast.Var | ast.Index) -> int:
        if isinstance(lhs, ast.Var):
            return self._read_scalar(lhs.name, lhs.line)
        return self._read_element(lhs.base, self._const_expr(lhs.index), lhs.line)

    def _write_lvalue(self, lhs: ast.Var | ast.Index, value: int) -> None:
        if isinstance(lhs, ast.Var):
            if lhs.name in self.scope.consts:
                raise FrontendError(
                    f"cannot assign to loop variable {lhs.name!r} "
                    f"at line {lhs.line}")
            if lhs.name not in self.scope.vectors:
                raise FrontendError(
                    f"assignment to undeclared {lhs.name!r} at line {lhs.line}")
            self.scope.vectors[lhs.name] = value
            if lhs.name in self.scope.params:
                self.scope.written_params[lhs.name] = value
            return
        index = self._const_expr(lhs.index)
        self._check_bounds(lhs.base, index, lhs.line)
        self.scope.arrays[lhs.base][index] = value
        if lhs.base in self.scope.params:
            self.scope.written_params[f"{lhs.base}[{index}]"] = value

    def _check_bounds(self, base: str, index: int, line: int) -> None:
        if base not in self.scope.arrays:
            raise FrontendError(f"{base!r} is not an array at line {line}")
        size = self.scope.array_sizes[base]
        if size is not None and not 0 <= index < size:
            raise FrontendError(
                f"index {index} out of bounds for {base!r}[{size}] "
                f"at line {line}")

    def _read_scalar(self, name: str, line: int) -> int:
        if name in self.scope.consts:
            raise FrontendError(
                f"loop variable {name!r} used as a vector at line {line}")
        if name not in self.scope.vectors:
            raise FrontendError(f"unknown variable {name!r} at line {line}")
        value = self.scope.vectors[name]
        if value is None:
            if name in self.scope.params:
                value = self.dag.add_input(name)
                self.scope.vectors[name] = value
            else:
                raise FrontendError(
                    f"{name!r} read before assignment at line {line}")
        return value

    def _read_element(self, base: str, index: int, line: int) -> int:
        self._check_bounds(base, index, line)
        elements = self.scope.arrays[base]
        if index not in elements:
            if base in self.scope.params:
                elements[index] = self.dag.add_input(f"{base}[{index}]")
            else:
                raise FrontendError(
                    f"{base}[{index}] read before assignment at line {line}")
        return elements[index]

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _vector_expr(self, expr: ast.Expr) -> int:
        """Lower an expression in bit-vector context to an operand id."""
        folded = self._try_const(expr)
        if folded is not None:
            return self._broadcast(folded, expr.line)
        if isinstance(expr, ast.Var):
            return self._read_scalar(expr.name, expr.line)
        if isinstance(expr, ast.Index):
            return self._read_element(expr.base, self._const_expr(expr.index),
                                      expr.line)
        if isinstance(expr, ast.UnOp):
            if expr.op != "~":
                raise FrontendError(
                    f"operator {expr.op!r} is not a bulk-bitwise op "
                    f"at line {expr.line}")
            return self.dag.add_op(OpType.NOT, [self._vector_expr(expr.operand)])
        if isinstance(expr, ast.BinOp):
            if expr.op not in _VECTOR_OPS:
                raise FrontendError(
                    f"operator {expr.op!r} only works on integer constants "
                    f"at line {expr.line}")
            left = self._vector_expr(expr.left)
            right = self._vector_expr(expr.right)
            return self.dag.add_op(_VECTOR_OPS[expr.op], [left, right])
        raise FrontendError(f"unsupported expression at line {expr.line}")

    def _broadcast(self, value: int, line: int) -> int:
        """Integer literal in vector context: 0 and ~0/-1 broadcast."""
        if value == 0:
            return self.dag.add_const(0)
        if value == -1:
            return self.dag.add_const(1)
        raise FrontendError(
            f"only 0 and ~0 broadcast to bit vectors; got {value} "
            f"at line {line}")

    def _try_const(self, expr: ast.Expr) -> int | None:
        """Fold ``expr`` to an integer if it is fully constant."""
        try:
            return self._const_expr(expr)
        except FrontendError:
            return None

    def _const_expr(self, expr: ast.Expr) -> int:
        """Evaluate an integer constant expression (indices, bounds)."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Var):
            if expr.name in self.scope.consts:
                return self.scope.consts[expr.name]
            raise FrontendError(
                f"{expr.name!r} is not an integer constant at line {expr.line}")
        if isinstance(expr, ast.UnOp):
            value = self._const_expr(expr.operand)
            return -value if expr.op == "-" else ~value
        if isinstance(expr, ast.BinOp):
            left = self._const_expr(expr.left)
            right = self._const_expr(expr.right)
            ops = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right,
                "%": lambda: left % right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
            }
            if expr.op not in ops:
                raise FrontendError(
                    f"operator {expr.op!r} not allowed in constants "
                    f"at line {expr.line}")
            return ops[expr.op]()
        raise FrontendError(f"not a constant expression at line {expr.line}")


def lower_program(program: ast.Program, function: str | None = None) -> DataFlowGraph:
    """Lower a parsed program's kernel function to a DFG."""
    return Lowerer(program.function(function)).lower()
