"""Boolean expressions: AST, text/DIMACS parsing, truth tables, GF(2) normal form.

Conventions shared across the package:

* variables are named ``x0 .. x{n-1}``;
* ``x0`` is the *most significant* bit of a truth-table row index, so row
  ``0b010`` of a 3-variable table is the assignment ``x0=0, x1=1, x2=0``;
* text operator precedence is ``~`` (tightest), then ``&``, ``^``, ``|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ParseError

__all__ = [
    "BoolExpr",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Xor",
    "conj",
    "disj",
    "xorj",
    "canonicalize",
    "max_var_index",
    "parse",
    "render",
    "parse_dimacs_cnf",
    "evaluate",
    "TruthTable",
    "truth_table",
    "AnfForm",
    "anf_coefficients",
    "anf",
    "expand",
    "MAX_TABLE_VARS",
]

MAX_TABLE_VARS = 24


class BoolExpr:
    """Marker base class; every node is an immutable, hashable dataclass."""


@dataclass(frozen=True)
class Var(BoolExpr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise InputError(f"variable index must be a non-negative int, got {self.index!r}")


@dataclass(frozen=True)
class Const(BoolExpr):
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise InputError(f"constant must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Not(BoolExpr):
    child: BoolExpr

    def __post_init__(self):
        if not isinstance(self.child, BoolExpr):
            raise InputError(f"Not child must be a BoolExpr, got {self.child!r}")


def _validated_children(name: str, children) -> tuple[BoolExpr, ...]:
    items = tuple(children)
    if len(items) < 2:
        raise InputError(f"{name} needs at least 2 children, got {len(items)}")
    for c in items:
        if not isinstance(c, BoolExpr):
            raise InputError(f"{name} child must be a BoolExpr, got {c!r}")
    return items


@dataclass(frozen=True)
class And(BoolExpr):
    children: tuple[BoolExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", _validated_children("And", self.children))


@dataclass(frozen=True)
class Or(BoolExpr):
    children: tuple[BoolExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", _validated_children("Or", self.children))


@dataclass(frozen=True)
class Xor(BoolExpr):
    children: tuple[BoolExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", _validated_children("Xor", self.children))


def conj(children: Iterable[BoolExpr]) -> BoolExpr:
    """AND-join; a single operand is returned as-is (no 1-ary nodes)."""
    items = tuple(children)
    if not items:
        raise InputError("cannot AND-join an empty list")
    return items[0] if len(items) == 1 else And(items)


def disj(children: Iterable[BoolExpr]) -> BoolExpr:
    """OR-join; a single operand is returned as-is."""
    items = tuple(children)
    if not items:
        raise InputError("cannot OR-join an empty list")
    return items[0] if len(items) == 1 else Or(items)


def xorj(children: Iterable[BoolExpr]) -> BoolExpr:
    """XOR-join; a single operand is returned as-is."""
    items = tuple(children)
    if not items:
        raise InputError("cannot XOR-join an empty list")
    return items[0] if len(items) == 1 else Xor(items)


def canonicalize(expr: BoolExpr) -> BoolExpr:
    """Flatten nested same-operator chains, e.g. And(And(a,b),c) -> And(a,b,c)."""
    match expr:
        case Var() | Const():
            return expr
        case Not(child=c):
            return Not(canonicalize(c))
        case And(children=ch) | Or(children=ch) | Xor(children=ch):
            node_type = type(expr)
            flat: list[BoolExpr] = []
            for c in ch:
                c = canonicalize(c)
                if isinstance(c, node_type):
                    flat.extend(c.children)
                else:
                    flat.append(c)
            return node_type(tuple(flat))
    raise InputError(f"not a BoolExpr node: {expr!r}")


def max_var_index(expr: BoolExpr) -> int | None:
    """Largest variable index used, or None for a constant expression."""
    match expr:
        case Var(index=i):
            return i
        case Const():
            return None
        case Not(child=c):
            return max_var_index(c)
        case And(children=ch) | Or(children=ch) | Xor(children=ch):
            found = [m for m in (max_var_index(c) for c in ch) if m is not None]
            return max(found) if found else None
    raise InputError(f"not a BoolExpr node: {expr!r}")


# --- text grammar ------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "~&^|()":
            tokens.append((c, c, i))
            i += 1
        elif c in "01":
            tokens.append(("const", int(c), i))
            i += 1
        elif c == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected a variable index after 'x'", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], var_count: int):
        self.tokens = tokens
        self.pos = 0
        self.var_count = var_count

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> BoolExpr:
        expr = self.or_level()
        kind, _, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {kind!r}", where)
        return expr

    def or_level(self) -> BoolExpr:
        items = [self.xor_level()]
        while self.peek()[0] == "|":
            self.take()
            items.append(self.xor_level())
        return disj(items)

    def xor_level(self) -> BoolExpr:
        items = [self.and_level()]
        while self.peek()[0] == "^":
            self.take()
            items.append(self.and_level())
        return xorj(items)

    def and_level(self) -> BoolExpr:
        items = [self.unary()]
        while self.peek()[0] == "&":
            self.take()
            items.append(self.unary())
        return conj(items)

    def unary(self) -> BoolExpr:
        if self.peek()[0] == "~":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> BoolExpr:
        kind, value, where = self.take()
        if kind == "var":
            if value >= self.var_count:
                raise ParseError(
                    f"variable x{value} out of range for {self.var_count} variables", where
                )
            return Var(value)
        if kind == "const":
            return Const(value)
        if kind == "(":
            expr = self.or_level()
            kind2, _, where2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", where2)
            return expr
        raise ParseError("expected a variable, constant, '~' or '('", where)


def parse(text: str, var_count: int) -> BoolExpr:
    """Parse expression text over x0..x{var_count-1}.

    Grammar: literals ``0``/``1``, variables ``x<k>``, operators ``~ & ^ |``
    with that precedence, and parentheses.
    """
    if var_count < 1:
        raise InputError(f"var_count must be >= 1, got {var_count}")
    return _Parser(_tokenize(text), var_count).parse()


_PAREN_LEVEL = {Or: 1, Xor: 2, And: 3, Not: 4}


def render(expr: BoolExpr) -> str:
    """Expression text that parses back to ``canonicalize(expr)``."""

    def go(e: BoolExpr, min_level: int) -> str:
        match e:
            case Var(index=i):
                return f"x{i}"
            case Const(value=v):
                return str(v)
            case Not(child=c):
                body = "~" + go(c, _PAREN_LEVEL[Not])
                return body if _PAREN_LEVEL[Not] >= min_level else f"({body})"
            case And(children=ch) | Or(children=ch) | Xor(children=ch):
                level = _PAREN_LEVEL[type(e)]
                op = {And: "&", Or: "|", Xor: "^"}[type(e)]
                body = op.join(go(c, level) for c in ch)
                return body if level >= min_level else f"({body})"
        raise InputError(f"not a BoolExpr node: {e!r}")

    return go(expr, 1)


# --- DIMACS CNF ---------------------------------------------------------------

def parse_dimacs_cnf(text: str) -> tuple[BoolExpr, int]:
    """Read standard DIMACS CNF text, returning (expression, variable count).

    DIMACS variable k maps to x{k-1}; a negative literal becomes Not(Var).
    An instance with zero clauses is the vacuous truth Const(1).
    """
    var_count: int | None = None
    clause_count: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise InputError(f"duplicate 'p' header on line {lineno}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"malformed header on line {lineno}: {raw!r}")
            try:
                var_count = int(parts[2])
                clause_count = int(parts[3])
            except ValueError:
                raise InputError(f"malformed header on line {lineno}: {raw!r}") from None
            if var_count < 0 or clause_count < 0:
                raise InputError(f"negative counts in header on line {lineno}")
            continue
        if var_count is None:
            raise InputError(f"clause data before 'p cnf' header on line {lineno}")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise InputError(f"bad literal {tok!r} on line {lineno}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > var_count:
                    raise InputError(
                        f"literal {lit} on line {lineno} out of range"
                        f" (header declares {var_count} variables)"
                    )
                current.append(lit)
    if current:
        raise InputError("unterminated final clause (missing trailing 0)")
    if var_count is None or clause_count is None:
        raise InputError("missing 'p cnf' header")
    if len(clauses) != clause_count:
        raise InputError(f"header declares {clause_count} clauses, found {len(clauses)}")

    clause_exprs: list[BoolExpr] = []
    for lits in clauses:
        if not lits:
            clause_exprs.append(Const(0))
            continue
        clause_exprs.append(
            disj(Var(k - 1) if k > 0 else Not(Var(-k - 1)) for k in lits)
        )
    if not clause_exprs:
        return Const(1), var_count
    return conj(clause_exprs), var_count


# --- evaluation and truth tables ----------------------------------------------

def evaluate(expr: BoolExpr, assignment: Sequence[int]) -> int:
    """Evaluate under an assignment of one 0/1 per variable, x0 first."""
    match expr:
        case Const(value=v):
            return v
        case Var(index=i):
            if i >= len(assignment):
                raise InputError(
                    f"assignment has {len(assignment)} bits but x{i} is referenced"
                )
            return int(assignment[i]) & 1
        case Not(child=c):
            return 1 - evaluate(c, assignment)
        case And(children=ch):
            return int(all(evaluate(c, assignment) for c in ch))
        case Or(children=ch):
            return int(any(evaluate(c, assignment) for c in ch))
        case Xor(children=ch):
            return reduce(lambda a, b: a ^ b, (evaluate(c, assignment) for c in ch))
    raise InputError(f"not a BoolExpr node: {expr!r}")


@dataclass(frozen=True, eq=False)
class TruthTable:
    """All 2^n outputs of a boolean function, row x indexed with x0 as MSB."""

    var_count: int
    rows: np.ndarray

    def __post_init__(self):
        if not 1 <= self.var_count <= MAX_TABLE_VARS:
            raise InputError(
                f"var_count must be in 1..{MAX_TABLE_VARS}, got {self.var_count}"
            )
        rows = np.array(self.rows, dtype=np.uint8, copy=True)
        if rows.shape != (1 << self.var_count,):
            raise InputError(
                f"expected {1 << self.var_count} rows, got shape {rows.shape}"
            )
        if rows.size and rows.max() > 1:
            raise InputError("truth table rows must be 0 or 1")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def marked_count(self) -> int:
        """Number of satisfying rows (the target-state count m)."""
        return int(self.rows.sum())

    def marked_states(self) -> tuple[int, ...]:
        """Row indices with output 1, ascending."""
        return tuple(int(i) for i in np.nonzero(self.rows)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.var_count == other.var_count and bool(
            np.array_equal(self.rows, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.var_count, self.rows.tobytes()))

    def __repr__(self) -> str:
        bits = "".join(str(int(b)) for b in self.rows)
        return f"TruthTable({self.var_count}, rows={bits!r})"


def _var_bits(n: int, index: int) -> int:
    # 2^n-bit integer whose bit x equals the value of x{index} in row x.
    p = n - 1 - index
    block = ((1 << (1 << p)) - 1) << (1 << p)
    total = 1 << n
    span = 1 << (p + 1)
    pattern = block
    while span < total:
        pattern |= pattern << span
        span <<= 1
    return pattern


def _table_bits(expr: BoolExpr, var_bits: list[int], mask: int) -> int:
    """The 2^n-bit table of ``expr``; ``var_bits[i]`` is ``_var_bits(n, i)`` and
    ``mask`` has all 2^n bits set, both built once per table."""
    match expr:
        case Var(index=i):
            return var_bits[i]
        case Const(value=v):
            return mask * v
        case Not(child=c):
            return mask & ~_table_bits(c, var_bits, mask)
        case And(children=ch):
            return reduce(lambda a, b: a & b, (_table_bits(c, var_bits, mask) for c in ch))
        case Or(children=ch):
            return reduce(lambda a, b: a | b, (_table_bits(c, var_bits, mask) for c in ch))
        case Xor(children=ch):
            return reduce(lambda a, b: a ^ b, (_table_bits(c, var_bits, mask) for c in ch))
    raise InputError(f"not a BoolExpr node: {expr!r}")


def truth_table(expr: BoolExpr, var_count: int) -> TruthTable:
    """Enumerate all 2^var_count rows using bit-parallel evaluation."""
    if not 1 <= var_count <= MAX_TABLE_VARS:
        raise InputError(f"var_count must be in 1..{MAX_TABLE_VARS}, got {var_count}")
    hi = max_var_index(expr)
    if hi is not None and hi >= var_count:
        raise InputError(f"expression uses x{hi} but only {var_count} variables declared")
    var_bits = [_var_bits(var_count, i) for i in range(var_count)]
    bits = _table_bits(expr, var_bits, (1 << (1 << var_count)) - 1)
    nrows = 1 << var_count
    raw = bits.to_bytes((nrows + 7) // 8, "little")
    rows = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:nrows]
    return TruthTable(var_count, rows)


# --- algebraic normal form (GF(2)) ---------------------------------------------

@dataclass(frozen=True)
class AnfForm:
    """XOR of positive-literal AND-monomials; the empty monomial is constant 1."""

    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        monos = frozenset(frozenset(m) for m in self.monomials)
        for m in monos:
            for i in m:
                if not isinstance(i, int) or i < 0:
                    raise InputError(f"bad variable index in monomial: {i!r}")
        object.__setattr__(self, "monomials", monos)


def _mobius_inplace(coeff: np.ndarray, n: int) -> None:
    # Self-inverse GF(2) butterfly; axis i of the reshaped cube is variable i.
    cube = coeff.reshape((2,) * n)
    for axis in range(n):
        hi = tuple(1 if k == axis else slice(None) for k in range(n))
        lo = tuple(0 if k == axis else slice(None) for k in range(n))
        cube[hi] ^= cube[lo]


def anf_coefficients(table: TruthTable) -> np.ndarray:
    """GF(2) Mobius transform of the truth table, as a 0/1 vector of 2^n entries.

    Entry x is 1 exactly when the monomial of x's set bits (x0 as MSB) is in
    the ANF, so the vector's Hamming weight is the monomial count.
    """
    coeff = table.rows.copy()
    _mobius_inplace(coeff, table.var_count)
    return coeff


def anf(table: TruthTable) -> AnfForm:
    """The monomial set of ``anf_coefficients``.

    The result satisfies f(x) = XOR over monomials of AND of their variables;
    ``expand`` reconstructs the exact original table.
    """
    n = table.var_count
    coeff = anf_coefficients(table)
    monomials = []
    for x in np.nonzero(coeff)[0]:
        monomials.append(frozenset(i for i in range(n) if (int(x) >> (n - 1 - i)) & 1))
    return AnfForm(frozenset(monomials))


def expand(form: AnfForm, var_count: int) -> TruthTable:
    """Inverse of ``anf``: rebuild the truth table from the monomial set."""
    if not 1 <= var_count <= MAX_TABLE_VARS:
        raise InputError(f"var_count must be in 1..{MAX_TABLE_VARS}, got {var_count}")
    coeff = np.zeros(1 << var_count, dtype=np.uint8)
    for mono in form.monomials:
        idx = 0
        for i in mono:
            if i >= var_count:
                raise InputError(f"monomial uses x{i} but only {var_count} variables declared")
            idx |= 1 << (var_count - 1 - i)
        coeff[idx] = 1
    _mobius_inplace(coeff, var_count)
    return TruthTable(var_count, coeff)
