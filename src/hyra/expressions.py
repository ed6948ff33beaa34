"""Expression grammar shared by the model formats.

Recursive-descent parser with the precedence chain unary minus, then * and
/, then + and -, then comparisons, then & / &&. Parsing yields a small AST;
linearization turns arithmetic into an affine form over the declared
variables (coefficients may carry symbolic constant factors) and turns
comparisons into LinearConstraint rows. Parsing either returns an AST or
raises a diagnostic carrying a character position; it never aborts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import ExpressionSyntaxError, NonlinearUnsupported, UnknownIdentifier, UnsupportedFeature
from .ir import AffineDynamics, Condition, LinearConstraint, ResetMap, VariableTable

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Compare:
    left: object
    relation: str
    right: object


@dataclass(frozen=True)
class Conjunction:
    parts: tuple


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>&&|==|<=|>=|:=|[=<>+\-*/()&])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VariableTable | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.table = table
        self.known = set(table.all_names()) if table is not None else None

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse_conjunction(self):
        parts = [self.parse_comparison()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("&", "&&"):
                self.advance()
                parts.append(self.parse_comparison())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Conjunction) else (p,))
        return Conjunction(tuple(flat))

    def parse_comparison(self):
        left = self.parse_sum()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("==", "=", "<=", ">=", "<", ">"):
            self.advance()
            relation = "==" if value in ("==", "=") else value
            right = self.parse_sum()
            return Compare(left, relation, right)
        return left

    def parse_sum(self):
        node = self.parse_product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                right = self.parse_product()
                node = Add(node, right) if value == "+" else Sub(node, right)
            else:
                break
        return node

    def parse_product(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                right = self.parse_unary()
                node = Mul(node, right) if value == "*" else Div(node, right)
            else:
                break
        return node

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_unary())
        if kind == "op" and value == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return Num(float(value))
        if kind == "ident":
            if self.known is not None:
                base = value.rstrip("'")
                if value not in self.known and base not in self.known:
                    raise UnknownIdentifier(f"unknown identifier {value!r} at position {pos}")
            return Ident(value)
        if kind == "op" and value == "(":
            inner = self.parse_conjunction()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str, table: VariableTable | None = None):
    """Parse expression text into an AST.

    An empty (or whitespace-only) string parses to the trivially true
    condition, represented as an empty Conjunction. Identifiers are checked
    against the table when one is supplied.
    """
    if not text.strip():
        return Conjunction(())
    parser = _Parser(text, table)
    try:
        ast = parser.parse_conjunction()
    except RecursionError as exc:
        raise ExpressionSyntaxError("expression nests too deeply", parser.peek()[2]) from exc
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {value!r}", pos)
    return ast


# ---------------------------------------------------------------------------
# Linearization

class SymScalar:
    """A float plus a linear combination of named constants."""

    __slots__ = ("base", "terms")

    def __init__(self, base: float = 0.0, terms: dict | None = None):
        self.base = float(base) + 0.0  # + 0.0 turns -0.0 (from negating 0) into 0.0
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0.0}

    @property
    def is_number(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymScalar") -> "SymScalar":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return SymScalar(self.base + other.base, terms)

    def __neg__(self) -> "SymScalar":
        return SymScalar(-self.base, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def mul(self, other: "SymScalar") -> "SymScalar":
        if self.terms and other.terms:
            raise NonlinearUnsupported("product of two symbolic constants is not affine")
        if other.terms:
            self, other = other, self
        scale = other.base
        return SymScalar(self.base * scale, {k: v * scale for k, v in self.terms.items()})


class LinForm:
    """Affine expression: constant part plus per-variable coefficients."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: SymScalar | None = None, coeffs: dict | None = None):
        self.const = const if const is not None else SymScalar()
        self.coeffs = coeffs or {}

    def __add__(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LinForm(self.const + other.const, coeffs)

    def __neg__(self) -> "LinForm":
        return LinForm(-self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def scaled(self, scalar: SymScalar) -> "LinForm":
        return LinForm(self.const.mul(scalar), {k: v.mul(scalar) for k, v in self.coeffs.items()})


def linear_form(ast, table: VariableTable, allow_inputs: bool = True) -> LinForm:
    """Reduce an arithmetic AST to an affine form over the declared names.

    Constants become symbolic scalar terms; a product of two variable-bearing
    subexpressions (or division by one) raises NonlinearUnsupported.
    """
    try:
        return _linear_form(ast, table, allow_inputs)
    except RecursionError as exc:
        raise UnsupportedFeature("expression nests too deeply to linearize") from exc


def _linear_form(ast, table: VariableTable, allow_inputs: bool) -> LinForm:
    if isinstance(ast, Num):
        return LinForm(SymScalar(ast.value))
    if isinstance(ast, Ident):
        name = ast.name
        if name in table.constants:
            return LinForm(SymScalar(0.0, {name: 1.0}))
        if name in table.state_vars:
            return LinForm(coeffs={name: SymScalar(1.0)})
        if name in table.input_vars:
            if not allow_inputs:
                raise NonlinearUnsupported(f"input {name!r} cannot appear in a constraint")
            return LinForm(coeffs={name: SymScalar(1.0)})
        raise UnknownIdentifier(f"unknown identifier {name!r}")
    if isinstance(ast, Neg):
        return -_linear_form(ast.operand, table, allow_inputs)
    if isinstance(ast, Add):
        return _linear_form(ast.left, table, allow_inputs) + _linear_form(ast.right, table, allow_inputs)
    if isinstance(ast, Sub):
        return _linear_form(ast.left, table, allow_inputs) - _linear_form(ast.right, table, allow_inputs)
    if isinstance(ast, Mul):
        left = _linear_form(ast.left, table, allow_inputs)
        right = _linear_form(ast.right, table, allow_inputs)
        if left.coeffs and right.coeffs:
            raise NonlinearUnsupported("product of two variable expressions is not affine")
        if left.coeffs:
            return left.scaled(right.const)
        return right.scaled(left.const)
    if isinstance(ast, Div):
        left = _linear_form(ast.left, table, allow_inputs)
        right = _linear_form(ast.right, table, allow_inputs)
        if right.coeffs or not right.const.is_number:
            raise NonlinearUnsupported("division is only supported by a numeric literal")
        if right.const.base == 0.0:
            raise NonlinearUnsupported("division by zero")
        return left.scaled(SymScalar(1.0 / right.const.base))
    raise NonlinearUnsupported(f"{type(ast).__name__} is not an arithmetic expression")


def affine_row(form: LinForm, names) -> tuple:
    """``form`` as one dense row over ``names``: (coeffs, coeff_terms, const, const_terms).

    ``coeff_terms`` maps each named constant to its row of multipliers and
    ``const_terms`` to its multiplier of the constant part; a name that
    ``form`` lacks has coefficient 0.
    """
    coeffs = np.zeros(len(names))
    coeff_terms: dict = {}
    for name, scalar in form.coeffs.items():
        i = names.index(name)
        coeffs[i] = scalar.base
        for sym, mult in scalar.terms.items():
            coeff_terms.setdefault(sym, np.zeros(len(names)))[i] = mult
    return coeffs, coeff_terms, form.const.base, form.const.terms


def _stacked_rows(forms: dict, table: VariableTable, names, default: np.ndarray) -> tuple:
    """The ``affine_row`` over ``names`` of each state variable's form in ``forms``, stacked into
    (matrix, matrix terms, vector, vector terms); a variable without a form keeps its row of ``default``."""
    matrix, vector, matrix_terms, vector_terms = default.copy(), np.zeros(table.n), {}, {}
    for var, form in forms.items():
        coeffs, coeff_terms, const, const_terms = affine_row(form, names)
        i = table.state_index(var)
        matrix[i], vector[i] = coeffs, const
        for sym, row in coeff_terms.items():
            matrix_terms.setdefault(sym, np.zeros_like(default))[i] = row
        for sym, mult in const_terms.items():
            vector_terms.setdefault(sym, np.zeros(table.n))[i] = mult
    return matrix, matrix_terms, vector, vector_terms


def dynamics_from_forms(forms: dict, table: VariableTable) -> AffineDynamics:
    """``x' = A x + B u + c`` whose row of each state variable in ``forms`` is its form; other rows are 0."""
    n, names = table.n, table.state_vars + table.input_vars
    ab, ab_terms, c, c_terms = _stacked_rows(forms, table, names, np.zeros((n, len(names))))
    a_terms = {sym: t[:, :n] for sym, t in ab_terms.items() if np.count_nonzero(t[:, :n])}
    b_terms = {sym: t[:, n:] for sym, t in ab_terms.items() if np.count_nonzero(t[:, n:])}
    return AffineDynamics(ab[:, :n], ab[:, n:], c, a_terms, b_terms, c_terms)


def reset_from_forms(forms: dict, table: VariableTable) -> ResetMap:
    """``x' = R x + r`` whose row of each state variable in ``forms`` is its form; other rows keep x."""
    r_matrix, m_terms, r_offset, r_terms = _stacked_rows(forms, table, table.state_vars, np.eye(table.n))
    return ResetMap(r_matrix, r_offset, m_terms, r_terms)


def _constraint_from_compare(cmp: Compare, table: VariableTable) -> LinearConstraint:
    form = linear_form(cmp.left, table, allow_inputs=False) - linear_form(cmp.right, table, allow_inputs=False)
    coeffs, coeff_terms, _, _ = affine_row(form, table.state_vars)
    bound = -form.const
    return LinearConstraint(coeffs, cmp.relation, bound.base, coeff_terms, bound.terms)


def _as_compare(node) -> Compare:
    if not isinstance(node, Compare):
        raise NonlinearUnsupported("expected a comparison, found a bare arithmetic expression")
    return node


def parse_condition(text: str, table: VariableTable) -> Condition:
    """Parse condition text as a conjunction of linear constraints."""
    ast = parse_expression(text, table)
    parts = ast.parts if isinstance(ast, Conjunction) else (ast,)
    return Condition(tuple(_constraint_from_compare(_as_compare(p), table) for p in parts))


def split_conjuncts(text: str) -> list:
    """The non-empty parts of ``text`` between & / && outside parentheses, stripped."""
    parts, current, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "&" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


# ---------------------------------------------------------------------------
# Deterministic formatting (shortest decimal that round-trips binary64)


def format_number(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    text = repr(x)
    if text.endswith(".0"):
        text = text[:-2]
    return text


def format_rows(values) -> list:
    """The CSV row texts of a 2-d array: each row's ``format_number`` cells joined by ``,``.

    One ``orjson.dumps`` call writes every value as its shortest round-trip
    digits, the same digits ``repr`` picks. Positive exponents gain their
    ``+`` in whole-text passes, run only when some value needs it. Cells
    whose text differs in more than that are written as ``null`` and filled
    in with ``format_number``: non-finite values, and 1e-9 <= |x| < 1e-4,
    where orjson writes ``0.000015`` or ``1.5e-7`` and ``repr`` ``1.5e-05``
    or ``1.5e-07``. The text is split into rows once. Only the rows that
    hold an integral value then lose its ``.0``, and each ``null`` gets its
    fill in its own row. orjson writes ``.0`` at the end of integral values
    only, so ``.0,`` and a final ``.0`` mark exactly those cells.
    """
    a = np.ascontiguousarray(values, dtype=np.float64) + 0.0  # + 0.0 turns -0.0 into 0.0
    mag = np.abs(a)
    finite = np.isfinite(a)
    special = ~finite | ((mag >= 1e-9) & (mag < 1e-4))
    fills = [format_number(v) for v in a[special].tolist()]
    a[special] = np.nan
    integral = (a == np.trunc(a)) & (mag < 1e16)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    if np.any(finite & (mag >= 1e16)):
        text = text.replace(b"e", b"e+")
        if np.any((mag > 0.0) & (mag < 1e-9)):
            text = text.replace(b"e+-", b"e-")
    rows = str(memoryview(text)[2:-2], "ascii").split("],[") if len(a) else []  # a view: no copy for the slice
    width = max(a.shape[1], 1)  # a flat cell index // width is its row
    if integral.any():
        for i in dict.fromkeys((np.flatnonzero(integral) // width).tolist()):
            row = rows[i].replace(".0,", ",")
            rows[i] = row[:-2] if row.endswith(".0") else row
    if fills:  # flatnonzero lists the cells in the order a[special] gave the fills
        for i, fill in zip((np.flatnonzero(special) // width).tolist(), fills):
            rows[i] = rows[i].replace("null", fill, 1)
    return rows


def format_table(header, blocks) -> str:
    """The CSV text of a table: the ``header`` names, then one line per row.

    ``blocks`` are row-aligned groups of columns, left to right. A numpy
    array is a 2-d block of numbers, written by ``format_rows``; any other
    sequence holds one label text per row. The text is one join over the
    row pieces and their separators.
    """
    columns = [format_rows(b) if isinstance(b, np.ndarray) else b for b in blocks]
    line = [None, ","] * (len(columns) - 1) + [None, "\n"]
    parts = line * len(columns[0])
    for j, column in enumerate(columns):
        parts[2 * j::len(line)] = column
    parts.insert(0, ",".join(header) + "\n")
    return "".join(parts)


def format_linear(names, coeffs, coeff_terms=None, const: float = 0.0, const_terms=None) -> str:
    """Render an affine row like ``1505*e1 + 4.668*e1dot - 9.81`` or ``0.5 + 2*c``.

    Term order follows ``names``, each coefficient followed by its symbolic
    parts (``mult*constname*var``, constants in name order), then the
    constant and its symbolic parts. Zero terms are left out, and the
    all-zero row is "0".
    """
    pairs = list(zip(np.asarray(coeffs, dtype=float).tolist(), names))
    if coeff_terms:
        sym_rows = [(sym, np.asarray(coeff_terms[sym]).tolist()) for sym in sorted(coeff_terms)]
        plain, pairs = pairs, []
        for i, (value, var) in enumerate(plain):
            pairs.append((value, var))
            for sym, row in sym_rows:
                if row[i] != 0.0:
                    pairs.append((row[i], f"{sym}*{var}"))
    pairs.append((float(const), ""))
    pairs.extend((float(const_terms[sym]), sym) for sym in sorted(const_terms or {}))
    parts: list = []
    for value, name in pairs:
        if value != 0.0:
            text = format_number(abs(value))
            if name:
                text = name if text == "1" else f"{text}*{name}"
            if parts:
                parts.append(f"+ {text}" if value >= 0 else f"- {text}")
            else:
                parts.append(text if value >= 0 else f"-{text}")
    return " ".join(parts) if parts else "0"


def flow_rows(dyn: AffineDynamics, table: VariableTable) -> list:
    """``(var, rhs)`` of each state variable: the text of its row of ``A x + B u + c``."""
    names = table.state_vars + table.input_vars
    rows = np.hstack([dyn.a, dyn.b])
    terms = {sym: np.hstack([dyn.a_terms.get(sym, np.zeros_like(dyn.a)), dyn.b_terms.get(sym, np.zeros_like(dyn.b))])
             for sym in dyn.a_terms.keys() | dyn.b_terms.keys()}
    return [(var, format_linear(names, rows[i], {sym: t[i] for sym, t in terms.items()}, dyn.c[i],
                                {sym: v[i] for sym, v in dyn.c_terms.items()}))
            for i, var in enumerate(table.state_vars)]


def reset_rows(reset: ResetMap, names) -> list:
    """``(var, rhs)`` of each variable whose row of ``R x + r`` is not ``var`` itself."""
    if reset.is_identity():
        return []
    eye = np.eye(len(names))
    out = []
    for i, var in enumerate(names):
        coeff_terms = {sym: t[i] for sym, t in reset.matrix_terms.items() if t[i].any()}
        const_terms = {sym: v[i] for sym, v in reset.offset_terms.items() if v[i] != 0.0}
        if coeff_terms or const_terms or reset.r_offset[i] != 0.0 or not np.array_equal(reset.r_matrix[i], eye[i]):
            out.append((var, format_linear(names, reset.r_matrix[i], coeff_terms, reset.r_offset[i], const_terms)))
    return out


def format_constraint(con: LinearConstraint, names) -> str:
    lhs = format_linear(names, con.coeffs, con.coeff_terms)
    rhs = format_linear((), (), None, con.bound, con.bound_terms)
    return f"{lhs} {con.relation} {rhs}"


def format_condition(cond: Condition, names) -> str:
    return " & ".join(format_constraint(c, names) for c in cond.constraints)
