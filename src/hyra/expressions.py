"""Expression grammar shared by the model formats, compiled to affine rows.

The tokenizer is one ``findall`` scan; token positions, which only error
messages need, come from a second scan. A recursive-descent parser with the
precedence chain unary minus, then * and /, then + and -, then comparisons,
then & / && builds a tree of slotted dataclass nodes, or raises a
diagnostic carrying a character position; it never aborts.

Linearization is one walk over the tree, on plain ``(base, terms, coeffs)``
values: each + / - chain adds into the form of its leftmost operand in
place, and rows are written straight into preallocated arrays. Both passes
keep one call per level of the left spine, and the parser a call before each
descent that consumes a token, so the texts that nest too deeply (thousands
of terms or parentheses) and the position such an error names stay those of
the plain recursive grammar that docs/formats.md documents.
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


@dataclass(slots=True, unsafe_hash=True)
class Num:
    value: float


@dataclass(slots=True, unsafe_hash=True)
class Ident:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Neg:
    operand: object


@dataclass(slots=True, unsafe_hash=True)
class _Binary:
    left: object
    right: object


Add, Sub, Mul, Div = (type(name, (_Binary,), {"__slots__": ()}) for name in ("Add", "Sub", "Mul", "Div"))


@dataclass(slots=True, unsafe_hash=True)
class Compare:
    left: object
    relation: str
    right: object


@dataclass(slots=True, unsafe_hash=True)
class Conjunction:
    parts: tuple


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_]*'*|&&|==|<=|>=|:=|[=<>+\-*/()&]"
_TOKEN_RE = re.compile(_TOKEN)
_SCAN_RE = re.compile(rf"\s*(?:({_TOKEN})|(\S))")  # the second group: a character that starts no token
_RELATIONS = {"==": "==", "=": "==", "<=": "<=", ">=": ">=", "<": "<", ">": ">"}


def _tokenize(text: str) -> list:
    """The token texts of ``text`` and then "" for its end; ``findall`` skips what starts no token."""
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        _token_starts(text)
    tokens.append("")
    return tokens


def _token_starts(text: str) -> list:
    """The position of each token of ``text`` and then ``len(text)``; raises at a character that starts no token."""
    starts = []
    for match in _SCAN_RE.finditer(text):
        if match.lastindex == 2:
            raise ExpressionSyntaxError(f"unexpected character {match[2]!r}", match.start(2))
        starts.append(match.start(1))
    starts.append(len(text))
    return starts


class _Parser:
    def __init__(self, text: str, table: VariableTable | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.known = set(table.all_names()) if table is not None else None

    def advance(self) -> str:
        """The next token, consumed; a call, so a descent nested past the recursion limit stops before it."""
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse_conjunction(self):
        parts = [self.parse_comparison()]
        while self.tokens[self.idx] in ("&", "&&"):
            self.idx += 1
            parts.append(self.parse_comparison())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Conjunction) else (p,))
        return Conjunction(tuple(flat))

    def parse_comparison(self):
        left = self.parse_sum()
        relation = _RELATIONS.get(self.tokens[self.idx])
        if relation is None:
            return left
        self.idx += 1
        return Compare(left, relation, self.parse_sum())

    def parse_sum(self):
        node = self.parse_product()
        while True:
            tok = self.tokens[self.idx]
            if tok == "+":
                self.idx += 1
                node = Add(node, self.parse_product())
            elif tok == "-":
                self.idx += 1
                node = Sub(node, self.parse_product())
            else:
                return node

    def parse_product(self):
        node = self.parse_unary()
        while True:
            tok = self.tokens[self.idx]
            if tok == "*":
                self.idx += 1
                node = Mul(node, self.parse_unary())
            elif tok == "/":
                self.idx += 1
                node = Div(node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        tok = self.tokens[self.idx]
        if tok == "-":
            self.advance()
            return Neg(self.parse_unary())
        if tok == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self):
        tok = self.advance()
        if tok == "(":
            inner = self.parse_conjunction()
            if self.tokens[self.idx] != ")":
                raise ExpressionSyntaxError("expected ')'", _token_starts(self.text)[self.idx])
            self.idx += 1
            return inner
        if tok[:1].isalpha() or tok[:1] == "_":  # the tokenizer lets through ASCII letters only
            known = self.known
            if known is not None and tok not in known and tok.rstrip("'") not in known:
                at = _token_starts(self.text)[self.idx - 1]
                raise UnknownIdentifier(f"unknown identifier {tok!r} at position {at}")
            return Ident(tok)
        if tok[:1].isdecimal() or tok[:1] == ".":
            return Num(float(tok))
        message = f"unexpected token {tok!r}" if tok else "unexpected end of input"
        raise ExpressionSyntaxError(message, _token_starts(self.text)[self.idx - 1])


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
        raise ExpressionSyntaxError("expression nests too deeply", _token_starts(text)[parser.idx]) from exc
    if parser.tokens[parser.idx]:
        raise ExpressionSyntaxError(f"trailing input {parser.tokens[parser.idx]!r}", _token_starts(text)[parser.idx])
    return ast


# ---------------------------------------------------------------------------
# Linearization


@dataclass(slots=True, eq=False)
class SymScalar:
    """A float plus a linear combination of named constants: ``base + sum(mult * name)`` over ``terms``."""

    base: float
    terms: dict


def _times(terms: dict, scale: float) -> dict:
    """Each multiplier of ``terms`` times ``scale``, leaving out the products that are zero."""
    return {k: w for k, v in terms.items() if (w := v * scale) != 0.0}


def _scaled(form: tuple, scale: float, scale_terms: dict) -> tuple:
    """``form * (scale + scale_terms)``, affine only if one factor holds no named constant; the factor
    with them is the left operand of each product. Each base the walk writes ends in ``+ 0.0`` (no -0.0)."""
    base, terms, coeffs = form
    if scale_terms:
        if terms or any(c.terms for c in coeffs.values()):
            raise NonlinearUnsupported("product of two symbolic constants is not affine")
        for c in coeffs.values():
            c.base, c.terms = scale * c.base + 0.0, _times(scale_terms, c.base)
        return scale * base + 0.0, _times(scale_terms, base), coeffs
    for c in coeffs.values():
        c.base = c.base * scale + 0.0
        if c.terms:
            c.terms = _times(c.terms, scale)
    return base * scale + 0.0, _times(terms, scale) if terms else terms, coeffs


def _negated(form: tuple) -> tuple:
    base, terms, coeffs = form
    for k, v in terms.items():
        terms[k] = -v
    for c in coeffs.values():
        c.base = -c.base + 0.0
        for k, v in c.terms.items():
            c.terms[k] = -v
    return -base + 0.0, terms, coeffs


def _add_terms(terms: dict, other: dict) -> None:
    for k, v in other.items():
        total = terms.get(k, 0.0) + v
        if total != 0.0:
            terms[k] = total
        else:
            del terms[k]


def _accumulate(form: tuple, other: tuple) -> tuple:
    """``form + other``, added into the dicts and SymScalars of ``form``."""
    base, terms, coeffs = form
    _add_terms(terms, other[1])
    for name, c in other[2].items():
        mine = coeffs.get(name)
        if mine is None:
            coeffs[name] = c
        else:
            mine.base = mine.base + c.base + 0.0
            if c.terms:
                _add_terms(mine.terms, c.terms)
    return base + other[0] + 0.0, terms, coeffs


def _walk(node, table: VariableTable, allow_inputs: bool) -> tuple:
    """``(base, terms, coeffs)`` of an arithmetic node, in new dicts and SymScalars the caller may change:
    a + / - chain recurses down its left operands and adds each right operand into the leftmost form."""
    cls = node.__class__
    if cls is Ident:
        name = node.name
        if name in table.constants:
            return 0.0, {name: 1.0}, {}
        if name in table.state_vars or allow_inputs and name in table.input_vars:
            return 0.0, {}, {name: SymScalar(1.0, {})}
        if name in table.input_vars:
            raise NonlinearUnsupported(f"input {name!r} cannot appear in a constraint")
        raise UnknownIdentifier(f"unknown identifier {name!r}")
    if cls is Num:
        return node.value + 0.0, {}, {}
    if cls is Add or cls is Sub:
        form = _walk(node.left, table, allow_inputs)
        other = _walk(node.right, table, allow_inputs)
        return _accumulate(form, other if cls is Add else _negated(other))
    if cls is Mul or cls is Div:
        left = _walk(node.left, table, allow_inputs)
        right = _walk(node.right, table, allow_inputs)
        if cls is Mul:
            if left[2] and right[2]:
                raise NonlinearUnsupported("product of two variable expressions is not affine")
            return _scaled(left, right[0], right[1]) if left[2] else _scaled(right, left[0], left[1])
        if right[2] or right[1]:
            raise NonlinearUnsupported("division is only supported by a numeric literal")
        if right[0] == 0.0:
            raise NonlinearUnsupported("division by zero")
        return _scaled(left, 1.0 / right[0] + 0.0, {})
    if cls is Neg:
        return _negated(_walk(node.operand, table, allow_inputs))
    raise NonlinearUnsupported(f"{cls.__name__} is not an arithmetic expression")


def linear_form(ast, table: VariableTable, allow_inputs: bool = True) -> tuple:
    """Reduce an arithmetic AST to an affine form over the declared names: ``(base, terms, coeffs)``.

    The constant part is ``base + sum(mult * name)`` over ``terms``, the named
    constants' multipliers; ``coeffs`` maps each variable with a term to its
    coefficient, a SymScalar. A product of two variable-bearing
    subexpressions (or division by one) raises NonlinearUnsupported.
    """
    try:
        return _walk(ast, table, allow_inputs)
    except RecursionError as exc:
        raise UnsupportedFeature("expression nests too deeply to linearize") from exc


def _write_row(coeffs: dict, index: dict, matrix: np.ndarray, matrix_terms: dict, i: int) -> None:
    """Write ``coeffs`` into row ``i`` of ``matrix`` and of each named constant's array in ``matrix_terms``."""
    for name, scalar in coeffs.items():
        j = index[name]
        matrix[i, j] = scalar.base
        for sym, mult in scalar.terms.items():
            if sym not in matrix_terms:
                matrix_terms[sym] = np.zeros_like(matrix)
            matrix_terms[sym][i, j] = mult


def _stacked_rows(forms: dict, table: VariableTable, names, default: np.ndarray) -> tuple:
    """The rows over ``names`` of each state variable's form in ``forms``, written into ``default`` and
    returned as (matrix, matrix terms, vector, vector terms); a variable without a form keeps its row."""
    index = {name: j for j, name in enumerate(names)}
    matrix, vector, matrix_terms, vector_terms = default, np.zeros(table.n), {}, {}
    for var, (base, terms, coeffs) in forms.items():
        i = table.state_index(var)
        matrix[i] = 0.0
        _write_row(coeffs, index, matrix, matrix_terms, i)
        vector[i] = base
        for sym, mult in terms.items():
            if sym not in vector_terms:
                vector_terms[sym] = np.zeros(table.n)
            vector_terms[sym][i] = mult
    return matrix, matrix_terms, vector, vector_terms


def dynamics_from_forms(forms: dict, table: VariableTable) -> AffineDynamics:
    """``x' = A x + B u + c`` whose row of each state variable in ``forms`` is its form; other rows are 0.
    A and B (and each term's blocks) are the column blocks of one array of rows over states and inputs."""
    n, names = table.n, table.state_vars + table.input_vars
    ab, ab_terms, c, c_terms = _stacked_rows(forms, table, names, np.zeros((n, len(names))))
    return AffineDynamics(ab[:, :n], ab[:, n:], c, {sym: t[:, :n] for sym, t in ab_terms.items()},
                          {sym: t[:, n:] for sym, t in ab_terms.items()}, c_terms)


def reset_from_forms(forms: dict, table: VariableTable) -> ResetMap:
    """``x' = R x + r`` whose row of each state variable in ``forms`` is its form; other rows keep x."""
    r_matrix, m_terms, r_offset, r_terms = _stacked_rows(forms, table, table.state_vars, np.eye(table.n))
    return ResetMap(r_matrix, r_offset, m_terms, r_terms)


def _constraint_from_compare(cmp, table: VariableTable, index: dict, rows: np.ndarray, row_terms: dict,
                             i: int) -> LinearConstraint:
    """The constraint of ``cmp``, its coefficients written into row ``i`` of ``rows`` and ``row_terms``."""
    if not isinstance(cmp, Compare):
        raise NonlinearUnsupported("expected a comparison, found a bare arithmetic expression")
    left = linear_form(cmp.left, table, False)
    base, terms, coeffs = _accumulate(left, _negated(linear_form(cmp.right, table, False)))
    _write_row(coeffs, index, rows, row_terms, i)
    return LinearConstraint(rows[i], cmp.relation, -base + 0.0, {sym: t[i] for sym, t in row_terms.items()},
                            {k: -v for k, v in terms.items()})


def parse_condition(text: str, table: VariableTable) -> Condition:
    """Parse condition text as a conjunction of linear constraints, their rows written into one array."""
    ast = parse_expression(text, table)
    parts = ast.parts if isinstance(ast, Conjunction) else (ast,)
    index = {name: j for j, name in enumerate(table.state_vars)}
    rows, row_terms, constraints = np.zeros((len(parts), table.n)), {}, []
    for i, part in enumerate(parts):
        constraints.append(_constraint_from_compare(part, table, index, rows, row_terms, i))
    return Condition(constraints)


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
    if reset.is_identity:
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
