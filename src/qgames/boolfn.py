"""Boolean functions as truth tables: parsing, evaluation, and canonical reduction.

Conventions
-----------
- A truth table for an n-input function is a single integer whose bit i
  (value 2**i) holds the function value on the input tuple with big-endian
  encoding i.  Player 1's variable is the most significant bit, so for
  n = 4 the index is i = 8w + 4x + 2y + z.
- The textual encoding is ``n:HEX`` with 2**n table bits written as
  2**n / 4 hex digits, e.g. the 4-variable parity function is ``4:6996``.
- Expressions are read straight into tables: ``parse_table`` evaluates as
  it reads, in one loop over an explicit operator stack with no expression
  tree and no recursion, so nesting depth has no limit but memory.
- Two functions are variants of one another if they differ only by
  negating a subset of inputs (and, optionally, by complementing the
  output).  The canonical representative of a variant class is the
  numerically smallest table in the class.
- Every class query runs on one bitwise kernel, ``_negate_inputs`` and
  ``_relevant``, which takes one table (an int) or many at once (an integer
  array).  ``_orbit_min`` finds canonical forms on it: of one table for
  ``canonical_representative``, of the whole space for ``reduce_function_space``.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

SUPPORTED_ARITIES = (2, 3, 4)

#: Default variable alphabets: questions (player order) and answers.
QUESTION_VARS = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("w", "x", "y", "z")}
ANSWER_VARS = {2: ("a", "b"), 3: ("a", "b", "c"), 4: ("a", "b", "c", "d")}

#: ``n:HEX`` in ASCII: decimal arity, colon, hex digits (``int`` would also read 0x, _, +, -).
_TABLE_TEXT = re.compile(r"([0-9]+):([0-9A-Fa-f]+)")


class ParseError(ValueError):
    """Raised for malformed expressions; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class TruthTable:
    """An n-input Boolean function stored as a 2**n-bit integer."""

    arity: int
    bits: int

    def __post_init__(self):
        if self.arity not in SUPPORTED_ARITIES:
            raise ValueError(f"arity must be one of {SUPPORTED_ARITIES}, got {self.arity}")
        size = 1 << self.arity
        if not 0 <= self.bits < (1 << size):
            raise ValueError(f"table needs exactly {size} bit positions")

    @property
    def num_inputs(self) -> int:
        return 1 << self.arity

    def value(self, index: int) -> int:
        """Table entry at a big-endian input index."""
        return (self.bits >> index) & 1

    def values(self) -> np.ndarray:
        """All 2**n table entries, indexed big-endian."""
        return (self.bits >> np.arange(self.num_inputs)) & 1

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Evaluate on an input tuple (player 1 first)."""
        if len(inputs) != self.arity:
            raise ValueError(f"expected {self.arity} inputs, got {len(inputs)}")
        index = 0
        for b in inputs:
            index = (index << 1) | (b & 1)
        return self.value(index)

    def complement(self) -> "TruthTable":
        return TruthTable(self.arity, self.bits ^ ((1 << self.num_inputs) - 1))

    def permute_inputs(self, mask: int) -> "TruthTable":
        """The variant t∘σ obtained by negating the inputs selected by mask.

        Bit n-1-k of ``mask`` negates variable k, i.e. the mask is the
        big-endian index whose set bits mark negated variables.
        """
        return TruthTable(self.arity, _negate_inputs(self.bits, self.arity, mask))

    def to_text(self) -> str:
        digits = self.num_inputs // 4
        return f"{self.arity}:{self.bits:0{digits}X}"

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        literal = _TABLE_TEXT.fullmatch(text.strip())
        if literal is None:
            raise ValueError(f"malformed truth-table literal {text!r}")
        return cls(int(literal[1]), int(literal[2], 16))

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class GameEquation:
    """A winning condition f(questions) = g(answers) with matching arities."""

    f: TruthTable
    g: TruthTable

    def __post_init__(self):
        if self.f.arity != self.g.arity:
            raise ValueError(
                f"question and answer sides must share an arity "
                f"({self.f.arity} != {self.g.arity})"
            )

    @property
    def arity(self) -> int:
        return self.f.arity


#: The binary operators, loosest first: binding strength and table operation.
_OPERATORS = {"+": (0, operator.or_), "^": (1, operator.xor), "*": (2, operator.and_)}


def _evaluate(text: str, alphabet: Sequence[str]) -> int:
    """The table (an int over the whole alphabet) of an expression, read in one loop.

    Grammar (loosest to tightest binding):
        expr   := term ('+' term)*          -- OR
        term   := factor ('^' factor)*      -- XOR
        factor := atom ('*'? atom)*         -- AND, also by juxtaposition
        atom   := '!' atom | '(' expr ')' | variable | '0' | '1'

    Operand tables wait on a value stack; pending ``!``s, open ``(``s and binary
    operators on an operator stack.  An operator is applied once one binding no
    tighter, a ``)`` or the end follows its right operand, and ``!``s once the
    operand after them completes: nothing recurses, so nesting has no limit.
    """
    arity = len(alphabet)
    full = (1 << (1 << arity)) - 1
    names = _name_pattern(tuple(alphabet))
    values, ops = [], []
    pos, operand = 0, True  # operand: an atom, '!' or '(' comes next

    def reduce(strength: int):
        while ops and ops[-1] in _OPERATORS and _OPERATORS[ops[-1]][0] >= strength:
            right = values.pop()
            values.append(_OPERATORS[ops.pop()][1](values.pop(), right))

    def complete(table: int):
        while ops and ops[-1] == "!":
            ops.pop()
            table ^= full
        values.append(table)

    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        ch = text[pos] if pos < len(text) else ""
        if operand:
            if ch == "!" or ch == "(":
                ops.append(ch)
                pos += 1
                continue
            if ch == "0" or ch == "1":
                complete(full if ch == "1" else 0)
                pos += 1
            elif variable := names.match(text, pos):
                complete(_variable_mask(arity, alphabet.index(variable[0])))
                pos = variable.end()
            elif ch and (ch.isalpha() or ch == "_"):
                raise ParseError(f"unknown variable {ch!r}", pos)
            else:
                raise ParseError("expected a variable, constant, '!' or '('", pos)
            operand = False
            continue
        juxtaposed = ch != "*" and (ch in ("!", "(", "0", "1") or names.match(text, pos))
        op = "*" if juxtaposed else ch
        if op in _OPERATORS:
            reduce(_OPERATORS[op][0])
            ops.append(op)
            pos += 0 if juxtaposed else 1
            operand = True
        elif ch == ")" and "(" in ops:
            reduce(0)
            ops.pop()
            complete(values.pop())
            pos += 1
        else:
            reduce(0)
            if ops:
                raise ParseError("expected ')'", pos)
            if pos != len(text):
                raise ParseError(f"unexpected input {ch!r}", pos)
            return values[0]


@functools.cache
def _name_pattern(alphabet: tuple[str, ...]) -> re.Pattern:
    """Matches the longest name of ``alphabet`` at a position (if it has any names)."""
    return re.compile("|".join(map(re.escape, sorted(alphabet, key=len, reverse=True))) or "(?!)")


@functools.cache
def _variable_mask(arity: int, index: int) -> int:
    """Truth table (as int) of the projection onto variable ``index``."""
    bits = 0
    shift = arity - 1 - index
    for i in range(1 << arity):
        bits |= ((i >> shift) & 1) << i
    return bits


def parse_table(text: str, alphabet: Sequence[str]) -> TruthTable:
    """Parse a Boolean expression straight to its truth table over an ordered alphabet.

    ``+`` is OR, ``^`` is XOR (binds tighter), ``*`` or juxtaposition is AND
    (binds tightest), ``!`` negates the following atom.
    """
    return TruthTable(len(alphabet), _evaluate(text, alphabet))


def parse_expression(text: str, alphabet: Sequence[str]) -> TruthTable:
    """The truth table of an expression; the same as ``parse_table``."""
    return parse_table(text, alphabet)


def to_truth_table(t: TruthTable, arity: int) -> TruthTable:
    """``t`` itself, checked to have ``arity`` inputs (a parsed expression is its table)."""
    if t.arity != arity:
        raise ValueError(f"table has arity {t.arity}, expected {arity}")
    return t


def format_minterms(t: TruthTable, alphabet: Sequence[str] | None = None) -> str:
    """Print a sum-of-minterms normal form that parses back to the same table."""
    if alphabet is None:
        alphabet = QUESTION_VARS[t.arity]
    if len(alphabet) != t.arity:
        raise ValueError("alphabet length must equal the table arity")
    if t.bits == 0:
        return "0"
    if t.bits == (1 << t.num_inputs) - 1:
        return "1"
    terms = []
    for i in range(t.num_inputs):
        if not t.value(i):
            continue
        literals = []
        for k, name in enumerate(alphabet):
            bit = (i >> (t.arity - 1 - k)) & 1
            literals.append(name if bit else f"!{name}")
        terms.append("".join(literals))
    return " + ".join(terms)


# --- Variant classes and reduction ------------------------------------------

def _split(arity: int, k: int) -> tuple[int, int]:
    """Variable k's input stride and the table of inputs where it is 0."""
    return 1 << (arity - 1 - k), _variable_mask(arity, k) ^ ((1 << (1 << arity)) - 1)


def _negate_inputs(bits, arity: int, mask: int):
    """The tables with the inputs selected by ``mask`` negated (see ``permute_inputs``)."""
    for k in range(arity):
        if mask >> (arity - 1 - k) & 1:
            stride, low = _split(arity, k)
            bits = ((bits & low) << stride) | ((bits >> stride) & low)
    return bits


def _relevant(bits, arity: int, k: int):
    """Whether negating variable k changes each table somewhere."""
    stride, low = _split(arity, k)
    return (bits & low) != ((bits >> stride) & low)


def relevant_variables(t: TruthTable) -> frozenset[int]:
    """Variables whose negation changes the function somewhere."""
    return frozenset(k for k in range(t.arity) if _relevant(t.bits, t.arity, k))


def input_negation_variants(t: TruthTable) -> set[TruthTable]:
    """All distinct tables obtained by negating subsets of the inputs."""
    return {t.permute_inputs(mask) for mask in range(t.num_inputs)}


def canonical_representative(t: TruthTable, include_output_flip: bool = False) -> TruthTable:
    """Numerically smallest table over the input-negation (and output-flip) orbit."""
    return TruthTable(t.arity, _orbit_min(t.bits, t.arity, include_output_flip))


def _orbit_min(bits, arity: int, include_output_flip: bool):
    """The smallest table in each orbit: input-negation variants (and their complements)."""
    smaller, larger = (np.minimum, np.maximum) if isinstance(bits, np.ndarray) else (min, max)
    low = high = bits
    for mask in range(1, 1 << arity):
        variant = _negate_inputs(bits, arity, mask)
        low, high = smaller(low, variant), larger(high, variant)
    if include_output_flip:
        # a complement is full - v, so the smallest is full minus the largest variant
        low = smaller(low, (1 << (1 << arity)) - 1 - high)
    return low


@dataclass(frozen=True)
class ReducedSpace:
    """Ordered canonical function list plus the reduction stage counts.

    Behaves as a sequence of TruthTable.  ``stages`` holds one (name, count)
    pair per stage of the pipeline, in order: full space, output-flip pairing
    (full space when the flip is disabled), variant dedup, relevance filter
    (``None`` when the filter is off).
    """

    tables: tuple[TruthTable, ...] = field(repr=False)
    stages: tuple[tuple[str, int | None], ...]

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[TruthTable]:
        return iter(self.tables)

    def __getitem__(self, i):
        return self.tables[i]

    def stage_counts(self) -> dict[str, int | None]:
        return dict(self.stages)


@functools.cache
def reduce_function_space(
    arity: int,
    require_all_relevant: bool = True,
    include_output_flip: bool = True,
) -> ReducedSpace:
    """Canonical representatives of all 2**2**arity functions, sorted.

    Deduplicates by input negation, optionally folds complements together,
    and optionally keeps only classes in which every variable is relevant
    (relevance is a class invariant, so it is tested on representatives).
    The result is cached on the arguments as passed: a repeated call returns
    the same immutable ``ReducedSpace``.
    """
    if arity not in SUPPORTED_ARITIES:
        raise ValueError(f"arity must be one of {SUPPORTED_ARITIES}, got {arity}")
    full_count = 1 << (1 << arity)
    stages = [("full_space", full_count),
              ("after_output_flip", full_count // 2 if include_output_flip else full_count)]
    values = np.arange(full_count, dtype=np.uint32)
    reps = np.flatnonzero(_orbit_min(values, arity, include_output_flip) == values)
    stages.append(("after_variant_dedup", int(reps.size)))
    if require_all_relevant:
        reps = reps[np.logical_and.reduce([_relevant(reps, arity, k) for k in range(arity)])]
    stages.append(("after_relevance_filter", int(reps.size) if require_all_relevant else None))
    return ReducedSpace(tuple(TruthTable(arity, v) for v in reps.tolist()), tuple(stages))
