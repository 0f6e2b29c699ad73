"""Boolean functions as truth tables: parsing, evaluation, and canonical reduction.

Conventions
-----------
- A truth table for an n-input function is a single integer whose bit i
  (value 2**i) holds the function value on the input tuple with big-endian
  encoding i.  Player 1's variable is the most significant bit, so for
  n = 4 the index is i = 8w + 4x + 2y + z.
- The textual encoding is ``n:HEX`` with 2**n table bits written as
  2**n / 4 hex digits, e.g. the 4-variable parity function is ``4:6996``.
- Expressions are read straight into tables: the parser evaluates as it
  reads, with no expression tree, so ``parse_table`` is the only reader.
- Two functions are variants of one another if they differ only by
  negating a subset of inputs (and, optionally, by complementing the
  output).  The canonical representative of a variant class is the
  numerically smallest table in the class.
- Every class query runs on one bitwise kernel, ``_negate_inputs`` and
  ``_relevant``, which takes one table (an int) or every table at once (a
  uint32 array).  ``_canonical_all`` caches each arity's read-only class
  table; ``canonical_representative`` and ``reduce_function_space`` read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

SUPPORTED_ARITIES = (2, 3, 4)

#: Default variable alphabets: questions (player order) and answers.
QUESTION_VARS = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("w", "x", "y", "z")}
ANSWER_VARS = {2: ("a", "b"), 3: ("a", "b", "c"), 4: ("a", "b", "c", "d")}


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
        try:
            arity_s, hex_s = text.strip().split(":")
            arity = int(arity_s)
            bits = int(hex_s, 16)
        except ValueError as exc:
            raise ValueError(f"malformed truth-table literal {text!r}") from exc
        return cls(arity, bits)

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


class _Parser:
    """Recursive-descent parser that evaluates as it reads: every grammar rule
    returns its table (an int) over the whole alphabet.

    Grammar (loosest to tightest binding):
        expr   := term ('+' term)*          -- OR
        term   := factor ('^' factor)*      -- XOR
        factor := atom ('*'? atom)*         -- AND, also by juxtaposition
        atom   := '!' atom | '(' expr ')' | variable | '0' | '1'
    """

    def __init__(self, text: str, alphabet: Sequence[str]):
        self.text = text
        self.pos = 0
        self.arity = len(alphabet)
        self.full = (1 << (1 << self.arity)) - 1
        # longest names first so multi-character variables tokenize greedily
        self.names = sorted(
            ((name, i) for i, name in enumerate(alphabet)),
            key=lambda kv: -len(kv[0]),
        )

    def parse(self) -> int:
        try:
            table = self._expr()
        except RecursionError:
            raise ParseError("expression nests too deeply", self.pos) from None
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected input {self.text[self.pos]!r}", self.pos)
        return table

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> int:
        table = self._term()
        while self._peek() == "+":
            self.pos += 1
            table |= self._term()
        return table

    def _term(self) -> int:
        table = self._factor()
        while self._peek() == "^":
            self.pos += 1
            table ^= self._factor()
        return table

    def _factor(self) -> int:
        table = self._atom()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                table &= self._atom()
            elif ch == "!" or ch == "(" or ch == "0" or ch == "1" or self._at_variable():
                table &= self._atom()
            else:
                return table

    def _at_variable(self) -> bool:
        self._skip_ws()
        return any(self.text.startswith(name, self.pos) for name, _ in self.names)

    def _atom(self) -> int:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return self.full ^ self._atom()
        if ch == "(":
            self.pos += 1
            table = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return table
        if ch == "0" or ch == "1":
            self.pos += 1
            return self.full if ch == "1" else 0
        for name, index in self.names:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return _variable_mask(self.arity, index)
        if ch and (ch.isalpha() or ch == "_"):
            raise ParseError(f"unknown variable {ch!r}", self.pos)
        raise ParseError("expected a variable, constant, '!' or '('", self.pos)


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
    return TruthTable(len(alphabet), _Parser(text, alphabet).parse())


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
    return TruthTable(t.arity, int(_canonical_all(t.arity, include_output_flip)[t.bits]))


@functools.cache
def _canonical_all(arity: int, include_output_flip: bool) -> np.ndarray:
    """Canonical representative of every function, indexed by table value (read-only)."""
    size = 1 << arity
    values = np.arange(1 << size, dtype=np.uint32)
    # one block, not a running minimum: freeing 4 MB here raises glibc's mmap
    # threshold, and a later search then ran about 15% faster (arity 4)
    variants = np.empty((size, values.size), dtype=np.uint32)
    for mask in range(size):
        variants[mask] = _negate_inputs(values, arity, mask)
    canon = variants.min(axis=0)
    if include_output_flip:
        # a complement is full - v, so the smallest is full minus the largest variant
        canon = np.minimum(canon, np.uint32((1 << size) - 1) - variants.max(axis=0))
    canon.flags.writeable = False
    return canon


@dataclass(frozen=True)
class ReducedSpace:
    """Ordered canonical function list plus the reduction stage counts.

    Behaves as a sequence of TruthTable.  Stage counts follow the pipeline:
    full space, output-flip pairing (full space when the flip is disabled),
    variant dedup, relevance filter (``None`` when the filter is off).
    """

    arity: int
    include_output_flip: bool
    require_all_relevant: bool
    full_count: int
    after_output_flip: int
    after_variant_dedup: int
    after_relevance: int | None
    tables: tuple[TruthTable, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[TruthTable]:
        return iter(self.tables)

    def __getitem__(self, i):
        return self.tables[i]

    def stage_counts(self) -> dict[str, int | None]:
        return {
            "full_space": self.full_count,
            "after_output_flip": self.after_output_flip,
            "after_variant_dedup": self.after_variant_dedup,
            "after_relevance_filter": self.after_relevance,
        }


def reduce_function_space(
    arity: int,
    require_all_relevant: bool = True,
    include_output_flip: bool = True,
) -> ReducedSpace:
    """Canonical representatives of all 2**2**arity functions, sorted.

    Deduplicates by input negation, optionally folds complements together,
    and optionally keeps only classes in which every variable is relevant
    (relevance is a class invariant, so it is tested on representatives).
    """
    if arity not in SUPPORTED_ARITIES:
        raise ValueError(f"arity must be one of {SUPPORTED_ARITIES}, got {arity}")
    size = 1 << arity
    full_count = 1 << size
    canon = _canonical_all(arity, include_output_flip)
    reps = np.unique(canon)
    after_dedup = int(reps.size)
    after_relevance = None
    if require_all_relevant:
        reps = reps[np.logical_and.reduce([_relevant(reps, arity, k) for k in range(arity)])]
        after_relevance = int(reps.size)
    tables = tuple(TruthTable(arity, int(v)) for v in reps)
    return ReducedSpace(
        arity=arity,
        include_output_flip=include_output_flip,
        require_all_relevant=require_all_relevant,
        full_count=full_count,
        after_output_flip=full_count // 2 if include_output_flip else full_count,
        after_variant_dedup=after_dedup,
        after_relevance=after_relevance,
        tables=tables,
    )
