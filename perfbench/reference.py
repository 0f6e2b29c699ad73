"""Reference computations made apart from qgames, with numpy alone.

The benchmark checks every output of the program against these:

- ``simulate`` re-evaluates a returned strategy by a Kronecker-product
  simulation of the three-angle gates documented in ``qgames.quantum``;
- ``classical_wins`` enumerates all 2**(2n) deterministic strategies;
- ``burnside_classes`` counts variant classes by Burnside's lemma;
- ``relevant_class_tables`` finds the all-relevant class representatives
  by brute force over the whole function space.

Nothing here imports qgames: the games, states and conventions are written
out again from their definitions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TSIRELSON = math.cos(math.pi / 8) ** 2


def bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of ``index``: player 1 is the most significant bit."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def table_values(predicate, n: int) -> np.ndarray:
    """(2**n,) 0/1 values of a predicate on big-endian bit tuples."""
    return np.array([int(bool(predicate(*bits(i, n)))) for i in range(1 << n)], dtype=np.int64)


def hex_values(text: str) -> np.ndarray:
    """Values of an ``n:HEX`` truth table: bit i of the integer is the value at input i."""
    arity, digits = text.split(":")
    n, word = int(arity), int(digits, 16)
    return np.array([(word >> i) & 1 for i in range(1 << n)], dtype=np.int64)


def values_hex(values: np.ndarray) -> str:
    n = int(math.log2(len(values)))
    word = sum(int(v) << i for i, v in enumerate(values))
    return f"{n}:{word:0{len(values) // 4}X}"


# --- Games of the paper, written as predicates ------------------------------------

def chsh_f(x, y):
    return x & y


def xor_g(*answers):
    return sum(answers) % 2


def ghz_f(w, x, y, z):
    nw, nx, ny, nz = 1 - w, 1 - x, 1 - y, 1 - z
    return (x & y & z) | (x & y & nw) | (x & z & nw) | (y & z & nw) | (w & nx & ny & nz)


def w_f(w, x, y, z):
    return int(w + x + y + z >= 2)


def w_g(a, b, c, d):
    return int(a + b + c + d == 3)


# --- States -------------------------------------------------------------------------

def _normalised(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def named_state(name: str) -> np.ndarray:
    """Amplitudes of the library states, big-endian, from their definitions."""
    if name in ("epr", "ghz4"):
        n = 2 if name == "epr" else 4
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = amps[-1] = 1.0
    elif name == "w4":
        amps = np.zeros(16, dtype=complex)
        amps[[0b1000, 0b0100, 0b0010, 0b0001]] = 1.0
    elif name in ("mp", "c1"):
        amps = np.zeros(16, dtype=complex)
        amps[[0b0000, 0b0011, 0b1100]] = 1.0
        amps[0b1111] = 1.0 if name == "mp" else -1.0
    elif name == "l":
        omega = np.exp(2j * np.pi / 3)
        amps = np.zeros(16, dtype=complex)
        amps[[0b0000, 0b1111]] = 1 + omega
        amps[[0b0011, 0b1100]] = 1 - omega
        amps[[0b0110, 0b1001, 0b1010, 0b0101]] = omega**2
    else:
        raise KeyError(name)
    return _normalised(amps)


def l_a2_0_3p1_state(a: float) -> np.ndarray:
    """Family L_{a2 0_{3+1}}: a(|0000> + |1111>) + |0011> + |0101> + |0110>."""
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b1111]] = a
    amps[[0b0011, 0b0101, 0b0110]] = 1.0
    return _normalised(amps)


# --- Quantum re-simulation ------------------------------------------------------------

def gate(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ])


def simulate(amplitudes: np.ndarray, angles, f_values: np.ndarray, g_values: np.ndarray) -> float:
    """Win probability of an (n, 2, 3) angle strategy on a state, by full Kronecker products.

    For each question tuple the players' question-selected gates are
    multiplied out into one 2**n x 2**n operator, applied to the state and
    measured in the computational basis.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    total = 0.0
    for q in range(1 << n):
        operator = np.ones((1, 1))
        for player, bit in enumerate(bits(q, n)):
            operator = np.kron(operator, gate(*angles[player, bit]))
        probs = np.abs(operator @ amplitudes) ** 2
        total += float(probs[g_values == f_values[q]].sum())
    return total / (1 << n)


# --- Classical enumeration -----------------------------------------------------------------

def strategy_answers(n: int) -> np.ndarray:
    """(2**(2n), 2**n) answer index of every deterministic strategy on every question.

    Strategy s gives player i the answer pair (h_i(0), h_i(1)); pairs are
    listed player 1 first, h_i(0) the more significant bit, which is the
    encoding ``qgames.ClassicalStrategy`` documents.
    """
    table = np.zeros((1 << (2 * n), 1 << n), dtype=np.int64)
    for s, pairs in enumerate(itertools.product(itertools.product((0, 1), repeat=2), repeat=n)):
        for q in range(1 << n):
            answer = 0
            for player, bit in enumerate(bits(q, n)):
                answer = (answer << 1) | pairs[player][bit]
            table[s, q] = answer
    return table


def classical_wins(f_rows: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """(m, 2**(2n)) number of won questions for m functions f and every strategy."""
    f_rows = np.atleast_2d(f_rows).astype(np.int32)
    n = int(math.log2(f_rows.shape[1]))
    g_on_answers = g_values[strategy_answers(n)].astype(np.int32)
    return f_rows @ g_on_answers.T + (1 - f_rows) @ (1 - g_on_answers).T


def classical_optimum(f_values: np.ndarray, g_values: np.ndarray) -> float:
    return float(classical_wins(f_values, g_values).max()) / len(f_values)


# --- Function-space reduction -------------------------------------------------------------

def _cycles(permutation: list[int]) -> list[list[int]]:
    seen, cycles = set(), []
    for start in range(len(permutation)):
        if start in seen:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = permutation[i]
        cycles.append(cycle)
    return cycles


def burnside_classes(n: int) -> int:
    """Classes of n-input functions under input negations and output complement.

    Burnside's lemma: the class count is the mean, over the 2**(n+1) group
    elements (negation mask m, complement c), of the number of functions
    with f(x ^ m) ^ c == f(x) for all x.  Such an f is constant along each
    cycle of x -> x ^ m when c = 0, and alternates along it when c = 1,
    which an odd cycle forbids.
    """
    size = 1 << n
    fixed_total = 0
    for m in range(size):
        cycles = _cycles([x ^ m for x in range(size)])
        for c in (0, 1):
            if c and any(len(cycle) % 2 for cycle in cycles):
                continue
            fixed_total += 2 ** len(cycles)
    return fixed_total // (2 * size)


def _negate_inputs(words: np.ndarray, mask: int, size: int) -> np.ndarray:
    """Tables of x -> f(x ^ mask) for every table f in ``words``."""
    out = np.zeros_like(words)
    for x in range(size):
        out |= ((words >> (x ^ mask)) & 1) << x
    return out


def relevant_class_tables(n: int) -> tuple[int, list[int]]:
    """(class count, sorted all-relevant representatives) by brute force.

    Every function's class representative is its smallest table over all
    input negations and the output complement; a representative is kept
    when negating any single input changes it.
    """
    size = 1 << n
    full = (1 << size) - 1
    words = np.arange(1 << size, dtype=np.int64)
    smallest = words.copy()
    for mask in range(size):
        image = _negate_inputs(words, mask, size)
        smallest = np.minimum(smallest, np.minimum(image, full - image))
    representatives = np.unique(smallest)
    relevant = np.ones(len(representatives), dtype=bool)
    for k in range(n):
        relevant &= _negate_inputs(representatives, 1 << (n - 1 - k), size) != representatives
    return len(representatives), [int(v) for v in representatives[relevant]]
