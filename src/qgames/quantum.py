"""State vectors, strategy unitaries, win probabilities, and the state library.

Conventions
-----------
- Basis indices are big-endian in qubit order: player 1 holds the most
  significant bit, so |1000...0> has index 2**(n-1).
- Every single-qubit gate is the three-angle unitary
      [[cos(t/2),            -e^{i*lam} sin(t/2)],
       [e^{i*phi} sin(t/2),   e^{i*(phi+lam)} cos(t/2)]].
- Measurement is always in the computational basis after the gates; the
  answer tuple is the measured bit string in player order.
- Win probability averages over all 2**n question tuples with equal weight.
- ``phi`` never changes a win probability: it multiplies the second row of
  the gate, and so every answer-1 amplitude of that player on that question,
  by one phase, which no outcome probability sees.  The optimizer therefore
  returns phi = 0.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boolfn import GameEquation

NORM_ATOL = 1e-12
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class UnitaryParams:
    """Angle triple (theta, phi, lam) for a single-qubit gate in radians.

    Angles are unbounded reals; use :meth:`reduced` for mod-4pi reporting.
    """

    theta: float
    phi: float
    lam: float

    def reduced(self) -> "UnitaryParams":
        return UnitaryParams(self.theta % FOUR_PI, self.phi % FOUR_PI, self.lam % FOUR_PI)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta, self.phi, self.lam)


def build_unitary(p: UnitaryParams) -> np.ndarray:
    """2x2 complex matrix of the three-angle parameterization."""
    half = p.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    return np.array(
        [
            [c, -cmath.exp(1j * p.lam) * s],
            [cmath.exp(1j * p.phi) * s, cmath.exp(1j * (p.phi + p.lam)) * c],
        ],
        dtype=complex,
    )


class StateVector:
    """Normalized n-qubit pure state with big-endian amplitude order."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size))) if amps.size else 0
        if amps.size < 2 or (1 << n) != amps.size:
            raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite numbers")
        norm = np.linalg.norm(amps)
        if norm < 1e-9:
            raise ValueError("state amplitudes are (numerically) the zero vector")
        amps = amps / norm
        amps.setflags(write=False)
        self.n = n
        self.amplitudes = amps

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n)

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"


class QuantumStrategy:
    """Per-player, per-question gate angles: an (n, 2, 3) array."""

    __slots__ = ("n", "angles")

    def __init__(self, angles: np.ndarray | Sequence):
        arr = np.asarray(angles, dtype=float)
        if arr.ndim != 3 or arr.shape[1:] != (2, 3):
            raise ValueError(f"expected shape (n, 2, 3), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.n = arr.shape[0]
        self.angles = arr

    def params(self, player: int, question_bit: int) -> UnitaryParams:
        t, p, l = self.angles[player, question_bit]
        return UnitaryParams(float(t), float(p), float(l))

    def gate(self, player: int, question_bit: int) -> np.ndarray:
        return build_unitary(self.params(player, question_bit))

    def reduced_angles(self) -> np.ndarray:
        """Angles folded into [0, 4pi) for reporting."""
        return np.mod(self.angles, FOUR_PI)

    @classmethod
    def identity(cls, n: int) -> "QuantumStrategy":
        return cls(np.zeros((n, 2, 3)))


def _apply_single_qubit(tensor: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    moved = np.tensordot(gate, tensor, axes=([1], [qubit]))
    return np.moveaxis(moved, 0, qubit)


def apply_strategy(psi: StateVector, strategy: QuantumStrategy, question: Sequence[int]) -> StateVector:
    """Apply each player's question-selected gate to their own qubit.

    Only n single-qubit applications are performed; the full 2**n x 2**n
    operator is never formed.
    """
    if psi.n != strategy.n or len(question) != psi.n:
        raise ValueError(
            f"dimension mismatch: state n={psi.n}, strategy n={strategy.n}, "
            f"question length {len(question)}"
        )
    t = psi.tensor()
    for i, q in enumerate(question):
        t = _apply_single_qubit(t, strategy.gate(i, q & 1), i)
    return StateVector(t.reshape(-1))


def outcome_distribution(psi: StateVector) -> np.ndarray:
    """Computational-basis probabilities, indexed big-endian."""
    return np.abs(psi.amplitudes) ** 2


def _build_gate_stack(angles: np.ndarray) -> np.ndarray:
    """Vectorized gate construction: (..., 3) angles -> (..., 2, 2) unitaries."""
    theta, phi, lam = angles[..., 0], angles[..., 1], angles[..., 2]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


def win_mask(eq: GameEquation) -> np.ndarray:
    """Flat (2**n * 2**n,) 0/1 mask over (question, answer) pairs with f(q) = g(a)."""
    size = 1 << eq.arity
    f = np.array([eq.f.value(q) for q in range(size)])
    g = np.array([eq.g.value(a) for a in range(size)])
    return (f[:, None] == g[None, :]).astype(float).reshape(-1)


def _apply_2x2(m: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m00 x0 + m01 x1, m10 x0 + m11 x1) for a broadcastable (..., 2, 2) matrix m."""
    return m[..., 0, 0] * x0 + m[..., 0, 1] * x1, m[..., 1, 0] * x0 + m[..., 1, 1] * x1


class GainKernel:
    """Vectorized win-probability evaluation for batches of strategies.

    ``amplitudes`` contracts the shared state with every player's two gates,
    one player at a time, producing the amplitudes of all (question, answer)
    pairs at once; the win mask then reduces them to gains.
    ``partial_amplitudes``, ``response_operator`` and
    ``amplitudes_from_partial`` are the steps of one player's best response
    in the see-saw optimizer.

    For one player, the (B, 2**n, 2**n) amplitudes are viewed as
    (B, hi, q, lo, hi, a, lo): ``q`` and ``a`` are the player's question and
    answer bits, ``hi`` and ``lo`` the bits of the players before and after
    them.  Such a view costs no copy.
    """

    def __init__(self, psi: StateVector, eq: GameEquation):
        if psi.n != eq.arity:
            raise ValueError(f"state has {psi.n} qubits but the equation arity is {eq.arity}")
        n = self.n = psi.n
        self.psi_tensor = psi.tensor()
        self.mask = win_mask(eq)
        # per player, (hi, q, lo, hi, lo): the win mask with them answering 0 minus answering 1
        self._signs = []
        for k in range(n):
            m = self._player_view(self.mask[None], k)[0]
            self._signs.append(m[..., 0, :] - m[..., 1, :])

    def _player_view(self, amps: np.ndarray, player: int) -> np.ndarray:
        hi, lo = 1 << player, 1 << (self.n - 1 - player)
        return amps.reshape(amps.shape[0], hi, 2, lo, hi, 2, lo)

    def amplitudes(self, gates: np.ndarray) -> np.ndarray:
        """(B, n, 2, 2, 2) gates per (player, question bit) -> (B, 2**n, 2**n) amplitudes.

        Rows are question tuples and columns answer tuples, both big-endian.
        """
        batch, n = gates.shape[0], self.n
        t = self.psi_tensor.reshape(1, 1, -1)
        for i in range(n):
            # (B, done players' (question, answer) bits, this player's qubit, the rest)
            t = t.reshape(t.shape[0], 4**i, 2, -1).transpose(0, 2, 1, 3).reshape(t.shape[0], 2, -1)
            t = gates[:, i].reshape(batch, 4, 2) @ t
        # the bits come out as (q_n, a_n, ..., q_1, a_1): put the questions first
        t = t.reshape((batch,) + (2,) * (2 * n))
        order = (0, *range(2 * n - 1, 0, -2), *range(2 * n, 0, -2))
        return t.transpose(order).reshape(batch, 1 << n, 1 << n)

    def gains_of(self, amps: np.ndarray) -> np.ndarray:
        """(B, 2**n, 2**n) amplitudes -> (B,) win probabilities."""
        probs = amps.real**2 + amps.imag**2
        # rounding can put a sure win a few ulps above 1
        return np.minimum(probs.reshape(amps.shape[0], -1) @ self.mask / (1 << self.n), 1.0)

    def gains(self, angle_batch: np.ndarray) -> np.ndarray:
        """(B, 6n) angle rows -> (B,) win probabilities."""
        batch = np.asarray(angle_batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != 6 * self.n:
            raise ValueError(f"expected shape (B, {6 * self.n}), got {batch.shape}")
        gates = _build_gate_stack(batch.reshape(batch.shape[0], self.n, 2, 3))
        return self.gains_of(self.amplitudes(gates))

    def partial_amplitudes(
        self, amps: np.ndarray, gates: np.ndarray, player: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Amplitudes with one player's gates undone, one array per index of their qubit.

        ``amps`` come from ``amplitudes``; ``gates`` (B, 2, 2, 2) are the
        player's gates inside them.  Each array is (B, hi, q, lo, hi, lo);
        the player's answer-c amplitude is row c of their gate for question
        q applied to the pair.
        """
        view = self._player_view(amps, player)
        undo = gates.conj().swapaxes(-1, -2).reshape(-1, 1, 2, 1, 1, 1, 2, 2)
        return _apply_2x2(undo, view[..., 0, :], view[..., 1, :])

    def response_operator(
        self, partial: tuple[np.ndarray, np.ndarray], player: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(h, b), each (B, 2): the player's response operator per question bit.

        If the player answers 0 on |u> and 1 on the orthogonal vector, the
        win probability is <u|D|u> / 2**n plus terms free of u, where
        D = [[c + h, b], [conj(b), c - h]] for some real c is built from
        ``partial`` and the win mask with the player answering 0 minus
        answering 1.
        """
        p0, p1 = partial
        signs = self._signs[player]
        h = (signs * (p0.real**2 + p0.imag**2 - p1.real**2 - p1.imag**2)).sum(axis=(1, 3, 4, 5))
        return h / 2.0, (signs * p0 * p1.conj()).sum(axis=(1, 3, 4, 5))

    def amplitudes_from_partial(
        self, partial: tuple[np.ndarray, np.ndarray], gates: np.ndarray
    ) -> np.ndarray:
        """Inverse of ``partial_amplitudes``: apply the player's (new) gates."""
        a0, a1 = _apply_2x2(gates.reshape(-1, 1, 2, 1, 1, 1, 2, 2), *partial)
        return np.stack([a0, a1], axis=5).reshape(a0.shape[0], 1 << self.n, 1 << self.n)


def win_probability(psi: StateVector, strategy: QuantumStrategy, eq: GameEquation) -> float:
    """Probability of satisfying f(questions) = g(answers) under uniform questions."""
    if psi.n != strategy.n:
        raise ValueError(f"state has {psi.n} qubits but the strategy has {strategy.n} players")
    kernel = GainKernel(psi, eq)
    return float(kernel.gains(strategy.angles.reshape(1, -1))[0])


# --- Named states -------------------------------------------------------------

_NAMED_RE = re.compile(r"^(ghz|w)([234])$")


def make_named_state(name: str) -> StateVector:
    """Library states: epr, ghz{2,3,4}, w{2,3,4}, mp, c1, l."""
    key = name.strip().lower()
    if key == "epr":
        key = "ghz2"
    m = _NAMED_RE.match(key)
    if m:
        kind, n = m.group(1), int(m.group(2))
        amps = np.zeros(1 << n, dtype=complex)
        if kind == "ghz":
            amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
        else:
            for k in range(n):
                amps[1 << k] = 1.0 / math.sqrt(n)
        return StateVector(amps)
    if key in ("mp", "c1"):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = amps[0b0011] = amps[0b1100] = 0.5
        amps[0b1111] = 0.5 if key == "mp" else -0.5
        return StateVector(amps)
    if key == "l":
        omega = cmath.exp(2j * math.pi / 3.0)
        amps = np.zeros(16, dtype=complex)
        for i in (0b0000, 0b1111):
            amps[i] = (1.0 + omega) / 4.0
        for i in (0b0011, 0b1100):
            amps[i] = (1.0 - omega) / 4.0
        for i in (0b0110, 0b1001, 0b1010, 0b0101):
            amps[i] = omega**2 / 4.0
        return StateVector(amps)
    raise ValueError(f"unknown state name {name!r}")


# --- The nine four-qubit families ----------------------------------------------

class FamilyId(enum.Enum):
    G_ABCD = "g_abcd"
    L_ABC2 = "l_abc2"
    L_A2B2 = "l_a2b2"
    L_AB3 = "l_ab3"
    L_A4 = "l_a4"
    L_A2_0_3P1 = "l_a2_0_3p1"
    L_0_7P1 = "l_0_7p1"
    L_0_5P3 = "l_0_5p3"
    L_0_3P1_0_3P1 = "l_0_3p1_0_3p1"


FAMILY_PARAM_NAMES: dict[FamilyId, tuple[str, ...]] = {
    FamilyId.G_ABCD: ("a", "b", "c", "d"),
    FamilyId.L_ABC2: ("a", "b", "c"),
    FamilyId.L_A2B2: ("a", "b"),
    FamilyId.L_AB3: ("a", "b"),
    FamilyId.L_A4: ("a",),
    FamilyId.L_A2_0_3P1: ("a",),
    FamilyId.L_0_7P1: (),
    FamilyId.L_0_5P3: (),
    FamilyId.L_0_3P1_0_3P1: (),
}

FamilyParams = Mapping[str, complex]


def _family_amplitudes(family: FamilyId, p: Mapping[str, complex]) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    isq2 = 1j / math.sqrt(2.0)
    if family is FamilyId.G_ABCD:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        amps[0b0000] = amps[0b1111] = (a + d) / 2.0
        amps[0b0011] = amps[0b1100] = (a - d) / 2.0
        amps[0b0101] = amps[0b1010] = (b + c) / 2.0
        amps[0b0110] = amps[0b1001] = (b - c) / 2.0
    elif family is FamilyId.L_ABC2:
        a, b, c = p["a"], p["b"], p["c"]
        amps[0b0000] = amps[0b1111] = (a + b) / 2.0
        amps[0b0011] = amps[0b1100] = (a - b) / 2.0
        amps[0b1010] = amps[0b0101] = c
        amps[0b0110] = 1.0
    elif family is FamilyId.L_A2B2:
        a, b = p["a"], p["b"]
        amps[0b0000] = amps[0b1111] = a
        amps[0b0101] = amps[0b1010] = b
        amps[0b0110] = amps[0b0011] = 1.0
    elif family is FamilyId.L_AB3:
        a, b = p["a"], p["b"]
        amps[0b0000] = amps[0b1111] = a
        amps[0b0101] = amps[0b1010] = (a + b) / 2.0
        amps[0b0110] = amps[0b1001] = (a - b) / 2.0
        amps[0b0001] = amps[0b0010] = isq2
        amps[0b1110] = amps[0b1101] = -isq2
    elif family is FamilyId.L_A4:
        a = p["a"]
        amps[0b0000] = amps[0b0101] = amps[0b1010] = amps[0b1111] = a
        amps[0b0001] = 1j
        amps[0b0110] = 1.0
        amps[0b1011] = -1j
    elif family is FamilyId.L_A2_0_3P1:
        a = p["a"]
        amps[0b0000] = amps[0b1111] = a
        amps[0b0011] = amps[0b0101] = amps[0b0110] = 1.0
    elif family is FamilyId.L_0_7P1:
        amps[0b0000] = amps[0b1011] = amps[0b1101] = amps[0b1110] = 1.0
    elif family is FamilyId.L_0_5P3:
        amps[0b0000] = amps[0b0101] = amps[0b1000] = amps[0b1110] = 1.0
    elif family is FamilyId.L_0_3P1_0_3P1:
        amps[0b0000] = amps[0b0111] = 1.0
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled family {family}")
    return amps


def make_family_state(family: FamilyId, params: FamilyParams | None = None) -> StateVector:
    """Normalized state from a family normal form; rejects the zero vector."""
    names = FAMILY_PARAM_NAMES[family]
    given = dict(params or {})
    missing = [k for k in names if k not in given]
    extra = [k for k in given if k not in names]
    if missing or extra:
        raise ValueError(
            f"family {family.value} takes parameters {names}; "
            f"missing {missing}, unexpected {extra}"
        )
    amps = _family_amplitudes(family, {k: complex(v) for k, v in given.items()})
    if np.linalg.norm(amps) < 1e-9:
        raise ValueError(f"family {family.value} parameters give the zero vector")
    return StateVector(amps)


def random_family_params(
    family: FamilyId, seed: int | np.random.SeedSequence | np.random.Generator
) -> dict[str, complex]:
    """Seeded parameter draw: modulus uniform in [0.2, 2.0], phase in [0, 2pi)."""
    names = FAMILY_PARAM_NAMES[family]
    if not names:
        raise ValueError(f"family {family.value} is parameter-free")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = {}
    for name in names:
        modulus = rng.uniform(0.2, 2.0)
        phase = rng.uniform(0.0, TWO_PI)
        out[name] = modulus * cmath.exp(1j * phase)
    return out


# --- State literals -------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc


def parse_state_literal(text: str) -> StateVector:
    """State from a CLI/config literal.

    Accepts a named state (``ghz4``), a family spec with parameters
    (``g_abcd:a=1+0i,b=0,c=0,d=1``), or a JSON array of [re, im] amplitude
    pairs in big-endian index order.
    """
    literal = text.strip()
    if literal.startswith("["):
        pairs = json.loads(literal)
        amps = [complex(re_, im_) for re_, im_ in pairs]
        return StateVector(amps)
    head, _, tail = literal.partition(":")
    key = head.strip().lower()
    family = next((f for f in FamilyId if f.value == key), None)
    if family is not None:
        params: dict[str, complex] = {}
        if tail.strip():
            for item in tail.split(","):
                name, eq_, value = item.partition("=")
                if not eq_:
                    raise ValueError(f"bad family parameter {item!r}")
                params[name.strip().lower()] = _parse_complex(value)
        return make_family_state(family, params)
    if tail:
        raise ValueError(f"unknown family {head!r}")
    return make_named_state(literal)
