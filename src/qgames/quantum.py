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
- The state library is data: ``_NAMED`` and ``_FAMILIES`` list each state's
  (basis indices, amplitude) terms; one builder, ``_amplitudes``, reads them.
"""

from __future__ import annotations

import cmath
import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .boolfn import SUPPORTED_ARITIES, GameEquation

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
    return _build_gate_stack(np.array(p.as_tuple()))


def _setstate_read_only(self, state: tuple[None, dict]):
    """Unpickle a slotted holder of arrays as pickled (not re-normalized), its arrays read-only."""
    for name, value in state[1].items():
        setattr(self, name, value)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


class StateVector:
    """Normalized n-qubit pure state with big-endian amplitude order."""

    __slots__ = ("n", "amplitudes")
    __setstate__ = _setstate_read_only

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.ascontiguousarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size))) if amps.size else 0
        if amps.size < 2 or (1 << n) != amps.size:
            raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite numbers")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if norm == math.inf or norm < 1e-9:
            # the squares overflow or underflow: scale by the largest real or imaginary
            # part first, dividing the parts as reals (a complex division takes 1 / scale)
            parts = amps.view(float)
            scale = np.abs(parts).max()
            if scale == 0:
                raise ValueError("state amplitudes are the zero vector")
            amps = (parts / scale).view(complex)
            norm = np.linalg.norm(amps)
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
    __setstate__ = _setstate_read_only

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


#: Per qubit, the Pauli expectations of a density matrix's (i, j) entries:
#: row mu (I, X, Y, Z), column 2i + j, holds sigma_mu[j, i], so that
#: tr(rho sigma_mu) = sum over (i, j) of rho[i, j] sigma_mu[j, i].
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


@functools.cache
def _walsh(n: int) -> np.ndarray:
    """(2**n, 2**n) (-1)^{|a & S|} at [a, S], so g @ walsh is g-hat (read-only)."""
    index = np.arange(1 << n)
    parity = np.zeros((1 << n, 1 << n), dtype=int)
    for bit in range(n):
        parity ^= (index[:, None] & index[None, :]) >> bit & 1
    walsh = 1 - 2 * parity
    walsh.flags.writeable = False
    return walsh


@functools.cache
def _form_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per n, the index tables of the Pauli form (read-only).

    - ``support`` (4**n,): for each Pauli index mu in player order, the set S
      of the players with mu_k != 0, as a bit mask in the order of answers;
    - ``paulis`` (n, 4**n): player k's layout of L, that of its first
      contraction, axes k-1, k, ..., k-2;
    - ``questions`` (n, 2**n): player k's layout of the signs, axes k,
      k+1, ..., n-1, 0, ..., k-1;

    each layout as indices into player order.
    """
    index = np.arange(1 << n)
    mu = np.arange(4**n)
    support = sum(((mu >> 2 * (n - 1 - k) & 3) != 0) << (n - 1 - k) for k in range(n))
    axes = [[(k + j) % n for j in range(n)] for k in range(n)]
    paulis = np.stack([mu.reshape((4,) * n).transpose(order).reshape(-1)
                       for order in axes[-1:] + axes[:-1]])
    questions = np.stack([index.reshape((2,) * n).transpose(order).reshape(-1) for order in axes])
    for table in (support, paulis, questions):
        table.flags.writeable = False
    return support, paulis, questions


def _bloch(angles: np.ndarray) -> np.ndarray:
    """(..., 3) gate angles -> (..., 4) Bloch rows (1, x, y, z) of their answer-0 vectors.

    A gate answers 0 on u, the conjugate of its first row,
    u = (cos t/2, -e^{-i lam} sin t/2), whose Bloch vector
    (2 Re(conj(u0) u1), 2 Im(conj(u0) u1), |u0|^2 - |u1|^2) is
    (-sin t cos lam, sin t sin lam, cos t); phi does not enter.
    """
    theta, lam = angles[..., 0], angles[..., 2]
    sin = np.sin(theta)
    return np.stack([np.ones_like(theta), -sin * np.cos(lam), sin * np.sin(lam), np.cos(theta)],
                    axis=-1)


def _angles_from_bloch(rows: np.ndarray) -> np.ndarray:
    """(..., 4) Bloch rows -> (..., 3) angles (t, 0, lam) of gates that answer 0 on them.

    The inverse of ``_bloch`` with phi = 0: t in [0, pi], and any lam will
    do where sin t = 0.
    """
    x, y, z = rows[..., 1], rows[..., 2], rows[..., 3]
    theta = np.arctan2(np.hypot(x, y), z)
    return np.stack([theta, np.zeros_like(theta), np.arctan2(y, -x)], axis=-1)


def _unit_bloch(v: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(..., 4) rows (c, w) -> the rows (1, w / |w|), (1, 0, 0, 1) where w = 0, and |w|.

    The unit rows go to ``out`` if given, else to a new array."""
    w = v[..., 1:]
    norm = np.sqrt((w * w).sum(-1))
    zero = norm == 0
    unit = np.divide(v, np.where(zero, 1.0, norm)[..., None], out=out)
    unit[..., 0] = 1.0
    if zero.any():
        unit[zero] = (1.0, 0.0, 0.0, 1.0)
    return unit, norm


class GainKernel:
    """Vectorized win probabilities and see-saw steps for batches of strategies.

    One kernel holds one or more games that share one answer side g: one
    state per game or one shared by every game, and likewise one question
    side f per game or one shared.  Games with different g raise
    ValueError.  ``game`` is the (B,) index of each row's game, which
    picks both its state and its f, and None means that every row plays
    the first.  Every product is stacked per row, never one 2-D product
    across rows, and no arithmetic reuses a temporary in place (a sweep
    writes each player's new rows into its own input), so a row's results
    do not depend on the other rows of its batch, bit for bit, at any
    batch size.

    Every win probability comes from one form in Bloch rows: (B, n, 2, 4),
    per player k and question bit q the row A_k^q = (1, r_k^q), where
    r_k^q is the Bloch vector of the answer-0 vector.  Player k's answer
    projectors are (I +- r_k^q . sigma) / 2, and [f(q) = g(a)] =
    1 - f(q) + s_q g(a) with s_q = 2 f(q) - 1, so the win probability is
    the multilinear form

        c_f + 4**-n sum_q s_q sum_mu L[mu] prod_k A_k^{q_k}[mu_k],

    with c_f the share of questions where f is 0, mu over {I, X, Y, Z}**n,
    and L[mu] = g-hat(supp mu) <psi| sigma_mu |psi>, where
    g-hat(S) = sum_a g(a) (-1)^{a . S}.  ``gains`` turns gate angles into
    Bloch rows and evaluates the form.  The see-saw works on the rows, one
    ``sweep`` call per sweep: every player's best response in turn, in
    place; ``bloch_response`` is one such step on its own.

    Its tables are built once, in ``__init__``, and the torus path reads
    its games from them too: ``g_hat`` (2**n,) holds g-hat(S), exact
    integers, at the bit mask S of the players in the order of answers;
    ``pauli`` (n, S, 4, 4**(n-1)) holds 4**-n L of each state, contiguous,
    in the layout of each player's first contraction (``_form_index``), so
    that product reads it as it is; ``signs`` (n, F, 2, 2**(n-1)) holds s_q
    of each f in each player's layout, and ``constant`` (F,) c_f.  Each row
    reads its game's entry of every table (``_per_row``), and a table of
    one entry broadcasts it to every row.
    """

    def __init__(
        self,
        states: StateVector | Sequence[StateVector],
        eqs: GameEquation | Sequence[GameEquation],
    ):
        states = [states] if isinstance(states, StateVector) else list(states)
        eqs = [eqs] if isinstance(eqs, GameEquation) else list(eqs)
        if len(states) > 1 and len(eqs) > 1 and len(states) != len(eqs):
            raise ValueError(f"{len(states)} states for {len(eqs)} games: give one or one per game")
        n = self.n = states[0].n
        for eq in eqs:
            if n != eq.arity:
                raise ValueError(f"state has {n} qubits but the equation arity is {eq.arity}")
        if len({eq.g for eq in eqs}) > 1:
            raise ValueError("a kernel's games share one g; run each g in its own kernel")
        # (S, 2**n): one row per game, or one shared; states of other sizes do not stack
        states = self.states = np.stack([psi.amplitudes for psi in states])
        f_values = np.array([eq.f.bits for eq in eqs])[:, None] >> np.arange(1 << n) & 1
        support, paulis, questions = _form_index(n)
        self.g_hat = eqs[0].g.values() @ _walsh(n)
        # (S, 4**n): <psi| sigma_mu |psi>, each qubit's (i, j) pair of psi psi^dagger
        # mapped to its Pauli index, one qubit per product
        rho = (states[:, :, None] * states[:, None, :].conj()).reshape((-1,) + (2,) * (2 * n))
        t = rho.transpose(0, *(1 + k + n * side for k in range(n) for side in (0, 1)))
        for _ in range(n):
            t = _PAULI @ t.reshape(t.shape[0], -1, 4).swapaxes(1, 2)
        form = self.g_hat[support] * t.reshape(-1, 4**n).real / 4**n
        signs = (2.0 * f_values - 1.0)[:, questions].reshape(-1, n, 2, 1 << (n - 1))
        pauli = np.ascontiguousarray(form[:, paulis].swapaxes(0, 1))
        self.pauli = pauli.reshape(n, -1, 4, 4**(n - 1))
        self.signs = np.ascontiguousarray(signs.swapaxes(0, 1))
        self.constant = (1.0 - f_values).sum(axis=1) / (1 << n)

    @staticmethod
    def _per_row(tables: np.ndarray, index: np.ndarray | None) -> np.ndarray:
        """Each row's table out of (G, ...) tables; one table, or no index, broadcasts the first."""
        return tables[:1] if index is None or tables.shape[0] == 1 else tables[index]

    def gains(self, angle_batch: np.ndarray, game: np.ndarray | None = None) -> np.ndarray:
        """(B, 6n) angle rows -> (B,) win probabilities."""
        batch = np.asarray(angle_batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != 6 * self.n:
            raise ValueError(f"expected shape (B, {6 * self.n}), got {batch.shape}")
        wins = self.bloch_gains(_bloch(batch.reshape(batch.shape[0], self.n, 2, 3)), game)
        # rounding can put a sure win a few ulps above 1 and a sure loss below 0
        return np.clip(wins, 0.0, 1.0)

    def _response(self, rows: np.ndarray, player: int, game: np.ndarray | None) -> np.ndarray:
        """(B, 2, 4): per question bit q of the player, the V[q] of c_f + sum_q V[q] . A^q.

        V is L contracted with the other players' rows of ``rows``, then
        summed over their question bits with the signs s_q.  L, in the
        player's layout (mu_{k-1}, then mu_k, ..., mu_{k-2}), meets players
        k-1, k-2, ..., k+1 in turn.  The first product reads the stored
        table as it is; each later one takes the last axis and puts its
        question bit first, which leaves (q_{k+1}, ..., q_{k-1}, mu_k) for
        the sign table.
        """
        t = rows[:, player - 1] @ self._per_row(self.pauli[player], game)
        for j in range(player - 2, player - self.n, -1):
            t = rows[:, j] @ t.reshape(t.shape[0], -1, 4).swapaxes(1, 2)
        return self._per_row(self.signs[player], game) @ t.reshape(t.shape[0], -1, 4)

    def _step_gains(self, v: np.ndarray, norm: np.ndarray, game: np.ndarray | None) -> np.ndarray:
        """(B,) gains after a best response to V: c_f + sum_q (V[q, 0] + |V[q, 1:]|)."""
        top = v[..., 0] + norm
        return self._per_row(self.constant, game) + top[:, 0] + top[:, 1]

    def bloch_gains(self, rows: np.ndarray, game: np.ndarray | None = None) -> np.ndarray:
        """(B, n, 2, 4) Bloch rows -> (B,) win probabilities, by the Pauli form."""
        batch = rows.shape[0]
        dots = self._response(rows, 0, game).reshape(batch, 1, 8) @ rows[:, 0].reshape(batch, 8, 1)
        return self._per_row(self.constant, game) + dots.reshape(batch)

    def bloch_response(
        self, rows: np.ndarray, player: int, game: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One see-saw step: the player's best (B, 2, 4) rows and the (B,) gains they give.

        With every other player fixed, the win probability is
        c_f + sum_q (V[q, 0] + V[q, 1:] . r^q) (``_response``), and the unit
        vector r^q = V[q, 1:] / |V[q, 1:]| maximizes each question bit's
        term (Werner & Wolf 2001; Liang & Doherty 2007), at
        c_f + sum_q (V[q, 0] + |V[q, 1:]|).  Where V[q, 1:] is 0 every r^q
        is as good, and the step takes +z.  Both question bits' rows are
        replaced; ``rows`` is read, not written.
        """
        v = self._response(rows, player, game)
        new, norm = _unit_bloch(v)
        return new, self._step_gains(v, norm, game)

    def sweep(self, rows: np.ndarray, game: np.ndarray | None = None) -> np.ndarray:
        """One see-saw sweep, in place: the (B,) gains after it.

        Player 1's best response (``bloch_response``) replaces its rows in
        ``rows``, then player 2's, and so on; only the last step's gains are
        formed.
        """
        for player in range(self.n):
            v = self._response(rows, player, game)
            norm = _unit_bloch(v, rows[:, player])[1]
        return self._step_gains(v, norm, game)


def win_probability(psi: StateVector, strategy: QuantumStrategy, eq: GameEquation) -> float:
    """Probability of satisfying f(questions) = g(answers) under uniform questions."""
    if psi.n != strategy.n:
        raise ValueError(f"state has {psi.n} qubits but the strategy has {strategy.n} players")
    kernel = GainKernel(psi, eq)
    return float(kernel.gains(strategy.angles.reshape(1, -1))[0])


# --- The state library --------------------------------------------------------

Terms = Sequence[tuple[Sequence[int], complex]]
FamilyParams = Mapping[str, complex]


def _amplitudes(n: int, terms: Terms) -> np.ndarray:
    """The (2**n,) amplitudes that ``terms`` name, zero elsewhere; not normalized."""
    amps = np.zeros(1 << n, dtype=complex)
    for indices, amplitude in terms:
        for index in indices:
            amps[index] = amplitude
    return amps


_OMEGA = cmath.exp(2j * math.pi / 3.0)
_ISQ2 = 1j / math.sqrt(2.0)

#: Each named state: its qubit count and terms.
_NAMED: dict[str, tuple[int, Terms]] = {
    **{f"ghz{n}": (n, [((0, (1 << n) - 1), 1.0 / math.sqrt(2.0))]) for n in SUPPORTED_ARITIES},
    **{f"w{n}": (n, [([1 << k for k in range(n)], 1.0 / math.sqrt(n))]) for n in SUPPORTED_ARITIES},
    "mp": (4, [((0b0000, 0b0011, 0b1100, 0b1111), 0.5)]),
    "c1": (4, [((0b0000, 0b0011, 0b1100), 0.5), ((0b1111,), -0.5)]),
    "l": (4, [
        ((0b0000, 0b1111), (1.0 + _OMEGA) / 4.0), ((0b0011, 0b1100), (1.0 - _OMEGA) / 4.0),
        ((0b0110, 0b1001, 0b1010, 0b0101), _OMEGA**2 / 4.0),
    ]),
}
_NAMED["epr"] = _NAMED["ghz2"]


def make_named_state(name: str) -> StateVector:
    """Library states: epr, ghz{2,3,4}, w{2,3,4}, mp, c1, l."""
    key = name.strip().lower()
    if key not in _NAMED:
        raise ValueError(f"unknown state name {name!r}")
    return StateVector(_amplitudes(*_NAMED[key]))


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


#: Each family's parameter names and its terms as a function of those parameters.
_FAMILIES: dict[FamilyId, tuple[tuple[str, ...], Callable[..., Terms]]] = {
    FamilyId.G_ABCD: (("a", "b", "c", "d"), lambda a, b, c, d: [
        ((0b0000, 0b1111), (a + d) / 2.0), ((0b0011, 0b1100), (a - d) / 2.0),
        ((0b0101, 0b1010), (b + c) / 2.0), ((0b0110, 0b1001), (b - c) / 2.0),
    ]),
    FamilyId.L_ABC2: (("a", "b", "c"), lambda a, b, c: [
        ((0b0000, 0b1111), (a + b) / 2.0), ((0b0011, 0b1100), (a - b) / 2.0),
        ((0b1010, 0b0101), c), ((0b0110,), 1.0),
    ]),
    FamilyId.L_A2B2: (("a", "b"), lambda a, b: [
        ((0b0000, 0b1111), a), ((0b0101, 0b1010), b), ((0b0110, 0b0011), 1.0),
    ]),
    FamilyId.L_AB3: (("a", "b"), lambda a, b: [
        ((0b0000, 0b1111), a), ((0b0101, 0b1010), (a + b) / 2.0), ((0b0110, 0b1001), (a - b) / 2.0),
        ((0b0001, 0b0010), _ISQ2), ((0b1110, 0b1101), -_ISQ2),
    ]),
    FamilyId.L_A4: (("a",), lambda a: [
        ((0b0000, 0b0101, 0b1010, 0b1111), a), ((0b0001,), 1j), ((0b0110,), 1.0), ((0b1011,), -1j),
    ]),
    FamilyId.L_A2_0_3P1: (("a",), lambda a: [
        ((0b0000, 0b1111), a), ((0b0011, 0b0101, 0b0110), 1.0),
    ]),
    FamilyId.L_0_7P1: ((), lambda: [((0b0000, 0b1011, 0b1101, 0b1110), 1.0)]),
    FamilyId.L_0_5P3: ((), lambda: [((0b0000, 0b0101, 0b1000, 0b1110), 1.0)]),
    FamilyId.L_0_3P1_0_3P1: ((), lambda: [((0b0000, 0b0111), 1.0)]),
}

#: Each family's parameter names, in the order of its normal form.
FAMILY_PARAM_NAMES = {family: names for family, (names, _) in _FAMILIES.items()}

#: Each family by its name, the value of its ``FamilyId``.
FAMILY_BY_NAME = {family.value: family for family in FamilyId}


def check_family_params(family: FamilyId, names: Sequence[str]) -> None:
    """ValueError unless ``names`` gives each of the family's parameters exactly once."""
    expected = FAMILY_PARAM_NAMES[family]
    if sorted(names) != sorted(expected):
        raise ValueError(f"family {family.value} takes parameters {expected}, each once; "
                         f"got {list(names)}")


def make_family_state(family: FamilyId, params: FamilyParams | None = None) -> StateVector:
    """Normalized state from a family normal form; rejects the zero vector."""
    given = dict(params or {})
    check_family_params(family, list(given))
    amps = _amplitudes(4, _FAMILIES[family][1](**{k: complex(v) for k, v in given.items()}))
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

def _parse_complex(value) -> complex:
    """A complex number from a literal such as ``"1-0.5i"``, a JSON number or a JSON
    ``[re, im]`` pair of numbers; a JSON boolean is never a number."""
    if isinstance(value, str):
        try:
            return complex(value.strip().replace(" ", "").replace("i", "j"))
        except ValueError as exc:
            raise ValueError(f"bad complex literal {value!r}") from exc
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all(type(part) in (int, float) for part in parts):
        raise ValueError(f"cannot read a complex number from {value!r}")
    return complex(*parts)


def parse_state_literal(text: str) -> StateVector:
    """State from a CLI/config literal.

    Accepts a named state (``ghz4``), a family spec with parameters
    (``g_abcd:a=1+0i,b=0,c=0,d=1``), or a JSON array of [re, im] amplitude
    pairs in big-endian index order.
    """
    literal = text.strip()
    if literal.startswith("["):
        try:
            pairs = json.loads(literal)
            if not all(isinstance(pair, list) for pair in pairs):
                raise ValueError("an amplitude is not a pair")
            amps = [_parse_complex(pair) for pair in pairs]
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"state literal {text!r} is not a list of [re, im] number pairs") from exc
        psi = StateVector(amps)
        if psi.n not in SUPPORTED_ARITIES:
            raise ValueError(f"state has {psi.n} qubits, not one of {SUPPORTED_ARITIES}")
        return psi
    head, _, tail = literal.partition(":")
    key = head.strip().lower()
    family = FAMILY_BY_NAME.get(key)
    if family is not None:
        params: list[tuple[str, complex]] = []
        for item in tail.split(",") if tail.strip() else []:
            name, eq_, value = item.partition("=")
            if not eq_:
                raise ValueError(f"bad family parameter {item!r}")
            params.append((name.strip().lower(), _parse_complex(value)))
        check_family_params(family, [name for name, _ in params])
        return make_family_state(family, dict(params))
    if tail:
        raise ValueError(f"unknown family {head!r}")
    return make_named_state(literal)
