"""State, gate, and win-probability tests.

The win-probability oracle used here is independent of the production path:
it materializes the full tensor-product operator with np.kron and sums the
winning outcome probabilities question by question.
"""

import cmath
import itertools
import math
import pickle

import numpy as np
import pytest

from qgames.boolfn import ANSWER_VARS, QUESTION_VARS, GameEquation, TruthTable, parse_table
from qgames.quantum import (
    FAMILY_PARAM_NAMES,
    FamilyId,
    GainKernel,
    QuantumStrategy,
    StateVector,
    UnitaryParams,
    _bloch,
    _unit_bloch,
    apply_strategy,
    build_unitary,
    check_family_params,
    make_family_state,
    make_named_state,
    outcome_distribution,
    parse_state_literal,
    random_family_params,
    win_probability,
)

RNG = np.random.default_rng(421)


def kron_win_probability(psi, strategy, eq):
    """Oracle: explicit 2^n x 2^n operator per question, then direct summation."""
    n = psi.n
    total = 0.0
    for question in itertools.product((0, 1), repeat=n):
        op = np.array([[1.0]])
        for i, q in enumerate(question):
            op = np.kron(op, strategy.gate(i, q))
        out = op @ psi.amplitudes
        probs = np.abs(out) ** 2
        q_index = int("".join(map(str, question)), 2)
        fq = eq.f.value(q_index)
        total += sum(probs[a] for a in range(1 << n) if eq.g.value(a) == fq)
    return total / (1 << n)


def random_strategy(n, rng=RNG):
    return QuantumStrategy(rng.uniform(0, 4 * math.pi, (n, 2, 3)))


def random_state(n, rng=RNG):
    re = rng.normal(size=1 << n)
    im = rng.normal(size=1 << n)
    return StateVector(re + 1j * im)


def ghz_game_equation():
    f = parse_table("xyz + xy!w + xz!w + yz!w + w!x!y!z", QUESTION_VARS[4])
    g = parse_table("a^b^c^d", ANSWER_VARS[4])
    return GameEquation(f, g)


def w_game_equation():
    f = parse_table("wx + wy + wz + xy + xz + yz", QUESTION_VARS[4])
    g = parse_table("!abcd + a!bcd + ab!cd + abc!d", ANSWER_VARS[4])
    return GameEquation(f, g)


TABLE_GHZ_ANGLES = [
    [(3 * math.pi / 2, 2.7153, 4.4219), (math.pi / 2, 4.9531, 5.9927)],
    [(3 * math.pi / 2, 3.7575, 4.9831), (3 * math.pi / 2, 3.9628, 0.2707)],
    [(math.pi / 2, 6.0502, 3.6010), (math.pi / 2, 6.0234, 5.1718)],
    [(3 * math.pi / 2, 3.8370, 1.9164), (7.853, 0.6599, 0.3456)],
]

TABLE_W_ANGLES = [
    [(8.6486, 1.5440, 6.4701), (3.3477, 0.8709, 0.1882)],
    [(3.9180, 0.2608, 3.3286), (3.3475, 2.7149, 0.1868)],
    [(3.9178, 5.6411, -2.9545), (2.9354, 5.5383, 3.3283)],
    [(2.3654, 0.7975, 6.4703), (9.6308, 3.4886, 0.1862)],
]


class TestBuildUnitary:
    def test_identity(self):
        U = build_unitary(UnitaryParams(0, 0, 0))
        assert np.allclose(U, np.eye(2), atol=1e-15)

    def test_bit_flip(self):
        U = build_unitary(UnitaryParams(math.pi, 0, math.pi))
        assert np.allclose(U, [[0, 1], [1, 0]], atol=1e-12)

    def test_hadamard(self):
        U = build_unitary(UnitaryParams(math.pi / 2, 0, math.pi))
        assert np.allclose(U, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-12)

    def test_unitary_for_1000_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = UnitaryParams(*rng.uniform(-20, 20, 3))
            U = build_unitary(p)
            assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)

    def test_params_reported_mod_4pi(self):
        p = UnitaryParams(9 * math.pi, -1.0, 13.0)
        r = p.reduced()
        assert 0 <= r.theta < 4 * math.pi
        assert 0 <= r.phi < 4 * math.pi
        assert 0 <= r.lam < 4 * math.pi
        assert r.theta == pytest.approx(math.pi)


class TestStateVector:
    def test_normalizes_on_construction(self):
        psi = StateVector([3.0, 4.0])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector([0, 0, 0, 0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector([1, 0, 0])

    def test_amplitudes_are_read_only(self):
        psi = make_named_state("ghz4")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_pickling_keeps_the_bytes_and_the_read_only_flag(self):
        rng = np.random.default_rng(3)
        psi = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
        # re-normalizing this state changes its last bits, so unpickling must not
        assert StateVector(psi.amplitudes).amplitudes.tobytes() != psi.amplitudes.tobytes()
        strategy = QuantumStrategy(rng.normal(size=(2, 2, 3)))
        for original, field in ((psi, "amplitudes"), (strategy, "angles")):
            copy = pickle.loads(pickle.dumps(original))
            assert copy.n == original.n
            assert getattr(copy, field).tobytes() == getattr(original, field).tobytes()
            assert not getattr(copy, field).flags.writeable

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError):
            StateVector([bad, 0, 0, 1])

    def test_family_literal_with_nan_parameter_is_rejected(self):
        with pytest.raises(ValueError):
            parse_state_literal("g_abcd:a=nan,b=0,c=0,d=1")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("literal, limit", [
        ("[[1e200,0],[0,0],[0,0],[1e200,0]]", "epr"),
        ("[[1.7e308,-1.7e308],[0,0],[0,0],[0,1.7e308]]", "[[1,-1],[0,0],[0,0],[0,1]]"),
        ("l_a4:a=1e200", "l_a4:a=1e100"),
        ("g_abcd:a=1e200,b=1e200j,c=0,d=-1e200", "g_abcd:a=1,b=1j,c=0,d=-1"),
    ], ids=["json-1e200", "json-largest", "l_a4-1e200", "g_abcd-1e200"])
    def test_a_norm_that_overflows_gives_a_unit_vector(self, literal, limit):
        # the squares of these amplitudes overflow a float, so a plain norm is inf
        psi = parse_state_literal(literal)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        assert np.allclose(psi.amplitudes, parse_state_literal(limit).amplitudes, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("literal, limit", [
        ("[[1e-10,0],[0,0],[0,0],[1e-10,0]]", "epr"),
        ("[[1e-200,0],[0,0],[0,0],[0,-1e-200]]", "[[1,0],[0,0],[0,0],[0,-1]]"),
        ("[[5e-324,0],[0,0],[0,0],[0,5e-324]]", "[[1,0],[0,0],[0,0],[0,1]]"),
        ("g_abcd:a=1e-300,b=0,c=0,d=1e-300j", "g_abcd:a=1,b=0,c=0,d=1j"),
    ], ids=["json-1e-10", "json-1e-200", "json-subnormal", "g_abcd-1e-300"])
    def test_a_norm_below_the_threshold_gives_a_unit_vector(self, literal, limit):
        # a literal is normalized, so its scale must not decide whether it is accepted
        psi = parse_state_literal(literal)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        assert np.allclose(psi.amplitudes, parse_state_literal(limit).amplitudes, atol=1e-12)

    def test_a_finite_norm_keeps_the_plain_division(self):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e150):
            amps = scale * (rng.normal(size=16) + 1j * rng.normal(size=16))
            expected = amps / np.linalg.norm(amps)
            assert StateVector(amps).amplitudes.tobytes() == expected.tobytes()


class TestApplyStrategy:
    def test_identity_strategy_is_noop(self):
        psi = random_state(3)
        out = apply_strategy(psi, QuantumStrategy.identity(3), (0, 1, 0))
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_bit_flips_map_zero_to_ones(self):
        psi = StateVector([1] + [0] * 15)
        flip = [[(math.pi, 0, math.pi)] * 2] * 4
        out = apply_strategy(psi, QuantumStrategy(flip), (0, 0, 0, 0))
        assert abs(out.amplitudes[15]) == pytest.approx(1.0)

    def test_norm_preserved_for_random_inputs(self):
        for n in (2, 3, 4):
            for _ in range(20):
                psi = random_state(n)
                out = apply_strategy(psi, random_strategy(n), tuple(RNG.integers(0, 2, n)))
                assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10

    def test_question_selects_gates(self):
        psi = StateVector([1, 0, 0, 0])
        angles = np.zeros((2, 2, 3))
        angles[0, 1] = (math.pi, 0, math.pi)  # player 1 flips only on question 1
        strategy = QuantumStrategy(angles)
        out0 = apply_strategy(psi, strategy, (0, 0))
        out1 = apply_strategy(psi, strategy, (1, 0))
        assert abs(out0.amplitudes[0]) == pytest.approx(1.0)
        assert abs(out1.amplitudes[2]) == pytest.approx(1.0)

    def test_a_strategy_needs_two_gates_of_three_angles_a_player(self):
        with pytest.raises(ValueError, match=r"expected shape \(n, 2, 3\), got \(4, 3, 3\)"):
            QuantumStrategy(np.zeros((4, 3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_strategy(make_named_state("ghz4"), QuantumStrategy.identity(3), (0, 0, 0))
        with pytest.raises(ValueError):
            apply_strategy(make_named_state("ghz4"), QuantumStrategy.identity(4), (0, 0))


class TestOutcomeDistribution:
    def test_basis_state(self):
        probs = outcome_distribution(StateVector([1] + [0] * 15))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_ghz(self):
        probs = outcome_distribution(make_named_state("ghz4"))
        assert probs[0] == pytest.approx(0.5)
        assert probs[15] == pytest.approx(0.5)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_w(self):
        probs = outcome_distribution(make_named_state("w4"))
        for i in (1, 2, 4, 8):
            assert probs[i] == pytest.approx(0.25)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestWinProbability:
    def test_refuses_a_strategy_of_another_player_count(self):
        strategy = QuantumStrategy.identity(4)
        with pytest.raises(ValueError, match="state has 2 qubits but the strategy has 4 players"):
            win_probability(make_named_state("epr"), strategy, ghz_game_equation())

    def test_trivial_zero_game(self):
        psi = StateVector([1] + [0] * 15)
        eq = GameEquation(TruthTable(4, 0), TruthTable(4, 0x6996))
        assert win_probability(psi, QuantumStrategy.identity(4), eq) == pytest.approx(1.0)

    def test_ghz_game_reference_angles(self):
        value = win_probability(make_named_state("ghz4"), QuantumStrategy(TABLE_GHZ_ANGLES), ghz_game_equation())
        assert value == pytest.approx(0.8535, abs=1e-3)

    def test_w_game_reference_angles(self):
        value = win_probability(make_named_state("w4"), QuantumStrategy(TABLE_W_ANGLES), w_game_equation())
        assert value == pytest.approx(0.7499, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_kron_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            psi = random_state(n, rng)
            strategy = random_strategy(n, rng)
            eq = GameEquation(
                TruthTable(n, int(rng.integers(0, 1 << (1 << n)))),
                TruthTable(n, int(rng.integers(0, 1 << (1 << n)))),
            )
            fast = win_probability(psi, strategy, eq)
            slow = kron_win_probability(psi, strategy, eq)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_complement_partition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = random_state(4, rng)
            strategy = random_strategy(4, rng)
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            g = TruthTable(4, int(rng.integers(0, 1 << 16)))
            p = win_probability(psi, strategy, GameEquation(f, g))
            q = win_probability(psi, strategy, GameEquation(f.complement(), g))
            assert p + q == pytest.approx(1.0, abs=1e-10)

    def test_answer_flip_symmetry_for_parity_games(self):
        # complementing f is undone by one player reporting a flipped answer;
        # on angles the flip is (theta, phi, lam) -> (pi - theta, -phi, lam + pi)
        g = parse_table("a^b^c^d", ANSWER_VARS[4])
        rng = np.random.default_rng(6)
        for _ in range(5):
            psi = random_state(4, rng)
            strategy = random_strategy(4, rng)
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            flipped = strategy.angles.copy()
            flipped[0, :, 0] = math.pi - flipped[0, :, 0]
            flipped[0, :, 1] = -flipped[0, :, 1]
            flipped[0, :, 2] = flipped[0, :, 2] + math.pi
            p = win_probability(psi, strategy, GameEquation(f, g))
            q = win_probability(psi, QuantumStrategy(flipped), GameEquation(f.complement(), g))
            assert p == pytest.approx(q, abs=1e-10)

    def test_invariant_under_simultaneous_player_permutation(self):
        rng = np.random.default_rng(8)
        n = 4
        for _ in range(5):
            psi = random_state(n, rng)
            strategy = random_strategy(n, rng)
            f = TruthTable(n, int(rng.integers(0, 1 << 16)))
            g = TruthTable(n, int(rng.integers(0, 1 << 16)))
            perm = tuple(rng.permutation(n))
            # permute qubits of the state, strategy rows, and both table inputs
            psi_p = StateVector(psi.tensor().transpose(perm).reshape(-1))
            strat_p = QuantumStrategy(strategy.angles[list(perm)])

            def permute_table(t):
                bits = 0
                for i in range(1 << n):
                    src = 0
                    for pos in range(n):
                        bit = (i >> (n - 1 - pos)) & 1
                        src |= bit << (n - 1 - perm[pos])
                    bits |= t.value(src) << i
                return TruthTable(n, bits)

            base = win_probability(psi, strategy, GameEquation(f, g))
            moved = win_probability(
                psi_p, strat_p, GameEquation(permute_table(f), permute_table(g))
            )
            assert base == pytest.approx(moved, abs=1e-10)


class TestPauliForm:
    """``gains`` and ``bloch_gains`` equal the kron oracle's win probability."""

    @staticmethod
    def oracle(states, eqs, angles):
        """(S, E, B): the oracle's win probability of each state, equation and angle row."""
        return np.array([[[kron_win_probability(psi, QuantumStrategy(a), eq) for a in angles]
                          for eq in eqs] for psi in states])

    @staticmethod
    def assert_equal_to(expect, kernel, angles, game=None):
        gains = kernel.gains(angles.reshape(angles.shape[0], -1), game)
        assert np.abs(gains - expect).max() < 1e-12
        assert np.abs(kernel.bloch_gains(_bloch(angles), game) - expect).max() < 1e-12

    def test_gains_refuse_rows_of_the_wrong_width(self):
        kernel = GainKernel(make_named_state("ghz4"), ghz_game_equation())
        with pytest.raises(ValueError, match=r"expected shape \(B, 24\), got \(3, 25\)"):
            kernel.gains(np.zeros((3, 25)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_states_and_games(self, n):
        rng = np.random.default_rng(200 + n)
        size = 1 << (1 << n)
        states = [random_state(n, rng) for _ in range(3)]
        angles = rng.uniform(0.0, 4 * math.pi, (40, n, 2, 3))
        game = rng.integers(0, 3, 40)
        rows = np.arange(40)
        # two random g, each in its own kernels, with three random f each
        for g in [TruthTable(n, int(rng.integers(size))) for _ in range(2)]:
            eqs = [GameEquation(TruthTable(n, int(rng.integers(size))), g) for _ in range(3)]
            oracle = self.oracle(states, eqs, angles)
            self.assert_equal_to(oracle[0, 0], GainKernel(states[0], eqs[0]), angles)
            # per-row states, per-row equations, and both
            for kernel, state, eq in ((GainKernel(states, eqs[0]), game, 0),
                                      (GainKernel(states[0], eqs), 0, game),
                                      (GainKernel(states, eqs), game, game)):
                self.assert_equal_to(oracle[state, eq, rows], kernel, angles, game)
                self.assert_equal_to(oracle[0, 0], kernel, angles)

    def test_the_w_game_and_an_xor_game_on_a_rotated_ghz_state(self):
        rng = np.random.default_rng(210)
        angles = rng.uniform(0.0, 4 * math.pi, (40, 4, 2, 3))
        w4, w_eq = make_named_state("w4"), w_game_equation()
        self.assert_equal_to(self.oracle([w4], [w_eq], angles)[0, 0], GainKernel(w4, w_eq), angles)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        ghz = make_named_state("ghz4").tensor()
        rotated = StateVector(np.tensordot(hadamard, ghz, axes=([1], [0])).reshape(-1))
        expect = self.oracle([rotated], [ghz_game_equation()], angles)[0, 0]
        self.assert_equal_to(expect, GainKernel(rotated, ghz_game_equation()), angles)

    def test_a_sure_loss_is_exactly_0_and_a_sure_win_exactly_1(self):
        # unclipped, the form gives -3.5e-66 for this sure loss
        strategy = QuantumStrategy(np.tile([math.pi / 2, 0.0, 0.0], (4, 2, 1)))
        parity = TruthTable.from_text("4:6996")
        for f, expect in (("4:FFFF", 0.0), ("4:0000", 1.0)):
            eq = GameEquation(TruthTable.from_text(f), parity)
            assert win_probability(make_named_state("ghz4"), strategy, eq) == expect


def _unit_bloch_reference(v):
    """``_unit_bloch`` by a mask of zero norms, built and used on every call."""
    w = v[..., 1:]
    norm = np.sqrt((w * w).sum(-1))
    zero = norm == 0
    unit = v / np.where(zero, 1.0, norm)[..., None]
    unit[..., 0] = 1.0
    unit[zero] = (1.0, 0.0, 0.0, 1.0)
    return unit, norm


class TestUnitBloch:
    @pytest.mark.parametrize("shape", [(9, 2, 4), (6, 3, 2, 4)])
    @pytest.mark.parametrize("zeros", [0.0, 0.4, 1.0])
    def test_equals_the_masked_formula_bit_for_bit(self, shape, zeros):
        rng = np.random.default_rng(len(shape) + int(10 * zeros))
        v = rng.normal(size=shape)
        # rows whose w is 0 (one entry -0.0), on a nonzero c
        zero = rng.random(shape[:-1]) < zeros
        v[zero, 1:] = (0.0, -0.0, 0.0)
        v.setflags(write=False)
        expect, expect_norm = _unit_bloch_reference(v)
        # a new array, and a strided view like a sweep's rows of one player
        holder = np.full(shape[:1] + (2,) + shape[1:], np.nan)
        for out in (None, holder[:, 1]):
            unit, norm = _unit_bloch(v, out)
            assert out is None or unit is out
            assert unit.tobytes() == expect.tobytes() and norm.tobytes() == expect_norm.tobytes()
        assert np.isnan(holder[:, 0]).all()


class TestNamedStates:
    def test_ghz_amplitudes(self):
        psi = make_named_state("ghz4")
        assert psi.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitudes[15] == pytest.approx(1 / math.sqrt(2))

    def test_epr_is_two_qubit_ghz(self):
        assert np.allclose(make_named_state("epr").amplitudes, make_named_state("ghz2").amplitudes)

    def test_w3(self):
        psi = make_named_state("w3")
        for i in (1, 2, 4):
            assert psi.amplitudes[i] == pytest.approx(1 / math.sqrt(3))

    def test_mp_c1_overlap_is_half(self):
        mp = make_named_state("mp")
        c1 = make_named_state("c1")
        assert np.vdot(mp.amplitudes, c1.amplitudes) == pytest.approx(0.5)

    def test_l_is_normalized(self):
        psi = make_named_state("l")
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_named_state("bell5")


class TestFamilies:
    def test_g_abcd_contains_ghz(self):
        psi = make_family_state(FamilyId.G_ABCD, {"a": 1, "b": 0, "c": 0, "d": 1})
        assert np.allclose(psi.amplitudes, make_named_state("ghz4").amplitudes, atol=1e-12)

    def test_l03p103p1_is_two_term_superposition(self):
        psi = make_family_state(FamilyId.L_0_3P1_0_3P1)
        expected = np.zeros(16)
        expected[0b0000] = expected[0b0111] = 1 / math.sqrt(2)
        assert np.allclose(psi.amplitudes, expected, atol=1e-12)

    def test_lab3_at_origin_is_bell_pair_product(self):
        psi = make_family_state(FamilyId.L_AB3, {"a": 0, "b": 0})
        pair1 = np.array([1, 0, 0, -1]) / math.sqrt(2)
        pair2 = np.array([0, 1, 1, 0]) / math.sqrt(2)
        expected = 1j * np.kron(pair1, pair2)
        assert np.allclose(psi.amplitudes, expected, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_family_state(FamilyId.G_ABCD, {"a": 1})
        with pytest.raises(ValueError):
            make_family_state(FamilyId.L_A4, {"a": 1, "b": 2})
        with pytest.raises(ValueError):
            make_family_state(FamilyId.L_0_7P1, {"a": 1})

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            make_family_state(FamilyId.G_ABCD, {"a": 0, "b": 0, "c": 0, "d": 0})

    def test_all_families_normalized(self):
        for family in FamilyId:
            names = FAMILY_PARAM_NAMES[family]
            params = {k: 0.5 + 0.25j for k in names}
            psi = make_family_state(family, params)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def _named_expected(name):
    """Each named state's amplitudes, written out index by index."""
    n = {"epr": 2, "mp": 4, "c1": 4, "l": 4}.get(name) or int(name[-1])
    amps = np.zeros(1 << n, dtype=complex)
    if name == "epr" or name.startswith("ghz"):
        amps[0] = amps[(1 << n) - 1] = 1 / math.sqrt(2.0)
    elif name.startswith("w"):
        for k in range(n):
            amps[1 << k] = 1 / math.sqrt(n)
    elif name in ("mp", "c1"):
        amps[0b0000] = amps[0b0011] = amps[0b1100] = 0.5
        amps[0b1111] = 0.5 if name == "mp" else -0.5
    else:
        omega = cmath.exp(2j * math.pi / 3.0)
        amps[0b0000] = amps[0b1111] = (1.0 + omega) / 4.0
        amps[0b0011] = amps[0b1100] = (1.0 - omega) / 4.0
        amps[0b0101] = amps[0b0110] = amps[0b1001] = amps[0b1010] = omega**2 / 4.0
    return amps / np.linalg.norm(amps)


# one generic complex point: no parameter is real, and no two share a modulus or phase
A, B, C, D = 0.3 + 0.7j, -1.1 + 0.2j, 0.5 - 0.9j, 1.3 + 0.4j
I2 = 1j / math.sqrt(2.0)

# each family's amplitudes at (A, B, C, D), indices 0b0000 ... 0b1111, four to a line
FAMILY_VECTORS = {
    FamilyId.G_ABCD: [(A + D) / 2, 0, 0, (A - D) / 2,
                      0, (B + C) / 2, (B - C) / 2, 0,
                      0, (B - C) / 2, (B + C) / 2, 0,
                      (A - D) / 2, 0, 0, (A + D) / 2],
    FamilyId.L_ABC2: [(A + B) / 2, 0, 0, (A - B) / 2,
                      0, C, 1, 0,
                      0, 0, C, 0,
                      (A - B) / 2, 0, 0, (A + B) / 2],
    FamilyId.L_A2B2: [A, 0, 0, 1,
                      0, B, 1, 0,
                      0, 0, B, 0,
                      0, 0, 0, A],
    FamilyId.L_AB3: [A, I2, I2, 0,
                     0, (A + B) / 2, (A - B) / 2, 0,
                     0, (A - B) / 2, (A + B) / 2, 0,
                     0, -I2, -I2, A],
    FamilyId.L_A4: [A, 1j, 0, 0,
                    0, A, 1, 0,
                    0, 0, A, -1j,
                    0, 0, 0, A],
    FamilyId.L_A2_0_3P1: [A, 0, 0, 1,
                          0, 1, 1, 0,
                          0, 0, 0, 0,
                          0, 0, 0, A],
    FamilyId.L_0_7P1: [1, 0, 0, 0,
                       0, 0, 0, 0,
                       0, 0, 0, 1,
                       0, 1, 1, 0],
    FamilyId.L_0_5P3: [1, 0, 0, 0,
                       0, 1, 0, 0,
                       1, 0, 0, 0,
                       0, 0, 1, 0],
    FamilyId.L_0_3P1_0_3P1: [1, 0, 0, 0,
                             0, 0, 0, 1,
                             0, 0, 0, 0,
                             0, 0, 0, 0],
}


class TestLibraryAmplitudes:
    @pytest.mark.parametrize("name", ["epr", "ghz2", "ghz3", "ghz4", "w2", "w3", "w4",
                                      "mp", "c1", "l"])
    def test_named_states_exactly(self, name):
        expected = _named_expected(name)
        for text in (name, f" {name.upper()} "):
            assert make_named_state(text).amplitudes.tolist() == expected.tolist()
            assert parse_state_literal(text).amplitudes.tolist() == expected.tolist()

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_family_at_a_generic_complex_point(self, family):
        params = dict(zip("abcd", (A, B, C, D)))
        names = FAMILY_PARAM_NAMES[family]
        expected = np.array(FAMILY_VECTORS[family], dtype=complex)
        psi = make_family_state(family, {k: params[k] for k in names})
        assert np.allclose(psi.amplitudes, expected / np.linalg.norm(expected), rtol=0, atol=1e-15)
        literal = ",".join(f"{k}={params[k]}".replace("j", "i") for k in names)
        assert parse_state_literal(f"{family.value}:{literal}").amplitudes.tolist() == \
            psi.amplitudes.tolist()


class TestFamilyParameterCheck:
    @pytest.mark.parametrize("names", [
        ["a", "b", "c"],  # missing
        ["a", "b", "c", "d", "e"],  # unknown
        ["a", "a", "b", "c", "d"],  # repeated
        ["a", "a", "b", "c"],  # repeated, standing in for the missing d
        ["A", "b", "c", "d"],  # names are lower case
    ])
    def test_refused(self, names):
        with pytest.raises(ValueError, match="g_abcd takes parameters"):
            check_family_params(FamilyId.G_ABCD, names)

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_each_name_once_in_any_order(self, family):
        check_family_params(family, list(reversed(FAMILY_PARAM_NAMES[family])))

    @pytest.mark.parametrize("literal", [
        "g_abcd:a=1,a=0,b=0,c=0,d=1",
        "g_abcd:a=1,A=0,b=0,c=0,d=1",
        "l_a4:a=1,a=1",
    ])
    def test_repeated_literal_parameter_is_refused(self, literal):
        with pytest.raises(ValueError, match="each once"):
            parse_state_literal(literal)


class TestRandomFamilyParams:
    def test_deterministic(self):
        a = random_family_params(FamilyId.G_ABCD, 99)
        b = random_family_params(FamilyId.G_ABCD, 99)
        assert a == b

    def test_moduli_in_range(self):
        for seed in range(25):
            params = random_family_params(FamilyId.G_ABCD, seed)
            for value in params.values():
                assert 0.2 <= abs(value) <= 2.0

    def test_sampled_states_never_zero(self):
        for seed in range(25):
            params = random_family_params(FamilyId.G_ABCD, seed)
            make_family_state(FamilyId.G_ABCD, params)  # must not raise

    def test_parameter_free_family_rejected(self):
        with pytest.raises(ValueError):
            random_family_params(FamilyId.L_0_7P1, 0)


class TestStateLiterals:
    def test_named(self):
        assert parse_state_literal("ghz4").n == 4

    def test_family_with_params(self):
        psi = parse_state_literal("g_abcd:a=1+0i,b=0,c=0,d=1")
        assert np.allclose(psi.amplitudes, make_named_state("ghz4").amplitudes, atol=1e-12)

    def test_parameter_free_family(self):
        psi = parse_state_literal("l_0_7p1")
        assert psi.amplitudes[0] == pytest.approx(0.5)

    def test_json_amplitudes(self):
        psi = parse_state_literal("[[1, 0], [0, 0], [0, 0], [1, 0]]")
        assert np.allclose(psi.amplitudes, make_named_state("epr").amplitudes, atol=1e-12)

    def test_bad_family_name(self):
        with pytest.raises(ValueError):
            parse_state_literal("g_abce:a=1")

    def test_a_family_parameter_without_a_value(self):
        with pytest.raises(ValueError, match="bad family parameter 'a'"):
            parse_state_literal("g_abcd:a")

    def test_bad_complex_literal(self):
        with pytest.raises(ValueError):
            parse_state_literal("g_abcd:a=xyz,b=0,c=0,d=0")

    @pytest.mark.parametrize("pairs", [[[1, 0], [0, 0]], [[1, 0]] * 32])
    def test_qubit_count_outside_the_games_is_refused(self, pairs):
        text = str(pairs)
        qubits = len(pairs).bit_length() - 1
        with pytest.raises(ValueError, match=f"state has {qubits} qubits"):
            parse_state_literal(text)
