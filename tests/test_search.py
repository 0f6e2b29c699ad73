"""Classical enumeration, quantum optimization, and batch-search tests."""

import collections
import itertools
import json
import logging
import math
import os
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames.boolfn import (
    ANSWER_VARS,
    QUESTION_VARS,
    GameEquation,
    TruthTable,
    parse_table,
    reduce_function_space,
)
from qgames.quantum import (
    FamilyId,
    GainKernel,
    QuantumStrategy,
    StateVector,
    _angles_from_bloch,
    _bloch,
    _build_gate_stack,
    _walsh,
    make_family_state,
    make_named_state,
    parse_state_literal,
    win_probability,
)
from qgames.search import (
    DEFAULT_SEED,
    ClassicalStrategy,
    GameResult,
    OptimizerConfig,
    average_gap,
    classical_best,
    derive_task_seed,
    game_score,
    optimize_quantum,
    search_space,
    stratified_subsample,
    usable_cpus,
)
from qgames import search, torus
from qgames.search import (
    _optimize_games,
    _see_saw,
    _split_tasks,
)


def chsh_equation():
    return GameEquation(parse_table("xy", QUESTION_VARS[2]), parse_table("a^b", ANSWER_VARS[2]))


def ghz_game_equation():
    return GameEquation(
        parse_table("xyz + xy!w + xz!w + yz!w + w!x!y!z", QUESTION_VARS[4]),
        parse_table("a^b^c^d", ANSWER_VARS[4]),
    )


def w_game_equation():
    return GameEquation(
        parse_table("wx + wy + wz + xy + xz + yz", QUESTION_VARS[4]),
        parse_table("!abcd + a!bcd + ab!cd + abc!d", ANSWER_VARS[4]),
    )


def hadamard_rotated(psi):
    """``psi`` with a Hadamard gate on player 1's qubit.

    A local unitary, so every game keeps its value; but the state is not
    GHZ-type, so the see-saw plays it where the torus path plays ``psi``.
    (A Hadamard on every qubit would map EPR to itself.)
    """
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return StateVector(np.tensordot(hadamard, psi.tensor(), axes=([1], [0])).reshape(-1))


def see_saw_state(name):
    """The state literal's state, Hadamard-rotated if it is a GHZ-type named state, so
    that the see-saw plays it."""
    psi = parse_state_literal(name)
    return hadamard_rotated(psi) if name in ("epr", "ghz2", "ghz3", "ghz4") else psi


class TestClassicalStrategy:
    def test_round_trip(self):
        for enc in range(256):
            s = ClassicalStrategy(4, enc)
            rebuilt = ClassicalStrategy.from_answer_bits(
                [(s.answer(i, 0), s.answer(i, 1)) for i in range(4)]
            )
            assert rebuilt.encoding == enc

    def test_player_one_pair_is_most_significant(self):
        s = ClassicalStrategy(2, 0b1000)
        assert (s.answer(0, 0), s.answer(0, 1)) == (1, 0)
        assert (s.answer(1, 0), s.answer(1, 1)) == (0, 0)

    def test_answers_follow_questions(self):
        s = ClassicalStrategy.from_answer_bits([(0, 1), (1, 1)])
        assert s.answers((0, 0)) == (0, 1)
        assert s.answers((1, 1)) == (1, 1)

    def test_rejects_oversized_encoding(self):
        with pytest.raises(ValueError):
            ClassicalStrategy(2, 1 << 4)


class TestClassicalBest:
    def test_two_player_chsh(self):
        gain, _ = classical_best(chsh_equation())
        assert gain == 0.75

    def test_w_game(self):
        gain, _ = classical_best(w_game_equation())
        assert gain == 0.6875

    def test_trivial_game_is_winnable(self):
        eq = GameEquation(TruthTable(4, 0), TruthTable(4, 0x6996))
        gain, strategies = classical_best(eq)
        assert gain == 1.0
        # all-zero answers satisfy parity 0 everywhere
        assert strategies[0].encoding == 0

    def test_ghz_game_value_is_sixteenth_multiple(self):
        gain, _ = classical_best(ghz_game_equation())
        assert gain * 16 == round(gain * 16)
        assert gain == 0.625

    def test_maximizers_sorted_by_encoding(self):
        _, strategies = classical_best(chsh_equation())
        encodings = [s.encoding for s in strategies]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)

    def test_maximizers_actually_achieve_the_gain(self):
        eq = ghz_game_equation()
        gain, strategies = classical_best(eq)
        for s in strategies[:4]:
            wins = 0
            for q in range(16):
                question = tuple((q >> (3 - i)) & 1 for i in range(4))
                answer = s.answers(question)
                a_index = int("".join(map(str, answer)), 2)
                wins += eq.f.value(q) == eq.g.value(a_index)
            assert wins / 16 == gain

    def test_invariant_under_input_negation(self):
        eq = ghz_game_equation()
        base, base_max = classical_best(eq)
        for mask in (0b0001, 0b1010, 0b1111):
            negated = GameEquation(eq.f.permute_inputs(mask), eq.g)
            gain, maximizers = classical_best(negated)
            assert gain == base
            # maximizers correspond 1:1 (swap each negated player's answer pair)
            assert len(maximizers) == len(base_max)


def _enumerated_best(f: TruthTable, g: TruthTable) -> tuple[float, list[int]]:
    """Value and maximizer encodings of f = g, by playing every answer table on every question.

    Strategies come in ``itertools.product`` order of the players' (h0, h1)
    answer pairs, player 1 first, which is increasing encoding order.
    """
    n = f.arity
    questions = list(itertools.product((0, 1), repeat=n))
    wins = []
    for pairs in itertools.product(itertools.product((0, 1), repeat=2), repeat=n):
        count = 0
        for question in questions:
            answers = [pair[q] for pair, q in zip(pairs, question)]
            f_index = int("".join(map(str, question)), 2)
            g_index = int("".join(map(str, answers)), 2)
            count += f.value(f_index) == g.value(g_index)
        wins.append(count)
    best = max(wins)
    return best / len(questions), [s for s, w in enumerate(wins) if w == best]


@st.composite
def _games(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    f, g = (draw(st.integers(0, (1 << (1 << n)) - 1)) for _ in range(2))
    return GameEquation(TruthTable(n, f), TruthTable(n, g))


class TestClassicalBestOracle:
    @settings(max_examples=60, deadline=None)
    @given(eq=_games())
    def test_matches_plain_enumeration(self, eq):
        gain, maximizers = classical_best(eq)
        value, encodings = _enumerated_best(eq.f, eq.g)
        assert gain == value
        assert [s.encoding for s in maximizers] == encodings
        assert all(s.n == eq.arity for s in maximizers)

    def test_parity_games_have_the_walsh_closed_form(self):
        # with g = parity a deterministic strategy answers c_k ^ s_k q_k, so it wins
        # where f(q) = c ^ S.q: on 8 + |W_f(S)| / 2 questions at best
        g = parse_table("a^b^c^d", ANSWER_VARS[4])
        space = reduce_function_space(4)
        assert len(space) == 2191
        bits = np.arange(16)
        signs = 1 - 2 * ((np.array([t.bits for t in space])[:, None] >> bits) & 1)
        hadamard = np.array([[(-1) ** bin(q & s).count("1") for s in range(16)] for q in range(16)])
        walsh = signs @ hadamard
        for f, coefficients in zip(space, walsh):
            gain, _ = classical_best(GameEquation(f, g))
            assert gain == 0.5 + 0.5 * int(np.abs(coefficients).max()) / 16

    def test_caches_do_not_leak_between_calls(self):
        rng = np.random.default_rng(16)
        gs = [parse_table("a^b^c^d", ANSWER_VARS[4]), w_game_equation().g,
              TruthTable(4, int(rng.integers(0, 1 << 16))), parse_table("a^b", ANSWER_VARS[2]),
              TruthTable(3, 0x96)]
        fs = {n: [TruthTable(n, int(b)) for b in rng.integers(0, 1 << (1 << n), 12)]
              for n in (2, 3, 4)}
        games = [GameEquation(fs[g.arity][i], g) for i in range(12) for g in gs]

        def encodings(eq):
            gain, maximizers = classical_best(eq)
            return gain, [s.encoding for s in maximizers]

        warm = []
        for eq in games:
            warm.append(encodings(eq))
            classical_best(eq)[1].clear()  # the caller owns the returned list
        cold = []
        for eq in games:
            search._answer_words.cache_clear()
            cold.append(encodings(eq))
        assert warm == cold

    def test_cached_tables_are_read_only(self):
        _, maximizers = classical_best(ghz_game_equation())
        with pytest.raises(FrozenInstanceError):
            maximizers[0].encoding = 1
        words = search._answer_words(ghz_game_equation().g)
        assert words.dtype == np.intp  # take reads the popcount table without a cast
        with pytest.raises(ValueError):
            words[0] = 0
        table = search._strategies(4)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = ClassicalStrategy(4, 1)
        assert [(s.n, s.encoding) for s in table] == [(4, s) for s in range(256)]
        # every call hands out a fresh list of the table's own objects
        again = classical_best(ghz_game_equation())[1]
        assert type(again) is list and again is not maximizers and again == maximizers
        assert all(s is table[s.encoding] for s in maximizers + again)
        counts = search._popcounts()
        assert counts.dtype == np.uint8 and not counts.flags.writeable
        assert counts.tolist() == [bin(i).count("1") for i in range(1 << 16)]


def epr_on_both_paths():
    """EPR, which the torus path plays, and its rotation, which the see-saw plays."""
    return make_named_state("epr"), see_saw_state("epr")


class TestOptimizeQuantum:
    def test_two_player_chsh_reaches_tsirelson(self):
        for psi in epr_on_both_paths():
            gain, strategy = optimize_quantum(
                psi, chsh_equation(), OptimizerConfig(restarts=10, seed=3)
            )
            assert gain == pytest.approx(math.cos(math.pi / 8) ** 2, abs=2e-3)
            assert gain <= math.cos(math.pi / 8) ** 2 + 1e-9

    def test_deterministic_given_seed(self):
        eq = chsh_equation()
        cfg = OptimizerConfig(restarts=3, seed=11)
        for psi in epr_on_both_paths():
            g1, s1 = optimize_quantum(psi, eq, cfg)
            g2, s2 = optimize_quantum(psi, eq, cfg)
            assert g1 == g2
            assert np.array_equal(s1.angles, s2.angles)

    def test_reported_gain_is_reevaluated_win_probability(self):
        eq = chsh_equation()
        for psi in epr_on_both_paths():
            gain, strategy = optimize_quantum(psi, eq, OptimizerConfig(restarts=4, seed=0))
            assert gain == win_probability(psi, strategy, eq)

    def test_product_state_matches_classical(self):
        psi = StateVector([1] + [0] * 15)
        eq = ghz_game_equation()
        classical, _ = classical_best(eq)
        quantum, _ = optimize_quantum(psi, eq, OptimizerConfig(restarts=10, seed=5))
        assert quantum == pytest.approx(classical, abs=2e-3)

    def test_extra_starts_can_only_help(self):
        eq = chsh_equation()
        cfg = OptimizerConfig(restarts=1, seed=13)
        for psi in epr_on_both_paths():
            base, strategy = optimize_quantum(psi, eq, cfg)
            warmed, _ = optimize_quantum(psi, eq, cfg, extra_starts=[strategy.angles.reshape(-1)])
            assert warmed >= base - 1e-12

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            optimize_quantum(make_named_state("ghz4"), chsh_equation())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tol=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(seed=0).seed == 0

    def test_non_finite_tol_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tol=float("nan"))
        with pytest.raises(ValueError):
            OptimizerConfig(tol=float("inf"))


def _spy_on_trials(monkeypatch) -> list[int]:
    """Count the rows of every SQUAREM trial point that ``_see_saw`` builds."""
    trials, extrapolated = [], search._extrapolated

    def spy(x0, x1, x2):
        trials.append(x0.shape[0])
        return extrapolated(x0, x1, x2)

    monkeypatch.setattr(search, "_extrapolated", spy)
    return trials


#: The GHZ game on this state has the see-saw's slowest tail seen: plain
#: sweeps rise by about 0.98 of the sweep before for over a hundred sweeps.
SLOW_TAIL = "l_a2_0_3p1:a=1"


class TestSeeSaw:
    @pytest.mark.parametrize("state, equation", [
        ("epr", chsh_equation), ("ghz4", ghz_game_equation), ("w4", w_game_equation),
        (SLOW_TAIL, ghz_game_equation),
    ])
    def test_restart_gain_never_decreases_from_sweep_to_sweep(self, state, equation, monkeypatch):
        # with one restart, a cap of s sweeps returns that restart after s sweeps,
        # SQUAREM trials included: a trial is kept only where it raises the gain
        trials = _spy_on_trials(monkeypatch)
        psi = see_saw_state(state)
        eq = equation()
        sweep = 2 * psi.n
        caps = range(1, 61) if state == SLOW_TAIL else range(1, 16)
        for seed in (0, 1, 2):
            start = np.random.default_rng(seed).uniform(0.0, 4 * math.pi, 3 * sweep)
            gains = [win_probability(psi, QuantumStrategy(start.reshape(psi.n, 2, 3)), eq)]
            gains += [
                optimize_quantum(psi, eq, OptimizerConfig(restarts=1, max_evals=s * sweep, seed=seed))[0]
                for s in caps
            ]
            assert all(later >= earlier - 1e-12 for earlier, later in zip(gains, gains[1:]))
        if state == SLOW_TAIL:
            assert trials

    def test_a_slow_tail_comes_within_its_long_run_value(self):
        # the plain see-saw stopped 2.3e-5 short here; 0.6787452382 is its value
        # at tol 1e-14 after 4,000 sweeps
        psi = parse_state_literal("l_a4:a=100")
        gain, _ = optimize_quantum(psi, ghz_game_equation(), OptimizerConfig())
        assert abs(gain - 0.6787452382) <= 2e-6

    def test_angles_have_zero_phi_and_player_shape(self):
        # on the see-saw (rotated states) and on the torus path (GHZ-type states)
        for state, equation in (("epr", chsh_equation), ("ghz4", ghz_game_equation)):
            for psi in (see_saw_state(state), make_named_state(state)):
                _, strategy = optimize_quantum(psi, equation(), OptimizerConfig(restarts=3, seed=4))
                assert strategy.angles.shape == (psi.n, 2, 3)
                assert np.all(strategy.angles[..., 1] == 0.0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_max_evals_rounds_up_to_whole_sweeps(self, n):
        # every budget inside sweep s + 1 buys that whole sweep; at n = 2 a game
        # on a random state that is still climbing after four sweeps
        if n == 2:
            psi = _random_states(np.random.default_rng(5), 1, 2)[0]
            eq = GameEquation(TruthTable(2, 0x8), TruthTable(2, 0x7))
        else:
            psi, eq = see_saw_state("ghz4"), ghz_game_equation()
        sweep = 2 * n
        seed = 8

        def run(budget):
            gain, strategy = optimize_quantum(
                psi, eq, OptimizerConfig(restarts=2, max_evals=budget, tol=1e-15, seed=seed))
            return gain, strategy.angles

        whole = [run(sweep * (s + 1)) for s in range(4)]
        for s in range(3):
            for budget in range(sweep * s + 1, sweep * (s + 1)):
                gain, angles = run(budget)
                assert gain == whole[s][0] and np.array_equal(angles, whole[s][1])
            # and the budget still ends the ascent: one more sweep moves the gates
            assert not np.array_equal(whole[s][1], whole[s + 1][1])
        # so max_evals=3 at n = 4 replaces all eight gates of the start, not three
        if n == 4:
            _, strategy = optimize_quantum(psi, eq, OptimizerConfig(restarts=1, max_evals=3, seed=seed))
            start = _build_gate_stack(np.random.default_rng(seed).uniform(0.0, 4 * math.pi, (4, 2, 3)))
            moved = _build_gate_stack(strategy.angles)
            overlap = np.abs((start[..., 0, :].conj() * moved[..., 0, :]).sum(-1))
            assert np.all(overlap < 1 - 1e-9)

    def test_phi_never_changes_a_gain(self):
        kernel = GainKernel(make_named_state("l"), w_game_equation())
        rng = np.random.default_rng(23)
        angles = rng.uniform(0.0, 4 * math.pi, (64, 4, 2, 3))
        shifted = angles.copy()
        shifted[..., 1] = rng.uniform(0.0, 4 * math.pi, (64, 4, 2))
        before = kernel.gains(angles.reshape(64, -1))
        after = kernel.gains(shifted.reshape(64, -1))
        assert np.abs(before - after).max() <= 1e-15


def _step_games(n, seed):
    """A random n-qubit state, three random f against one random g, and the generator
    that drew them."""
    rng = np.random.default_rng(seed)
    psi = StateVector(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    size = 1 << (1 << n)
    g = TruthTable(n, int(rng.integers(size)))
    eqs = [GameEquation(TruthTable(n, int(rng.integers(size))), g) for _ in range(3)]
    return psi, eqs, rng


def _step_setup(n, seed, batch=6):
    """A kernel on ``_step_games``'s state and games, and random start angles."""
    psi, eqs, rng = _step_games(n, seed)
    angles = rng.uniform(0.0, 4 * math.pi, (batch, n, 2, 3))
    return GainKernel(psi, eqs), angles, rng.integers(0, 3, batch), rng


def _gains(kernel, rows, game=None):
    """The kernel's win probabilities of Bloch rows' strategies, from their gate angles."""
    return kernel.gains(_angles_from_bloch(rows).reshape(rows.shape[0], -1), game)


class TestBestResponseStep:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_tables_hold_g_hat_times_each_pauli_expectation(self, n):
        state, eqs, _ = _step_games(n, 30 + n)
        kernel = GainKernel(state, eqs)
        sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.diag([1.0, -1.0])]
        (psi,) = kernel.states
        g = eqs[0].g.values()
        # g-hat(S) = sum_a (-1)^(g(a) + |a & S|), S a bit mask of players in the order of answers
        g_hat = [sum((-1) ** (g[a] + bin(a & support).count("1")) for a in range(1 << n))
                 for support in range(1 << n)]
        assert kernel.g_hat.tolist() == g_hat
        # L[mu] = g-hat(supp mu) <psi| sigma_mu |psi>, mu in player order, player 1 first
        expect = np.empty((4,) * n)
        for mu in itertools.product(range(4), repeat=n):
            op = np.array([[1.0]])
            for m in mu:
                op = np.kron(op, sigma[m])
            support = sum((m != 0) << (n - 1 - k) for k, m in enumerate(mu))
            expect[mu] = g_hat[support] * (psi.conj() @ op @ psi).real / 2 ** (2 * n + 1)
        # one row of L per state, whatever the number of f
        assert kernel.pauli.shape == (n, 1, 4, 4 ** (n - 1))
        assert kernel.signs.shape == (n, 3, 2, 1 << (n - 1))
        # player k's L is its first contraction's layout, contiguous: axes k-1, k, ..., k-2
        assert kernel.pauli.flags.c_contiguous
        for k in range(n):
            order = [(k - 1 + i) % n for i in range(n)]
            expect_k = expect.transpose(order).reshape(4, -1)
            assert np.abs(kernel.pauli[k, 0] - expect_k).max() < 1e-12
        # player k's signs (-1)^f(q): axes k, k+1, ..., n-1, 0, ..., k-1; no per-game constant
        assert not hasattr(kernel, "constant")
        orders = [[(k + i) % n for i in range(n)] for k in range(n)]
        for j, f in enumerate(eq.f.values() for eq in eqs):
            for k, order in enumerate(orders):
                signs = ((-1.0) ** f).reshape((2,) * n).transpose(order).reshape(2, -1)
                assert np.array_equal(kernel.signs[k, j], signs)

    def test_bloch_rows_and_angles_convert_both_ways(self):
        # a gate answers 0 on the conjugate of its first row, whatever its phi
        rng = np.random.default_rng(36)
        angles = rng.uniform(0.0, 4 * math.pi, (50, 3))
        rows = _bloch(angles)
        u = _build_gate_stack(angles)[:, 0].conj()
        xy = 2.0 * u[:, 0].conj() * u[:, 1]
        expect = np.stack([xy.real, xy.imag, np.abs(u[:, 0]) ** 2 - np.abs(u[:, 1]) ** 2], axis=-1)
        assert np.all(rows[:, 0] == 1.0) and np.abs(rows[:, 1:] - expect).max() < 1e-12
        back = _angles_from_bloch(rows)
        assert np.all(back[:, 1] == 0.0) and np.abs(_bloch(back) - rows).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_gains_equal_fresh_gains(self, n):
        kernel, angles, game, _ = _step_setup(n, n)
        rows = _bloch(angles)
        for player in range(n):
            new, gains = kernel.bloch_response(rows, player, game)
            updated = rows.copy()
            updated[:, player] = new
            assert (new[..., 1:] ** 2).sum(-1) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(gains - _gains(kernel, updated, game)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_is_a_best_response_for_each_question_bit(self, n):
        kernel, angles, game, rng = _step_setup(n, 10 + n)
        rows = _bloch(angles)
        for player in range(n):
            before = _gains(kernel, rows, game)
            new, _ = kernel.bloch_response(rows, player, game)
            updated = rows.copy()
            updated[:, player] = new
            best = _gains(kernel, updated, game)
            assert np.all(best >= before - 1e-12)
            for bit in (0, 1):
                for tried_angles in rng.uniform(0.0, 4 * math.pi, (40, 3)):
                    tried = updated.copy()
                    tried[:, player, bit] = _bloch(tried_angles)
                    gains = _gains(kernel, tried, game)
                    assert np.all(gains <= best + 1e-12)

    def test_a_zero_coefficient_vector_gives_plus_z(self):
        # the W game on ghz4 against Z-basis measurements: on many rows a
        # player's coefficient vector is exactly 0, and every answer is as good
        kernel = GainKernel(make_named_state("ghz4"), w_game_equation())
        rows = np.zeros((256, 4, 2, 4))
        rows[..., 0] = 1.0
        rows[..., 3] = np.array(list(itertools.product([1.0, -1.0], repeat=8))).reshape(256, 4, 2)
        for player in range(4):
            v = kernel._response(list(rows.swapaxes(0, 1)), player, None)
            zero = np.all(v[..., 1:] == 0.0, axis=-1)
            assert zero.any() and not zero.all()
            new, gains = kernel.bloch_response(rows, player, None)
            assert np.array_equal(new[zero], np.tile([1.0, 0.0, 0.0, 1.0], (zero.sum(), 1)))
            updated = rows.copy()
            updated[:, player] = new
            assert np.abs(gains - _gains(kernel, updated)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_sweep_is_the_players_steps_in_turn_bit_for_bit(self, n):
        psi, eqs, rng = _step_games(n, 80 + n)
        rows = _bloch(rng.uniform(0.0, 4 * math.pi, (30, n, 2, 3)))
        game = rng.integers(0, 3, 30)
        # three f on one state, each f on its own state, and the W game on ghz4
        # against Z-basis measurements, where coefficient vectors are 0
        cases = [(GainKernel(psi, eqs), rows, game),
                 (GainKernel([psi, *_random_states(rng, 2, n)], eqs), rows, game)]
        if n == 4:
            z_rows = np.zeros((256, 4, 2, 4))
            z_rows[..., 0] = 1.0
            z_rows[..., 3] = np.array(list(itertools.product([1.0, -1.0], repeat=8))).reshape(256, 4, 2)
            cases.append((GainKernel(make_named_state("ghz4"), w_game_equation()), z_rows, None))
        for kernel, start, games in cases:
            expect = start.copy()
            for player in range(n):
                expect[:, player], gains = kernel.bloch_response(expect, player, games)
            swept = start.copy()
            assert np.array_equal(kernel.sweep(swept, games), gains)
            assert np.array_equal(swept, expect)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_a_constant_g_zeroes_every_coefficient_vector(self, n, constant):
        # g-hat of a constant g is 0 off the empty set, so L is 0 off I...I and every
        # V[q, 1:] is exactly 0: each step takes +z on every row, and no division warns
        psi, eqs, rng = _step_games(n, 90 + n)
        g = TruthTable(n, constant * ((1 << (1 << n)) - 1))
        kernel = GainKernel(psi, [GameEquation(eq.f, g) for eq in eqs])
        share = np.array([np.mean(eq.f.values() == constant) for eq in eqs])
        rows = _bloch(rng.uniform(0.0, 4 * math.pi, (30, n, 2, 3)))
        game = rng.integers(0, 3, 30)
        expect, swept = rows.copy(), rows.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for player in range(n):
                v = kernel._response(list(expect.swapaxes(0, 1)), player, game)
                assert np.all(v[..., 1:] == 0.0)
                expect[:, player], gains = kernel.bloch_response(expect, player, game)
            sweep_gains = kernel.sweep(swept, game)
        assert np.array_equal(sweep_gains, gains) and np.array_equal(swept, expect)
        assert np.array_equal(swept, np.broadcast_to([1.0, 0.0, 0.0, 1.0], swept.shape))
        # L at I...I is g-hat(empty set) <psi|psi>, and <psi|psi> is 1 within ulps
        assert np.abs(sweep_gains - share[game]).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_see_saw_cap_of_s_sweeps_matches_steps_in_turn(self, n):
        kernel, angles, game, _ = _step_setup(n, 20 + n)
        starts = _bloch(angles)
        # a tol of -inf never stops a row early, so the cap alone ends the ascent;
        # SQUAREM trials start after sweep 5 at the earliest
        expect = starts.copy()
        for cap in range(1, 4):
            for player in range(n):
                expect[:, player], step_gains = kernel.bloch_response(expect, player, game)
            got, gains = _see_saw(kernel, starts, game, cap, -np.inf)
            assert np.array_equal(got, expect) and np.array_equal(gains, step_gains)
            assert np.abs(gains - _gains(kernel, expect, game)).max() < 1e-12


class TestLockstep:
    """``_see_saw`` runs all its rows together from sweep 1, and a row that stops leaves."""

    def test_rows_start_together_and_only_leave(self):
        kernel, angles, game, _ = _step_setup(4, 50, batch=150)
        starts = _bloch(angles)
        bloch_gains, sweep = kernel.bloch_gains, kernel.sweep
        started, sweeps, steps = [], [], []

        def start(batch, *args):
            started.append(batch.shape[0])
            return bloch_gains(batch, *args)

        def one_sweep(batch, *args):
            sweeps.append(batch.shape[0])
            return sweep(batch, *args)

        kernel.bloch_gains, kernel.sweep = start, one_sweep
        kernel.bloch_response = lambda *args: steps.append(args)
        _see_saw(kernel, starts, game, 625, 1e-6)
        # one start-gain call for every row, then one kernel call per sweep, which
        # runs all four players' steps on the same rows
        assert started == [150] and steps == []
        assert sweeps[0] == 150 and all(a >= b > 0 for a, b in zip(sweeps, sweeps[1:]))
        assert sweeps[-1] < 150 and len(sweeps) < 625


def _one_row_see_saw(kernel, starts, game, max_sweeps, tol, outcomes):
    """``_see_saw`` for one (1, n, 2, 4) row, written out sweep by sweep.

    Sweep s counts from 1.  After sweep s = 3c + 2, c >= 1, the row takes the
    SQUAREM point of its rows after sweeps 3c, 3c + 1 and 3c + 2 when the last rise
    is over ``_TAIL_RATIO`` times the one before and it has not stopped; the
    next sweep is kept only if it beats the plain point, and a trial that
    fails never stops the row.  Returns the final rows and their gain;
    ``outcomes`` gets "kept" or "reverted" for each trial.
    """
    live = starts.copy()
    gains, iterates = [kernel.bloch_gains(live, game)[0]], [live.copy()]
    plain = None
    while True:
        for k in range(kernel.n):
            live[:, k], gain = kernel.bloch_response(live, k, game)
        gain = gain[0]
        failed = False
        if plain is not None:
            if gain > plain[1]:
                outcomes.append("kept")
            else:
                outcomes.append("reverted")
                live, gain, failed = *plain, True
            plain = None
        # ``gains`` holds the start's gain and one per earlier sweep
        if len(gains) >= max_sweeps or (gain - gains[-1] < tol and not failed):
            return live, gain
        gains.append(gain)
        iterates.append(live.copy())
        if (len(gains) - 1) % 3 == 2 and len(gains) > 4:
            g0, g1, g2 = gains[-3:]
            if g2 - g1 > search._TAIL_RATIO * (g1 - g0):
                plain = (live, gain)
                live = search._extrapolated(*iterates[-3:])


class TestSquarem:
    """Each row of a batch follows the SQUAREM cycle of ``_see_saw``'s docstring."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tol", [-np.inf, 1e-6])
    def test_batch_rows_equal_the_cycle_written_out(self, n, tol):
        rng = np.random.default_rng(70 + n)
        rows = 8
        states = [*_random_states(rng, 2, n), hadamard_rotated(make_named_state(f"ghz{n}"))]
        starts = _bloch(rng.uniform(0.0, 4 * math.pi, (rows, n, 2, 3)))
        # the same starts against a random g, then parity: each game on the rotated
        # GHZ state is then an XOR game, which the see-saw plays
        parity = TruthTable(n, 0x6996 & ((1 << (1 << n)) - 1))
        outcomes = []
        for g in (TruthTable(n, int(rng.integers(1 << (1 << n)))), parity):
            eqs = [GameEquation(TruthTable(n, int(rng.integers(1 << (1 << n)))), g) for _ in range(3)]
            kernel_states = states
            if n == 4 and g == parity:
                kernel_states = [*states, parse_state_literal(SLOW_TAIL)]
                eqs.append(ghz_game_equation())
            kernel = GainKernel(kernel_states, eqs)
            game = np.arange(rows) % len(eqs)
            for cap in (1, 2, 3, 4, 5, 6, 7, 13, 50):
                batch, batch_gains = _see_saw(kernel, starts, game, cap, tol)
                for r in range(rows):
                    one = slice(r, r + 1)
                    alone, gain = _one_row_see_saw(kernel, starts[one], game[one], cap, tol, outcomes)
                    assert np.array_equal(batch[one], alone) and batch_gains[r] == gain
        # with no stop on the rise, rows sweep on at their optimum, where trials fail
        assert {"kept", "reverted"} <= set(outcomes) if tol == -np.inf else "kept" in outcomes


TSIRELSON = math.cos(math.pi / 8) ** 2


def _ghz(n, phase=0.0):
    """GHZ state on n qubits with relative phase ``phase`` on |1...1>."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0], amps[-1] = 1.0, np.exp(1j * phase)
    return StateVector(amps)


def _parity(n):
    """The answer side a1 ^ ... ^ an."""
    return parse_table("^".join(ANSWER_VARS[n]), ANSWER_VARS[n])


def _on_torus(psi, eq):
    """Whether the one game ``eq`` on ``psi`` takes the torus path."""
    return bool(torus.xor_games(GainKernel(psi, eq), 1)[0][0])


class TestTorusPath:
    """XOR games on GHZ-type states take the closed-form ascent over the phase torus."""

    def test_chsh_and_the_ghz_game_reach_tsirelson(self):
        for psi, eq in ((make_named_state("epr"), chsh_equation()),
                        (make_named_state("ghz4"), ghz_game_equation()),
                        (_ghz(4, 2.5), ghz_game_equation())):
            gain, strategy = optimize_quantum(psi, eq)
            assert abs(gain - TSIRELSON) <= 1e-12
            assert gain <= TSIRELSON + 1e-12
            assert gain == win_probability(psi, strategy, eq)
            # equatorial gates: theta = pi/2 and phi = 0
            assert np.all(strategy.angles[..., 0] == math.pi / 2)
            assert np.all(strategy.angles[..., 1] == 0.0)

    def test_warm_starts_feed_the_see_saw_only(self):
        # a torus game plays its seeded restarts and its Walsh vertex only: one restart
        # misses this game's value, and a warm start at a best strategy changes nothing
        psi, eq = make_named_state("ghz4"), GameEquation(TruthTable(4, 0x0C7B), _parity(4))
        best_gain, best = optimize_quantum(psi, eq, OptimizerConfig(restarts=20, seed=1017))
        cfg = OptimizerConfig(restarts=1, seed=17)
        cold_gain, cold = optimize_quantum(psi, eq, cfg)
        assert cold_gain < best_gain - 0.01
        warm_gain, warmed = optimize_quantum(psi, eq, cfg, extra_starts=[best.angles.reshape(-1)])
        assert warm_gain == cold_gain
        assert np.array_equal(warmed.angles, cold.angles)

    def test_at_least_the_see_saw_on_the_rotated_state(self):
        # the benchmark's 12 search-ghz4 functions, and random parity games at n = 2 and 3
        # against parity and its complement
        parity = parse_table("a^b^c^d", ANSWER_VARS[4])
        games = [(4, GameEquation(f, parity))
                 for f in stratified_subsample(list(reduce_function_space(4)), 12, 1729)]
        rng = np.random.default_rng(18)
        for n in (2, 3):
            g = _parity(n)
            for k, bits in enumerate(rng.integers(0, 1 << (1 << n), 10)):
                games.append((n, GameEquation(TruthTable(n, int(bits)), g if k % 2 else g.complement())))
        for n, eq in games:
            psi = make_named_state(f"ghz{n}")
            gain, strategy = optimize_quantum(psi, eq)
            see_saw, _ = optimize_quantum(hadamard_rotated(psi), eq)
            assert gain >= see_saw - 1e-9, eq.f.to_text()
            assert gain >= classical_best(eq)[0] - 1e-12
            assert gain == win_probability(psi, strategy, eq)

    def test_which_games_take_the_torus_path(self, monkeypatch):
        rows = []
        see_saw = search._see_saw

        def spy(kernel, gates, game, *args, **kwargs):
            rows.append(gates.shape[0])
            return see_saw(kernel, gates, game, *args, **kwargs)

        monkeypatch.setattr(search, "_see_saw", spy)
        eq = ghz_game_equation()
        phased = _ghz(4, 0.7).amplitudes
        third = phased.copy()
        third[0b0101] = 1e-3
        unequal = phased.copy()
        unequal[-1] *= 1.001
        ghz_point = make_family_state(FamilyId.G_ABCD, {"a": 1, "b": 0, "c": 0, "d": 1})
        cases = [
            (StateVector(phased), eq, True),
            (StateVector(phased), GameEquation(eq.f, eq.g.complement()), True),
            (ghz_point, eq, True),
            (StateVector(third), eq, False),
            (StateVector(unequal), eq, False),
            (StateVector(phased), w_game_equation(), False),
            (see_saw_state("ghz4"), eq, False),
        ]
        for psi, game, on_torus in cases:
            rows.clear()
            gain, strategy = optimize_quantum(psi, game, OptimizerConfig(restarts=4, seed=1))
            assert (rows == []) == on_torus
            assert _on_torus(psi, game) == on_torus
            assert gain == win_probability(psi, strategy, game)

    def test_mixed_games_equal_games_run_alone(self):
        # torus and see-saw games in one call, per g: parity, its complement and the W game's
        rng = np.random.default_rng(12)
        ghz4, eq, w_eq = make_named_state("ghz4"), ghz_game_equation(), w_game_equation()
        fs = [TruthTable(4, int(bits)) for bits in rng.integers(0, 1 << 16, 3)]
        complement = [GameEquation(f, eq.g.complement()) for f in fs[:2]]
        cases = [
            ([ghz4, _random_states(rng, 1)[0], see_saw_state("ghz4"), _ghz(4, 1.3)],
             [eq, eq, eq, GameEquation(fs[2], eq.g)], [True, False, False, True]),
            ([_ghz(4, 1.3), ghz4, _random_states(rng, 1)[0]], [*complement, complement[0]],
             [True, True, False]),
            ([ghz4, make_named_state("w4")], [w_eq, GameEquation(fs[0], w_eq.g)], [False, False]),
        ]
        cfg = OptimizerConfig(restarts=6, seed=0)
        for states, eqs, on_torus in cases:
            seeds = [int(s) for s in rng.integers(0, 2**31, len(states))]
            warm = [[rng.uniform(0.0, 4 * math.pi, 24)] if j % 2 else [] for j in range(len(states))]
            assert [_on_torus(psi, e) for psi, e in zip(states, eqs)] == on_torus
            batch = _optimize_games(states, eqs, seeds, cfg, warm)
            for j, (gain, strategy) in enumerate(batch):
                alone_gain, alone = _optimize_games(states[j], eqs[j], [seeds[j]], cfg, [warm[j]])[0]
                assert gain == alone_gain
                assert np.array_equal(strategy.angles, alone.angles)

    @pytest.mark.parametrize("n, rows", [(2, 300), (3, 257), (4, 1), (4, 2), (4, 255), (4, 256),
                                         (4, 777)])
    def test_ascent_rows_equal_single_row_runs(self, n, rows):
        rng = np.random.default_rng(rows)
        signs = 1.0 - 2.0 * rng.integers(0, 2, (rows, 1 << n))
        delta = rng.uniform(0.0, 2 * math.pi, (rows, n))
        swept_delta, terms = torus._sweep(signs, delta)
        batch_delta, batch_total = torus._polish(signs, swept_delta, terms)
        for r in range(rows):
            alone_swept, alone_terms = torus._sweep(signs[r:r + 1], delta[r:r + 1])
            assert np.array_equal(alone_swept[0], swept_delta[r])
            assert np.array_equal(alone_terms[0], terms[r])
            alone_delta, alone_total = torus._polish(signs[r:r + 1], alone_swept, alone_terms)
            assert np.array_equal(alone_delta[0], batch_delta[r])
            assert alone_total[0] == batch_total[r]

    @staticmethod
    def torus_value(signs, angles):
        """|S(delta)| = |sum_q s_q e^{i q.delta}| of each game's returned delta, summed directly."""
        n = angles.shape[1]
        delta = torus._delta_of(angles)
        questions = np.array(list(itertools.product((0, 1), repeat=n)))
        return np.abs((signs * np.exp(1j * (delta @ questions.T))).sum(axis=1))

    def heavy_reference_deviation(self, space, seed, monkeypatch, restarts=20):
        """Largest |S| difference, over ``space`` on GHZ with parity g and with its complement,
        between ``torus.optimize`` and a heavy reference from the same starts: 10 sweeps,
        every start polished, 10 Newton steps."""
        n = space[0].arity
        deviation = 0.0
        for g in (_parity(n), _parity(n).complement()):
            kernel = GainKernel(_ghz(n), [GameEquation(f, g) for f in space])
            on, signs, chi = torus.xor_games(kernel, len(space))
            assert on.all()
            seeds = [derive_task_seed(seed, j) for j in range(len(space))]
            budget = torus.optimize(signs, chi, seeds, restarts)
            # each game's random starts, then its Walsh vertex, as optimize draws them
            starts = np.concatenate([
                np.vstack([np.random.default_rng(s).uniform(0.0, 2 * math.pi, (restarts, n)), vertex])
                for s, vertex in zip(seeds, torus._walsh_vertex(signs))])
            rows = np.repeat(signs, restarts + 1, axis=0)
            with monkeypatch.context() as heavy:
                heavy.setattr(torus, "_SWEEPS", 10)
                heavy.setattr(torus, "_NEWTON_STEPS", 10)
                _, total = torus._polish(rows, *torus._sweep(rows, starts))
            reference = np.abs(total).reshape(len(space), restarts + 1).max(axis=1)
            # |S| <= 2**n; as win probabilities, 1/2 + |S| / 2**(n+1)
            deviation = max(deviation, np.abs(self.torus_value(signs, budget) - reference).max())
        return deviation

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_the_budget_meets_a_heavy_reference(self, seed, monkeypatch):
        # the 20 classes at n = 3 and the criterion-7 subsample at n = 4
        spaces = [list(reduce_function_space(3)),
                  stratified_subsample(list(reduce_function_space(4)), 300, DEFAULT_SEED)]
        assert [len(space) for space in spaces] == [20, 300]
        for space in spaces:
            assert self.heavy_reference_deviation(space, seed, monkeypatch) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_the_budget_meets_a_heavy_reference_on_the_full_space(self, seed, monkeypatch):
        space = list(reduce_function_space(4))
        assert len(space) == 2191
        assert self.heavy_reference_deviation(space, seed, monkeypatch) <= 1e-12

    @pytest.mark.slow
    def test_full_space_gap_spectrum(self):
        # every one of the 2,191 classes of the ghz4 parity scan, by its gap rounded at 1e-6
        results = search_space(parse_table("a^b^c^d", ANSWER_VARS[4]), make_named_state("ghz4"),
                               OptimizerConfig(), list(reduce_function_space(4)), workers=1)
        spectrum = collections.Counter(round(r.gap, 6) for r in results)
        assert spectrum == {0.0: 941, 0.02391: 160, 0.029508: 280, 0.051777: 444, 0.076641: 80,
                            0.094736: 240, 0.103553: 14, 0.125: 15, 0.145528: 16, 0.228553: 1}

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_full_space_gaps_fall_at_most_two_rounding_units_below_zero(self, seed):
        # a torus game with no advantage can read a gap one rounding unit (1.1e-16) below
        # zero, since its gain is the re-evaluated win probability; a real shortfall is larger
        results = search_space(parse_table("a^b^c^d", ANSWER_VARS[4]), make_named_state("ghz4"),
                               OptimizerConfig(seed=seed), list(reduce_function_space(4)), workers=1)
        assert len(results) == 2191
        assert min(r.gap for r in results) >= -2.3e-16

    # 12 torus games of 21 starts (20 restarts and the vertex); see-saw games with warm
    # starts, as in a sweep step; few restarts, as a see-saw game of few starts may have
    @pytest.mark.parametrize("counts", [[21] * 12, [21, 22, 21, 21, 23, 22, 21],
                                        [2, 3, 2, 4, 5, 2, 3], [3, 21, 2, 7]])
    @pytest.mark.parametrize("ties", [False, True])
    def test_start_ranking_and_pick_equal_a_loop_over_games(self, counts, ties):
        rng = np.random.default_rng(len(counts) + sum(counts))
        # game labels need only not decrease: the see-saw's are a subset of the games
        game = np.repeat(3 * np.arange(len(counts)), counts)
        # swept |S| values; with ties, few distinct values, so that most rows tie
        value = rng.integers(0, 3, game.size) * 1.0 if ties else rng.uniform(0.0, 16.0, game.size)
        # each game's best start: the first of largest value, as argmax picks
        bounds = np.cumsum([0] + counts)
        best = [lo + int(np.argmax(value[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert torus._leading(game, value).tolist() == best

    @pytest.mark.parametrize("n, weights", [(5, (2, 3)), (6, (0, 3, 4))])
    def test_symmetric_games_beyond_four_players_reach_tsirelson(self, n, weights):
        # f = 1 on the questions of these weights, parity g: raw sign vectors,
        # since the game equations stop at four players
        signs = np.array([[-1.0 if bin(q).count("1") in weights else 1.0 for q in range(1 << n)]])
        angles = torus.optimize(signs, np.zeros(1), [DEFAULT_SEED], 20)
        gain = 0.5 + self.torus_value(signs, angles)[0] / 2 ** (n + 1)
        assert abs(gain - TSIRELSON) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_walsh_vertex_is_the_first_vertex_of_largest_walsh_coefficient(self, n):
        # random sign vectors tie often at small n, so the first maximizer is checked too
        signs = 1.0 - 2.0 * np.random.default_rng(n).integers(0, 2, (12, 1 << n))
        for row, vertex in zip(signs, torus._walsh_vertex(signs)):
            values = [abs(sum(s * (-1) ** bin(q & m).count("1") for q, s in enumerate(row)))
                      for m in range(1 << n)]
            m = values.index(max(values))
            assert vertex.tolist() == [math.pi * (m >> (n - 1 - k) & 1) for k in range(n)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_walsh_table_is_read_only(self, n):
        # the kernel's g-hat and the torus path's Walsh vertex read the same cached table
        walsh = _walsh(n)
        assert not walsh.flags.writeable
        assert walsh.tolist() == [[(-1) ** bin(a & m).count("1") for m in range(1 << n)]
                                  for a in range(1 << n)]

    def test_a_torus_strategy_projects_back_onto_its_deltas(self):
        # the tests read a torus strategy's deltas back from its gates
        rng = np.random.default_rng(3)
        delta = rng.uniform(-math.pi, math.pi, (6, 4))
        total = rng.normal(size=6) + 1j * rng.normal(size=6)
        angles = torus._angles(delta, total, rng.uniform(0.0, 2 * math.pi, 6))
        back = torus._delta_of(angles)
        assert np.abs(np.angle(np.exp(1j * (back - delta)))).max() < 1e-12


class TestTaskSetUp:
    """A search task sets up all its games at once: classical values and the torus path."""

    @staticmethod
    def answer_sides(n):
        """Parity, the W game's g (exactly n - 1 answers 1) and two seeded random g."""
        rng = np.random.default_rng(n)
        w = sum(1 << a for a in range(1 << n) if bin(a).count("1") == n - 1)
        return [_parity(n), TruthTable(n, w),
                *(TruthTable(n, int(bits)) for bits in rng.integers(0, 1 << (1 << n), 2))]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classical_values_equal_classical_best(self, n):
        functions = ([TruthTable(n, bits) for bits in range(1 << (1 << n))] if n < 4
                     else list(reduce_function_space(4)))
        assert len(functions) == {2: 16, 3: 256, 4: 2191}[n]
        for g in self.answer_sides(n):
            values = search._classical_values(g, functions)
            assert all(type(value) is float for value in values)
            assert values == [classical_best(GameEquation(f, g))[0] for f in functions]

    @staticmethod
    def torus_games(states, eqs, count):
        return torus.xor_games(GainKernel(states, eqs), count)

    def test_torus_games_equal_games_classified_alone(self):
        rng = np.random.default_rng(22)
        eq, w_eq = ghz_game_equation(), w_game_equation()
        complement = GameEquation(eq.f, eq.g.complement())
        fs = [TruthTable(4, int(bits)) for bits in rng.integers(0, 1 << 16, 6)]
        ghz4, phased, w4 = make_named_state("ghz4"), _ghz(4, 2.1), make_named_state("w4")
        # a sweep batch: one equation, a family state per game, GHZ-type at a = d, b = c = 0
        family = [make_family_state(FamilyId.G_ABCD, {"a": a, "b": b, "c": 0, "d": 1})
                  for a, b in ((1, 0), (0.5, 0), (1, 0.5), (1, 0), (-1, 0))]
        # each case's games share one g: parity, its complement or the W game's
        mixed = [phased, w4, _ghz(4, 0.8), _random_states(rng, 1)[0]]
        cases = [
            (ghz4, [GameEquation(f, eq.g) for f in fs] + [eq]),
            (ghz4, [complement] + [GameEquation(f, complement.g) for f in fs]),
            (ghz4, w_eq),
            (phased, [GameEquation(f, eq.g) for f in fs]),
            (phased, [GameEquation(f, complement.g) for f in fs]),
            (w4, [eq, GameEquation(fs[0], eq.g)]),
            (w4, complement),
            (w4, w_eq),
            (family, eq),
            (family, [GameEquation(f, complement.g) for f in fs[:5]]),
            (family, [w_eq] + [GameEquation(f, w_eq.g) for f in fs[:4]]),
            (mixed, [eq, eq, GameEquation(fs[0], eq.g), eq]),
            (mixed, [GameEquation(f, complement.g) for f in fs[:4]]),
            (phased, complement),
        ]
        for states, eqs in cases:
            count = max(len(x) if isinstance(x, list) else 1 for x in (states, eqs))
            on, signs, chi = self.torus_games(states, eqs, count)
            alone = [self.torus_games(states[j] if isinstance(states, list) else states,
                                      eqs[j] if isinstance(eqs, list) else eqs, 1)
                     for j in range(count)]
            assert on.tolist() == [bool(game[0][0]) for game in alone]
            on_torus = [game for game in alone if game[0][0]]
            assert np.array_equal(signs, np.array([s[0] for _, s, _ in on_torus]).reshape(-1, 16))
            assert chi.tolist() == [c[0] for _, _, c in on_torus]
        # s_q = (-1)^(f(q) ^ c) and chi, written out, for the phased state and parity's complement
        on, signs, chi = self.torus_games(phased, [complement], 1)
        assert on.tolist() == [True] and chi.tolist() == [pytest.approx(2.1, abs=1e-12)]
        assert signs[0].tolist() == [1.0 - 2.0 * (eq.f.value(q) ^ 1) for q in range(16)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_torus_path_takes_the_g_whose_xor_with_parity_is_constant(self, n):
        # every answer side at n = 2 and 3; parity, its complement and 200 seeded g at n = 4
        rng = np.random.default_rng(29 + n)
        parity = [bin(a).count("1") % 2 for a in range(1 << n)]
        if n < 4:
            sides = [TruthTable(n, bits) for bits in range(1 << (1 << n))]
        else:
            sides = [_parity(n), _parity(n).complement(),
                     *(TruthTable(n, int(bits)) for bits in rng.integers(0, 1 << 16, 200))]
        assert len(sides) == {2: 16, 3: 256, 4: 202}[n]
        psi = _ghz(n, 0.9)
        for g in sides:
            eqs = [GameEquation(TruthTable(n, int(f)), g) for f in rng.integers(0, 1 << (1 << n), 3)]
            on, signs, chi = torus.xor_games(GainKernel(psi, eqs), len(eqs))
            flips = {g.value(a) ^ parity[a] for a in range(1 << n)}
            assert on.tolist() == [len(flips) == 1] * len(eqs), g.to_text()
            if len(flips) == 1:
                (c,) = flips
                # s_q = (-1)^(f(q) ^ c), written out
                assert signs.tolist() == [[(-1.0) ** (eq.f.value(q) ^ c) for q in range(1 << n)]
                                          for eq in eqs]
                assert chi.tolist() == [pytest.approx(0.9, abs=1e-12)] * len(eqs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_g_hat_vanishes_off_all_players_for_parity_and_its_complement_alone(self, n):
        # every answer side g, all 65,536 at n = 4: the kernel's g-hat is
        # sum_a (-1)^(g(a) + |a & S|) as integers, it is 0 off the set of all players
        # exactly for parity and its complement, and the torus path takes g on that test
        answers = np.arange(1 << n, dtype=np.uint8)
        dots = np.array([[bin(a & s).count("1") for s in answers] for a in answers], dtype=np.uint8)
        sides = np.arange(1 << (1 << n))
        values = (sides[:, None] >> answers & 1).astype(np.uint8)
        expect = (1 - 2 * ((values[:, :, None] + dots) & 1).astype(np.int64)).sum(axis=1)
        xor_sides = [_parity(n).bits, _parity(n).complement().bits]
        psi, f = _ghz(n), TruthTable(n, 1)
        g_hats, on = [], []
        for bits in sides.tolist():
            kernel = GainKernel(psi, GameEquation(f, TruthTable(n, bits)))
            g_hats.append(kernel.g_hat)
            on.append(torus.xor_games(kernel, 1)[0][0])
        g_hats = np.array(g_hats)
        assert g_hats.dtype.kind == "i" and np.array_equal(g_hats, expect)
        xor = ~g_hats[:, :-1].any(axis=1)
        assert np.flatnonzero(xor).tolist() == sorted(xor_sides)
        assert np.array_equal(on, xor)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_form_wins_where_f_of_the_questions_equals_g_of_the_answers(self, n):
        rng = np.random.default_rng(23 + n)
        paper = {2: [chsh_equation()], 3: [], 4: [ghz_game_equation(), w_game_equation()]}[n]
        rows = 32
        # per answer side, a kernel of three random f and the paper's games with that g
        for g in self.answer_sides(n):
            eqs = [GameEquation(TruthTable(n, int(f)), g) for f in rng.integers(0, 1 << (1 << n), 3)]
            eqs += [eq for eq in paper if eq.g == g]
            flips = rng.integers(0, 2, (rows, n, 2))
            # theta = 0 answers a qubit's basis value, theta = pi its complement
            angles = np.zeros((rows, n, 2, 3))
            angles[..., 0] = math.pi * flips
            game = rng.integers(0, len(eqs), rows)
            for x in range(1 << n):
                # on the basis state |x>, player k answers x_k ^ flips[k, q_k], for sure
                bits = [(x >> (n - 1 - k)) & 1 for k in range(n)]
                kernel = GainKernel(StateVector(np.eye(1 << n)[x]), eqs)
                gains = kernel.gains(angles.reshape(rows, -1), game)
                for r in range(rows):
                    eq = eqs[game[r]]
                    wins = sum(eq.f.evaluate(q) == eq.g.evaluate(
                                   [bits[k] ^ flips[r, k, q[k]] for k in range(n)])
                               for q in itertools.product((0, 1), repeat=n))
                    assert abs(gains[r] - wins / (1 << n)) < 1e-12


class TestOneEvaluation:
    """Each solver picks a game's best start by its own score; one kernel call then
    evaluates every game's returned angles afresh."""

    @staticmethod
    def mixed_games():
        rng = np.random.default_rng(20)
        eq = ghz_game_equation()
        states = [make_named_state("ghz4"), _random_states(rng, 1)[0], make_named_state("w4"),
                  _ghz(4, 1.3), see_saw_state("ghz4")]
        eqs = [eq, eq, GameEquation(w_game_equation().f, eq.g), eq, eq]
        return states, eqs, [int(s) for s in rng.integers(0, 2**31, len(states))]

    def test_one_gains_call_with_one_row_per_game(self, monkeypatch):
        calls, gains = [], GainKernel.gains

        def spy(self, angle_batch, game=None):
            calls.append((np.asarray(angle_batch).shape[0], np.asarray(game).tolist()))
            return gains(self, angle_batch, game)

        monkeypatch.setattr(GainKernel, "gains", spy)
        states, eqs, seeds = self.mixed_games()
        assert [_on_torus(psi, e) for psi, e in zip(states, eqs)] == [
            True, False, False, True, False]
        _optimize_games(states, eqs, seeds, OptimizerConfig(restarts=5, seed=0))
        assert calls == [(5, [0, 1, 2, 3, 4])]

    def test_a_see_saw_gain_is_its_best_restart_evaluated_afresh(self, monkeypatch):
        returned, see_saw = [], search._see_saw

        def spy(kernel, starts, game, *args, **kwargs):
            final, gains = see_saw(kernel, starts, game, *args, **kwargs)
            returned.append((game, final))
            return final, gains

        monkeypatch.setattr(search, "_see_saw", spy)
        states, eqs, seeds = self.mixed_games()
        results = _optimize_games(states, eqs, seeds, OptimizerConfig(restarts=5, seed=0))
        ((game, final),) = returned
        angles = _angles_from_bloch(final)
        for j in np.unique(game):
            best = max(win_probability(states[j], QuantumStrategy(a), eqs[j])
                       for a in angles[game == j])
            assert abs(results[j][0] - best) <= 1e-12


class TestDeterministicEmbedding:
    def test_identity_bitflip_gates_reproduce_classical_gain(self):
        # a deterministic strategy embeds as (0,0,0)/(pi,0,pi) gates on |0..0>
        eq = ghz_game_equation()
        psi = StateVector([1] + [0] * 15)
        rng = np.random.default_rng(17)
        flip = (math.pi, 0.0, math.pi)
        for _ in range(10):
            strat = ClassicalStrategy(4, int(rng.integers(0, 256)))
            angles = np.zeros((4, 2, 3))
            for i in range(4):
                for q in (0, 1):
                    if strat.answer(i, q):
                        angles[i, q] = flip
            wins = 0
            for q in range(16):
                question = tuple((q >> (3 - i)) & 1 for i in range(4))
                a_index = int("".join(map(str, strat.answers(question))), 2)
                wins += eq.f.value(q) == eq.g.value(a_index)
            embedded = win_probability(psi, QuantumStrategy(angles), eq)
            assert embedded == pytest.approx(wins / 16, abs=1e-12)


class TestXorComplementSymmetry:
    def test_classical_exact_and_quantum_close(self):
        g = parse_table("a^b^c^d", ANSWER_VARS[4])
        psi = make_named_state("ghz4")
        rng = np.random.default_rng(40)
        for _ in range(3):
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            eq = GameEquation(f, g)
            eq_c = GameEquation(f.complement(), g)
            c1, _ = classical_best(eq)
            c2, _ = classical_best(eq_c)
            assert c1 == c2
            q1, _ = optimize_quantum(psi, eq, OptimizerConfig(restarts=8, seed=1))
            q2, _ = optimize_quantum(psi, eq_c, OptimizerConfig(restarts=8, seed=2))
            assert q1 == pytest.approx(q2, abs=2e-3)


@pytest.fixture(scope="module")
def small_run():
    space = reduce_function_space(2, require_all_relevant=True, include_output_flip=False)
    psi = make_named_state("epr")
    g = parse_table("a^b", ANSWER_VARS[2])
    cfg = OptimizerConfig(restarts=4, max_evals=2000, seed=7)
    return space, psi, g, cfg


class TestSearchSpace:

    def test_one_result_per_function_in_order(self, small_run):
        space, psi, g, cfg = small_run
        results = search_space(g, psi, cfg, space, workers=1)
        assert len(results) == len(space)
        assert [r.equation.f for r in results] == list(space)
        for r in results:
            assert 0.0 <= r.quantum_gain <= 1.0
            assert r.classical_gain * 4 == round(r.classical_gain * 4)
            assert r.gap == r.quantum_gain - r.classical_gain

    def test_worker_count_does_not_change_results(self, small_run):
        space, psi, g, cfg = small_run
        serial = search_space(g, psi, cfg, space, workers=1)
        parallel = search_space(g, psi, cfg, space, workers=3)
        a = [json.dumps(r.to_json_dict()) for r in serial]
        b = [json.dumps(r.to_json_dict()) for r in parallel]
        assert a == b

    def test_worker_count_does_not_change_results_on_a_random_state(self, small_run):
        space, _, g, cfg = small_run
        rng = np.random.default_rng(3)
        psi = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
        # re-normalizing this state changes its last bits, so a worker that
        # rebuilt it from its amplitudes would play another state
        assert StateVector(psi.amplitudes).amplitudes.tobytes() != psi.amplitudes.tobytes()
        serial = search_space(g, psi, cfg, space, workers=1)
        parallel = search_space(g, psi, cfg, space, workers=2)
        assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]
        assert ([r.quantum_strategy.angles.tobytes() for r in serial]
                == [r.quantum_strategy.angles.tobytes() for r in parallel])

    def test_the_pool_has_no_more_processes_than_tasks(self, small_run, pool_sizes):
        space, psi, g, cfg = small_run
        serial = search_space(g, psi, cfg, space, workers=1)
        assert pool_sizes == []
        results = search_space(g, psi, cfg, space, workers=8)
        assert pool_sizes == [len(_split_tasks(len(space), 8, cfg.restarts))] == [len(space)]
        assert [r.to_json_dict() for r in results] == [r.to_json_dict() for r in serial]

    def test_strategies_from_worker_processes_are_read_only(self, small_run):
        space, psi, g, cfg = small_run
        for workers in (1, 2):
            results = search_space(g, psi, cfg, space, workers=workers)
            assert not any(r.quantum_strategy.angles.flags.writeable for r in results), workers

    def test_results_carry_no_timing(self, small_run):
        # results files hold no timing, so that they are byte-deterministic
        space, psi, g, cfg = small_run
        results = search_space(g, psi, cfg, space, workers=1)
        assert not any("elapsed_ms" in r.to_json_dict() for r in results)

    def test_chsh_appears_as_the_top_gap(self, small_run):
        space, psi, g, cfg = small_run
        results = search_space(g, psi, cfg, space, workers=1)
        best = max(results, key=lambda r: r.gap)
        # the two-player parity game family peaks at the CHSH separation
        assert best.gap == pytest.approx(math.cos(math.pi / 8) ** 2 - 0.75, abs=2e-3)

    def test_progress_callback(self, small_run):
        space, psi, g, cfg = small_run
        seen = []
        search_space(g, psi, cfg, space, workers=1, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(done, len(space)) for done in range(1, len(space) + 1)]

    def test_arity_mismatch(self, small_run):
        space, psi, g, cfg = small_run
        with pytest.raises(ValueError):
            search_space(g, make_named_state("ghz4"), cfg, space)

    def test_log_line_reports_rate_and_eta(self, small_run, caplog):
        space, psi, g, cfg = small_run
        with caplog.at_level(logging.INFO, logger="qgames.search"):
            search_space(g, psi, cfg, space, workers=1)
        last = caplog.records[-1].getMessage()
        assert last.startswith(f"search progress: {len(space)}/{len(space)} functions, ")
        assert last.endswith(" games/s, ETA 0 s")

    def test_a_failing_task_names_its_functions_and_seeds(self, small_run, monkeypatch):
        space, psi, g, cfg = small_run
        assert len(space) >= 3
        optimize = search._optimize_games

        def fail_on_second(states, eqs, seeds, cfg):
            if eqs[0].f == space[1]:
                raise FloatingPointError("overflow in the kernel")
            return optimize(states, eqs, seeds, cfg)

        monkeypatch.setattr(search, "_TASK_ROWS", 1)
        monkeypatch.setattr(search, "_optimize_games", fail_on_second)
        with pytest.raises(RuntimeError) as err:
            search_space(g, psi, cfg, space, workers=1)
        message = str(err.value)
        assert "search task over functions 1-1 failed" in message
        assert f"master seed {cfg.seed}, game seeds [{derive_task_seed(cfg.seed, 1)}]" in message
        assert "overflow in the kernel" in message
        assert isinstance(err.value.__cause__, FloatingPointError)


class TestUsableCpus:
    def test_counts_the_affinity_mask_not_the_machine(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert usable_cpus() == 1

    @pytest.mark.parametrize("count, expected", ((3, 3), (None, 1)))
    def test_falls_back_to_the_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert usable_cpus() == expected


class TestSplitTasks:
    def test_ranges_cover_the_functions_in_order(self):
        for total, workers, restarts in ((1, 1, 20), (12, 1, 20), (12, 2, 20), (10, 3, 20),
                                         (300, 1, 20), (2191, 2, 20), (5, 8, 20),
                                         (300, 1, 7), (40, 1, 1000), (40, 3, 5000)):
            tasks = _split_tasks(total, workers, restarts)
            assert tasks[0][0] == 0 and tasks[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
            sizes = [hi - lo for lo, hi in tasks]
            assert max(sizes) * restarts <= max(search._TASK_ROWS, restarts)
            assert max(sizes) - min(sizes) <= 1
            assert len(tasks) >= min(workers, total)
        assert _split_tasks(0, 2, 20) == []
        assert _split_tasks(12, 1, 20) == [(0, 12)]
        assert len(_split_tasks(300, 1, 20)) == 5
        assert len(_split_tasks(40, 1, 1000)) == 40

    def test_a_task_holds_at_most_its_rows_at_many_restarts(self, small_run, monkeypatch):
        space, psi, g, cfg = small_run
        cfg = OptimizerConfig(restarts=700, max_evals=8, seed=cfg.seed)
        rows = []
        optimize = search._optimize_games

        def count_rows(states, eqs, seeds, cfg):
            rows.append(len(seeds) * cfg.restarts)
            return optimize(states, eqs, seeds, cfg)

        monkeypatch.setattr(search, "_optimize_games", count_rows)
        results = search_space(g, psi, cfg, space, workers=1)
        assert len(results) == len(space) >= 2 and rows == [700] * len(space)


@pytest.fixture(scope="module")
def see_saw_run():
    # at one worker these 10 games at 30 restarts are one task, so one block of rows
    space = list(reduce_function_space(4, require_all_relevant=True))
    tables = stratified_subsample(space, 10, 3)
    g = parse_table("a^b^c^d", ANSWER_VARS[4])
    cfg = OptimizerConfig(restarts=30, seed=5)
    assert _split_tasks(len(tables), 1, cfg.restarts) == [(0, len(tables))]
    return space, tables, g, see_saw_state("ghz4"), cfg


def _alone(f, g, psi, cfg, index, state):
    """The GameResult of one game optimized on its own, with its search seed."""
    eq = GameEquation(f, g)
    seed = derive_task_seed(cfg.seed, index)
    quantum, strategy = optimize_quantum(psi, eq, replace(cfg, seed=seed))
    classical, maximizers = classical_best(eq)
    return GameResult(
        equation=eq, classical_gain=classical,
        quantum_gain=quantum, quantum_strategy=strategy, gap=quantum - classical,
        state=state, seed=seed,
    )


class TestPlayerPermutationInvariance:
    """ghz4 and a^b^c^d are unchanged by any permutation of the players, so a
    function and its input-permuted copies share their classical and quantum values."""

    def test_permuted_functions_share_their_values(self):
        cfg = OptimizerConfig()
        functions = stratified_subsample(list(reduce_function_space(4)), 8, 11)
        permuted = []
        for f in functions:
            cube = f.values().reshape((2,) * 4)
            for perm in itertools.permutations(range(4)):
                values = cube.transpose(perm).ravel()
                permuted.append(TruthTable(4, int((values << np.arange(16)).sum())))
        results = search_space(
            parse_table("a^b^c^d", ANSWER_VARS[4]), make_named_state("ghz4"), cfg, permuted,
            workers=1,
        )
        for k, f in enumerate(functions):
            orbit = results[24 * k:24 * k + 24]
            assert orbit[0].equation.f == f
            assert len({r.equation.f for r in orbit}) > 1
            assert len({r.classical_gain for r in orbit}) == 1
            gains = [r.quantum_gain for r in orbit]
            assert max(gains) - min(gains) <= cfg.tol


class TestSeeSawSearch:
    def test_each_game_matches_the_game_run_alone(self, see_saw_run):
        _, tables, g, psi, cfg = see_saw_run
        results = search_space(g, psi, cfg, tables, workers=1, state_descriptor="ghz4")
        for index, (f, result) in enumerate(zip(tables, results)):
            alone = _alone(f, g, psi, cfg, index, "ghz4")
            assert result.to_json_dict() == alone.to_json_dict()
            assert result.quantum_gain == win_probability(psi, result.quantum_strategy, result.equation)

    def test_a_game_does_not_depend_on_its_neighbours(self, see_saw_run):
        space, tables, g, psi, cfg = see_saw_run
        others = stratified_subsample(space, 10, 4)
        assert all(a != b for a, b in zip(tables, others))
        base = search_space(g, psi, cfg, tables, workers=1)
        # every game keeps its index (and so its seed) but gets new task neighbours
        for keep in (0, 5, 9):
            mixed = [t if i == keep else o for i, (t, o) in enumerate(zip(tables, others))]
            moved = search_space(g, psi, cfg, mixed, workers=1)
            assert moved[keep].to_json_dict() == base[keep].to_json_dict()

    def test_a_game_does_not_depend_on_its_place_in_the_batch(self, see_saw_run):
        _, tables, g, psi, cfg = see_saw_run
        eqs = [GameEquation(t, g) for t in tables[:5]]
        seeds = [11, 12, 13, 14, 15]
        alone = [_optimize_games(psi, [eq], [seed], cfg)[0] for eq, seed in zip(eqs, seeds)]
        for order in ([4, 3, 2, 1, 0], [2, 2, 0], [1, 4, 1, 3, 0, 2]):
            batch = _optimize_games(psi, [eqs[i] for i in order], [seeds[i] for i in order], cfg)
            for i, (gain, strategy) in zip(order, batch):
                assert gain == alone[i][0]
                assert np.array_equal(strategy.angles, alone[i][1].angles)

    def test_worker_count_and_progress_over_several_tasks(self, see_saw_run):
        _, tables, g, psi, cfg = see_saw_run
        lines, seen = {}, {}
        for workers in (1, 2):
            seen[workers] = []
            results = search_space(
                g, psi, cfg, tables, workers=workers,
                progress=lambda done, total, log=seen[workers]: log.append((done, total)),
            )
            lines[workers] = [json.dumps(r.to_json_dict()) for r in results]
            assert seen[workers] == [(done, len(tables)) for done in range(1, len(tables) + 1)]
        assert lines[1] == lines[2]


def _random_states(rng, count, n=4):
    return [StateVector(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) for _ in range(count)]


class TestRowIndependence:
    """A row's result is the same, bit for bit, in a batch of any size.

    numpy multiplies into a temporary in place once it reaches 256 KiB,
    which at n = 4 is a best response of 256 rows; batches that big once
    rounded differently from the same rows run alone.
    """

    @pytest.mark.parametrize("g", ["a^b^c^d", "!abcd + a!bcd + ab!cd + abc!d"])
    @pytest.mark.parametrize("rows", [1, 255, 256, 777])
    def test_kernel_rows_equal_single_row_runs(self, rows, g):
        rng = np.random.default_rng(rows)
        # three games against one g, each on its own state: the GHZ game's, the W game's
        # and wxyz as f
        states = _random_states(rng, 3)
        answers = parse_table(g, ANSWER_VARS[4])
        eqs = [GameEquation(eq.f, answers) for eq in (ghz_game_equation(), w_game_equation())]
        eqs.append(GameEquation(parse_table("wxyz", QUESTION_VARS[4]), answers))
        kernel = GainKernel(states, eqs)
        single = [GainKernel(psi, eq) for psi, eq in zip(states, eqs)]
        angles = rng.uniform(0.0, 4 * math.pi, (rows, 4, 2, 3))
        flat, bloch = angles.reshape(rows, -1), _bloch(angles)
        game = rng.integers(0, 3, rows)
        gains = kernel.gains(flat, game)
        for r in range(rows):
            one = slice(r, r + 1)
            # a game index into several games or a one-game kernel: the same bits
            assert kernel.gains(flat[one], game[one])[0] == gains[r]
            assert single[game[r]].gains(flat[one])[0] == gains[r]
        start_gains = kernel.bloch_gains(bloch, game)
        for r in range(rows):
            one = slice(r, r + 1)
            assert kernel.bloch_gains(bloch[one], game[one])[0] == start_gains[r]
            assert single[game[r]].bloch_gains(bloch[one])[0] == start_gains[r]
        for player in range(4):
            new, stepped = kernel.bloch_response(bloch, player, game)
            for r in range(rows):
                one = slice(r, r + 1)
                alone_new, alone = kernel.bloch_response(bloch[one], player, game[one])
                assert np.array_equal(alone_new[0], new[r])
                assert alone[0] == stepped[r]
                alone_new, alone = single[game[r]].bloch_response(bloch[one], player)
                assert np.array_equal(alone_new[0], new[r])
                assert alone[0] == stepped[r]
            bloch[:, player] = new
        # a sweep is the four steps above, on every row as on the row alone
        swept = _bloch(angles)
        sweep_gains = kernel.sweep(swept, game)
        assert np.array_equal(swept, bloch) and np.array_equal(sweep_gains, stepped)
        for r in range(rows):
            one = slice(r, r + 1)
            for alone_kernel, alone_game in ((kernel, game[one]), (single[game[r]], None)):
                alone_rows = _bloch(angles[one])
                assert alone_kernel.sweep(alone_rows, alone_game)[0] == sweep_gains[r]
                assert np.array_equal(alone_rows[0], swept[r])

    def test_kernel_takes_one_state_or_one_per_game(self):
        rng = np.random.default_rng(5)
        eq = ghz_game_equation()
        eqs = [eq, GameEquation(w_game_equation().f, eq.g), eq]
        with pytest.raises(ValueError, match="2 states for 3 games"):
            GainKernel(_random_states(rng, 2), eqs)
        # the form's tables: (n, states, 4, 4**(n-1)) L, (n, games, 2, 2**(n-1)) signs +-1,
        # and no per-game constant
        shared = GainKernel(_random_states(rng, 1), eqs)
        assert shared.states.shape == (1, 16) and shared.g_hat.shape == (16,)
        assert shared.pauli.shape == (4, 1, 4, 64)
        assert shared.signs.shape == (4, 3, 2, 8) and set(np.unique(shared.signs)) == {-1.0, 1.0}
        per_state = GainKernel(_random_states(rng, 2), eq)
        assert per_state.pauli.shape == (4, 2, 4, 64)
        assert per_state.signs.shape == (4, 1, 2, 8)
        assert not hasattr(shared, "constant") and not hasattr(per_state, "constant")

    def test_a_kernel_plays_one_g(self):
        rng = np.random.default_rng(6)
        eqs = [ghz_game_equation(), w_game_equation()]
        with pytest.raises(ValueError, match="share one g"):
            GainKernel(_random_states(rng, 1), eqs)
        with pytest.raises(ValueError, match="share one g"):
            GainKernel(_random_states(rng, 2), eqs)
        with pytest.raises(ValueError, match="share one g"):
            _optimize_games(_random_states(rng, 2), eqs, [1, 2], OptimizerConfig(restarts=2))
        # the same f and g as a different object is the same g
        twin = GameEquation(eqs[1].f, TruthTable.from_text(eqs[0].g.to_text()))
        assert GainKernel(_random_states(rng, 1), [eqs[0], twin]).pauli.shape == (4, 1, 4, 64)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pauli_has_one_row_per_state_and_one_state_broadcasts_it(self, n):
        rng = np.random.default_rng(40 + n)
        g = _parity(n)
        eqs = [GameEquation(TruthTable(n, int(f)), g) for f in rng.integers(0, 1 << (1 << n), 3)]
        states = _random_states(rng, 3, n)
        per_state = GainKernel(states, eqs)
        assert per_state.pauli.shape == (n, 3, 4, 4 ** (n - 1))
        for j, psi in enumerate(states):
            assert np.array_equal(per_state.pauli[:, j], GainKernel(psi, eqs[j]).pauli[:, 0])
        # one state: its one row, read by every game's rows, gives each game's own gains
        shared = GainKernel(states[0], eqs)
        assert shared.pauli.shape == (n, 1, 4, 4 ** (n - 1))
        angles = rng.uniform(0.0, 4 * math.pi, (12, 6 * n))
        game = np.arange(12) % 3
        gains = shared.gains(angles, game)
        for j, eq in enumerate(eqs):
            assert np.array_equal(gains[game == j], GainKernel(states[0], eq).gains(angles[game == j]))

    @pytest.mark.parametrize("rows, games, restarts, warmed", [
        (1, 1, 1, 0), (255, 15, 17, 0), (256, 15, 17, 1), (777, 37, 20, 37),
        # the largest block a search task runs
        (1280, 64, 20, 0),
    ])
    def test_optimize_games_equal_games_run_alone(self, rows, games, restarts, warmed):
        # as in a sweep step: one game on each row's own state, the first
        # ``warmed`` games with a warm start after their restarts
        rng = np.random.default_rng(rows)
        states = _random_states(rng, games)
        eq = ghz_game_equation()
        seeds = [int(s) for s in rng.integers(0, 2**31, games)]
        warm = [[rng.uniform(0.0, 4 * math.pi, 24)] if j < warmed else [] for j in range(games)]
        cfg = OptimizerConfig(restarts=restarts, max_evals=400, seed=0)
        assert games * restarts + warmed == rows
        batch = _optimize_games(states, eq, seeds, cfg, warm)
        for j, (gain, strategy) in enumerate(batch):
            alone_gain, alone = _optimize_games(states[j], eq, [seeds[j]], cfg, [warm[j]])[0]
            assert gain == alone_gain
            assert np.array_equal(strategy.angles, alone.angles)

    @pytest.mark.parametrize("task_rows, blocks", [(1, [1] * 22), (7, [7, 7, 7, 1]), (11, [11, 11])])
    def test_blocks_that_split_games_change_no_bit(self, task_rows, blocks, monkeypatch):
        # 5 games of 4 restarts and 2 warm starts, 22 rows, each game on its own
        # state: small blocks split games, and the last block may be short
        rng = np.random.default_rng(26)
        states = _random_states(rng, 5)
        eq = ghz_game_equation()
        eqs = [eq, GameEquation(w_game_equation().f, eq.g)] * 2 + [eq]
        seeds = [int(s) for s in rng.integers(0, 2**31, 5)]
        warm = [[rng.uniform(0.0, 4 * math.pi, 24)] if j in (1, 3) else [] for j in range(5)]
        cfg = OptimizerConfig(restarts=4, max_evals=400, seed=0)
        whole = _optimize_games(states, eqs, seeds, cfg, warm)
        sizes = []
        see_saw = search._see_saw

        def spy(kernel, starts, *args):
            sizes.append(starts.shape[0])
            return see_saw(kernel, starts, *args)

        monkeypatch.setattr(search, "_see_saw", spy)
        monkeypatch.setattr(search, "_TASK_ROWS", task_rows)
        split = _optimize_games(states, eqs, seeds, cfg, warm)
        assert sizes == blocks
        for (gain, strategy), (split_gain, split_strategy) in zip(whole, split):
            assert split_gain == gain
            assert np.array_equal(split_strategy.angles, strategy.angles)


class TestSeeds:
    def test_task_seed_depends_on_index_not_schedule(self):
        assert derive_task_seed(1729, 0) == derive_task_seed(1729, 0)
        assert derive_task_seed(1729, 0) != derive_task_seed(1729, 1)
        assert derive_task_seed(1729, 5) != derive_task_seed(1730, 5)

    def test_task_seed_values_pinned(self):
        # regression pin: changing these silently would break reproducibility
        assert derive_task_seed(1729, 0) == 1513222772
        assert derive_task_seed(1729, 1) == 2677382299


def _result(gap):
    eq = GameEquation(TruthTable(2, 8), TruthTable(2, 6))
    return GameResult(
        equation=eq, classical_gain=0.5,
        quantum_gain=0.5 + gap, quantum_strategy=None, gap=gap,
        state="epr", seed=0,
    )


class TestMetrics:
    def test_game_score_counts_strictly_above_threshold(self):
        results = [_result(g) for g in (0.0, 0.01, 0.0100001, 0.2)]
        assert game_score(results) == 0.5

    def test_all_zero_gaps(self):
        assert game_score([_result(0.0)] * 4) == 0.0

    def test_average_gap_over_qualifying_only(self):
        results = [_result(g) for g in (0.0, 0.2)]
        assert average_gap(results) == pytest.approx(0.2)

    def test_single_qualifying_result(self):
        assert average_gap([_result(0.2)]) == pytest.approx(0.2)

    def test_errors(self):
        with pytest.raises(ValueError):
            game_score([])
        with pytest.raises(ValueError):
            average_gap([])
        with pytest.raises(ValueError):
            average_gap([_result(0.0)])


class TestGameResultJson:
    def test_round_trip(self):
        eq = chsh_equation()
        psi = make_named_state("epr")
        gain, strategy = optimize_quantum(psi, eq, OptimizerConfig(restarts=2, seed=9))
        result = GameResult(
            equation=eq, classical_gain=0.75,
            quantum_gain=gain, quantum_strategy=strategy, gap=gain - 0.75,
            state="epr", seed=9,
        )
        record = result.to_json_dict()
        assert "elapsed_ms" not in record
        rebuilt = GameResult.from_json_dict(record)
        assert rebuilt.to_json_dict() == record
        assert rebuilt.equation == eq
        assert rebuilt.quantum_gain == gain
        assert np.allclose(rebuilt.quantum_strategy.angles, strategy.reduced_angles())
        # reduced angles give the same gain
        assert win_probability(psi, rebuilt.quantum_strategy, eq) == pytest.approx(gain, abs=1e-12)


class TestStratifiedSubsample:
    def test_deterministic_and_sorted(self):
        space = list(reduce_function_space(4))
        a = stratified_subsample(space, 50, 1729)
        b = stratified_subsample(space, 50, 1729)
        assert a == b
        assert [t.bits for t in a] == sorted(t.bits for t in a)

    def test_one_pick_per_stratum(self):
        space = list(reduce_function_space(4))
        sample = stratified_subsample(space, 50, 0)
        assert len(sample) == 50
        assert len(set(sample)) == 50
        edges = np.linspace(0, len(space), 51).astype(int)
        by_bits = [t.bits for t in space]
        for pick, lo, hi in zip(sample, edges[:-1], edges[1:]):
            index = by_bits.index(pick.bits)
            assert lo <= index < hi

    def test_small_input_returned_whole(self):
        space = list(reduce_function_space(2))
        assert stratified_subsample(space, 100, 0) == sorted(space, key=lambda t: t.bits)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            stratified_subsample(list(reduce_function_space(2)), 0, 0)
