"""Classical enumeration, quantum optimization, and batch-search tests."""

import collections
import itertools
import json
import logging
import math
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
    _bloch,
    _build_gate_stack,
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
)
from qgames import search, torus
from qgames.search import (
    _CHUNK_ROWS,
    _angles_from_bloch,
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


def _step_setup(n, seed, batch=6):
    """A kernel on a random n-qubit state with three random games, and random start angles."""
    rng = np.random.default_rng(seed)
    psi = StateVector(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    size = 1 << (1 << n)
    eqs = [
        GameEquation(TruthTable(n, int(rng.integers(size))), TruthTable(n, int(rng.integers(size))))
        for _ in range(3)
    ]
    angles = rng.uniform(0.0, 4 * math.pi, (batch, n, 2, 3))
    return GainKernel(psi, eqs), angles, rng.integers(0, 3, batch), rng


def _gains(kernel, rows, game=None):
    """The kernel's win probabilities of Bloch rows' strategies, from their gate angles."""
    return kernel.gains(_angles_from_bloch(rows).reshape(rows.shape[0], -1), game)


class TestBestResponseStep:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_tables_hold_g_hat_times_each_pauli_expectation(self, n):
        kernel, _, _, _ = _step_setup(n, 30 + n)
        sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.diag([1.0, -1.0])]
        (psi,) = kernel.states
        for j, g in enumerate(kernel.g_values):
            # L[mu] = g-hat(supp mu) <psi| sigma_mu |psi>, mu in player order, player 1 first
            expect = np.empty((4,) * n)
            for mu in itertools.product(range(4), repeat=n):
                op = np.array([[1.0]])
                for m in mu:
                    op = np.kron(op, sigma[m])
                support = sum((m != 0) << (n - 1 - k) for k, m in enumerate(mu))
                g_hat = sum(g[a] * (-1) ** bin(a & support).count("1") for a in range(1 << n))
                expect[mu] = g_hat * (psi.conj() @ op @ psi).real / 4**n
            f = kernel.f_values[j]
            # c_f, the share of questions where f is 0
            assert kernel.constant[j] == ((1 << n) - f.sum()) / (1 << n)
            for k in range(n):
                # player k's layout: axes k, k+1, ..., n-1, 0, ..., k-1
                order = [(k + i) % n for i in range(n)]
                layout = expect.transpose(order).reshape(-1)
                assert np.abs(kernel.pauli[k, kernel.pair[j]] - layout).max() < 1e-12
                signs = (2.0 * f - 1.0).reshape((2,) * n).transpose(order).reshape(2, -1)
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
            v = kernel._response(rows, player, None)
            zero = np.all(v[..., 1:] == 0.0, axis=-1)
            assert zero.any() and not zero.all()
            new, gains = kernel.bloch_response(rows, player, None)
            assert np.array_equal(new[zero], np.tile([1.0, 0.0, 0.0, 1.0], (zero.sum(), 1)))
            updated = rows.copy()
            updated[:, player] = new
            assert np.abs(gains - _gains(kernel, updated)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_see_saw_cap_of_s_sweeps_matches_steps_in_turn(self, n):
        kernel, angles, game, _ = _step_setup(n, 20 + n)
        starts = _bloch(angles)
        # a tol of -inf never stops a row early, so the cap alone ends the ascent;
        # SQUAREM trials start after sweep 5 at the earliest
        expect = starts.copy()
        for cap in range(1, 4):
            for player in range(n):
                expect[:, player], _ = kernel.bloch_response(expect, player, game)
            got, gains = _see_saw(kernel, starts, game, cap, -np.inf)
            assert np.abs(got - expect).max() < 1e-9
            assert np.abs(gains - _gains(kernel, expect, game)).max() < 1e-12


class TestSeeSawPool:
    """A pool smaller than its rows refills them at sweep boundaries and changes no bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tol", [-np.inf, 1e-6])
    def test_refilled_pool_equals_one_batch(self, n, tol, monkeypatch):
        # rows on their own games, each game on its own state; a tol of -inf
        # stops rows on the cap alone.  At n = 4 a fourth game is the slow
        # tail's, whose rows take SQUAREM trials at the larger caps
        rng = np.random.default_rng(40 + n)
        rows = 12
        states = _random_states(rng, 3, n)
        eqs = [
            GameEquation(TruthTable(n, int(rng.integers(1 << (1 << n)))),
                         TruthTable(n, int(rng.integers(1 << (1 << n)))))
            for _ in range(3)
        ]
        if n == 4:
            states.append(parse_state_literal(SLOW_TAIL))
            eqs.append(ghz_game_equation())
        kernel = GainKernel(states, eqs)
        starts = _bloch(rng.uniform(0.0, 4 * math.pi, (rows, n, 2, 3)))
        game = rng.integers(0, len(eqs), rows)
        trials = _spy_on_trials(monkeypatch)
        for cap in [*range(1, 8), 13, 600]:
            whole = _see_saw(kernel, starts, game, cap, tol, capacity=rows)
            pooled = _see_saw(kernel, starts, game, cap, tol, capacity=5)
            assert np.array_equal(pooled[0], whole[0]) and np.array_equal(pooled[1], whole[1])
        assert trials

    def test_pool_stays_full_while_rows_wait(self, monkeypatch):
        # a row is admitted through ``bloch_gains`` of its start rows, and only
        # then; SQUAREM trial points replace rows already in
        rows, capacity = 40, 7
        kernel, angles, game, _ = _step_setup(4, 50, batch=rows)
        starts = _bloch(angles)
        bloch_gains, bloch_response = kernel.bloch_gains, kernel.bloch_response
        fresh_rows = {row.tobytes() for row in starts}
        admitted, sizes = [], []
        trials = _spy_on_trials(monkeypatch)

        def admit(batch, state=None):
            assert all(row.tobytes() in fresh_rows for row in batch)
            admitted.extend(row.tobytes() for row in batch)
            return bloch_gains(batch, state)

        def step(batch, *args):
            sizes.append((batch.shape[0], len(admitted) < rows))
            return bloch_response(batch, *args)

        kernel.bloch_gains, kernel.bloch_response = admit, step
        _see_saw(kernel, starts, game, 625, 1e-6, capacity=capacity)
        assert sorted(admitted) == sorted(fresh_rows) and sum(trials) > 0
        waiting = [size for size, rows_wait in sizes if rows_wait]
        assert len(waiting) > 4 and set(waiting) == {capacity}


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
    """Each row of the pool follows the SQUAREM cycle of ``_see_saw``'s docstring."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tol", [-np.inf, 1e-6])
    def test_pool_rows_equal_the_cycle_written_out(self, n, tol):
        rng = np.random.default_rng(70 + n)
        rows = 8
        states = [*_random_states(rng, 2, n), hadamard_rotated(make_named_state(f"ghz{n}"))]
        eqs = [GameEquation(TruthTable(n, int(rng.integers(1 << (1 << n)))),
                            TruthTable(n, int(rng.integers(1 << (1 << n))))) for _ in range(2)]
        # an XOR game on a rotated GHZ state, which the see-saw plays
        parity = TruthTable(n, 0x6996 & ((1 << (1 << n)) - 1))
        eqs.append(GameEquation(TruthTable(n, int(rng.integers(1 << (1 << n)))), parity))
        if n == 4:
            states.append(parse_state_literal(SLOW_TAIL))
            eqs.append(ghz_game_equation())
        kernel = GainKernel(states, eqs)
        starts = _bloch(rng.uniform(0.0, 4 * math.pi, (rows, n, 2, 3)))
        game = np.arange(rows) % len(eqs)
        outcomes = []
        for cap in (1, 2, 3, 4, 5, 6, 7, 13, 50):
            pooled, pooled_gains = _see_saw(kernel, starts, game, cap, tol, capacity=3)
            for r in range(rows):
                one = slice(r, r + 1)
                alone, gain = _one_row_see_saw(kernel, starts[one], game[one], cap, tol, outcomes)
                assert np.array_equal(pooled[one], alone) and pooled_gains[r] == gain
        # with no stop on the rise, rows sweep on at their optimum, where trials fail
        assert {"kept", "reverted"} <= set(outcomes) if tol == -np.inf else "kept" in outcomes


TSIRELSON = math.cos(math.pi / 8) ** 2


def _ghz(n, phase=0.0):
    """GHZ state on n qubits with relative phase ``phase`` on |1...1>."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0], amps[-1] = 1.0, np.exp(1j * phase)
    return StateVector(amps)


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

    def test_at_least_the_see_saw_on_the_rotated_state(self):
        # the benchmark's 12 search-ghz4 functions, and random parity games at n = 2 and 3
        # against parity and its complement
        parity = parse_table("a^b^c^d", ANSWER_VARS[4])
        games = [(4, GameEquation(f, parity))
                 for f in stratified_subsample(list(reduce_function_space(4)), 12, 1729)]
        rng = np.random.default_rng(18)
        for n in (2, 3):
            g = TruthTable(n, torus._parity_bits(n))
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
            assert (torus.signs_and_phase(psi, game) is not None) == on_torus
            assert gain == win_probability(psi, strategy, game)

    def test_mixed_games_equal_games_run_alone(self):
        rng = np.random.default_rng(12)
        ghz4, eq, w_eq = make_named_state("ghz4"), ghz_game_equation(), w_game_equation()
        other = GameEquation(TruthTable(4, int(rng.integers(1 << 16))), eq.g.complement())
        states = [ghz4, _random_states(rng, 1)[0], ghz4, _ghz(4, 1.3), see_saw_state("ghz4"), ghz4]
        eqs = [eq, eq, w_eq, other, eq, other]
        seeds = [int(s) for s in rng.integers(0, 2**31, len(states))]
        warm = [[rng.uniform(0.0, 4 * math.pi, 24)] if j % 2 else [] for j in range(len(states))]
        cfg = OptimizerConfig(restarts=6, seed=0)
        assert [torus.signs_and_phase(psi, e) is not None for psi, e in zip(states, eqs)] == [
            True, False, False, True, False, True]
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

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_polishing_the_best_starts_reaches_polishing_every_start(self, seed, monkeypatch):
        # the 20 classes at n = 3 and the criterion-7 subsample at n = 4, parity g, on GHZ
        spaces = [list(reduce_function_space(3)),
                  stratified_subsample(list(reduce_function_space(4)), 300, DEFAULT_SEED)]
        assert [len(space) for space in spaces] == [20, 300]
        for space in spaces:
            n = space[0].arity
            g, psi = TruthTable(n, torus._parity_bits(n)), _ghz(n)
            games = [torus.signs_and_phase(psi, GameEquation(f, g)) for f in space]
            signs, chi = np.array([s for s, _ in games]), np.array([c for _, c in games])
            seeds = [derive_task_seed(seed, j) for j in range(len(games))]
            few = torus.optimize(signs, chi, seeds, 20, [()] * len(games))
            with monkeypatch.context() as polish_all:
                polish_all.setattr(torus, "_POLISHED", 10**6)
                every = torus.optimize(signs, chi, seeds, 20, [()] * len(games))
            # |S| <= 2**n; as win probabilities, 1/2 + |S| / 2**(n+1)
            assert np.abs(self.torus_value(signs, few) - self.torus_value(signs, every)).max() <= 1e-12

    @pytest.mark.parametrize("restarts, warm", [(1, 0), (2, 1)])
    def test_games_with_at_most_polished_starts_polish_all_of_them(self, restarts, warm, monkeypatch):
        rng = np.random.default_rng(restarts)
        games = [torus.signs_and_phase(_ghz(4, 0.4), GameEquation(
            TruthTable(4, int(bits)), ghz_game_equation().g)) for bits in rng.integers(0, 1 << 16, 30)]
        signs, chi = np.array([s for s, _ in games]), np.array([c for _, c in games])
        seeds = [int(s) for s in rng.integers(0, 2**31, len(games))]
        extras = [[rng.uniform(0.0, 4 * math.pi, 24) for _ in range(warm)] for _ in games]
        assert restarts + 1 + warm <= torus._POLISHED
        few = torus.optimize(signs, chi, seeds, restarts, extras)
        monkeypatch.setattr(torus, "_POLISHED", 10**6)
        assert np.array_equal(few, torus.optimize(signs, chi, seeds, restarts, extras))

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

    @staticmethod
    def leading_by_loop(counts, value, keep):
        """Each game's ``keep`` rows of largest value in row order, ties to the earlier row,
        one game at a time."""
        bounds = np.cumsum([0] + list(counts))
        return np.concatenate([lo + np.sort(np.argsort(-value[lo:hi], kind="stable")[:keep])
                               for lo, hi in zip(bounds[:-1], bounds[1:])])

    # 12 games of 21 starts (20 restarts and the vertex); warm starts on some games, as in
    # a sweep step; 1 or 2 restarts, so that some games have fewer starts than _POLISHED
    @pytest.mark.parametrize("counts", [[21] * 12, [21, 22, 21, 21, 23, 22, 21],
                                        [2, 3, 2, 4, 5, 2, 3], [3, 21, 2, 7]])
    @pytest.mark.parametrize("ties", [False, True])
    def test_start_ranking_and_pick_equal_a_loop_over_games(self, counts, ties):
        rng = np.random.default_rng(len(counts) + sum(counts))
        game = np.repeat(np.arange(len(counts)), counts)
        # swept |S| values; with ties, few distinct values, so that most rows tie
        value = rng.integers(0, 3, game.size) * 1.0 if ties else rng.uniform(0.0, 16.0, game.size)
        polished = torus._leading(game, value, torus._POLISHED)
        assert np.array_equal(polished, self.leading_by_loop(counts, value, torus._POLISHED))
        # each game's best polished start: the first of largest |S|, as argmax picks
        total = rng.integers(0, 2, polished.size) * 1.0 if ties else rng.uniform(0.0, 16.0, polished.size)
        kept = [min(count, torus._POLISHED) for count in counts]
        bounds = np.cumsum([0] + kept)
        best = [lo + int(np.argmax(total[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert torus._leading(game[polished], total, 1).tolist() == best

    @pytest.mark.parametrize("n, weights", [(5, (2, 3)), (6, (0, 3, 4))])
    def test_symmetric_games_beyond_four_players_reach_tsirelson(self, n, weights):
        # f = 1 on the questions of these weights, parity g: raw sign vectors,
        # since the game equations stop at four players
        signs = np.array([[-1.0 if bin(q).count("1") in weights else 1.0 for q in range(1 << n)]])
        angles = torus.optimize(signs, np.zeros(1), [DEFAULT_SEED], 20, [()])
        gain = 0.5 + self.torus_value(signs, angles)[0] / 2 ** (n + 1)
        assert abs(gain - TSIRELSON) <= 1e-12

    def test_a_torus_strategy_projects_back_onto_its_deltas(self):
        # warm starts enter the torus path as the deltas of their gates
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
        return [TruthTable(n, torus._parity_bits(n)), TruthTable(n, w),
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
        kernel = GainKernel(states, eqs)
        return torus.xor_games(kernel.states, kernel.f_values, kernel.g_values, count)

    def test_torus_games_equal_games_classified_alone(self):
        rng = np.random.default_rng(22)
        eq, w_eq = ghz_game_equation(), w_game_equation()
        complement = GameEquation(eq.f, eq.g.complement())
        fs = [TruthTable(4, int(bits)) for bits in rng.integers(0, 1 << 16, 6)]
        ghz4, phased, w4 = make_named_state("ghz4"), _ghz(4, 2.1), make_named_state("w4")
        # a sweep batch: one equation, a family state per game, GHZ-type at a = d, b = c = 0
        family = [make_family_state(FamilyId.G_ABCD, {"a": a, "b": b, "c": 0, "d": 1})
                  for a, b in ((1, 0), (0.5, 0), (1, 0.5), (1, 0), (-1, 0))]
        cases = [
            (ghz4, [GameEquation(f, eq.g) for f in fs] + [complement, w_eq]),
            (phased, [GameEquation(f, g) for f, g in zip(fs, [eq.g, complement.g] * 3)]),
            (w4, [eq, complement, w_eq]),
            (family, eq),
            (family, [complement, w_eq, eq, complement, eq]),
            ([phased, w4, _ghz(4, 0.8), _random_states(rng, 1)[0]], [eq, eq, complement, eq]),
            (phased, complement),
        ]
        for states, eqs in cases:
            count = max(len(x) if isinstance(x, list) else 1 for x in (states, eqs))
            on, signs, chi = self.torus_games(states, eqs, count)
            alone = [torus.signs_and_phase(states[j] if isinstance(states, list) else states,
                                           eqs[j] if isinstance(eqs, list) else eqs)
                     for j in range(count)]
            assert on.tolist() == [game is not None for game in alone]
            on_torus = [game for game in alone if game is not None]
            assert np.array_equal(signs, np.array([s for s, _ in on_torus]).reshape(-1, 16))
            assert chi.tolist() == [c for _, c in on_torus]
        # s_q = (-1)^(f(q) ^ c) and chi, written out, for the phased state and parity's complement
        on, signs, chi = self.torus_games(phased, [complement], 1)
        assert on.tolist() == [True] and chi.tolist() == [pytest.approx(2.1, abs=1e-12)]
        assert signs[0].tolist() == [1.0 - 2.0 * (eq.f.value(q) ^ 1) for q in range(16)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_form_wins_where_f_of_the_questions_equals_g_of_the_answers(self, n):
        rng = np.random.default_rng(23 + n)
        eqs = [GameEquation(TruthTable(n, int(f)), g)
               for f, g in zip(rng.integers(0, 1 << (1 << n), 4), self.answer_sides(n))]
        eqs += {2: [chsh_equation()], 3: [], 4: [ghz_game_equation(), w_game_equation()]}[n]
        rows = 32
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
        eqs = [eq, eq, w_game_equation(), eq, eq]
        return states, eqs, [int(s) for s in rng.integers(0, 2**31, len(states))]

    def test_one_gains_call_with_one_row_per_game(self, monkeypatch):
        calls, gains = [], GainKernel.gains

        def spy(self, angle_batch, game=None):
            calls.append((np.asarray(angle_batch).shape[0], np.asarray(game).tolist()))
            return gains(self, angle_batch, game)

        monkeypatch.setattr(GainKernel, "gains", spy)
        states, eqs, seeds = self.mixed_games()
        assert [torus.signs_and_phase(psi, e) is not None for psi, e in zip(states, eqs)] == [
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
        assert all(r.to_json_dict()["elapsed_ms"] is None for r in results)

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
def chunked_run():
    # 30 restarts put 4 games in a chunk, so these 10 functions span 3 chunks
    space = list(reduce_function_space(4, require_all_relevant=True))
    tables = stratified_subsample(space, 10, 3)
    g = parse_table("a^b^c^d", ANSWER_VARS[4])
    cfg = OptimizerConfig(restarts=30, seed=5)
    assert len(tables) > 2 * (_CHUNK_ROWS // cfg.restarts)
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


class TestChunkedSearch:
    def test_each_game_matches_the_game_run_alone(self, chunked_run):
        _, tables, g, psi, cfg = chunked_run
        results = search_space(g, psi, cfg, tables, workers=1, state_descriptor="ghz4")
        for index, (f, result) in enumerate(zip(tables, results)):
            alone = _alone(f, g, psi, cfg, index, "ghz4")
            assert result.to_json_dict() == alone.to_json_dict()
            assert result.quantum_gain == win_probability(psi, result.quantum_strategy, result.equation)

    def test_a_game_does_not_depend_on_its_neighbours(self, chunked_run):
        space, tables, g, psi, cfg = chunked_run
        others = stratified_subsample(space, 10, 4)
        assert all(a != b for a, b in zip(tables, others))
        base = search_space(g, psi, cfg, tables, workers=1)
        # every game keeps its index (and so its seed) but gets new chunk neighbours
        for keep in (0, 5, 9):
            mixed = [t if i == keep else o for i, (t, o) in enumerate(zip(tables, others))]
            moved = search_space(g, psi, cfg, mixed, workers=1)
            assert moved[keep].to_json_dict() == base[keep].to_json_dict()

    def test_a_game_does_not_depend_on_its_place_in_the_batch(self, chunked_run):
        _, tables, g, psi, cfg = chunked_run
        eqs = [GameEquation(t, g) for t in tables[:5]]
        seeds = [11, 12, 13, 14, 15]
        alone = [_optimize_games(psi, [eq], [seed], cfg)[0] for eq, seed in zip(eqs, seeds)]
        for order in ([4, 3, 2, 1, 0], [2, 2, 0], [1, 4, 1, 3, 0, 2]):
            batch = _optimize_games(psi, [eqs[i] for i in order], [seeds[i] for i in order], cfg)
            for i, (gain, strategy) in zip(order, batch):
                assert gain == alone[i][0]
                assert np.array_equal(strategy.angles, alone[i][1].angles)

    def test_worker_count_and_progress_over_several_chunks(self, chunked_run):
        _, tables, g, psi, cfg = chunked_run
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

    @pytest.mark.parametrize("rows", [1, 255, 256, 777])
    def test_kernel_rows_equal_single_row_runs(self, rows):
        rng = np.random.default_rng(rows)
        # three games, each on its own state
        states = _random_states(rng, 3)
        parity = GameEquation(parse_table("wxyz", QUESTION_VARS[4]), parse_table("a^b^c^d", ANSWER_VARS[4]))
        eqs = [ghz_game_equation(), w_game_equation(), parity]
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

    def test_kernel_takes_one_state_or_one_per_game(self):
        rng = np.random.default_rng(5)
        eqs = [ghz_game_equation(), w_game_equation(), ghz_game_equation()]
        with pytest.raises(ValueError, match="2 states for 3 games"):
            GainKernel(_random_states(rng, 2), eqs)
        # the form's tables: (n, pairs, 4**n) L, (games,) pairs, (n, games, 2, 2**(n-1)) signs
        shared = GainKernel(_random_states(rng, 1), eqs)
        assert shared.states.shape == (1, 16)
        assert shared.pauli.shape == (4, 2, 256) and shared.pair[0] == shared.pair[2] != shared.pair[1]
        assert shared.signs.shape == (4, 3, 2, 8) and shared.constant.shape == (3,)
        per_state = GainKernel(_random_states(rng, 2), eqs[0])
        assert per_state.pauli.shape == (4, 2, 256) and per_state.pair.tolist() == [0, 1]
        assert per_state.signs.shape == (4, 1, 2, 8) and per_state.constant.shape == (1,)

    @pytest.mark.parametrize("rows, games, restarts, warmed", [
        (1, 1, 1, 0), (255, 15, 17, 0), (256, 15, 17, 1), (777, 37, 20, 37),
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
            state="epr", seed=9, elapsed_ms=12.0,
        )
        record = result.to_json_dict()
        assert record["elapsed_ms"] == 12.0
        rebuilt = GameResult.from_json_dict(record)
        assert rebuilt.elapsed_ms == 12.0
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
