"""Classical enumeration, quantum optimization, and batch-search tests."""

import json
import math

import numpy as np
import pytest

from qgames.boolfn import (
    ANSWER_VARS,
    QUESTION_VARS,
    GameEquation,
    TruthTable,
    parse_table,
    reduce_function_space,
)
from qgames.quantum import (
    GainKernel,
    QuantumStrategy,
    StateVector,
    make_named_state,
    win_probability,
)
from qgames.search import (
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


class TestOptimizeQuantum:
    def test_two_player_chsh_reaches_tsirelson(self):
        gain, strategy = optimize_quantum(
            make_named_state("epr"), chsh_equation(), OptimizerConfig(restarts=10, seed=3)
        )
        assert gain == pytest.approx(math.cos(math.pi / 8) ** 2, abs=2e-3)
        assert gain <= math.cos(math.pi / 8) ** 2 + 1e-9

    def test_deterministic_given_seed(self):
        eq = chsh_equation()
        psi = make_named_state("epr")
        cfg = OptimizerConfig(restarts=3, seed=11)
        g1, s1 = optimize_quantum(psi, eq, cfg)
        g2, s2 = optimize_quantum(psi, eq, cfg)
        assert g1 == g2
        assert np.array_equal(s1.angles, s2.angles)

    def test_reported_gain_is_reevaluated_win_probability(self):
        eq = chsh_equation()
        psi = make_named_state("epr")
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
        psi = make_named_state("epr")
        cfg = OptimizerConfig(restarts=1, seed=13)
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

    def test_non_finite_tol_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tol=float("nan"))
        with pytest.raises(ValueError):
            OptimizerConfig(tol=float("inf"))


class TestSeeSaw:
    @pytest.mark.parametrize("state, equation", [
        ("epr", chsh_equation), ("ghz4", ghz_game_equation), ("w4", w_game_equation),
    ])
    def test_restart_gain_never_decreases_from_sweep_to_sweep(self, state, equation):
        # with one restart, a cap of s sweeps returns that restart after s sweeps
        psi = make_named_state(state)
        eq = equation()
        sweep = 2 * psi.n
        for seed in (0, 1, 2):
            start = np.random.default_rng(seed).uniform(0.0, 4 * math.pi, 3 * sweep)
            gains = [win_probability(psi, QuantumStrategy(start.reshape(psi.n, 2, 3)), eq)]
            gains += [
                optimize_quantum(psi, eq, OptimizerConfig(restarts=1, max_evals=s * sweep, seed=seed))[0]
                for s in range(1, 16)
            ]
            assert all(later >= earlier - 1e-12 for earlier, later in zip(gains, gains[1:]))

    def test_angles_have_zero_phi_and_player_shape(self):
        for state, equation in (("epr", chsh_equation), ("ghz4", ghz_game_equation)):
            psi = make_named_state(state)
            _, strategy = optimize_quantum(psi, equation(), OptimizerConfig(restarts=3, seed=4))
            assert strategy.angles.shape == (psi.n, 2, 3)
            assert np.all(strategy.angles[..., 1] == 0.0)

    def test_tiny_max_evals_is_honoured(self):
        # max_evals counts best-response updates: 3 updates touch player 1's
        # two gates and player 2's question-0 gate, and leave the start elsewhere
        psi = make_named_state("ghz4")
        seed = 8
        start = QuantumStrategy(
            np.random.default_rng(seed).uniform(0.0, 4 * math.pi, 24).reshape(4, 2, 3)
        )
        _, strategy = optimize_quantum(
            psi, ghz_game_equation(), OptimizerConfig(restarts=1, max_evals=3, seed=seed)
        )
        for player in range(4):
            for bit in (0, 1):
                overlap = abs(np.vdot(start.gate(player, bit)[0], strategy.gate(player, bit)[0]))
                updated = (player, bit) in ((0, 0), (0, 1), (1, 0))
                assert (overlap < 1 - 1e-9) == updated

    def test_phi_never_changes_a_gain(self):
        kernel = GainKernel(make_named_state("l"), w_game_equation())
        rng = np.random.default_rng(23)
        angles = rng.uniform(0.0, 4 * math.pi, (64, 4, 2, 3))
        shifted = angles.copy()
        shifted[..., 1] = rng.uniform(0.0, 4 * math.pi, (64, 4, 2))
        before = kernel.gains(angles.reshape(64, -1))
        after = kernel.gains(shifted.reshape(64, -1))
        assert np.abs(before - after).max() <= 1e-15


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
        assert seen[-1] == (len(space), len(space))

    def test_arity_mismatch(self, small_run):
        space, psi, g, cfg = small_run
        with pytest.raises(ValueError):
            search_space(g, make_named_state("ghz4"), cfg, space)


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
        equation=eq, classical_gain=0.5, classical_strategy=None,
        quantum_gain=0.5 + gap, quantum_strategy=None, gap=gap,
        state="epr", config=None, seed=0,
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
            equation=eq, classical_gain=0.75, classical_strategy=ClassicalStrategy(2, 0),
            quantum_gain=gain, quantum_strategy=strategy, gap=gain - 0.75,
            state="epr", config=OptimizerConfig(), seed=9, elapsed_ms=12.0,
        )
        record = result.to_json_dict()
        assert record["elapsed_ms"] is None  # timing excluded by default
        rebuilt = GameResult.from_json_dict(record)
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
