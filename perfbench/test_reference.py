"""Tests of the benchmark's own reference computations.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math

import numpy as np

import reference as ref


def chsh():
    return ref.table_values(ref.chsh_f, 2), ref.table_values(ref.xor_g, 2)


def test_simulator_gives_tsirelson_for_textbook_chsh_angles():
    # Real measurements at Bloch angles 0, pi/2 (Alice) and pi/4, -pi/4 (Bob).
    angles = [[(0.0, 0.0, 0.0), (math.pi / 2, 0.0, 0.0)],
              [(math.pi / 4, 0.0, 0.0), (-math.pi / 4, 0.0, 0.0)]]
    f, g = chsh()
    assert abs(ref.simulate(ref.named_state("epr"), angles, f, g) - ref.TSIRELSON) < 1e-12


def test_simulator_plays_identity_gates_as_computational_measurement():
    # Without gates the EPR pair always answers a = b, which wins on 3 of 4 questions.
    f, g = chsh()
    assert abs(ref.simulate(ref.named_state("epr"), np.zeros((2, 2, 3)), f, g) - 0.75) < 1e-12


def test_simulator_gives_player_one_the_most_significant_qubit():
    # On |00>, only player 1 flips their qubit (theta = pi), so player 1 answers 1:
    # the game f = 1, g = a is always won.
    angles = np.zeros((2, 2, 3))
    angles[0, :, 0] = math.pi
    f, g = np.ones(4, dtype=np.int64), ref.table_values(lambda a, b: a, 2)
    amps = np.array([1, 0, 0, 0], dtype=complex)
    assert abs(ref.simulate(amps, angles, f, g) - 1.0) < 1e-12


def test_classical_enumerator_gives_three_quarters_for_chsh():
    assert ref.classical_optimum(*chsh()) == 0.75


def test_classical_enumerator_encodes_strategies_player_one_first():
    answers = ref.strategy_answers(2)
    # Encoding 0b0110: player 1 answers (0, 1), player 2 answers (1, 0) to questions (0, 1).
    assert [int(a) for a in answers[0b0110]] == [0b01, 0b00, 0b11, 0b10]


def test_burnside_gives_2288_variant_classes_at_arity_4():
    assert ref.burnside_classes(4) == 2288


def test_brute_force_reduction_agrees_with_burnside_and_keeps_2191():
    classes, relevant = ref.relevant_class_tables(4)
    assert classes == ref.burnside_classes(4)
    assert len(relevant) == 2191
    assert relevant == sorted(relevant)


def test_paper_game_tables():
    assert ref.values_hex(ref.table_values(ref.ghz_f, 4)) == "4:81E8"
    assert ref.values_hex(ref.table_values(ref.xor_g, 4)) == "4:6996"
    ghz = ref.table_values(ref.ghz_f, 4), ref.table_values(ref.xor_g, 4)
    assert ref.classical_optimum(*ghz) == 0.625
