"""Truth-table parsing, evaluation, and canonical-reduction tests.

Expected tables for expression tests are computed by an independent oracle:
direct evaluation of the written formula with Python operators over all
input tuples.
"""

import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames import boolfn
from qgames.boolfn import (
    ANSWER_VARS,
    QUESTION_VARS,
    GameEquation,
    ParseError,
    TruthTable,
    canonical_representative,
    format_minterms,
    input_negation_variants,
    parse_expression,
    parse_table,
    reduce_function_space,
    relevant_variables,
    to_truth_table,
)

XOR4 = 0x6996


def orbit_min_by_index(bits, arity, flip):
    """The smallest variant of a table, by brute force over index permutations.

    Negating the inputs in ``mask`` maps table index i to i ^ mask; with the
    flip, the complements of the variants join the orbit.
    """
    size = 1 << arity
    variants = [sum(((bits >> (i ^ mask)) & 1) << i for i in range(size)) for mask in range(size)]
    if flip:
        variants += [((1 << size) - 1) ^ v for v in variants]
    return min(variants)


def oracle_table(arity, fn):
    """Independent tabulation: big-endian index -> bit, via a Python lambda."""
    bits = 0
    for inputs in itertools.product((0, 1), repeat=arity):
        index = int("".join(map(str, inputs)), 2)
        bits |= (1 if fn(*inputs) else 0) << index
    return bits


class TestTruthTable:
    def test_evaluate_matches_indexing(self):
        t = TruthTable(4, 0x81E8)
        for inputs in itertools.product((0, 1), repeat=4):
            index = (inputs[0] << 3) | (inputs[1] << 2) | (inputs[2] << 1) | inputs[3]
            assert t.evaluate(inputs) == (0x81E8 >> index) & 1

    def test_evaluate_refuses_the_wrong_number_of_inputs(self):
        with pytest.raises(ValueError, match="expected 4 inputs, got 3"):
            TruthTable(4, 0).evaluate((0, 1, 0))

    def test_values_match_indexing(self):
        for t in (TruthTable(2, 0b0110), TruthTable(3, 0xE8), TruthTable(4, 0x81E8), TruthTable(4, 0xFFFF)):
            assert t.values().tolist() == [t.value(i) for i in range(t.num_inputs)]

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            TruthTable(1, 0)
        with pytest.raises(ValueError):
            TruthTable(5, 0)

    def test_rejects_oversized_bits(self):
        with pytest.raises(ValueError):
            TruthTable(2, 1 << 4)

    def test_text_round_trip(self):
        t = TruthTable(4, XOR4)
        assert t.to_text() == "4:6996"
        assert TruthTable.from_text("4:6996") == t
        assert TruthTable.from_text(" 2:8 ") == TruthTable(2, 8)

    def test_from_text_rejects_garbage(self):
        # int() alone reads the last five too: 4:-0 as 4:0000, the others as 4:6996
        for text in ("6996", "4:zz", "4:0x6996", "4:69_96", "4:+6996", "+4:6996", "4:-0"):
            with pytest.raises(ValueError):
                TruthTable.from_text(text)

    def test_equation_requires_matching_arity(self):
        with pytest.raises(ValueError):
            GameEquation(TruthTable(2, 8), TruthTable(4, XOR4))


class TestParser:
    def test_and_of_two_variables(self):
        t = parse_table("x*y", ("x", "y"))
        # AND on inputs 00,01,10,11 is 0,0,0,1
        assert [t.value(i) for i in range(4)] == [0, 0, 0, 1]

    def test_ghz_game_question_side(self):
        t = parse_table("xyz + xy!w + xz!w + yz!w + w!x!y!z", QUESTION_VARS[4])
        expected = oracle_table(
            4,
            lambda w, x, y, z: (x and y and z)
            or (x and y and not w)
            or (x and z and not w)
            or (y and z and not w)
            or (w and not x and not y and not z),
        )
        assert t.bits == expected == 0x81E8

    def test_four_variable_parity(self):
        t = parse_table("a^b^c^d", ANSWER_VARS[4])
        expected = oracle_table(4, lambda a, b, c, d: a ^ b ^ c ^ d)
        assert t.bits == expected == XOR4

    def test_juxtaposition_equals_star(self):
        alphabet = QUESTION_VARS[4]
        assert parse_table("wxyz", alphabet) == parse_table("w*x*y*z", alphabet)

    def test_xor_binds_tighter_than_or(self):
        t = parse_table("x + y^x", ("x", "y"))
        assert t.bits == oracle_table(2, lambda x, y: x or (y ^ x))

    def test_not_binds_to_single_atom(self):
        t = parse_table("!xy", ("x", "y"))
        assert t.bits == oracle_table(2, lambda x, y: (not x) and y)

    def test_parentheses_and_constants(self):
        t = parse_table("(x + 0)(y + 1)", ("x", "y"))
        assert t.bits == oracle_table(2, lambda x, y: x and True)

    def test_unknown_variable_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x*q", ("x", "y"))
        assert err.value.position == 2

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expression("(x + y", ("x", "y"))

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_expression("x + y)", ("x", "y"))

    @pytest.mark.parametrize("text, same", [("!" * 5001 + "x", "!x"),
                                            ("(" * 3000 + "x" + ")" * 3000, "x")],
                             ids=["negations", "parentheses"])
    def test_deep_nesting_parses(self, text, same):
        assert parse_table(text, ("x", "y")) == parse_table(same, ("x", "y"))

    def test_a_long_flat_expression_parses(self):
        alphabet = ("x", "y")
        assert parse_table(" + ".join(["xy"] * 3000), alphabet) == parse_table("xy", alphabet)
        assert parse_table("^".join(["x"] * 3001), alphabet) == parse_table("x", alphabet)

    @pytest.mark.parametrize("text", ["x^y", "!w(x + 1)", "wxyz + !w!x!y!z", "0"])
    def test_parse_expression_is_parse_table(self, text):
        assert parse_expression is parse_table
        assert parse_expression(text, QUESTION_VARS[4]) == parse_table(text, QUESTION_VARS[4])

    @pytest.mark.parametrize("text, position", [("", 0), ("x +", 3), ("x + )", 4), ("(", 1),
                                                ("x ^ ^ y", 4), ("!", 1)])
    def test_a_missing_operand_reports_position(self, text, position):
        with pytest.raises(ParseError, match="expected a variable, constant, '!' or '\\('") as err:
            parse_table(text, ("x", "y"))
        assert err.value.position == position


class TestToTruthTable:
    def test_constant_zero(self):
        t = parse_table("0", QUESTION_VARS[4])
        assert t.bits == 0

    def test_answer_side_of_w_game(self):
        t = parse_table("!abcd + a!bcd + ab!cd + abc!d", ANSWER_VARS[4])
        assert sorted(i for i in range(16) if t.value(i)) == [7, 11, 13, 14]

    def test_arity_must_cover_variables(self):
        expr = parse_expression("x^y", ("w", "x", "y", "z"))
        with pytest.raises(ValueError):
            to_truth_table(expr, 2)

    def test_same_arity_returns_the_table(self):
        t = parse_table("x^y", ("w", "x", "y", "z"))
        assert to_truth_table(t, 4) is t
        for arity in (2, 3):
            with pytest.raises(ValueError):
                to_truth_table(t, arity)


class TestRelevance:
    def test_projection_depends_on_one_variable(self):
        t = parse_table("w", QUESTION_VARS[4])
        assert relevant_variables(t) == {0}

    def test_parity_depends_on_all(self):
        assert relevant_variables(TruthTable(4, XOR4)) == {0, 1, 2, 3}

    def test_constant_depends_on_none(self):
        assert relevant_variables(TruthTable(4, 0xFFFF)) == frozenset()


class TestVariants:
    def test_parity_has_two_variants(self):
        variants = input_negation_variants(TruthTable(4, XOR4))
        assert {v.bits for v in variants} == {XOR4, 0xFFFF ^ XOR4}

    def test_projection_has_two_variants(self):
        t = parse_table("w", QUESTION_VARS[4])
        variants = input_negation_variants(t)
        assert variants == {t, t.complement()}

    def test_constant_is_invariant(self):
        assert input_negation_variants(TruthTable(4, 0)) == {TruthTable(4, 0)}

    def test_variant_count_divides_input_count(self):
        for bits in (0x81E8, 0x0001, 0x1234):
            t = TruthTable(4, bits)
            assert 16 % len(input_negation_variants(t)) == 0


class TestCanonical:
    def test_parity_is_its_own_representative(self):
        assert canonical_representative(TruthTable(4, XOR4), True).bits == XOR4

    def test_constant_one_flips_to_zero(self):
        assert canonical_representative(TruthTable(4, 0xFFFF), True).bits == 0

    def test_constant_on_variants(self):
        t = TruthTable(4, 0x81E8)
        rep = canonical_representative(t)
        for variant in input_negation_variants(t):
            assert canonical_representative(variant) == rep

    @pytest.mark.parametrize("arity", (2, 3))
    @pytest.mark.parametrize("flip", (False, True))
    def test_every_function_against_index_permutations(self, arity, flip):
        for bits in range(1 << (1 << arity)):
            rep = canonical_representative(TruthTable(arity, bits), flip)
            assert rep == TruthTable(arity, orbit_min_by_index(bits, arity, flip))

    @pytest.mark.parametrize("arity", (5, 6))
    @pytest.mark.parametrize("flip", (False, True))
    def test_one_table_form_past_the_supported_arities(self, arity, flip):
        # 32- and 64-bit tables stay Python ints: on numpy 2.4,
        # np.minimum((1 << 64) - 1, (1 << 63) + 5) raises OverflowError
        rng = random.Random(arity)
        size = 1 << arity
        for bits in [0, (1 << size) - 1, 1 << (size - 1)] + [rng.getrandbits(size) for _ in range(30)]:
            low = boolfn._orbit_min(bits, arity, flip)
            assert type(low) is int
            assert low == orbit_min_by_index(bits, arity, flip)


@settings(max_examples=200, deadline=None)
@given(
    arity=st.sampled_from((2, 3, 4)),
    data=st.data(),
)
def test_canonical_is_orbit_constant_and_idempotent(arity, data):
    bits = data.draw(st.integers(0, (1 << (1 << arity)) - 1))
    mask = data.draw(st.integers(0, (1 << arity) - 1))
    flip = data.draw(st.booleans())
    t = TruthTable(arity, bits)
    rep = canonical_representative(t, flip)
    assert canonical_representative(t.permute_inputs(mask), flip) == rep
    if flip:
        assert canonical_representative(t.complement(), flip) == rep
    assert canonical_representative(rep, flip) == rep
    assert rep.bits <= bits


class TestClassQueriesAgainstEvaluation:
    """The class queries against brute force over ``TruthTable.evaluate`` alone.

    The other class tests check ``canonical_representative`` through
    ``permute_inputs``, which shares its bitwise kernel; these do not.
    """

    @pytest.mark.parametrize("arity", (2, 3, 4))
    def test_seeded_tables(self, arity):
        rng = random.Random(arity)
        tuples = list(itertools.product((0, 1), repeat=arity))
        for _ in range(40):
            t = TruthTable(arity, rng.getrandbits(1 << arity))
            orbit = []
            for negated in tuples:
                mask = int("".join(map(str, negated)), 2)
                variant = oracle_table(
                    arity, lambda *x: t.evaluate([a ^ b for a, b in zip(x, negated)])
                )
                assert t.permute_inputs(mask).bits == variant
                orbit.append(variant)
            flips = {
                k for k in range(arity) for x in tuples
                if t.evaluate(x) != t.evaluate(x[:k] + (1 - x[k],) + x[k + 1:])
            }
            assert relevant_variables(t) == flips
            full = (1 << (1 << arity)) - 1
            assert canonical_representative(t).bits == min(orbit)
            assert canonical_representative(t, True).bits == min(
                orbit + [full ^ bits for bits in orbit]
            )


@settings(max_examples=100, deadline=None)
@given(arity=st.sampled_from((2, 3, 4)), data=st.data())
def test_text_form_round_trips(arity, data):
    t = TruthTable(arity, data.draw(st.integers(0, (1 << (1 << arity)) - 1)))
    assert TruthTable.from_text(t.to_text()) == t


@settings(max_examples=100, deadline=None)
@given(arity=st.sampled_from((2, 3)), data=st.data())
def test_minterm_form_round_trips(arity, data):
    bits = data.draw(st.integers(0, (1 << (1 << arity)) - 1))
    t = TruthTable(arity, bits)
    alphabet = QUESTION_VARS[arity]
    assert parse_table(format_minterms(t, alphabet), alphabet) == t


class TestFormatMinterms:
    def test_the_default_alphabet_is_the_question_variables(self):
        assert format_minterms(TruthTable(2, 0b1000)) == "xy"
        assert format_minterms(TruthTable(4, 1)) == "!w!x!y!z"

    def test_an_alphabet_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="alphabet length"):
            format_minterms(TruthTable(4, 1), ("x",))


class TestReduce:
    def test_arity4_stage_counts(self):
        space = reduce_function_space(4, require_all_relevant=True, include_output_flip=True)
        counts = space.stage_counts()
        assert counts["full_space"] == 65536
        assert counts["after_output_flip"] == 32768
        # Burnside oracle for the 32-element group: (2^16 + 15*256 + 0 + 15*256) / 32
        assert counts["after_variant_dedup"] == (65536 + 15 * 256 + 15 * 256) // 32 == 2288
        assert counts["after_relevance_filter"] == len(space) == 2191

    def test_arity4_without_output_flip(self):
        space = reduce_function_space(4, require_all_relevant=True, include_output_flip=False)
        counts = space.stage_counts()
        # Burnside oracle for input negations alone: (2^16 + 15*256) / 16
        assert counts["after_variant_dedup"] == (65536 + 15 * 256) // 16 == 4336
        assert counts["after_relevance_filter"] == len(space) == 4184

    @pytest.mark.parametrize(
        "arity,relevant,flip,counts",
        [
            # Burnside oracles: arity 2 -> (16+3*4)/4 = 7 and (16+2*3*4)/8 = 5;
            # arity 3 -> (256+7*16)/8 = 46 and (256+2*7*16)/16 = 30.
            (2, False, True, [16, 8, 5, None]),
            (2, False, False, [16, 16, 7, None]),
            (2, True, True, [16, 8, 5, 2]),
            (2, True, False, [16, 16, 7, 3]),
            (3, False, True, [256, 128, 30, None]),
            (3, False, False, [256, 256, 46, None]),
            (3, True, True, [256, 128, 30, 20]),
            (3, True, False, [256, 256, 46, 32]),
            (4, False, True, [65536, 32768, 2288, None]),
            (4, False, False, [65536, 65536, 4336, None]),
            (4, True, True, [65536, 32768, 2288, 2191]),
            (4, True, False, [65536, 65536, 4336, 4184]),
        ],
    )
    def test_small_arity_counts(self, arity, relevant, flip, counts):
        space = reduce_function_space(arity, require_all_relevant=relevant, include_output_flip=flip)
        stages = ["full_space", "after_output_flip", "after_variant_dedup", "after_relevance_filter"]
        assert list(space.stage_counts().items()) == list(zip(stages, counts))
        assert len(space) == [count for count in counts if count is not None][-1]

    def test_space_is_a_value_and_a_sequence(self):
        space = reduce_function_space(3)
        assert pickle.loads(pickle.dumps(space)) == space
        assert hash(reduce_function_space(3)) == hash(space)
        assert [space[i] for i in range(len(space))] == list(space)
        # each call hands out a fresh dict, so a caller's edit does not stick
        space.stage_counts()["full_space"] = 0
        assert space.stage_counts()["full_space"] == 256

    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("flip", [True, False])
    def test_output_is_sorted_canonical_and_variant_free(self, arity, flip):
        space = reduce_function_space(arity, require_all_relevant=True, include_output_flip=flip)
        bits = [t.bits for t in space]
        assert bits == sorted(bits)
        listed = set(bits)
        for t in space:
            assert canonical_representative(t, flip) == t
            orbit = set()
            for variant in input_negation_variants(t):
                orbit.add(variant.bits)
                if flip:
                    orbit.add(variant.complement().bits)
            assert orbit & listed == {t.bits}
        # every listed function keeps all variables relevant
        assert all(len(relevant_variables(t)) == arity for t in space)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("relevant", [True, False])
    @pytest.mark.parametrize("flip", [True, False])
    def test_equals_a_sort_based_reference(self, arity, relevant, flip):
        # the classes as the distinct canonical forms, sorted by np.unique; a
        # variant is an index permutation: negating mask's inputs maps i to i ^ mask
        size = 1 << arity
        index = np.arange(size)
        table_bits = (np.arange(1 << size)[:, None] >> index) & 1
        variants = np.stack([(table_bits[:, index ^ mask] << index).sum(axis=1)
                             for mask in range(size)])
        canon = variants.min(axis=0)
        if flip:
            canon = np.minimum(canon, (((1 << size) - 1) ^ variants).min(axis=0))
        reps = np.unique(canon).tolist()
        full = 1 << (1 << arity)
        stages = [("full_space", full), ("after_output_flip", full // 2 if flip else full),
                  ("after_variant_dedup", len(reps)), ("after_relevance_filter", None)]
        if relevant:
            reps = [v for v in reps if len(relevant_variables(TruthTable(arity, v))) == arity]
            stages[-1] = ("after_relevance_filter", len(reps))
        space = reduce_function_space(arity, require_all_relevant=relevant, include_output_flip=flip)
        assert [t.bits for t in space] == reps
        assert all(t.arity == arity for t in space)
        assert space.stages == tuple(stages)

    def test_deterministic_across_runs(self):
        a = reduce_function_space(3, True, True)
        b = reduce_function_space(3, True, True)
        assert list(a) == list(b)

    def test_second_call_returns_the_same_object(self):
        for args in [(4,), (3, True, False), (2, False, True)]:
            assert reduce_function_space(*args) is reduce_function_space(*args)

    def test_rejects_unsupported_arity(self):
        # an error is not cached: the second call raises too
        for _ in range(2):
            with pytest.raises(ValueError):
                reduce_function_space(5)
