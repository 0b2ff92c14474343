import itertools
import random

import pytest

from brauer import presentation, verify
from brauer.diagram import (RANK_CEILINGS, DomainError, _atom_product, atom, enumerate_all,
                            identity, multiply)
from brauer.presentation import (
    RELATION_RULES,
    Quark,
    Word,
    check_all_relations,
    gamma,
    is_connected,
    is_normal_form,
    normalize,
    parse_word,
    phi,
    star,
    word,
    word_to_text,
    words_equal_in_T,
)


def random_word(rng, n=None, max_n=8, max_len=12):
    """A word of 1 to max_len random quarks at rank n, or at a random rank
    2..max_n."""
    n = n or rng.randint(2, max_n)
    length = rng.randint(1, max_len)
    quarks = []
    for _ in range(length):
        i, j = rng.sample(range(1, n + 1), 2)
        quarks.append(Quark(i, j))
    return Word(n, tuple(quarks))


# bad word texts and the exact message each raises
PARSE_ERRORS = {
    "empty": ("", "word must start with 'n=<rank>: ': ''"),
    "no header": ("(1,2)", "word must start with 'n=<rank>: ': '(1,2)'"),
    "header without colon": ("n=3 (1,2)", "word must start with 'n=<rank>: ': 'n=3 (1,2)'"),
    "text before header": ("x n=3: (1,2)", "word must start with 'n=<rank>: ': 'x n=3: (1,2)'"),
    "text before pairs": ("n=3: x (1,2)", "unexpected text in word: 'x '"),
    "text between pairs": ("n=3: (1,2) x (2,3)", "unexpected text in word: ' x '"),
    "text after pairs": ("n=3: (1,2)(2,3) x", "unexpected text in word: ' x'"),
    "separator": ("n=3: (1,2);(2,3)", "unexpected text in word: ';'"),
    "minus sign": ("n=3: (1,-2)", "unexpected text in word: '(1,-2)'"),
    "triple": ("n=3: (1,2,3)", "unexpected text in word: '(1,2,3)'"),
    "empty body": ("n=3: ", "a word must contain at least one quark"),
    "index 0": ("n=3: (0,2)", "quark indices must be >= 1"),
    "repeated index": ("n=3: (1,1)", "quark indices must be distinct"),
    "index over rank": ("n=3: (1,4)", "quark (1,4) exceeds rank n=3"),
    "rank 0": ("n=0: (1,2)", "quark (1,2) exceeds rank n=0"),
    "rank over limit": (f"n={RANK_CEILINGS['word'] + 1}: (1,2)",
                        f"rank n={RANK_CEILINGS['word'] + 1} exceeds the word rank limit "
                        f"{RANK_CEILINGS['word']}"),
}


class TestQuarkAndWord:
    def test_quark_normalizes_order(self):
        assert Quark(3, 1) == Quark(1, 3)
        assert Quark(3, 1).i == 1

    def test_other_rejects_a_point_outside(self):
        with pytest.raises(DomainError, match=r"^3 is not in quark \(1,2\)$"):
            Quark(1, 2).other(3)

    def test_word_nonempty(self):
        with pytest.raises(DomainError):
            Word(3, ())


class TestPhi:
    def test_single_generator(self):
        assert phi(word(4, [(1, 2)])) == atom(4, 1, 2)

    def test_relation5_images_agree(self):
        assert phi(word(3, [(1, 2), (2, 3), (1, 2)])) == phi(word(3, [(1, 2)]))

    def test_derived_product(self):
        # same value as the diagram-side hand-traced product
        assert phi(word(3, [(1, 3), (1, 2)])) == multiply(atom(3, 1, 3), atom(3, 1, 2))

    def test_image_is_singular(self):
        rng = random.Random(21)
        for _ in range(200):
            assert phi(random_word(rng)).corank >= 2


class TestWordsEqual:
    def test_reflexive(self):
        w = word(4, [(1, 2), (3, 4)])
        assert words_equal_in_T(w, w)

    def test_commuting_disjoint(self):
        assert words_equal_in_T(word(4, [(1, 2), (3, 4)]), word(4, [(3, 4), (1, 2)]))

    def test_distinct_atoms(self):
        assert not words_equal_in_T(word(3, [(1, 2)]), word(3, [(1, 3)]))

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            words_equal_in_T(word(3, [(1, 2)]), word(4, [(1, 2)]))


class TestStar:
    def test_generator_fixed(self):
        assert star(word(3, [(1, 2)])) == word(3, [(1, 2)])

    def test_reverses(self):
        assert star(word(3, [(1, 2), (1, 3)])) == word(3, [(1, 3), (1, 2)])

    def test_involution(self):
        rng = random.Random(77)
        for _ in range(100):
            w = random_word(rng)
            assert star(star(w)) == w

    def test_anti_morphism_on_images(self):
        rng = random.Random(78)
        for _ in range(100):
            w = random_word(rng)
            assert phi(star(w)) == phi(w).transpose()

    def test_connected_word_contracts_to_head(self):
        # (tau w)(tau w)* = tau for connected tau w
        rng = random.Random(79)
        done = 0
        while done < 200:
            w = random_word(rng)
            if not is_connected(w):
                continue
            both = Word(w.n, w.quarks + star(w).quarks)
            assert phi(both) == phi(Word(w.n, w.quarks[:1]))
            done += 1


class TestConnected:
    @pytest.mark.parametrize(
        "pairs,expected",
        [
            ([(1, 2)], True),
            ([(1, 2), (2, 3), (3, 4)], True),
            ([(1, 2), (3, 4)], False),
            ([(1, 2), (1, 2)], True),
        ],
    )
    def test_examples(self, pairs, expected):
        assert is_connected(word(4, pairs)) is expected


class TestNormalize:
    def test_already_normal(self):
        w = word(3, [(1, 2)])
        assert normalize(w) == w

    def test_case3_example(self):
        w = word(4, [(1, 2), (3, 4), (1, 3)])
        got = normalize(w)
        assert is_normal_form(got)
        assert phi(got) == phi(w)
        assert got == word(4, [(1, 2), (2, 4), (1, 3)])

    def test_not_length_reducing_in_general(self):
        # growth is allowed; check one case that grows
        w = word(6, [(1, 2), (3, 4), (5, 6), (3, 5)])
        got = normalize(w)
        assert len(got) > len(w)
        assert is_normal_form(got) and phi(got) == phi(w)

    def test_normal_form_predicate_rejects(self):
        assert not is_normal_form(word(5, [(1, 2), (3, 4), (1, 3)]))


class TestStandardIdempotent:
    """The word of pairwise disjoint pairs is a standard idempotent."""

    def test_two_pairs(self):
        img = phi(word(4, [(1, 2), (3, 4)]))
        assert multiply(img, img) == img

    def test_each_l_class_has_one_standard_idempotent(self):
        # n=5: every singular diagram is L-related to exactly one of them
        n = 5
        images = {}
        for size in (1, 2):
            for pairs in itertools.combinations(itertools.combinations(range(1, n + 1), 2), size):
                flat = [x for p in pairs for x in p]
                if len(set(flat)) != len(flat):
                    continue
                images[pairs] = phi(word(n, pairs)).right_brackets()
        for d in enumerate_all(n):
            if d.corank == 0:
                continue
            matches = [p for p, rb in images.items() if rb == d.right_brackets()]
            assert len(matches) == 1


class TestGamma:
    def test_unfolds_definition(self):
        assert gamma(4, 3) == word(4, [(1, 2), (1, 3), (1, 4), (1, 2)])

    def test_range_checked(self):
        with pytest.raises(DomainError):
            gamma(4, 2)
        with pytest.raises(DomainError):
            gamma(4, 4)
        with pytest.raises(DomainError):
            gamma(3, 3)


class TestCheckAllRelations:
    # the ``verify <n> relations`` goldens of test_cli fix, for n = 2..10,
    # each family's tuple count and that no family fails
    def test_a_false_rule_is_reported_with_its_tuples(self, monkeypatch):
        # tau_ij tau_jk and tau_jk tau_ij have different left brackets
        monkeypatch.setitem(RELATION_RULES, "RX", (("ij", "jk"), ("jk", "ij")))
        checked, violations = check_all_relations(3)
        assert checked["RX"] == 6
        assert violations == [("RX", (1, 2, 3))]
        # the suite counts every tuple of the failing family
        [claim] = verify.run_suites(3, ["relations"])
        assert not claim.ok and claim.computed == 6

    @pytest.mark.parametrize("n", [4, 5])
    def test_verdicts_match_phi_tuple_by_tuple(self, n, monkeypatch):
        # check_all_relations checks one instance per family; phi on every
        # tuple is the reference.  Relabelling maps every instance of a rule
        # onto every other, so a rule holds on all its tuples or on none:
        # RX, RY and RZ fail on all, RT holds, and the table's own rules hold.
        false_rules = {
            "RX": (("ij", "kl"), ("ik", "jl")),
            "RY": (("ij", "jk", "kl"), ("ij", "ik", "kl")),
            "RZ": (("ij", "ik"), ("ik", "ij")),
        }
        for rule, sides in {**false_rules, "RT": (("ij", "ik", "ij"), ("ij",))}.items():
            monkeypatch.setitem(RELATION_RULES, rule, sides)
        tuples, failing = {}, {}
        for rule, (lhs, rhs) in RELATION_RULES.items():
            variables = sorted(set("".join(lhs + rhs)))
            tuples[rule] = list(itertools.permutations(range(1, n + 1), len(variables)))
            failing[rule] = []
            for values in tuples[rule]:
                bound = dict(zip(variables, values))
                left, right = [word(n, [(bound[a], bound[b]) for a, b in side])
                               for side in (lhs, rhs)]
                if phi(left) != phi(right):
                    failing[rule].append(values)
        assert all(failing[rule] in ([], tuples[rule]) for rule in RELATION_RULES)
        checked, violations = check_all_relations(n)
        assert checked == {rule: len(tuples[rule]) for rule in RELATION_RULES}
        assert violations == [(rule, failing[rule][0]) for rule in RELATION_RULES
                              if failing[rule]]
        assert {rule for rule, _ in violations} == set(false_rules)

    def test_refuses_a_rank_past_its_ceiling_before_any_tuple(self, monkeypatch):
        def evaluate(n, pairs):
            raise AssertionError("a side was evaluated before the ceiling check")

        monkeypatch.setattr(presentation, "_atom_product", evaluate)
        n = RANK_CEILINGS["word"] + 1
        with pytest.raises(DomainError, match=f"^rank n={n} exceeds the word rank limit {n - 1}$"):
            check_all_relations(n)
        # a rank below 2 has no atom, and is refused before any tuple too
        with pytest.raises(DomainError, match=r"^relations need n >= 2$"):
            check_all_relations(1)


class TestAtomProduct:
    """``diagram._atom_product``, which evaluates both sides of every
    relation instance, against phi, the reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_word_up_to_three_letters(self, n):
        # ordered pairs, so (j,i) as R1 writes it is covered too
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for length in (1, 2, 3):
            for w in itertools.product(pairs, repeat=length):
                assert _atom_product(n, w) == list(phi(word(n, w)).partner)

    def test_seeded_random_words(self):
        rng = random.Random(2006)
        for _ in range(2000):
            n = rng.randint(2, 10)
            w = [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(1, 12))]
            assert _atom_product(n, w) == list(phi(word(n, w)).partner)

    def test_no_atoms_give_the_unit(self):
        assert _atom_product(4, []) == list(identity(4).partner)


class TestWordText:
    def test_round_trip(self):
        w = word(5, [(1, 2), (2, 3), (1, 2)])
        assert word_to_text(w) == "n=5: (1,2)(2,3)(1,2)"
        assert parse_word(word_to_text(w)) == w

    @pytest.mark.parametrize("text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_parse_error_message(self, text, message):
        with pytest.raises(DomainError) as exc:
            parse_word(text)
        assert str(exc.value) == message
