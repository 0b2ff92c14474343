import itertools
import random

import pytest

from brauer.diagram import RANK_CEILINGS, DomainError, atom, enumerate_all
from brauer.presentation import (
    RELATION_RULES,
    Quark,
    Word,
    is_connected,
    word,
    word_to_text,
)
from brauer.sequences import (
    corank2_census,
    gamma_graph,
    parse_sequence,
    seq_canonical,
    seq_equivalent,
    sequence,
)


# bad (rank, sequence text) inputs and the exact message each raises
PARSE_ERRORS = {
    "empty body": (4, "", "a word must contain at least one quark"),
    "text before pairs": (4, "x(1,2)", "unexpected text in word: 'x'"),
    "text between pairs": (4, "(1,2)x(2,3)", "unexpected text in word: 'x'"),
    "text after pairs": (4, "(1,2)(2,3)x", "unexpected text in word: 'x'"),
    "separator": (4, "(1,2);(2,3)", "unexpected text in word: ';'"),
    "word header": (4, "n=4: (1,2)", "unexpected text in word: 'n=4: '"),
    "index 0": (4, "(0,2)", "quark indices must be >= 1"),
    "repeated index": (4, "(1,1)", "quark indices must be distinct"),
    "index over rank": (4, "(1,5)", "pair (1,5) exceeds rank n=4"),
    "rank 0": (0, "(1,2)", "pair (1,2) exceeds rank n=0"),
    "disjoint pairs": (4, "(1,2)(3,4)", "consecutive pairs (1,2) and (3,4) are disjoint"),
    "rank over limit": (RANK_CEILINGS["word"] + 1, "(1,2)",
                        f"rank n={RANK_CEILINGS['word'] + 1} exceeds the word rank limit "
                        f"{RANK_CEILINGS['word']}"),
}


def random_connected_sequence(rng, n, max_len=8):
    items = [Quark(*rng.sample(range(1, n + 1), 2))]
    for _ in range(rng.randint(0, max_len - 1)):
        prev = items[-1]
        shared = rng.choice([prev.i, prev.j])
        other = rng.choice([x for x in range(1, n + 1) if x != shared])
        items.append(Quark(shared, other))
    return Word(n, tuple(items))


# moves (I)-(IV) are these relations restricted to connected words
MOVES = ("R2", "R3", "R4", "R5")


def move_instances(rule, n=4):
    """Both sides of the rule at every tuple of distinct indices."""
    lhs, rhs = RELATION_RULES[rule]
    variables = sorted(set("".join(lhs + rhs)))
    for values in itertools.permutations(range(1, n + 1), len(variables)):
        bound = dict(zip(variables, values))
        yield tuple(word(n, [(bound[a], bound[b]) for a, b in side]) for side in (lhs, rhs))


def dot_vertices(dot):
    return [line.strip(' ";') for line in dot.splitlines()[1:-1] if " -- " not in line]


def dot_edges(dot):
    return [
        tuple(line.strip(' ";').split('" -- "'))
        for line in dot.splitlines()
        if " -- " in line
    ]


def dot_degrees(dot):
    degree = dict.fromkeys(dot_vertices(dot), 0)
    for a, b in dot_edges(dot):
        degree[a] += 1
        degree[b] += 1
    return degree


def label_quark(label):
    return Quark(*map(int, label.split(",")))


class TestConnectedSequence:
    def test_rejects_disconnected(self):
        with pytest.raises(DomainError):
            sequence(4, [(1, 2), (3, 4)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            sequence(3, [(1, 4)])

    def test_single_pair_ok(self):
        assert len(sequence(5, [(2, 3)])) == 1

    def test_canonical_rejects_disconnected_word(self):
        with pytest.raises(DomainError, match="consecutive pairs"):
            seq_canonical(word(4, [(1, 2), (2, 3), (1, 4), (3, 4)]))


class TestCanonical:
    def test_single_pair(self):
        assert seq_canonical(sequence(4, [(1, 2)])) == atom(4, 1, 2)

    def test_backtrack_collapses(self):
        assert seq_canonical(sequence(4, [(1, 2), (2, 3), (1, 2)])) == atom(4, 1, 2)

    def test_move_ii_instance(self):
        a = sequence(4, [(1, 2), (2, 3), (3, 4)])
        b = sequence(4, [(1, 2), (1, 4), (3, 4)])
        assert seq_canonical(a) == seq_canonical(b)

    def test_corank_always_two(self):
        rng = random.Random(31)
        for _ in range(300):
            s = random_connected_sequence(rng, rng.randint(2, 7))
            assert seq_canonical(s).corank == 2


class TestEquivalent:
    def test_reflexive(self):
        s = sequence(4, [(1, 2), (2, 4)])
        assert seq_equivalent(s, s)

    def test_triangle_shortcut(self):
        assert seq_equivalent(
            sequence(3, [(1, 2), (2, 3), (3, 1)]), sequence(3, [(1, 2), (3, 1)])
        )

    def test_distinct_atoms_differ(self):
        assert not seq_equivalent(sequence(3, [(1, 2)]), sequence(3, [(1, 3)]))

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            seq_equivalent(sequence(3, [(1, 2)]), sequence(4, [(1, 2)]))


class TestCounts:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_census_matches_bracket_set_reference(self, n):
        reference = {}
        for d in enumerate_all(n):
            if len(d.left_brackets()) != 1:
                continue
            ((lb,), (rb,)) = d.left_brackets(), d.right_brackets()
            key = (tuple(sorted(lb)), tuple(sorted(rb)))
            reference[key] = reference.get(key, 0) + 1
        assert corank2_census(n) == reference


GAMMA4_DOT = """graph gamma4 {
  "1,2";
  "1,3";
  "2,3";
  "1,4";
  "2,4";
  "3,4";
  "1,2" -- "1,3";
  "1,2" -- "2,3";
  "1,2" -- "1,4";
  "1,2" -- "2,4";
  "1,3" -- "2,3";
  "1,3" -- "1,4";
  "1,3" -- "3,4";
  "2,3" -- "2,4";
  "2,3" -- "3,4";
  "1,4" -- "2,4";
  "1,4" -- "3,4";
  "2,4" -- "3,4";
}"""


class TestGammaGraph:
    def test_n4_shape(self):
        degrees = dot_degrees(gamma_graph(4))
        assert len(degrees) == 6
        assert set(degrees.values()) == {4}

    def test_n4_golden(self):
        assert gamma_graph(4) == GAMMA4_DOT

    def test_rejects_rank_past_the_graph_limit(self):
        limit = RANK_CEILINGS["pair graph"]
        with pytest.raises(DomainError, match=f"exceeds the pair graph rank limit {limit}$"):
            gamma_graph(limit + 1)

    def test_n2_trivial(self):
        dot = gamma_graph(2)
        assert dot_vertices(dot) == ["1,2"]
        assert dot_edges(dot) == []

    def test_n5_degree(self):
        degrees = dot_degrees(gamma_graph(5))
        assert len(degrees) == 10
        assert set(degrees.values()) == {2 * (5 - 2)}

    def test_colex_index(self):
        quarks = [label_quark(v) for v in dot_vertices(gamma_graph(5))]
        assert quarks == sorted(quarks, key=lambda q: (q.j, q.i))
        assert quarks[0] == Quark(1, 2)

    def test_neighbors_intersect(self):
        dot = gamma_graph(5)
        order = dot_vertices(dot)
        for a, b in dot_edges(dot):
            assert order.index(a) < order.index(b)
            assert label_quark(a).meets(label_quark(b))
        assert len(set(dot_edges(dot))) == len(dot_edges(dot)) == 10 * 6 // 2

    def test_dot_output(self):
        dot = gamma_graph(3)
        assert dot.startswith("graph gamma3 {")
        assert '"1,2" -- "1,3";' in dot
        assert dot.count("--") == 3

    def test_rank_below_two_rejected(self):
        with pytest.raises(DomainError):
            gamma_graph(1)


class TestRewrites:
    """Moves (I)-(IV) are the rule-table entries R2-R5 on connected words."""

    def test_moves_preserve_canonical(self):
        for rule in MOVES:
            for u, v in move_instances(rule):
                assert is_connected(u) and is_connected(v)
                assert seq_canonical(u) == seq_canonical(v)

    def test_moves_keep_endpoints(self):
        for rule in MOVES:
            for u, v in move_instances(rule):
                assert u.quarks[0] == v.quarks[0]
                assert u.quarks[-1] == v.quarks[-1]

    def test_each_move_appears(self):
        # (I)-(IV) as the module docstring writes them, at i,j,k,l = 1,2,3,4
        moves = {
            "R2": ("(1,2)(1,2)", "(1,2)"),
            "R3": ("(1,2)(2,3)(3,4)", "(1,2)(1,4)(3,4)"),
            "R4": ("(1,2)(2,3)(3,1)", "(1,2)(3,1)"),
            "R5": ("(1,2)(2,3)(1,2)", "(1,2)"),
        }
        for rule, (u, v) in moves.items():
            pair = (parse_sequence(4, u), parse_sequence(4, v))
            assert pair in set(move_instances(rule))


class TestText:
    def test_round_trip(self):
        s = sequence(4, [(1, 2), (2, 3)])
        assert word_to_text(s) == "n=4: (1,2)(2,3)"
        assert parse_sequence(4, word_to_text(s).partition(": ")[2]) == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_sequence(4, "")
        with pytest.raises(DomainError):
            parse_sequence(4, "(1,2);(2,3)")

    @pytest.mark.parametrize("n,text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_parse_error_message(self, n, text, message):
        with pytest.raises(DomainError) as exc:
            parse_sequence(n, text)
        assert str(exc.value) == message
