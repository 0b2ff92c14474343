import math
import random

import pytest

from brauer.diagram import DomainError, atom
from brauer.presentation import (
    Quark,
    Word,
    apply_relation,
    find_relation_sites,
    is_connected,
    word,
)
from brauer.sequences import (
    corank2_census,
    count_classes,
    count_paths,
    expected_class_count,
    gamma_graph,
    parse_sequence,
    seq_canonical,
    seq_equivalent,
    sequence,
    sequence_to_text,
)


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
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 9), (4, 72)])
    def test_class_counts(self, n, expected):
        assert count_classes(n) == expected
        assert expected_class_count(n) == expected

    def test_paths_examples(self):
        assert count_paths(3, (1, 2), (1, 2)) == 1
        for frm in [(1, 2), (2, 3), (1, 4)]:
            for to in [(3, 4), (1, 2)]:
                assert count_paths(4, frm, to) == 2

    def test_census_sums_to_class_count(self):
        for n in (2, 3, 4, 5):
            census = corank2_census(n)
            assert sum(census.values()) == expected_class_count(n)
            assert all(v == math.factorial(n - 2) for v in census.values())
            assert len(census) == math.comb(n, 2) ** 2

    def test_loop_counts(self):
        # classes of loops at a vertex: (n-2)!
        for n in (3, 4, 5):
            for pair in [(1, 2), (2, 3)]:
                assert count_paths(n, pair, pair) == math.factorial(n - 2)


class TestGammaGraph:
    def test_n4_shape(self):
        g = gamma_graph(4)
        assert len(g.vertices) == 6
        assert all(g.degree(q) == 4 for q in g.vertices)

    def test_n2_trivial(self):
        g = gamma_graph(2)
        assert len(g.vertices) == 1
        assert g.edges() == []

    def test_n5_degree(self):
        g = gamma_graph(5)
        assert len(g.vertices) == 10
        assert all(g.degree(q) == 2 * (5 - 2) for q in g.vertices)

    def test_colex_index(self):
        g = gamma_graph(4)
        assert [g.index_of(q) for q in g.vertices] == list(range(6))
        assert g.vertices[0] == Quark(1, 2)

    def test_neighbors_intersect(self):
        g = gamma_graph(5)
        for q in g.vertices:
            for other in g.neighbors(q):
                assert q.meets(other) and q != other

    def test_dot_output(self):
        dot = gamma_graph(3).to_dot()
        assert dot.startswith("graph gamma3 {")
        assert '"1,2" -- "1,3";' in dot
        assert dot.count("--") == 3


class TestRewrites:
    def test_moves_preserve_canonical(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(150):
            s = random_connected_sequence(rng, rng.randint(3, 6))
            base = seq_canonical(s)
            sites = find_relation_sites(s, rules=MOVES)
            for site in rng.sample(sites, min(8, len(sites))):
                rewritten = apply_relation(s, site)
                assert is_connected(rewritten)
                assert seq_canonical(rewritten) == base
                checked += 1
        assert checked > 500

    def test_each_move_appears(self):
        s = sequence(
            4, [(1, 2), (2, 3), (1, 2), (1, 2), (2, 3), (3, 4), (2, 4), (2, 3), (3, 1)]
        )
        sites = find_relation_sites(s, rules=MOVES)
        assert {site.rule for site in sites if not site.reverse} == set(MOVES)


class TestText:
    def test_round_trip(self):
        s = sequence(4, [(1, 2), (2, 3)])
        assert sequence_to_text(s) == "(1,2)(2,3)"
        assert parse_sequence(4, "(1,2)(2,3)") == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_sequence(4, "")
        with pytest.raises(DomainError):
            parse_sequence(4, "(1,2);(2,3)")
