import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from brauer.diagram import (
    GREEN_RELATIONS,
    RANK_CEILINGS,
    BrauerDiagram,
    DomainError,
    _bracket_walk,
    atom,
    count_all,
    enumerate_all,
    green_related,
    identity,
    make_diagram,
    multiply,
    parse_diagram,
    random_diagram,
)
from brauer.geodesics import bfs_lengths, load_or_compute_table
from test_geodesics import reference_bfs

FIG1_BLOCKS = [(1, 5), (4, 6), (-2, -4), (-3, -5), (2, -1), (3, -6)]

# SHA-256 of repr((list(counts.items()), ends)) for _bracket_walk(8), taken
# from the walk that finished each (six-set, key) prefix straight from the
# six-point pairs, before the per-six-set mask table
WALK_8_SHA256 = "d64aa8da910cd6508ed1f2202991fb3033e4dbe2c120bbcc9745ebf903f2a5bf"


def enumerate_recursive(n):
    """Reference enumerator: plain recursion in the documented order,
    matching the smallest unmatched point with each larger free point in
    increasing order.  Yields partner tuples."""
    partner = [-1] * (2 * n)

    def rec(first):
        while first < 2 * n and partner[first] != -1:
            first += 1
        if first == 2 * n:
            yield tuple(partner)
            return
        for other in range(first + 1, 2 * n):
            if partner[other] != -1:
                continue
            partner[first], partner[other] = other, first
            yield from rec(first + 1)
            partner[first], partner[other] = -1, -1

    return rec(0)


def compose_by_components(a, b):
    """Independent multiplication oracle: connected components of the
    3-layer union graph, using the raw equivalence-closure definition."""
    n = a.n
    # nodes: ('L', i) outer unprimed, ('M', i) glued middle, ('R', i) outer primed
    adj = {}

    def add_edge(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    def a_node(p):
        return ("L", p) if p < n else ("M", p - n)

    def b_node(p):
        return ("M", p) if p < n else ("R", p - n)

    for p, q in enumerate(a.partner):
        if p < q:
            add_edge(a_node(p), a_node(q))
    for p, q in enumerate(b.partner):
        if p < q:
            add_edge(b_node(p), b_node(q))

    blocks = []
    seen = set()
    for i in range(n):
        for node in (("L", i), ("R", i)):
            if node in seen:
                continue
            stack, comp = [node], []
            seen.add(node)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            outer = sorted(x for x in comp if x[0] != "M")
            assert len(outer) == 2
            blocks.append(tuple(
                (idx + 1) if side == "L" else -(idx + 1) for side, idx in outer
            ))
    return make_diagram(n, blocks)


class TestMakeDiagram:
    def test_fig_element_valid(self):
        d = make_diagram(6, FIG1_BLOCKS)
        assert d.n == 6
        assert frozenset((1, 5)) in d.left_brackets()
        assert d.to_text() == "n=6;{1,5}{2,1'}{3,6'}{4,6}{2',4'}{3',5'}"

    def test_identity_blocks(self):
        d = make_diagram(3, [(1, -1), (2, -2), (3, -3)])
        assert d == identity(3)

    def test_repeated_point_rejected(self):
        with pytest.raises(DomainError, match=r"^point 1 appears twice$"):
            make_diagram(2, [(1, 2), (1, -1)])

    def test_wrong_block_count_rejected(self):
        with pytest.raises(DomainError, match=r"^expected 3 blocks, got 2$"):
            make_diagram(3, [(1, 2), (3, -1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError, match=r"^point 3 out of range for n=2$"):
            make_diagram(2, [(1, 3), (2, -1)])

    def test_singleton_rejected(self):
        with pytest.raises(DomainError, match=r"^block \(1, 1\) repeats a point$"):
            make_diagram(2, [(1, 1), (2, -1)])

    def test_frozen_and_slotted(self):
        # enumerate_all streams (2n-1)!! of these, so each carries no __dict__
        d = make_diagram(6, FIG1_BLOCKS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.partner = identity(6).partner
        assert not hasattr(d, "__dict__")
        assert BrauerDiagram.__slots__ == ("partner",)
        assert hash(d) == hash(make_diagram(6, FIG1_BLOCKS))
        # past rank 3 enumerate_all writes the slot without __init__; ranks 1 to 3 call it
        for d in (next(itertools.islice(enumerate_all(4), 50, None)), [*enumerate_all(3)][7]):
            n = d.n
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.partner = identity(n).partner
            assert not hasattr(d, "__dict__")
            assert type(d) is BrauerDiagram
            signed = [*range(1, n + 1), *range(-1, -n - 1, -1)]
            blocks = [(signed[p], signed[q]) for p, q in enumerate(d.partner) if p < q]
            again = make_diagram(n, blocks)
            assert d == again and hash(d) == hash(again)


class TestIdentityAndAtom:
    def test_identity_n1(self):
        assert identity(1).to_text() == "n=1;{1,1'}"

    def test_identity_n3(self):
        assert identity(3).to_text() == "n=3;{1,1'}{2,2'}{3,3'}"

    def test_identity_law_exhaustive_n4(self):
        for n in (1, 2, 3, 4):
            e = identity(n)
            for d in enumerate_all(n):
                assert multiply(e, d) == d
                assert multiply(d, e) == d

    def test_atom_matches_picture(self):
        # sigma_{1,3} in rank 4
        assert atom(4, 1, 3) == make_diagram(4, [(1, 3), (-1, -3), (2, -2), (4, -4)])

    def test_atom_symmetric(self):
        for n, i, j in [(4, 1, 3), (5, 2, 5), (2, 1, 2)]:
            assert atom(n, i, j) == atom(n, j, i)

    def test_atom_idempotent(self):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                s = atom(4, i, j)
                assert multiply(s, s) == s

    def test_atom_corank(self):
        assert atom(6, 2, 5).corank == 2

    def test_atom_bad_indices(self):
        with pytest.raises(DomainError):
            atom(3, 2, 2)
        with pytest.raises(DomainError):
            atom(3, 0, 1)
        with pytest.raises(DomainError):
            atom(3, 1, 4)


class TestMultiply:
    def test_relation_5_instance(self):
        # sigma_12 sigma_23 sigma_12 = sigma_12 in rank 3
        s12, s23 = atom(3, 1, 2), atom(3, 2, 3)
        assert multiply(s12, multiply(s23, s12)) == s12

    def test_hand_traced_product(self):
        # frozen expected value, confirmed against the component oracle below
        got = multiply(atom(3, 1, 3), atom(3, 1, 2))
        assert got == make_diagram(3, [(1, 3), (-1, -2), (2, -3)])
        assert got == compose_by_components(atom(3, 1, 3), atom(3, 1, 2))

    def test_agrees_with_component_oracle_exhaustive_n3(self):
        all3 = list(enumerate_all(3))
        for a in all3:
            for b in all3:
                assert multiply(a, b) == compose_by_components(a, b)
        # the product the BFS takes: every rank-4 diagram times every atom
        for a in enumerate_all(4):
            for i, j in itertools.combinations(range(1, 5), 2):
                g = atom(4, i, j)
                assert multiply(a, g) == compose_by_components(a, g)

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            multiply(identity(2), identity(3))

    def test_associative_exhaustive_n3(self):
        all3 = list(enumerate_all(3))
        for a in all3:
            for b in all3:
                ab = multiply(a, b)
                for c in all3:
                    assert multiply(ab, c) == multiply(a, multiply(b, c))

    def test_loop_count(self):
        # sigma_12 * sigma_12 closes one loop on {1, 2}, which the monoid drops
        assert multiply(atom(2, 1, 2), atom(2, 1, 2)) == atom(2, 1, 2)


class TestCorank:
    def test_identity_zero(self):
        assert identity(5).corank == 0

    def test_atom_two(self):
        assert atom(5, 2, 4).corank == 2

    def test_fig_element_four(self):
        assert make_diagram(6, FIG1_BLOCKS).corank == 4

    def test_bounded(self):
        for n in (2, 3, 4, 5):
            for d in enumerate_all(n):
                assert d.corank % 2 == 0
                assert d.corank <= 2 * (n // 2)

    def test_counts_left_bracket_points_exhaustive(self):
        for n in range(1, 7):
            for d in enumerate_all(n):
                assert d.corank == 2 * len(d.left_brackets())


class TestGreen:
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_relation_matches_its_definition(self, n):
        # R: same left brackets, L: same right brackets, H: both, D: same
        # corank, on every pair, with the brackets from a scan of the
        # partner array rather than from left_brackets and right_brackets
        diagrams = list(enumerate_all(n))
        sides = [scanned_bracket_sets(d.partner) for d in diagrams]
        for (a, (la, ra)), (b, (lb, rb)) in itertools.product(zip(diagrams, sides), repeat=2):
            expected = {"R": la == lb, "L": ra == rb, "H": (la, ra) == (lb, rb),
                        "D": a.corank == b.corank}
            assert {rel: green_related(a, b, rel) for rel in GREEN_RELATIONS} == expected
            assert expected["D"] == (len(la) == len(lb))

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            green_related(identity(2), identity(3), "R")

    def test_unknown_letter(self):
        d = identity(2)
        with pytest.raises(DomainError, match=r"\('R', 'L', 'H', 'D'\)"):
            green_related(d, d, "X")

    def test_bracket_walk_keys_are_h_classes(self):
        # one walk key per (left brackets, right brackets), counting the
        # diagrams of that H-class
        for n in range(1, 7):
            by_brackets = Counter((d.left_brackets(), d.right_brackets()) for d in enumerate_all(n))
            assert walk_bracket_sets(n) == by_brackets


def scanned_bracket_sets(partner):
    """(left brackets, right brackets) of ``partner``, as in ``left_brackets``,
    read by a scan of each half."""
    n = len(partner) // 2
    return tuple(
        frozenset(frozenset((p - lo + 1, q - lo + 1))
                  for p, q in enumerate(partner[lo:lo + n], lo) if p < q < lo + n)
        for lo in (0, n)
    )


def walk_bracket_sets(n):
    """``_bracket_walk(n)`` counts keyed by (left brackets, right brackets)."""
    counts, ends = _bracket_walk(n)
    left = math.comb(n, 2)
    out = {}
    brackets = [frozenset(e) for e in ends]
    for key, size in counts.items():
        sides = [], []
        while key:
            b = (key & -key).bit_length() - 1
            sides[b >= left].append(brackets[b])
            key &= key - 1
        out[frozenset(sides[0]), frozenset(sides[1])] = size
    assert len(out) == len(counts)
    return Counter(out)


class TestBracketWalk:
    # n=8 is where the walk merges the most repeated (six-set, key) prefixes
    @pytest.mark.parametrize("n", range(1, 9))
    def test_layout(self, n):
        counts, ends = _bracket_walk(n)
        assert sum(counts.values()) == count_all(n)
        # C(n,2) left-bracket bits below C(n,2) right-bracket bits, and
        # every key has as many brackets on each side
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        assert ends == pairs + pairs
        left = math.comb(n, 2)
        assert all(
            (k & (1 << left) - 1).bit_count() == (k >> left).bit_count() for k in counts
        )

    # up to n=8, the last rank where the unbounded walk is cheap (0.16 s)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bound_keeps_the_full_walks_keys_in_order(self, n):
        # the bound drops no matching inside it, and skipping pairs keeps
        # the order of the ones it walks
        counts, ends = _bracket_walk(n)
        left = math.comb(n, 2)
        inside = [(k, size) for k, size in counts.items()
                  if (k & (1 << left) - 1).bit_count() <= 1 and (k >> left).bit_count() <= 1]
        bounded, bounded_ends = _bracket_walk(n, bounded=True)
        assert (list(bounded.items()), bounded_ends) == (inside, ends)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_visits_in_enumeration_order(self, n):
        # each key is inserted when the walk meets its first matching, so
        # the walk visits the matchings in the order of enumerate_all
        counts, ends = _bracket_walk(n)
        left = math.comb(n, 2)
        bit = {}
        for b, (i, j) in enumerate(ends):
            lo = 0 if b < left else n
            bit[i - 1 + lo, j - 1 + lo] = 1 << b
        keys = [
            sum(bit.get((p, q), 0) for p, q in enumerate(d.partner) if p < q)
            for d in enumerate_all(n)
        ]
        assert list(counts.items()) == list(Counter(keys).items())

    def test_rank_8_digest(self):
        # the order tests above stop at n=7; n=8 has 462 six-sets and
        # 24,661 distinct (six-set, key) prefixes of 135,135
        counts, ends = _bracket_walk(8)
        text = repr((list(counts.items()), ends)).encode()
        assert hashlib.sha256(text).hexdigest() == WALK_8_SHA256

    def test_rejects_rank_0(self):
        with pytest.raises(DomainError):
            _bracket_walk(0)

    def test_rejects_rank_past_the_walk_limit(self):
        with pytest.raises(DomainError, match=f"exceeds the walk rank limit {RANK_CEILINGS['walk']}"):
            _bracket_walk(RANK_CEILINGS["walk"] + 1)

    def test_leaves_no_garbage_cycle(self):
        # a cycle would keep the counts dict alive until a full collection
        gc.collect()
        gc.disable()
        try:
            _bracket_walk(5)
            assert gc.collect() == 0
        finally:
            gc.enable()


def from_permutation(perm):
    """The unit with lines {k, perm[k-1]'}."""
    return make_diagram(len(perm), [(k, -image) for k, image in enumerate(perm, 1)])


class TestFromPermutation:
    def test_identity_perm(self):
        assert from_permutation([1, 2, 3]) == identity(3)

    def test_transposition(self):
        assert from_permutation([2, 1, 3]) == make_diagram(3, [(1, -2), (2, -1), (3, -3)])

    def test_not_bijection(self):
        with pytest.raises(DomainError):
            from_permutation([1, 1, 3])

    def test_composition_direction(self):
        # multiplicativity holds for left-to-right composition t = "p then q"
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            p = list(range(1, n + 1))
            q = list(range(1, n + 1))
            rng.shuffle(p)
            rng.shuffle(q)
            t = [q[p[k] - 1] for k in range(n)]
            assert multiply(from_permutation(p), from_permutation(q)) == from_permutation(t)

    def test_invertibles_are_exactly_corank_zero(self):
        for n in (2, 3, 4):
            e = identity(n)
            all_d = list(enumerate_all(n))
            units = [d for d in all_d if d.corank == 0]
            assert len(units) == math.factorial(n)
            for d in units:
                assert any(multiply(d, x) == e and multiply(x, d) == e for x in units)
            for d in all_d:
                if d.corank > 0:
                    assert all(multiply(d, x) != e for x in all_d)


class TestEnumerate:
    def test_first_element_is_smallest_matching(self):
        first = next(iter(enumerate_all(3)))
        assert first == make_diagram(3, [(1, 2), (3, -1), (-2, -3)])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_order_matches_recursive_reference(self, n):
        assert [d.partner for d in enumerate_all(n)] == list(enumerate_recursive(n))

    def test_generators_advanced_in_alternation_keep_their_order(self):
        # each call fills its leaves from its own six-set rows, so
        # interleaved walks of ranks 5 and 6, and a second rank-6 walk that
        # starts 400 steps later, cannot read each other's rows
        later = itertools.chain([None] * 400, enumerate_all(6))
        steps = itertools.zip_longest(enumerate_all(5), enumerate_all(6), later)
        for n, walk in zip((5, 6, 6), zip(*steps)):
            assert [d.partner for d in walk if d is not None] == list(enumerate_recursive(n))

    def test_lazy(self):
        # 79!! rank-40 diagrams could never be listed: the first must come at
        # once; rank 1200 makes 1,197 pairs before its first diagram, past
        # the default recursion limit, so the walk must keep its own stack
        for n in (40, 1200):
            assert next(enumerate_all(n)).partner == tuple(p ^ 1 for p in range(2 * n))

    def test_rejects_rank_below_one(self):
        for build in (enumerate_all, identity):
            with pytest.raises(DomainError, match=r"^rank n must be a positive integer$"):
                build(0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_random_diagram_rejects_rank_below_one(self, n):
        with pytest.raises(DomainError, match=r"^rank n must be a positive integer$"):
            random_diagram(n, random.Random(n))


# each rejected text with the exact message it raises, in the order the
# checks run: header, stray text (the first non-blank gap), rank, block
# count, then block by block range, repeat within a block, reuse
PARSE_ERRORS = {
    "empty": ("", "diagram must start with 'n=<rank>;': ''"),
    "no header": ("{1,2}{1',2'}", "diagram must start with 'n=<rank>;': \"{1,2}{1',2'}\""),
    "header without body": ("n=3", "diagram must start with 'n=<rank>;': 'n=3'"),
    "text before header": ("x n=2;{1,2}{1',2'}",
                           "diagram must start with 'n=<rank>;': \"x n=2;{1,2}{1',2'}\""),
    "text before blocks": ("n=2; x {1,2}{1',2'}", "unexpected text in diagram: ' x '"),
    "text between blocks": ("n=2;{1,2} x {1',2'}", "unexpected text in diagram: ' x '"),
    "text after blocks": ("n=2;{1,2}{1',2'} x", "unexpected text in diagram: ' x'"),
    "first gap wins": ("n=2;a{1,2}b{1',2'}c", "unexpected text in diagram: 'a'"),
    "trailing separator": ("n=2;{1,2}{1',2'};", "unexpected text in diagram: ';'"),
    "comma between blocks": ("n=2;{1,2},{1',2'}", "unexpected text in diagram: ','"),
    "round block": ("n=2;{1,2}(1',2')", "unexpected text in diagram: \"(1',2')\""),
    "double prime": ("n=2;{1,2}{1',2''}", "unexpected text in diagram: \"{1',2''}\""),
    "minus sign": ("n=2;{-1,2}{1',2'}", "unexpected text in diagram: '{-1,2}'"),
    "stray brace": ("n=2;{1,2}{1',2'}}", "unexpected text in diagram: '}'"),
    "rank zero": ("n=0;", "rank n must be a positive integer"),
    "empty body": ("n=2;", "expected 2 blocks, got 0"),
    "too few blocks": ("n=3;{1,2}", "expected 3 blocks, got 1"),
    "too many blocks": ("n=2;{1,2}{1',2'}{1,1'}", "expected 2 blocks, got 3"),
    "point 0": ("n=2;{0,1}{2,1'}", "point 0 out of range for n=2"),
    "unprimed out of range": ("n=3;{1,4}{2,3}{1',2'}", "point 4 out of range for n=3"),
    "primed out of range": ("n=3;{1,2}{4',1'}{3,3'}", "point -4 out of range for n=3"),
    "first point checked first": ("n=2;{3,3'}{1,2}", "point 3 out of range for n=2"),
    "repeat in block": ("n=2;{1,1}{2,1'}", "block (1, 1) repeats a point"),
    "primed repeat in block": ("n=2;{1,2}{2',2'}", "block (-2, -2) repeats a point"),
    "unprimed twice": ("n=2;{1,2'}{2,1}", "point 1 appears twice"),
    "unprimed twice, second slot": ("n=2;{1,2}{2',1}", "point 1 appears twice"),
    "primed twice": ("n=2;{1',2}{1',2'}", "point -1 appears twice"),
}

# accepted spellings and the canonical text each parses to
PARSE_VARIANTS = {
    "spaced": ("n = 3 ; { 1 , 2 } { 3 , 1' } { 2' , 3' }", "n=3;{1,2}{3,1'}{2',3'}"),
    "padded": ("  n=2;{1,2}{1',2'}\n", "n=2;{1,2}{1',2'}"),
    "newline between blocks": ("n=2;{1,2}\n{1',2'}", "n=2;{1,2}{1',2'}"),
    "space before prime block": ("n=2 ;{1,2}{ 1',2'}", "n=2;{1,2}{1',2'}"),
    "leading zeros": ("n=02;{1,02}{1',2'}", "n=2;{1,2}{1',2'}"),
    "any block order": ("n=3;{2',3'}{3,1'}{1,2}", "n=3;{1,2}{3,1'}{2',3'}"),
}

# make_diagram inputs that parse_diagram cannot produce
MAKE_ERRORS = {
    "rank zero": (0, [], "rank n must be a positive integer"),
    "negative rank": (-1, [(1, 2)], "rank n must be a positive integer"),
    "three points": (2, [(1, 2, -1), (-2,)], "block (1, 2, -1) does not have two points"),
    "one point": (2, [(1,), (2, -2)], "block (1,) does not have two points"),
    "list block": (2, [[1, 1], [2, -2]], "block (1, 1) repeats a point"),
}


class TestSerialization:
    def test_canonical_text(self):
        d = multiply(atom(3, 1, 3), atom(3, 1, 2))
        assert d.to_text() == "n=3;{1,3}{2,3'}{1',2'}"

    def test_parse_any_block_order(self):
        d = make_diagram(6, FIG1_BLOCKS)
        assert parse_diagram("n=6;{1,5}{4,6}{2,1'}{3,6'}{2',4'}{3',5'}") == d
        assert parse_diagram(d.to_text()) == d

    def test_text_matches_sorted_blocks_n5(self):
        def sorted_blocks_text(d):
            n = d.n
            label = lambda p: str(p + 1) if p < n else f"{p - n + 1}'"
            blocks = sorted((p, q) for p, q in enumerate(d.partner) if p < q)
            return f"n={n};" + "".join("{%s,%s}" % (label(p), label(q)) for p, q in blocks)

        checked = 0
        for d in enumerate_all(5):
            assert d.to_text() == sorted_blocks_text(d)
            checked += 1
        assert checked == 945

    def test_round_trip_exhaustive(self):
        for n in (1, 2, 3, 4, 5):
            for d in enumerate_all(n):
                assert parse_diagram(d.to_text()) == d

    @pytest.mark.parametrize("text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_parse_error_message(self, text, message):
        with pytest.raises(DomainError) as exc:
            parse_diagram(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,canonical", PARSE_VARIANTS.values(), ids=PARSE_VARIANTS)
    def test_parse_accepts_whitespace_and_order(self, text, canonical):
        assert parse_diagram(text).to_text() == canonical

    @pytest.mark.parametrize("n,blocks,message", MAKE_ERRORS.values(), ids=MAKE_ERRORS)
    def test_make_error_message(self, n, blocks, message):
        with pytest.raises(DomainError) as exc:
            make_diagram(n, blocks)
        assert str(exc.value) == message

    def test_transpose_is_involution(self):
        rng = random.Random(9)
        for _ in range(50):
            d = random_diagram(rng.randint(1, 6), rng)
            assert d.transpose().transpose() == d
        s = atom(4, 1, 3)
        assert s.transpose() == s


class TestHalves:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_right_brackets_are_left_brackets_of_transpose(self, n):
        for d in enumerate_all(n):
            assert d.right_brackets() == d.transpose().left_brackets()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_transpose_flips_every_index(self, n):
        def flip(p):
            return p + n if p < n else p - n

        for d in enumerate_all(n):
            flipped = [None] * (2 * n)
            for p, q in enumerate(d.partner):
                flipped[flip(p)] = flip(q)
            assert d.transpose().partner == tuple(flipped)


class TestBfsLevels:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_adjacent_atoms_reach_catalan_minus_one(self, n):
        """The adjacent atoms tau_{i,i+1} generate the singular part of the
        Jones (Temperley-Lieb) monoid, Catalan(n) - 1 elements: a closed form
        for the general product at every n.  This generator set is not
        closed under conjugation, so the orbit search does not apply, and
        the test runs the flat oracle ``reference_bfs``."""
        levels = reference_bfs(n, tuple((i, i + 1) for i in range(1, n)))
        assert len(levels) == math.comb(2 * n, n) // (n + 1) - 1

    @pytest.mark.parametrize("pairs", [None, [(1, 2)]])
    def test_rejects_rank_past_the_bfs_limit(self, pairs):
        """The BFS ceiling holds for the whole table (no pairs named) and
        for the length of one product of the named atoms, which is read
        from the same table."""
        n = RANK_CEILINGS["BFS"] + 1
        with pytest.raises(DomainError, match=f"exceeds the BFS rank limit {RANK_CEILINGS['BFS']}"):
            if pairs is None:
                bfs_lengths(n)
            else:
                d = functools.reduce(multiply, (atom(n, i, j) for i, j in pairs))
                load_or_compute_table(n)[d]
