"""
Brauer monoid elements as perfect matchings on 2n points.

An element of the rank-n Brauer monoid is a partition of the 2n points
{1..n} u {1'..n'} into two-element blocks.  A block inside {1..n} is a
*left bracket*, a block inside {1'..n'} a *right bracket*, and a mixed
block a *line*.  Internally a diagram stores a flat partner array over
indices 0..2n-1 (unprimed i at index i-1, primed i' at index n+i-1), so
chain composition runs in O(n).

At the API boundary points are signed integers: i > 0 means the unprimed
point i, and -i means the primed point i'.  The text format writes primes
with an apostrophe, e.g. ``n=3;{1,3}{2,3'}{1',2'}``.

Products are computed by gluing the primed pins of the left factor to the
unprimed pins of the right factor and tracing the maximal chains; closed
loops formed in the middle are discarded, as in the monoid (only the
Brauer algebra would weight a product by its loop count).  ``multiply``
is the one general product, O(n).  Products of atoms step in O(1)
instead, in :func:`_atom_product` and in the orbit search
``geodesics.bfs_lengths``, which inlines the same step: right
multiplication by the atom {i,j} changes at most four partner slots.
Both start at the unit, the empty product, so the search meets the
atoms as its level 1.

Make each point k a node with a top port k and a bottom port k'; the
blocks join ports, so the nodes fall into cycles, which :func:`_cycles`
walks.  Geodesic lengths and orbit keys are read off the cycle words, and
``decompose`` factors a permutation cycle by cycle in walk order.

The counting claims need only how many matchings share each bracket set,
so :func:`_bracket_walk` counts every matching under an int key of its
brackets, building no partner tuple and no diagram.  Each walker has its
own loop, and both follow one order, that of :func:`_matchings`, the
recursion that defines it.  :func:`enumerate_all` walks depth first on
an explicit stack (about n**2 point slots) down to six free points and
fills them from the 15 rows of partners of that six-set, built once per
six-set, C(n+3, 6) of them (210 at n = 7).  The bracket walk goes
level by level, merging equal (free points, key) states by count, and
finishes each from the bracket masks of its last free points.  Bounded,
for the corank-2 census, it counts only the matchings with at most one
left bracket, level by level to the empty finish: a key only gains bits
as the walk goes on, so a state that holds a left bracket pairs its
unprimed points by lines alone.  Every matching has as many right
brackets as left ones, so the right side needs no bound of its own.
``enumerate_all`` writes the one slot of each diagram it yields
directly, without the frozen dataclass ``__init__``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DomainError",
    "GREEN_RELATIONS",
    "BrauerDiagram",
    "make_diagram",
    "identity",
    "atom",
    "multiply",
    "green_related",
    "enumerate_all",
    "random_diagram",
    "parse_diagram",
    "RANK_CEILINGS",
    "check_ceiling",
]


class DomainError(ValueError):
    """Invalid input or violated precondition in a monoid operation."""


GREEN_RELATIONS = ("R", "L", "H", "D")  # D and J coincide in the Brauer monoid


@dataclass(frozen=True, slots=True)
class BrauerDiagram:
    """A fixed-point-free perfect matching of {1..n} u {1'..n'}.

    ``partner[p]`` is the index matched with index p, where unprimed i
    sits at index i-1 and primed i' at index n+i-1.  Instances are
    immutable and hashable; construct unchecked only from code that
    guarantees a valid matching, otherwise go through
    :func:`make_diagram` or :func:`parse_diagram`.
    """

    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    def left_brackets(self) -> frozenset[frozenset[int]]:
        """Blocks lying entirely in {1..n}, as sets of unprimed labels."""
        return self._half_brackets(0)

    def right_brackets(self) -> frozenset[frozenset[int]]:
        """Blocks lying entirely in {1'..n'}, as sets of unprimed labels."""
        return self._half_brackets(self.n)

    def _half_brackets(self, lo: int) -> frozenset[frozenset[int]]:
        """Blocks inside the half at indices lo..lo+n-1 (lo is 0 or n), labelled 1..n."""
        hi = lo + self.n
        return frozenset(
            frozenset((p - lo + 1, q - lo + 1))
            for p, q in enumerate(self.partner[lo:hi], lo)
            if p < q < hi
        )

    @property
    def corank(self) -> int:
        """The number of points of {1..n} in left brackets: those whose
        partner also lies in {1..n}."""
        p = self.partner
        n = len(p) // 2
        return len([q for q in p[:n] if q < n])

    def transpose(self) -> BrauerDiagram:
        """Swap primed and unprimed points (the diagram-side anti-involution)."""
        p, n = self.partner, self.n
        # index k of one half is index k of the other: k <-> (k + n) mod 2n
        return BrauerDiagram(tuple([(q + n) % (2 * n) for q in p[n:] + p[:n]]))

    def to_text(self) -> str:
        """Bit-exact canonical text form, e.g. ``n=3;{1,3}{2,3'}{1',2'}``.

        Blocks are listed by their smaller index; each index is the
        smaller end of at most one block, so one pass in index order
        gives the sorted order.
        """
        n = self.n
        label = _point_labels(n)
        body = "".join(
            ["{%s,%s}" % (label[p], label[q]) for p, q in enumerate(self.partner) if p < q]
        )
        return f"n={n};{body}"

    def __repr__(self) -> str:
        return f"BrauerDiagram({self.to_text()!r})"


@functools.lru_cache(maxsize=32)
def _point_labels(n: int) -> tuple[str, ...]:
    """Text label of each index: ``1..n`` then ``1'..n'``."""
    return tuple(str(k) for k in range(1, n + 1)) + tuple(f"{k}'" for k in range(1, n + 1))


def make_diagram(n: int, blocks: Iterable[Sequence[int]]) -> BrauerDiagram:
    """Validate and build a diagram from signed-point blocks.

    Rejects anything that is not a partition of the 2n points into
    two-element blocks: repeated or missing points, wrong block count,
    points out of range, or singleton blocks.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    blocks = list(blocks)
    if len(blocks) != n:
        raise DomainError(f"expected {n} blocks, got {len(blocks)}")
    partner = [-1] * (2 * n)
    for block in blocks:
        if len(block) != 2:
            raise DomainError(f"block {tuple(block)} does not have two points")
        x, y = block
        if x == 0 or abs(x) > n:
            raise DomainError(f"point {x} out of range for n={n}")
        if y == 0 or abs(y) > n:
            raise DomainError(f"point {y} out of range for n={n}")
        # unprimed i at index i-1, primed i' (signed -i) at index n+i-1
        p = x - 1 if x > 0 else n - x - 1
        q = y - 1 if y > 0 else n - y - 1
        if p == q:
            raise DomainError(f"block {tuple(block)} repeats a point")
        if partner[p] != -1:
            raise DomainError(f"point {x} appears twice")
        if partner[q] != -1:
            raise DomainError(f"point {y} appears twice")
        partner[p], partner[q] = q, p
    # n blocks of 2 distinct points with no reuse cover all 2n points
    return BrauerDiagram(tuple(partner))


def identity(n: int) -> BrauerDiagram:
    """The unit element: every block is {k,k'}."""
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    return BrauerDiagram(tuple(_atom_product(n, ())))


def atom(n: int, i: int, j: int) -> BrauerDiagram:
    """The idempotent with blocks {i,j}, {i',j'} and identity lines elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"atom indices must lie in 1..{n}")
    if i == j:
        raise DomainError("atom indices must be distinct")
    return BrauerDiagram(tuple(_atom_product(n, [(i, j)])))


def _atom_pairs(n: int) -> list[tuple[int, int]]:
    """The brackets (i, j), i < j, of the C(n,2) atoms of rank n, in order."""
    return list(itertools.combinations(range(1, n + 1), 2))


def _compose(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Chain composition on raw partner arrays; middle loops are dropped."""
    size = 2 * n
    out = [-1] * size
    for start in range(n):
        if out[start] != -1:
            continue
        p = a[start]
        while p >= n:
            q = b[p - n]
            if q >= n:
                break
            p = a[q + n]
        else:
            out[start], out[p] = p, start
            continue
        out[start], out[q] = q, start
    # the first loop closed every block with an unprimed end, so a chain
    # from a primed point still open ends at a primed point: a[q + n] >= n
    for start in range(n, size):
        if out[start] != -1:
            continue
        q = b[start]
        while q < n:
            q = b[a[q + n] - n]
        out[start], out[q] = q, start
    return tuple(out)


def _cycles(p: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The word of each cycle of partner array p's nodes (module
    docstring), and every node in walk order, cycle after cycle.  A cycle
    is entered at the top port of its smallest node; its word has a 0 for
    a node passed top to bottom and a 1 for one passed bottom to top."""
    n = len(p) // 2
    seen = [False] * n
    words = []
    nodes = []
    for start in range(n):
        if seen[start]:
            continue
        word = []
        port = start
        while True:
            if port < n:  # in at the top, out at the bottom
                node = port
                word.append(0)
                port = p[node + n]
            else:
                node = port - n
                word.append(1)
                port = p[node]
            seen[node] = True
            nodes.append(node)
            if port == start:
                break
        words.append(tuple(word))
    return words, nodes


def _atom_product(n: int, pairs: Iterable[Sequence[int]]) -> list[int]:
    """The partner array of the product of the atoms {i,j} named by
    ``pairs`` (1-based), left to right, from the unit (so no pairs give
    the unit); it equals ``multiply`` applied letter by letter.

    Each atom is one O(1) step.  Right-multiplying p by the atom {i,j}
    glues p's primed points i' and j' (indices pi = n+i-1, pj = n+j-1) to
    the atom's left bracket.  If p already pairs pi with pj, the chain
    closes into a middle loop and the product is p itself.  Otherwise
    a = p[pi] and b = p[pj] become one block, and {i',j'} becomes a right
    bracket; every other block of p stays.  ``geodesics.bfs_lengths``
    inlines this step rather than call it, once per orbit and atom class.
    Routing this function through a shared step helper made ``atom``, and
    so ``phi``, slower.
    """
    p = [*range(n, 2 * n), *range(n)]
    for i, j in pairs:
        pi, pj = n + i - 1, n + j - 1
        a = p[pi]
        if a != pj:
            b = p[pj]
            p[a], p[b], p[pi], p[pj] = b, a, pj, pi
    return p


def multiply(a: BrauerDiagram, b: BrauerDiagram) -> BrauerDiagram:
    """Chain composition, a's chip on the left."""
    if a.n != b.n:
        raise DomainError(f"rank mismatch: {a.n} != {b.n}")
    return BrauerDiagram(_compose(a.n, a.partner, b.partner))


def green_related(a: BrauerDiagram, b: BrauerDiagram, rel: str) -> bool:
    """Decide the Green's relation ``rel``, a letter of GREEN_RELATIONS.

    R: same left brackets; L: same right brackets; H: both;
    D (= J): equal corank.
    """
    if a.n != b.n:
        raise DomainError(f"rank mismatch: {a.n} != {b.n}")
    if rel not in GREEN_RELATIONS:
        raise DomainError(f"unknown Green's relation {rel!r}; choose from {GREEN_RELATIONS}")
    if rel == "R":
        return a.left_brackets() == b.left_brackets()
    if rel == "L":
        return a.right_brackets() == b.right_brackets()
    if rel == "H":
        return green_related(a, b, "R") and green_related(a, b, "L")
    return a.corank == b.corank


def _matchings(size: int) -> Iterator[tuple[int, ...]]:
    """Every matching of the points 0..size-1 (size even) as a partner
    tuple, in the order of :func:`enumerate_all`: 0 is paired with each
    larger point in turn, and the points left are matched the same way."""
    if not size:
        yield ()
        return
    for q in range(1, size):
        rest = [*range(1, q), *range(q + 1, size)]
        for sub in _matchings(size - 2):
            partner = [0] * size
            partner[0], partner[q] = q, 0
            for p, r in zip(rest, sub):
                partner[p] = rest[r]
            yield tuple(partner)


def enumerate_all(n: int) -> Iterator[BrauerDiagram]:
    """Yield every rank-n diagram exactly once ((2n-1)!! of them).

    Order: repeatedly match the smallest unmatched point with each larger
    free point in increasing order, so the first diagram pairs index 0
    with 1, 2 with 3, and so on.  The lazy generator writes each pair
    into one partner list, with its frames ``(free points, next k)`` on an
    explicit stack, so any rank walks; the frames hold about n**2 point
    slots.  Each set of six free points left is filled from its 15 rows
    of partners, one per matching of six points, unpacked straight into
    the six slots.  The rows of a six-set are built the first time the
    walk meets it and kept in a dict local to the generator, so they die
    with it: C(n+3, 6) six-sets, 210 at n = 7 and 462 at n = 8, about
    0.7 MB at n = 8.  Ranks 1 to 3 are read whole from
    :func:`_matchings`.  Any n is taken; the command line bounds it.

    Past rank 3 each diagram is made by ``object.__new__`` with its
    ``partner`` slot written directly.  Every tuple the walk fills is a
    matching, so the frozen ``__init__``, which sets the slot through
    ``object.__setattr__``, would only add cost: over a third of each
    diagram's.  The frozen ``__setattr__`` still refuses later writes, and
    equality and hashing are the dataclass's.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    if n <= 3:
        return map(BrauerDiagram, _matchings(2 * n))

    def matchings() -> Iterator[BrauerDiagram]:
        partner = [0] * (2 * n)
        new, put = object.__new__, BrauerDiagram.partner.__set__
        # pick k maps six free points to their partners under the k-th matching
        picks = [operator.itemgetter(*row) for row in _matchings(6)]
        # each six-set's 15 rows of partners, built the first time it is met
        fills: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        stack = [(tuple(range(2 * n)), 1)]
        while stack:
            free, k = stack.pop()
            if k + 1 < len(free):
                stack.append((free, k + 1))
            p, q = free[0], free[k]
            partner[p], partner[q] = q, p
            rest = free[1:k] + free[k + 1:]
            if len(rest) > 6:
                stack.append((rest, 1))
                continue
            fill = fills.get(rest)
            if fill is None:
                fill = fills[rest] = [pick(rest) for pick in picks]
            a, b, c, d, e, f = rest
            for partner[a], partner[b], partner[c], partner[d], partner[e], partner[f] in fill:
                x = new(BrauerDiagram)
                put(x, tuple(partner))
                yield x

    return matchings()


# The rank past which each kind of work cannot finish on one machine, so
# that --force does not lift it; check_ceiling refuses a rank past its row
# before the work allocates.  Measured on a 2-core VM, Python 3.11.7.
RANK_CEILINGS = {
    # The bracket walk's output holds one key per H-class, some 70 bytes each:
    # 33,540,076 keys at n=10, 457,219,676 at n=11 (about 32 GB),
    # 6,893,782,732 at n=12 (about 0.5 TB) and 110,235,964,060 at n=13, where
    # enumerate_all would stream 25!! (7.9e12) diagrams.
    "walk": 10,
    # The orbit search grows about 1.9x in orbits and 2.2-2.5x in time a rank:
    # 251, 517, 965, 1,928, 3,620, 7,102 and 13,455 orbits at n=9..15 in 0.02,
    # 0.05, 0.11-0.19, 0.27-0.41, 0.63-0.75, 1.7-1.9 and 3.6-4.2 s (one process
    # for n=9..15, two runs), at 30 MB peak RSS at n=15, about 1.5 KB an orbit
    # with the word memos.  By rank 24 that is some 4 million orbits and GBs of
    # keys and frontier, doubling with each rank (the flat search, at (2n-1)!!
    # elements, stops far below).
    "BFS": 24,
    # The pair graph has C(n,2)(n-2), about n**3/2, edges, and gamma_graph tests
    # every pair of its C(n,2) vertices: 0.2 s and 20 MB peak RSS at n=40, 3.1 s
    # and 68 MB at 100, 14 s and 194 MB at 150.  Time grows as n**4 and memory
    # as n**3 past it.
    "pair graph": 150,
    # Evaluating a word costs O(n) memory per letter, so the rank must not be
    # unbounded.  The relations suite evaluates 14 words of at most three
    # letters, each at its family's rank k <= 4: 0.03-0.05 ms at any n.
    "word": 10**4,
}


def check_ceiling(kind: str, n: int) -> None:
    """Reject a rank past the ``kind`` row of RANK_CEILINGS, before that work allocates."""
    if n > RANK_CEILINGS[kind]:
        raise DomainError(f"rank n={n} exceeds the {kind} rank limit {RANK_CEILINGS[kind]}")


def _bracket_walk(
    n: int, bounded: bool = False
) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Count the rank-n matchings by their bracket sets, building no diagram.

    Returns ``(counts, ends)``: ``counts[key]`` is the number of matchings
    whose brackets are exactly the set bits of ``key``, and bit b stands
    for the bracket ``ends[b]``, a pair of 1-based labels.  The C(n,2)
    left-bracket bits come first, then the C(n,2) right-bracket bits.  A
    key is an H-class, so ``counts`` holds the H-class sizes.  With
    ``bounded`` set, only the matchings with at most one bracket on each
    side are counted, and ``counts`` is the full walk's restricted to
    their keys, in the same order.

    The walk goes level by level over states (free points, key), each with
    the number of prefixes that reach it.  For n - 3 levels each state's
    smallest free point is paired with each larger one in turn, a line
    adding no bit, and equal states merge by adding their counts (3,227
    of 9,009 prefixes at n = 7, 24,661 of 135,135 at n = 8).  Each state
    is finished from the bracket masks of its last six free points (all
    2n for ranks 1 to 3) under each matching of :func:`_matchings`, built
    once per free set (210 at n = 7, 462 at n = 8).  States taken in
    insertion order and pairs in ascending order meet the states in the
    order of :func:`enumerate_all`'s depth-first walk, so ``counts``
    keeps that order.

    The bound is tested on the left side alone and drops no matching
    inside it.  A walk only ever adds bracket bits, so a state that holds
    a left bracket has no completion inside the bound that takes another:
    its smallest free point, if unprimed, pairs only with the primed free
    points (lines).  Each side's n points are two ends of each of its
    brackets and one end of each line, so every matching has as many
    right brackets as left ones, and the right side holds the bound when
    the left does.  Skipping pairs keeps the order of those left.  The
    bounded walk runs level by level to the end, n levels, and finishes
    each state from ``_matchings(0)``, the one empty matching.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    check_ceiling("walk", n)
    size = 2 * n
    bit = [[0] * size for _ in range(size)]
    ends: list[tuple[int, int]] = []
    for lo in (0, n):
        for p, q in itertools.combinations(range(lo, lo + n), 2):
            bit[p][q] = 1 << len(ends)
            ends.append((p - lo + 1, q - lo + 1))
    # the free points each state is finished from: the last six, or none when bounded
    last = 0 if bounded else min(size, 6)
    states = {(tuple(range(size)), 0): 1}
    for _ in range(n - last // 2):
        merged: dict[tuple[tuple[int, ...], int], int] = {}
        get = merged.get
        for (free, key), times in states.items():
            p, start = free[0], 1
            # while p is unprimed, every pair taken so far has an unprimed
            # end, so key holds left-bracket bits alone
            if bounded and p < n and key:
                start = bisect.bisect_left(free, n)  # lines only
            row = bit[p]
            for k in range(start, len(free)):
                state = (free[1:k] + free[k + 1:], key | row[free[k]])
                merged[state] = get(state, 0) + times
        states = merged
    rows = [[(i, j) for i, j in enumerate(row) if i < j] for row in _matchings(last)]
    counts: dict[int, int] = {}
    get = counts.get
    finish: dict[tuple[int, ...], list[int]] = {}
    for (free, key), times in states.items():
        masks = finish.get(free)
        if masks is None:
            masks = finish[free] = [sum([bit[free[i]][free[j]] for i, j in row]) for row in rows]
        for m in masks:
            k = key | m
            counts[k] = get(k, 0) + times
    return counts, ends


def count_all(n: int) -> int:
    """(2n-1)!!, the number of rank-n diagrams."""
    return math.prod(range(1, 2 * n, 2))


def random_diagram(n: int, rng) -> BrauerDiagram:
    """Uniformly random diagram (rng is a ``random.Random``)."""
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    points = list(range(2 * n))
    rng.shuffle(points)
    partner = [0] * (2 * n)
    for t in range(0, 2 * n, 2):
        p, q = points[t], points[t + 1]
        partner[p], partner[q] = q, p
    return BrauerDiagram(tuple(partner))


_HEADER_RE = re.compile(r"n\s*=\s*([0-9]+)\s*;")
_BLOCK_RE = re.compile(r"\{\s*([0-9]+)(')?\s*,\s*([0-9]+)(')?\s*\}")


def parse_diagram(text: str) -> BrauerDiagram:
    """Parse the text format; blocks may appear in any order."""
    text = text.strip()
    m = _HEADER_RE.match(text)
    if not m:
        raise DomainError(f"diagram must start with 'n=<rank>;': {text!r}")
    # the text before each block, the block's four groups, ..., the text after
    parts = _BLOCK_RE.split(text[m.end():])
    gaps = parts[::5]
    if "".join(gaps).strip():
        raise DomainError(f"unexpected text in diagram: {next(g for g in gaps if g.strip())!r}")
    try:
        n = int(m.group(1))
        blocks = [
            (-int(x) if xp else int(x), -int(y) if yp else int(y))
            for x, xp, y, yp in zip(parts[1::5], parts[2::5], parts[3::5], parts[4::5])
        ]
    except ValueError as exc:  # int() refuses a digit run past the interpreter's limit
        raise DomainError("a number in the diagram has too many digits") from exc
    return make_diagram(n, blocks)
