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
instead, in the breadth-first search and in :func:`_atom_product`: right
multiplication by the atom {i,j} changes at most four partner slots (see
:func:`_bfs_levels`).  Both start at the unit, the empty product, so the
search meets the atoms as its level 1.

Make each point k a node with a top port k and a bottom port k'; the
blocks join ports, so the nodes fall into cycles, which :func:`_cycles`
walks.  Geodesic lengths and orbit keys are read off the cycle words, and
``decompose`` factors a permutation cycle by cycle in walk order.

The counting claims need only how many matchings share each bracket set,
so :func:`_bracket_walk` counts every matching under an int key of its
brackets, building no partner tuple and no diagram.  It and
:func:`enumerate_all` share one pairing walk, :func:`_pairings`, down to
the last six free points (its stack holds about n**2 point slots), and
finish from one table, ``_SIX_POINT_MATCHINGS``: the 15 matchings of six
points, generated by :func:`_matchings`, the recursion that defines the
enumeration order.  Ranks 1 to 3 are read whole from :func:`_matchings`.
The bracket walk walks every prefix but finishes each distinct (six free
points, prefix key) once, times its count, from the 15 bracket masks of
those six points, which it builds from ``_SIX_POINT_PAIRS`` once per
six-set.  ``enumerate_all`` writes the one slot of each diagram it yields
directly, without the frozen dataclass ``__init__``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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
    "WALK_RANK_LIMIT",
    "BFS_RANK_LIMIT",
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
    for start in range(n, size):
        if out[start] != -1:
            continue
        q = b[start]
        while q < n:
            p = a[q + n]
            if p < n:
                break
            q = b[p - n]
        else:
            out[start], out[q] = q, start
            continue
        out[start], out[p] = p, start
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


def _bfs_levels(
    n: int,
    pairs: list[tuple[int, int]] | None = None,
    key: Callable[[tuple[int, ...]], Hashable] | None = None,
) -> dict[Hashable, int]:
    """Breadth-first search from the unit by right multiplication with
    the atoms {i,j} named by ``pairs`` (1-based; None names every atom):
    maps the partner array of every product of them to its least number
    of factors.  The unit, level 0, is not recorded; the atoms are level
    1.  A rank past BFS_RANK_LIMIT is refused before anything is built.

    With ``key``, the map is keyed by ``key(partner)`` instead, and only
    the first element reached with each key is expanded.  That is exact
    when elements with equal keys have equally long geodesics and their
    neighbours have equal keys again, as for conjugation orbits when
    ``pairs`` names every atom.

    One step is O(1).  Right-multiplying p by the atom {i,j} glues p's
    primed points i' and j' (indices pi = n+i-1, pj = n+j-1) to the
    atom's left bracket.  If p already pairs pi with pj, the chain
    closes into a middle loop and the product is p itself, which is
    skipped.  Otherwise a = p[pi] and b = p[pj] become one block, and
    {i',j'} becomes a right bracket; every other block of p stays.
    :func:`_atom_product` takes the same step; it is inlined here, the
    hot loop of the search.
    """
    check_bfs_rank(n)
    dist: dict[Hashable, int] = {}
    frontier = [tuple(_atom_product(n, ()))]
    steps = [(n + i - 1, n + j - 1) for i, j in (_atom_pairs(n) if pairs is None else pairs)]
    level = 0
    while frontier:
        level += 1
        new = []
        for p in frontier:
            for pi, pj in steps:
                a = p[pi]
                if a == pj:
                    continue
                b = p[pj]
                q = list(p)
                q[a], q[b], q[pi], q[pj] = b, a, pj, pi
                q = tuple(q)
                k = q if key is None else key(q)
                if k not in dist:
                    dist[k] = level
                    new.append(q)
        frontier = new
    return dist


def _atom_product(n: int, pairs: Iterable[Sequence[int]]) -> list[int]:
    """The partner array of the product of the atoms {i,j} named by
    ``pairs`` (1-based), left to right, from the unit (so no pairs give
    the unit).  Each atom is one four-slot step, as in :func:`_bfs_levels`;
    the result equals ``multiply`` applied letter by letter."""
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


# The 15 matchings of six points; both walkers finish their last six free
# points from it.
_SIX_POINT_MATCHINGS = tuple(_matchings(6))
# pick k maps the six free points, in order, to their partners under row k
_SIX_POINT_PICKS = tuple(operator.itemgetter(*row) for row in _SIX_POINT_MATCHINGS)
# pairs k holds the three pairs (i, j), i < j, of row k as positions
_SIX_POINT_PAIRS = tuple(
    tuple((i, j) for i, j in enumerate(row) if i < j) for row in _SIX_POINT_MATCHINGS
)


def _pairings(
    size: int, partner: list[int], bit: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The one walk over the matchings of the points 0..size-1 (size even,
    at least 8): pair the smallest free point with each larger one in turn,
    writing each pair p, q into ``partner``, down to the last six free
    points.  Yield those six and the sum of ``bit[p][q]`` over the pairs
    made, in the order of :func:`enumerate_all`; slots of ``partner`` off
    the pairs made are stale.  The frames ``(free, key, next k)`` sit on an
    explicit stack, so any rank walks; they hold about size**2 / 4 slots.
    """
    stack = [(tuple(range(size)), 0, 1)]
    while stack:
        free, key, k = stack.pop()
        p = free[0]
        if len(free) > 8:
            if k + 1 < len(free):
                stack.append((free, key, k + 1))
            q = free[k]
            partner[p], partner[q] = q, p
            stack.append((free[1:k] + free[k + 1:], key + bit[p][q], 1))
        else:  # one pair before the table: its seven six-sets
            row = bit[p]
            for k in range(1, 8):
                q = free[k]
                partner[p], partner[q] = q, p
                yield free[1:k] + free[k + 1:], key + row[q]


def enumerate_all(n: int) -> Iterator[BrauerDiagram]:
    """Yield every rank-n diagram exactly once ((2n-1)!! of them).

    Order: repeatedly match the smallest unmatched point with each larger
    free point in increasing order, so the first diagram pairs index 0
    with 1, 2 with 3, and so on.  The lazy generator runs the pairing
    walk :func:`_pairings` on one partner list, with every key 0; for
    each set of six free points it leaves, it fills them from
    ``_SIX_POINT_MATCHINGS`` and yields those 15 diagrams.  Ranks 1 to 3
    are read whole from :func:`_matchings`.  Any n is taken; the command
    line bounds it.  The walk's frames hold about n**2 point slots.

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
        size = 2 * n
        partner = [0] * size
        new, put = object.__new__, BrauerDiagram.partner.__set__
        # one shared zero row: every key is 0, in O(n) memory, not O(n**2)
        for free, _ in _pairings(size, partner, [[0] * size] * size):
            a, b, c, d, e, f = free
            for pick in _SIX_POINT_PICKS:
                partner[a], partner[b], partner[c], partner[d], partner[e], partner[f] = pick(free)
                x = new(BrauerDiagram)
                put(x, tuple(partner))
                yield x

    return matchings()


# (2n-1)!! matchings is 25!!, about 7.9e12, at n=13: no walk finishes past
# this rank, which --force does not lift; the bit table grows as n**4 anyway
WALK_RANK_LIMIT = 12


def check_walk_rank(n: int) -> None:
    """Reject a rank past WALK_RANK_LIMIT, before the walk allocates."""
    if n > WALK_RANK_LIMIT:
        raise DomainError(f"rank n={n} exceeds the walk rank limit {WALK_RANK_LIMIT}")


# The orbit search grows about 1.9x in orbits and 2.1-2.4x in time a rank:
# 251, 517, 965, 1,928, 3,620, 7,102 and 13,455 orbits at n=9..15 in 0.05,
# 0.13, 0.33, 0.78, 1.75, 3.13 and 6.6 s (2-core VM, Python 3.11.7), at about
# 0.7 KB an orbit.  By rank 24 that is some 4 million orbits and GBs of keys
# and frontier, doubling with each rank: no search past it finishes on one
# machine (the flat search, at (2n-1)!! elements, stops far below), and
# --force does not lift it.
BFS_RANK_LIMIT = 24


def check_bfs_rank(n: int) -> None:
    """Reject a rank past BFS_RANK_LIMIT, before the search allocates."""
    if n > BFS_RANK_LIMIT:
        raise DomainError(f"rank n={n} exceeds the BFS rank limit {BFS_RANK_LIMIT}")


def _bracket_walk(n: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Count the rank-n matchings by their bracket sets, building no diagram.

    Returns ``(counts, ends)``: ``counts[key]`` is the number of matchings
    whose brackets are exactly the set bits of ``key``, and bit b stands
    for the bracket ``ends[b]``, a pair of 1-based labels.  The C(n,2)
    left-bracket bits come first, then the C(n,2) right-bracket bits.  A
    key is an H-class, so ``counts`` holds the H-class sizes.

    The pairing walk :func:`_pairings` walks every prefix, in the order of
    :func:`enumerate_all`: the smallest free point is paired with each
    larger one in turn, a line adding no bit, down to six free points.
    Each distinct (six free points, prefix key) is finished once, its 15
    keys counted times its count, in first-seen order, so ``counts`` keeps
    that order.  The 15 keys are the prefix key or'd with the bracket
    masks of the six free points under each row of the table; those masks
    are built once per six-set, when it first appears (210 six-sets at
    n = 7, 462 at n = 8, against 3,227 and 24,661 distinct prefixes).
    Ranks 1 to 3 are read whole from :func:`_matchings`.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    check_walk_rank(n)
    size = 2 * n
    bit = [[0] * size for _ in range(size)]
    ends: list[tuple[int, int]] = []
    for lo in (0, n):
        for p, q in itertools.combinations(range(lo, lo + n), 2):
            bit[p][q] = 1 << len(ends)
            ends.append((p - lo + 1, q - lo + 1))
    counts: dict[int, int] = {}
    get = counts.get
    if n <= 3:
        for partner in _matchings(size):
            k = sum([bit[p][q] for p, q in enumerate(partner) if p < q])
            counts[k] = get(k, 0) + 1
        return counts, ends
    finish: dict[tuple[int, ...], list[int]] = {}
    for (free, key), times in collections.Counter(_pairings(size, [0] * size, bit)).items():
        masks = finish.get(free)
        if masks is None:
            rows = [bit[p] for p in free]
            masks = finish[free] = [
                rows[a][free[b]] | rows[c][free[d]] | rows[e][free[f]]
                for (a, b), (c, d), (e, f) in _SIX_POINT_PAIRS
            ]
        for m in masks:
            k = key | m
            counts[k] = get(k, 0) + times
    return counts, ends


def count_all(n: int) -> int:
    """(2n-1)!!, the number of rank-n diagrams."""
    return math.prod(range(1, 2 * n, 2))


def random_diagram(n: int, rng) -> BrauerDiagram:
    """Uniformly random diagram (rng is a ``random.Random``)."""
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
