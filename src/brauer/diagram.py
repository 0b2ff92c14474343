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
is the one general product, O(n).  The breadth-first search over the
atoms steps in O(1) instead: right multiplication by the atom {i,j}
changes at most four partner slots (see :func:`_bfs_levels`).

Make each point k a node with a top port k and a bottom port k'; the
blocks join ports, so the nodes fall into cycles, which :func:`_cycles`
walks.  Geodesic lengths and orbit keys are read off the cycle words, and
``decompose`` factors a permutation cycle by cycle in walk order.

The counting claims need only how many matchings share each bracket set,
so :func:`_bracket_walk` visits every matching and counts it under an int
key of its brackets, building no partner tuple and no diagram.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Sequence

__all__ = [
    "DomainError",
    "GreenRelation",
    "BrauerDiagram",
    "make_diagram",
    "identity",
    "atom",
    "multiply",
    "green_related",
    "enumerate_all",
    "random_diagram",
    "parse_diagram",
]


class DomainError(ValueError):
    """Invalid input or violated precondition in a monoid operation."""


class GreenRelation(str, Enum):
    R = "R"
    L = "L"
    H = "H"
    D = "D"  # D and J coincide in the Brauer monoid


@dataclass(frozen=True)
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
        n = self.n
        return frozenset(
            frozenset((p + 1, q + 1))
            for p, q in enumerate(self.partner)
            if p < q < n
        )

    def right_brackets(self) -> frozenset[frozenset[int]]:
        """Blocks lying entirely in {1'..n'}, as sets of unprimed labels."""
        n = self.n
        return frozenset(
            frozenset((p - n + 1, q - n + 1))
            for p, q in enumerate(self.partner)
            if n <= p < q
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
        n = self.n
        flip = lambda p: p + n if p < n else p - n
        new = [0] * (2 * n)
        for p, q in enumerate(self.partner):
            new[flip(p)] = flip(q)
        return BrauerDiagram(tuple(new))

    def __mul__(self, other: BrauerDiagram) -> BrauerDiagram:
        if not isinstance(other, BrauerDiagram):
            return NotImplemented
        return multiply(self, other)

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
    return BrauerDiagram(tuple(range(n, 2 * n)) + tuple(range(n)))


def atom(n: int, i: int, j: int) -> BrauerDiagram:
    """The idempotent with blocks {i,j}, {i',j'} and identity lines elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"atom indices must lie in 1..{n}")
    if i == j:
        raise DomainError("atom indices must be distinct")
    partner = list(range(n, 2 * n)) + list(range(n))
    i0, j0 = i - 1, j - 1
    partner[i0], partner[j0] = j0, i0
    partner[n + i0], partner[n + j0] = n + j0, n + i0
    return BrauerDiagram(tuple(partner))


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
    pairs: list[tuple[int, int]],
    key: Callable[[tuple[int, ...]], Hashable] | None = None,
) -> dict[Hashable, int]:
    """Multi-source breadth-first search from the atoms {i,j} named by
    ``pairs`` (1-based), extending by right multiplication with them.

    Maps the partner array of every element of the generated semigroup
    to the least number of those atoms whose product it is (the atoms
    themselves at 1).

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
    """
    dist: dict[Hashable, int] = {}
    frontier = []
    for i, j in pairs:
        p = atom(n, i, j).partner
        k = p if key is None else key(p)
        if k not in dist:
            dist[k] = 1
            frontier.append(p)
    steps = [(n + i - 1, n + j - 1) for i, j in pairs]
    level = 1
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


def multiply(a: BrauerDiagram, b: BrauerDiagram) -> BrauerDiagram:
    """Chain composition, a's chip on the left."""
    if a.n != b.n:
        raise DomainError(f"rank mismatch: {a.n} != {b.n}")
    return BrauerDiagram(_compose(a.n, a.partner, b.partner))


def green_related(a: BrauerDiagram, b: BrauerDiagram, rel: GreenRelation | str) -> bool:
    """Decide Green's relations via bracket sets.

    R: same left brackets; L: same right brackets; H: both;
    D (= J): equal corank.
    """
    if a.n != b.n:
        raise DomainError(f"rank mismatch: {a.n} != {b.n}")
    rel = GreenRelation(rel)
    if rel is GreenRelation.R:
        return a.left_brackets() == b.left_brackets()
    if rel is GreenRelation.L:
        return a.right_brackets() == b.right_brackets()
    if rel is GreenRelation.H:
        return (
            a.left_brackets() == b.left_brackets()
            and a.right_brackets() == b.right_brackets()
        )
    return a.corank == b.corank


def enumerate_all(n: int) -> Iterator[BrauerDiagram]:
    """Yield every rank-n diagram exactly once ((2n-1)!! of them).

    Order: repeatedly match the smallest unmatched point with each larger
    free point in increasing order, so the first diagram pairs index 0
    with 1, 2 with 3, and so on.  The lazy generator backtracks on one
    partner list with an explicit stack of the smaller ends of the pairs
    made.  Any n is taken; the command line bounds it.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")

    def matchings() -> Iterator[BrauerDiagram]:
        size = 2 * n
        partner = [-1] * size
        stack: list[int] = []
        p = q = 0
        while True:
            # pair p with the next free point after q; with none left, undo the last pair
            q += 1
            while q < size and partner[q] != -1:
                q += 1
            if q < size:
                partner[p], partner[q] = q, p
                stack.append(p)
                if len(stack) < n:
                    while partner[p] != -1:
                        p += 1
                    q = p
                    continue
                yield BrauerDiagram(tuple(partner))
            if not stack:
                return
            p = stack.pop()
            q = partner[p]
            partner[p] = partner[q] = -1

    return matchings()


def _bracket_walk(n: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Count the rank-n matchings by their bracket sets, building no diagram.

    Returns ``(counts, ends)``: ``counts[key]`` is the number of matchings
    whose brackets are exactly the set bits of ``key``, and bit b stands
    for the bracket ``ends[b]``, a pair of 1-based labels.  The C(n,2)
    left-bracket bits come first, then the C(n,2) right-bracket bits.  A
    key is an H-class, so ``counts`` holds the H-class sizes.

    Every one of the (2n-1)!! matchings is visited once, in the order of
    :func:`enumerate_all`: the smallest free point is paired with each
    larger one in turn, a line adding no bit, and the three matchings of
    the last four points are written out.
    """
    if n < 1:
        raise DomainError("rank n must be a positive integer")
    size = 2 * n
    bit = [[0] * size for _ in range(size)]
    ends: list[tuple[int, int]] = []
    for lo in (0, n):
        for p, q in itertools.combinations(range(lo, lo + n), 2):
            bit[p][q] = 1 << len(ends)
            ends.append((p - lo + 1, q - lo + 1))
    counts: dict[int, int] = {}
    get = counts.get

    def walk(free: tuple[int, ...], key: int) -> None:
        if len(free) > 4:
            row = bit[free[0]]
            for k in range(1, len(free)):
                walk(free[1:k] + free[k + 1:], key | row[free[k]])
            return
        a, b, c, d = free
        ra, rb = bit[a], bit[b]
        k = key | ra[b] | bit[c][d]
        counts[k] = get(k, 0) + 1
        k = key | ra[c] | rb[d]
        counts[k] = get(k, 0) + 1
        k = key | ra[d] | rb[c]
        counts[k] = get(k, 0) + 1

    if n == 1:
        counts[0] = 1  # the one matching is a line
    else:
        walk(tuple(range(size)), 0)
        # walk's closure holds walk itself, and with it counts: unbind it so
        # that counts dies with its caller, not at the next full collection
        del walk
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


_HEADER_RE = re.compile(r"n\s*=\s*(\d+)\s*;")
_BLOCK_RE = re.compile(r"\{\s*(\d+)(')?\s*,\s*(\d+)(')?\s*\}")


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
