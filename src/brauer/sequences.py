"""
Connected sequences of 2-subsets and the intersection graph on them.

A connected sequence is a nonempty run of 2-subsets of {1..n} in which
consecutive subsets intersect; it is held as a presentation ``Word``
whose consecutive quarks meet.  Sequences are identified when one turns
into the other by the local moves

    (I)    {i,j},{i,j}        <->  {i,j}
    (II)   {i,j},{j,k},{k,l}  <->  {i,j},{i,l},{k,l}   (i != l)
    (III)  {i,j},{j,k},{k,i}  <->  {i,j},{k,i}
    (IV)   {i,j},{j,k},{i,j}  <->  {i,j}

which are the ``RELATION_RULES`` entries R2, R3, R4 and R5 of the
presentation restricted to connected words: both sides of each are
connected and share their first and last pair.  Equivalence classes
biject with corank-2 diagrams (map a sequence to the product of the
matching atoms), so equivalence is decided semantically through that
canonical diagram.  The counts below walk, through
``diagram._bracket_walk``, only the matchings with at most one left
bracket, and so at most one right one, and keep the corank-2 bracket
sets.  The bound drops no corank-2 matching: the walk only adds
bracket bits, so a state already holding a left bracket has no
corank <= 2 completion that takes another.
Interpreting subsets as vertices of the intersection graph, sequences
are walks, the class count is n(n-1)n!/4, and the classes of walks
between two fixed vertices number (n-2)!.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# enumerate_all has no caller here; perfbench/tracing.py patches it here by name
from brauer.diagram import BrauerDiagram, DomainError, _bracket_walk, check_ceiling, enumerate_all
from brauer.presentation import Quark, Word, parse_pair_list, phi

__all__ = [
    "seq_canonical",
    "seq_equivalent",
    "count_classes",
    "expected_class_count",
    "count_paths",
    "corank2_census",
    "gamma_graph",
    "parse_sequence",
    "enumerate_all",
]


def _require_connected(s: Word) -> None:
    for a, b in zip(s.quarks, s.quarks[1:]):
        if not a.meets(b):
            raise DomainError(f"consecutive pairs {a} and {b} are disjoint")


def sequence(n: int, pairs: Iterable[Sequence[int]]) -> Word:
    """Build a connected sequence; rejects pairs beyond the rank and
    disjoint consecutive pairs."""
    quarks = tuple(Quark(i, j) for i, j in pairs)
    for q in quarks:
        if q.j > n:
            raise DomainError(f"pair {q} exceeds rank n={n}")
    s = Word(n, quarks)
    _require_connected(s)
    return s


def seq_canonical(s: Word) -> BrauerDiagram:
    """The canonical form of a class: the product of the matching atoms.

    Connectedness pins the corank at exactly 2; a disconnected word is
    rejected.
    """
    _require_connected(s)
    return phi(s)


def seq_equivalent(a: Word, b: Word) -> bool:
    """Equivalence under moves (I)-(IV), decided via canonical diagrams."""
    if a.n != b.n:
        raise DomainError(f"rank mismatch: {a.n} != {b.n}")
    return seq_canonical(a) == seq_canonical(b)


def expected_class_count(n: int) -> int:
    """n(n-1)n!/4."""
    return n * (n - 1) * math.factorial(n) // 4


def count_classes(n: int) -> int:
    """Number of equivalence classes, counted as the corank-2 matchings
    they biject with, over the rank-n matchings with at most one bracket
    on each side."""
    if n < 2:
        raise DomainError("classes need n >= 2")
    return sum(corank2_census(n).values())


def count_paths(n: int, frm: Sequence[int], to: Sequence[int]) -> int:
    """Number of classes of sequences with the given first and last pair,
    counted as corank-2 diagrams with those brackets; always (n-2)!."""
    if n < 2:
        raise DomainError("paths need n >= 2")
    frm_q, to_q = Quark(*frm), Quark(*to)
    if frm_q.j > n or to_q.j > n:
        raise DomainError("endpoint pairs exceed the rank")
    return corank2_census(n)[(frm_q.i, frm_q.j), (to_q.i, to_q.j)]


def corank2_census(n: int, walk: tuple[dict[int, int], list] | None = None) -> dict:
    """Counts of corank-2 diagrams keyed by (left bracket, right bracket),
    each bracket a sorted pair of 1-based labels.

    One walk over the matchings with at most one left bracket, and so at
    most one right bracket (``_bracket_walk(n, bounded=True)``, which
    drops no corank-2 matching), counts the bracket sets.  Every key has
    as many left-bracket bits as right-bracket bits, and the left bits lie
    below the right ones, so a corank-2 key is a key of two bits: its
    lowest bit (``key & -key``) is the left bracket and its highest bit
    the right one.  ``walk``, if given, is a finished
    ``_bracket_walk`` result, bounded or not, read instead of walking
    again.
    """
    counts, ends = _bracket_walk(n, bounded=True) if walk is None else walk
    return {
        (ends[(key & -key).bit_length() - 1], ends[key.bit_length() - 1]): size
        for key, size in counts.items()
        if key.bit_count() == 2
    }


# --- the intersection graph -------------------------------------------------

def gamma_graph(n: int) -> str:
    """The graph on the 2-subsets of {1..n}, edges joining intersecting
    subsets, in DOT form; vertices in colex order."""
    if n < 2:
        raise DomainError("the pair graph needs n >= 2")
    check_ceiling("pair graph", n)
    vertices = [Quark(i, j) for j in range(2, n + 1) for i in range(1, j)]
    lines = [f"graph gamma{n} {{"]
    lines += [f'  "{q.i},{q.j}";' for q in vertices]
    lines += [
        f'  "{a.i},{a.j}" -- "{b.i},{b.j}";'
        for x, a in enumerate(vertices)
        for b in vertices[x + 1:]
        if a.meets(b)
    ]
    lines.append("}")
    return "\n".join(lines)


# --- text format -------------------------------------------------------------

def parse_sequence(n: int, text: str) -> Word:
    """Parse the bare pair-list form ``(1,2)(2,3)(3,4)``."""
    check_ceiling("word", n)
    return sequence(n, parse_pair_list(text))

