"""
Constructive factorization of singular diagrams into atoms, and the
multiplicative closure of the atoms.

Every diagram of corank >= 2 factors as a product of atoms.
:func:`decompose` builds the factorization in one pass over the sorted
brackets and the line map, building no intermediate diagram.  The left
brackets, when there are several, become a prefix of atoms; the spare
brackets then turn into lines, which leaves one left and one right
bracket.  When those differ, a two-atom bridge moves the right bracket
onto the left one.  What remains is a permutation of the other points,
factored through its cycles.  On the {1,2} class the word is a geodesic;
beyond it no minimality is claimed (shortest factorizations live in the
geodesics module).  The contract is the round trip
``phi(decompose(pi)) == pi`` and that the first factor is a left bracket
of pi.

The closure is a union of conjugation orbits, since relabelling maps
atoms to atoms, so :func:`atom_closure` returns the orbit table of the
geodesic search: one entry per orbit, 135 at n = 8, whose length is the
closure's size.
"""

from __future__ import annotations

from brauer.diagram import BrauerDiagram, DomainError, _cycles
from brauer.geodesics import GeodesicTable, bfs_lengths
from brauer.presentation import Quark, Word

__all__ = [
    "decompose",
    "atom_closure",
]


def _bridge_labels(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int, int, int]:
    """Choose (u, v, f, g) with {u,v} the left bracket, {f,g} the right
    one, and v outside {f,g}; smallest (v, f, g) wins."""
    candidates = []
    for u, v in (left, (left[1], left[0])):
        for f, g in (right, (right[1], right[0])):
            if v != f and v != g:
                candidates.append((v, f, g, u))
    v, f, g, u = min(candidates)
    return u, v, f, g


def decompose(pi: BrauerDiagram) -> Word:
    """Full atom factorization of a singular diagram, in one pass.

    With more than one left bracket, all of them are peeled off as a
    commuting prefix of atoms (sorted by smaller point), and every left
    bracket (u,v) but the smallest turns into the lines u -> f',
    v -> g' to the right bracket (f,g) of the same rank in sorted order.
    That leaves one left bracket {a,b} and one right bracket.  If they
    differ, the rest factors as xi * sigma_{v,f} sigma_{f,g}, with
    (u,v,f,g) from :func:`_bridge_labels` and xi in the group over
    {a,b}: xi's lines are the remaining lines with u' moved to f', and
    v' moved to f' if u == g and to g' otherwise.  The word for xi is
    the bracket atom (a,b), then for each cycle of length >= 2 of xi's
    permutation of the other points a run of atoms (a,point) and the
    bracket atom again.  Cycles and points come in the walk order of
    ``diagram._cycles`` on xi's lines, with a and b as identity lines:
    cycles by smallest point, each from there against the permutation.
    The bridge atoms follow, each unless it repeats the last letter.

    On the {1,2} class the word has the length given by the cycle
    formula, so it is a geodesic there.  Output length is at most
    corank/2 + 3(n-2)/2 + 3.
    """
    if pi.corank < 2:
        raise DomainError("invertible elements do not factor into atoms")
    p = pi.partner
    n = len(p) // 2
    # brackets as sorted 1-based pairs in order, and the 0-based end of the
    # line from each point (overwritten below on the bracket points)
    lefts = [(x + 1, y + 1) for x, y in enumerate(p[:n]) if x < y < n]
    rights = [(x + 1, y - n + 1) for x, y in enumerate(p[n:]) if x + n < y]
    line = [y - n for y in p[:n]]
    quarks = []
    if len(lefts) > 1:
        quarks = [Quark(u, v) for u, v in lefts]
        for (u, v), (f, g) in zip(lefts[1:], rights[1:]):
            line[u - 1], line[v - 1] = f - 1, g - 1
    bridge = []
    if lefts[0] != rights[0]:
        u, v, f, g = _bridge_labels(lefts[0], rights[0])
        moved = {u - 1: f - 1, v - 1: f - 1 if u == g else g - 1}
        line = [moved.get(y, y) for y in line]
        bridge = [Quark(v, f), Quark(f, g)]
    a, b = lefts[0]
    line[a - 1], line[b - 1] = a - 1, b - 1
    xi = [0] * (2 * n)
    for x, y in enumerate(line):
        xi[x], xi[y + n] = y + n, x
    base = Quark(a, b)
    quarks.append(base)
    words, nodes = _cycles(xi)
    start = 0
    for word in words:
        if len(word) > 1:
            quarks += [Quark(a, node + 1) for node in nodes[start:start + len(word)]]
            quarks.append(base)
        start += len(word)
    for q in bridge:
        if quarks[-1] != q:
            quarks.append(q)
    return Word(n, tuple(quarks))


def atom_closure(n: int) -> GeodesicTable:
    """Multiplicative closure of the rank-n atoms, as its conjugation
    orbits: the table of ``bfs_lengths(n)``, whose length is the sum of
    the orbit sizes; read ``orbits`` or ``representatives()``.  The name
    stays only because ``perfbench/`` traces it (ROADMAP item 15 deletes
    it)."""
    return bfs_lengths(n)
