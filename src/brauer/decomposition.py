"""
Constructive factorization of singular diagrams into atoms, and the
closure and irreducibility checks on the atom system.

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
"""

from __future__ import annotations

from brauer.diagram import BrauerDiagram, DomainError, _atom_pairs, _bfs_levels, atom
from brauer.presentation import Quark, Word

__all__ = [
    "decompose",
    "atom_closure",
    "is_irreducible_generator_check",
]


def _theta_cycles(theta: dict[int, int]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of a permutation given as a map, sorted by
    smallest point, each starting there and following theta."""
    cycles = []
    seen: set[int] = set()
    for start in sorted(theta):
        if start in seen or theta[start] == start:
            continue
        cycle = [start]
        x = theta[start]
        while x != start:
            cycle.append(x)
            x = theta[x]
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


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
    the bracket atom (a,b), then for each nontrivial cycle of xi's
    permutation of the other points a run of atoms (a,point), walking
    the cycle against the permutation from its smallest point, and the
    bracket atom again.  The bridge atoms follow, each unless it repeats
    the last letter.

    On the {1,2} class the word has the length given by the cycle
    formula, so it is a geodesic there.  Output length is at most
    corank/2 + 3(n-2)/2 + 3.
    """
    if pi.corank < 2:
        raise DomainError("invertible elements do not factor into atoms")
    lefts = sorted(tuple(sorted(b)) for b in pi.left_brackets())
    rights = sorted(tuple(sorted(b)) for b in pi.right_brackets())
    lines = pi.lines()
    quarks = []
    if len(lefts) > 1:
        quarks = [Quark(u, v) for u, v in lefts]
        for (u, v), (f, g) in zip(lefts[1:], rights[1:]):
            lines[u], lines[v] = f, g
    bridge = []
    if lefts[0] != rights[0]:
        u, v, f, g = _bridge_labels(lefts[0], rights[0])
        moved = {u: f, v: f if u == g else g}
        lines = {i: moved.get(image, image) for i, image in lines.items()}
        bridge = [Quark(v, f), Quark(f, g)]
    a, b = lefts[0]
    base = Quark(a, b)
    quarks.append(base)
    for cycle in _theta_cycles(lines):
        quarks += [Quark(a, point) for point in (cycle[0],) + cycle[:0:-1]]
        quarks.append(base)
    for q in bridge:
        if quarks[-1] != q:
            quarks.append(q)
    return Word(pi.n, tuple(quarks))


def atom_closure(n: int) -> set[BrauerDiagram]:
    """Multiplicative closure of the rank-n atoms, computed by
    breadth-first right multiplication."""
    return {BrauerDiagram(p) for p in _bfs_levels(n, _atom_pairs(n))}


def is_irreducible_generator_check(n: int) -> list[tuple[int, int]]:
    """The brackets of the atoms that lie in the multiplicative closure
    of the others; empty when the atom system is irreducible.

    One closure decides every atom.  Relabelling the points by a
    permutation s (i -> s(i), i' -> s(i)') is an automorphism of the
    monoid that maps atoms to atoms, so it maps the closure of the atoms
    other than {i,j} onto the closure of the atoms other than
    {s(i),s(j)}.  Every atom is a relabelling of {1,2}, so either every
    atom lies in the closure of the others or none does, and the closure
    of the atoms other than {1,2} settles which.
    """
    pairs = _atom_pairs(n)
    if atom(n, 1, 2).partner in _bfs_levels(n, pairs[1:]):
        return pairs
    return []
