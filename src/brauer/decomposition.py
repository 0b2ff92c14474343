"""
Constructive factorization of singular diagrams into atoms.

Every diagram of corank >= 2 factors as a product of atoms.  The
factorization built here peels all left brackets off as a prefix of
atoms, reduces what remains to a single corank-2 element, bridges that
element into the group sitting over its left bracket, and factors the
group element through the cycle structure of its underlying permutation.
No minimality is claimed (shortest factorizations live in the geodesics
module); the contract is the round trip ``phi(decompose(pi)) == pi`` and
that the first factor is a left bracket of pi.
"""

from __future__ import annotations

from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _atom_pairs,
    _bfs_levels,
    atom,
    atoms,
    make_diagram,
)
from brauer.presentation import Quark, Word

__all__ = [
    "decompose_group_corank2",
    "decompose_corank2",
    "decompose",
    "atom_closure",
    "is_irreducible_generator_check",
]


def _single_bracket(brackets) -> tuple[int, int]:
    (b,) = brackets
    return tuple(sorted(b))


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


def decompose_group_corank2(pi: BrauerDiagram) -> Word:
    """Factor a corank-2 element whose left and right bracket coincide.

    Such an element restricts to a permutation theta on the remaining
    points; each nontrivial cycle contributes a run of atoms anchored at
    the smaller bracket point, with the bracket atom separating runs.
    Cycles are emitted sorted by smallest moved point and starting at it,
    walking against theta (the orientation that left-to-right chip
    gluing realizes).  On the {1,2} class the word has the length given
    by the cycle formula, so it is a geodesic there.
    """
    if pi.corank != 2:
        raise DomainError("expected a corank-2 element")
    u, v = _single_bracket(pi.left_brackets())
    if pi.left_brackets() != pi.right_brackets():
        raise DomainError("element is not in the group over its bracket")
    base = Quark(u, v)
    quarks = [base]
    for cycle in _theta_cycles(pi.lines()):
        for point in (cycle[0],) + cycle[:0:-1]:
            quarks.append(Quark(u, point))
        quarks.append(base)
    return Word(pi.n, tuple(quarks))


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


def decompose_corank2(pi: BrauerDiagram) -> Word:
    """Factor any corank-2 element into atoms.

    If the left and right bracket agree this is the group case.  Otherwise
    compose with the two-atom bridge tau = sigma_{v,f} sigma_{f,g}: the
    element factors as xi * tau with xi in the group over {u,v}, and xi's
    lines are recovered from pi's by undoing what the bridge moved.
    """
    if pi.corank != 2:
        raise DomainError("expected a corank-2 element")
    n = pi.n
    left = _single_bracket(pi.left_brackets())
    right = _single_bracket(pi.right_brackets())
    if left == right:
        return decompose_group_corank2(pi)
    u, v, f, g = _bridge_labels(left, right)
    lam = pi.lines()
    eta = {}
    for i, image in lam.items():
        if image == u:
            eta[i] = f
        elif image == v:
            eta[i] = f if u == g else g
        else:
            eta[i] = image
    xi_blocks = [(u, v), (-u, -v)] + [(i, -image) for i, image in eta.items()]
    xi = decompose_group_corank2(make_diagram(n, xi_blocks))
    quarks = list(xi.quarks)
    for q in (Quark(v, f), Quark(f, g)):
        if quarks[-1] != q:
            quarks.append(q)
    return Word(n, tuple(quarks))


def decompose(pi: BrauerDiagram) -> Word:
    """Full atom factorization of a singular diagram.

    All left brackets are peeled off as a commuting prefix of atoms
    (sorted by smaller point); the remainder is a single corank-2
    element assembled by pairing the leftover brackets in sorted order,
    which then factors via :func:`decompose_corank2`.  Output length is
    at most corank/2 + 3(n-2)/2 + 3.
    """
    if pi.corank < 2:
        raise DomainError("invertible elements do not factor into atoms")
    if pi.corank == 2:
        return decompose_corank2(pi)
    n = pi.n
    lefts = sorted(tuple(sorted(b)) for b in pi.left_brackets())
    rights = sorted(tuple(sorted(b)) for b in pi.right_brackets())
    theta = pi.lines()
    # anchor bracket: smallest left bracket keeps its pairing with the
    # smallest right bracket; the rest become identity-like lines
    (u0, v0), spare_lefts = lefts[0], lefts[1:]
    (f0, g0), spare_rights = rights[0], rights[1:]
    tau_blocks = [(u0, v0), (-f0, -g0)]
    tau_blocks += [(i, -image) for i, image in theta.items()]
    for (uj, vj), (fj, gj) in zip(spare_lefts, spare_rights):
        tau_blocks += [(uj, -fj), (vj, -gj)]
    tau = make_diagram(n, tau_blocks)
    quarks = [Quark(uj, vj) for uj, vj in lefts]
    quarks += decompose_corank2(tau).quarks
    return Word(n, tuple(quarks))


def atom_closure(n: int, generators=None) -> set[BrauerDiagram]:
    """Multiplicative closure of a set of rank-n atoms (default: all of
    them), computed by breadth-first right multiplication.  A generator
    of another rank, or one that is not an atom, raises DomainError."""
    if generators is None:
        pairs = _atom_pairs(n)
    else:
        pairs = [_atom_bracket(n, g) for g in generators]
    return {BrauerDiagram(p) for p in _bfs_levels(n, pairs)}


def _atom_bracket(n: int, g: BrauerDiagram) -> tuple[int, int]:
    """The bracket (i, j) of g if g is the rank-n atom {i,j}."""
    if g.n != n:
        raise DomainError(f"rank mismatch: {g.n} != {n}")
    if g.corank == 2:
        i, j = _single_bracket(g.left_brackets())
        if g == atom(n, i, j):
            return i, j
    raise DomainError(f"{g.to_text()} is not an atom")


def is_irreducible_generator_check(n: int) -> list[tuple[int, int]]:
    """The brackets of the atoms that lie in the multiplicative closure
    of the others; empty when the atom system is irreducible."""
    all_atoms = atoms(n)
    reducible = []
    for skip in all_atoms:
        others = [a for a in all_atoms if a != skip]
        if not others:
            continue
        if skip in atom_closure(n, others):
            lb = _single_bracket(skip.left_brackets())
            reducible.append(lb)
    return reducible
