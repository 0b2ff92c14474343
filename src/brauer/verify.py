"""
Exhaustive verification suites behind the ``verify`` CLI subcommand.

Each suite recomputes one of the checkable claims at rank n and compares
against the closed-form value: relation families under evaluation,
generation of the singular part by atoms (from the orbit table of the
atom closure and its size alone: one orbit search, 135 orbits at n=8),
irreducibility of the atoms (a lemma on the orbits), the maximal
geodesic length and the cycle-formula lengths (on one representative
of every orbit), enumeration and class counts, and H-class sizes.  A
suite runs at any n >= 2; the command line bounds n per suite before it
runs any.
The ``counts`` suite checks the diagram total over ``enumerate_all``,
the public enumerator; its class claims and the ``hclasses`` suite
count bracket sets with ``diagram._bracket_walk``, which counts every
matching under an int key of its brackets and builds no diagram.

``run_suites`` runs the suites of one ``verify`` call.  It hands each
suite the rank and the call's one lazy bracket walk, a function of no
arguments: the first suite that calls it starts the walk, a later one
reads the same result, and the result dies with the call.  So
``counts`` and ``hclasses`` together walk once, and a call with neither
does not walk.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Callable

from brauer.decomposition import atom_closure
from brauer.diagram import _atom_pairs, _bracket_walk, atom, count_all, enumerate_all, multiply
from brauer.geodesics import bfs_lengths, expected_max_length, ls_via_cycles
from brauer.presentation import check_all_relations
from brauer.sequences import corank2_census, expected_class_count

__all__ = ["Claim", "SUITES", "run_suites"]

# the call's shared bracket walk: returns _bracket_walk(n), walking on first use
Walk = Callable[[], tuple[dict[int, int], list[tuple[int, int]]]]


@dataclasses.dataclass(frozen=True)
class Claim:
    suite: str
    name: str
    expected: object
    computed: object
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.expected == self.computed

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"{status} {self.name}: expected {self.expected}, computed {self.computed}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_json_obj(self) -> dict:
        return {**dataclasses.asdict(self), "ok": self.ok}


def _suite_relations(n: int, walk: Walk) -> list[Claim]:
    checked, violations = check_all_relations(n)
    detail = " ".join(f"{r}:{c}" for r, c in sorted(checked.items()))
    return [Claim("relations", f"relation violations (n={n})", 0, len(violations), detail)]


def _suite_generation(n: int, walk: Walk) -> list[Claim]:
    """Every product of atoms is singular (some unprimed point is matched
    with another, ``min(p[:n]) < n``), so the closure lies in the corank
    >= 2 set; if it also has that set's (2n-1)!! - n! elements, the two
    sets are equal, and no enumeration of the monoid is needed.  The
    closure is read as the orbit table of one search:
    1. Conjugation maps atoms to atoms, so the closure is a union of
       S_n-orbits.
    2. The orbit search expands one representative per orbit exactly
       (``geodesics.bfs_lengths``), so it reaches every orbit of the
       closure.
    3. The orbit key is a complete invariant, so distinct keys are
       distinct orbits.
    4. ``geodesics._orbit_size`` is n!/|Aut|, so the table's length is the
       closure's size.
    Corank does not change under relabelling, so one representative per
    orbit shows that every element is singular.
    """
    closure = atom_closure(n)
    expected = count_all(n) - math.factorial(n)
    singular = len(closure) == expected and all(
        min(d.partner[:n]) < n for d, _ in closure.representatives())
    return [
        Claim("generation", f"atom-closure size (n={n})", expected, len(closure),
              f"(2n-1)!! - n! = {count_all(n)} - {math.factorial(n)}"),
        Claim("generation", f"closure equals corank>=2 set (n={n})", True, singular),
    ]


def _suite_irreducible(n: int, walk: Walk) -> list[Claim]:
    """Lemma: right multiplication by an atom keeps every left bracket,
    checked by ``multiply`` on each orbit representative d times each atom a.
    1. The representatives cover every element: relabelling by s gives
       s(d) a = s(d s^-1(a)), and s^-1(a) is again an atom.
    2. So by the lemma a_1 ... a_k keeps the left bracket of a_1.
    3. tau_{i,j} has the single left bracket {i,j}, so no atom is in the
       closure of the others when no two atoms share a left bracket.
    East and Gray ("Diagram monoids and Graham-Houghton graphs", J. Combin.
    Theory Ser. A 146, 2017) give the rank and idempotent rank of each ideal.
    """
    atoms = [atom(n, i, j) for i, j in _atom_pairs(n)]
    table = bfs_lengths(n)
    dropped = sum(not d.left_brackets() <= multiply(d, a).left_brackets()
                  for d, _ in table.representatives() for a in atoms)
    brackets = [a.left_brackets() for a in atoms]
    shared = sum(brackets.count(b) > 1 for b in brackets)
    return [
        Claim("irreducible", f"left brackets dropped by an atom step (n={n})", 0, dropped,
              f"{len(table.orbits)} orbits x {len(atoms)} atoms"),
        Claim("irreducible", f"atoms sharing a left bracket (n={n})", 0, shared,
              f"{len(atoms)} atoms"),
    ]


def _suite_lengths(n: int, walk: Walk) -> list[Claim]:
    # the cycle words are invariant under relabelling (geodesics docstring),
    # so one representative per orbit checks every singular element
    table = bfs_lengths(n)
    value, witness = table.max_entry()
    mismatches = sum(ls_via_cycles(d) != v for d, v in table.representatives())
    return [
        Claim("lengths", f"maximal length (n={n})", expected_max_length(n), value,
              f"witness {witness.to_text()}"),
        Claim("lengths", f"cycle-formula mismatches on every orbit (n={n})", 0, mismatches,
              f"{len(table.orbits)} orbits"),
    ]


def _suite_counts(n: int, walk: Walk) -> list[Claim]:
    total = sum(1 for _ in enumerate_all(n))
    corank2 = corank2_census(n, walk())
    classes = sum(corank2.values())
    pairs = _atom_pairs(n)
    bad_paths = sum(
        1
        for frm in pairs
        for to in pairs
        if corank2.get((frm, to), 0) != math.factorial(n - 2)
    )
    return [
        Claim("counts", f"diagram count (n={n})", count_all(n), total, "(2n-1)!!"),
        Claim("counts", f"class count (n={n})", expected_class_count(n), classes,
              "n(n-1)n!/4"),
        Claim("counts", f"endpoint pairs off (n-2)! (n={n})", 0, bad_paths,
              f"{len(pairs) ** 2} endpoint pairs"),
    ]


def _suite_hclasses(n: int, walk: Walk) -> list[Claim]:
    # one key per H-class; its k left and k right brackets are 2k bits, leaving n - 2k lines
    sizes, _ = walk()
    expected = [math.factorial(n - bits) for bits in range(n + 1)]
    coranks = list(map(int.bit_count, sizes))
    bad = sum(map(operator.ne, sizes.values(), map(expected.__getitem__, coranks)))
    detail = " ".join(f"corank {c}: {expected[c]}" for c in sorted(set(coranks)))
    return [Claim("hclasses", f"H-classes off (n-2k)! (n={n})", 0, bad, detail)]


SUITES = {
    "relations": _suite_relations,
    "generation": _suite_generation,
    "irreducible": _suite_irreducible,
    "lengths": _suite_lengths,
    "counts": _suite_counts,
    "hclasses": _suite_hclasses,
}


def run_suites(n: int, names: list[str]) -> list[Claim]:
    """The claims of the named suites at rank n, suite by suite, all
    sharing one lazy bracket walk (module docstring)."""
    walk = functools.cache(functools.partial(_bracket_walk, n))
    return [c for name in names for c in SUITES[name](n, walk)]
