"""
Exhaustive verification suites behind the ``verify`` CLI subcommand.

Each suite recomputes one of the checkable claims at rank n and compares
against the closed-form value: relation families under evaluation,
generation of the singular part by atoms, irreducibility of the atom
system, the maximal geodesic length and the cycle-formula lengths,
enumeration and class counts, and H-class sizes.  A suite runs at any
n >= 2; the command line bounds n per suite before it runs any.
The ``counts`` suite checks the diagram total over ``enumerate_all``,
the public enumerator; its class claims and the ``hclasses`` suite
count bracket sets with ``diagram._bracket_walk``, which visits every
matching as an int key and builds no diagram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from brauer.decomposition import atom_closure, is_irreducible_generator_check
from brauer.diagram import _atom_pairs, _bracket_walk, count_all, enumerate_all, make_diagram
from brauer.geodesics import bfs_lengths, expected_max_length, ls_via_cycles
from brauer.presentation import check_all_relations
from brauer.sequences import corank2_census, expected_class_count

__all__ = ["Claim", "SUITES"]


@dataclass(frozen=True)
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
        return {
            "suite": self.suite,
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "detail": self.detail,
            "ok": self.ok,
        }


def _suite_relations(n: int) -> list[Claim]:
    checked, violations = check_all_relations(n)
    detail = " ".join(f"{r}:{c}" for r, c in sorted(checked.items()))
    return [Claim("relations", f"relation violations (n={n})", 0, len(violations), detail)]


def _suite_generation(n: int) -> list[Claim]:
    closure = atom_closure(n)
    expected = count_all(n) - math.factorial(n)
    claims = [
        Claim("generation", f"atom-closure size (n={n})", expected, len(closure),
              f"(2n-1)!! - n! = {count_all(n)} - {math.factorial(n)}")
    ]
    singular = {d.partner for d in enumerate_all(n) if d.corank >= 2}
    claims.append(
        Claim("generation", f"closure equals corank>=2 set (n={n})", True, closure == singular)
    )
    return claims


def _suite_irreducible(n: int) -> list[Claim]:
    reducible = is_irreducible_generator_check(n)
    return [
        Claim("irreducible", f"reducible atoms (n={n})", 0, len(reducible),
              f"{math.comb(n, 2)} atoms checked")
    ]


def _suite_lengths(n: int) -> list[Claim]:
    table = bfs_lengths(n)
    value, witness = table.max_entry()
    claims = [
        Claim("lengths", f"maximal length (n={n})", expected_max_length(n), value,
              f"witness {witness.to_text()}")
    ]
    # the {1,2} H-class: blocks {1,2}, {1',2'} and one line set per
    # permutation of {3..n}
    points = range(3, n + 1)
    h12 = (
        make_diagram(n, [(1, 2), (-1, -2), *((k, -image) for k, image in zip(points, images))])
        for images in itertools.permutations(points)
    )
    mismatches = sum(1 for d in h12 if ls_via_cycles(d) != table[d])
    claims.append(
        Claim("lengths", f"cycle-formula mismatches on the {{1,2}} class (n={n})", 0, mismatches)
    )
    return claims


def _suite_counts(n: int) -> list[Claim]:
    total = sum(1 for _ in enumerate_all(n))
    corank2 = corank2_census(n)
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


def _suite_hclasses(n: int) -> list[Claim]:
    # one key per H-class; its left-bracket bits cover 2k points, leaving n - 2k lines
    sizes, _ = _bracket_walk(n)
    left = (1 << math.comb(n, 2)) - 1
    classes = [(n - 2 * (key & left).bit_count(), size) for key, size in sizes.items()]
    bad = sum(1 for lines, size in classes if size != math.factorial(lines))
    by_corank = sorted({(n - lines, math.factorial(lines)) for lines, _ in classes})
    detail = " ".join(f"corank {c}: {s}" for c, s in by_corank)
    return [Claim("hclasses", f"H-classes off (n-2k)! (n={n})", 0, bad, detail)]


SUITES = {
    "relations": _suite_relations,
    "generation": _suite_generation,
    "irreducible": _suite_irreducible,
    "lengths": _suite_lengths,
    "counts": _suite_counts,
    "hclasses": _suite_hclasses,
}
