"""
The presented semigroup T on quark generators tau_{i,j}.

T is generated by one idempotent generator per 2-subset {i,j} of {1..n},
subject to seven relation families (indices pairwise distinct):

    R1  tau_{i,j} = tau_{j,i}
    R2  tau_{i,j}^2 = tau_{i,j}
    R3  tau_{i,j} tau_{j,k} tau_{k,l} = tau_{i,j} tau_{i,l} tau_{k,l}
    R4  tau_{i,j} tau_{i,k} tau_{j,k} = tau_{i,j} tau_{j,k}
    R5  tau_{i,j} tau_{j,k} tau_{i,j} = tau_{i,j}
    R6  tau_{i,j} tau_{k,l} tau_{i,k} = tau_{i,j} tau_{j,l} tau_{i,k}
    R7  tau_{i,j} tau_{k,l} = tau_{k,l} tau_{i,j}

The evaluation map ``phi`` sends each quark to the corresponding diagram
atom; it is an isomorphism onto the singular part of the Brauer monoid,
so equality in T is decided by comparing phi-images.  R1 is baked into
quark storage (the pair is kept sorted).  The families are the pattern
table ``RELATION_RULES``.

A family with k variables has P(n, k) instances at rank n, one per tuple
of distinct indices, and one check settles them all.  Relabelling the
points by a permutation s of {1..n} (conjugating by its permutation
diagram) is an automorphism of the Brauer monoid that sends the atom
{i,j} to the atom {s(i),s(j)}.  Any tuple is the image of (1, ..., k)
under some s, so the instance at that tuple is the image of the instance
at (1, ..., k), and an automorphism keeps two sides equal or unequal.
So ``check_all_relations`` compares the two sides of each family once,
at (1, ..., k), by ``diagram._atom_product``, which equals phi (pinned
by test), and at rank k: adding identity lines embeds B_k in B_n as a
submonoid and sends atoms to atoms, so the check's cost does not grow
with n.  No confluent completion of the system is attempted.

Word text format: ``n=5: (1,2)(2,3)(1,2)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from brauer.diagram import BrauerDiagram, DomainError, _atom_product, atom, check_ceiling, multiply

__all__ = [
    "Quark",
    "Word",
    "RELATION_RULES",
    "phi",
    "words_equal_in_T",
    "star",
    "is_connected",
    "normalize",
    "is_normal_form",
    "gamma",
    "check_all_relations",
    "parse_word",
    "word_to_text",
]


@dataclass(frozen=True, order=True)
class Quark:
    """An unordered pair {i,j} of points, stored with i < j.

    The storage order makes tau_{i,j} = tau_{j,i} automatic.
    """

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise DomainError("quark indices must be distinct")
        if self.i < 1 or self.j < 1:
            raise DomainError("quark indices must be >= 1")
        if self.i > self.j:
            i, j = self.i, self.j
            object.__setattr__(self, "i", j)
            object.__setattr__(self, "j", i)

    def meets(self, other: Quark) -> bool:
        return self.i in (other.i, other.j) or self.j in (other.i, other.j)

    def other(self, point: int) -> int:
        if point == self.i:
            return self.j
        if point == self.j:
            return self.i
        raise DomainError(f"{point} is not in quark ({self.i},{self.j})")

    def __repr__(self) -> str:
        return f"({self.i},{self.j})"


@dataclass(frozen=True)
class Word:
    """A nonempty sequence of quarks with an explicit rank n."""

    n: int
    quarks: tuple[Quark, ...]

    def __post_init__(self):
        if not self.quarks:
            raise DomainError("a word must contain at least one quark")
        object.__setattr__(self, "quarks", tuple(self.quarks))
        for q in self.quarks:
            if q.j > self.n:
                raise DomainError(f"quark {q} exceeds rank n={self.n}")

    def __len__(self) -> int:
        return len(self.quarks)

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"


def word(n: int, pairs: Iterable[Sequence[int]]) -> Word:
    """Convenience constructor from bare index pairs."""
    return Word(n, tuple(Quark(i, j) for i, j in pairs))


def phi(w: Word) -> BrauerDiagram:
    """Evaluate a word to its diagram: the product of atoms, left to right."""
    result = atom(w.n, w.quarks[0].i, w.quarks[0].j)
    for q in w.quarks[1:]:
        result = multiply(result, atom(w.n, q.i, q.j))
    return result


def words_equal_in_T(u: Word, v: Word) -> bool:
    """Equality in T, decided through the evaluation isomorphism."""
    if u.n != v.n:
        raise DomainError(f"rank mismatch: {u.n} != {v.n}")
    return phi(u) == phi(v)


def star(w: Word) -> Word:
    """The anti-involution fixing the generators: reverse the word."""
    return Word(w.n, tuple(reversed(w.quarks)))


def is_connected(w: Word) -> bool:
    """True iff all consecutive quarks share a point."""
    return all(a.meets(b) for a, b in zip(w.quarks, w.quarks[1:]))


# --- the relation families -------------------------------------------------

# pattern quarks are 2-letter variable strings over i, j, k, l
RELATION_RULES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "R1": (("ij",), ("ji",)),
    "R2": (("ij", "ij"), ("ij",)),
    "R3": (("ij", "jk", "kl"), ("ij", "il", "kl")),
    "R4": (("ij", "ik", "jk"), ("ij", "jk")),
    "R5": (("ij", "jk", "ij"), ("ij",)),
    "R6": (("ij", "kl", "ik"), ("ij", "jl", "ik")),
    "R7": (("ij", "kl"), ("kl", "ij")),
}


# --- normal form ----------------------------------------------------------

def normalize(w: Word) -> Word:
    """Rewrite w, preserving its value in T, into the shape
    u . t_1 . ... . t_k where u.t_1 is connected and the tail pairs t_s
    are pairwise disjoint.

    One pass over the letters, maintaining (prefix, tail) with that
    invariant; each new letter lands in one of five cases depending on
    which tail pairs it meets.  Ties (several meeting tail pairs) go to
    the smallest tail index.  The output may be longer than the input.
    """
    prefix: list[Quark] = []
    tail: list[Quark] = [w.quarks[0]]
    for q in w.quarks[1:]:
        hits = [s for s, t in enumerate(tail) if t.meets(q)]
        if not hits:
            # disjoint from the whole tail: extend it
            tail.append(q)
        elif hits == [0]:
            # meets only the first tail pair: grow the connected prefix
            prefix.append(tail[0])
            tail[0] = q
        elif hits[0] == 0:
            # one point in the first tail pair, the other in tail[s]
            s = hits[1]
            i = q.i if q.i in (tail[0].i, tail[0].j) else q.j
            j = q.other(i)
            j1 = tail[0].other(i)
            i2 = tail[s].other(j)
            prefix.append(Quark(i, j1))
            tail = [Quark(i2, j1), q] + [t for r, t in enumerate(tail) if r not in (0, s)]
        elif len(hits) == 1:
            s = hits[0]
            if tail[s] == q:
                # a tail pair repeated: absorbed by idempotency
                continue
            # one point in tail[s], the other fresh
            i = q.i if q.i in (tail[s].i, tail[s].j) else q.j
            j = q.other(i)
            i1 = tail[0].i
            j2 = tail[s].other(i)
            prefix.extend([tail[0], Quark(i1, j2), Quark(i1, j)])
            tail = [tail[0], q] + [t for r, t in enumerate(tail) if r not in (0, s)]
        else:
            # both points inside tail pairs s < t (neither is the first)
            s, t = hits
            i = q.i if q.i in (tail[s].i, tail[s].j) else q.j
            j = q.other(i)
            i1 = tail[0].i
            j2 = tail[s].other(i)
            i3 = tail[t].other(j)
            prefix.extend([tail[0], Quark(i1, i3), Quark(i, i1)])
            tail = [tail[0], Quark(i3, j2), q] + [
                x for r, x in enumerate(tail) if r not in (0, s, t)
            ]
    return Word(w.n, tuple(prefix + tail))


def is_normal_form(w: Word) -> bool:
    """Check the normal-form shape: some split point gives a connected
    prefix-plus-first-tail-quark and a pairwise disjoint tail.  A later
    split only lengthens the prefix, so one backward pass finds t, the
    earliest split with a disjoint tail, and its prefix is checked."""
    quarks = w.quarks
    seen: set[int] = set()
    t = len(quarks)
    while t and seen.isdisjoint((quarks[t - 1].i, quarks[t - 1].j)):
        t -= 1
        seen.update((quarks[t].i, quarks[t].j))
    return is_connected(Word(w.n, quarks[:t + 1]))


# --- the gamma generators --------------------------------------------------

def gamma(n: int, i: int) -> Word:
    """The i-th Coxeter-like generator of the unit-group copy sitting
    over the pair {1,2}: tau_{1,2} tau_{1,i} tau_{1,i+1} tau_{1,2}."""
    if n < 4:
        raise DomainError("gamma generators need n >= 4")
    if not 3 <= i <= n - 1:
        raise DomainError(f"gamma index must lie in 3..{n - 1}")
    return word(n, [(1, 2), (1, i), (1, i + 1), (1, 2)])


# --- checking the relations under phi --------------------------------------

def check_all_relations(n: int) -> tuple[dict[str, int], list[tuple[str, tuple[int, ...]]]]:
    """Verify every relation family under phi at rank n.  Returns the
    number of index tuples each family covers, P(n, k) for k indices (0
    when k > n), and the failing families as (family, (1, ..., k)).

    Each family is checked once, at (1, ..., k) in rank k, both sides
    evaluated by ``diagram._atom_product``; by the module docstring its
    verdict is that of every tuple at every rank n >= k."""
    if n < 2:
        raise DomainError("relations need n >= 2")
    check_ceiling("word", n)
    checked, violations = {}, []
    for rule, (lhs, rhs) in RELATION_RULES.items():
        # the variables i, j, k, l bound to 1, 2, 3, 4 in order
        label = {v: x for x, v in enumerate(sorted(set("".join(lhs + rhs))), 1)}
        checked[rule] = math.perm(n, len(label))
        if len(label) > n:
            continue
        left, right = (_atom_product(len(label), [(label[a], label[b]) for a, b in side])
                       for side in (lhs, rhs))
        if left != right:
            violations.append((rule, tuple(label.values())))
    return checked, violations


# --- text format ------------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")
_TOO_MANY_DIGITS = "a number in the word has too many digits"


def parse_pair_list(body: str) -> list[tuple[int, int]]:
    """Parse a bare pair list ``(1,2)(2,3)``, the body of a word or a
    sequence."""
    # the text before each pair, the pair's two groups, ..., the text after
    parts = _PAIR_RE.split(body)
    gaps = parts[::3]
    if "".join(gaps).strip():
        raise DomainError(f"unexpected text in word: {next(g for g in gaps if g.strip())!r}")
    if len(parts) == 1:
        raise DomainError("a word must contain at least one quark")
    try:
        return [(int(i), int(j)) for i, j in zip(parts[1::3], parts[2::3])]
    except ValueError as exc:  # int() refuses a digit run past the interpreter's limit
        raise DomainError(_TOO_MANY_DIGITS) from exc


def parse_word(text: str) -> Word:
    """Parse ``n=5: (1,2)(2,3)(1,2)``."""
    m = re.match(r"\s*n\s*=\s*([0-9]+)\s*:\s*", text)
    if not m:
        raise DomainError(f"word must start with 'n=<rank>: ': {text!r}")
    try:
        n = int(m.group(1))
    except ValueError as exc:
        raise DomainError(_TOO_MANY_DIGITS) from exc
    check_ceiling("word", n)
    return word(n, parse_pair_list(text[m.end():]))


def word_to_text(w: Word) -> str:
    return f"n={w.n}: " + "".join(repr(q) for q in w.quarks)
