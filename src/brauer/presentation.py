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
quark storage (the pair is kept sorted); the remaining relations are
exposed as single, explicitly sited rewrite steps for auditing and
fuzzing.  No confluent completion of the system is attempted.

Word text format: ``n=5: (1,2)(2,3)(1,2)``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from brauer.diagram import BrauerDiagram, DomainError, atom, multiply

__all__ = [
    "Quark",
    "Word",
    "RelationId",
    "RELATION_RULES",
    "phi",
    "words_equal_in_T",
    "apply_relation",
    "find_relation_sites",
    "star",
    "is_connected",
    "normalize",
    "is_normal_form",
    "standard_idempotent",
    "gamma",
    "check_all_relations",
    "RelationReport",
    "parse_word",
    "word_to_text",
    "WORD_RANK_LIMIT",
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

    def points(self) -> frozenset[int]:
        return frozenset((self.i, self.j))

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


# --- relations as explicit, sited rewrites -------------------------------

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


@dataclass(frozen=True)
class RelationId:
    """One concrete rewrite: a rule, a position, a variable binding, and
    the direction (reverse=True rewrites right-hand side to left)."""

    rule: str
    pos: int
    binding: tuple[tuple[str, int], ...]  # e.g. (("i", 1), ("j", 2), ...)
    reverse: bool = False

    def bound(self) -> dict[str, int]:
        return dict(self.binding)


def _instantiate(pattern: tuple[str, ...], bound: dict[str, int]) -> tuple[Quark, ...]:
    return tuple(Quark(bound[a], bound[b]) for a, b in pattern)


def apply_relation(w: Word, r: RelationId) -> Word:
    """Apply one relation at the given site; the phi-image is unchanged.

    Raises if the rule is unknown, the binding misses variables or binds
    them non-distinctly, or the pattern does not match the word there.
    """
    if r.rule not in RELATION_RULES:
        raise DomainError(f"unknown relation {r.rule!r}")
    lhs, rhs = RELATION_RULES[r.rule]
    if r.reverse:
        lhs, rhs = rhs, lhs
    bound = r.bound()
    variables = sorted(set("".join(lhs + rhs)))
    if sorted(bound) != variables:
        raise DomainError(f"{r.rule} needs bindings for {variables}, got {sorted(bound)}")
    values = list(bound.values())
    if len(set(values)) != len(values):
        raise DomainError(f"{r.rule} requires pairwise distinct indices, got {bound}")
    if any(v < 1 or v > w.n for v in values):
        raise DomainError(f"binding {bound} out of range for n={w.n}")
    needle = _instantiate(lhs, bound)
    if not (0 <= r.pos <= len(w.quarks) - len(needle)):
        raise DomainError(f"position {r.pos} out of range")
    if w.quarks[r.pos:r.pos + len(needle)] != needle:
        raise DomainError(f"{r.rule}{bound} does not match at position {r.pos}")
    replacement = _instantiate(rhs, bound)
    return Word(w.n, w.quarks[:r.pos] + replacement + w.quarks[r.pos + len(needle):])


def _match_pattern(quarks: tuple[Quark, ...], pattern: tuple[str, ...]) -> Iterator[dict[str, int]]:
    """Yield all injective variable bindings making the pattern equal the segment."""

    def extend(idx: int, bound: dict[str, int]) -> Iterator[dict[str, int]]:
        if idx == len(pattern):
            yield dict(bound)
            return
        a, b = pattern[idx]
        q = quarks[idx]
        for x, y in ((q.i, q.j), (q.j, q.i)):
            new = dict(bound)
            ok = True
            for var, val in ((a, x), (b, y)):
                if var in new:
                    ok = new[var] == val
                else:
                    ok = val not in new.values()
                    new[var] = val
                if not ok:
                    break
            if ok:
                yield from extend(idx + 1, new)

    return extend(0, {})


def find_relation_sites(w: Word, rules: Iterable[str] | None = None) -> list[RelationId]:
    """Every sited relation application (both directions) available on w.

    When the rewritten-in side mentions an index the matched side does
    not (reversed R5 introduces k), each admissible value is emitted as
    its own site.
    """
    sites = []
    for rule in rules if rules is not None else RELATION_RULES:
        lhs, rhs = RELATION_RULES[rule]
        variables = sorted(set("".join(lhs + rhs)))
        for reverse, pattern in ((False, lhs), (True, rhs)):
            for pos in range(len(w.quarks) - len(pattern) + 1):
                segment = w.quarks[pos:pos + len(pattern)]
                for bound in _match_pattern(segment, pattern):
                    free = [v for v in variables if v not in bound]
                    pool = [x for x in range(1, w.n + 1) if x not in bound.values()]
                    for values in itertools.permutations(pool, len(free)):
                        full = dict(bound, **dict(zip(free, values)))
                        sites.append(
                            RelationId(rule, pos, tuple(sorted(full.items())), reverse)
                        )
    return sites


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
    prefix-plus-first-tail-quark and a pairwise disjoint tail."""
    quarks = w.quarks
    for split in range(len(quarks)):
        tail = quarks[split:]
        points = [t.points() for t in tail]
        if any(a & b for a, b in itertools.combinations(points, 2)):
            continue
        if is_connected(Word(w.n, quarks[:split + 1])):
            return True
    return False


# --- standard idempotents and the gamma generators ------------------------

def standard_idempotent(n: int, pairs: Sequence[Sequence[int]]) -> Word:
    """The word of a family of pairwise disjoint pairs; its image is
    idempotent, and these words represent the L-classes of T."""
    quarks = tuple(Quark(i, j) for i, j in pairs)
    seen: set[int] = set()
    for q in quarks:
        if q.i in seen or q.j in seen:
            raise DomainError(f"pairs are not disjoint at {q}")
        seen.update((q.i, q.j))
    return Word(n, quarks)


def gamma(n: int, i: int) -> Word:
    """The i-th Coxeter-like generator of the unit-group copy sitting
    over the pair {1,2}: tau_{1,2} tau_{1,i} tau_{1,i+1} tau_{1,2}."""
    if n < 4:
        raise DomainError("gamma generators need n >= 4")
    if not 3 <= i <= n - 1:
        raise DomainError(f"gamma index must lie in 3..{n - 1}")
    return word(n, [(1, 2), (1, i), (1, i + 1), (1, 2)])


# --- checking the relations under phi --------------------------------------

@dataclass
class RelationReport:
    """Outcome of verifying the relation families over all index tuples."""

    n: int
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _relation_words(rule: str, n: int, bound: dict[str, int]) -> tuple[Word, Word]:
    lhs, rhs = RELATION_RULES[rule]
    return (
        Word(n, _instantiate(lhs, bound)),
        Word(n, _instantiate(rhs, bound)),
    )


def check_all_relations(n: int) -> RelationReport:
    """Verify every relation family under phi for every admissible tuple
    of pairwise distinct indices; families needing more indices than n
    offers are skipped (reported as 0 tuples)."""
    if n < 2:
        raise DomainError("relations need n >= 2")
    report = RelationReport(n)
    for rule, (lhs, rhs) in RELATION_RULES.items():
        variables = sorted(set("".join(lhs + rhs)))
        count = 0
        for values in itertools.permutations(range(1, n + 1), len(variables)):
            bound = dict(zip(variables, values))
            u, v = _relation_words(rule, n, bound)
            if phi(u) != phi(v):
                report.violations.append((rule, values))
            count += 1
        report.checked[rule] = count
    return report


# --- text format ------------------------------------------------------------

WORD_RANK_LIMIT = 10**4

_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def _parse_pairs(body: str) -> list[tuple[int, int]]:
    pairs = []
    pos = 0
    for m in _PAIR_RE.finditer(body):
        if body[pos:m.start()].strip():
            raise DomainError(f"unexpected text in word: {body[pos:m.start()]!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
        pos = m.end()
    if body[pos:].strip():
        raise DomainError(f"unexpected text in word: {body[pos:]!r}")
    if not pairs:
        raise DomainError("a word must contain at least one quark")
    return pairs


def check_word_rank(n: int) -> None:
    """Reject a declared rank above WORD_RANK_LIMIT: evaluating a word
    costs O(n) memory per letter, so the rank must not be unbounded."""
    if n > WORD_RANK_LIMIT:
        raise DomainError(f"rank n={n} exceeds the word rank limit {WORD_RANK_LIMIT}")


def parse_word(text: str) -> Word:
    """Parse ``n=5: (1,2)(2,3)(1,2)``."""
    m = re.match(r"\s*n\s*=\s*(\d+)\s*:\s*", text)
    if not m:
        raise DomainError(f"word must start with 'n=<rank>: ': {text!r}")
    n = int(m.group(1))
    check_word_rank(n)
    return word(n, _parse_pairs(text[m.end():]))


def word_to_text(w: Word) -> str:
    return f"n={w.n}: " + "".join(repr(q) for q in w.quarks)


def parse_pair_list(text: str) -> list[tuple[int, int]]:
    """Parse a bare pair list ``(1,2)(2,3)`` (used for sequences)."""
    return _parse_pairs(text)
