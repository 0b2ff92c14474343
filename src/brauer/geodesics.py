"""
Geodesic lengths over the atom generating set.

For a singular diagram w, ls(w) is the least k with w a product of k
atoms; the maximum over rank n is floor(3n/2) - 2.

Conjugating by a permutation s of {1..n} (relabel i -> s(i) and
i' -> s(i)') sends atoms to atoms, so it is an automorphism of the right
Cayley graph over the atoms, and ls is constant on S_n-orbits.  The
breadth-first search therefore runs over orbits: it starts from the
orbit of the atoms, extends one representative of each orbit by right
multiplication, and records one exact distance per orbit (61 orbits
where rank 7 has 130,095 singular elements).

An orbit is named by its key.  Make each point k a node with a top port
k and a bottom port k'; the blocks join ports, so the nodes fall into
cycles.  Walking a cycle from its smallest node, write 0 for a node
passed top to bottom and 1 for one passed bottom to top.  Each cycle's
word, taken up to rotation and up to reversal with complement (the same
cycle walked from another node or the other way), is invariant under
relabelling, and the sorted tuple of these words determines the diagram
up to relabelling.  The orbit has n!/|Aut| elements, where the
stabilizer Aut permutes equal cycles and maps each cycle onto itself by
the rotations and reflections that keep its word.

``GeodesicTable.dist`` is a read-only mapping over the whole singular
part: a lookup finds its diagram's orbit, its length is the sum of the
orbit sizes, and iterating it enumerates the singular diagrams.  The
witness of ``max_entry`` is the smallest text over the n! relabellings
of each maximal orbit's representative.

Elements whose left and right bracket are both {1,2} carry a permutation
of {3..n}; ``ls_via_cycles`` reads the closed form ls = (n-2) - s + c + 1
(s trivial, c nontrivial cycles) off its cycle structure, and
``decompose_group_corank2`` builds a word of exactly that length from
the same cycles.

Length is undefined on invertible elements; tables exclude them.
Tables can be cached as CSV, format 2: one row per orbit, holding a
representative's text and its distance.  A cache file that is not a
complete table of the requested rank (another format, a row of another
rank or an invertible row, a distance out of range, an orbit listed
twice or missing) counts as stale and is recomputed, and a cache that
cannot be written costs only a warning on stderr.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import sys
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from brauer.decomposition import _theta_cycles
from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _atom_pairs,
    _bfs_levels,
    count_all,
    enumerate_all,
    parse_diagram,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "GeodesicTable",
    "bfs_lengths",
    "max_length",
    "expected_max_length",
    "ls_via_cycles",
    "load_or_compute_table",
]

CACHE_FORMAT_VERSION = "2"

# one canonical cycle word per cycle, sorted
_OrbitKey = tuple[tuple[int, ...], ...]


def _readings(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The word of the same cycle walked from each of its nodes, in both
    directions; walking backwards passes every node the other way."""
    back = tuple(1 - bit for bit in reversed(word))
    for w in (word, back):
        for i in range(len(word)):
            yield w[i:] + w[:i]


def _orbit_key(p: tuple[int, ...]) -> _OrbitKey:
    """The conjugation-orbit key of a partner array (module docstring)."""
    n = len(p) // 2
    seen = [False] * n
    words = []
    for start in range(n):
        if seen[start]:
            continue
        word = []
        port = start  # enter the start node through its top port
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
            if port == start:
                break
        words.append(min(_readings(tuple(word))))
    words.sort()
    return tuple(words)


def _orbit_size(key: _OrbitKey) -> int:
    """n!/|Aut|: the stabilizer permutes equal cycles and maps each cycle
    onto itself by every reading that gives its word again."""
    aut = 1
    for word, copies in Counter(key).items():
        symmetries = sum(reading == word for reading in _readings(word))
        aut *= math.factorial(copies) * symmetries ** copies
    return math.factorial(sum(map(len, key))) // aut


def _orbit_representative(key: _OrbitKey) -> tuple[int, ...]:
    """A partner array with orbit key ``key``: its cycles laid out on
    consecutive nodes in key order."""
    n = sum(map(len, key))
    partner = [0] * (2 * n)
    first = 0
    for word in key:
        size = len(word)
        for i, bit in enumerate(word):
            node, succ = first + i, first + (i + 1) % size
            out = node if bit else node + n
            into = succ + n if word[(i + 1) % size] else succ
            partner[out], partner[into] = into, out
        first += size
    return tuple(partner)


def _relabelings(p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The conjugate of partner array p by every permutation of its
    points, with repeats when p has symmetries."""
    n = len(p) // 2
    for sigma in itertools.permutations(range(n)):
        index = sigma + tuple(k + n for k in sigma)
        q = [0] * (2 * n)
        for x, y in enumerate(p):
            q[index[x]] = index[y]
        yield tuple(q)


class _SingularLengths(Mapping):
    """ls on every singular diagram of rank n, read off an orbit table."""

    def __init__(self, n: int, orbits: dict[_OrbitKey, int]):
        self.n, self.orbits = n, orbits

    def __getitem__(self, d: BrauerDiagram) -> int:
        return self.orbits[_orbit_key(d.partner)]

    def __len__(self) -> int:
        return sum(map(_orbit_size, self.orbits))

    def __iter__(self) -> Iterator[BrauerDiagram]:
        return (d for d in enumerate_all(self.n) if d.corank)


@dataclass
class GeodesicTable:
    """Exact geodesic distances on the singular part of rank n, one per
    conjugation orbit."""

    n: int
    orbits: dict[_OrbitKey, int]

    @property
    def dist(self) -> Mapping[BrauerDiagram, int]:
        """The distance of every singular diagram of rank n."""
        return _SingularLengths(self.n, self.orbits)

    def __getitem__(self, d: BrauerDiagram) -> int:
        if d.n != self.n:
            raise DomainError(f"rank mismatch: {d.n} != {self.n}")
        if d.corank == 0:
            raise DomainError("length is undefined on invertible elements")
        return self.dist[d]

    def max_entry(self) -> tuple[int, BrauerDiagram]:
        """Maximal distance and its lexicographically smallest witness."""
        best = max(self.orbits.values())
        witness = min(
            (
                BrauerDiagram(q)
                for key, v in self.orbits.items()
                if v == best
                for q in _relabelings(_orbit_representative(key))
            ),
            key=BrauerDiagram.to_text,
        )
        return best, witness

    def save(self, path: str | Path) -> None:
        """Write a sorted CSV cache with format-version and rank fields,
        one row per orbit.

        The rows go to a temporary file in the same directory that then
        replaces ``path``, so an interrupted write never leaves a partial
        cache behind.
        """
        path = Path(path)
        rows = sorted(
            (BrauerDiagram(_orbit_representative(key)).to_text(), v)
            for key, v in self.orbits.items()
        )
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["format", CACHE_FORMAT_VERSION])
                writer.writerow(["n", str(self.n)])
                writer.writerow(["diagram", "distance"])
                writer.writerows(rows)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path, n: int) -> GeodesicTable:
        """Read a cache file.  A wrong format version or rank, an
        unparsable row, a row outside the rank-n singular part or the
        distance range, or rows that name an orbit twice or miss one
        raise DomainError."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                fmt = next(reader)
                rank = next(reader)
                header = next(reader)
            except StopIteration as exc:
                raise DomainError(f"truncated cache file {path}") from exc
            except (ValueError, csv.Error) as exc:
                raise DomainError(f"unreadable cache file {path}: {exc}") from exc
            if fmt != ["format", CACHE_FORMAT_VERSION]:
                raise DomainError(f"cache {path} has unsupported format {fmt}")
            if rank != ["n", str(n)] or header != ["diagram", "distance"]:
                raise DomainError(f"cache {path} does not match n={n}")
            try:
                rows = [(parse_diagram(text), int(value)) for text, value in reader]
            except (ValueError, csv.Error) as exc:  # DomainError is a ValueError
                raise DomainError(f"cache {path} has a bad row: {exc}") from exc
        # rank n and singular: some unprimed point is matched with another
        if not all(len(d.partner) == 2 * n and min(d.partner[:n]) < n for d, _ in rows):
            raise DomainError(f"cache {path} lists a diagram outside the rank-{n} "
                              "singular part")
        if not all(1 <= v <= expected_max_length(n) for _, v in rows):
            raise DomainError(f"cache {path} has a distance outside "
                              f"1..{expected_max_length(n)}")
        orbits = {_orbit_key(d.partner): v for d, v in rows}
        # distinct orbits partition the singular part: they are all there
        # exactly when their sizes add up to it
        covered, expected = sum(map(_orbit_size, orbits)), count_all(n) - math.factorial(n)
        if len(orbits) != len(rows) or covered != expected:
            raise DomainError(f"cache {path} has {len(rows)} rows on {len(orbits)} orbits "
                              f"covering {covered} diagrams, expected {expected}")
        return cls(n, orbits)


def bfs_lengths(n: int) -> GeodesicTable:
    """Multi-source BFS from the atoms by right multiplication, one
    representative per conjugation orbit; the distances are exact ls
    values."""
    if n < 2:
        raise DomainError("the singular part needs n >= 2")
    return GeodesicTable(n, _bfs_levels(n, _atom_pairs(n), key=_orbit_key))


def expected_max_length(n: int) -> int:
    """floor(3n/2) - 2, the proven maximum of ls over rank n."""
    return 3 * n // 2 - 2


def max_length(n: int, table: GeodesicTable | None = None) -> tuple[int, BrauerDiagram]:
    """Maximum geodesic length plus one witness attaining it."""
    if n < 2:
        raise DomainError("maximal length needs n >= 2")
    if table is None:
        table = bfs_lengths(n)
    return table.max_entry()


def ls_via_cycles(pi: BrauerDiagram) -> int:
    """Closed-form geodesic length on the H-class of the {1,2} atom:
    (n-2) - s + c + 1, with s fixed points and c nontrivial cycles of the
    permutation the element's lines induce on {3..n}."""
    base = frozenset({frozenset((1, 2))})
    if pi.left_brackets() != base or pi.right_brackets() != base:
        raise DomainError("element must have left and right bracket {1,2}")
    theta = pi.lines()
    fixed = sum(1 for p, image in theta.items() if p == image)
    return (pi.n - 2) - fixed + len(_theta_cycles(theta)) + 1


def load_or_compute_table(n: int, cache_dir: str | Path | None = None) -> GeodesicTable:
    """Fetch the table from the cache directory if present, else compute
    it and store it there when a cache directory is given.  A failed
    store is reported on stderr and the computed table is returned."""
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"geodesics-n{n}.csv"
        if path.exists():
            try:
                return GeodesicTable.load(path, n)
            except (DomainError, OSError):
                pass  # stale, foreign or damaged file: recompute below
    table = bfs_lengths(n)
    if path is not None:
        try:
            os.makedirs(path.parent, exist_ok=True)
            table.save(path)
        except OSError as exc:  # the table is still good: report, do not fail
            print(f"warning: cannot write cache {path}: {exc}", file=sys.stderr)
    return table
