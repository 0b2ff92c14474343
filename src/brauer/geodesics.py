"""
Geodesic lengths over the atom generating set.

For a singular diagram w, ls(w) is the least k with w a product of k
atoms; the maximum over rank n is floor(3n/2) - 2.

Conjugating by a permutation s of {1..n} (relabel i -> s(i) and
i' -> s(i)') sends atoms to atoms, so it is an automorphism of the right
Cayley graph over the atoms, and ls is constant on S_n-orbits.  The
breadth-first search therefore runs over orbits: it starts from the
unit, extends one representative of each orbit by right multiplication,
and records one exact distance per orbit (61 orbits where rank 7 has
130,095 singular elements).

An orbit is named by its key.  Each cycle word of ``diagram._cycles``,
taken up to rotation and up to reversal with complement (the same cycle
walked from another node or the other way), is invariant under
relabelling, and the sorted tuple of these words determines the diagram
up to relabelling.  The orbit has n!/|Aut| elements, where the
stabilizer Aut permutes equal cycles and maps each cycle onto itself by
the rotations and reflections that keep its word.

The search extends the representative r of an orbit by one atom per
class of node pairs under Aut, not by all C(n,2) atoms.  That is exact:
an s in Aut gives s(r e_ij)s^-1 = r e_s(i)s(j), so the atoms {i,j} and
{s(i),s(j)} give products in one orbit.  A class is a pair inside one
cycle up to its word's rotations and reflections, a pair across two
copies of one word up to those of each copy and the swap of the two,
or a pair across two words up to those of each.  The rank-7 search so
keys 664 products for its 61 orbits, where all 21 atoms would key 1,201.

A cycle word's least reading, and a least word's symmetry maps with
their classes of nodes and of node pairs, are memoised once per word
for the process (``_least_reading``, ``_word_symmetry``); the memo
holds only the words searches and loads meet.  It stays because a
search meets few words many times: the rank-7 search reads 1,435 cycle
words, 103 of them distinct, and its 61 keys hold 30 distinct words.
Without it an in-process ``longest 7`` into a fresh cache directory
took 8-9 ms, against 3 ms with it (medians of 300 calls, Python 3.11,
2-core VM).

A ``GeodesicTable`` holds one distance per orbit.  A lookup finds its
diagram's orbit, and the table's length is the sum of the orbit sizes,
the size of the singular part.  It is not iterable, so no walk over the
(2n-1)!! diagrams hides behind it.  The witness of ``max_entry`` is built
directly: W(n), transposition 2-cycles and one bracket cycle, whose
closed-form length below is floor(3n/2) - 2.

A singular diagram's length has the closed form ls = n - s + c - b over
its cycle words: s identity lines ``(0,)``, b cycles through a bracket
(words holding a 1), c others.  ``ls_via_cycles`` computes it; the
``lengths`` suite checks it on every orbit.  On
the {1,2} H-class ``decompose`` builds a word of exactly that length
from the same cycles.

Length is undefined on invertible elements; tables exclude them.
Tables can be cached as CSV, format 2: one row per orbit, holding a
representative's text and its distance.  A cache file that is not a
complete table of the requested rank (another format, a rank below 2, a
row of another rank or an invertible row, a distance other than the
closed form's, an orbit listed twice or missing) counts as stale: a
warning on stderr gives the loader's reason, and the search recomputes
the table, so a cache never changes an answer.  A cache that cannot be
written costs only a warning too.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _cycles,
    check_ceiling,
    count_all,
    make_diagram,
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


@functools.lru_cache(maxsize=None)
def _least_reading(word: tuple[int, ...]) -> tuple[int, ...]:
    """The least reading of a cycle word, its canonical form."""
    return min(_readings(word))


@functools.lru_cache(maxsize=None)
def _node_pairs(size: int) -> list[tuple[int, int]]:
    """Every pair a < b of nodes 0..size-1, one list shared by all the
    words of that length whose only symmetry is the identity."""
    return list(itertools.combinations(range(size), 2))


@functools.lru_cache(maxsize=None)
def _word_symmetry(word: tuple[int, ...]) -> tuple[
        list[tuple[int, ...]], list[int], list[tuple[int, int]]]:
    """The automorphisms of one cycle with least word ``word``, its nodes
    numbered 0..len-1 in walk order, and their classes.  Each reading
    that gives the word again is one map t -> m[t]: walked forwards from
    node r, t -> r + t; walked backwards from node r, t -> r - t (mod
    len).  Returns the maps, the least node of each class of nodes and
    the least pair a < b of each class of node pairs."""
    size = len(word)
    maps = [tuple((r + t) % size for t in range(size))
            for r in range(size) if word[r:] + word[:r] == word]
    back = tuple(1 - bit for bit in reversed(word))  # walked back from node size - 1
    maps += [tuple((size - 1 - r - t) % size for t in range(size))
             for r in range(size) if back[r:] + back[:r] == word]
    if len(maps) == 1:  # most words: every node and pair is its own class
        return maps, list(range(size)), _node_pairs(size)
    nodes = sorted({min(m[t] for m in maps) for t in range(size)})
    pairs = []
    seen = set()
    for a, b in itertools.combinations(range(size), 2):
        if (a, b) not in seen:
            pairs.append((a, b))
            seen.update((m[a], m[b]) if m[a] < m[b] else (m[b], m[a]) for m in maps)
    return maps, nodes, pairs


def _orbit_key(p: Sequence[int]) -> _OrbitKey:
    """The conjugation-orbit key of a partner array (module docstring)."""
    return tuple(sorted(map(_least_reading, _cycles(p)[0])))


def _orbit_size(key: _OrbitKey) -> int:
    """n!/|Aut|: the stabilizer permutes equal cycles and maps each cycle
    onto itself by every reading that gives its word again.  The key is
    sorted, so equal cycle words sit in one run."""
    aut = 1
    for word, run in itertools.groupby(key):
        copies = sum(1 for _ in run)
        aut *= math.factorial(copies) * len(_word_symmetry(word)[0]) ** copies
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


def _max_witness(n: int) -> BrauerDiagram:
    """W(n), a diagram of length floor(3n/2) - 2 by the closed form: the
    transposition 2-cycles {2k-1,(2k)'}{2k,(2k-1)'}, then the bracket
    2-cycle {n-1,n}{(n-1)',n'} at even n, or the bracket 3-cycle
    {n-2,(n-1)'}{n-1,n}{(n-2)',n'} at odd n.  The blocks are signed, as
    ``make_diagram`` reads them: k' is -k."""
    odd = n % 2
    blocks = [b for k in range(1, n - 2 - odd, 2) for b in ((k, -k - 1), (k + 1, -k))]
    if odd:
        blocks += [(n - 2, 1 - n), (n - 1, n), (2 - n, -n)]
    else:
        blocks += [(n - 1, n), (1 - n, -n)]
    return make_diagram(n, blocks)


@dataclass
class GeodesicTable:
    """Exact geodesic distances on the singular part of rank n, one per
    conjugation orbit; ``table[d]`` reads the distance of a singular
    diagram d."""

    n: int
    orbits: dict[_OrbitKey, int]

    @property
    def dist(self) -> GeodesicTable:
        """The table itself.  It stays only because ``perfbench/`` reads
        ``len(table.dist)``; ROADMAP item 5 drops it."""
        return self

    def __getitem__(self, d: BrauerDiagram) -> int:
        # the key's words add up to its rank and a singular key holds a 1,
        # so another rank or an invertible diagram raises KeyError
        return self.orbits[_orbit_key(d.partner)]

    def __len__(self) -> int:
        return sum(map(_orbit_size, self.orbits))

    def max_entry(self) -> tuple[int, BrauerDiagram]:
        """Maximal distance and its witness W(n) (``_max_witness``).  The
        witness is checked against the table until the maximum is proven
        at every n (ROADMAP item 2); a miss raises RuntimeError."""
        best = max(self.orbits.values())
        witness = _max_witness(self.n)
        length = self[witness]
        if length != best:
            raise RuntimeError(f"W({self.n}) has length {length}, not the maximum {best}")
        return best, witness

    def representatives(self) -> Iterator[tuple[BrauerDiagram, int]]:
        """One diagram per orbit (``_orbit_representative``) and its distance, lazily."""
        return ((BrauerDiagram(_orbit_representative(key)), v) for key, v in self.orbits.items())

    def save(self, path: str | Path) -> None:
        """Write a sorted CSV cache with format-version and rank fields,
        one row per orbit.

        The rows go to a temporary file in the same directory that then
        replaces ``path``, so an interrupted write never leaves a partial
        cache behind.
        """
        path = Path(path)
        rows = sorted((d.to_text(), v) for d, v in self.representatives())
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
        """Read a cache file.  A rank below 2, a wrong format version or
        rank, an unparsable row, a row outside the rank-n singular part,
        a distance other than the closed form's, or rows that name an
        orbit twice or miss one raise DomainError."""
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
            if n < 2 or rank != ["n", str(n)] or header != ["diagram", "distance"]:
                raise DomainError(f"cache {path} does not match n={n}")
            try:
                rows = [(parse_diagram(text), int(value)) for text, value in reader]
            except (ValueError, csv.Error) as exc:  # DomainError is a ValueError
                raise DomainError(f"cache {path} has a bad row: {exc}") from exc
        # rank n and singular: some unprimed point is matched with another
        if not all(len(d.partner) == 2 * n and min(d.partner[:n]) < n for d, _ in rows):
            raise DomainError(f"cache {path} lists a diagram outside the rank-{n} "
                              "singular part")
        orbits = {_orbit_key(d.partner): v for d, v in rows}
        if any(v != _ls_formula(key) for key, v in orbits.items()):
            raise DomainError(f"cache {path} has a distance other than the closed form's")
        # distinct orbits partition the singular part: they are all there
        # exactly when their sizes add up to it
        covered = sum(map(_orbit_size, orbits))
        expected = count_all(n) - math.factorial(n)
        if len(orbits) != len(rows) or covered != expected:
            raise DomainError(f"cache {path} has {len(rows)} rows on {len(orbits)} orbits "
                              f"covering {covered} diagrams, expected {expected}")
        return cls(n, orbits)


def _atom_classes(key: _OrbitKey) -> list[tuple[int, int]]:
    """One pair of nodes {i, j} (0-based, i < j) per class of pairs under
    the automorphisms of ``_orbit_representative(key)`` (module
    docstring): a pair inside one cycle by its word's pair classes; a pair
    across two copies of one word by an unordered pair of node classes,
    on the run's first two copies; a pair across two words by a node
    class of each, on each run's first copy (``_word_symmetry``)."""
    runs = []
    first = 0
    for word, run in itertools.groupby(key):
        copies = sum(1 for _ in run)
        runs.append((first, len(word), copies, *_word_symmetry(word)[1:]))
        first += copies * len(word)
    pairs = []
    for k, (f, size, copies, nodes, inner) in enumerate(runs):
        pairs += [(f + a, f + b) for a, b in inner]
        if copies > 1:
            pairs += [(f + a, f + size + b)
                      for a, b in itertools.combinations_with_replacement(nodes, 2)]
        for g, _, _, other, _ in runs[k + 1:]:
            pairs += [(f + a, g + b) for a in nodes for b in other]
    return pairs


def bfs_lengths(n: int) -> GeodesicTable:
    """Breadth-first search from the unit by right multiplication with
    the atoms, over conjugation orbits: maps each orbit key to the least
    number of atoms whose product lies in the orbit, the exact ls value.
    The unit, level 0, is not recorded; the atoms are level 1.  A rank
    past the BFS row of RANK_CEILINGS is refused before anything is built.

    The frontier holds orbit keys.  Each is expanded from its
    representative r (``_orbit_representative``) by one atom per class of
    ``_atom_classes(key)``: an automorphism s of r maps the product r.e_ij
    to r.e_s(i)s(j), so the atoms of one class give products in one orbit
    (module docstring).  The loop inlines the four-slot atom step of
    ``diagram._atom_product``.  The table is put in key order.
    """
    if n < 2:
        raise DomainError("the singular part needs n >= 2")
    check_ceiling("BFS", n)
    orbits: dict[_OrbitKey, int] = {}
    frontier: list[_OrbitKey] = [((0,),) * n]  # the unit: n identity lines
    level = 0
    while frontier:
        level += 1
        new = []
        for key in frontier:
            p = _orbit_representative(key)
            for i, j in _atom_classes(key):
                pi, pj = n + i, n + j
                a = p[pi]
                if a == pj:
                    continue
                b = p[pj]
                q = list(p)
                q[a], q[b], q[pi], q[pj] = b, a, pj, pi
                k = _orbit_key(q)
                if k not in orbits:
                    orbits[k] = level
                    new.append(k)
        frontier = new
    return GeodesicTable(n, dict(sorted(orbits.items())))


def expected_max_length(n: int) -> int:
    """floor(3n/2) - 2, the proven maximum of ls over rank n."""
    return 3 * n // 2 - 2


def max_length(n: int, table: GeodesicTable) -> tuple[int, BrauerDiagram]:
    """Maximum geodesic length plus one witness attaining it, read from the
    rank-n ``table``; ``n`` is the rank the traced ``perfbench/`` run records."""
    return table.max_entry()


def _ls_formula(words: Sequence[tuple[int, ...]]) -> int:
    """The closed form n - s + c - b (module docstring) over a singular
    diagram's cycle words or their least readings, its orbit key."""
    s = words.count((0,))
    b = sum(1 in word for word in words)
    return sum(map(len, words)) - s + (len(words) - s - b) - b


def ls_via_cycles(pi: BrauerDiagram) -> int:
    """Geodesic length of a singular diagram by the closed form."""
    if pi.corank == 0:
        raise DomainError("length is undefined on invertible elements")
    return _ls_formula(_cycles(pi.partner)[0])


def load_or_compute_table(n: int, cache_dir: str | Path | None = None) -> GeodesicTable:
    """Fetch the table from the cache directory if present, else compute
    it and store it there when a cache directory is given.  A cache file
    the loader rejects and a failed store are reported on stderr, with
    the reason, and the computed table is returned."""
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"geodesics-n{n}.csv"
        if path.exists():
            try:
                return GeodesicTable.load(path, n)
            except (DomainError, OSError) as exc:  # stale, foreign or damaged: recompute
                print(f"warning: stale cache {path}: {exc}", file=sys.stderr)
    table = bfs_lengths(n)
    if path is not None:
        try:
            os.makedirs(path.parent, exist_ok=True)
            table.save(path)
        except OSError as exc:  # the table is still good: report, do not fail
            print(f"warning: cannot write cache {path}: {exc}", file=sys.stderr)
    return table
