"""
Geodesic lengths over the atom generating set.

For a singular diagram w, ls(w) is the least k with w a product of k
atoms.  Exact values come from a multi-source breadth-first search that
starts at every atom and extends by right multiplication; the maximum
over rank n is floor(3n/2) - 2.  Elements whose left and right bracket
are both {1,2} carry a permutation of {3..n}; ``ls_via_cycles`` reads
the closed form ls = (n-2) - s + c + 1 (s trivial, c nontrivial cycles)
off its cycle structure, and ``decompose_group_corank2`` builds a word
of exactly that length from the same cycles.

Length is undefined on invertible elements; tables simply exclude them.
Tables can be cached as CSV; a cache file that is not a complete table
of the requested rank counts as stale and is recomputed, and a cache
that cannot be written costs only a warning on stderr.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from brauer.decomposition import _theta_cycles
from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _bfs_levels,
    atoms,
    count_all,
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

CACHE_FORMAT_VERSION = "1"


@dataclass
class GeodesicTable:
    """Exact geodesic distances for every singular diagram of rank n."""

    n: int
    dist: dict[BrauerDiagram, int]

    def __getitem__(self, d: BrauerDiagram) -> int:
        if d.n != self.n:
            raise DomainError(f"rank mismatch: {d.n} != {self.n}")
        if d.corank == 0:
            raise DomainError("length is undefined on invertible elements")
        return self.dist[d]

    def max_entry(self) -> tuple[int, BrauerDiagram]:
        """Maximal distance and its lexicographically smallest witness."""
        best = max(self.dist.values())
        witness = min(
            (d for d, v in self.dist.items() if v == best), key=BrauerDiagram.to_text
        )
        return best, witness

    def save(self, path: str | Path) -> None:
        """Write a sorted CSV cache with format-version and rank fields.

        The rows go to a temporary file in the same directory that then
        replaces ``path``, so an interrupted write never leaves a partial
        cache behind.
        """
        path = Path(path)
        rows = sorted((d.to_text(), v) for d, v in self.dist.items())
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
        distance range, or a wrong row count raises DomainError."""
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
                dist = {parse_diagram(text): int(value) for text, value in reader}
            except (ValueError, csv.Error) as exc:  # DomainError is a ValueError
                raise DomainError(f"cache {path} has a bad row: {exc}") from exc
            rows = reader.line_num - 3  # diagram texts hold no line breaks
        expected = count_all(n) - math.factorial(n)
        if not rows == len(dist) == expected:
            raise DomainError(f"cache {path} has {rows} rows, {len(dist)} distinct, "
                              f"expected {expected}")
        # rank n and singular: some unprimed point is matched with another
        if not all(len(d.partner) == 2 * n and min(d.partner[:n]) < n for d in dist):
            raise DomainError(f"cache {path} lists a diagram outside the rank-{n} "
                              "singular part")
        if not all(1 <= v <= expected_max_length(n) for v in dist.values()):
            raise DomainError(f"cache {path} has a distance outside "
                              f"1..{expected_max_length(n)}")
        return cls(n, dist)


def bfs_lengths(n: int) -> GeodesicTable:
    """Multi-source BFS from the atoms by right multiplication; the
    distances are exact ls values."""
    if n < 2:
        raise DomainError("the singular part needs n >= 2")
    dist = _bfs_levels(n, [a.partner for a in atoms(n)])
    return GeodesicTable(n, {BrauerDiagram(p): v for p, v in dist.items()})


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
