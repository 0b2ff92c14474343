import csv
import functools
import itertools
import math
from collections import Counter

import pytest

from brauer import geodesics
from brauer.cli import main
from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _atom_pairs,
    atom,
    count_all,
    enumerate_all,
    identity,
    make_diagram,
    multiply,
)
from brauer.geodesics import (
    GeodesicTable,
    _max_witness,
    _orbit_key,
    _orbit_representative,
    _orbit_size,
    bfs_lengths,
    expected_max_length,
    ls_via_cycles,
)


def h1_elements(n):
    """All diagrams with left and right bracket {1,2}: one per permutation
    of {3..n}."""
    out = []
    for images in itertools.permutations(range(3, n + 1)):
        blocks = [(1, 2), (-1, -2)] + [
            (k, -image) for k, image in zip(range(3, n + 1), images)
        ]
        out.append(make_diagram(n, blocks))
    return out


@functools.cache
def reference_bfs(n, pairs):
    """Independent oracle for the orbit search: level-by-level BFS over
    the general product ``multiply(d, atom)`` from the atoms {i,j} named
    by the tuple ``pairs``, mapping every product of them to its least
    number of factors.  Cached, since several test modules read the
    same searches."""
    gens = [atom(n, i, j) for i, j in pairs]
    dist = {g: 1 for g in gens}
    frontier, level = list(dist), 1
    while frontier:
        level += 1
        new = []
        for d in frontier:
            for g in gens:
                e = multiply(d, g)
                if e not in dist:
                    dist[e] = level
                    new.append(e)
        frontier = new
    return dist


def every_atom_search(n):
    """The orbit search that multiplies the first element reached in each
    orbit by every atom, through the general product ``multiply``: maps
    each orbit key to its level."""
    atoms = [atom(n, i, j) for i, j in _atom_pairs(n)]
    orbits = {}
    frontier, level = [identity(n)], 0
    while frontier:
        level += 1
        new = []
        for d in frontier:
            for a in atoms:
                e = multiply(d, a)
                key = _orbit_key(e.partner)
                if key not in orbits:
                    orbits[key] = level
                    new.append(e)
        frontier = new
    return orbits


def closed_form(key):
    """ls = n - s + c - b read off an orbit key: s identity lines,
    c bracket-free cycles through two or more points, b cycles through
    a bracket."""
    s = sum(1 for word in key if word == (0,))
    c = sum(1 for word in key if len(word) >= 2 and 1 not in word)
    b = sum(1 for word in key if 1 in word)
    return sum(map(len, key)) - s + c - b


def level_census(table):
    """Elements per geodesic length, from the orbit sizes."""
    census = Counter()
    for key, v in table.orbits.items():
        census[v] += _orbit_size(key)
    return [census[v] for v in range(1, max(census) + 1)]


class TestOrbits:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_flat_bfs(self, n):
        table = bfs_lengths(n)
        assert table.dist is table  # the benchmark reads len(table.dist)
        if n <= 6:
            flat = reference_bfs(n, tuple(_atom_pairs(n)))
            assert len(table) == len(flat)
            assert all(table[d] == v for d, v in flat.items())
        else:
            # the oracle takes some 12 s at n = 7: check every lookup against
            # the closed form instead (test_level_census_n7 pins the census)
            singular = [d for d in enumerate_all(n) if d.corank]
            assert len(table) == len(singular)
            assert all(table[d] == ls_via_cycles(d) for d in singular)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orbit_sizes_count_keys(self, n):
        counts = Counter(_orbit_key(d.partner) for d in enumerate_all(n))
        assert {key: _orbit_size(key) for key in counts} == counts
        for key in counts:
            assert _orbit_key(_orbit_representative(key)) == key

    @pytest.mark.parametrize("n", range(2, 9))
    def test_representatives_are_one_per_orbit(self, n):
        table = bfs_lengths(n)
        keys = [(_orbit_key(d.partner), v) for d, v in table.representatives()]
        assert sorted(key for key, _ in keys) == sorted(table.orbits)
        assert dict(keys) == table.orbits

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_every_atom_search(self, n):
        assert bfs_lengths(n).orbits == every_atom_search(n)

    # every atom would key 1,201 products at n = 7 and 3,550 at n = 8
    @pytest.mark.parametrize("n,products", [(7, 664), (8, 1835)])
    def test_one_atom_per_class(self, monkeypatch, n, products):
        keyed = []
        orbit_key = geodesics._orbit_key
        monkeypatch.setattr(geodesics, "_orbit_key", lambda p: keyed.append(p) or orbit_key(p))
        bfs_lengths(n)
        assert len(keyed) == products

    def test_census_n8(self):
        assert level_census(bfs_lengths(8)) == [
            28, 546, 6720, 53445, 259840, 688800, 775152, 182574, 19180, 420,
        ]

    @pytest.mark.parametrize("n", [9, 10])
    def test_census_sums_to_singular_part(self, n):
        census = level_census(bfs_lengths(n))
        assert sum(census) == count_all(n) - math.factorial(n)
        assert len(census) == expected_max_length(n) and census[-1] > 0

    def test_closed_form_on_every_orbit(self):
        for n in range(2, 11):
            for key, v in bfs_lengths(n).orbits.items():
                rep = BrauerDiagram(_orbit_representative(key))
                assert ls_via_cycles(rep) == v == closed_form(key), (n, key)


def max_orbit_keys(n):
    """The maximal orbits (n >= 5): transposition cycles (0, 0) plus a
    bracket 2-cycle (0, 1) at even n; at odd n, a bracket 3-cycle
    (0, 0, 1), or a bracket 2-cycle and a 3-cycle (0, 0, 0)."""
    if n % 2 == 0:
        return [((0, 0),) * ((n - 2) // 2) + ((0, 1),)]
    return [((0, 0),) * ((n - 3) // 2) + ((0, 0, 1),),
            ((0, 0),) * ((n - 5) // 2) + ((0, 0, 0), (0, 1))]


class TestMaxWitness:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_witness_lies_in_a_maximal_orbit(self, n):
        table = bfs_lengths(n)
        best = max(table.orbits.values())
        maximal = [key for key, v in table.orbits.items() if v == best]
        if n >= 5:
            assert maximal == max_orbit_keys(n)
        assert _orbit_key(_max_witness(n).partner) in maximal


class TestBfs:
    def test_limit_guard(self, capsys):
        # the rank limit is the command line's; the library has only n >= 2
        assert main(["longest", "9"]) == 2
        assert "--force" in capsys.readouterr().err
        with pytest.raises(DomainError):
            bfs_lengths(1)

    def test_table_rejects_invertible_lookup(self):
        table = bfs_lengths(3)
        with pytest.raises(KeyError):
            table[identity(3)]
        with pytest.raises(KeyError):
            table[atom(4, 1, 2)]


class TestCyclicDecomposition:
    def test_precondition(self):
        # any singular diagram, not only the {1,2} class
        assert ls_via_cycles(atom(4, 1, 3)) == 1
        with pytest.raises(DomainError):
            ls_via_cycles(identity(4))


class TestCache:
    def test_save_load_round_trip(self, tmp_path):
        table = bfs_lengths(3)
        path = tmp_path / "t.csv"
        table.save(path)
        loaded = GeodesicTable.load(path, 3)
        assert loaded.n == 3 and loaded == table

    def test_failed_save_keeps_old_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        bfs_lengths(3).save(path)
        good = path.read_bytes()

        class FailingWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write("partial\n")

            def writerows(self, rows):
                raise OSError("disk full")

        monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(OSError):
            bfs_lengths(3).save(path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
