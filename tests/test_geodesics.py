import csv
import itertools
import random
from collections import Counter

import pytest

from brauer.cli import main
from brauer.decomposition import decompose_group_corank2
from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    _bfs_levels,
    atom,
    atoms,
    enumerate_all,
    identity,
    make_diagram,
    multiply,
)
from brauer.geodesics import (
    GeodesicTable,
    bfs_lengths,
    expected_max_length,
    load_or_compute_table,
    ls_via_cycles,
    max_length,
)
from brauer.presentation import phi, word


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


def brute_force_lengths(n, max_len):
    """Independent oracle: expand every word over the atoms up to max_len
    and record the first length at which each diagram appears."""
    gens = atoms(n)
    best = {}
    layer = {g: None for g in gens}
    for length in range(1, max_len + 1):
        for d in layer:
            best.setdefault(d, length)
        layer = {multiply(d, g): None for d in layer for g in gens}
    return best


def reference_bfs(n, pairs):
    """Level-by-level BFS over the general product ``multiply(d, atom)``."""
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


class TestBfsKernel:
    # skip: the irreducibility check runs the kernel without one atom
    @pytest.mark.parametrize("n,skip", [(2, None), (3, None), (4, None), (5, None), (4, (1, 2))])
    def test_atom_step_matches_general_product(self, n, skip):
        pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if p != skip]
        dist = _bfs_levels(n, pairs)
        assert {BrauerDiagram(p): v for p, v in dist.items()} == reference_bfs(n, pairs)

    @pytest.mark.parametrize("n,census", [
        (3, [3, 6]),
        (4, [6, 27, 42, 6]),
        (5, [10, 75, 270, 390, 80]),
        (6, [15, 165, 1005, 3240, 4245, 960, 45]),
    ])
    def test_level_census(self, n, census):
        counts = Counter(bfs_lengths(n).dist.values())
        assert sorted(counts.items()) == list(enumerate(census, 1))


class TestBfs:
    def test_atoms_have_distance_one(self):
        table = bfs_lengths(4)
        for a in atoms(4):
            assert table[a] == 1

    def test_two_step_product(self):
        table = bfs_lengths(3)
        assert table[phi(word(3, [(1, 2), (2, 3)]))] == 2

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 4), (5, 5)])
    def test_max_matches_formula(self, n, expected):
        assert expected_max_length(n) == expected
        value, witness = max_length(n)
        assert value == expected
        assert bfs_lengths(n)[witness] == value

    def test_agrees_with_word_enumeration_n3(self):
        oracle = brute_force_lengths(3, 4)
        table = bfs_lengths(3)
        assert table.dist == oracle

    def test_covers_exactly_the_singular_part(self):
        table = bfs_lengths(4)
        singular = {d for d in enumerate_all(4) if d.corank >= 2}
        assert set(table.dist) == singular

    def test_limit_guard(self, capsys):
        # the rank limit is the command line's; the library has only n >= 2
        assert main(["longest", "8"]) == 2
        assert "--force" in capsys.readouterr().err
        with pytest.raises(DomainError):
            max_length(1)

    def test_table_rejects_invertible_lookup(self):
        table = bfs_lengths(3)
        with pytest.raises(DomainError):
            table[identity(3)]

    def test_length_at_least_half_corank(self):
        for n in (2, 3, 4):
            table = bfs_lengths(n)
            for d, v in table.dist.items():
                assert v >= d.corank // 2

    def test_length_invariant_under_transpose(self):
        for n in (3, 4, 5):
            table = bfs_lengths(n)
            for d, v in table.dist.items():
                assert table[d.transpose()] == v


class TestCyclicDecomposition:
    def test_atom_case(self):
        # no cycles, three fixed points: (5-2) - 3 + 0 + 1
        assert ls_via_cycles(atom(5, 1, 2)) == 1
        assert decompose_group_corank2(atom(5, 1, 2)) == word(5, [(1, 2)])
        assert ls_via_cycles(atom(6, 1, 2)) == 1

    def test_single_transposition(self):
        pi = make_diagram(4, [(1, 2), (-1, -2), (3, -4), (4, -3)])
        # the one cycle (3 4): base atom, a run through 3 and 4, base atom
        assert decompose_group_corank2(pi) == word(4, [(1, 2), (1, 3), (1, 4), (1, 2)])
        assert ls_via_cycles(pi) == 4
        assert bfs_lengths(4)[pi] == 4

    def test_three_cycle_attains_max_n5(self):
        pi = make_diagram(5, [(1, 2), (-1, -2), (3, -4), (4, -5), (5, -3)])
        assert ls_via_cycles(pi) == 5 == expected_max_length(5)

    def test_two_transpositions_attain_max_n6(self):
        pi = make_diagram(
            6, [(1, 2), (-1, -2), (3, -4), (4, -3), (5, -6), (6, -5)]
        )
        w = decompose_group_corank2(pi)
        assert len(w) == 7 == ls_via_cycles(pi) == expected_max_length(6)
        assert phi(w) == pi

    def test_word_evaluates_back(self):
        for n in (4, 5):
            for pi in h1_elements(n):
                w = decompose_group_corank2(pi)
                assert phi(w) == pi
                assert len(w) == ls_via_cycles(pi)

    def test_formula_matches_bfs(self):
        for n in (4, 5):
            table = bfs_lengths(n)
            for pi in h1_elements(n):
                assert ls_via_cycles(pi) == table[pi]

    def test_precondition(self):
        with pytest.raises(DomainError):
            ls_via_cycles(atom(4, 1, 3))
        with pytest.raises(DomainError):
            ls_via_cycles(identity(4))


class TestCache:
    def test_save_load_round_trip(self, tmp_path):
        table = bfs_lengths(3)
        path = tmp_path / "t.csv"
        table.save(path)
        loaded = GeodesicTable.load(path, 3)
        assert loaded.n == 3 and loaded.dist == table.dist

    def test_load_rejects_wrong_rank(self, tmp_path):
        path = tmp_path / "t.csv"
        bfs_lengths(3).save(path)
        with pytest.raises(DomainError):
            GeodesicTable.load(path, 4)

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("format,99\nn,3\ndiagram,distance\n")
        with pytest.raises(DomainError):
            GeodesicTable.load(path, 3)

    @pytest.mark.parametrize("damage", [
        "missing_row", "duplicate_row", "distance_zero", "distance_too_large",
        "invertible_row", "wrong_rank_row", "extra_field", "not_a_number",
    ])
    def test_load_rejects_damaged_rows(self, tmp_path, damage):
        path = tmp_path / "t.csv"
        bfs_lengths(3).save(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        head, body, (text, value) = rows[:3], rows[3:-1], rows[-1]
        last = {
            "missing_row": [],
            "duplicate_row": [[text, value], [text, value]],
            "distance_zero": [[text, "0"]],
            "distance_too_large": [[text, str(expected_max_length(3) + 1)]],
            "invertible_row": [["n=3;{1,1'}{2,2'}{3,3'}", "1"]],
            "wrong_rank_row": [["n=2;{1,2}{1',2'}", "1"]],
            "extra_field": [[text, value, "1"]],
            "not_a_number": [[text, "x"]],
        }[damage]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(head + body + last)
        with pytest.raises(DomainError):
            GeodesicTable.load(path, 3)

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

    def test_load_or_compute_populates_cache(self, tmp_path):
        t1 = load_or_compute_table(3, cache_dir=tmp_path)
        assert (tmp_path / "geodesics-n3.csv").exists()
        t2 = load_or_compute_table(3, cache_dir=tmp_path)
        assert t1.dist == t2.dist

    def test_stale_cache_recomputed(self, tmp_path):
        (tmp_path / "geodesics-n3.csv").write_text("format,99\n")
        table = load_or_compute_table(3, cache_dir=tmp_path)
        assert table.dist == bfs_lengths(3).dist
        # the bad file was replaced with a loadable one
        assert GeodesicTable.load(tmp_path / "geodesics-n3.csv", 3).dist == table.dist
