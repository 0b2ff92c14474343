import hashlib
import math
import random

import pytest

from brauer import geodesics
from brauer.decomposition import atom_closure, decompose
from brauer.diagram import (
    RANK_CEILINGS,
    DomainError,
    _atom_pairs,
    atom,
    count_all,
    enumerate_all,
    identity,
    make_diagram,
    multiply,
    random_diagram,
)
from brauer.geodesics import _orbit_key
from brauer.presentation import Quark, phi, word, word_to_text
from brauer.verify import run_suites
from test_geodesics import reference_bfs

FIG1 = make_diagram(6, [(1, 5), (4, 6), (-2, -4), (-3, -5), (2, -1), (3, -6)])


# SHA-256 of the factorization of every singular diagram of rank n, one
# word per line in enumeration order, copied from the three-step
# factorization before the one-pass ``decompose`` replaced it
DECOMPOSE_SHA256 = {
    2: "ad687a067bed044919f0680ca345147cc0511b91755fcd50a8d37c5bba95ea0a",
    3: "1573d2807b856949c9fe76813489ab33fb9805322fea96d5529df256263d9935",
    4: "ce291bd00f9e86898c223b5467033ef48d313ee7496cd15066cc19268dbfd560",
    5: "860f3741bdcd7f4596d6844e95fc4c3c9dd0b09f5f9d73ca88099f888dc40dc9",
    6: "def3077c2838d6712b830e3b2e8bf2a255af458e53015b5cd1b2d9230767f206",
}


@pytest.mark.parametrize("n", sorted(DECOMPOSE_SHA256))
def test_every_factorization_is_byte_exact(n):
    text = "".join(word_to_text(decompose(d)) + "\n" for d in enumerate_all(n) if d.corank >= 2)
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSE_SHA256[n]


# SHA-256 of the factorizations of the singular diagrams among 2,000
# seeded random diagrams of rank 7..32, one word per line; past rank 6
# the permutation left after the brackets has long cycles
RANDOM_DECOMPOSE_SHA256 = "4f9c540779fe7499a06ecfb718ddc76782e3967e20f7fda27077d9ebb2fab93e"


def test_random_factorizations_are_byte_exact():
    rng = random.Random(732)
    diagrams = [random_diagram(rng.randint(7, 32), rng) for _ in range(2000)]
    text = "".join(word_to_text(decompose(d)) + "\n" for d in diagrams if d.corank >= 2)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DECOMPOSE_SHA256


class TestGroupCorank2:
    def test_atom_is_its_own_factorization(self):
        assert decompose(atom(4, 1, 2)) == word(4, [(1, 2)])

    def test_single_transposition(self):
        pi = make_diagram(4, [(1, 2), (-1, -2), (3, -4), (4, -3)])
        got = decompose(pi)
        assert got == word(4, [(1, 2), (1, 3), (1, 4), (1, 2)])
        assert phi(got) == pi

    def test_three_cycle_round_trip(self):
        pi = make_diagram(5, [(1, 2), (-1, -2), (3, -4), (4, -5), (5, -3)])
        assert phi(decompose(pi)) == pi

    def test_exhaustive_round_trip_n5(self):
        for d in enumerate_all(5):
            if d.corank == 2 and d.left_brackets() == d.right_brackets():
                assert phi(decompose(d)) == d

    def test_preconditions(self):
        swap = make_diagram(3, [(1, -2), (2, -1), (3, -3)])
        with pytest.raises(DomainError):
            decompose(swap)


class TestCorank2:
    def test_atom(self):
        assert decompose(atom(5, 2, 4)) == word(5, [(2, 4)])

    def test_bridged_example(self):
        pi = make_diagram(3, [(1, 2), (-2, -3), (3, -1)])
        got = decompose(pi)
        assert phi(got) == pi
        assert got.quarks[0] == Quark(1, 2)

    def test_exhaustive_round_trip_n5(self):
        # the corank-2 census at n=5 is C(5,2)^2 * 3! = 600 elements
        count = 0
        for d in enumerate_all(5):
            if d.corank != 2:
                continue
            got = decompose(d)
            assert phi(got) == d
            assert frozenset((got.quarks[0].i, got.quarks[0].j)) in d.left_brackets()
            count += 1
        assert count == 600


class TestDecompose:
    def test_fig_element_round_trip(self):
        got = decompose(FIG1)
        assert phi(got) == FIG1
        assert frozenset((got.quarks[0].i, got.quarks[0].j)) in FIG1.left_brackets()

    def test_first_factor_is_left_bracket(self):
        rng = random.Random(13)
        for _ in range(300):
            d = random_diagram(rng.randint(2, 7), rng)
            if d.corank < 2:
                continue
            got = decompose(d)
            assert frozenset((got.quarks[0].i, got.quarks[0].j)) in d.left_brackets()

    def test_exhaustive_round_trip_n4(self):
        singular = [d for d in enumerate_all(4) if d.corank >= 2]
        assert len(singular) == 105 - 24
        for d in singular:
            assert phi(decompose(d)) == d

    def test_length_bound(self):
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(2, 7)
            d = random_diagram(n, rng)
            if d.corank < 2:
                continue
            assert len(decompose(d)) <= d.corank // 2 + 3 * (n - 2) // 2 + 3

    def test_rejects_invertible(self):
        with pytest.raises(DomainError):
            decompose(identity(4))


def reducible_atoms(n):
    """The oracle: the brackets of the atoms that lie in the flat closure
    of the other atoms, one closure per atom."""
    pairs = _atom_pairs(n)
    return [
        p for p in pairs
        if atom(n, *p) in reference_bfs(n, tuple(q for q in pairs if q != p))
    ]


class TestClosure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_atoms_generate_all_singular_elements(self, n):
        # the flat search over the general product closes the atoms element
        # by element: it is the oracle for the orbit table, read through its keys
        closure, flat = atom_closure(n), reference_bfs(n, tuple(_atom_pairs(n)))
        assert len(closure) == count_all(n) - math.factorial(n)
        assert set(flat) == {d for d in enumerate_all(n) if d.corank >= 2}
        assert {_orbit_key(d.partner) for d in flat} == set(closure.orbits)

    def test_refuses_a_rank_past_its_ceiling_before_the_search(self, monkeypatch):
        def step(n, pairs):
            raise AssertionError("the search started")

        monkeypatch.setattr(geodesics, "_atom_product", step)
        n = RANK_CEILINGS["BFS"] + 1
        with pytest.raises(DomainError, match=f"^rank n={n} exceeds the BFS rank limit {n - 1}$"):
            atom_closure(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_atoms_irreducible(self, n):
        assert reducible_atoms(n) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_suite_agrees_with_per_atom_closures(self, n):
        claims = run_suites(n, ["irreducible"])
        assert [c.computed for c in claims] == [0, 0]
        assert all(c.ok for c in claims) == (reducible_atoms(n) == [])


class TestLeftBracketLemma:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_atom_step_drops_a_left_bracket(self, n):
        # every singular element, not only the orbit representatives the
        # suite checks, so the reduction to orbits is pinned too
        atoms = [atom(n, i, j) for i, j in _atom_pairs(n)]
        dropped = [
            (d, a) for d in enumerate_all(n) if d.corank for a in atoms
            if not d.left_brackets() <= multiply(d, a).left_brackets()
        ]
        assert dropped == []