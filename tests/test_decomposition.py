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
    multiply,
    random_diagram,
)
from brauer.geodesics import _orbit_key, ls_via_cycles
from brauer.presentation import word_to_text
from brauer.verify import run_suites
from test_geodesics import reference_bfs

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


def factorization_text(diagrams):
    """The factorization of each singular diagram, one word per line, each
    checked to open with a left bracket of its diagram and to stay within
    the length bound corank/2 + 3(n-2)/2 + 3, and on the {1,2} class to be
    a geodesic: as long as the cycle formula gives."""
    h1 = frozenset([frozenset((1, 2))])
    lines = []
    for d in diagrams:
        if d.corank < 2:
            continue
        got = decompose(d)
        assert frozenset((got.quarks[0].i, got.quarks[0].j)) in d.left_brackets()
        assert len(got) <= d.corank // 2 + 3 * (d.n - 2) // 2 + 3
        if d.left_brackets() == d.right_brackets() == h1:
            assert len(got) == ls_via_cycles(d)
        lines.append(word_to_text(got) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("n", sorted(DECOMPOSE_SHA256))
def test_every_factorization_is_byte_exact(n):
    text = factorization_text(enumerate_all(n))
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSE_SHA256[n]


# SHA-256 of the factorizations of the singular diagrams among 2,000
# seeded random diagrams of rank 7..32, one word per line; past rank 6
# the permutation left after the brackets has long cycles
RANDOM_DECOMPOSE_SHA256 = "4f9c540779fe7499a06ecfb718ddc76782e3967e20f7fda27077d9ebb2fab93e"


def test_random_factorizations_are_byte_exact():
    rng = random.Random(732)
    text = factorization_text(random_diagram(rng.randint(7, 32), rng) for _ in range(2000))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DECOMPOSE_SHA256


class TestDecompose:
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