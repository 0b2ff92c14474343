import random

import pytest

from brauer.decomposition import (
    atom_closure,
    decompose,
    decompose_corank2,
    decompose_group_corank2,
    is_irreducible_generator_check,
)
from brauer.diagram import (
    DomainError,
    atom,
    count_all,
    enumerate_all,
    identity,
    make_diagram,
    random_diagram,
)
from brauer.presentation import Quark, phi, word

FIG1 = make_diagram(6, [(1, 5), (4, 6), (-2, -4), (-3, -5), (2, -1), (3, -6)])


class TestGroupCorank2:
    def test_atom_is_its_own_factorization(self):
        assert decompose_group_corank2(atom(4, 1, 2)) == word(4, [(1, 2)])

    def test_single_transposition(self):
        pi = make_diagram(4, [(1, 2), (-1, -2), (3, -4), (4, -3)])
        got = decompose_group_corank2(pi)
        assert got == word(4, [(1, 2), (1, 3), (1, 4), (1, 2)])
        assert phi(got) == pi

    def test_three_cycle_round_trip(self):
        pi = make_diagram(5, [(1, 2), (-1, -2), (3, -4), (4, -5), (5, -3)])
        assert phi(decompose_group_corank2(pi)) == pi

    def test_exhaustive_round_trip_n5(self):
        for d in enumerate_all(5):
            if d.corank == 2 and d.left_brackets() == d.right_brackets():
                assert phi(decompose_group_corank2(d)) == d

    def test_preconditions(self):
        with pytest.raises(DomainError):
            decompose_group_corank2(identity(4))
        nongroup = make_diagram(3, [(1, 2), (-2, -3), (3, -1)])
        with pytest.raises(DomainError):
            decompose_group_corank2(nongroup)


class TestCorank2:
    def test_atom(self):
        assert decompose_corank2(atom(5, 2, 4)) == word(5, [(2, 4)])

    def test_bridged_example(self):
        pi = make_diagram(3, [(1, 2), (-2, -3), (3, -1)])
        got = decompose_corank2(pi)
        assert phi(got) == pi
        assert got.quarks[0] == Quark(1, 2)

    def test_exhaustive_round_trip_n5(self):
        # the corank-2 census at n=5 is C(5,2)^2 * 3! = 600 elements
        count = 0
        for d in enumerate_all(5):
            if d.corank != 2:
                continue
            got = decompose_corank2(d)
            assert phi(got) == d
            assert got.quarks[0].points() in d.left_brackets()
            count += 1
        assert count == 600

    def test_rejects_other_coranks(self):
        with pytest.raises(DomainError):
            decompose_corank2(FIG1)


class TestDecompose:
    def test_corank2_passthrough(self):
        pi = make_diagram(3, [(1, 2), (-2, -3), (3, -1)])
        assert decompose(pi) == decompose_corank2(pi)

    def test_fig_element_round_trip(self):
        got = decompose(FIG1)
        assert phi(got) == FIG1
        assert got.quarks[0].points() in FIG1.left_brackets()

    def test_first_factor_is_left_bracket(self):
        rng = random.Random(13)
        for _ in range(300):
            d = random_diagram(rng.randint(2, 7), rng)
            if d.corank < 2:
                continue
            got = decompose(d)
            assert got.quarks[0].points() in d.left_brackets()

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


class TestClosure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_atoms_generate_all_singular_elements(self, n):
        import math

        closure = atom_closure(n)
        assert len(closure) == count_all(n) - math.factorial(n)
        assert closure == {d for d in enumerate_all(n) if d.corank >= 2}

    @pytest.mark.parametrize("n", [3, 4])
    def test_atoms_irreducible(self, n):
        assert is_irreducible_generator_check(n) == []

    def test_rejects_non_atom_generators(self):
        with pytest.raises(DomainError, match="not an atom"):
            atom_closure(3, [identity(3)])
        # corank 2 with equal brackets, but the lines are crossed
        crossed = make_diagram(4, [(1, 2), (-1, -2), (3, -4), (4, -3)])
        with pytest.raises(DomainError, match="not an atom"):
            atom_closure(4, [atom(4, 1, 2), crossed])
        with pytest.raises(DomainError, match="rank mismatch"):
            atom_closure(4, [atom(3, 1, 2)])
