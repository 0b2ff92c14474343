"""Acceptance suite: every numbered criterion at its stated tolerance.

All values are exact combinatorial counts; the only tolerances are the
two wall-clock budgets (rank-7 enumeration under 60 s, rank-7 BFS under
300 s).  Each test prints one PASS/FAIL line; run with ``pytest -s`` to
see them on success.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from brauer.decomposition import atom_closure, decompose
from brauer.diagram import (
    _atom_pairs,
    count_all,
    enumerate_all,
    identity,
    multiply,
    random_diagram,
)
from brauer.geodesics import _orbit_key, bfs_lengths, expected_max_length, ls_via_cycles
from brauer.presentation import (
    Word,
    check_all_relations,
    gamma,
    is_connected,
    is_normal_form,
    normalize,
    phi,
    word,
)
from brauer.sequences import corank2_census, expected_class_count
from test_decomposition import reducible_atoms
from test_geodesics import h1_elements, reference_bfs
from test_presentation import random_word

SEED = 20240915


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = bfs_lengths(n)
        return cache[n]

    return get


def test_criterion_01_cardinality():
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395, 7: 135135}
    counts = {}
    start = time.perf_counter()
    for n in range(1, 8):
        counts[n] = sum(1 for _ in enumerate_all(n))
    elapsed = time.perf_counter() - start
    ok = counts == {n: count_all(n) for n in range(1, 8)} == expected and elapsed < 60
    report(1, ok, f"(2n-1)!! counts for n=1..7 = {list(counts.values())}, {elapsed:.1f}s")


def test_criterion_02_relations():
    violations = {n: len(check_all_relations(n)[1]) for n in (4, 5, 6)}
    ok = all(v == 0 for v in violations.values())
    report(2, ok, f"relation violations for n=4,5,6: {list(violations.values())}")


def test_criterion_03_generation():
    expected = {3: 9, 4: 81, 5: 825}
    sizes, exact = {}, True
    for n in expected:
        # the flat search over the general product is the oracle: it closes
        # the atoms element by element
        closure, flat = atom_closure(n), reference_bfs(n, tuple(_atom_pairs(n)))
        sizes[n] = len(closure)
        exact &= set(flat) == {d for d in enumerate_all(n) if d.corank >= 2}
        exact &= {_orbit_key(d.partner) for d in flat} == set(closure.orbits)
    ok = sizes == expected and exact
    report(3, ok, f"atom closures for n=3,4,5 have sizes {list(sizes.values())}")


def test_criterion_04_irreducibility():
    reducible = {n: len(reducible_atoms(n)) for n in (3, 4, 5)}
    ok = all(v == 0 for v in reducible.values())
    report(4, ok, f"atoms reducible over the rest for n=3,4,5: {list(reducible.values())}")


def test_criterion_05_decomposition_round_trip():
    failures = 0
    checked_exhaustive = 0
    for n in (2, 3, 4, 5):
        for d in enumerate_all(n):
            if d.corank < 2:
                continue
            checked_exhaustive += 1
            if phi(decompose(d)) != d:
                failures += 1
    rng = random.Random(SEED)
    checked_random = 0
    for n in (6, 7):
        done = 0
        while done < 10_000:
            d = random_diagram(n, rng)
            if d.corank < 2:
                continue
            if phi(decompose(d)) != d:
                failures += 1
            done += 1
        checked_random += done
    ok = failures == 0 and checked_exhaustive == (3 - 2) + (15 - 6) + (105 - 24) + (945 - 120)
    report(
        5,
        ok,
        f"round trips: {checked_exhaustive} exhaustive (n<=5) + "
        f"{checked_random} random (n=6,7), {failures} failures",
    )


def test_criterion_06_maximal_length(tables):
    expected = {2: 1, 3: 2, 4: 4, 5: 5, 6: 7, 7: 8}
    got = {}
    start = time.perf_counter()
    for n in range(2, 8):
        got[n] = tables(n).max_entry()[0]
    elapsed = time.perf_counter() - start
    ok = (
        got == expected
        and all(expected_max_length(n) == v for n, v in expected.items())
        and elapsed < 300
    )
    report(6, ok, f"max lengths n=2..7 = {list(got.values())}, BFS in {elapsed:.1f}s")


def test_level_census_n7(tables):
    # elements of each geodesic length 1..8; reads the criterion-06 table
    census = [21, 315, 2835, 15330, 44415, 53550, 12579, 1050]
    table = tables(7)
    counts = Counter(table[d] for d in enumerate_all(7) if d.corank)
    ok = sorted(counts.items()) == list(enumerate(census, 1))
    report(6, ok, f"rank-7 elements per length = {dict(sorted(counts.items()))}")


def test_criterion_07_h1_length_formula(tables):
    mismatches = 0
    checked = 0
    for n in (4, 5, 6):
        table = tables(n)
        for d in h1_elements(n):
            checked += 1
            if ls_via_cycles(d) != table[d]:
                mismatches += 1
    ok = mismatches == 0 and checked == sum(math.factorial(n - 2) for n in (4, 5, 6))
    report(7, ok, f"cycle formula vs BFS on {checked} elements over {{1,2}}: {mismatches} mismatches")


def test_criterion_08_h_class_sizes():
    bad = 0
    for n in range(2, 7):
        sizes = {}
        for d in enumerate_all(n):
            key = (d.left_brackets(), d.right_brackets())
            sizes[key] = sizes.get(key, 0) + 1
        for (lb, _), size in sizes.items():
            if size != math.factorial(n - 2 * len(lb)):
                bad += 1
    report(8, bad == 0, f"H-class sizes equal (n-2k)! for n<=6, all k: {bad} off")


def test_criterion_09_class_counts():
    expected = {2: 1, 3: 9, 4: 72, 5: 600, 6: 5400}
    got, bad_paths = {}, 0
    for n in expected:
        census = corank2_census(n)
        got[n] = sum(census.values())
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for frm in pairs:
            for to in pairs:
                if census.get((frm, to), 0) != math.factorial(n - 2):
                    bad_paths += 1
    ok = got == expected == {n: expected_class_count(n) for n in expected} and bad_paths == 0
    report(
        9,
        ok,
        f"class counts n=2..6 = {list(got.values())}, endpoint pairs off (n-2)!: {bad_paths}",
    )


def test_criterion_10_normal_form():
    rng = random.Random(SEED + 1)
    failures = 0
    for _ in range(10_000):
        w = random_word(rng)
        result = normalize(w)
        if not is_normal_form(result) or phi(result) != phi(w):
            failures += 1
    report(10, failures == 0, f"normalize on 10000 random words (n<=8): {failures} failures")


def test_criterion_11_coxeter_relations():
    failures = 0
    checked = 0
    base_failed = False
    for n in (5, 6, 7):
        base = phi(word(n, [(1, 2)]))
        gens = {i: gamma(n, i) for i in range(3, n)}
        for i, gi in gens.items():
            checked += 1
            if phi(Word(n, gi.quarks * 2)) != base:
                failures += 1
                base_failed = True
        for i, j in itertools.combinations(gens, 2):
            gi, gj = gens[i], gens[j]
            checked += 1
            if abs(i - j) == 1:
                ok = phi(Word(n, gi.quarks + gj.quarks + gi.quarks)) == phi(
                    Word(n, gj.quarks + gi.quarks + gj.quarks)
                )
            else:
                ok = phi(Word(n, gi.quarks + gj.quarks)) == phi(
                    Word(n, gj.quarks + gi.quarks)
                )
            if not ok:
                failures += 1
    report(
        11,
        failures == 0 and not base_failed,
        f"square/commute/braid checks for n=5,6,7: {checked} identities, {failures} failures",
    )


def test_criterion_12_property_suites():
    rng = random.Random(SEED + 2)
    trials_per_suite = 20_000
    failures = {}

    count = 0
    for _ in range(trials_per_suite):
        n = rng.randint(2, 6)
        a, b, c = (random_diagram(n, rng) for _ in range(3))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            count += 1
    failures["associativity"] = count

    count = 0
    for _ in range(trials_per_suite):
        n = rng.randint(1, 6)
        d, e = random_diagram(n, rng), identity(n)
        if multiply(e, d) != d or multiply(d, e) != d:
            count += 1
    failures["identity"] = count

    count = 0
    for _ in range(trials_per_suite):
        n = rng.randint(2, 6)
        a, b = random_diagram(n, rng), random_diagram(n, rng)
        if multiply(a, b).corank < max(a.corank, b.corank):
            count += 1
    failures["corank-monotone"] = count

    count = 0
    for _ in range(trials_per_suite):
        w = random_word(rng, max_n=6, max_len=8)
        if phi(Word(w.n, tuple(reversed(w.quarks)))) != phi(w).transpose():
            count += 1
    failures["star-transpose"] = count

    count = 0
    done = 0
    while done < trials_per_suite:
        w = random_word(rng, max_n=6, max_len=6)
        if not is_connected(w):
            continue
        done += 1
        both = Word(w.n, w.quarks + tuple(reversed(w.quarks)))
        if phi(both) != phi(Word(w.n, w.quarks[:1])):
            count += 1
    failures["head-contraction"] = count

    total = sum(failures.values())
    report(
        12,
        total == 0,
        f"5 property suites x {trials_per_suite} seeded trials: {failures}",
    )
