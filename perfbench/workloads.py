"""The four workloads: seeded inputs, one round of work, and an oracle.

Inputs are plain text built here from ``random.Random`` streams seeded by
the run's seed, never by the program's own generators; the program only
ever sees that text.  Each workload keeps every output it produced and
checks all of them in ``check``, after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import shutil
import statistics
import tempfile
import time
from types import SimpleNamespace

from brauer import cli
from brauer.decomposition import decompose
from brauer.diagram import atom, multiply, parse_diagram
from brauer.geodesics import expected_max_length, load_or_compute_table, ls_via_cycles
from brauer.presentation import (
    is_normal_form,
    normalize,
    parse_word,
    phi,
    star,
    word_to_text,
    words_equal_in_T,
)

clock = time.perf_counter


def singular_count(n: int) -> int:
    """(2n-1)!! - n!, the size of the singular part of rank n."""
    return math.prod(range(1, 2 * n, 2)) - math.factorial(n)


# --- seeded text inputs ------------------------------------------------------
# A diagram is a dict over signed points (i > 0 unprimed, -i primed) that
# maps each point to its partner.

def random_matching(rng: random.Random, n: int) -> dict[int, int]:
    points = list(range(1, n + 1)) + list(range(-n, 0))
    rng.shuffle(points)
    d = {}
    for a, b in zip(points[::2], points[1::2]):
        d[a], d[b] = b, a
    return d


def left_brackets(d: dict[int, int]) -> set[frozenset[int]]:
    return {frozenset((p, q)) for p, q in d.items() if p > 0 and q > 0}


def random_singular(rng: random.Random, n: int) -> dict[int, int]:
    while True:
        d = random_matching(rng, n)
        if left_brackets(d):
            return d


def h12_element(rng: random.Random, n: int) -> dict[int, int]:
    """An element with left and right bracket {1,2}: a permutation of 3..n."""
    images = list(range(3, n + 1))
    rng.shuffle(images)
    d = {1: 2, 2: 1, -1: -2, -2: -1}
    for p, q in zip(range(3, n + 1), images):
        d[p], d[-q] = -q, p
    return d


def _point(p: int) -> str:
    return str(p) if p > 0 else f"{-p}'"


def diagram_text(n: int, d: dict[int, int], rng: random.Random | None = None) -> str:
    """Canonical text form; with ``rng``, blocks in shuffled order and
    orientation (the parser accepts any order)."""
    index = lambda p: p - 1 if p > 0 else n - p - 1
    blocks = sorted(((p, q) for p, q in d.items() if index(p) < index(q)),
                    key=lambda b: (index(b[0]), index(b[1])))
    if rng is not None:
        rng.shuffle(blocks)
        blocks = [b if rng.random() < 0.5 else b[::-1] for b in blocks]
    return f"n={n};" + "".join("{%s,%s}" % (_point(p), _point(q)) for p, q in blocks)


_BLOCK = re.compile(r"\{(\d+)('?),(\d+)('?)\}")
_PAIR = re.compile(r"\((\d+),(\d+)\)")


def read_diagram(text: str) -> tuple[int, dict[int, int]]:
    head, body = text.split(";", 1)
    d = {}
    for a, pa, b, pb in _BLOCK.findall(body):
        x, y = int(a) * (-1 if pa else 1), int(b) * (-1 if pb else 1)
        d[x], d[y] = y, x
    return int(head[2:]), d


def word_text(n: int, pairs) -> str:
    return f"n={n}: " + "".join(f"({i},{j})" for i, j in pairs)


def read_word(text: str) -> tuple[int, list[tuple[int, int]]]:
    head, body = text.split(":", 1)
    return int(head[2:]), [(int(i), int(j)) for i, j in _PAIR.findall(body)]


def random_word(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    return [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(length)]


def equal_variant(rng: random.Random, n: int, pairs) -> list[tuple[int, int]]:
    """A different word with the same value in T: duplicate a letter (R2),
    expand one letter {i,j} to {i,j}{j,k}{i,j} (R5), swap one adjacent
    disjoint pair (R7)."""
    w = list(pairs)
    p = rng.randrange(len(w))
    w.insert(p, w[p])
    p = rng.randrange(len(w))
    i, j = w[p]
    k = rng.choice([x for x in range(1, n + 1) if x not in (i, j)])
    w[p:p + 1] = [(i, j), (j, k), (i, j)]
    swaps = [s for s in range(len(w) - 1) if not set(w[s]) & set(w[s + 1])]
    if swaps:
        s = rng.choice(swaps)
        w[s], w[s + 1] = w[s + 1], w[s]
    return w


# --- reference evaluation (independent of the program) ----------------------

def ref_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Glue a's primed points to b's unprimed ones and follow the chain
    from each outer point to the next; closed middle loops are never met."""
    n = len(a) // 2
    out = {}
    for start in [*range(1, n + 1), *range(-n, 0)]:
        if start in out:
            continue
        f, x = (a, start) if start > 0 else (b, start)
        while True:
            y = f[x]
            if f is a and y < 0:
                f, x = b, -y
            elif f is b and y > 0:
                f, x = a, -y
            else:
                break
        out[start], out[y] = y, start
    return out


def ref_atom(n: int, i: int, j: int) -> dict[int, int]:
    d = {p: -p for p in range(1, n + 1)}
    d.update({-p: p for p in range(1, n + 1)})
    d.update({i: j, j: i, -i: -j, -j: -i})
    return d


def ref_eval(n: int, pairs) -> dict[int, int]:
    """Product of the atoms, one right multiplication at a time: d times
    atom {i,j} joins the partners of i' and j' and brackets {i',j'}; if
    {i',j'} is already a bracket of d the loop closes and d is unchanged."""
    d = ref_atom(n, *pairs[0])
    for i, j in pairs[1:]:
        a, b = d[-i], d[-j]
        if a != -j:
            d[a], d[b] = b, a
            d[-i], d[-j] = -j, -i
    return d


# --- calling the program ------------------------------------------------------

def _serve_decompose(text):
    d = api.parse_diagram(text)
    w = api.decompose(d)
    verified = "true" if api.phi(w) == d else "false"
    return f"{word_to_text(w)}\nverified: {verified}"


def _serve_normalize(text):
    return word_to_text(api.normalize(api.parse_word(text)))


def _serve_phi(text):
    return api.phi(api.parse_word(text)).to_text()


def _serve_equal(u, v):
    equal = api.words_equal_in_T(api.parse_word(u), api.parse_word(v))
    return "true" if equal else "false"


def _serve_mult(a, b):
    return api.multiply(api.parse_diagram(a), api.parse_diagram(b)).to_text()


# Every entry point a workload calls, looked up at call time, so the
# traced run can swap in wrappers and untraced runs pay nothing.
api = SimpleNamespace(
    cli_main=cli.main,
    parse_diagram=parse_diagram,
    parse_word=parse_word,
    decompose=decompose,
    phi=phi,
    normalize=normalize,
    words_equal_in_T=words_equal_in_T,
    multiply=multiply,
    handlers={
        "decompose": _serve_decompose,
        "normalize": _serve_normalize,
        "phi": _serve_phi,
        "equal": _serve_equal,
        "mult": _serve_mult,
    },
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``brauer`` command in this process, output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli_main(argv)
    return code, out.getvalue()


def warm_up(commands) -> None:
    for argv in commands:
        code, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up command {argv} exited {code}")


# --- workloads ------------------------------------------------------------------

class Workload:
    """``setup`` builds the state and inputs (called ``setups`` times; the
    last state is measured), ``round`` runs one unit of work and returns
    (its wall time, the latency of each operation in it), ``check``
    checks the outputs logged since the last check, forgets them, and
    returns (operations attempted, operations failed or wrong)."""

    name = ""
    setups = 5

    def __init__(self, seed: int, scratch: str):
        self.seed, self.scratch = seed, scratch
        self.clock = time.perf_counter  # the end-to-end run swaps in SpeedProbe.now

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def _done(self, failed: int) -> tuple[int, int]:
        attempted = len(self.log)
        self.log = []
        return attempted, failed


class BfsCold(Workload):
    """``brauer longest 7`` against an empty cache directory each round."""

    name = "bfs-cold"
    N = 7

    def setup(self):
        warm_up([["longest", "6", "--cache-dir", self.fresh_dir()]])
        self.log = []

    def round(self):
        cache = self.fresh_dir()
        t0 = self.clock()
        code, out = run_cli(["longest", str(self.N), "--cache-dir", cache])
        wall = self.clock() - t0
        self.log.append((cache, code, out))
        return wall, [wall]

    def check(self):
        expected = 3 * self.N // 2 - 2
        failed = 0
        for cache, code, out in self.log:
            lines = out.split("\n")
            ok = code == 0 and lines[0] == str(expected) == str(expected_max_length(self.N))
            ok = ok and bool(os.listdir(cache))  # the run wrote its cache
            if ok:
                table = load_or_compute_table(self.N, cache_dir=cache)
                try:
                    ok = (len(table.dist) == singular_count(self.N)
                          and table[parse_diagram(lines[1])] == expected)
                except (ValueError, IndexError, KeyError):  # malformed witness
                    ok = False
            failed += not ok
            shutil.rmtree(cache)
        return self._done(failed)


class LookupWarm(Workload):
    """``brauer length <rank-7 diagram>`` against a cache set-up built;
    set-up runs the BFS, so it is done once per run."""

    name = "lookup-warm"
    setups = 1
    N = 7
    QUERIES = 16

    def setup(self):
        self.cache = self.fresh_dir()
        self.reference = load_or_compute_table(self.N, cache_dir=self.cache)
        rng = self.rng("queries")
        self.queries = [
            diagram_text(self.N, (h12_element if q % 2 else random_singular)(rng, self.N), rng)
            for q in range(self.QUERIES)
        ]
        self.sent = 0
        self.log = []

    def round(self):
        query = self.queries[self.sent % len(self.queries)]
        self.sent += 1
        t0 = self.clock()
        code, out = run_cli(["length", query, "--cache-dir", self.cache])
        wall = self.clock() - t0
        self.log.append((query, code, out))
        return wall, [wall]

    def check(self):
        failed = 0
        for query, code, out in self.log:
            d = parse_diagram(query)
            expected = self.reference[d]
            ok = code == 0 and out == f"{expected}\n"
            _, blocks = read_diagram(query)
            if left_brackets(blocks) == {frozenset((1, 2))} and blocks[-1] == -2:
                ok = ok and ls_via_cycles(d) == expected
            failed += not ok
        return self._done(failed)


class Words(Workload):
    """A closed-loop stream of library requests, text in and text out."""

    name = "words"
    KINDS = ("decompose", "normalize", "phi", "equal", "mult")
    RANKS = (4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32)
    MAX_LETTERS = 24
    BATCH = 500
    WARM_UP_BATCHES = 2

    def setup(self):
        self.stream = self.rng("requests")
        self.log = []
        for _ in range(self.WARM_UP_BATCHES):
            for kind, args, _ in self._batch():
                api.handlers[kind](*args)

    def _request(self):
        rng = self.stream
        kind, n = rng.choice(self.KINDS), rng.choice(self.RANKS)
        if kind == "decompose":
            return kind, (diagram_text(n, random_singular(rng, n), rng),), None
        if kind == "mult":
            return kind, tuple(diagram_text(n, random_matching(rng, n), rng) for _ in "ab"), None
        u = random_word(rng, n, rng.randint(1, self.MAX_LETTERS))
        if kind != "equal":
            return kind, (word_text(n, u),), None
        if rng.random() < 0.5:
            return kind, (word_text(n, u), word_text(n, equal_variant(rng, n, u))), True
        v = random_word(rng, n, rng.randint(1, self.MAX_LETTERS))
        return kind, (word_text(n, u), word_text(n, v)), None

    def _batch(self):
        return [self._request() for _ in range(self.BATCH)]

    def round(self):
        batch = self._batch()
        handlers, log, latencies, now = api.handlers, self.log, [], self.clock
        start = now()
        for kind, args, truth in batch:
            t0 = now()
            try:
                out = handlers[kind](*args)
            except Exception as exc:  # counted as a failed request by check
                out = exc
            latencies.append(now() - t0)
            log.append((kind, args, truth, out))
        return now() - start, latencies

    def check(self):
        failed = 0
        for entry in self.log:
            try:
                failed += not self._correct(*entry)
            except (ValueError, IndexError, KeyError):  # malformed output
                failed += 1
        return self._done(failed)

    @staticmethod
    def _correct(kind, args, truth, out) -> bool:
        if not isinstance(out, str):
            return False
        if kind == "decompose":
            n, d = read_diagram(args[0])
            text, _, flag = out.partition("\n")
            m, pairs = read_word(text)
            return (flag == "verified: true" and m == n and text == word_text(n, pairs)
                    and ref_eval(n, pairs) == d and d[pairs[0][0]] == pairs[0][1])
        if kind == "normalize":
            n, before = read_word(args[0])
            m, after = read_word(out)
            return (m == n and out == word_text(n, after)
                    and is_normal_form(parse_word(out))
                    and ref_eval(n, after) == ref_eval(n, before))
        if kind == "phi":
            n, pairs = read_word(args[0])
            w = parse_word(args[0])
            return (out == diagram_text(n, ref_eval(n, pairs))
                    and phi(star(w)) == parse_diagram(out).transpose())
        if kind == "equal":
            if truth is None:
                truth = ref_eval(*read_word(args[0])) == ref_eval(*read_word(args[1]))
            return out == ("true" if truth else "false")
        (n, a), (_, b) = read_diagram(args[0]), read_diagram(args[1])
        left, right = parse_diagram(args[0]), parse_diagram(args[1])
        return (out == diagram_text(n, ref_product(a, b))
                and multiply(right.transpose(), left.transpose()) == parse_diagram(out).transpose())


class Audit(Workload):
    """The exhaustive suites, each at its own limit, in a seeded order."""

    name = "audit"
    COMMANDS = (
        ("verify", "8", "relations"),
        ("verify", "6", "generation"),
        ("verify", "5", "irreducible"),
        ("verify", "7", "counts", "hclasses"),
        ("classes", "7"),
    )
    WARM_UP = (
        ("verify", "7", "relations"),
        ("verify", "5", "generation"),
        ("verify", "4", "irreducible"),
        ("verify", "6", "counts", "hclasses"),
        ("classes", "6"),
    )

    def setup(self):
        warm_up([list(c) for c in self.WARM_UP])
        self.order = self.rng("order")
        self.log = []

    def round(self):
        latencies = []
        start = self.clock()
        for argv in self.order.sample(self.COMMANDS, len(self.COMMANDS)):
            t0 = self.clock()
            code, out = run_cli(list(argv))
            latencies.append(self.clock() - t0)
            self.log.append((argv, code, out))
        return self.clock() - start, latencies

    def check(self):
        classes = 7 * 6 * math.factorial(7) // 4  # n(n-1)n!/4 = 52920
        failed = 0
        for argv, code, out in self.log:
            lines = out.splitlines()
            if argv[0] == "classes":
                ok = lines == [str(classes)]
            else:
                ok = bool(lines) and all(line.startswith("PASS ") for line in lines)
            failed += code != 0 or not ok
        return self._done(failed)


WORKLOADS = {w.name: w for w in (BfsCold, LookupWarm, Words, Audit)}


# --- kernels timed directly in the traced run --------------------------------

def micro_layers(seed: int) -> dict[str, float]:
    """Per-call time of one atom step (``multiply(d, atom)``) and of the
    bracket-set accessors, on seeded rank-7 diagrams; median of 5 passes."""
    rng = random.Random(f"micro:{seed}")
    diagrams = [parse_diagram(diagram_text(7, random_singular(rng, 7))) for _ in range(300)]
    gens = [atom(7, i, j) for i in range(1, 8) for j in range(i + 1, 8)]

    def per_call(fn, calls):
        times = []
        for _ in range(5):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return statistics.median(times) / calls * 1e6

    def steps():
        for d in diagrams:
            for g in gens:
                multiply(d, g)

    def brackets():
        for d in diagrams:
            d.left_brackets()
            d.right_brackets()

    return {
        "diagram.atom_step.us": per_call(steps, len(diagrams) * len(gens)),
        "diagram.brackets.us": per_call(brackets, 2 * len(diagrams)),
    }
