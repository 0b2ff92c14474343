"""Property tests: the text formats round-trip, corank counts the points
in left brackets, the product is associative and matches the component
oracle, factorizations evaluate back, and the CLI answers any positional
text, with or without its output flags, with exit 0 or 2."""

import argparse
import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from brauer.cli import build_parser, main
from brauer.decomposition import decompose
from brauer.diagram import BrauerDiagram, multiply, parse_diagram
from brauer.presentation import parse_word, phi, word, word_to_text
from test_cli import LONG
from test_diagram import compose_by_components

# fixed examples, no timing deadline and no example database, so every
# run checks the same cases in bounded time
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def diagrams(draw, min_rank=1, max_rank=6, n=None):
    """A diagram of rank n (drawn if not given): a shuffled list of the
    2n points, paired off two by two."""
    if n is None:
        n = draw(st.integers(min_rank, max_rank))
    points = draw(st.permutations(range(2 * n)))
    partner = [0] * (2 * n)
    for p, q in zip(points[::2], points[1::2]):
        partner[p], partner[q] = q, p
    return BrauerDiagram(tuple(partner))


@st.composite
def words(draw, max_rank=8):
    n = draw(st.integers(2, max_rank))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    return word(n, draw(st.lists(pair, min_size=1, max_size=12)))


@st.composite
def same_rank_diagrams(draw, count):
    n = draw(st.integers(1, 7))
    return [draw(diagrams(n=n)) for _ in range(count)]


@PROPERTY
@given(diagrams())
def test_diagram_text_round_trip(d):
    assert parse_diagram(d.to_text()) == d


@PROPERTY
@given(diagrams(max_rank=32))
def test_corank_counts_left_bracket_points(d):
    assert d.corank == 2 * len(d.left_brackets())


@PROPERTY
@given(words())
def test_word_text_round_trip(w):
    assert parse_word(word_to_text(w)) == w


@PROPERTY
@given(same_rank_diagrams(3))
def test_multiply_associative(abc):
    a, b, c = abc
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@PROPERTY
@given(same_rank_diagrams(2))
def test_multiply_matches_component_oracle(ab):
    a, b = ab
    assert multiply(a, b) == compose_by_components(a, b)


@PROPERTY
@given(diagrams(min_rank=2, max_rank=7).filter(lambda d: d.corank >= 2))
def test_decompose_evaluates_back(d):
    assert phi(decompose(d)) == d


def _subcommands():
    """Each subcommand with the nargs of its positional arguments."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a.nargs for a in p._actions if not a.option_strings]
        for name, p in sub.choices.items()
    }


SUBCOMMANDS = _subcommands()


def _not_slow_rank(text):
    # ranks 6 to 8 lie inside every command's limit and cost seconds each
    try:
        return not 6 <= int(text) <= 8
    except ValueError:
        return True


@st.composite
def one_number_long(draw, texts):
    """A text from ``texts`` with one of its numbers replaced by LONG."""
    text = draw(texts)
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"\d+", text)]))
    return text[:start] + LONG + text[end:]


DIAGRAM_TEXT = diagrams(max_rank=4).map(BrauerDiagram.to_text)
WORD_TEXT = words(max_rank=5).map(word_to_text)
PAIR_LIST = words(max_rank=5).map(lambda w: "".join(map(repr, w.quarks)))

ARG = st.one_of(
    st.text(max_size=20),
    st.integers(-2, 5).map(str),
    DIAGRAM_TEXT,
    WORD_TEXT,
    PAIR_LIST,
    st.sampled_from(["1,2", "3,4", "H", "D", "relations", "lengths"]),
    one_number_long(DIAGRAM_TEXT),
    one_number_long(WORD_TEXT),
    one_number_long(PAIR_LIST),
).filter(_not_slow_rank)


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_cli_positional_text_exits_0_or_2(data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    # --force and --cache-dir are never drawn: they lift the rank limits
    # and write files
    optional = ["--json", "--dot"] if command == "classes" else ["--json"]
    flags = [flag for flag in optional if data.draw(st.booleans())]
    args = []
    for nargs in SUBCOMMANDS[command]:
        count = 1 if nargs is None else data.draw(st.integers(0, 2))
        args += [data.draw(ARG) for _ in range(count)]
    argv = [command, *flags, "--", *args]  # after "--" every argument is positional
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
