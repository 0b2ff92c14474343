import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import brauer
from brauer import cli, sequences, verify
from brauer.cli import RANK_LIMITS, main
from brauer.diagram import (
    RANK_CEILINGS,
    DomainError,
    _bracket_walk,
    atom,
    count_all,
    enumerate_all,
    identity,
    parse_diagram,
)
from brauer.geodesics import GeodesicTable, bfs_lengths
from brauer.presentation import parse_word, phi
from brauer.verify import SUITES

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli-schema.json").read_text()
)

ATOM12_N3 = "n=3;{1,2}{1',2'}{3,3'}"
WORD_N3 = "n=3: (1,2)"
LONG = "1" * 5000  # a digit run longer than int() converts by default
DIAGRAM_DIGITS = "a number in the diagram has too many digits"
WORD_DIGITS = "a number in the word has too many digits"

# command lines with a LONG number, and the one error line each prints
LONG_DIGIT_RUNS = {
    "length header": (("length", f"n={LONG};{{1,2}}{{1',2'}}"), DIAGRAM_DIGITS),
    "length point": (("length", f"n=2;{{1,2}}{{1',{LONG}'}}"), DIAGRAM_DIGITS),
    "corank header": (("corank", f"n={LONG};{{1,2}}"), DIAGRAM_DIGITS),
    "corank point": (("corank", f"n=2;{{{LONG},2}}{{1',2'}}"), DIAGRAM_DIGITS),
    "mult point": (("mult", ATOM12_N3, f"n=3;{{1,2}}{{1',2'}}{{3,{LONG}'}}"), DIAGRAM_DIGITS),
    "phi header": (("phi", f"n={LONG}: (1,2)"), WORD_DIGITS),
    "phi pair": (("phi", f"n=3: (1,{LONG})"), WORD_DIGITS),
    "equal pair": (("equal", WORD_N3, f"n=3: ({LONG},2)"), WORD_DIGITS),
    "seq-equal pair": (("seq-equal", "4", "(1,2)", f"(1,2)(2,{LONG})"), WORD_DIGITS),
    "paths endpoint": (("paths", "4", f"{LONG},2", "3,4"),
                       f"expected a pair like 1,2 - got '{LONG},2'"),
    # stray text is still reported first
    "corank stray text": (("corank", f"n=2;{{1,{LONG}}} x"), "unexpected text in diagram: ' x'"),
    "phi stray text": (("phi", f"n=3: ({LONG},2) x"), "unexpected text in word: ' x'"),
}


# the text formats take ASCII digits only, though int() reads any decimal digit
NON_ASCII_DIGITS = {
    "length header": (("length", "n=٢;{١,٢}{1',2'}"),
                      "diagram must start with 'n=<rank>;': \"n=٢;{١,٢}{1',2'}\""),
    "corank point": (("corank", "n=2;{1,2}{1',٢'}"), "unexpected text in diagram: \"{1',٢'}\""),
    "phi header": (("phi", "n=٣: (١,2)"), "word must start with 'n=<rank>: ': 'n=٣: (١,2)'"),
    "phi fullwidth pair": (("phi", "n=3: (１,2)"), "unexpected text in word: '(１,2)'"),
    "seq-equal pair": (("seq-equal", "3", "(١,2)", "(1,2)"), "unexpected text in word: '(١,2)'"),
    "paths endpoint": (("paths", "4", "١,2", "3,4"), "expected a pair like 1,2 - got '١,2'"),
    "paths fullwidth endpoint": (("paths", "4", "1,2", "(3,４)"),
                                 "expected a pair like 1,2 - got '(3,４)'"),
    # nor a sign or an underscore, which int() also reads
    "paths signed endpoint": (("paths", "4", " +1 , 2", "3,4"),
                              "expected a pair like 1,2 - got ' +1 , 2'"),
    "paths underscore endpoint": (("paths", "4", "1_1,2", "3,4"),
                                  "expected a pair like 1,2 - got '1_1,2'"),
    # an endpoint takes one pair of parentheses around the whole pair, or none
    "paths unclosed endpoint": (("paths", "4", "((1,2", "3,4"),
                                "expected a pair like 1,2 - got '((1,2'"),
    "paths unopened endpoint": (("paths", "4", "1,2)", "3,4"),
                                "expected a pair like 1,2 - got '1,2)'"),
    "paths extra close endpoint": (("paths", "4", "(1,2))", "3,4"),
                                   "expected a pair like 1,2 - got '(1,2))'"),
    # and exactly one pair, of two numbers
    "paths two-pair endpoint": (("paths", "4", "(1,2)(3,4)", "3,4"),
                                "expected a pair like 1,2 - got '(1,2)(3,4)'"),
    "paths three-number endpoint": (("paths", "4", "1,2,3", "3,4"),
                                    "expected a pair like 1,2 - got '1,2,3'"),
    "paths empty endpoint": (("paths", "4", "1,2", ""), "expected a pair like 1,2 - got ''"),
    "paths commaless endpoint": (("paths", "4", "1 2", "3,4"),
                                 "expected a pair like 1,2 - got '1 2'"),
    # a leading "-" makes no option of an endpoint, with "--" before it or not
    "paths dash endpoint": (("paths", "5", "3,4", "-1,2"),
                            "expected a pair like 1,2 - got '-1,2'"),
    "paths dash endpoint after --": (("paths", "5", "3,4", "--", "-1,2"),
                                     "expected a pair like 1,2 - got '-1,2'"),
    "paths dash first endpoint": (("paths", "5", "-1,2", "3,4", "--json"),
                                  "expected a pair like 1,2 - got '-1,2'"),
    "paths dash parenthesized endpoint": (("paths", "5", "3,4", "-(1,2)"),
                                          "expected a pair like 1,2 - got '-(1,2)'"),
}


def _address_space():
    """This process's current virtual memory size in bytes."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()


@contextlib.contextmanager
def _capped_address_space():
    """Cap this process's address space at 1 GiB over its current size, so a
    command that starts allocating without bound fails fast."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space() + 2**30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def over_limit(name):
    """The command line that asks the RANK_LIMITS entry ``name`` for one
    rank more than it allows."""
    n = RANK_LIMITS[name][0] + 1
    if name == "length":
        return ["length", atom(n, 1, 2).to_text()]
    if name == "classes --dot":
        return ["classes", str(n), "--dot"]
    if name == "paths":
        return ["paths", str(n), "1,2", "3,4"]
    if name in SUITES:
        return ["verify", str(n), name]
    return [name, str(n)]


def refused(capsys, work, argv, kind, n):
    """``argv`` exits 2 with the one line of the ``kind`` ceiling, before any
    library call (``work``), in a capped address space."""
    with _capped_address_space():
        code, out, err = run(capsys, *argv)
    assert (code, out, work) == (2, "", [])
    assert err == f"error: rank n={n} exceeds the {kind} rank limit {RANK_CEILINGS[kind]}\n"


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    return code, obj, err


class TestBasicCommands:
    def test_mult_idempotent_atom(self, capsys):
        # input blocks may come in any order; output is canonical
        code, out, err = run(capsys, "mult", ATOM12_N3, ATOM12_N3)
        assert (code, out, err) == (0, "n=3;{1,2}{3,3'}{1',2'}\n", "")
        assert parse_diagram(out.strip()) == parse_diagram(ATOM12_N3)

    def test_mult_json(self, capsys):
        code, obj, err = run_json(capsys, "mult", ATOM12_N3, ATOM12_N3)
        assert (code, err) == (0, "")
        assert parse_diagram(obj["product"]) == parse_diagram(ATOM12_N3)

    def test_corank(self, capsys):
        assert run(capsys, "corank", "n=6;{1,5}{4,6}{2,1'}{3,6'}{2',4'}{3',5'}") == (0, "4\n", "")

    def test_green(self, capsys):
        assert run(capsys, "green", ATOM12_N3, "n=3;{1,3}{1',3'}{2,2'}", "D") == (0, "true\n", "")
        assert run(capsys, "green", ATOM12_N3, "n=3;{1,3}{1',3'}{2,2'}", "R") == (0, "false\n", "")

    def test_normalize_output_parses(self, capsys):
        code, out, err = run(capsys, "normalize", "n=4: (1,2)(3,4)(1,3)")
        assert (code, out, err) == (0, "n=4: (1,2)(2,4)(1,3)\n", "")
        assert phi(parse_word(out.strip())) == phi(parse_word("n=4: (1,2)(3,4)(1,3)"))

    def test_phi(self, capsys):
        assert run(capsys, "phi", "n=3: (1,3)(1,2)") == (0, "n=3;{1,3}{2,3'}{1',2'}\n", "")

    def test_equal(self, capsys):
        assert run(capsys, "equal", "n=3: (1,2)(2,3)(1,2)", "n=3: (1,2)") == (0, "true\n", "")
        assert run(capsys, "equal", "n=3: (1,2)", "n=3: (1,3)") == (0, "false\n", "")


class TestLengths:
    def test_length_of_atom(self, capsys):
        assert run(capsys, "length", ATOM12_N3) == (0, "1\n", "")

    def test_length_rejects_invertible(self, capsys):
        code, _, err = run(capsys, "length", "n=2;{1,1'}{2,2'}")
        assert code == 2 and err == "error: length is undefined on invertible elements\n"

    def test_cache_dir_used(self, capsys, tmp_path):
        code, out, _ = run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        assert code == 0 and out.splitlines()[0] == "4"
        assert (tmp_path / "geodesics-n4.csv").exists()
        code2, out2, _ = run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        assert code2 == 0 and out2 == out

    def test_cache_dir_env_ignored(self, capsys, tmp_path, monkeypatch):
        # --cache-dir is the only way to write a cache: an inherited
        # environment variable must not make a run write files
        monkeypatch.setenv("BRAUER_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "longest", "3")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    # the one table of damaged cache files: each is rejected by the loader,
    # and ``length`` warns with the loader's reason, recomputes the answer
    # and rewrites the file
    @pytest.mark.parametrize("damage", ["truncated", "extra_field", "same_orbit_twice",
                                        "v1_file", "distance_off_formula", "stray_text",
                                        "point_twice", "rank_n_plus_1", "header_not_utf8",
                                        "header_field_too_long", "invertible_row",
                                        "rank_3_file", "short_header"])
    def test_damaged_cache_recomputed(self, capsys, tmp_path, damage):
        table = bfs_lengths(4)
        run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        path = tmp_path / "geodesics-n4.csv"
        good = path.read_bytes()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        text, value = rows[-1]  # the last orbit row
        last = parse_diagram(text)
        if damage == "truncated":
            rows = rows[:len(rows) // 2]
        elif damage == "extra_field":
            rows[-1].append("1")
        elif damage == "same_orbit_twice":
            # the last row's diagram with its points 1 and 2 swapped
            swapped = text.translate(str.maketrans("12", "21"))
            assert parse_diagram(swapped) != last
            rows.append([swapped, value])
        elif damage == "distance_off_formula":
            # the atom orbit, the only row at distance 1, at 2: in range 1..4
            [i] = [i for i, row in enumerate(rows) if row[1:] == ["1"]]
            last = parse_diagram(rows[i][0])
            rows[i][1] = "2"
        elif damage == "stray_text":
            rows[-1][0] = text.replace("}{", "} x {", 1)
            with pytest.raises(DomainError, match="unexpected text in diagram: ' x '"):
                parse_diagram(rows[-1][0])
        elif damage == "point_twice":
            # point 2 takes point 1's place, next to its own block
            rows[-1][0] = text.replace("{1,", "{2,", 1)
            with pytest.raises(DomainError, match="appears twice"):
                parse_diagram(rows[-1][0])
        elif damage == "rank_n_plus_1":
            # the last row's diagram with an identity line added at rank 5
            rows[-1][0] = text.replace("n=4;", "n=5;", 1) + "{5,5'}"
            assert parse_diagram(rows[-1][0]).n == 5
        elif damage == "header_not_utf8":
            rows[0][0] = "format\udcff"  # written as the lone byte 0xff
        elif damage == "header_field_too_long":
            rows[1][1] = "4" * (csv.field_size_limit() + 1)
        elif damage == "invertible_row":
            rows.append(["n=4;{1,1'}{2,2'}{3,3'}{4,4'}", "1"])
        elif damage == "rank_3_file":  # a whole, sound rank-3 table
            rows = [rows[0], ["n", "3"], rows[2],
                    *sorted([d.to_text(), str(v)] for d, v in bfs_lengths(3).representatives())]
        elif damage == "short_header":
            rows = rows[:2]
        else:  # format 1: one row per element
            rows = [["format", "1"], *rows[1:3],
                    *sorted([d.to_text(), str(table[d])] for d in enumerate_all(4) if d.corank)]
        with open(path, "w", newline="", errors="surrogateescape") as fh:
            csv.writer(fh).writerows(rows)
        match = "unreadable cache file" if damage.startswith("header_") else None
        with pytest.raises(DomainError, match=match) as rejected:
            GeodesicTable.load(path, 4)
        assert run(capsys, "length", last.to_text(), "--cache-dir", str(tmp_path)) == (
            0, f"{table[last]}\n", f"warning: stale cache {path}: {rejected.value}\n")
        assert path.read_bytes() == good

    @pytest.mark.parametrize("old,new", [("1", "2"), ("4", "3")])
    def test_distance_off_formula_changes_no_answer(self, capsys, tmp_path, old, new):
        # an in-range distance on the atom orbit or the maximal one
        run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        path = tmp_path / "geodesics-n4.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        [row] = [row for row in rows[3:] if row[1:] == [old]]
        row[1] = new
        for argv in (["longest", "4"], ["length", row[0]]):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            code, out, _ = run(capsys, *argv)
            assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (code, out, (
                f"warning: stale cache {path}: cache {path} has a distance other than "
                "the closed form's\n"))

    def test_rank_one_cache_changes_no_answer(self, capsys, tmp_path):
        # an empty rank-1 table would be complete, so the loader must reject it
        path = tmp_path / "geodesics-n1.csv"
        path.write_text("format,2\nn,1\ndiagram,distance\n")
        expected = run(capsys, "longest", "1")
        assert expected == (2, "", "error: the singular part needs n >= 2\n")
        assert run(capsys, "longest", "1", "--cache-dir", str(tmp_path)) == (2, "", (
            f"warning: stale cache {path}: cache {path} does not match n=1\n{expected[2]}"))

    def test_unwritable_cache_keeps_answer(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"  # a regular file where a directory should be
        blocker.write_text("")
        # the cache directory is the file itself, or lies below it
        for argv, cache_dir in ((["longest", "3"], blocker),
                                (["longest", "4"], blocker),
                                (["length", "n=4;{1,3'}{2,4}{3,2'}{1',4'}"], blocker / "sub")):
            code, expected, _ = run(capsys, *argv)
            assert code == 0
            code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
            assert code == 0 and out == expected
            [line] = err.splitlines()
            assert line.startswith(f"warning: cannot write cache {cache_dir}")
            assert blocker.read_text() == ""

    def test_limit_holds_with_cache_file(self, capsys, tmp_path, monkeypatch):
        # the rank is checked before the cache: a rank-9 file is never read
        (tmp_path / "geodesics-n9.csv").write_text("")
        monkeypatch.setattr(GeodesicTable, "load", staticmethod(
            lambda path, n: pytest.fail(f"read {path}")))
        for argv in (["longest", "9"], ["length", atom(9, 1, 2).to_text()]):
            code, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
            assert code == 2 and "--force" in err


class TestCounting:
    def test_classes_dot(self, capsys):
        code, out, _ = run(capsys, "classes", "4", "--dot")
        assert code == 0 and out.startswith("graph gamma4 {")

    def test_classes_dot_limit(self, capsys):
        code, _, err = run(capsys, "classes", "41", "--dot")
        assert code == 2 and "--force" in err
        code, out, _ = run(capsys, "classes", "41", "--dot", "--force")
        assert code == 0 and out.startswith("graph gamma41 {")

    def test_paths(self, capsys):
        assert run(capsys, "paths", "4", "1,2", "3,4") == (0, "2\n", "")

    def test_seq_equal(self, capsys):
        assert run(capsys, "seq-equal", "3", "(1,2)(2,3)(3,1)", "(1,2)(3,1)") == (0, "true\n", "")
        assert run(capsys, "seq-equal", "3", "(1,2)", "(1,3)") == (0, "false\n", "")

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 15
        assert len({parse_diagram(line) for line in lines}) == 15

    def test_enumerate_json(self, capsys):
        code, obj, _ = run_json(capsys, "enumerate", "2")
        assert code == 0 and obj["count"] == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumerate_json_is_json_dumps(self, capsys, n):
        # written one diagram at a time, the bytes are still json.dumps's
        code, out, _ = run(capsys, "enumerate", str(n), "--json")
        obj = {"command": "enumerate", "n": n, "count": count_all(n),
               "diagrams": [d.to_text() for d in enumerate_all(n)]}
        assert (code, out) == (0, json.dumps(obj, indent=2) + "\n")

    def test_enumerate_json_streams(self):
        # a handler that lists the 10,395 rank-6 texts and passes them to
        # json.dumps peaks at about 2.5 MB; the stream holds one at a time,
        # into a sink that keeps no text, and peaks near 0.3 MB
        class LineCount(io.TextIOBase):
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

        sink = LineCount()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["enumerate", "6", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.lines) == (0, 10395 + 7)
        assert peak < 2**20


# The outputs of the commands that print results, byte for byte: argv ->
# stdout, each with exit 0 and nothing on stderr.  The ``--json`` output of
# every text golden is checked as its view (``json_view``); the JSON entries
# pin the layout, one per command, and the ``paths`` endpoints, which the text
# does not show.
GOLDEN = {
    # The counting commands.  The verify suites pass over every matching of
    # ranks 2 to 8, and ``classes`` and ``paths`` over those with at most one
    # bracket on each side up to rank 9, so any change to the enumeration, to
    # the bracket keys or to the walk's bound that moves a count or an order
    # shows here.  ``paths`` takes its endpoints in either order and may start
    # and end at one pair.
    ("verify", "7", "counts", "hclasses"): """\
PASS diagram count (n=7): expected 135135, computed 135135 ((2n-1)!!)
PASS class count (n=7): expected 52920, computed 52920 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=7): expected 0, computed 0 (441 endpoint pairs)
PASS H-classes off (n-2k)! (n=7): expected 0, computed 0 (corank 0: 5040 corank 2: 120 corank 4: 6 corank 6: 1)
""",
    ("classes", "7"): "52920\n",
    ("classes", "7", "--json"): """\
{
  "command": "classes",
  "n": 7,
  "classes": 52920,
  "formula": 52920
}
""",
    ("verify", "2", "counts", "hclasses"): """\
PASS diagram count (n=2): expected 3, computed 3 ((2n-1)!!)
PASS class count (n=2): expected 1, computed 1 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=2): expected 0, computed 0 (1 endpoint pairs)
PASS H-classes off (n-2k)! (n=2): expected 0, computed 0 (corank 0: 2 corank 2: 1)
""",
    ("classes", "2"): "1\n",
    ("verify", "3", "counts", "hclasses"): """\
PASS diagram count (n=3): expected 15, computed 15 ((2n-1)!!)
PASS class count (n=3): expected 9, computed 9 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=3): expected 0, computed 0 (9 endpoint pairs)
PASS H-classes off (n-2k)! (n=3): expected 0, computed 0 (corank 0: 6 corank 2: 1)
""",
    ("classes", "3"): "9\n",
    ("verify", "4", "counts", "hclasses"): """\
PASS diagram count (n=4): expected 105, computed 105 ((2n-1)!!)
PASS class count (n=4): expected 72, computed 72 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=4): expected 0, computed 0 (36 endpoint pairs)
PASS H-classes off (n-2k)! (n=4): expected 0, computed 0 (corank 0: 24 corank 2: 2 corank 4: 1)
""",
    ("classes", "4"): "72\n",
    ("verify", "5", "counts", "hclasses"): """\
PASS diagram count (n=5): expected 945, computed 945 ((2n-1)!!)
PASS class count (n=5): expected 600, computed 600 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=5): expected 0, computed 0 (100 endpoint pairs)
PASS H-classes off (n-2k)! (n=5): expected 0, computed 0 (corank 0: 120 corank 2: 6 corank 4: 1)
""",
    ("classes", "5"): "600\n",
    ("verify", "6", "counts", "hclasses"): """\
PASS diagram count (n=6): expected 10395, computed 10395 ((2n-1)!!)
PASS class count (n=6): expected 5400, computed 5400 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=6): expected 0, computed 0 (225 endpoint pairs)
PASS H-classes off (n-2k)! (n=6): expected 0, computed 0 (corank 0: 720 corank 2: 24 corank 4: 2 corank 6: 1)
""",
    ("classes", "6"): "5400\n",
    # rank 8 within the limits; copied from ``--force`` runs before they were raised
    ("classes", "8"): "564480\n",
    # rank 9, the classes and paths limit; copied from ``--force`` runs of the
    # unbounded walk before the limit was raised
    ("classes", "9"): "6531840\n",
    ("paths", "9", "1,2", "3,4"): "5040\n",
    ("paths", "5", "1,2", "3,4"): "6\n",
    ("paths", "5", "2,1", "1,3"): "6\n",
    ("paths", "5", "1,2", "1,2"): "6\n",
    ("paths", "5", "3,5", "5,1"): "6\n",
    ("paths", "5", "2,1", "4,5", "--json"): """\
{
  "command": "paths",
  "n": 5,
  "from": "1,2",
  "to": "4,5",
  "paths": 6
}
""",
    ("paths", "6", "1,2", "3,4"): "24\n",
    ("paths", "6", "2,1", "1,3"): "24\n",
    ("paths", "6", "1,2", "1,2"): "24\n",
    ("paths", "6", "3,5", "5,1"): "24\n",
    ("paths", "6", "2,1", "4,5", "--json"): """\
{
  "command": "paths",
  "n": 6,
  "from": "1,2",
  "to": "4,5",
  "paths": 24
}
""",
    ("paths", "7", "1,2", "3,4"): "120\n",
    ("paths", "7", "2,1", "1,3"): "120\n",
    ("paths", "7", "1,2", "1,2"): "120\n",
    ("paths", "7", "3,5", "5,1"): "120\n",
    ("paths", "7", "2,1", "4,5", "--json"): """\
{
  "command": "paths",
  "n": 7,
  "from": "1,2",
  "to": "4,5",
  "paths": 120
}
""",
    # spaces around the numbers and the parentheses are read as in a word
    ("paths", "5", " 1 , 2 ", "( 2 , 1 )"): "6\n",
    ("paths", "5", "( 2 , 1 )", " 3 , 4 ", "--json"): """\
{
  "command": "paths",
  "n": 5,
  "from": "1,2",
  "to": "3,4",
  "paths": 6
}
""",
    # ``longest`` and ``verify N lengths``, copied from the output of the n!
    # relabelling search, before the least-text search replaced it
    ("longest", "2"): """\
1
n=2;{1,2}{1',2'}
""",
    ("verify", "2", "lengths"): """\
PASS maximal length (n=2): expected 1, computed 1 (witness n=2;{1,2}{1',2'})
PASS cycle-formula mismatches on every orbit (n=2): expected 0, computed 0 (1 orbits)
""",
    ("longest", "3"): """\
2
n=3;{1,2'}{2,3}{1',3'}
""",
    ("verify", "3", "lengths"): """\
PASS maximal length (n=3): expected 2, computed 2 (witness n=3;{1,2'}{2,3}{1',3'})
PASS cycle-formula mismatches on every orbit (n=3): expected 0, computed 0 (2 orbits)
""",
    ("longest", "4"): """\
4
n=4;{1,2'}{2,1'}{3,4}{3',4'}
""",
    ("verify", "4", "lengths"): """\
PASS maximal length (n=4): expected 4, computed 4 (witness n=4;{1,2'}{2,1'}{3,4}{3',4'})
PASS cycle-formula mismatches on every orbit (n=4): expected 0, computed 0 (7 orbits)
""",
    ("longest", "5"): """\
5
n=5;{1,2'}{2,1'}{3,4'}{4,5}{3',5'}
""",
    ("verify", "5", "lengths"): """\
PASS maximal length (n=5): expected 5, computed 5 (witness n=5;{1,2'}{2,1'}{3,4'}{4,5}{3',5'})
PASS cycle-formula mismatches on every orbit (n=5): expected 0, computed 0 (13 orbits)
""",
    ("longest", "6"): """\
7
n=6;{1,2'}{2,1'}{3,4'}{4,3'}{5,6}{5',6'}
""",
    ("verify", "6", "lengths"): """\
PASS maximal length (n=6): expected 7, computed 7 (witness n=6;{1,2'}{2,1'}{3,4'}{4,3'}{5,6}{5',6'})
PASS cycle-formula mismatches on every orbit (n=6): expected 0, computed 0 (33 orbits)
""",
    ("longest", "7"): """\
8
n=7;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,7}{5',7'}
""",
    ("verify", "7", "lengths"): """\
PASS maximal length (n=7): expected 8, computed 8 (witness n=7;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,7}{5',7'})
PASS cycle-formula mismatches on every orbit (n=7): expected 0, computed 0 (61 orbits)
""",
    ("longest", "8"): """\
10
n=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'}
""",
    ("longest", "9", "--force"): """\
11
n=9;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8'}{8,9}{7',9'}
""",
    # two-digit labels: the witness is W(10) (geodesics._max_witness)
    ("longest", "10", "--force"): """\
13
n=10;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8'}{8,7'}{9,10}{9',10'}
""",
    ("longest", "10", "--force", "--json"): """\
{
  "command": "longest",
  "n": 10,
  "max": 13,
  "witness": "n=10;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8'}{8,7'}{9,10}{9',10'}"
}
""",
    # ``verify N irreducible`` at n = 2..5 and at its rank limit 10, copied
    # from the output of the left-bracket check on the orbit table when it
    # replaced the closure of the atoms other than {1,2}
    ("verify", "2", "irreducible"): """\
PASS left brackets dropped by an atom step (n=2): expected 0, computed 0 (1 orbits x 1 atoms)
PASS atoms sharing a left bracket (n=2): expected 0, computed 0 (1 atoms)
""",
    ("verify", "3", "irreducible"): """\
PASS left brackets dropped by an atom step (n=3): expected 0, computed 0 (2 orbits x 3 atoms)
PASS atoms sharing a left bracket (n=3): expected 0, computed 0 (3 atoms)
""",
    ("verify", "4", "irreducible"): """\
PASS left brackets dropped by an atom step (n=4): expected 0, computed 0 (7 orbits x 6 atoms)
PASS atoms sharing a left bracket (n=4): expected 0, computed 0 (6 atoms)
""",
    ("verify", "5", "irreducible"): """\
PASS left brackets dropped by an atom step (n=5): expected 0, computed 0 (13 orbits x 10 atoms)
PASS atoms sharing a left bracket (n=5): expected 0, computed 0 (10 atoms)
""",
    ("verify", "10", "irreducible"): """\
PASS left brackets dropped by an atom step (n=10): expected 0, computed 0 (517 orbits x 45 atoms)
PASS atoms sharing a left bracket (n=10): expected 0, computed 0 (45 atoms)
""",
    # ``verify N relations`` (N = 2..7) and ``verify N generation`` (N = 2..6),
    # copied from the output of the report-class relation check and the
    # diagram-set atom closure before the tuple forms replaced them; N = 9 and
    # 10 relations copied from the phi-based check (run with --force) before
    # the atom-step check replaced it; N = 7 generation copied from the flat
    # partner-tuple closure (run with --force) before the orbit table replaced
    # it.  Rank 8's suite lines are pinned once, in ``verify 8``.
    ("verify", "2", "relations"): """\
PASS relation violations (n=2): expected 0, computed 0 (R1:2 R2:2 R3:0 R4:0 R5:0 R6:0 R7:0)
""",
    ("verify", "3", "relations"): """\
PASS relation violations (n=3): expected 0, computed 0 (R1:6 R2:6 R3:0 R4:6 R5:6 R6:0 R7:0)
""",
    ("verify", "4", "relations"): """\
PASS relation violations (n=4): expected 0, computed 0 (R1:12 R2:12 R3:24 R4:24 R5:24 R6:24 R7:24)
""",
    ("verify", "5", "relations"): """\
PASS relation violations (n=5): expected 0, computed 0 (R1:20 R2:20 R3:120 R4:60 R5:60 R6:120 R7:120)
""",
    ("verify", "6", "relations"): """\
PASS relation violations (n=6): expected 0, computed 0 (R1:30 R2:30 R3:360 R4:120 R5:120 R6:360 R7:360)
""",
    ("verify", "7", "relations"): """\
PASS relation violations (n=7): expected 0, computed 0 (R1:42 R2:42 R3:840 R4:210 R5:210 R6:840 R7:840)
""",
    ("verify", "9", "relations"): """\
PASS relation violations (n=9): expected 0, computed 0 (R1:72 R2:72 R3:3024 R4:504 R5:504 R6:3024 R7:3024)
""",
    ("verify", "10", "relations"): """\
PASS relation violations (n=10): expected 0, computed 0 (R1:90 R2:90 R3:5040 R4:720 R5:720 R6:5040 R7:5040)
""",
    ("verify", "2", "generation"): """\
PASS atom-closure size (n=2): expected 1, computed 1 ((2n-1)!! - n! = 3 - 2)
PASS closure equals corank>=2 set (n=2): expected True, computed True
""",
    ("verify", "3", "generation"): """\
PASS atom-closure size (n=3): expected 9, computed 9 ((2n-1)!! - n! = 15 - 6)
PASS closure equals corank>=2 set (n=3): expected True, computed True
""",
    ("verify", "4", "generation"): """\
PASS atom-closure size (n=4): expected 81, computed 81 ((2n-1)!! - n! = 105 - 24)
PASS closure equals corank>=2 set (n=4): expected True, computed True
""",
    ("verify", "5", "generation"): """\
PASS atom-closure size (n=5): expected 825, computed 825 ((2n-1)!! - n! = 945 - 120)
PASS closure equals corank>=2 set (n=5): expected True, computed True
""",
    ("verify", "6", "generation"): """\
PASS atom-closure size (n=6): expected 9675, computed 9675 ((2n-1)!! - n! = 10395 - 720)
PASS closure equals corank>=2 set (n=6): expected True, computed True
""",
    ("verify", "7", "generation"): """\
PASS atom-closure size (n=7): expected 130095, computed 130095 ((2n-1)!! - n! = 135135 - 5040)
PASS closure equals corank>=2 set (n=7): expected True, computed True
""",
    ("verify", "8", "generation", "--json"): """\
{
  "command": "verify",
  "n": 8,
  "suites": [
    "generation"
  ],
  "claims": [
    {
      "suite": "generation",
      "name": "atom-closure size (n=8)",
      "expected": 1986705,
      "computed": 1986705,
      "detail": "(2n-1)!! - n! = 2027025 - 40320",
      "ok": true
    },
    {
      "suite": "generation",
      "name": "closure equals corank>=2 set (n=8)",
      "expected": true,
      "computed": true,
      "detail": "",
      "ok": true
    }
  ],
  "ok": true
}
""",
    # every suite: each suite's limit is at least 8, so none needs --force.
    # The relations lines were copied from the report-class relation check,
    # the generation lines from the orbit table, whose size is the closed form's
    ("verify", "8"): """\
PASS diagram count (n=8): expected 2027025, computed 2027025 ((2n-1)!!)
PASS class count (n=8): expected 564480, computed 564480 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=8): expected 0, computed 0 (784 endpoint pairs)
PASS atom-closure size (n=8): expected 1986705, computed 1986705 ((2n-1)!! - n! = 2027025 - 40320)
PASS closure equals corank>=2 set (n=8): expected True, computed True
PASS H-classes off (n-2k)! (n=8): expected 0, computed 0 (corank 0: 40320 corank 2: 720 corank 4: 24 corank 6: 2 corank 8: 1)
PASS left brackets dropped by an atom step (n=8): expected 0, computed 0 (135 orbits x 28 atoms)
PASS atoms sharing a left bracket (n=8): expected 0, computed 0 (28 atoms)
PASS maximal length (n=8): expected 10, computed 10 (witness n=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'})
PASS cycle-formula mismatches on every orbit (n=8): expected 0, computed 0 (135 orbits)
PASS relation violations (n=8): expected 0, computed 0 (R1:56 R2:56 R3:1680 R4:336 R5:336 R6:1680 R7:1680)
""",
}

ENUMERATE_6_SHA256 = "f2e0503b1f560e3dd5291eeed3474e4cc63d02813a350d891a326696198bee76"

# SHA-256 of the geodesics-nN.csv that `longest N --cache-dir` writes
CACHE_SHA256 = {
    2: "c810ecb110eda4046e344cea7f243caf7a631552998470e3e555b533c30e5f7a",
    3: "58b4ba901d86652aa4d8f124d617c58bf51927248cb9f0c3799a2a96d2f4a8c5",
    4: "bfa6c00647cb1d84e3f062f10cf069b6ad077c03982f7ebb6e1b2a1811d81174",
    5: "4d855b7bc3950672fd3bbe1091daf6b25d2530e4444dcbd1cc25d58376a8bc49",
    6: "c80785191c71724c64cfc97ac6df5c5b3e57124f4bafa1c15c3c9276feac289e",
    7: "0d688bbefe5ab65a46091f421c921967ad7742a7611c6fe66f7629de7d6b073f",
    8: "a5847910157ab2e70dbd632a9a0f8dbc9d6ed253ed098e8de84359b1fb3ff23d",
}


def json_view(argv, obj):
    """The text that ``obj``, the ``--json`` output of ``argv``, renders to.
    Each field is rendered into that text or checked against ``argv``, and
    none is left over."""
    command, rank, *rest = argv
    n = int(rank)
    assert (obj.pop("command"), obj.pop("n")) == (command, n)
    if command == "verify":
        named = [a for a in rest if not a.startswith("-")]
        suites = obj.pop("suites")
        assert suites == (list(dict.fromkeys(named)) or sorted(SUITES))
        claims = obj.pop("claims")
        assert obj.pop("ok") is all(claim["ok"] for claim in claims)
        lines = []
        for claim in claims:
            assert list(claim) == ["suite", "name", "expected", "computed", "detail", "ok"]
            assert claim["suite"] in suites
            kind = type(claim["expected"])
            assert kind is type(claim["computed"]) and kind in (int, bool)
            assert claim.pop("ok") is (claim["expected"] == claim["computed"])
            lines.append(verify.Claim(**claim).line())
    elif command == "longest":
        lines = [obj.pop("max"), obj.pop("witness")]
    elif command == "classes":
        assert obj.pop("formula") == n * (n - 1) * math.factorial(n) // 4
        lines = [obj.pop("classes")]
    else:  # paths, whose endpoints print as sorted i,j
        ends = [sorted(int(x) for x in end.strip("() ").split(",")) for end in rest[:2]]
        assert [obj.pop("from"), obj.pop("to")] == [f"{i},{j}" for i, j in ends]
        lines = [obj.pop("paths")]
    assert obj == {}
    return "".join(f"{line}\n" for line in lines)


def golden(group):
    """The GOLDEN command lines that the test class of ``group`` pins:
    counting, longest and irreducible by command or suite, verify the rest."""
    groups = {"classes": "counting", "paths": "counting", "counts": "counting",
              "hclasses": "counting", "longest": "longest", "lengths": "longest",
              "irreducible": "irreducible"}
    return [argv for argv in GOLDEN
            if groups.get(argv[2] if argv[0] == "verify" and argv[2:] else argv[0],
                          "verify") == group]


def assert_golden(capsys, argv):
    assert run(capsys, *argv) == (0, GOLDEN[argv], "")


class TestGolden:
    @pytest.mark.parametrize("argv", [argv for argv in GOLDEN if "--json" not in argv],
                             ids=" ".join)
    def test_json_renders_to_text(self, capsys, argv):
        code, obj, err = run_json(capsys, *argv)
        assert (code, err) == (0, "")
        assert json_view(argv, obj) == GOLDEN[argv]


class TestCountingGolden:
    @pytest.mark.parametrize("argv", golden("counting"), ids=" ".join)
    def test_output_is_byte_exact(self, capsys, argv):
        assert_golden(capsys, argv)

    def test_enumerate_6_digest(self, capsys):
        code, out, _ = run(capsys, "enumerate", "6")
        assert code == 0 and out.count("\n") == 10395
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_6_SHA256


class TestLongestGolden:
    @pytest.mark.parametrize("argv", golden("longest"), ids=" ".join)
    def test_output_is_byte_exact(self, capsys, argv):
        assert_golden(capsys, argv)

    @pytest.mark.parametrize("n", sorted(CACHE_SHA256))
    def test_cache_file_digest(self, capsys, tmp_path, n):
        code, out, err = run(capsys, "longest", str(n), "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, GOLDEN[("longest", str(n))], "")
        digest = hashlib.sha256((tmp_path / f"geodesics-n{n}.csv").read_bytes()).hexdigest()
        assert digest == CACHE_SHA256[n]


class TestVerifyGolden:
    @pytest.mark.parametrize("argv", golden("verify"), ids=" ".join)
    def test_output_is_byte_exact(self, capsys, argv):
        assert_golden(capsys, argv)


# Factorizations, byte for byte, copied from the output of the three-step
# factorization (peel the left brackets, rebuild a corank-2 element, then
# bridge it into a group) before the one-pass ``decompose`` replaced it.
# The bridged cases name the labels (u, v, f, g) of the bridge: lines that
# reach v are redirected to f when u == g and to g otherwise, and a bridge
# atom equal to the letter before it is left out.
GOLDEN_DECOMPOSE = {
    "atom": (
        "n=5;{1,1'}{2,4}{3,3'}{5,5'}{2',4'}",
        "n=5: (2,4)",
    ),
    "group, cycles (3 4)(5 6 7)": (
        "n=7;{1,2}{3,4'}{4,3'}{5,6'}{6,7'}{7,5'}{1',2'}",
        "n=7: (1,2)(1,3)(1,4)(1,2)(1,5)(1,7)(1,6)(1,2)",
    ),
    "bridged, u == g": (
        "n=4;{1,3}{2,1'}{4,4'}{2',3'}",
        "n=4: (1,3)(1,2)(2,3)",
    ),
    "bridged, u != g": (
        "n=5;{1,2}{3,1'}{4,2'}{5,3'}{4',5'}",
        "n=5: (1,2)(1,3)(1,5)(1,2)(1,4)(4,5)",
    ),
    "bridged, first bridge atom skipped": (
        "n=4;{1,2}{3,1'}{4,4'}{2',3'}",
        "n=4: (1,2)(2,3)",
    ),
    "FIG1": (
        "n=6;{1,5}{2,1'}{3,6'}{4,6}{2',4'}{3',5'}",
        "n=6: (1,5)(4,6)(1,5)(1,2)(1,6)(1,3)(1,4)(1,5)(1,2)(2,4)",
    ),
    "corank 6": (
        "n=8;{1,5}{2,8}{3,6}{4,5'}{7,8'}{1',7'}{2',3'}{4',6'}",
        "n=8: (1,5)(2,8)(3,6)(1,5)(1,3)(1,8)(1,7)(1,4)(1,5)(1,7)",
    ),
    "random_diagram(8, Random(8))": (
        "n=8;{1,4}{2,5'}{3,7}{5,2'}{6,8}{1',8'}{3',7'}{4',6'}",
        "n=8: (1,4)(3,7)(6,8)(1,4)(1,2)(1,5)(1,4)(1,6)(1,8)(1,4)(1,8)",
    ),
    "random_diagram(16, Random(16))": (
        "n=16;{1,15}{2,4'}{3,12}{4,3'}{5,1'}{6,7}{8,14}{9,11'}{10,15'}{11,14'}{13,10'}{16,8'}{2',13'}{5',9'}{6',12'}{7',16'}",
        "n=16: (1,15)(3,12)(6,7)(8,14)(1,15)(1,2)(1,10)(1,13)(1,5)(1,3)(1,4)(1,15)(1,7)(1,8)(1,16)(1,14)(1,11)(1,9)(1,12)(1,15)(1,2)(2,13)",
    ),
    "random_diagram(32, Random(32))": (
        "n=32;{1,3'}{2,32}{3,15'}{4,2'}{5,9'}{6,11}{7,21}{8,12}{9,22'}{10,28'}{13,19}{14,32'}{15,6'}{16,26'}{17,30}{18,19'}{20,13'}{22,1'}{23,29'}{24,7'}{25,28}{26,21'}{27,11'}{29,4'}{31,27'}{5',12'}{8',17'}{10',24'}{14',25'}{16',23'}{18',30'}{20',31'}",
        "n=32: (2,32)(6,11)(7,21)(8,12)(13,19)(17,30)(25,28)(2,32)(1,2)(2,22)(2,9)(2,5)(2,14)(2,8)(2,6)(2,15)(2,3)(2,32)(2,4)(2,29)(2,23)(2,19)(2,18)(2,17)(2,11)(2,27)(2,31)(2,28)(2,10)(2,7)(2,24)(2,21)(2,26)(2,16)(2,13)(2,20)(2,25)(2,12)(2,32)(2,5)(5,12)",
    ),
}


# the one byte pin of the ``decompose --json`` layout
DECOMPOSE_FIG1_JSON = """\
{
  "command": "decompose",
  "word": "n=6: (1,5)(4,6)(1,5)(1,2)(1,6)(1,3)(1,4)(1,5)(1,2)(2,4)",
  "verified": true
}
"""


class TestDecompositionGolden:
    @pytest.mark.parametrize("case", list(GOLDEN_DECOMPOSE))
    def test_decompose_is_byte_exact(self, capsys, case):
        # the text byte for byte; the --json object byte for byte on FIG1,
        # and on every other case as the view of the text
        text, word = GOLDEN_DECOMPOSE[case]
        out = f"{word}\nverified: true\n"
        assert run(capsys, "decompose", text) == (0, out, "")
        if case == "FIG1":
            assert run(capsys, "decompose", text, "--json") == (0, DECOMPOSE_FIG1_JSON, "")
        else:
            code, obj, err = run_json(capsys, "decompose", text)
            assert (code, err, obj.pop("command")) == (0, "", "decompose")
            assert f"{obj.pop('word')}\nverified: {json.dumps(obj.pop('verified'))}\n" == out
            assert obj == {}

    @pytest.mark.parametrize("argv", golden("irreducible"), ids=" ".join)
    def test_irreducible_is_byte_exact(self, capsys, argv):
        assert_golden(capsys, argv)


class TestVerify:
    def test_repeated_suite_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "relations", "relations")
        assert code == 0 and len(out.splitlines()) == 1
        code, obj, _ = run_json(capsys, "verify", "3", "relations", "relations")
        assert code == 0 and obj["suites"] == ["relations"] and len(obj["claims"]) == 1

    def test_irreducible_fails_when_a_step_drops_a_bracket(self, capsys, monkeypatch):
        # a product with no left bracket drops every representative's
        monkeypatch.setattr(verify, "multiply", lambda a, b: identity(a.n))
        code, out, _ = run(capsys, "verify", "4", "irreducible")
        assert code == 1
        assert out.splitlines()[0] == ("FAIL left brackets dropped by an atom step (n=4): "
                                       "expected 0, computed 42 (7 orbits x 6 atoms)")

    def test_lengths_fails_when_the_formula_is_off_past_corank_2(self, capsys, monkeypatch):
        # every orbit is checked, not just the corank-2 {1,2} class
        formula = verify.ls_via_cycles
        monkeypatch.setattr(verify, "ls_via_cycles", lambda d: formula(d) + (d.corank >= 4))
        code, out, _ = run(capsys, "verify", "6", "lengths")
        assert code == 1
        assert out.splitlines()[1].startswith("FAIL cycle-formula mismatches on every orbit (n=6)")

    def test_generation_fails_when_the_closure_holds_an_invertible(self, capsys, monkeypatch):
        # the closure has the right size but the atoms' orbit is swapped for
        # the transpositions' orbit, of the same size (10 at n=5)
        closure_of = verify.atom_closure

        def swapped(n):
            orbits = dict(closure_of(n).orbits)
            orbits[((0,), (0,), (0,), (0, 0))] = orbits.pop(((0,), (0,), (0,), (0, 1)))
            return GeodesicTable(n, orbits)

        monkeypatch.setattr(verify, "atom_closure", swapped)
        code, out, _ = run(capsys, "verify", "5", "generation")
        assert code == 1
        assert out.splitlines() == [
            "PASS atom-closure size (n=5): expected 825, computed 825 "
            "((2n-1)!! - n! = 945 - 120)",
            "FAIL closure equals corank>=2 set (n=5): expected True, computed False",
        ]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "4", "nonsense")
        assert code == 2 and "unknown suite" in err

    def test_suites_after_an_option(self, capsys):
        after = run(capsys, "verify", "3", "--json", "lengths")
        assert after == run(capsys, "verify", "3", "lengths", "--json")
        assert after[0] == 0

    def test_unknown_option_after_suites_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "3", "--json", "lengths", "--bogus")
        assert (code, out) == (2, "")
        assert err.endswith("brauer: error: unrecognized arguments: --bogus\n")


class TestOneWalkPerCall:
    """The ``counts`` and ``hclasses`` suites of one ``verify`` call share
    one bracket walk, bounded unless ``hclasses`` runs, and no walk
    outlives its call."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The rank and bound of every bracket walk started, through verify
        or sequences."""
        started = []

        def counted(n, bounded=False):
            started.append((n, bounded))
            return _bracket_walk(n, bounded)

        monkeypatch.setattr(verify, "_bracket_walk", counted)
        monkeypatch.setattr(sequences, "_bracket_walk", counted)
        return started

    @pytest.mark.parametrize("suites", [("counts", "hclasses"), ("hclasses", "counts")])
    def test_both_suites_walk_once(self, capsys, walks, suites):
        code, out, _ = run(capsys, "verify", "7", *suites)
        assert (code, walks) == (0, [(7, False)])
        assert out.count("PASS") == 4

    def test_counts_alone_takes_the_bounded_walk(self, capsys, walks):
        code, out, _ = run(capsys, "verify", "7", "counts")
        assert (code, walks) == (0, [(7, True)])
        assert out.count("PASS") == 3

    def test_each_call_walks_again(self, capsys, walks):
        for _ in range(2):
            assert run(capsys, "verify", "6", "counts", "hclasses")[0] == 0
        assert walks == [(6, False), (6, False)]

    def test_a_call_with_neither_suite_does_not_walk(self, capsys, walks):
        assert run(capsys, "verify", "6", "relations")[0] == 0
        assert walks == []


# Command lines past a ceiling, as (argv, kind, n, flags): "{n}" is the rank
# and "{atom}" the atom {1,2} at that rank.  --force lifts no ceiling: one rank
# past it the work cannot finish, and at n=10001 the walk's bit table alone
# would take tens of GB, the BFS's atom list GBs, and the pair graph's text of
# some 5e11 edges could never be held.  13 was the walk's ceiling + 1 before
# its row fell to 10.  Suites are checked in the order named: relations, whose
# ceiling is the word row, refuses n=10001 before hclasses is checked.
CEILING_CASES = [
    *[(argv, "word" if "relations" in argv and n > RANK_CEILINGS["word"] else "walk", n,
       ("--force",))
      for n in (RANK_CEILINGS["walk"] + 1, 13, 10001)
      for argv in [("classes", "{n}"), ("paths", "{n}", "1,2", "3,4"), ("enumerate", "{n}"),
                   ("verify", "{n}", "counts"), ("verify", "{n}", "hclasses"),
                   ("verify", "{n}", "relations", "hclasses")]],
    *[(argv, "BFS", n, flags)
      for flags in [(), ("--force",)]
      for n in (RANK_CEILINGS["BFS"] + 1, 10001)
      for argv in [("length", "{atom}"), ("longest", "{n}"), ("verify", "{n}", "lengths"),
                   ("verify", "{n}", "irreducible"), ("verify", "{n}", "generation")]],
    *[(("classes", "{n}", "--dot"), "pair graph", n, flags)
      for flags in [(), ("--force",)]
      for n in (RANK_CEILINGS["pair graph"] + 1, 10001)],
]


def ceiling_cases(*kinds, name=True, flag=True):
    """The CEILING_CASES of ``kinds``, each with an id of its command and
    suites, its rank and whether --force is given."""
    return [pytest.param(argv, kind, n, flags, id="-".join(
                [" ".join(argv[::2])] * name + [str(n)] + ["force" if flags else "plain"] * flag))
            for argv, kind, n, flags in CEILING_CASES if kind in kinds]


class TestRankLimits:
    @pytest.fixture
    def work(self, monkeypatch):
        """Every library call behind a limited command, replaced by a stub
        that records its name and fails with a marker error."""
        started = []

        def stub(name):
            def start(*args, **kwargs):
                started.append(name)
                raise DomainError("work started")
            return start

        for name in ("load_or_compute_table", "gamma_graph", "count_classes",
                     "count_paths", "enumerate_all"):
            monkeypatch.setattr(cli, name, stub(name))
        for name in SUITES:
            monkeypatch.setitem(SUITES, name, stub(name))
        return started

    @pytest.mark.parametrize("name", sorted(RANK_LIMITS))
    def test_one_rank_over_exits_2_before_work(self, capsys, work, name):
        limit = RANK_LIMITS[name][0]
        n = limit + 1
        code, out, err = run(capsys, *over_limit(name))
        assert (code, out, work) == (2, "", [])
        assert err == f"error: n={n} exceeds the {name} limit {limit} (use --force)\n"
        code, _, err = run(capsys, *over_limit(name), "--force")
        assert code == 2 and "work started" in err and len(work) == 1

    @staticmethod
    def past_its_ceiling(capsys, work, argv, kind, n, flags):
        diagram = atom(n, 1, 2).to_text()
        refused(capsys, work, [*(a.format(n=n, atom=diagram) for a in argv), *flags], kind, n)

    @pytest.mark.parametrize("argv,kind,n,flags", ceiling_cases("walk", "word", flag=False))
    def test_walk_past_its_rank_limit_exits_2_before_work(self, capsys, work, argv, kind, n,
                                                          flags):
        self.past_its_ceiling(capsys, work, argv, kind, n, flags)

    @pytest.mark.parametrize("argv,kind,n,flags", ceiling_cases("BFS"))
    def test_search_past_its_rank_limit_exits_2_before_work(self, capsys, work, argv, kind, n,
                                                            flags):
        self.past_its_ceiling(capsys, work, argv, kind, n, flags)

    @pytest.mark.parametrize("argv,kind,n,flags", ceiling_cases("pair graph", name=False))
    def test_pair_graph_past_its_rank_limit_exits_2_before_work(self, capsys, work, argv, kind,
                                                                n, flags):
        self.past_its_ceiling(capsys, work, argv, kind, n, flags)

    def test_every_limit_has_a_ceiling_no_lower(self):
        # a name with no ceiling would let --force run its work at any rank
        for name, (limit, kind) in RANK_LIMITS.items():
            assert RANK_CEILINGS[kind] >= limit, name

    def test_every_ceiling_is_checked_by_the_library(self):
        # a ceiling that only the command line checks leaves the library
        # call behind it unguarded at any rank
        src = Path(brauer.__file__).parent
        calls = "".join(p.read_text() for p in src.glob("*.py") if p.name != "cli.py")
        for kind in RANK_CEILINGS:
            assert f'check_ceiling("{kind}", ' in calls, kind

    def test_verify_checks_every_suite_before_running_any(self, capsys, work):
        # at n=9 counts, generation, hclasses and lengths (limit 8) are over;
        # relations and irreducible (limit 10) pass the check but do not run
        code, _, err = run(capsys, "verify", "9")
        assert code == 2 and "counts limit 8" in err
        code, _, err = run(capsys, "verify", "9", "relations", "irreducible", "generation")
        assert code == 2 and "generation limit 8" in err
        assert work == []

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_suite_has_a_golden_at_its_limit(self, name):
        # so a suite's limit cannot rise without a byte golden at the new
        # rank; ``verify <rank>`` with no suite named prints every suite's lines
        rank = str(RANK_LIMITS[name][0])
        named = [[a for a in argv[2:] if not a.startswith("-")]
                 for argv in GOLDEN if argv[:2] == ("verify", rank)]
        assert any(name in suites or not suites for suites in named)


class TestErrorHandling:
    @pytest.mark.parametrize("argv", [
        ("phi", "n=400000000: (1,2)"),
        ("equal", "n=400000000: (1,2)", "n=400000000: (1,2)"),
        ("seq-equal", "400000000", "(1,2)", "(1,2)"),
    ])
    def test_oversized_word_rank_exits_2(self, capsys, argv):
        # capped address space: without the rank limit these allocate
        # tens of GB, which must fail here rather than take the machine
        with _capped_address_space():
            code, _, err = run(capsys, *argv)
        assert code == 2 and "rank limit" in err

    @pytest.mark.parametrize("argv,message", LONG_DIGIT_RUNS.values(), ids=LONG_DIGIT_RUNS)
    def test_long_digit_run_exits_2(self, capsys, argv, message):
        # int() refuses a digit run past the interpreter's 4,300-digit limit
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", NON_ASCII_DIGITS.values(), ids=NON_ASCII_DIGITS)
    def test_non_ascii_digits_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("classes", "1"), "classes need n >= 2"),
        (("paths", "1", "1,2", "1,2"), "paths need n >= 2"),
        (("paths", "4", "1,5", "1,2"), "endpoint pairs exceed the rank"),
        (("verify", "1"), "verification suites need n >= 2"),
        (("corank", "n=3;{1,2}"), "expected 3 blocks, got 1"),
        (("phi", "not a word"), "word must start with 'n=<rank>: ': 'not a word'"),
        (("mult", ATOM12_N3, "n=2;{1,2}{1',2'}"), "rank mismatch: 3 != 2"),
    ])
    def test_rank_or_endpoint_out_of_range_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_closed_pipe_exits_1_quietly(self):
        src = str(Path(brauer.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "brauer.cli", "enumerate", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"n=6;")
        proc.stdout.close()  # 10,395 lines: the writer hits the closed pipe
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


# Everything argparse prints, byte for byte, at a terminal width of 80
# columns: the help pages, the usage errors and the unrecognized-argument
# errors, with their exit codes.  Copied from the output of the parser that
# built every subcommand on each call, so a parser built for one command
# must print the same.
HELP_BRAUER = """\
usage: brauer [-h] COMMAND ...

Brauer monoid diagrams, their idempotent presentation, factorizations,
geodesic lengths, and counting checks.

positional arguments:
  COMMAND
    mult      multiply two diagrams
    corank    corank of a diagram
    green     test a Green's relation
    decompose
              factor a singular diagram into atoms
    normalize
              rewrite a word into connected-prefix/disjoint-tail form
    phi       evaluate a word to a diagram
    equal     decide equality of two words
    length    geodesic length of a diagram
    longest   maximal geodesic length at rank n, with witness
    classes   number of connected-sequence classes at rank n
    paths     classes of sequences between two endpoint pairs
    seq-equal
              decide equivalence of two connected sequences
    verify    run exhaustive verification suites
    enumerate
              stream every diagram of rank n

options:
  -h, --help  show this help message and exit
"""

GOLDEN_PARSER = {
    (): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: the following arguments are required: COMMAND
"""),
    ("-h",): (0, HELP_BRAUER, ""),
    ("--help",): (0, HELP_BRAUER, ""),
    ("mult", "-h"): (0, """\
usage: brauer mult [-h] [--json] a b

positional arguments:
  a
  b

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("corank", "-h"): (0, """\
usage: brauer corank [-h] [--json] diagram

positional arguments:
  diagram

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("green", "-h"): (0, """\
usage: brauer green [-h] [--json] a b {R,L,H,D}

positional arguments:
  a
  b
  {R,L,H,D}

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("decompose", "-h"): (0, """\
usage: brauer decompose [-h] [--json] diagram

positional arguments:
  diagram

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("normalize", "-h"): (0, """\
usage: brauer normalize [-h] [--json] word

positional arguments:
  word

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("phi", "-h"): (0, """\
usage: brauer phi [-h] [--json] word

positional arguments:
  word

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("equal", "-h"): (0, """\
usage: brauer equal [-h] [--json] u v

positional arguments:
  u
  v

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("length", "-h"): (0, """\
usage: brauer length [-h] [--json] [--force] [--cache-dir PATH] diagram

positional arguments:
  diagram

options:
  -h, --help        show this help message and exit
  --json            emit a single JSON object
  --force           lift the rank limit
  --cache-dir PATH  geodesic table cache
""", ""),
    ("longest", "-h"): (0, """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n

positional arguments:
  n

options:
  -h, --help        show this help message and exit
  --json            emit a single JSON object
  --force           lift the rank limit
  --cache-dir PATH  geodesic table cache
""", ""),
    ("classes", "-h"): (0, """\
usage: brauer classes [-h] [--json] [--force] [--dot] n

positional arguments:
  n

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
  --force     lift the rank limit
  --dot       print the pair graph in DOT form instead
""", ""),
    ("paths", "-h"): (0, """\
usage: brauer paths [-h] [--json] [--force] n from to

positional arguments:
  n
  from        first pair, e.g. 1,2
  to          last pair, e.g. 3,4

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
  --force     lift the rank limit
""", ""),
    ("seq-equal", "-h"): (0, """\
usage: brauer seq-equal [-h] [--json] n a b

positional arguments:
  n
  a
  b

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
""", ""),
    ("verify", "-h"): (0, """\
usage: brauer verify [-h] [--json] [--force] n [suites ...]

positional arguments:
  n
  suites      subset of ['counts', 'generation', 'hclasses', 'irreducible',
              'lengths', 'relations'] (default: all)

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
  --force     lift the rank limit
""", ""),
    ("enumerate", "-h"): (0, """\
usage: brauer enumerate [-h] [--json] [--force] n

positional arguments:
  n

options:
  -h, --help  show this help message and exit
  --json      emit a single JSON object
  --force     lift the rank limit
""", ""),
    ("frobnicate",): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: argument COMMAND: invalid choice: 'frobnicate' (choose from 'mult', 'corank', 'green', 'decompose', 'normalize', 'phi', 'equal', 'length', 'longest', 'classes', 'paths', 'seq-equal', 'verify', 'enumerate')
"""),
    ("--json", "corank", "X"): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: unrecognized arguments: --json
"""),
    ("mult", ATOM12_N3): (2, "", """\
usage: brauer mult [-h] [--json] a b
brauer mult: error: the following arguments are required: b
"""),
    ("corank",): (2, "", """\
usage: brauer corank [-h] [--json] diagram
brauer corank: error: the following arguments are required: diagram
"""),
    ("green", ATOM12_N3, ATOM12_N3): (2, "", """\
usage: brauer green [-h] [--json] a b {R,L,H,D}
brauer green: error: the following arguments are required: relation
"""),
    ("decompose",): (2, "", """\
usage: brauer decompose [-h] [--json] diagram
brauer decompose: error: the following arguments are required: diagram
"""),
    ("normalize",): (2, "", """\
usage: brauer normalize [-h] [--json] word
brauer normalize: error: the following arguments are required: word
"""),
    ("phi",): (2, "", """\
usage: brauer phi [-h] [--json] word
brauer phi: error: the following arguments are required: word
"""),
    ("equal", WORD_N3): (2, "", """\
usage: brauer equal [-h] [--json] u v
brauer equal: error: the following arguments are required: v
"""),
    ("length",): (2, "", """\
usage: brauer length [-h] [--json] [--force] [--cache-dir PATH] diagram
brauer length: error: the following arguments are required: diagram
"""),
    ("longest",): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: the following arguments are required: n
"""),
    ("classes",): (2, "", """\
usage: brauer classes [-h] [--json] [--force] [--dot] n
brauer classes: error: the following arguments are required: n
"""),
    ("paths", "5", "1,2"): (2, "", """\
usage: brauer paths [-h] [--json] [--force] n from to
brauer paths: error: the following arguments are required: to
"""),
    ("seq-equal", "3", "(1,2)"): (2, "", """\
usage: brauer seq-equal [-h] [--json] n a b
brauer seq-equal: error: the following arguments are required: b
"""),
    ("verify",): (2, "", """\
usage: brauer verify [-h] [--json] [--force] n [suites ...]
brauer verify: error: the following arguments are required: n, suites
"""),
    ("enumerate",): (2, "", """\
usage: brauer enumerate [-h] [--json] [--force] n
brauer enumerate: error: the following arguments are required: n
"""),
    ("longest", "x"): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: 'x'
"""),
    # a rank takes no non-ASCII digit and no underscore, though int() reads both
    ("longest", "٣"): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: '٣'
"""),
    ("longest", "3_0"): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: '3_0'
"""),
    ("verify", "٢", "relations"): (2, "", """\
usage: brauer verify [-h] [--json] [--force] n [suites ...]
brauer verify: error: argument n: invalid int value: '٢'
"""),
    # nor a sign or surrounding whitespace, as in every text format
    ("longest", "+3"): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: '+3'
"""),
    ("longest", " 3"): (2, "", """\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: ' 3'
"""),
    # nor a digit run longer than int() converts
    ("longest", LONG): (2, "", f"""\
usage: brauer longest [-h] [--json] [--force] [--cache-dir PATH] n
brauer longest: error: argument n: invalid int value: '{LONG}'
"""),
    ("verify", "-3", "relations"): (2, "", """\
usage: brauer verify [-h] [--json] [--force] n [suites ...]
brauer verify: error: argument n: invalid int value: '-3'
"""),
    ("seq-equal", "-3", "(1,2)", "(1,2)"): (2, "", """\
usage: brauer seq-equal [-h] [--json] n a b
brauer seq-equal: error: argument n: invalid int value: '-3'
"""),
    ("green", ATOM12_N3, ATOM12_N3, "Q"): (2, "", """\
usage: brauer green [-h] [--json] a b {R,L,H,D}
brauer green: error: argument relation: invalid choice: 'Q' (choose from 'R', 'L', 'H', 'D')
"""),
    ("mult", ATOM12_N3, ATOM12_N3, "--force"): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: unrecognized arguments: --force
"""),
    ("phi", WORD_N3, "--cache-dir", "X"): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: unrecognized arguments: --cache-dir X
"""),
    # a removed flag is rejected, not ignored
    ("longest", "4", "--threads", "3"): (2, "", """\
usage: brauer [-h] COMMAND ...
brauer: error: unrecognized arguments: --threads 3
"""),
    # suite names after an option join the suites (``cli.main``)
    ("verify", "3", "--json", "lengths"): (0, """\
{
  "command": "verify",
  "n": 3,
  "suites": [
    "lengths"
  ],
  "claims": [
    {
      "suite": "lengths",
      "name": "maximal length (n=3)",
      "expected": 2,
      "computed": 2,
      "detail": "witness n=3;{1,2'}{2,3}{1',3'}",
      "ok": true
    },
    {
      "suite": "lengths",
      "name": "cycle-formula mismatches on every orbit (n=3)",
      "expected": 0,
      "computed": 0,
      "detail": "2 orbits",
      "ok": true
    }
  ],
  "ok": true
}
""", ""),
}


class TestParserGolden:
    # an id is cut at 80 characters, which only the LONG rank reaches
    @pytest.mark.parametrize("argv", list(GOLDEN_PARSER),
                             ids=lambda a: " ".join(a)[:80] or "(none)")
    def test_output_is_byte_exact(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        assert run(capsys, *argv) == GOLDEN_PARSER[argv]


COMMAND_NAMES = ["mult", "corank", "green", "decompose", "normalize", "phi", "equal", "length",
                 "longest", "classes", "paths", "seq-equal", "verify", "enumerate"]


class TestParserNarrowing:
    @pytest.fixture
    def built(self, monkeypatch):
        """The name of each subparser built, in order."""
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(action, name, **kwargs):
            names.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_named_command_builds_its_subparser_alone(self, capsys, built, command):
        code, _, _ = run(capsys, command, "-h")
        assert (code, built) == (0, [command])

    def test_command_run_builds_one_subparser(self, capsys, built):
        code, out, _ = run(capsys, "length", ATOM12_N3)
        assert (code, out, built) == (0, "1\n", ["length"])

    @pytest.mark.parametrize("argv", [(), ("-h",), ("frobnicate",), ("--json", "corank", "X")],
                             ids=lambda a: " ".join(a) or "(none)")
    def test_other_first_argument_builds_every_subparser(self, capsys, built, argv):
        code, _, _ = run(capsys, *argv)
        assert (code, built) == (0 if argv == ("-h",) else 2, COMMAND_NAMES)

    def test_build_parser_has_every_command(self, built):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == built == COMMAND_NAMES
