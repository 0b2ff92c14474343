import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import brauer
from brauer import cli
from brauer.cli import RANK_LIMITS, main
from brauer.diagram import DomainError, atom, parse_diagram
from brauer.geodesics import GeodesicTable, bfs_lengths
from brauer.presentation import parse_word, phi
from brauer.verify import SUITES

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli-schema.json").read_text()
)

ATOM12_N3 = "n=3;{1,2}{1',2'}{3,3'}"


def _address_space():
    """This process's current virtual memory size in bytes."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def over_limit(name):
    """The command line that asks the RANK_LIMITS entry ``name`` for one
    rank more than it allows."""
    n = RANK_LIMITS[name] + 1
    if name == "length":
        return ["length", atom(n, 1, 2).to_text()]
    if name == "classes --dot":
        return ["classes", str(n), "--dot"]
    if name == "paths":
        return ["paths", str(n), "1,2", "3,4"]
    if name in SUITES:
        return ["verify", str(n), name]
    return [name, str(n)]


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    return code, obj, err


class TestBasicCommands:
    def test_mult_idempotent_atom(self, capsys):
        # input blocks may come in any order; output is canonical
        code, out, _ = run(capsys, "mult", ATOM12_N3, ATOM12_N3)
        assert code == 0
        assert out.strip() == "n=3;{1,2}{3,3'}{1',2'}"
        assert parse_diagram(out.strip()) == parse_diagram(ATOM12_N3)

    def test_mult_json(self, capsys):
        code, obj, _ = run_json(capsys, "mult", ATOM12_N3, ATOM12_N3)
        assert code == 0
        assert parse_diagram(obj["product"]) == parse_diagram(ATOM12_N3)

    def test_corank(self, capsys):
        code, out, _ = run(capsys, "corank", "n=6;{1,5}{4,6}{2,1'}{3,6'}{2',4'}{3',5'}")
        assert code == 0 and out.strip() == "4"

    def test_green(self, capsys):
        code, out, _ = run(capsys, "green", ATOM12_N3, "n=3;{1,3}{1',3'}{2,2'}", "D")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "green", ATOM12_N3, "n=3;{1,3}{1',3'}{2,2'}", "R")
        assert code == 0 and out.strip() == "false"

    def test_decompose_round_trips(self, capsys):
        diagram = "n=6;{1,5}{4,6}{2,1'}{3,6'}{2',4'}{3',5'}"
        code, obj, _ = run_json(capsys, "decompose", diagram)
        assert code == 0 and obj["verified"] is True
        assert phi(parse_word(obj["word"])) == parse_diagram(diagram)

    def test_normalize_output_parses(self, capsys):
        code, out, _ = run(capsys, "normalize", "n=4: (1,2)(3,4)(1,3)")
        assert code == 0
        got = parse_word(out.strip())
        assert phi(got) == phi(parse_word("n=4: (1,2)(3,4)(1,3)"))

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "n=3: (1,3)(1,2)")
        assert code == 0 and out.strip() == "n=3;{1,3}{2,3'}{1',2'}"

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "equal", "n=3: (1,2)(2,3)(1,2)", "n=3: (1,2)")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "equal", "n=3: (1,2)", "n=3: (1,3)")
        assert code == 0 and out.strip() == "false"


class TestLengths:
    def test_length_of_atom(self, capsys):
        code, out, _ = run(capsys, "length", ATOM12_N3)
        assert code == 0 and out.strip() == "1"

    def test_length_rejects_invertible(self, capsys):
        code, _, err = run(capsys, "length", "n=2;{1,1'}{2,2'}")
        assert code == 2 and "error:" in err

    def test_longest_n4(self, capsys):
        code, obj, _ = run_json(capsys, "longest", "4")
        assert code == 0 and obj["max"] == 4
        assert parse_diagram(obj["witness"]).corank >= 2

    def test_longest_n8(self, capsys):
        code, out, _ = run(capsys, "longest", "8")
        assert code == 0
        assert out == "10\nn=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'}\n"

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

    @pytest.mark.parametrize("damage", ["truncated", "extra_field", "same_orbit_twice",
                                        "v1_file"])
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
        else:  # format 1: one row per element
            rows = [["format", "1"], *rows[1:3],
                    *sorted([d.to_text(), str(v)] for d, v in table.dist.items())]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code, out, _ = run(capsys, "length", last.to_text(), "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == str(table[last])
        assert path.read_bytes() == good

    def test_unwritable_cache_keeps_answer(self, capsys, tmp_path):
        _, expected, _ = run(capsys, "longest", "3")
        blocker = tmp_path / "blocker"  # a regular file where a directory should be
        blocker.write_text("")
        code, out, err = run(capsys, "longest", "3", "--cache-dir", str(blocker))
        assert code == 0 and out == expected
        assert len(err.splitlines()) == 1 and str(blocker) in err
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
    def test_classes(self, capsys):
        code, out, _ = run(capsys, "classes", "4")
        assert code == 0 and out.strip() == "72"

    def test_classes_dot(self, capsys):
        code, out, _ = run(capsys, "classes", "4", "--dot")
        assert code == 0 and out.startswith("graph gamma4 {")

    def test_classes_dot_limit(self, capsys):
        code, _, err = run(capsys, "classes", "41", "--dot")
        assert code == 2 and "--force" in err
        code, out, _ = run(capsys, "classes", "41", "--dot", "--force")
        assert code == 0 and out.startswith("graph gamma41 {")

    def test_paths(self, capsys):
        code, out, _ = run(capsys, "paths", "4", "1,2", "3,4")
        assert code == 0 and out.strip() == "2"

    def test_seq_equal(self, capsys):
        code, out, _ = run(capsys, "seq-equal", "3", "(1,2)(2,3)(3,1)", "(1,2)(3,1)")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "seq-equal", "3", "(1,2)", "(1,3)")
        assert code == 0 and out.strip() == "false"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 15
        assert len({parse_diagram(line) for line in lines}) == 15

    def test_enumerate_json(self, capsys):
        code, obj, _ = run_json(capsys, "enumerate", "2")
        assert code == 0 and obj["count"] == 3


# Outputs of the counting commands, byte for byte.  They pass over every
# matching of ranks 2 to 8, so any change to the enumeration or to the
# bracket keys that moves a count or an order shows here.  ``paths`` takes
# its endpoints in either order and may start and end at one pair.
GOLDEN_COUNTING = {
    ("verify", "7", "counts", "hclasses"): """\
PASS diagram count (n=7): expected 135135, computed 135135 ((2n-1)!!)
PASS class count (n=7): expected 52920, computed 52920 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=7): expected 0, computed 0 (441 endpoint pairs)
PASS H-classes off (n-2k)! (n=7): expected 0, computed 0 (corank 0: 5040 corank 2: 120 corank 4: 6 corank 6: 1)
""",
    ("verify", "7", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 7,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=7)",
      "expected": 135135,
      "computed": 135135,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=7)",
      "expected": 52920,
      "computed": 52920,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=7)",
      "expected": 0,
      "computed": 0,
      "detail": "441 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=7)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 5040 corank 2: 120 corank 4: 6 corank 6: 1",
      "ok": true
    }
  ],
  "ok": true
}
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
    ("verify", "2", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 2,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=2)",
      "expected": 3,
      "computed": 3,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=2)",
      "expected": 1,
      "computed": 1,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=2)",
      "expected": 0,
      "computed": 0,
      "detail": "1 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=2)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 2 corank 2: 1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ("classes", "2"): "1\n",
    ("classes", "2", "--json"): """\
{
  "command": "classes",
  "n": 2,
  "classes": 1,
  "formula": 1
}
""",
    ("verify", "3", "counts", "hclasses"): """\
PASS diagram count (n=3): expected 15, computed 15 ((2n-1)!!)
PASS class count (n=3): expected 9, computed 9 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=3): expected 0, computed 0 (9 endpoint pairs)
PASS H-classes off (n-2k)! (n=3): expected 0, computed 0 (corank 0: 6 corank 2: 1)
""",
    ("verify", "3", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 3,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=3)",
      "expected": 15,
      "computed": 15,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=3)",
      "expected": 9,
      "computed": 9,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=3)",
      "expected": 0,
      "computed": 0,
      "detail": "9 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=3)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 6 corank 2: 1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ("classes", "3"): "9\n",
    ("classes", "3", "--json"): """\
{
  "command": "classes",
  "n": 3,
  "classes": 9,
  "formula": 9
}
""",
    ("verify", "4", "counts", "hclasses"): """\
PASS diagram count (n=4): expected 105, computed 105 ((2n-1)!!)
PASS class count (n=4): expected 72, computed 72 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=4): expected 0, computed 0 (36 endpoint pairs)
PASS H-classes off (n-2k)! (n=4): expected 0, computed 0 (corank 0: 24 corank 2: 2 corank 4: 1)
""",
    ("verify", "4", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 4,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=4)",
      "expected": 105,
      "computed": 105,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=4)",
      "expected": 72,
      "computed": 72,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=4)",
      "expected": 0,
      "computed": 0,
      "detail": "36 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=4)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 24 corank 2: 2 corank 4: 1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ("classes", "4"): "72\n",
    ("classes", "4", "--json"): """\
{
  "command": "classes",
  "n": 4,
  "classes": 72,
  "formula": 72
}
""",
    ("verify", "5", "counts", "hclasses"): """\
PASS diagram count (n=5): expected 945, computed 945 ((2n-1)!!)
PASS class count (n=5): expected 600, computed 600 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=5): expected 0, computed 0 (100 endpoint pairs)
PASS H-classes off (n-2k)! (n=5): expected 0, computed 0 (corank 0: 120 corank 2: 6 corank 4: 1)
""",
    ("verify", "5", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 5,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=5)",
      "expected": 945,
      "computed": 945,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=5)",
      "expected": 600,
      "computed": 600,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=5)",
      "expected": 0,
      "computed": 0,
      "detail": "100 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=5)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 120 corank 2: 6 corank 4: 1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ("classes", "5"): "600\n",
    ("classes", "5", "--json"): """\
{
  "command": "classes",
  "n": 5,
  "classes": 600,
  "formula": 600
}
""",
    ("verify", "6", "counts", "hclasses"): """\
PASS diagram count (n=6): expected 10395, computed 10395 ((2n-1)!!)
PASS class count (n=6): expected 5400, computed 5400 (n(n-1)n!/4)
PASS endpoint pairs off (n-2)! (n=6): expected 0, computed 0 (225 endpoint pairs)
PASS H-classes off (n-2k)! (n=6): expected 0, computed 0 (corank 0: 720 corank 2: 24 corank 4: 2 corank 6: 1)
""",
    ("verify", "6", "counts", "hclasses", "--json"): """\
{
  "command": "verify",
  "n": 6,
  "suites": [
    "counts",
    "hclasses"
  ],
  "claims": [
    {
      "suite": "counts",
      "name": "diagram count (n=6)",
      "expected": 10395,
      "computed": 10395,
      "detail": "(2n-1)!!",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "class count (n=6)",
      "expected": 5400,
      "computed": 5400,
      "detail": "n(n-1)n!/4",
      "ok": true
    },
    {
      "suite": "counts",
      "name": "endpoint pairs off (n-2)! (n=6)",
      "expected": 0,
      "computed": 0,
      "detail": "225 endpoint pairs",
      "ok": true
    },
    {
      "suite": "hclasses",
      "name": "H-classes off (n-2k)! (n=6)",
      "expected": 0,
      "computed": 0,
      "detail": "corank 0: 720 corank 2: 24 corank 4: 2 corank 6: 1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ("classes", "6"): "5400\n",
    ("classes", "6", "--json"): """\
{
  "command": "classes",
  "n": 6,
  "classes": 5400,
  "formula": 5400
}
""",
    # rank 8 within the limits; copied from ``--force`` runs before they were raised
    ("classes", "8"): "564480\n",
    ("verify", "8", "hclasses"): """\
PASS H-classes off (n-2k)! (n=8): expected 0, computed 0 (corank 0: 40320 corank 2: 720 corank 4: 24 corank 6: 2 corank 8: 1)
""",
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
}

ENUMERATE_6_SHA256 = "f2e0503b1f560e3dd5291eeed3474e4cc63d02813a350d891a326696198bee76"


class TestCountingGolden:
    @pytest.mark.parametrize("argv", list(GOLDEN_COUNTING), ids=" ".join)
    def test_output_is_byte_exact(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, GOLDEN_COUNTING[argv], "")

    def test_enumerate_6_digest(self, capsys):
        code, out, _ = run(capsys, "enumerate", "6")
        assert code == 0 and out.count("\n") == 10395
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_6_SHA256


# copied from the output of the n! relabelling search, before the
# least-text search replaced it
GOLDEN_LONGEST = {
    ("longest", "2"): """\
1
n=2;{1,2}{1',2'}
""",
    ("longest", "2", "--json"): """\
{
  "command": "longest",
  "n": 2,
  "max": 1,
  "witness": "n=2;{1,2}{1',2'}"
}
""",
    ("verify", "2", "lengths"): """\
PASS maximal length (n=2): expected 1, computed 1 (witness n=2;{1,2}{1',2'})
PASS cycle-formula mismatches on the {1,2} class (n=2): expected 0, computed 0
""",
    ("longest", "3"): """\
2
n=3;{1,2'}{2,3}{1',3'}
""",
    ("longest", "3", "--json"): """\
{
  "command": "longest",
  "n": 3,
  "max": 2,
  "witness": "n=3;{1,2'}{2,3}{1',3'}"
}
""",
    ("verify", "3", "lengths"): """\
PASS maximal length (n=3): expected 2, computed 2 (witness n=3;{1,2'}{2,3}{1',3'})
PASS cycle-formula mismatches on the {1,2} class (n=3): expected 0, computed 0
""",
    ("longest", "4"): """\
4
n=4;{1,2'}{2,1'}{3,4}{3',4'}
""",
    ("longest", "4", "--json"): """\
{
  "command": "longest",
  "n": 4,
  "max": 4,
  "witness": "n=4;{1,2'}{2,1'}{3,4}{3',4'}"
}
""",
    ("verify", "4", "lengths"): """\
PASS maximal length (n=4): expected 4, computed 4 (witness n=4;{1,2'}{2,1'}{3,4}{3',4'})
PASS cycle-formula mismatches on the {1,2} class (n=4): expected 0, computed 0
""",
    ("longest", "5"): """\
5
n=5;{1,2'}{2,1'}{3,4'}{4,5}{3',5'}
""",
    ("longest", "5", "--json"): """\
{
  "command": "longest",
  "n": 5,
  "max": 5,
  "witness": "n=5;{1,2'}{2,1'}{3,4'}{4,5}{3',5'}"
}
""",
    ("verify", "5", "lengths"): """\
PASS maximal length (n=5): expected 5, computed 5 (witness n=5;{1,2'}{2,1'}{3,4'}{4,5}{3',5'})
PASS cycle-formula mismatches on the {1,2} class (n=5): expected 0, computed 0
""",
    ("longest", "6"): """\
7
n=6;{1,2'}{2,1'}{3,4'}{4,3'}{5,6}{5',6'}
""",
    ("longest", "6", "--json"): """\
{
  "command": "longest",
  "n": 6,
  "max": 7,
  "witness": "n=6;{1,2'}{2,1'}{3,4'}{4,3'}{5,6}{5',6'}"
}
""",
    ("verify", "6", "lengths"): """\
PASS maximal length (n=6): expected 7, computed 7 (witness n=6;{1,2'}{2,1'}{3,4'}{4,3'}{5,6}{5',6'})
PASS cycle-formula mismatches on the {1,2} class (n=6): expected 0, computed 0
""",
    ("longest", "7"): """\
8
n=7;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,7}{5',7'}
""",
    ("longest", "7", "--json"): """\
{
  "command": "longest",
  "n": 7,
  "max": 8,
  "witness": "n=7;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,7}{5',7'}"
}
""",
    ("verify", "7", "lengths"): """\
PASS maximal length (n=7): expected 8, computed 8 (witness n=7;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,7}{5',7'})
PASS cycle-formula mismatches on the {1,2} class (n=7): expected 0, computed 0
""",
    ("longest", "8"): """\
10
n=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'}
""",
    ("longest", "8", "--json"): """\
{
  "command": "longest",
  "n": 8,
  "max": 10,
  "witness": "n=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'}"
}
""",
    ("verify", "8", "lengths"): """\
PASS maximal length (n=8): expected 10, computed 10 (witness n=8;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8}{7',8'})
PASS cycle-formula mismatches on the {1,2} class (n=8): expected 0, computed 0
""",
    ("longest", "9", "--force"): """\
11
n=9;{1,2'}{2,1'}{3,4'}{4,3'}{5,6'}{6,5'}{7,8'}{8,9}{7',9'}
""",
}

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


class TestLongestGolden:
    @pytest.mark.parametrize("argv", list(GOLDEN_LONGEST), ids=" ".join)
    def test_output_is_byte_exact(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, GOLDEN_LONGEST[argv], "")

    @pytest.mark.parametrize("n", sorted(CACHE_SHA256))
    def test_cache_file_digest(self, capsys, tmp_path, n):
        code, out, err = run(capsys, "longest", str(n), "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, GOLDEN_LONGEST[("longest", str(n))], "")
        digest = hashlib.sha256((tmp_path / f"geodesics-n{n}.csv").read_bytes()).hexdigest()
        assert digest == CACHE_SHA256[n]


class TestVerify:
    def test_relations_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "relations")
        assert code == 0
        assert out.startswith("PASS")

    def test_all_suites_n3_json(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "3")
        assert code == 0 and obj["ok"] is True
        assert {c["suite"] for c in obj["claims"]} == {
            "relations", "generation", "irreducible", "lengths", "counts", "hclasses",
        }

    def test_generation_suite_n4(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "generation")
        assert code == 0
        assert "expected 81, computed 81" in out

    def test_lengths_suite_n8(self, capsys):
        code, out, _ = run(capsys, "verify", "8", "lengths")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "4", "nonsense")
        assert code == 2 and "unknown suite" in err


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
        n, limit = RANK_LIMITS[name] + 1, RANK_LIMITS[name]
        code, out, err = run(capsys, *over_limit(name))
        assert (code, out, work) == (2, "", [])
        assert err == f"error: n={n} exceeds the {name} limit {limit} (use --force)\n"
        code, _, err = run(capsys, *over_limit(name), "--force")
        assert code == 2 and "work started" in err and len(work) == 1

    def test_verify_checks_every_suite_before_running_any(self, capsys, work):
        # at n=6 only irreducible (limit 5) is over, and it sorts after
        # counts, generation and hclasses
        code, _, err = run(capsys, "verify", "6")
        assert code == 2 and "irreducible limit 5" in err
        assert work == []


class TestErrorHandling:
    def test_bad_diagram_exits_2(self, capsys):
        code, _, err = run(capsys, "corank", "n=3;{1,2}")
        assert code == 2 and err.startswith("error:")

    def test_bad_word_exits_2(self, capsys):
        code, _, err = run(capsys, "phi", "not a word")
        assert code == 2

    def test_rank_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "mult", ATOM12_N3, "n=2;{1,2}{1',2'}")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("phi", "n=400000000: (1,2)"),
        ("equal", "n=400000000: (1,2)", "n=400000000: (1,2)"),
        ("seq-equal", "400000000", "(1,2)", "(1,2)"),
    ])
    def test_oversized_word_rank_exits_2(self, capsys, argv):
        # capped address space: without the rank limit these allocate
        # tens of GB, which must fail here rather than take the machine
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = _address_space() + 2**30
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code, _, err = run(capsys, *argv)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2 and "rank limit" in err

    @pytest.mark.parametrize("argv", [
        ("mult", ATOM12_N3, ATOM12_N3, "--force"),
        ("phi", "n=3: (1,2)", "--cache-dir", "X"),
    ])
    def test_flag_outside_its_commands(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err

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

    def test_usage_error_prints_help_to_stderr(self, capsys):
        code, out, err = run(capsys, "mult", ATOM12_N3)  # missing operand
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        code, _, err = run(capsys, "longest", "4", "--threads", "3")
        assert code == 2 and "unrecognized arguments: --threads" in err
