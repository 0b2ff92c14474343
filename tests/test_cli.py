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
from brauer.diagram import BrauerDiagram, DomainError, atom, parse_diagram
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

    def test_cache_dir_used(self, capsys, tmp_path):
        code, out, _ = run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        assert code == 0 and out.splitlines()[0] == "4"
        assert (tmp_path / "geodesics-n4.csv").exists()
        code2, out2, _ = run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        assert code2 == 0 and out2 == out

    def test_cache_dir_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BRAUER_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "longest", "3")
        assert code == 0
        assert (tmp_path / "geodesics-n3.csv").exists()

    @pytest.mark.parametrize("damage", ["truncated", "extra_field"])
    def test_damaged_cache_recomputed(self, capsys, tmp_path, damage):
        table = bfs_lengths(4)
        last = max(table.dist, key=BrauerDiagram.to_text)  # the file's last row
        run(capsys, "longest", "4", "--cache-dir", str(tmp_path))
        path = tmp_path / "geodesics-n4.csv"
        good = path.read_bytes()
        rows = good.splitlines(keepends=True)
        if damage == "truncated":
            rows = rows[:len(rows) // 2]
        else:
            rows[-1] = rows[-1].rstrip() + b",1\r\n"
        path.write_bytes(b"".join(rows))
        code, out, _ = run(capsys, "length", last.to_text(), "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == str(table[last])
        assert path.read_bytes() == good

    def test_unwritable_cache_keeps_answer(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("BRAUER_CACHE_DIR", raising=False)
        _, expected, _ = run(capsys, "longest", "3")
        blocker = tmp_path / "blocker"  # a regular file where a directory should be
        blocker.write_text("")
        code, out, err = run(capsys, "longest", "3", "--cache-dir", str(blocker))
        assert code == 0 and out == expected
        assert len(err.splitlines()) == 1 and str(blocker) in err
        assert blocker.read_text() == ""

    def test_limit_holds_with_cache_file(self, capsys, tmp_path, monkeypatch):
        # the rank is checked before the cache: a rank-8 file is never read
        (tmp_path / "geodesics-n8.csv").write_text("")
        monkeypatch.setattr(GeodesicTable, "load", staticmethod(
            lambda path, n: pytest.fail(f"read {path}")))
        for argv in (["longest", "8"], ["length", atom(8, 1, 2).to_text()]):
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
