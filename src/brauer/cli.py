"""
Command-line front end.

One subcommand per library operation, bit-exact text formats for all
diagram and word I/O, and a ``--json`` switch that replaces the text
output with a single JSON object (schema in docs/cli-schema.json).
Each kind of input has one reader: ``parse_diagram``, ``parse_word``,
``parse_sequence``, ``parse_pair_list`` for an endpoint (``_parse_endpoint``),
``_rank`` for a rank (``[0-9]+``, as in the text formats) and argparse
``choices`` from ``diagram.GREEN_RELATIONS`` for a relation letter.
``RANK_LIMITS`` holds the work limits, here alone; ``--force`` lifts
them and exists only on the commands that have one.  It lifts no
ceiling, no row of ``diagram.RANK_CEILINGS``: each ``RANK_LIMITS`` row
also names the kind of work of its command or suite, whose ceiling
refuses a rank before that work allocates, and the parsers check the
``word`` row on the rank of every word and sequence read.

``main`` builds the subparser of the command it runs and no other when
the first argument names a command; any other first argument (``-h``, an
option, an unknown name, none at all) builds every subparser, so the
top-level help and the list of valid commands are complete.  The
top-level usage line names no commands, so both print the same.

Exit codes: 0 on success, 2 on a domain error (bad diagram or word,
violated precondition, rank over its limit) or a usage error (help on
stderr), 1 on an internal failure, a failed verification or a closed
stdout pipe (nothing on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from brauer.decomposition import decompose
from brauer.diagram import (
    GREEN_RELATIONS,
    DomainError,
    check_ceiling,
    count_all,
    enumerate_all,
    green_related,
    multiply,
    parse_diagram,
)
from brauer.geodesics import load_or_compute_table, max_length
from brauer.presentation import (
    Quark,
    normalize,
    parse_pair_list,
    parse_word,
    phi,
    word_to_text,
    words_equal_in_T,
)
from brauer.sequences import (
    count_classes,
    count_paths,
    expected_class_count,
    gamma_graph,
    parse_sequence,
    seq_equivalent,
)
from brauer.verify import SUITES, run_suites

# (limit, kind) of each command and each verify suite: the largest n it
# takes without --force, which lifts it up to the diagram.RANK_CEILINGS row
# of its kind of work, a ceiling that even --force cannot pass;
# the work grows as (2n-1)!!, or as n^4 for the ``classes --dot`` pair graph
# of about n^3/2 edges, except in the census behind ``classes`` and ``paths``.
# ``hclasses`` counts bracket sets in one walk that builds no diagram
# (2,027,025 matchings in 24,661 merged states, 0.27-0.28 s at 44 MB a command
# at n=8 in a fresh process on a 2-core VM); ``counts`` adds the (2n-1)!!
# claim, which streams ``enumerate_all`` through diagram objects, and alone
# walks as ``classes`` does: 0.70 s at 17 MB at n=8.  ``classes`` and ``paths``
# walk only the matchings with at most one bracket on each side: 0.10-0.11 s
# at 17 MB a command at n=8, 0.13-0.17 s at 18 MB at n=9, and 0.22-0.26 s at
# 21.5 MB at n=10 (--force), the walk's ceiling; the unbounded walk took
# 0.26 s at 44 MB at n=8 and 2.3 s at 270 MB at n=9.
# ``relations`` checks one instance per family, 14 words of at most three
# atoms, each at its family's rank k <= 4 (presentation docstring), on the
# ``word`` row: 0.03-0.05 ms in-process at any n up to 10,000.
# ``length``, ``longest`` and ``lengths`` instead cost a BFS over conjugation
# orbits (135 of them at n=8, each extended by one atom per symmetry class:
# 1,835 products, 9 ms for the first search in a fresh process on a 2-core
# VM); the last two build their witness W(n) directly and look it up in the
# table once, and ``lengths`` also checks the cycle formula on one
# representative of every orbit.
# ``irreducible`` runs the same BFS and one general product per orbit and
# atom: 517 x 45 at n=10, 0.26-0.29 s a command.
# ``generation`` runs the same BFS once and reads its orbit table, one
# representative per orbit (135 at n=8): 0.08-0.09 s a command at n=8.
RANK_LIMITS = {
    "length": (8, "BFS"),
    "longest": (8, "BFS"),
    "classes": (9, "walk"),
    "classes --dot": (40, "pair graph"),
    "paths": (9, "walk"),
    "enumerate": (8, "walk"),
    "relations": (10, "word"),
    "generation": (8, "BFS"),
    "irreducible": (10, "BFS"),
    "lengths": (8, "BFS"),
    "counts": (8, "walk"),
    "hclasses": (8, "walk"),
}


def _check_rank(args, name: str, n: int) -> None:
    limit, kind = RANK_LIMITS[name]
    check_ceiling(kind, n)
    if n > limit and not args.force:
        raise DomainError(f"n={n} exceeds the {name} limit {limit} (use --force)")


def _rank(text: str) -> int:
    # [0-9]+ as in every text format: int() also reads signs, spaces, _ and non-ASCII digits
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_endpoint(text: str) -> tuple[int, int]:
    """Read ``i,j`` or ``(i,j)`` as a list of exactly one pair."""
    body = text.strip()
    try:  # DomainError is a ValueError, as is unpacking other than one pair
        (pair,) = parse_pair_list(body if "(" in body else f"({body})")
        return pair
    except ValueError:
        raise DomainError(f"expected a pair like 1,2 - got {text!r}") from None


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


# each handler returns (json_object, text_lines, exit_code)

def _cmd_mult(args):
    a, b = parse_diagram(args.a), parse_diagram(args.b)
    product = multiply(a, b)
    return {"command": "mult", "product": product.to_text()}, [product.to_text()], 0


def _cmd_corank(args):
    d = parse_diagram(args.diagram)
    return {"command": "corank", "corank": d.corank}, [str(d.corank)], 0


def _cmd_green(args):
    a, b = parse_diagram(args.a), parse_diagram(args.b)
    related = green_related(a, b, args.relation)
    obj = {"command": "green", "relation": args.relation, "related": related}
    return obj, [_bool_text(related)], 0


def _cmd_decompose(args):
    d = parse_diagram(args.diagram)
    factors = decompose(d)
    verified = phi(factors) == d
    obj = {
        "command": "decompose",
        "word": word_to_text(factors),
        "verified": verified,
    }
    return obj, [word_to_text(factors), f"verified: {_bool_text(verified)}"], 0


def _cmd_normalize(args):
    w = parse_word(args.word)
    result = normalize(w)
    return {"command": "normalize", "word": word_to_text(result)}, [word_to_text(result)], 0


def _cmd_phi(args):
    image = phi(parse_word(args.word))
    return {"command": "phi", "diagram": image.to_text()}, [image.to_text()], 0


def _cmd_equal(args):
    equal = words_equal_in_T(parse_word(args.u), parse_word(args.v))
    return {"command": "equal", "equal": equal}, [_bool_text(equal)], 0


def _cmd_length(args):
    d = parse_diagram(args.diagram)
    if d.corank == 0:
        raise DomainError("length is undefined on invertible elements")
    _check_rank(args, "length", d.n)
    table = load_or_compute_table(d.n, cache_dir=args.cache_dir or None)
    value = table[d]
    return {"command": "length", "length": value}, [str(value)], 0


def _cmd_longest(args):
    _check_rank(args, "longest", args.n)
    table = load_or_compute_table(args.n, cache_dir=args.cache_dir or None)
    value, witness = max_length(args.n, table=table)
    obj = {
        "command": "longest",
        "n": args.n,
        "max": value,
        "witness": witness.to_text(),
    }
    return obj, [str(value), witness.to_text()], 0


def _cmd_classes(args):
    _check_rank(args, "classes --dot" if args.dot else "classes", args.n)
    if args.dot:
        dot = gamma_graph(args.n)
        return {"command": "classes", "n": args.n, "dot": dot}, [dot], 0
    value = count_classes(args.n)
    obj = {
        "command": "classes",
        "n": args.n,
        "classes": value,
        "formula": expected_class_count(args.n),
    }
    return obj, [str(value)], 0


def _cmd_paths(args):
    _check_rank(args, "paths", args.n)
    frm, to = _parse_endpoint(args.frm), _parse_endpoint(args.to)
    value = count_paths(args.n, frm, to)
    obj = {
        "command": "paths",
        "n": args.n,
        "from": f"{Quark(*frm).i},{Quark(*frm).j}",
        "to": f"{Quark(*to).i},{Quark(*to).j}",
        "paths": value,
    }
    return obj, [str(value)], 0


def _cmd_seq_equal(args):
    a = parse_sequence(args.n, args.a)
    b = parse_sequence(args.n, args.b)
    equal = seq_equivalent(a, b)
    return {"command": "seq-equal", "equal": equal}, [_bool_text(equal)], 0


def _cmd_enumerate(args):
    _check_rank(args, "enumerate", args.n)
    stream = enumerate_all(args.n)
    if not args.json:
        for d in stream:
            print(d.to_text())
        return None, [], 0
    # the bytes of json.dumps(obj, indent=2), one diagram at a time, so that
    # no list of (2n-1)!! texts is held; diagram texts need no JSON escape
    head = {"command": "enumerate", "n": args.n, "count": count_all(args.n)}
    write = sys.stdout.write
    write(json.dumps(head, indent=2)[:-2] + ',\n  "diagrams": [')
    sep = "\n    "
    for d in stream:
        write(f'{sep}"{d.to_text()}"')
        sep = ",\n    "
    write("\n  ]\n}\n")
    return None, [], 0


def _cmd_verify(args):
    suites = list(dict.fromkeys(args.suites)) or sorted(SUITES)  # a repeated name runs once
    for name in suites:  # every suite is checked before any runs
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if args.n < 2:
            raise DomainError("verification suites need n >= 2")
        _check_rank(args, name, args.n)
    claims = run_suites(args.n, suites)
    ok = all(c.ok for c in claims)
    obj = {
        "command": "verify",
        "n": args.n,
        "suites": suites,
        "claims": [c.to_json_obj() for c in claims],
        "ok": ok,
    }
    return obj, [c.line() for c in claims], 0 if ok else 1


_FORCE = ("--force", {"action": "store_true", "help": "lift the rank limit"})
_CACHE_DIR = ("--cache-dir", {"metavar": "PATH", "default": None, "help": "geodesic table cache"})
_N = ("n", {"type": _rank})

# name -> (handler, help line, arguments after --json in the order help lists
# them); a bare string is a positional argument with no options
_COMMANDS = {
    "mult": (_cmd_mult, "multiply two diagrams", ["a", "b"]),
    "corank": (_cmd_corank, "corank of a diagram", ["diagram"]),
    "green": (_cmd_green, "test a Green's relation",
              ["a", "b", ("relation", {"choices": GREEN_RELATIONS})]),
    "decompose": (_cmd_decompose, "factor a singular diagram into atoms", ["diagram"]),
    "normalize": (_cmd_normalize, "rewrite a word into connected-prefix/disjoint-tail form",
                  ["word"]),
    "phi": (_cmd_phi, "evaluate a word to a diagram", ["word"]),
    "equal": (_cmd_equal, "decide equality of two words", ["u", "v"]),
    "length": (_cmd_length, "geodesic length of a diagram",
               [_FORCE, _CACHE_DIR, "diagram"]),
    "longest": (_cmd_longest, "maximal geodesic length at rank n, with witness",
                [_FORCE, _CACHE_DIR, _N]),
    "classes": (_cmd_classes, "number of connected-sequence classes at rank n",
                [_FORCE, _N, ("--dot", {"action": "store_true",
                                        "help": "print the pair graph in DOT form instead"})]),
    "paths": (_cmd_paths, "classes of sequences between two endpoint pairs",
              [_FORCE, _N, ("frm", {"metavar": "from", "help": "first pair, e.g. 1,2"}),
               ("to", {"help": "last pair, e.g. 3,4"})]),
    "seq-equal": (_cmd_seq_equal, "decide equivalence of two connected sequences",
                  [_N, "a", "b"]),
    "verify": (_cmd_verify, "run exhaustive verification suites",
               [_FORCE, _N, ("suites", {"nargs": "*",
                                        "help": f"subset of {sorted(SUITES)} (default: all)"})]),
    "enumerate": (_cmd_enumerate, "stream every diagram of rank n", [_FORCE, _N]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``brauer`` parser with the subparser of ``command`` alone, or of
    every command when ``command`` is None (module docstring)."""
    parser = argparse.ArgumentParser(
        prog="brauer",
        description="Brauer monoid diagrams, their idempotent presentation, "
                    "factorizations, geodesic lengths, and counting checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS if command is None else [command]:
        handler, help_line, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        # argparse reads "-" text as an option unless it looks like a number;
        # no option here starts "-<digit>" or "-(", so "-1,2" counts as one
        p._negative_number_matcher = re.compile(r"^-\.?[\d(]")
        p.add_argument("--json", action="store_true", help="emit a single JSON object")
        for argument in arguments:
            arg, options = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(arg, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one ``brauer`` command line and return its exit code.  A first
    argument that names a command builds that command's parser alone; any
    other (an option, an unknown name, none) builds them all, for the full
    help and the list of choices.  argparse does not resume the ``verify``
    suites after an option, so the suite names it leaves over join them;
    any other leftover is an unrecognized argument."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "verify":
            args.suites += [arg for arg in extra if not arg.startswith("-")]
            extra = [arg for arg in extra if arg.startswith("-")]
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        obj, lines, code = args.handler(args)
        if args.json:
            if obj is not None:
                print(json.dumps(obj, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: divert stdout so the exit-time flush is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
