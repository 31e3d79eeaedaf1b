"""Command-line front end.

Subcommands: ``homfly`` (invariants and coefficient table of one link),
``verify`` (identity checks), ``random`` (seeded braid-word generator),
``catalog`` (built-in links with recomputed data).  Output is deterministic:
identical invocations print identical bytes.

Every link, whatever flag gave it, is evaluated by `skein.SkeinEngine`,
which alone decides how: the front end has no path of its own per input.

Exit codes: 0 success, 1 bad input (arguments the parser rejects
included), 2 resource limit exceeded, 3 at least one verification failed.
A `verify` link that hits a resource limit prints one `error:` line and
loses its reports; the other links are reported as usual, and the run
exits 2.
A reader that closes the output pipe early (``homflypt random --count
100000 | head -1``) ends the run with exit 1 and no message, and so does
a closed standard output, before the command runs.  A closed standard
input reads as an empty one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import catalog
from .identities import (
    verify_prop31,
    verify_skein_F,
    verify_split_F,
    verify_thm13_all,
    verify_thm14,
    verify_thm15,
)
from .combinatorics import LEMMA_RANGES, verify_lemma, verify_partition_identity
from .links import MAX_STRANDS, Link, LinkDiagram, parse_braid
from .report import VerificationReport
from .rng import SplitMix64, random_braid
from .skein import ResourceLimitExceeded, SkeinEngine, coeff_table

VERIFY_TARGETS = ("prop31", "thm13", "thm14", "thm15", "lemmas", "skeinF", "splitF", "all")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_FAILED = 3

# Largest accepted --m-max and --n-max; the least is 1.  Lemma 5.1
# enumerates Bell(m) set partitions (about 4 s for all lemmas at m = 11,
# six times that per further step); the enumerated route of lemma 5.4
# walks 2^n subsets.
LEMMA_M_LIMIT = 11
LEMMA_N_LIMIT = 20
# Largest accepted `random --length`: a word is built whole before it is
# printed.  `random --strands` is bounded by `links.MAX_STRANDS`, the
# largest strand count `parse_braid` reads back.
RANDOM_LENGTH_LIMIT = 10**6


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bad input (exit 1, one `error:`
    line) rather than argparse's exit 2, the exit code of a resource limit;
    ``--help`` still exits 0.  `build_parser` sets `commands` on the
    top-level parser: the subcommands' parsers by name."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise _InputError(f"{message} (see '{self.prog} --help')")


def _max_nodes(args) -> int | None:
    if args.max_nodes is not None and args.max_nodes < 1:
        raise _InputError(f"--max-nodes must be at least 1, got {args.max_nodes}")
    return args.max_nodes


def _load_file(path: str) -> LinkDiagram:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a syntax error, or an int past Python's digit limit
        raise _InputError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        # the schema nests four deep; deeper nesting is bad input, not a
        # resource limit
        raise _InputError(f"{path}: invalid JSON (nested too deeply)") from None
    return LinkDiagram.from_json_dict(obj)


def _resolve_links(args, allow_stdin: bool) -> list[tuple[str, Link]]:
    """Resolve the link selection flags into labeled links: a ClosedBraid
    for a braid or catalog link, a LinkDiagram for a diagram file.  A braid
    line on stdin that does not parse is named by its number from 1."""
    given = [flag for flag in ("catalog", "braid", "file") if getattr(args, flag) is not None]
    if len(given) > 1:
        raise _InputError("give exactly one of --catalog, --braid, --file")
    if args.catalog is not None:
        try:
            entry = catalog.get(args.catalog)
        except KeyError as exc:
            raise _InputError(str(exc.args[0])) from None
        return [(entry.name, entry.word())]
    if args.braid is not None:
        return [(args.braid.strip(), parse_braid(args.braid))]
    if args.file is not None:
        return [(args.file, _load_file(args.file))]
    if allow_stdin:
        stdin = sys.stdin  # None when file descriptor 0 is closed
        try:
            lines = [] if stdin is None or stdin.isatty() else stdin.read().split("\n")
        except (OSError, ValueError):
            lines = []
        links = []
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                links.append((line, parse_braid(line)))
            except ValueError as exc:  # a ParseError, or an int past the digit limit
                raise _InputError(f"line {number}: {exc}") from None
        if links:
            return links
    return []


# -- homfly ------------------------------------------------------------------


def cmd_homfly(args, out) -> int:
    links = _resolve_links(args, allow_stdin=False)
    if not links:
        raise _InputError("give one of --catalog, --braid, --file")
    label, link = links[0]
    if link.num_components == 0:
        raise _InputError("the empty diagram has no coefficient table")
    table = coeff_table(link, SkeinEngine(_max_nodes(args)))
    if args.format == "json":
        print(table.to_json_text(label), file=out)
        return EXIT_OK
    print(f"link: {label}", file=out)
    print(
        f"components: {table.components}  writhe: {table.writhe}"
        f"  total_linking: {table.total_linking}",
        file=out,
    )
    print(f"framed: {table.framed}", file=out)
    print(f"homfly: {table.homfly}", file=out)
    for g in table.genus_range():
        print(f"h[g={g}] (z^{2 * g - table.components}): {table.h_at(g)}", file=out)
    for g in table.genus_range():
        print(f"p[g={g}] (z^{2 * g + 1 - table.components}): {table.p_at(g)}", file=out)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _lemma_reports(args) -> list[VerificationReport]:
    top = {"m": args.m_max, "n": args.n_max}
    for name, limit, default in (("m", LEMMA_M_LIMIT, 10), ("n", LEMMA_N_LIMIT, 12)):
        top[name] = default if top[name] is None else top[name]
        if top[name] < 1:
            raise _InputError(f"--{name}-max must be at least 1, got {top[name]}")
        if top[name] > limit:
            raise _InputError(f"--{name}-max must be at most {limit}, got {top[name]}")
    reports = []
    for lid, (name, least) in LEMMA_RANGES.items():
        # lemma 5.4 is false at its least n, which runs only on request
        skip = lid == "5.4" and not args.include_lemma54_n1
        reports.extend(verify_lemma(lid, p) for p in range(least + skip, top[name] + 1))
    # the partition identity is lemma 5.1 over partitions
    least = LEMMA_RANGES["5.1"][1]
    reports.extend(verify_partition_identity(m) for m in range(least, top["m"] + 1))
    return reports


def _needs_two_components(diagram: Link) -> str | None:
    return "needs >= 2 components" if diagram.num_components < 2 else None


def _inter_crossings(diagram: Link) -> list[int]:
    return sorted(cid for *_, cid in diagram._linking())


# link target -> (skip reason of a nonempty diagram or None, report builder);
# `verify all` walks the targets in this order
_LINK_TARGETS = {
    "prop31": (
        _needs_two_components,
        lambda d, engine, label: [verify_prop31(d, engine=engine, label=label)],
    ),
    "thm13": (
        _needs_two_components,
        lambda d, engine, label: verify_thm13_all(d, engine=engine, label=label),
    ),
    "thm14": (
        lambda d: None,
        lambda d, engine, label: [verify_thm14(d, engine=engine, label=label)],
    ),
    "thm15": (
        _needs_two_components,
        lambda d, engine, label: [verify_thm15(d, engine=engine, label=label)],
    ),
    "skeinF": (
        lambda d: None if _inter_crossings(d) else "no inter-component crossings",
        lambda d, engine, label: [
            verify_skein_F(d, cid, engine=engine, label=f"{label} c{cid}")
            for cid in _inter_crossings(d)
        ],
    ),
    "splitF": (
        _needs_two_components,
        lambda d, engine, label: [
            verify_split_F(
                [engine.sublink(d, [alpha]) for alpha in range(d.num_components)],
                engine=engine,
                label=f"{label} (components split)",
            )
        ],
    ),
}


def _link_reports(
    target: str, label: str, diagram: Link, max_nodes: int | None
) -> tuple[list[VerificationReport], list[str]]:
    if diagram.num_components == 0:
        return [], [f"{target} [{label}]: SKIP (empty diagram)"]
    engine = SkeinEngine(max_nodes)
    reports: list[VerificationReport] = []
    skipped: list[str] = []
    for name in _LINK_TARGETS if target == "all" else (target,):
        skip_reason, build = _LINK_TARGETS[name]
        why = skip_reason(diagram)
        if why:
            skipped.append(f"{name} [{label}]: SKIP ({why})")
        else:
            reports.extend(build(diagram, engine, label))
    return reports, skipped


def cmd_verify(args, out) -> int:
    target = args.target
    reports: list[VerificationReport] = []
    skipped: list[str] = []

    # flags a target does not take are refused before a link is read or a lemma runs
    links: list[tuple[str, Link]] = []
    if target == "lemmas":
        if any(v is not None for v in (args.catalog, args.braid, args.file, args.max_nodes)):
            raise _InputError("verify lemmas takes no --catalog, --braid, --file or --max-nodes")
    else:
        lemma_flags = (args.m_max, args.n_max, args.include_lemma54_n1)
        if target != "all" and lemma_flags != (None, None, False):
            raise _InputError(f"verify {target} takes no --m-max, --n-max or --include-lemma54-n1")
        # `verify all` with no link flags runs the catalog; it never reads
        # stdin, which may be an open pipe that never closes.
        links = _resolve_links(args, allow_stdin=target != "all")
        if not links:
            if target == "all":
                links = [(entry.name, entry.word()) for entry in catalog.CATALOG]
            else:
                raise _InputError(
                    "give one of --catalog, --braid, --file, or pipe braid lines on stdin"
                )
        max_nodes = _max_nodes(args)

    if target in ("lemmas", "all"):
        reports.extend(_lemma_reports(args))
    # a link that hits a resource limit loses its reports, not the others'
    limited = False
    for label, diagram in links:
        try:
            link_reports, link_skips = _link_reports(target, label, diagram, max_nodes)
        except (ResourceLimitExceeded, RecursionError) as exc:
            print(f"error: {exc} [{label}]", file=sys.stderr)
            limited = True
            continue
        reports.extend(link_reports)
        skipped.extend(link_skips)

    # the JSON "passed" is false when a link's checks did not all run
    all_passed = not limited and all(r.passed for r in reports)
    if args.format == "json":
        obj = {
            "reports": [r.to_json_dict() for r in reports],
            "skipped": skipped,
            "passed": all_passed,
        }
        print(json.dumps(obj, sort_keys=True, indent=2), file=out)
    else:
        for r in reports:
            print(r.summary(), file=out)
        for s in skipped:
            print(s, file=out)
        print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed", file=out)
    if limited:
        return EXIT_RESOURCE
    return EXIT_OK if all_passed else EXIT_FAILED


# -- random -------------------------------------------------------------------


def cmd_random(args, out) -> int:
    if args.strands < 2:
        raise _InputError("--strands must be at least 2")
    if args.strands > MAX_STRANDS:
        raise _InputError(f"--strands must be at most {MAX_STRANDS}, got {args.strands}")
    if args.length < 0:
        raise _InputError("--length must be nonnegative")
    if args.length > RANDOM_LENGTH_LIMIT:
        raise _InputError(f"--length must be at most {RANDOM_LENGTH_LIMIT}, got {args.length}")
    if args.count < 1:
        raise _InputError("--count must be positive")
    rng = SplitMix64(args.seed)
    for _ in range(args.count):
        word = random_braid(rng, args.strands, args.length)
        print(word.as_text(), file=out)
    return EXIT_OK


# -- catalog ------------------------------------------------------------------


def cmd_catalog(args, out) -> int:
    rows = []
    for entry in catalog.CATALOG:
        link = entry.word()
        rows.append(
            {
                "name": entry.name,
                "components": link.num_components,
                "writhe": link.writhe(),
                "total_linking": link.total_linking(),
                "braid": entry.braid,
                "summary": entry.summary,
            }
        )
    if args.format == "json":
        print(json.dumps({"links": rows}, sort_keys=True, indent=2), file=out)
    else:
        for row in rows:
            print(
                f"{row['name']} L={row['components']} w={row['writhe']}"
                f" lk={row['total_linking']}  {row['summary']}  [{row['braid']}]",
                file=out,
            )
    return EXIT_OK


# -- argument wiring ------------------------------------------------------------


def _add_link_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", help="name of a built-in link")
    parser.add_argument("--braid", help="braid word, e.g. 'strands=2; 1 1'")
    parser.add_argument("--file", help="path of a diagram JSON file")
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="node budget per link, in homfly and verify alike: one node per"
        " passage of each scan that braids a --file diagram (or any diagram"
        " verify derives from it), per skein resolution step of a diagram"
        " whose braid has a piece too wide to trace, per letter of each"
        " pass of the braid moves, per coefficient term the"
        " Hecke traces of a braid's irreducible pieces write, and per term"
        " of each product of values (braid pieces and their factors t - 1/t;"
        " the k - 1 unlink factors of a descending diagram of k components);"
        " under verify also per sublink the identity checks build (the"
        " components splitF splits off included) and per part of a component"
        " set their walk enumerates (default: 10^7)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homflypt",
        description="Exact HOMFLY-PT polynomials and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_homfly = sub.add_parser("homfly", help="compute the invariants of one link")
    _add_link_flags(p_homfly)
    p_homfly.add_argument("--format", choices=("text", "json"), default="text")
    p_homfly.set_defaults(func=cmd_homfly)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    _add_link_flags(p_verify)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--m-max", type=int, help="largest m for the counting lemmas")
    p_verify.add_argument("--n-max", type=int, help="largest n for the binomial lemma")
    p_verify.add_argument(
        "--include-lemma54-n1",
        action="store_true",
        help="also check the documented failing n=1 case of the binomial lemma",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_random = sub.add_parser("random", help="emit seeded pseudo-random braid words")
    p_random.add_argument("--strands", type=int, default=3)
    p_random.add_argument("--length", type=int, default=8)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--count", type=int, default=1)
    p_random.set_defaults(func=cmd_random)

    p_catalog = sub.add_parser("catalog", help="list built-in links")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.set_defaults(func=cmd_catalog)

    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of `main`, built on the first call: parsing leaves it
    unchanged."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one parser's work when
    argv[0] names a subcommand: that subcommand's parser reads the rest,
    as the top-level parser would hand it over.  Any other argv (none,
    ``--help``, an unknown command), and one with arguments the
    subcommand leaves, goes to the top-level parser, which refuses them
    in its own words."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    stream = out if out is not None else sys.stdout
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args, stream)
    except (_InputError, ValueError) as exc:  # ParseError and DiagramError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceLimitExceeded, RecursionError) as exc:
        # the skein recursion is as deep as the diagram; Python's stack
        # limit is a resource limit like the node budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry_point() -> None:
    if sys.stdout is None:
        # file descriptor 1 is closed: there is no reader, as after a
        # closed pipe
        sys.exit(EXIT_INPUT)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  As the note on SIGPIPE in the `signal` docs
        # advises, point stdout at devnull so that the flush at shutdown
        # raises no second BrokenPipeError, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_INPUT)
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
