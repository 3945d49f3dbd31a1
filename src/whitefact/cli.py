"""Command-line front end.

Data arguments, --system among them, accept either a file path or an
inline JSON string.  Exit codes: 0 success, 1 domain error (message names
the violated precondition), 2 parse or schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio, selfcheck
from .errors import EngineError, SchemaError
from .explorer import enumerate_ball
from .autos import _verification_failure, factorize
from .labellings import volume
from .reduction import reduce_to_base
from .tree import distance, geodesic
from .words import empty_word


def _load_payload(argument: str):
    """File contents when the argument names a file, else inline JSON.

    Messages name a file in full and inline text by jsonio.echo.
    """
    if os.path.exists(argument):
        source = repr(argument)
        try:
            with open(argument, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read {source}: {exc}") from exc
    else:
        text, source = argument, jsonio.echo(argument)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {source}: {exc}") from exc
    except ValueError as exc:  # past the int-string limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"integer of more than {limit} digits in {source}") from exc
    except RecursionError as exc:
        raise SchemaError(f"JSON nested too deeply in {source}") from exc


def _require_system(args):
    if args.system is None:
        raise SchemaError("this command needs --system <file or JSON>")
    return jsonio.system_from_json(_load_payload(args.system))


def _emit(args, payload, text_lines=None) -> None:
    if args.format == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        print(jsonio.dumps(payload))


def _cmd_normalize(args) -> int:
    system = _require_system(args)
    w = jsonio.word_from_json(system, _load_payload(args.word))
    _emit(args, jsonio.word_to_json(w), [str(w)])
    return 0


def _cmd_distance(args) -> int:
    system = _require_system(args)
    p = jsonio.vertex_from_name(system, args.first)
    q = jsonio.vertex_from_name(system, args.second)
    print(distance(p, q))
    return 0


def _cmd_geodesic(args) -> int:
    system = _require_system(args)
    p = jsonio.vertex_from_name(system, args.first)
    q = jsonio.vertex_from_name(system, args.second)
    names = [jsonio.vertex_name(v) for v in geodesic(p, q)]
    _emit(args, names, names)
    return 0


def _cmd_volume(args) -> int:
    system = _require_system(args)
    label = jsonio.star_from_json(system, _load_payload(args.label))
    basepoint = empty_word(system)
    if args.basepoint is not None:
        basepoint = jsonio.word_from_json(system, _load_payload(args.basepoint))
    print(volume(label, basepoint))
    return 0


def _cmd_reduce(args) -> int:
    system = _require_system(args)
    label = jsonio.star_from_json(system, _load_payload(args.label))
    final, moves = reduce_to_base(label)
    payload = {
        "final": jsonio.star_to_json(final)["alpha"],
        "moves": jsonio.moves_to_json(moves),
    }
    lines = [
        f"move {k}: {_slots(m.moved)} through factor {m.i}, volume "
        f"{m.volume_before} -> {m.volume_after}"
        for k, m in enumerate(moves, start=1)
    ] + [f"final: {jsonio.dumps(payload['final'])}"]
    _emit(args, payload, lines)
    return 0


def _slots(moved) -> str:
    return ("slot " if len(moved) == 1 else "slots ") + ", ".join(map(str, moved))


def _cmd_factorize(args) -> int:
    system = _require_system(args)
    psi = jsonio.auto_from_json(system, _load_payload(args.auto))
    payload = jsonio.factorization_to_json(system, factorize(psi))
    lines = [
        f"move {k}: Y {{{', '.join(map(str, m['Y']))}}} by {jsonio.dumps(m['x'])}"
        for k, m in enumerate(payload["whitehead"], start=1)
    ] + [f"factor: {jsonio.dumps(payload['factor'])}", f"inner: {jsonio.dumps(payload['inner'])}"]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    system = _require_system(args)
    psi = jsonio.auto_from_json(system, _load_payload(args.auto))
    fact = jsonio.factorization_from_json(system, _load_payload(args.factorization))
    failure = _verification_failure(psi, fact)
    if failure is None:
        print("OK")
        return 0
    print("FAIL")
    print(failure, file=sys.stderr)
    return 1


def _cmd_explore(args) -> int:
    system = _require_system(args)
    ball = enumerate_ball(system, args.max_volume)
    if args.format == "dot":
        sys.stdout.write(jsonio.sn_ball_to_dot(ball))
    else:
        print(jsonio.dumps(jsonio.sn_ball_to_json(ball)))
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all(args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitefact",
        description="free-product automorphism engine: normal forms, tree "
        "geodesics, labelling volumes, and Whitehead factorization",
    )
    parser.add_argument("--system", help="factor system JSON, a file or inline")
    parser.add_argument(
        "--format",
        choices=("json", "text", "dot"),
        default="json",
        help="output format (default json)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("normalize", "word", _cmd_normalize, "reduce a word to normal form"),
        ("distance", "first second", _cmd_distance, "tree distance between two vertices"),
        ("geodesic", "first second", _cmd_geodesic, "tree geodesic between two vertices"),
        ("volume", "label", _cmd_volume, "spoke volume of a star labelling"),
        ("reduce", "label", _cmd_reduce, "walk a star labelling back to the base"),
        ("factorize", "auto", _cmd_factorize, "factor a pure symmetric automorphism"),
        ("verify", "auto factorization", _cmd_verify, "check a factorization against an automorphism"),
        ("explore", "", _cmd_explore, "enumerate a volume-bounded complex ball"),
        ("selftest", "", _cmd_selftest, "run the acceptance suite"),
    )
    subs = {}
    for name, positionals, func, text in commands:
        subs[name] = sub.add_parser(name, help=text)
        for positional in positionals.split():
            subs[name].add_argument(positional)
        subs[name].set_defaults(func=func)
    subs["volume"].add_argument("--basepoint", help="basepoint word (default identity)")
    subs["explore"].add_argument("--max-volume", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
