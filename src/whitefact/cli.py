"""Command-line front end.

Data arguments accept either a file path or an inline JSON string; the
factor system always comes from the file named by --system.  Exit codes:
0 success, 1 domain error (message names the violated precondition),
2 parse or schema error.
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
        raise SchemaError("this command needs --system <file>")
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
    parser.add_argument("--system", help="factor system JSON file")
    parser.add_argument(
        "--format",
        choices=("json", "text", "dot"),
        default="json",
        help="output format (default json)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce a word to normal form")
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("distance", help="tree distance between two vertices")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", help="tree geodesic between two vertices")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("volume", help="spoke volume of a star labelling")
    p.add_argument("label")
    p.add_argument("--basepoint", help="basepoint word (default identity)")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("reduce", help="walk a star labelling back to the base")
    p.add_argument("label")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("factorize", help="factor a pure symmetric automorphism")
    p.add_argument("auto")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("verify", help="check a factorization against an automorphism")
    p.add_argument("auto")
    p.add_argument("factorization")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explore", help="enumerate a volume-bounded complex ball")
    p.add_argument("--max-volume", type=int, required=True)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)
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
