"""Command-line surface.

Exit codes: 0 for success / true verdicts, 1 for false mathematical
verdicts (an equation fails, no retraction exists, not isomorphic),
2 for usage, file, or parse errors.  `--json` switches every command to
machine output with key and element order following carrier order, so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from .core import FiniteAlgebra, InvalidAlgebra, Subuniverse, UalgError
from .fileformat import (
    ParseError,
    parse_algebra_file,
    parse_equation_file,
    serialize_algebra,
)
from .free_semigroup import build_truncated, search_bounded_retraction, word_str
from .generation import clone_n, generate
from .morphisms import (
    check_isomorphism,
    enumerate_homomorphisms,
    find_retractions,
    reduct,
)
from .presets import PRESET_NAMES, preset
from .products import direct_product
from .reduced_power import (
    adjoin_generate,
    coordinate_retraction,
    parse_ep_sequence,
    preservation_suite,
)
from .terms import eval_term, parse_term, render_terms, satisfies_all

USAGE_ERROR = 2
FALSE_VERDICT = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"file not found: {path}" if isinstance(exc, FileNotFoundError)
                       else f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start})")
    except ValueError as exc:  # open() refuses a path with a NUL in it
        raise CliError(f"cannot read {path!r}: {exc}")


def _load_algebras(path: str) -> list[FiniteAlgebra]:
    try:
        return parse_algebra_file(_read_file(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _pick(algs: list[FiniteAlgebra], name: Optional[str], path: str) -> FiniteAlgebra:
    if name is None:
        if len(algs) == 1:
            return algs[0]
        raise CliError(f"{path} holds {len(algs)} algebras; select one with --algebra")
    for a in algs:
        if a.name == name:
            return a
    raise CliError(f"no algebra named {name} in {path}")


def _pick_pair(args) -> tuple[FiniteAlgebra, FiniteAlgebra]:
    """The two algebras that `--algebras A,B` names in args.file."""
    algs = _load_algebras(args.file)
    names = args.algebras.split(",")
    if len(names) != 2:
        raise CliError("--algebras expects two comma-separated names")
    return _pick(algs, names[0], args.file), _pick(algs, names[1], args.file)


def _load_equations(path: str, name: str):
    if path.startswith("preset:"):
        try:
            return preset(path.removeprefix("preset:"))
        except UalgError as exc:
            raise CliError(str(exc))
    try:
        return parse_equation_file(_read_file(path), name=name)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def json_text(obj, indent: str = "") -> str:
    """The bytes of `json.dumps(obj, indent=2)`: two-space indent, ASCII
    escapes, `[]` and `{}` for empty containers.  Keys must be str.  Each
    container is one join; str, None, bool and int are written here, and
    any other scalar goes through `json.dumps`, which raises TypeError
    for a value JSON cannot hold.  (The json module serves any indent
    with its pure-Python encoder.)"""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    # str members are quoted in place, without a call: most clone and
    # product payload members are element names
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_quote(v) if type(v) is str else json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else json_text(v, inner))
                 for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(obj)


def _emit(args, payload: dict, human: Callable[[], str]) -> None:
    """Print the payload as JSON under --json, else the human text,
    which is only built when it is printed."""
    if args.json:
        print(json_text(payload))
    else:
        print(human())


def _render_maps(maps: list[dict[str, str]]) -> str:
    return "\n".join(" ".join(f"{k}->{v}" for k, v in m.items()) for m in maps)


def cmd_check(args) -> int:
    algs = _load_algebras(args.file)
    lines = [f"{a.name}: {len(a.carrier)} elements, "
             f"{len(a.signature.symbols)} operations" for a in algs]
    payload = {
        "algebras": [
            {
                "name": a.name,
                "elements": list(a.carrier),
                "operations": [{"symbol": s, "arity": r} for s, r in a.signature.symbols],
            }
            for a in algs
        ]
    }
    _emit(args, payload, lambda: "\n".join(lines) if lines else "no algebras")
    return 0


def cmd_eval(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    binding_named = {}
    for item in (args.bind.split(",") if args.bind else []):
        if "=" not in item:
            raise CliError(f"bad binding: {item!r} (expected var=element)")
        var, val = item.split("=", 1)
        if var.strip() in binding_named:
            raise CliError(f"repeated variable in --bind: {var.strip()}")
        binding_named[var.strip()] = val.strip()
    variables = list(binding_named)
    term = parse_term(args.term, variables)
    binding = {i: binding_named[v] for i, v in enumerate(variables)}
    result = eval_term(alg, term, binding)
    _emit(args, {"result": result}, lambda: result)
    return 0


def cmd_satisfies(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    eqs = _load_equations(args.equations, name=args.equations)
    report = satisfies_all(alg, eqs)
    payload_rows = [{"equation": eq.render(), "holds": res.holds,
                     "counterexample": res.counterexample} for eq, res in report.results]

    def human() -> str:
        rows = [f"{'pass' if r['holds'] else 'FAIL'}  {r['equation']}"
                + (f"  counterexample {r['counterexample']}" if r["counterexample"] else "")
                for r in payload_rows]
        return "\n".join(rows + ["variety member" if report.variety_member else "not a member"])

    _emit(args, {"algebra": alg.name, "equations": eqs.name,
                 "variety_member": report.variety_member, "results": payload_rows}, human)
    return 0 if report.variety_member else FALSE_VERDICT


def cmd_gen(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    seed = [e for e in (args.elements.split(",") if args.elements else []) if e]
    result = generate(alg, seed)
    stages = [list(s) for s in result.trace.stages]
    _emit(args, {"algebra": alg.name, "seed": seed, "stages": stages,
                 "members": list(result.members), "empty": result.is_empty},
          lambda: "\n".join(
              [f"stage {i}: {' '.join(s) or '(empty)'}" for i, s in enumerate(stages)]
              + [("generated: " + (" ".join(result.members) or "empty -- not an algebra"))]))
    return 0


def cmd_clone(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    frag = clone_n(alg, args.arity, budget=args.budget)
    variables = [f"x{i+1}" for i in range(args.arity)]
    witnesses = render_terms([m.witness for m in frag.members], variables)
    members = [{"table": list(map(alg.carrier.__getitem__, m.table)), "witness": w}
               for m, w in zip(frag.members, witnesses)]
    payload = {"algebra": alg.name, "arity": frag.arity, "complete": frag.complete,
               "members": members}
    _emit(args, payload, lambda: "\n".join(
        [f"{' '.join(m['table'])}  <- {m['witness']}" for m in members]
        + [f"{len(members)} members" + ("" if frag.complete else " (partial)")]))
    return 0


def cmd_homs(args) -> int:
    src, dst = _pick_pair(args)
    if args.count:
        n = enumerate_homomorphisms(src, dst, mode="count", node_budget=args.budget)
        _emit(args, {"count": n}, lambda: str(n))
        return 0 if n else FALSE_VERDICT
    homs = enumerate_homomorphisms(src, dst, mode="list", node_budget=args.budget)
    maps = [m.as_dict() for m in homs]
    _emit(args, {"homomorphisms": maps}, lambda: _render_maps(maps) or "none")
    return 0 if homs else FALSE_VERDICT


def cmd_iso(args) -> int:
    a, b = _pick_pair(args)
    iso = check_isomorphism(a, b, node_budget=args.budget)
    if iso is None:
        _emit(args, {"isomorphic": False, "map": None}, lambda: "not isomorphic")
        return FALSE_VERDICT
    iso_map = iso.as_dict()
    _emit(args, {"isomorphic": True, "map": iso_map},
          lambda: "isomorphic: " + _render_maps([iso_map]))
    return 0


def cmd_retracts(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    members = [e for e in args.image.split(",") if e]
    try:
        image = Subuniverse.of(alg, members)
    except ValueError as exc:
        raise CliError(str(exc))
    retractions = find_retractions(alg, image, node_budget=args.budget)
    maps = [m.as_dict() for m in retractions]
    _emit(args, {"retractions": maps}, lambda: _render_maps(maps) or "no retraction")
    return 0 if retractions else FALSE_VERDICT


def cmd_reduct(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    keep = [s for s in args.keep.split(",") if s]
    out = reduct(alg, keep, name=args.name)
    text = serialize_algebra(out)
    _emit(args, {"algebra": text}, lambda: text.rstrip("\n"))
    return 0


def cmd_product(args) -> int:
    algs = _load_algebras(args.file)
    factors = [_pick(algs, n, args.file) for n in args.algebras.split(",")]
    elements = args.elements.split(",") if args.elements else None
    try:
        prod = direct_product(factors, prefix=args.prefix, elements=elements,
                              name=args.name)
    except UalgError as exc:
        raise CliError(str(exc))
    relabel = {e: list(t) for e, t in prod.labels}
    projections = [
        {"factor": f.name, "map": m.as_dict()}
        for f, m in zip(prod.factors, prod.projections)
    ]
    text = serialize_algebra(prod.product)
    _emit(args, {"algebra": text, "relabel": relabel, "projections": projections},
          lambda: text.rstrip("\n") + "\n# relabel: " + json.dumps(relabel))
    return 0


def cmd_free_retract(args) -> int:
    if args.gens > 26:
        raise CliError(f"--gens must be at most 26 (generators a..z), got {args.gens}")
    gens = [chr(ord("a") + i) for i in range(args.gens)]
    # below --bound one word decides, so only the identity map (image
    # bound = bound) lists the words and is held to the word budget
    T = build_truncated(gens, args.bound,
                        budget=100_000 if args.image_bound == args.bound else None)
    result = search_bounded_retraction(T, args.image_bound)
    transcript = [
        {"word": word_str(s.word), "left": word_str(s.left), "right": word_str(s.right),
         "forced": word_str(s.forced) if s.forced else None, "note": s.note}
        for s in result.transcript
    ]
    if result.found is not None:
        payload = {"found": {word_str(w): word_str(v) for w, v in sorted(result.found.items())},
                   "transcript": transcript}
        _emit(args, payload, lambda: "retraction found")
        return 0
    _emit(args, {"found": None, "transcript": transcript},
          lambda: "\n".join(["no bounded retraction"] + [s["note"] for s in transcript]))
    return FALSE_VERDICT


def cmd_rp(args) -> int:
    alg = _pick(_load_algebras(args.file), args.algebra, args.file)
    gens = [parse_ep_sequence(alg, g) for g in args.gen or []]
    if args.rp_command == "adjoin":
        ext = adjoin_generate(alg, gens, budget=args.budget)
        members = [{"label": label, "sequence": seq.render()} for label, seq in ext.labels]
        payload = {"base": alg.name, "members": members,
                   "algebra": serialize_algebra(ext.algebra)}
        _emit(args, payload, lambda: "\n".join(
            [f"{m['label']}  = {m['sequence']}" for m in members]
            + [f"{len(ext.members)} members"]))
        return 0
    if args.rp_command == "retract":
        ext = adjoin_generate(alg, gens, budget=args.budget)
        r = coordinate_retraction(ext, args.index)
        r_map = r.as_dict()
        _emit(args, {"index": args.index, "map": r_map}, lambda: _render_maps([r_map]))
        return 0
    # "preserve": argparse admits only the three rp subcommands
    eqs = _load_equations(args.equations, name=args.equations)
    report = preservation_suite(alg, eqs, gens, budget=args.budget)
    results = [{"equation": eq.render(), "holds": res.holds} for eq, res in report.results]
    payload = {"base": alg.name, "equations": eqs.name,
               "all_pass": report.variety_member, "results": results}
    _emit(args, payload, lambda: "\n".join(
        f"{'pass' if r['holds'] else 'FAIL'}  {r['equation']}" for r in results))
    return 0 if report.variety_member else FALSE_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ualg", description="finite universal-algebra toolkit"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--budget", type=int, default=10_000_000,
                        help="search/enumeration budget")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored; kept for compatibility")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate an algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate a term under a binding")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--term", required=True)
    p.add_argument("--bind", default="", help="comma-separated var=element pairs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("satisfies", help="check an equation set")
    p.add_argument("file")
    p.add_argument("equations", help="equation file, or preset:<name> "
                   f"({', '.join(PRESET_NAMES)})")
    p.add_argument("--algebra")
    p.set_defaults(func=cmd_satisfies)

    p = sub.add_parser("gen", help="generate a subalgebra from a seed set")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--elements", default="", help="comma-separated seed elements")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("clone", help="n-ary clone fragment")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("homs", help="enumerate homomorphisms")
    p.add_argument("file")
    p.add_argument("--algebras", required=True, help="source,target")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("iso", help="isomorphism test")
    p.add_argument("file")
    p.add_argument("--algebras", required=True, help="first,second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("retracts", help="retractions onto a subuniverse")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--image", required=True, help="comma-separated image elements")
    p.set_defaults(func=cmd_retracts)

    p = sub.add_parser("reduct", help="forget operations")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--keep", required=True, help="comma-separated symbols to keep")
    p.add_argument("--name")
    p.set_defaults(func=cmd_reduct)

    p = sub.add_parser("product", help="categorical direct product")
    p.add_argument("file")
    p.add_argument("--algebras", required=True, help="comma-separated factor names")
    p.add_argument("--prefix", default="p")
    p.add_argument("--elements", help="explicit fresh urelement list")
    p.add_argument("--name")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("free-retract",
                       help="bounded retraction search on a truncated free semigroup")
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--image-bound", type=int, required=True, dest="image_bound")
    p.set_defaults(func=cmd_free_retract)

    p = sub.add_parser("rp", help="reduced-power extension commands")
    rp_sub = p.add_subparsers(dest="rp_command", required=True)
    for sub_name in ("adjoin", "retract", "preserve"):
        q = rp_sub.add_parser(sub_name)
        q.add_argument("file")
        q.add_argument("--algebra")
        q.add_argument("--gen", action="append",
                       help="generator, e.g. 'pre b1 | per b2 b1' (repeatable)")
        if sub_name == "retract":
            q.add_argument("--index", type=int, default=0)
        if sub_name == "preserve":
            q.add_argument("equations")
        q.set_defaults(func=cmd_rp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process, on first use: ~3 ms, against ~0.1 ms to parse
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.budget < 0:
            raise CliError(f"--budget must be >= 0, got {args.budget}")
        return args.func(args)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (UalgError, InvalidAlgebra) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
