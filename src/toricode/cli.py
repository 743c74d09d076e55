"""Command-line front end: build codes, search distances, verify formulas.

Subcommands:
  build     construct a code, optionally emit its generator matrix
  mindist   exact minimum distance of a polytope or recipe code
  verify    recipe formula vs brute-force search, PASS/FAIL
  table     CSV parameter sweep of a recipe over a field range
  examples  reproduce the five golden [N, k, d] results

All numeric output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .codes import build_code
from .formulas import d_recipe, recipe_params, recipe_valid_for
from .gf import as_prime_power, check_field_cap, parse_field
from .mindist import DEFAULT_BUDGET, min_distance
from .polytopes import (
    box,
    polytope_from_dict,
    product,
    pyramid,
    realize_recipe,
    recipe_from_dict,
)


class CliError(Exception):
    """Input or usage failure; exits with status 2."""


def _load_json(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"{kind} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at byte {exc.pos} (line {exc.lineno}): {exc.msg}"
        ) from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: a {kind} file must hold a JSON object")
    return data


def _polytope_from_args(args) -> "tuple":
    """Resolve --polytope / --recipe into (polytope, label)."""
    if args.polytope and args.recipe:
        raise CliError("give exactly one of --polytope or --recipe")
    if args.polytope:
        data = _load_json(args.polytope, "polytope")
        try:
            return polytope_from_dict(data), args.polytope
        except ValueError as exc:
            raise CliError(f"{args.polytope}: {exc}") from exc
    if args.recipe:
        recipe = _recipe_from_path(args.recipe)
        return realize_recipe(recipe), args.recipe
    raise CliError("an input is required: --polytope FILE or --recipe FILE")


def _recipe_from_path(path: str):
    data = _load_json(path, "recipe")
    try:
        return recipe_from_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    field = parse_field(args.field)
    poly, label = _polytope_from_args(args)
    code = build_code(poly, field, allow_outside_cube=args.allow_outside_cube)
    lines = [
        f"# {field.describe()}",
        f"# polytope {label} vertices: {[list(v) for v in poly.vertices]}",
        f"q={field.q} n={code.n} k={code.k} N={code.block_length}",
    ]
    if args.emit_generator:
        rows = [f"{field.q} {code.n} {code.k} {code.block_length}"]
        rows += [" ".join(str(int(v)) for v in row) for row in code.generator]
        _write(args.emit_generator, "\n".join(rows) + "\n")
        lines.append(f"generator written to {args.emit_generator}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_mindist(args) -> int:
    field = parse_field(args.field)
    poly, _ = _polytope_from_args(args)
    code = build_code(poly, field)
    result = min_distance(code, method=args.method, budget=args.budget)
    witness = ",".join(str(int(c)) for c in result.witness)
    _emit(
        args,
        f"N={code.block_length} k={code.k} d={result.d} "
        f"method={result.method} exact={str(result.exact).lower()} "
        f"witness={witness}\n",
    )
    return 0


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    recipe = _recipe_from_path(args.recipe)
    try:
        formula = d_recipe(recipe, field.q)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    poly = realize_recipe(recipe)
    code = build_code(poly, field)
    result = min_distance(code, method=args.method, budget=args.budget)
    status = "PASS" if (result.exact and result.d == formula) else "FAIL"
    _emit(
        args,
        f"q={field.q} N={code.block_length} k={code.k} "
        f"formula_d={formula} bruteforce_d={result.d} "
        f"exact={str(result.exact).lower()} {status}\n",
    )
    return 0 if status == "PASS" else 1


def cmd_table(args) -> int:
    try:
        lo_text, _, hi_text = args.field_range.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise CliError(f"bad --field-range {args.field_range!r}; expected A..B") from exc
    if lo > hi:
        raise CliError(f"empty field range {args.field_range!r}")
    recipe = _recipe_from_path(args.recipe)
    rows = ["q,N,k,d,rel_d,rate,method,exact"]
    for q in range(lo, hi + 1):
        pm = as_prime_power(q)
        if pm is None or not recipe_valid_for(recipe, q):
            rows.append(f"{q},,,,,,skipped,")
            continue
        check_field_cap(*pm)
        params = recipe_params(recipe, q)
        rows.append(
            f"{q},{params.N},{params.k},{params.d},"
            f"{params.relative_distance},{params.rate},formula,"
            f"{str(params.exact).lower()}"
        )
    _emit(args, "\n".join(rows) + "\n")
    return 0


GOLDEN_EXAMPLES = (
    # label, field, polytope builder, method, expected (N, k, d)
    ("triangle", "5", "triangle", "exhaustive", (16, 6, 8)),
    ("triangle", "2^3", "triangle", "exhaustive", (49, 6, 28)),
    ("prism", "5", "prism", "isd", (64, 12, 24)),
    ("pyramid(triangle)", "5", "pyramid", "exhaustive", (64, 7, 32)),
    ("ex4", "5", "ex4", "isd", (64, 13, 31)),
)


def _bundled_polytope(name: str):
    data_dir = resources.files("toricode") / "data"
    triangle = polytope_from_dict(
        json.loads((data_dir / "triangle.json").read_text(encoding="utf-8"))
    )
    if name == "triangle":
        return triangle
    if name == "prism":
        return product(triangle, box([1]))
    if name == "pyramid":
        return pyramid(triangle)
    if name == "ex4":
        return polytope_from_dict(
            json.loads((data_dir / "ex4.json").read_text(encoding="utf-8"))
        )
    raise AssertionError(name)


def cmd_examples(args) -> int:
    lines = []
    failed = False
    for label, field_text, poly_name, method, expected in GOLDEN_EXAMPLES:
        field = parse_field(field_text)
        code = build_code(_bundled_polytope(poly_name), field)
        result = min_distance(code, method=method, budget=args.budget)
        got = (code.block_length, code.k, result.d)
        status = "PASS" if (got == expected and result.exact) else "FAIL"
        lines.append(
            f"q={field.q} P={label} N={got[0]} k={got[1]} d={got[2]} {status}"
        )
        if status == "FAIL":
            failed = True
            lines.append(
                f"  expected N={expected[0]} k={expected[1]} d={expected[2]} exact"
            )
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricode",
        description="Toric codes from lattice polytopes: parameters and formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, field=True, budget=True):
        if field:
            p.add_argument("--field", required=True, help="field size: p or p^m, e.g. 5 or 2^3")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="search budget in codeword-symbol operations")
        p.add_argument("--out", default=None, help="write the report to a file")

    p_build = sub.add_parser("build", help="construct a toric code")
    add_common(p_build, budget=False)
    p_build.add_argument("--polytope", help="polytope JSON file")
    p_build.add_argument("--recipe", help="recipe JSON file")
    p_build.add_argument("--emit-generator", default=None,
                         help="write the generator matrix to this path")
    p_build.add_argument("--allow-outside-cube", action="store_true",
                         help="build even if the polytope leaves [0, q-2]^n")
    p_build.set_defaults(func=cmd_build)

    p_mindist = sub.add_parser("mindist", help="exact minimum distance")
    add_common(p_mindist)
    p_mindist.add_argument("--polytope", help="polytope JSON file")
    p_mindist.add_argument("--recipe", help="recipe JSON file")
    p_mindist.add_argument("--method", choices=("auto", "exhaustive", "isd"),
                           default="auto")
    p_mindist.set_defaults(func=cmd_mindist)

    p_verify = sub.add_parser("verify", help="recipe formula vs brute force")
    add_common(p_verify)
    p_verify.add_argument("--recipe", required=True, help="recipe JSON file")
    p_verify.add_argument("--method", choices=("auto", "exhaustive", "isd"),
                          default="auto")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="CSV parameter sweep over q")
    p_table.add_argument("--field-range", required=True, help="inclusive range, e.g. 4..9")
    p_table.add_argument("--recipe", required=True, help="recipe JSON file")
    p_table.add_argument("--out", default=None, help="write the CSV to a file")
    p_table.set_defaults(func=cmd_table)

    p_examples = sub.add_parser("examples", help="run the golden examples")
    add_common(p_examples, field=False)
    p_examples.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a witness that does not re-evaluate to the reported weight
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
