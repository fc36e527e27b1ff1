"""Command line interface.

One subcommand per pipeline stage: parse/print, weight data (mu, limit),
stability classification with optional basis changes, destabilizer search,
Futaki evaluation, degeneration families, the stability/Futaki cross-check,
and a JSONL corpus runner.  Exit codes: 0 success or stable, 2 parse or
validation error, 3 weakly stable but not stable, 4 not weakly stable,
5 cross-check disagreement, 6 internal error (a check of the program's own
results failed; the message says which).

Set GITSTAB_LOG=DEBUG (or INFO, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain
from random import Random

from . import lp
from .degeneration import build_degeneration, from_destabilizer, theorem_crosscheck
from .futaki import futaki_of_limit
from .lazylog import configure_on_first_use
from .linalg import frac, mat_inv
from .poly import HPoly, parse_poly, print_poly
from .stability import NOT_WEAKLY_STABLE, classify_torus
from .vfield import parse_field, parse_matrix, substitute_linear
from .weights import WeightVector, mu, weight_spectrum, limit_poly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 5
EXIT_INTERNAL = 6

# linalg.nullspace builds n - rank vectors of length n, so classifying a form
# in n variables costs about n^2 work and memory; larger inputs are refused.
MAX_VARS = 256


def _parse_input(text, n_vars) -> HPoly:
    """parse_poly behind the variable-count gate every CLI input passes."""
    if type(n_vars) is not int:  # rejects floats, strings and booleans
        raise ValueError(f"n_vars must be a JSON integer, got {json.dumps(n_vars)}")
    if n_vars > MAX_VARS:
        raise ValueError(f"n_vars must be at most {MAX_VARS}, got {n_vars}")
    return parse_poly(text, n_vars)


def _infer_n_vars(text: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"z(\d+)", text)]
    return max(max(indices, default=1) + 1, 2)


def _load_poly(args) -> HPoly:
    if getattr(args, "poly_file", None):
        with open(args.poly_file) as fh:
            text = fh.read().strip()
    else:
        text = args.poly
    if text is None:
        raise ValueError("no polynomial given; use -f or --poly-file")
    n = args.n_vars if args.n_vars is not None else _infer_n_vars(text)
    return _parse_input(text, n)


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _parse_basis(text: str, n: int):
    basis = parse_matrix(text, n, "basis")
    mat_inv(basis)  # raises ValueError when singular
    return basis


def _random_basis(rng: Random, n: int):
    for _ in range(200):
        rows = tuple(tuple(frac(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        try:
            mat_inv(rows)
        except ValueError:
            continue
        return rows
    raise RuntimeError("random search failed to produce an invertible matrix")


def _basis_json(basis) -> list:
    return [[str(x) if x.denominator != 1 else int(x) for x in row] for row in basis]


def cmd_parse(args) -> int:
    f = _load_poly(args)
    _emit(
        args,
        {"f": print_poly(f), "n_vars": f.n_vars, "degree": f.degree, "terms": len(f.terms)},
        [f"{print_poly(f)}", f"n_vars = {f.n_vars}, degree = {f.degree}, terms = {len(f.terms)}"],
    )
    return EXIT_OK


def cmd_mu(args) -> int:
    f = _load_poly(args)
    lam = WeightVector.parse(args.weights)
    value = mu(lam, f)
    spec = sorted(weight_spectrum(lam, f).items())
    limit = limit_poly(lam, f)
    payload = {
        "mu": str(value),
        "spectrum": {str(w): print_poly(p) for w, p in spec},
        "limit": print_poly(limit),
    }
    lines = [f"mu = {value}", "spectrum:"]
    lines += [f"  {w}: {print_poly(p)}" for w, p in spec]
    lines.append(f"limit = {print_poly(limit)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_limit(args) -> int:
    f = _load_poly(args)
    lam = WeightVector.parse(args.weights)
    limit = limit_poly(lam, f)
    _emit(args, {"limit": print_poly(limit), "mu": str(mu(lam, f))}, [print_poly(limit)])
    return EXIT_OK


def _classify_with_bases(args, f: HPoly):
    """Classify in the given coordinates, then in any requested bases,
    keeping the strongest instability found (verdict exit codes 0 < 3 < 4
    rank stable, weakly stable and not weakly stable).  Every `--basis` is
    validated first; the random ones are drawn as they are tried, and none
    is tried once the verdict is not weakly stable."""
    best = (classify_torus(f), "given")
    explicit = [_parse_basis(text, f.n_vars) for text in args.basis or []]
    rng = Random(args.seed)
    candidates = chain(explicit, (_random_basis(rng, f.n_vars) for _ in range(args.basis_sweep)))
    tried = 0
    while best[0].classification != NOT_WEAKLY_STABLE:  # else no basis can beat it
        basis = next(candidates, None)
        if basis is None:
            break
        tried += 1
        verdict = classify_torus(substitute_linear(f, basis))
        if verdict.exit_code > best[0].exit_code:
            best = (verdict, basis)
    return best, tried


def cmd_stability(args) -> int:
    f = _load_poly(args)
    (verdict, basis), tried = _classify_with_bases(args, f)
    basis_field = "given" if basis == "given" else _basis_json(basis)
    payload = verdict.to_json(basis=basis_field)
    qualifier = ""
    if verdict.classification != NOT_WEAKLY_STABLE:
        qualifier = " (relative to the given coordinates)" if not tried else (
            f" (relative to the given coordinates and {tried} tried bases)"
        )
    lines = [f"class = {verdict.classification}{qualifier}"]
    if verdict.destabilizer is not None:
        lines.append(f"destabilizer = {verdict.destabilizer}")
        lines.append(f"mu = {verdict.certificate_mu}")
    lines.append(f"fixing_dim = {verdict.fixing_subspace_dim}")
    if basis != "given":
        lines.append(f"basis = {json.dumps(_basis_json(basis))}")
    _emit(args, payload, lines)
    return verdict.exit_code


def cmd_destabilize(args) -> int:
    f = _load_poly(args)
    verdict = classify_torus(f)
    if verdict.destabilizer is None:
        _emit(args, verdict.to_json(), ["stable: no destabilizer in these coordinates"])
    else:
        _emit(
            args,
            verdict.to_json(),
            [f"destabilizer = {verdict.destabilizer}", f"mu = {verdict.certificate_mu}"],
        )
    return verdict.exit_code


def cmd_futaki(args) -> int:
    f = _load_poly(args)
    lam = WeightVector.parse(args.weights)
    fut = futaki_of_limit(lam, f)
    _emit(
        args,
        fut.to_json(),
        [f"kappa = {fut.kappa}", f"futaki = {fut.value} (n={fut.n}, d={fut.d})"],
    )
    return EXIT_OK


def cmd_degenerate(args) -> int:
    f = _load_poly(args)
    if args.from_destabilizer:
        if not args.weights:
            raise ValueError("--from-destabilizer needs -w with integer trace-zero weights")
        report = from_destabilizer(f, WeightVector.parse(args.weights))
    elif args.field:
        report = build_degeneration(f, parse_field(args.field, f.n_vars))
    else:
        raise ValueError("degenerate needs --field or --from-destabilizer")
    payload = report.to_json()
    lines = [
        f"generator = {report.family.generator}",
        f"s_rescale = {report.family.s_rescale}",
        "strata:",
    ]
    lines += [f"  s^{e}: {print_poly(p)}" for e, p in sorted(report.family.strata.items())]
    lines.append(f"special_fiber = {print_poly(report.special_fiber)}")
    lines.append(f"trivial = {report.trivial}")
    if report.futaki is not None:
        lines.append(f"futaki = {report.futaki.value}")
    lines.append(f"normalized_generator = {report.normalized_trace_zero_generator}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    f = _load_poly(args)
    report = theorem_crosscheck(f, args.bound)
    lines = [
        f"class = {report.verdict.classification}",
        f"weakly_stable (LP) = {report.weakly_stable}",
        f"box consistent (bound {report.bound}, {report.enumerated} generators) = {report.box_consistent}",
        f"agreement = {report.agreement}",
    ]
    for v in report.violations[:10]:
        lines.append(f"  violation {v.kind}: lambda={list(v.generator)} futaki={v.futaki}")
    if len(report.violations) > 10:
        lines.append(f"  ... {len(report.violations) - 10} more")
    _emit(args, report.to_json(), lines)
    return EXIT_OK if report.agreement else EXIT_DISAGREEMENT


def _corpus_worker(line: str) -> tuple:
    """(failed, JSON text) for one nonblank corpus line."""
    line = line.strip()
    try:
        row = json.loads(line)
        f = _parse_input(row["f"], row["n_vars"])
        return False, json.dumps(classify_torus(f).to_json())
    except (KeyError, ValueError, TypeError, RuntimeError) as exc:
        # A RuntimeError is an internal check failing on this line; it stays
        # this line's error instead of aborting the run.
        return True, json.dumps({"error": str(exc), "line": line})


def _print_rows(rows) -> int:
    """Print each (failed, text) row as it arrives; return the failure count."""
    failed = 0
    for bad, text in rows:
        print(text, flush=True)
        failed += bad
    return failed


def cmd_corpus(args) -> int:
    if args.path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.path) as fh:
            lines = fh.read().splitlines()
    lines = [l for l in lines if l.strip()]
    # The pool forks all its workers at once, so it never outgrows the work.
    workers = min(args.workers, len(lines), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that runs which never fork skip multiprocessing's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            failed = _print_rows(pool.map(_corpus_worker, lines, chunksize=8))
    else:
        failed = _print_rows(map(_corpus_worker, lines))
    return EXIT_USAGE if failed else EXIT_OK


def _load_program(path) -> lp.LinearProgram:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"malformed program: {exc}") from None
    if not isinstance(spec, dict) or not {"objective", "constraints"} <= spec.keys():
        raise ValueError("program must be a JSON object with 'objective' and 'constraints'")
    objective, constraints = spec["objective"], spec["constraints"]
    if not isinstance(objective, list) or not isinstance(constraints, list):
        raise ValueError("'objective' and 'constraints' must be JSON arrays")
    for c in constraints:
        if not (isinstance(c, list) and len(c) == 3 and isinstance(c[0], list)):
            raise ValueError(f"constraint {json.dumps(c)} is not a [row, rel, rhs] triple")
    return lp.LinearProgram.maximize(objective, constraints)


def cmd_lp_debug(args) -> int:
    program = _load_program(args.program)
    pivots: list = []
    outcome = lp.solve(program, pivot_log=pivots)
    for k, snap in enumerate(pivots):
        print(f"pivot {k}: phase {snap['phase']}, col {snap['entering']} in, col {snap['leaving']} out")
        for row in snap["tableau"]:
            print("   [" + ", ".join(row) + "]")
    print(f"status = {outcome.status}")
    if outcome.value is not None:
        print(f"value = {outcome.value}")
    if outcome.witness is not None:
        print(f"witness = ({', '.join(str(x) for x in outcome.witness)})")
    return EXIT_OK


def _add_poly_args(p):
    p.add_argument("-f", "--poly", help="polynomial text, e.g. 'z0*z1^2 + z2^2*z3'")
    p.add_argument("--poly-file", help="file containing the polynomial text")
    p.add_argument("-n", "--n-vars", type=int, default=None, help="number of variables (default: inferred)")
    p.add_argument("--json", action="store_true", help="emit one JSON object instead of text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gitstab",
        description="Exact torus stability, destabilizing fields and degenerations of hypersurfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a polynomial canonically")
    _add_poly_args(p)
    p.set_defaults(func=cmd_parse)

    for name, func, help_ in (
        ("mu", cmd_mu, "minimum weight, spectrum and limit under a diagonal field"),
        ("limit", cmd_limit, "the minimum-weight limit polynomial"),
        ("futaki", cmd_futaki, "Futaki invariant of the limit under trace-zero weights"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_poly_args(p)
        p.add_argument("-w", "--weights", required=True, help="comma-separated rational weights")
        p.set_defaults(func=func)

    p = sub.add_parser("stability", help="classify torus stability")
    _add_poly_args(p)
    p.add_argument("--basis", action="append", help="JSON basis matrix to also try (repeatable)")
    p.add_argument("--basis-sweep", type=int, default=0, help="try this many random bases")
    p.add_argument("--seed", type=int, default=0, help="seed for the basis sweep")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("destabilize", help="search for a destabilizing weight vector")
    _add_poly_args(p)
    p.set_defaults(func=cmd_destabilize)

    p = sub.add_parser("degenerate", help="build the degeneration family along a field")
    _add_poly_args(p)
    p.add_argument("--field", help="'diag:w0,w1,...' or a JSON matrix of rationals")
    p.add_argument("-w", "--weights", help="integer trace-zero weights for --from-destabilizer")
    p.add_argument(
        "--from-destabilizer",
        action="store_true",
        help="degenerate along degree*lambda - mu*ones built from -w",
    )
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("crosscheck", help="compare LP stability against Futaki signs over a box")
    _add_poly_args(p)
    p.add_argument("--bound", type=int, default=4, help="enumeration radius (default 4)")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("corpus", help="classify a JSONL corpus of {'f':..., 'n_vars':...} rows")
    p.add_argument("path", help="JSONL file, or - for stdin")
    p.add_argument("--workers", type=int, default=min(4, os.cpu_count() or 1))
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("lp-debug", help="solve a JSON linear program, printing every pivot")
    p.add_argument("program", help="JSON file with 'objective' and 'constraints'")
    p.set_defaults(func=cmd_lp_debug)

    return ap


def _configure_logging():
    import logging

    level = os.environ.get("GITSTAB_LOG", "").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    # With GITSTAB_LOG unset only a WARNING can print, so `logging` is set up
    # when the first record reaches it; a caller who imported it already may
    # expect its records now.
    if os.environ.get("GITSTAB_LOG") or "logging" in sys.modules:
        _configure_logging()
    else:
        configure_on_first_use(_configure_logging)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # PolyParseError, JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
