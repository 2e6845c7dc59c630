"""Command-line surface: moments, oracle, verify, otft, mc, hz.

Every command is deterministic given its full flag set; JSON output is
emitted with sorted keys and no environment-dependent fields, so equal
invocations produce byte-identical reports.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

import argparse
import json
import sys
from itertools import chain, repeat

from . import verify as verify_mod
from .harer_zagier import (
    catalan_leading_check,
    check_k_max,
    harer_zagier_closed,
    hz_closed_form_check,
    hz_recurrence_check,
)
from .multitrace import canonical_index, index_entries
from .reduction import default_reducer
from .sampling import DEFAULT_CHUNK, monte_carlo_moment
from .scalar import format_scalar
from .wick import DEFAULT_CAP, wick_oracle

USAGE_ERROR = 2
CHECK_FAILED = 1
OTFT_MAX_N = 40  # building matrix_frobenius(N) grows about like N^4 in time and memory


def _pieces(text: str) -> list[str]:
    return [piece for piece in text.split(",") if piece.strip() != ""]


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return index_entries(_pieces(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_count(text: str) -> int:
    """A count that may be zero: a nonnegative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _parse_positive(text: str) -> int:
    """A matrix size: a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_boundaries(text: str) -> tuple[int, ...]:
    """Arguments per marked boundary: one or more positive integers."""
    try:
        sizes = tuple(int(piece) for piece in _pieces(text))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"boundary sizes are positive integers, got {text!r}; expected k1,k2,...")
    return sizes


def _render(args, payload, plain: str, csv: str | None = None) -> None:
    """Write ``payload`` as JSON, or the ``csv`` or ``plain`` text, as
    ``--output`` asks, to ``--out`` or stdout."""
    if args.output == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = csv if args.output == "csv" else plain
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unprintable(factors, message) -> None:
    """Raise ``ValueError`` with ``message`` when the product of
    ``factors`` reaches 10^limit, for CPython's limit on printing an int
    (none where the interpreter has no limit); an early-exit product, so
    the bound is never built past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound = 10**limit
        product = 1
        for factor in factors:
            product *= factor
            if product >= bound:
                raise ValueError(f"{message}, past the {limit}-digit limit on printing an integer")


def _moment_bound(total, size, power):
    """Factors of (T-1)!! * N^power, a bound on p(N) for N >= 1 and a
    moment polynomial of index sum T and degree at most ``power`` in N:
    its coefficients count matchings of the T letters, so they are
    nonnegative and sum to p(1) = (T-1)!!."""
    return chain(range(3, total, 2), repeat(size, power))


def _check_printable(idx, size=None) -> None:
    """Refuse, before any reduction, an index whose moment may have a
    coefficient, or a value at N = ``size``, past CPython's limit on
    printing an int.  Every coefficient is a count of matchings of the
    T = sum(idx) letters, so at most (T-1)!!, which the all-ones index
    attains; p has degree at most T/2 + k in N for k traces."""
    total = sum(idx)
    if total % 2:
        return
    _refuse_unprintable(range(3, total, 2), f"--idx sums to {total}, and its moment's "
                        f"coefficients reach {total - 1}!!")
    if size is None:
        return
    power = total // 2 + len(idx)
    _refuse_unprintable(_moment_bound(total, size, power), f"--N {size} with an index sum of "
                        f"{total}: p(N) may reach {total - 1}!! * |N|^{power}")


def cmd_moments(args) -> int:
    _check_printable(args.idx, args.N)
    reducer = default_reducer()
    poly = reducer.reduce(args.idx)
    payload = {"idx": list(canonical_index(args.idx)), "polynomial": poly.to_json()}
    plain = f"p_{canonical_index(args.idx)} = {poly}"
    if args.N is not None:
        payload["N"] = args.N
        payload["value_at_N"] = value = format_scalar(poly(args.N))
        plain += f"\np({args.N}) = {value}"
    _render(args, payload, plain, poly.to_csv())
    return 0


def cmd_oracle(args) -> int:
    poly = wick_oracle(args.idx, cap=args.cap)
    payload = {"idx": list(canonical_index(args.idx)), "polynomial": poly.to_json(),
               "cap": args.cap}
    _render(args, payload, f"wick_{canonical_index(args.idx)} = {poly}", poly.to_csv())
    return 0


def _emit_reports(args, reports, **fields) -> int:
    """Write a list of check reports (JSON, or one line per check and a
    closing summary line) and return the exit code."""
    all_passed = all(r.passed for r in reports)
    payload = {**fields, "all_passed": all_passed, "checks": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        line = f"{'PASS' if r.passed else 'FAIL'}  {r.name} [{r.scale}]"
        if not r.passed and r.counterexample:
            line += f"  counterexample: {r.counterexample}"
        lines.append(line)
    lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
    _render(args, payload, "\n".join(lines))
    return 0 if all_passed else CHECK_FAILED


def cmd_verify(args) -> int:
    return _emit_reports(args, verify_mod.run_all(args.degree_cap, args.cases, args.hz_k))


def cmd_mc(args) -> int:
    result = monte_carlo_moment(args.idx, args.N, args.samples, args.seed, chunk=args.chunk)
    target = default_reducer().reduce(args.idx)(args.N)
    z = result.z_score(float(target))
    payload = {
        "idx": list(canonical_index(args.idx)),
        "N": args.N,
        "samples": args.samples,
        "seed": args.seed,
        "chunk": args.chunk,
        "estimate": result.estimate,
        "std_error": result.std_error,
        "target": format_scalar(target),
        "target_float": float(target),
        "z_score": z,
        "within_5_sigma": bool(abs(result.estimate - float(target)) <= 5 * result.std_error),
    }
    _render(args, payload, f"estimate = {result.estimate:.6f} +- {result.std_error:.6f} "
                           f"(target {format_scalar(target)}, z = {z:+.3f})")
    return 0


def cmd_hz(args) -> int:
    if (args.k is None) != (args.N is None):
        raise ValueError("--k requires --N" if args.N is None else "--N requires --k")
    if args.k is not None:
        # I^N_{2k} = <Tr X^{2k}> has degree k + 1 in N
        _refuse_unprintable(_moment_bound(2 * args.k, args.N, args.k + 1),
                            f"--k {args.k} with --N {args.N}: I^N_2k may reach "
                            "(2k-1)!! * |N|^(k+1)")
        value = harer_zagier_closed(args.k, args.N)
        payload = {"k": args.k, "N": args.N, "moment": format_scalar(value)}
        _render(args, payload, f"I^{args.N}_{2 * args.k} = {format_scalar(value)}")
        return 0
    k_max = args.kmax
    check_k_max(k_max, "--kmax")
    return _emit_reports(args, [
        hz_recurrence_check(k_max),
        hz_closed_form_check(min(k_max, 10), 6),
        catalan_leading_check(k_max),
    ], k_max=k_max)


def cmd_otft(args) -> int:
    size = args.N
    if size > OTFT_MAX_N:
        raise ValueError(f"--N {size} exceeds the largest otft matrix size {OTFT_MAX_N}")
    # entries lie in -2..2, so |Tr(A_1 ... A_k)| <= N (2N)^k
    traces = (chain((size,), repeat(2 * size, k)) for k in args.boundaries)
    _refuse_unprintable(chain(repeat(size, args.free), *traces),
                        f"--free {args.free} with --boundaries "
                        f"{','.join(map(str, args.boundaries))} at --N {size}: the value may "
                        "reach N^b * prod N(2N)^k_i")
    _, value, expected = verify_mod.otft_trace_case(
        args.seed, args.N, args.genus, args.free, args.boundaries)
    payload = {
        "N": args.N,
        "genus": args.genus,
        "free_boundaries": args.free,
        "boundary_sizes": list(args.boundaries),
        "seed": args.seed,
        "value": format_scalar(value),
        "trace_product": format_scalar(expected),
        "match": value == expected,
    }
    _render(args, payload, f"mu^{{{args.genus},{args.free}}} = {format_scalar(value)} "
                           f"(N^b trace product {format_scalar(expected)}, "
                           f"match={value == expected})")
    return 0 if value == expected else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncbv",
        description="Exact GUE multi-trace moments via the cyclic-word BV calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, csv_ok=False):
        choices = ["json", "csv", "plain"] if csv_ok else ["json", "plain"]
        p.add_argument("--output", choices=choices, default="plain")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")

    p = sub.add_parser("moments", help="reduce an observable to its moment polynomial")
    p.add_argument("--idx", type=_parse_index, required=True, metavar="i1,i2,...")
    p.add_argument("--N", type=_parse_positive, default=None, help="also evaluate p(N) exactly")
    add_output(p, csv_ok=True)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("oracle", help="Wick pairing oracle for the same observable")
    p.add_argument("--idx", type=_parse_index, required=True, metavar="i1,i2,...")
    p.add_argument("--cap", type=_parse_count, default=DEFAULT_CAP)
    add_output(p, csv_ok=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--degree-cap", type=int, default=12, dest="degree_cap")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--hz-k", type=int, default=15, dest="hz_k")
    add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mc", help="Monte Carlo estimate of a multi-trace moment")
    p.add_argument("--idx", type=_parse_index, required=True, metavar="i1,i2,...")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--chunk", type=int, default=DEFAULT_CHUNK)
    add_output(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("hz", help="Harer-Zagier closed form / recurrence report")
    p.add_argument("--k", type=int, default=None, help="half-degree for a single moment")
    p.add_argument("--N", type=_parse_positive, default=None)
    p.add_argument("--kmax", type=int, default=15)
    add_output(p)
    p.set_defaults(func=cmd_hz)

    p = sub.add_parser("otft", help="evaluate a surface tensor over matrices")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--genus", type=_parse_count, default=0)
    p.add_argument("--free", type=_parse_count, default=0, help="free boundary components")
    p.add_argument("--boundaries", type=_parse_boundaries, required=True,
                   metavar="k1,k2,...", help="arguments per marked boundary")
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrix entries")
    add_output(p)
    p.set_defaults(func=cmd_otft)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ncbv: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
