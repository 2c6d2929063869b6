"""Command-line front end.

Found multiples stream to stdout as sorted exponent lists ("0,2,3,4"),
one per line, or as JSON records behind --json.  Run reports, progress
notes, and advisory messages go to stderr so the record stream stays
clean in pipelines.

Exit codes: 0 success; 2 invalid flags or values, an invalid engine
cache, or a file that cannot be read or written; 3 modulus not
primitive; 4 memory budget exceeded or memory exhausted; 5 sampling
stopped short of the requested count (records found so far are still
emitted); 6 logarithm of zero or an undefined Zech argument; 7 a record
failed the --verify re-check (nothing is emitted).  Every nonzero exit
but 5 says why in an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dlog import (
    build_engine,
    check_table_bytes,
    load_engine,
    predict_table_bytes,
    save_engine,
)
from .errors import (
    DegreeOutOfRangeError,
    LogOfZeroError,
    LowMultError,
    MemoryBudgetExceededError,
    NotPrimitiveError,
    PolyParseError,
    VerificationError,
    ZechUndefinedError,
)
from .gf2poly import (
    SparsePoly,
    make_context,
    parse_poly,
    residue,
    verify_multiple,
)
from .reference import brute_force_multiples
from .sampler import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_PROGRESS_STRIDE,
    SampleParams,
    birthday_logtmto,
    birthday_tmto,
    random_log_sample,
    write_progress_csv,
)
from .search import (
    DEFAULT_BUDGET_BYTES,
    SearchParams,
    logtmto_find_all,
    tmto_find_all,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_BUDGET = 4
EXIT_EXHAUSTED = 5
EXIT_LOG_DOMAIN = 6
EXIT_VERIFY = 7

# --algorithm auto takes the log route from this degree bound on, the
# n=30, w=4 crossover_D of scripts/crossover.py when a batched log cost
# about 10 us (BENCH_crossover.json now gives 1024).  It stays at 2048
# until ROADMAP item 3, a rule that weighs predicted work, replaces it.
AUTO_LOG_MIN_DEGREE = 2048


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_context(args):
    return make_context(parse_poly(args.poly))


def _engine_plan(args) -> dict:
    """The engine flags, as build_engine and predict_table_bytes take them."""
    return {"tabulation_threshold": getattr(args, "tabulation_threshold", None),
            "bsgs_baby_entries": getattr(args, "bsgs_entries", None)}


def _get_engine(args, ctx):
    cap = getattr(args, "budget_bytes", DEFAULT_BUDGET_BYTES)
    if getattr(args, "cache", None):
        engine = load_engine(args.cache)
        if engine.ctx.poly != ctx.poly:
            raise PolyParseError(
                f"engine cache {args.cache} was built for P={engine.ctx.poly}"
            )
        check_table_bytes(engine.predicted_bytes, cap)
        return engine
    return build_engine(ctx, **_engine_plan(args), max_table_bytes=cap)


def _emit(blocks, as_json: bool) -> None:
    """Write the multiples, given as blocks of exponent tuples."""
    out = sys.stdout
    for block in blocks:
        if as_json:
            out.write("".join(
                json.dumps({"exponents": list(exps), "weight": len(exps),
                            "degree": exps[-1]}) + "\n"
                for exps in block))
        else:
            out.write("".join(",".join(map(str, exps)) + "\n" for exps in block))


def _verify(blocks, ctx, w, D) -> None:
    for block in blocks:
        for exps in block:
            poly = SparsePoly(exps)
            if not verify_multiple(poly, ctx, w, D):
                raise VerificationError(f"record {poly} fails verification")


def _record_exponents(records):
    """Records as one block of exponent tuples."""
    return [[rec.poly.exponents for rec in records]]


def _auto_algorithm(ctx, w: int, D: int, budget: int, *,
                    tabulation_threshold: int | None = None,
                    bsgs_baby_entries: int | None = None) -> str:
    """logtmto for an even weight from AUTO_LOG_MIN_DEGREE on, below the
    group order M, if its engine, planned as the flags ask, fits the
    budget; else tmto (odd weights gain nothing, and from D = M on every
    probe walks the whole table)."""
    if (
        w % 2 == 0
        and AUTO_LOG_MIN_DEGREE <= D < ctx.order
        and predict_table_bytes(
            ctx, tabulation_threshold, bsgs_baby_entries) <= budget
    ):
        return "logtmto"
    return "tmto"


def cmd_find_all(args) -> int:
    ctx = _load_context(args)
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = _auto_algorithm(
            ctx, args.weight, args.max_degree, args.budget_bytes,
            **_engine_plan(args),
        )
        _say(f"auto-selected algorithm: {algorithm}")
    if algorithm == "tmto":
        params = SearchParams.balanced(
            args.weight, args.max_degree, "classical",
            budget_bytes=args.budget_bytes,
        )
        result = tmto_find_all(ctx, params)
    else:
        params = SearchParams.balanced(
            args.weight, args.max_degree, "logarithmic",
            budget_bytes=args.budget_bytes,
        )
        engine = _get_engine(args, ctx)
        result = logtmto_find_all(ctx, engine, params)
    if args.verify:
        _verify(result.exponent_blocks(), ctx, args.weight, args.max_degree)
    _emit(result.exponent_blocks(), args.json)
    for line in result.report.lines():
        _say(line)
    return EXIT_OK


def cmd_find_some(args) -> int:
    ctx = _load_context(args)
    params = SampleParams(
        w=args.weight,
        D=args.max_degree,
        B=args.count,
        q1=args.q1,
        K=args.precompute_degree,
        seed=args.seed,
        max_iterations=args.max_iterations,
        progress_stride=args.progress_stride,
        budget_bytes=args.budget_bytes,
    )
    if args.method == "birthday":
        result = birthday_tmto(ctx, params)
    else:
        engine = _get_engine(args, ctx)
        if args.method == "logsample":
            result = random_log_sample(engine, params)
        else:
            result = birthday_logtmto(engine, params)
    if args.verify:
        _verify(_record_exponents(result.records), ctx, args.weight,
                args.max_degree)
    if args.progress_csv:
        write_progress_csv(args.progress_csv, result.events)
    _emit(_record_exponents(result.records), args.json)
    _say("# sampling report")
    _say(f"method: {args.method}")
    _say(f"found: {result.found}")
    _say(f"iterations: {result.iterations}")
    _say(f"duplicates_suppressed: {result.duplicates}")
    _say(f"log_calls: {result.log_calls}")
    _say(f"seconds: {result.seconds:.3f}")
    if result.exhausted and result.found < args.count:
        _say(
            f"iteration budget exhausted: found {result.found} of {args.count}"
        )
        return EXIT_EXHAUSTED
    return EXIT_OK


def cmd_log(args) -> int:
    ctx = _load_context(args)
    engine = _get_engine(args, ctx)
    element = residue(parse_poly(args.element), ctx)
    print(engine.discrete_log(element))
    return EXIT_OK


def cmd_zech(args) -> int:
    ctx = _load_context(args)
    engine = _get_engine(args, ctx)
    print(engine.zech_log(args.exponent))
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .search import estimate_count

    value = estimate_count(args.n, args.weight, args.max_degree)
    print(f"≈{value:.3g}")
    return EXIT_OK


def cmd_engine_build(args) -> int:
    ctx = _load_context(args)
    predicted = predict_table_bytes(ctx, **_engine_plan(args))
    _say(f"predicted table memory: {predicted} bytes ({predicted / 1e6:.1f} MB)")
    engine = _get_engine(args, ctx)
    for p, e, strategy, entries in engine.strategy_summary():
        _say(f"prime {p}^{e}: {strategy}, {entries} entries")
    save_engine(engine, args.cache_out)
    print(f"engine cache written to {args.cache_out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    # Hidden helper: brute-force reference output for deriving expected
    # values in tests and docs.
    ctx = _load_context(args)
    records = sorted(
        brute_force_multiples(ctx, args.weight, args.max_degree),
        key=lambda r: (r.degree, r.poly.exponents),
    )
    _emit(_record_exponents(records), args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowmult",
        description=(
            "Find low-weight multiples of a binary primitive polynomial, "
            "exhaustively or by seeded random sampling."
        ),
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{find-all,find-some,log,zech,estimate,engine-build}",
    )

    poly_parent = argparse.ArgumentParser(add_help=False)
    poly_parent.add_argument(
        "--poly", required=True,
        help="modulus P: comma exponent list ('53,47,...,0') or hex mask ('0x2B')",
    )

    engine_parent = argparse.ArgumentParser(add_help=False)
    engine_parent.add_argument(
        "--cache", help="load the log engine from this cache file"
    )
    engine_parent.add_argument(
        "--tabulation-threshold", type=int, default=None,
        help="tabulate subgroup logs for primes up to this bound (default: "
        "auto within a 2^26-entry budget)",
    )
    engine_parent.add_argument(
        "--bsgs-entries", type=int, default=None,
        help="baby-step table size for non-tabulated primes "
        "(default ceil(sqrt(p)))",
    )

    search_parent = argparse.ArgumentParser(add_help=False)
    search_parent.add_argument("--weight", type=int, required=True,
                               help="max weight w of the multiples")
    search_parent.add_argument("--max-degree", type=int, required=True,
                               help="max degree D of the multiples")
    search_parent.add_argument("--json", action="store_true",
                               help="emit JSON records instead of exponent lists")
    search_parent.add_argument("--budget-bytes", type=int,
                               default=DEFAULT_BUDGET_BYTES,
                               help="table memory budget (model bytes)")
    search_parent.add_argument("--verify", action="store_true",
                               help="re-verify every emitted record (debug)")

    p_all = sub.add_parser(
        "find-all", parents=[poly_parent, search_parent, engine_parent],
        help="find every multiple with weight <= w (same parity) and degree <= D",
    )
    p_all.add_argument("--algorithm", choices=("tmto", "logtmto", "auto"),
                       default="auto")
    p_all.set_defaults(func=cmd_find_all)

    p_some = sub.add_parser(
        "find-some", parents=[poly_parent, search_parent, engine_parent],
        help="find B multiples by seeded random sampling",
    )
    p_some.add_argument("--count", type=int, required=True, help="target count B")
    p_some.add_argument("--method",
                        choices=("logsample", "birthday", "birthday-log"),
                        default="logsample")
    p_some.add_argument("--precompute-degree", type=int, default=None,
                        help="stored-side degree cap K (birthday-log)")
    p_some.add_argument("--q1", type=int, default=None,
                        help="stored-side tuple size (birthday-log)")
    p_some.add_argument("--seed", type=int, default=0)
    p_some.add_argument("--max-iterations", type=int,
                        default=DEFAULT_MAX_ITERATIONS)
    p_some.add_argument("--progress-csv", default=None,
                        help="write 'iteration,found' progress rows here")
    p_some.add_argument("--progress-stride", type=int,
                        default=DEFAULT_PROGRESS_STRIDE)
    p_some.set_defaults(func=cmd_find_some)

    p_log = sub.add_parser(
        "log", parents=[poly_parent, engine_parent],
        help="discrete logarithm (base x) of a field element",
    )
    p_log.add_argument("--element", required=True,
                       help="element as a polynomial spec (e.g. '0x1' or '1,0')")
    p_log.set_defaults(func=cmd_log)

    p_zech = sub.add_parser(
        "zech", parents=[poly_parent, engine_parent],
        help="Zech logarithm Z(i) = log(1 + x^i)",
    )
    p_zech.add_argument("--exponent", type=int, required=True)
    p_zech.set_defaults(func=cmd_zech)

    p_est = sub.add_parser(
        "estimate", help="expected multiple count D^(w-1) / ((w-1)! 2^n)"
    )
    p_est.add_argument("--n", type=int, required=True, help="modulus degree")
    p_est.add_argument("--weight", type=int, required=True)
    p_est.add_argument("--max-degree", type=int, required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_build = sub.add_parser(
        "engine-build", parents=[poly_parent, engine_parent],
        help="build the log engine and persist it to a cache file",
    )
    p_build.add_argument("--cache-out", required=True,
                         help="path for the engine cache file")
    p_build.add_argument("--budget-bytes", type=int,
                         default=DEFAULT_BUDGET_BYTES)
    p_build.set_defaults(func=cmd_engine_build)

    # reference-only helper for deriving expected values; added without a
    # help string and outside the metavar, so it stays off the advertised
    # surface
    p_oracle = sub.add_parser("oracle", parents=[poly_parent])
    p_oracle.add_argument("--weight", type=int, required=True)
    p_oracle.add_argument("--max-degree", type=int, required=True)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolyParseError, DegreeOutOfRangeError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except NotPrimitiveError as exc:
        _say(f"error: {exc}")
        return EXIT_NOT_PRIMITIVE
    except MemoryBudgetExceededError as exc:
        _say(f"error: {exc}")
        return EXIT_BUDGET
    except MemoryError:
        _say("error: out of memory; lower the degree bound or --budget-bytes")
        return EXIT_BUDGET
    except VerificationError as exc:
        _say(f"error: {exc}")
        return EXIT_VERIFY
    except (LogOfZeroError, ZechUndefinedError) as exc:
        _say(f"error: {exc}")
        return EXIT_LOG_DOMAIN
    except (LowMultError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
