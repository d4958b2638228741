"""Command-line front end.

Subcommands: gen, solve, bounds, eval-g, verify-net, experiment.
Exit codes: 0 success / certificate pass, 1 verification failure,
2 usage error (argparse's default).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .bounds import BoundsReport, choose_R, compute_bounds
from .closedform import g_all
from .experiments import (
    ALGOS,
    ExperimentConfig,
    gen_instance,
    mean_certified_ratio,
    run_ratio_experiment,
    solve,
    write_csv,
)
from .geometry import Point, Solution, load_instance, save_instance
from .netverify import verify_all
from .tsp import TSP_MODES


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated seeds, with `a:b` ranges (half-open)."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":")
            seeds.extend(range(int(lo), int(hi)))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return tuple(seeds)


def _parse_r(text: str):
    if text == "auto":
        return "auto"
    if text == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--r must be a number, 'auto' or 'inf', got {text!r}"
        ) from None
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"--r must be >= 0, got {value}")
    return value


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _solution_dict(algo: str, solution: Solution) -> dict:
    return {
        "algo": algo,
        "total_cost": solution.total_cost,
        "num_tours": len(solution.tours),
        "tours": [asdict(t) for t in solution.tours],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepcvrp",
        description="Sweep-partition CVRP solver, bound certificates, and "
        "the validated-numerics net verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a uniform random instance")
    p.add_argument("--n", type=int, required=True, help="number of terminals")
    p.add_argument("--k", type=int, required=True, help="vehicle capacity")
    p.add_argument("--depot-x", type=_parse_finite, default=0.5)
    p.add_argument("--depot-y", type=_parse_finite, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="instance file to write")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--algo", choices=ALGOS, default="sweep")
    p.add_argument("--m", type=int, default=2, help="group size factor M (sweep)")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--output", help="write the solution as JSON here")
    p.add_argument("--tsp-mode", choices=TSP_MODES, default="auto")
    p.add_argument("--seed", type=int, default=0, help="heuristic TSP seed")

    p = sub.add_parser("bounds", help="lower/upper bound report")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--r", type=_parse_r, default="auto",
                   help="clipping radius: number, 'auto' ((3/4) E d) or 'inf'")
    p.add_argument("--m", type=int, default=2, help="group size factor M")
    p.add_argument("--tsp-mode", choices=TSP_MODES, default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eval-g", help="closed-form g1, g2, g3 at a depot")
    p.add_argument("--a", type=_parse_finite, required=True)
    p.add_argument("--b", type=_parse_finite, required=True)

    p = sub.add_parser("verify-net", help="run the net verification")
    p.add_argument("--stride", type=int, default=1,
                   help="check every stride-th grid index (1 = full net)")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--report", help="write the machine-readable report here")

    p = sub.add_parser("experiment", help="ratio experiment over seeds")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="fixed capacity")
    group.add_argument("--k-alpha", type=float,
                       help="capacity rule k = ceil(n^alpha), alpha in [0,1]")
    p.add_argument("--depot-x", type=_parse_finite, default=0.5)
    p.add_argument("--depot-y", type=_parse_finite, default=0.5)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seeds", type=_parse_seeds, default=(0,),
                   help="comma list and/or a:b ranges, e.g. 0:20")
    p.add_argument("--algos", default=",".join(ALGOS),
                   help=f"comma subset of {','.join(ALGOS)}")
    p.add_argument("--tsp-mode", choices=TSP_MODES, default="auto")
    p.add_argument("--small-instance-mode", action="store_true",
                   help="use the brute-force optimum as ratio denominator")
    p.add_argument("--output", required=True, help="CSV file to write")
    return parser


def _cmd_gen(args) -> int:
    instance = gen_instance(args.n, args.k, Point(args.depot_x, args.depot_y),
                            args.seed)
    save_instance(instance, args.output)
    print(f"wrote {args.n} terminals (k={args.k}, seed={args.seed}) "
          f"to {args.output}")
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.input)
    solution = solve(instance, args.algo, args.m, args.tsp_mode, args.seed)
    payload = _solution_dict(args.algo, solution)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
            fp.write("\n")
    print(f"{args.algo}: cost {solution.total_cost!r} "
          f"with {len(solution.tours)} tours")
    return 0


def _cmd_bounds(args) -> int:
    instance = load_instance(args.input)
    R = choose_R(instance.depot) if args.r == "auto" else args.r
    report = compute_bounds(instance, R, args.m, args.tsp_mode, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(BoundsReport.CSV_HEADER)
        print(report.to_csv_row())
    return 0


def _cmd_eval_g(args) -> int:
    v1, v2, v3, R = g_all(args.a, args.b)
    print(f"g1 {v1!r}")
    print(f"g2 {v2!r}")
    print(f"g3 {v3!r}")
    print(f"R {R!r}")
    return 0


def _cmd_verify_net(args) -> int:
    cert = verify_all(
        stride=args.stride, threads=args.threads,
        report_path=args.report, progress=True,
    )
    status = "PASS" if cert.passed else "FAIL"
    print(
        f"verify-net {status}: {cert.points_checked} points at stride "
        f"{cert.stride}; min margins {cert.min_margin_g2:.6f} "
        f"(threshold {cert.threshold_g2}) and {cert.min_margin_g3:.6f} "
        f"(threshold {cert.threshold_g3}); Lipschitz slacks "
        f"{cert.lipschitz_slack_g2:.6e}, {cert.lipschitz_slack_g3:.6e}; "
        f"{cert.runtime_seconds:.1f}s"
    )
    return 0 if cert.passed else 1


def _cmd_experiment(args) -> int:
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    config = ExperimentConfig(
        n=args.n,
        depot=Point(args.depot_x, args.depot_y),
        M=args.m,
        seeds=args.seeds,
        k_fixed=args.k,
        k_alpha=args.k_alpha,
        algos=algos,
        tsp_mode=args.tsp_mode,
        small_instance_mode=args.small_instance_mode,
    )
    result = run_ratio_experiment(config)
    with open(args.output, "w", encoding="utf-8") as fp:
        write_csv(result, fp)
    for algo in algos:
        mean = mean_certified_ratio(result, algo)
        print(f"{algo}: mean cost / best-certified-lower-bound over "
              f"{len(args.seeds)} seeds = {mean!r}")
    print(f"wrote {len(result.rows)} rows to {args.output}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "eval-g": _cmd_eval_g,
    "verify-net": _cmd_verify_net,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
