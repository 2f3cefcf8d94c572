"""Unified command line: omega evaluation, sublevel fits, counterexample
sweeps, Hardy experiments, simplicial approximation, calibration, and the
verify umbrella.

Reports are JSON (plus CSV mirrors for tabular rows) with no timestamps, so
identical configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, checks, hardy, nehari, omega, simplicial
from .calibration import DEFAULT_CALIBRATION, calibrate
from .fourier import ConvergenceError
from .geometry import BUILTIN_BODIES, GeometryError, body_from_json


def builtin_body(name: str):
    """A body of `geometry.BUILTIN_BODIES` by name, else a polytope JSON file."""
    if name in BUILTIN_BODIES:
        return BUILTIN_BODIES[name]()
    try:
        with open(name) as fh:
            return body_from_json(fh.read())
    except FileNotFoundError:
        raise GeometryError(f"unknown body '{name}' (not a builtin, not a file)")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_omega(args) -> int:
    body = builtin_body(args.body)
    point = np.array(_parse_floats(args.point))
    if args.mode == "mc":
        est, se = omega.omega_mc(body, point, args.samples, args.seed)
        print(f"{est:.6f} +- {se:.6f}")
    else:
        val = omega.OmegaEvaluator(body)(point)
        print(f"{val:.6f}")
    return 0


def cmd_sublevel(args) -> int:
    body = builtin_body(args.body)
    est = omega.sublevel_fit(body, args.t_min, args.t_max, args.count,
                             args.samples, args.seed)
    doc = {
        "exponent": est.fitted_exponent,
        "residual": est.fit_residual,
        "config": {
            "body": args.body, "t_min": args.t_min, "t_max": args.t_max,
            "count": args.count, "samples": args.samples, "seed": args.seed,
        },
    }
    if args.out:
        write_json(args.out, doc)
    if args.csv:
        write_csv(args.csv, ["t", "measure", "stderr"],
                  [[float(t), float(m), float(s)]
                   for t, m, s in zip(est.t_values, est.measures, est.stderrs)])
    print(f"fitted exponent {est.fitted_exponent:.4f} (residual {est.fit_residual:.4f})")
    return 0


def cmd_nehari_sweep(args) -> int:
    cfg = nehari.NehariConfig(p=args.p, epsilons=tuple(_parse_floats(args.eps)),
                              seed=args.seed)
    report = nehari.sweep_and_fit(
        cfg, orthogonality_eps=max(cfg.epsilons) if args.orthogonality else None)
    doc = report.as_dict()
    doc["version"] = __version__
    if args.out:
        write_json(args.out, doc)
    if args.csv:
        names = [f.name for f in fields(nehari.SweepRow)]
        write_csv(args.csv, names,
                  [[getattr(row, k) for k in names] for row in report.rows])
    counts = [row.N for row in report.rows]
    print(f"p={args.p}: slope of log ratio vs log N = {report.slope:+.4f} "
          f"over N in [{min(counts)}, {max(counts)}]")
    return 0


def cmd_hardy(args) -> int:
    doc: dict = {"family": args.family, "d": args.d, "body": args.body,
                 "seed": args.seed, "version": __version__}
    if args.family == "tent_product":
        body = builtin_body(args.body)
        if hardy.unit_box_corner(body) is None:
            raise GeometryError("the tent product covers only translates of (0, 1)^n")
        ratio = hardy.tent_ratio(body.dim, d=args.d)
        doc["ratio"] = ratio
        doc["expected_exact"] = (2.0 / (2.0 - args.d)) ** body.dim
        print(f"tent ratio (n={body.dim}, d={args.d}): {ratio:.6f}")
    elif args.family == "halfline_product":
        if args.trials < 1:
            raise GeometryError(f"--trials must be at least 1, got {args.trials}")
        rng = np.random.default_rng(args.seed)
        ratios = []
        for _ in range(args.trials):
            g, h = hardy.random_halfline_pair(rng)
            ratios.append(hardy.halfline_ratio(g, h, freq_points=g.size))
        g, h = hardy.extremal_halfline_pair()
        extremal = hardy.halfline_ratio(g, h, freq_points=g.size,
                                        box_halfwidth=64.0, max_doublings=7)
        doc["ratios"] = ratios
        doc["extremal_ratio"] = extremal
        doc["max_ratio"] = max(max(ratios), extremal)
        print(f"half-line: max of {args.trials} random ratios "
              f"{max(ratios):.4f}, extremal {extremal:.4f} (pi = {np.pi:.4f})")
    elif args.family == "corner_bumps":
        res = hardy.corner_family_sweep(args.d)
        doc["t_values"] = list(map(float, res.t_values))
        doc["ratios"] = list(map(float, res.ratios))
        doc["slope"] = res.slope
        doc["max_over_min"] = res.max_over_min
        print(f"corner family d={args.d}: slope {res.slope:+.4f}, "
              f"max/min {res.max_over_min:.4f}")
    elif args.family == "integrability":
        body = builtin_body(args.body)
        rows = hardy.adjusted_integrability_report(body, [args.d])
        doc["verdict"] = rows[0].verdict
        doc["evidence"] = rows[0].evidence
        print(f"{args.body} d={args.d}: {rows[0].verdict}")
    else:
        raise GeometryError(f"unknown family {args.family}")
    if args.out:
        write_json(args.out, doc)
    return 0


def cmd_simplicial(args) -> int:
    body = builtin_body(args.poly)
    eps_list = _parse_floats(args.eps)
    seq = simplicial.simplicial_sequence(body, eps_list, seed=args.seed)
    stages = []
    for approx in seq:  # every stage passed its checks, else the sequence raised
        stages.append({
            "epsilon": approx.epsilon,
            "vertices": [list(map(float, v)) for v in approx.perturbation.perturbed],
            "facet_incidences": [np.flatnonzero(f).tolist() for f in approx.hull.incidence.T],
            "certificates": [
                {"target": c.target_index, "rho": list(map(float, c.rho)),
                 "residual": c.residual()}
                for c in approx.perturbation.certificates
            ],
            "containment_margin": approx.containment_margin,
            "max_displacement": approx.max_displacement,
            "checks": {"contains_P": approx.contains_p,
                       "within_eps": approx.within_eps,
                       "simplicial": approx.simplicial},
        })
    doc = {"poly": args.poly, "eps": eps_list, "seed": args.seed,
           "stages": stages, "all_checks_pass": True, "version": __version__}
    if args.out:
        write_json(args.out, doc)
    print(f"{len(stages)} stages, all checks pass")
    return 0


def cmd_verify(args) -> int:
    nums = sorted(checks.CRITERIA) if args.suite == "all" else checks.SUITES[args.suite]
    failed = 0
    for num in nums:
        t0 = time.monotonic()
        res = checks.CRITERIA[num](fast=True)
        print(f"{res.line()}  ({time.monotonic() - t0:.1f}s)", flush=True)
        failed += not res.passed
    print(f"{len(nums) - failed}/{len(nums)} criteria passed")
    return 0 if failed == 0 else 1


def cmd_calibrate(args) -> int:
    doc = calibrate().as_dict()
    doc["frozen_default"] = DEFAULT_CALIBRATION.as_dict()
    if args.out:
        write_json(args.out, doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlab",
        description="Convex-body autocorrelation, Hankel spectra, and Hardy-ratio experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega", help="evaluate the autocorrelation of a body at a point")
    p.add_argument("--body", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("sublevel", help="fit the sublevel-measure exponent")
    p.add_argument("--body", required=True)
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e-2)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_sublevel)

    p = sub.add_parser("nehari-sweep", help="counterexample ratio sweep on the disc")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eps", default="0.4,0.3,0.2,0.15,0.1,0.07,0.05")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--orthogonality", action="store_true",
                   help="also run the orthogonal-sum spot check")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_nehari_sweep)

    p = sub.add_parser("hardy", help="Hardy-ratio experiments")
    p.add_argument("--body", default="square")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--family", default="tent_product",
                   choices=["tent_product", "halfline_product", "corner_bumps",
                            "integrability"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("simplicial", help="simplicial outer approximation pipeline")
    p.add_argument("--poly", required=True, help="builtin name or polytope JSON file")
    p.add_argument("--eps", default="0.2,0.1,0.05")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simplicial)

    p = sub.add_parser("verify", help="run the acceptance criteria at a fast budget")
    p.add_argument("--suite", default="all",
                   choices=sorted(checks.SUITES) + ["all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate", help="the disc constants in closed form")
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GeometryError, ConvergenceError, KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()