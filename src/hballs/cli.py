"""Command-line surface for the verification harness.

Usage:
    hballs extend --n 1 --boundary re --nodes 4096 --points 0.5+0i --out f.csv
    hballs extend --n 1 --boundary const:1 --points grid:0.1:0.7:8 --out f.csv
    hballs verify --suite all --seed 1 --out report.json
    hballs verify --suite lemmaB --trials 10000 --seed 7
    hballs landau --n 1..4 --alpha 1 --m 1 --out landau.csv

Configuration precedence is command-line flags, then a --config file of
key=value lines, then built-in defaults (n=1, nodes=4096, mc_nodes=200000,
seed=0, rmax=0.8).  The environment variable HBALLS_SEED replaces only the
built-in default seed.  Reports embed the resolved configuration, the seed
and the rule metadata, so any run can be replayed bit-identically; the
wall-clock field stays null unless --timings is passed, keeping default
reports byte-stable across runs.

Exit codes: 0 success / all checks passed, 1 at least one check failed,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import HballsError
from .extension import boundary_registry, h_extend
from .quadrature import STREAM_SAMPLES, circle_rule, rng_stream, sphere_rule_mc
from .theorems import HarnessConfig, check_rmax, landau_constants, run_suite

REPORT_SCHEMA = "hballs.verify-report/1"
EXTEND_CSV_SCHEMA = "hballs.extend-csv/1"   # columns re(z_k), im(z_k), ..., re(f), im(f)
LANDAU_CSV_SCHEMA = "hballs.landau-csv/1"   # columns n, alpha, M, rho, half_rho, r_lower

DEFAULTS = {
    "n": 1,
    "nodes": 4096,
    "mc_nodes": 200000,
    "rmax": 0.8,
    "samples": 200,
    "trials": 10000,
    "pairs": 2000,
    "alpha": 1.0,
    "m": 1.0,
}


class ConfigError(Exception):
    pass


def default_seed() -> int:
    try:
        return int(os.environ.get("HBALLS_SEED", "0"))
    except ValueError:
        raise ConfigError("HBALLS_SEED must be an integer")


def read_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return values


def resolve(args: argparse.Namespace, file_values: dict, key: str, cast):
    """flag > config file > environment (seed only) > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return cast(file_values[key])
        except ValueError:
            raise ConfigError(f"config key {key}={file_values[key]!r} is not a {cast.__name__}")
    if key == "seed":
        return default_seed()
    return DEFAULTS[key]


def parse_point_list(text: str, n: int, seed: int) -> np.ndarray:
    """Points as 'a+bi,c+di;...' (coords comma-, points semicolon-separated),
    or 'grid:rmin:rmax:count' crossed with 8 seeded directions."""
    if text.startswith("grid:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError("grid spec is grid:rmin:rmax:count")
        try:
            rmin, rmax, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"bad grid spec {text!r}")
        if count < 1 or not 0.0 <= rmin <= rmax < 1.0:
            raise ConfigError(f"bad grid range {text!r}")
        radii = np.linspace(rmin, rmax, count)
        g = rng_stream(seed, STREAM_SAMPLES).standard_normal((8, 2 * n))
        dirs = g[:, :n] + 1j * g[:, n:]
        dirs /= np.linalg.norm(g, axis=1)[:, None]
        return np.concatenate([r * dirs for r in radii], axis=0)
    points = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != n:
            raise ConfigError(f"point {chunk!r} has {len(coords)} coordinates, expected {n}")
        try:
            points.append([complex(c.strip().replace("i", "j")) for c in coords])
        except ValueError:
            raise ConfigError(f"cannot parse point {chunk!r}")
    return np.asarray(points, dtype=complex)


def pick_boundary(label: str, n: int):
    registry = {b.label: b for b in boundary_registry(n)}
    # aliases used on the command line
    registry.setdefault("coord", registry.get("coord1"))
    registry.setdefault("re", registry.get("re1"))
    if label.startswith("const:"):
        from .extension import _constant
        try:
            value = complex(label.split(":", 1)[1].replace("i", "j"))
        except ValueError:
            raise ConfigError(f"bad constant boundary {label!r}")
        return _constant(value, n)
    if label not in registry or registry[label] is None:
        raise ConfigError(f"unknown boundary {label!r}; known: "
                          + ", ".join(sorted(k for k, v in registry.items() if v)))
    return registry[label]


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_extend(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    n = resolve(args, file_values, "n", int)
    nodes = resolve(args, file_values, "nodes", int)
    mc_nodes = resolve(args, file_values, "mc_nodes", int)
    # --nodes names the size of whichever rule the dimension selects
    if n >= 2 and args.mc_nodes is None and "mc_nodes" not in file_values \
            and args.nodes is not None:
        mc_nodes = args.nodes
    seed = resolve(args, file_values, "seed", int)
    rmax = check_rmax(resolve(args, file_values, "rmax", float))
    if args.boundary is None or args.points is None:
        raise ConfigError("extend needs --boundary and --points")
    boundary = pick_boundary(args.boundary, n)
    rule = circle_rule(nodes) if n == 1 else sphere_rule_mc(n, mc_nodes, seed)
    points = parse_point_list(args.points, n, seed)
    values = h_extend(boundary, rule, guard_radius=rmax)(points)
    header = []
    for k in range(n):
        header += [f"re(z_{k + 1})", f"im(z_{k + 1})"]
    header += ["re(f)", "im(f)"]
    rows = []
    for z, value in zip(points, np.atleast_1d(values)):
        row = []
        for c in z:
            row += [c.real, c.imag]
        row += [complex(value).real, complex(value).imag]
        rows.append(row)
    if args.out:
        write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(repr(float(v)) for v in row))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    cfg = HarnessConfig(
        n=resolve(args, file_values, "n", int),
        nodes=resolve(args, file_values, "nodes", int),
        mc_nodes=resolve(args, file_values, "mc_nodes", int),
        seed=resolve(args, file_values, "seed", int),
        rmax=resolve(args, file_values, "rmax", float),
        samples=resolve(args, file_values, "samples", int),
        trials=resolve(args, file_values, "trials", int),
        pairs=resolve(args, file_values, "pairs", int),
        alpha=resolve(args, file_values, "alpha", float),
        bound=resolve(args, file_values, "m", float),
    )
    started = time.monotonic()
    reports = run_suite(args.suite, cfg)
    wall_ms = int(1000 * (time.monotonic() - started))
    passed = sum(1 for rep in reports if rep.passed)
    payload = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": {"suite": args.suite, **cfg.to_dict()},
        "checks": [rep.to_dict() for rep in reports],
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
            "wall_ms": wall_ms if args.timings else None,
        },
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.check_id}: lhs={rep.lhs:.10g} rhs={rep.rhs:.10g} "
              f"margin={rep.margin:.3g}", file=sys.stderr)
    print(f"{passed}/{len(reports)} checks passed ({wall_ms} ms)", file=sys.stderr)
    return 0 if passed == len(reports) else 1


def parse_int_range(text: str) -> list[int]:
    """'1' or '1..4' or '1,2,4'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def cmd_landau(args: argparse.Namespace) -> int:
    ns = parse_int_range(args.n) if args.n is not None else [DEFAULTS["n"]]
    alphas = parse_float_list(args.alpha) if args.alpha is not None else [DEFAULTS["alpha"]]
    bounds = parse_float_list(args.m) if args.m is not None else [DEFAULTS["m"]]
    rows = []
    for n in ns:
        for alpha in alphas:
            for bound in bounds:
                consts = landau_constants(n, alpha, bound)
                rows.append((n, alpha, bound, consts.rho, consts.half_rho, consts.r_lower))
    header = ["n", "alpha", "M", "rho", "half_rho", "r_lower"]
    print(", ".join(header))
    for row in rows:
        n, alpha, bound, rho, half, lower = row
        print(f"{n}, {alpha:g}, {bound:g}, {rho:.10f}, {half:.10f}, {lower:.10f}")
    if args.out:
        write_csv(args.out, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hballs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hballs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key=value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)

    ext = sub.add_parser("extend", parents=[common],
                         help="evaluate the Dirichlet extension at points (CSV)")
    ext.add_argument("--n", type=int, default=None)
    ext.add_argument("--boundary", type=str, default=None,
                     help="const:VALUE | coord | re | fourier | crossprod | bump")
    ext.add_argument("--nodes", type=int, default=None)
    ext.add_argument("--mc-nodes", dest="mc_nodes", type=int, default=None)
    ext.add_argument("--rmax", type=float, default=None)
    ext.add_argument("--points", type=str, default=None,
                     help="'a+bi,c+di;...' or grid:rmin:rmax:count")
    ext.set_defaults(func=cmd_extend)

    ver = sub.add_parser("verify", parents=[common],
                         help="run a check suite and emit a JSON report")
    ver.add_argument("--suite", type=str, required=True,
                     choices=["lemma21", "lemma22", "thm24", "schwarzpick",
                              "lemma33", "lemmaB", "landau", "all"])
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--nodes", type=int, default=None)
    ver.add_argument("--mc-nodes", dest="mc_nodes", type=int, default=None)
    ver.add_argument("--rmax", type=float, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--pairs", type=int, default=None)
    ver.add_argument("--alpha", type=float, default=None)
    ver.add_argument("--m", type=float, default=None, help="sup / norm bound M")
    ver.add_argument("--timings", action="store_true",
                     help="record wall-clock in the report (breaks byte-stability)")
    ver.set_defaults(func=cmd_verify)

    lan = sub.add_parser("landau", parents=[common],
                         help="tabulate univalence-ball constants")
    lan.add_argument("--n", type=str, default=None, help="dimension, range '1..4' or list")
    lan.add_argument("--alpha", type=str, default=None, help="weight(s), comma list")
    lan.add_argument("--m", type=str, default=None, help="norm bound(s) M, comma list")
    lan.set_defaults(func=cmd_landau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HballsError as exc:
        point = getattr(exc, "point", None)
        where = "" if point is None else f" (point {point})"
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
