"""Command-line surface for the verification harness.

Usage:
    hballs extend --n 1 --boundary re --nodes 4096 --points 0.5+0i --out f.csv
    hballs extend --n 1 --boundary const:1 --points grid:0.1:0.7:8 --out f.csv
    hballs verify --suite all --seed 1 --out report.json
    hballs verify --suite lemmaB --samples 10000 --seed 7
    hballs landau --n 1..4 --alpha 1 --m 1 --out landau.csv

Configuration precedence is command-line flags, then a --config file of
key=value lines, then the defaults of HarnessConfig: n=1, nodes=4096,
mc_nodes=200000, seed=0, rmax=0.8, samples=200, pairs=2000, alpha=1, m=1
(the norm bound M).  samples also sizes lemma22's random Wirtinger pair
stack and lemmaB's random matrix stacks.  rmax is extend's guard radius,
and the guard and sampling radius of the schwarzpick and lemma33 suites;
lemma21 and thm24 sample fixed radii under the default guard 0.8.
HBALLS_SEED replaces only the default seed.  extend and verify resolve and
check the same configuration and take --seed; landau takes n, alpha and m
from --config unless its flags list them.
Reports embed it, the seed and the rule metadata, so any run can be
replayed bit-identically; the wall-clock field stays null unless --timings
is passed, keeping default reports byte-stable across runs.

Exit codes: 0 success / all checks passed, 1 at least one check failed,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import HballsError
from .extension import boundary_registry, h_extend
from .quadrature import STREAM_SAMPLES, rng_stream, sphere_points
from .theorems import SUITES, HarnessConfig, landau_constants, rule_for, run_suite

REPORT_SCHEMA = "hballs.verify-report/1"


class ConfigError(Exception):
    pass


def env_seed() -> int:
    try:
        return int(os.environ["HBALLS_SEED"])
    except ValueError:
        raise ConfigError("HBALLS_SEED must be an integer")


def read_config_file(path) -> dict:
    """key=value lines; blank lines and #-comments ignored.  No path, no values."""
    values = {}
    if not path:
        return values
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


def resolve_config(args: argparse.Namespace, file_values: dict) -> HarnessConfig:
    """Each HarnessConfig field from its flag, else the config file, else
    HBALLS_SEED (seed only), else the field default.  File values are cast
    to the type of the default; a file key that names no field is refused."""
    known = [field.name for field in dataclasses.fields(HarnessConfig)]
    for key in file_values:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(known)}")
    values = {}
    for field in dataclasses.fields(HarnessConfig):
        key = field.name
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
        elif key in file_values:
            cast = type(field.default)
            try:
                values[key] = cast(file_values[key])
            except ValueError:
                raise ConfigError(f"config key {key}={file_values[key]!r} is not a {cast.__name__}")
        elif key == "seed" and "HBALLS_SEED" in os.environ:
            values[key] = env_seed()
    return HarnessConfig(**values)


def parse_complex(text: str) -> complex:
    """A number such as 0.5-2i, inf or nan+1i; only a trailing i is the unit."""
    text = text.strip()
    return complex(text[:-1] + "j" if text.endswith("i") else text)


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
        dirs = sphere_points(rng_stream(seed, STREAM_SAMPLES), 8, n)
        return np.concatenate([r * dirs for r in radii], axis=0)
    points = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != n:
            raise ConfigError(f"point {chunk!r} has {len(coords)} coordinates, expected {n}")
        try:
            points.append([parse_complex(c) for c in coords])
        except ValueError:
            raise ConfigError(f"cannot parse point {chunk!r}")
    return np.asarray(points, dtype=complex)


def pick_boundary(label: str, n: int):
    registry = {b.label: b for b in boundary_registry(n)}
    # aliases used on the command line
    registry["coord"] = registry["coord1"]
    registry["re"] = registry["re1"]
    if label.startswith("const:"):
        from .extension import _constant
        try:
            value = parse_complex(label.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad constant boundary {label!r}")
        return _constant(value, n)
    if label not in registry:
        raise ConfigError(f"unknown boundary {label!r}; known: " + ", ".join(sorted(registry)))
    return registry[label]


def check_writable(path) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work.

    The file is opened for appending, so an existing one keeps its bytes, and
    one the probe created is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}")


def emit(path, text: str) -> None:
    """Write ``text`` to the file ``path`` (LF line endings), or to stdout."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    emit(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_extend(args: argparse.Namespace) -> int:
    file_values = read_config_file(args.config)
    cfg = resolve_config(args, file_values)
    if args.out:
        check_writable(args.out)
    # nodes, from flag or file, sizes whichever rule the dimension selects
    def is_set(key):
        return getattr(args, key) is not None or key in file_values
    if cfg.n >= 2 and is_set("nodes") and not is_set("mc_nodes"):
        cfg = dataclasses.replace(cfg, mc_nodes=cfg.nodes)
    if args.boundary is None or args.points is None:
        raise ConfigError("extend needs --boundary and --points")
    boundary = pick_boundary(args.boundary, cfg.n)
    points = parse_point_list(args.points, cfg.n, cfg.seed)
    values = h_extend(boundary, rule_for(cfg), guard_radius=cfg.rmax)(points)
    header = [f"{part}(z_{k + 1})" for k in range(cfg.n) for part in ("re", "im")]
    rows = [[x for c in (*z, complex(value)) for x in (c.real, c.imag)]
            for z, value in zip(points, np.atleast_1d(values))]
    write_csv(args.out, header + ["re(f)", "im(f)"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, read_config_file(args.config))
    if args.out:
        check_writable(args.out)
    started = time.monotonic()
    reports = run_suite(args.suite, cfg)
    wall_ms = int(1000 * (time.monotonic() - started))
    passed = sum(1 for rep in reports if rep.passed)
    payload = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": {"suite": args.suite, **dataclasses.asdict(cfg)},
        "checks": [rep.to_dict() for rep in reports],
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
            "wall_ms": wall_ms if args.timings else None,
        },
    }
    emit(args.out, json.dumps(payload, indent=2) + "\n")
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.check_id}: lhs={rep.lhs:.10g} rhs={rep.rhs:.10g} "
              f"margin={rep.margin:.3g}", file=sys.stderr)
    print(f"{passed}/{len(reports)} checks passed ({wall_ms} ms)", file=sys.stderr)
    return 0 if passed == len(reports) else 1


def parse_int_range(text: str) -> list[int]:
    """'1' or '1..4' or '1,2,4'; an empty range ('4..1') is refused."""
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad integer range or list {text!r}")
    if not values:
        raise ConfigError(f"empty range {text!r}")
    return values


def parse_float_list(text: str, flag: str) -> list[float]:
    """'1' or '0.5,1,2'; a token that is not a number is refused by its flag."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of numbers, got {text!r}")


def cmd_landau(args: argparse.Namespace) -> int:
    default = resolve_config(argparse.Namespace(), read_config_file(args.config))
    ns = parse_int_range(args.n) if args.n is not None else [default.n]
    alphas = parse_float_list(args.alpha, "--alpha") if args.alpha is not None else [default.alpha]
    bounds = parse_float_list(args.m, "--m") if args.m is not None else [default.m]
    if args.out:
        check_writable(args.out)
    rows = []
    for n in ns:
        for alpha in alphas:
            for bound in bounds:
                consts = landau_constants(n, alpha, bound)
                rows.append((n, alpha, bound, consts.rho, consts.half_rho, consts.r_lower))
    header = ["n", "alpha", "M", "rho", "half_rho", "r_lower"]
    print(", ".join(header))
    for n, alpha, bound, rho, half, lower in rows:
        print(f"{n}, {alpha:g}, {bound:g}, {rho:.10f}, {half:.10f}, {lower:.10f}")
    if args.out:
        write_csv(args.out, header, rows)
    return 0


EXTEND_FIELDS = ("n", "nodes", "mc_nodes", "seed", "rmax")   # the HarnessConfig fields extend reads


def add_config_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """One flag per HarnessConfig field (those in ``names``, else all):
    --mc-nodes for mc_nodes, typed as the field's default, None when absent."""
    for field in dataclasses.fields(HarnessConfig):
        if names is None or field.name in names:
            parser.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                                type=type(field.default), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hballs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hballs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key=value config file")
    common.add_argument("--out", type=str, default=None)

    ext = sub.add_parser("extend", parents=[common],
                         help="evaluate the Dirichlet extension at points (CSV)")
    add_config_flags(ext, EXTEND_FIELDS)
    ext.add_argument("--boundary", type=str, default=None,
                     help="const:VALUE | coord | re | fourier | crossprod | bump")
    ext.add_argument("--points", type=str, default=None,
                     help="'a+bi,c+di;...' or grid:rmin:rmax:count")
    ext.set_defaults(func=cmd_extend)

    ver = sub.add_parser("verify", parents=[common],
                         help="run a check suite and emit a JSON report")
    ver.add_argument("--suite", type=str, required=True,
                     choices=[*SUITES, "all"])
    add_config_flags(ver)
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
