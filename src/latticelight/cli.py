"""Command-line front end: sweeps, convergence studies, oracle suites, tables.

Subcommands: dispersion, maxwell-convergence, fock-suite, flight, tilt.
Configuration comes from an optional JSON file (--config) overridden by
explicit flags; the effective configuration and seed are echoed into every
output header, and identical configurations reproduce byte-identical files.

Exit codes: 0 success, 1 a suite check failed, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import MAX_STEPS, MINUS, PLUS, DegeneratePointError, __version__  # the engines load in the handlers
from .output import write_json, write_table

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

SIGNS = {"plus": PLUS, "minus": MINUS}

# Most wavevectors one run may take: the dispersion grid (points^3, or points
# along the diagonal), streamed one row at a time, and the tilt directions,
# held as 3 doubles each and evaluated one at a time (about 60 MB at the cap).
MAX_WAVEVECTORS = 2**20
# Largest dispersion kmax and tilt k value: past about 9e307 the grid spacing
# 2 kmax / (points - 1) and the tilt estimate 2k overflow to inf.
MAX_KMAX = 1e300


class ConfigError(Exception):
    pass


class Bounds:
    """A key's range: low <= value (low < value if strict), and value <= high unless high is None."""

    def __init__(self, low, high=None, strict=False):
        self.low, self.high, self.strict = low, high, strict

    def check(self, key: str, value):
        """``value``, each entry of it if it is a list, inside the range; else a ConfigError in the one range form."""
        for v in value if isinstance(value, list) else [value]:
            if (v <= self.low if self.strict else v < self.low) or (self.high is not None and v > self.high):
                raise ConfigError(f"{key} must be {self}, got {v!r}")
        return value

    def __str__(self) -> str:  # the range text of the error message and the README: >= 1, > 0, in 1..3, in (0, 1]
        if self.high is None:
            return f"{'>' if self.strict else '>='} {self.low}"
        return f"in ({self.low}, {self.high}]" if self.strict else f"in {self.low}..{self.high}"


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be numeric, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    """Bools, non-integral numbers and non-numbers are rejected; an integral float such as 2.0 reads as 2."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _vector(key: str, value) -> list:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key} must be a 3-vector, got {value!r}")
    return [_number(key, v) for v in value]


def _numbers(key: str, value) -> list:
    """A non-empty list of finite numbers; the flag's form is comma-separated text."""
    if isinstance(value, str):
        try:
            value = [float(part) for part in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --{key.replace('_', '-')}: {exc}") from exc
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list of numbers, got {value!r}")
    return [_number(key, v) for v in value]


def _bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _sign(key: str, value) -> str:
    if not isinstance(value, str) or value not in SIGNS:
        raise ConfigError(f"{key} must be 'plus' or 'minus', got {value!r}")
    return value


def _energies(key: str, value) -> list:
    """At least two [label, eV] pairs with eV > 0; the flag's form is label=eV,label=eV."""
    if isinstance(value, str):
        try:
            value = [[label, float(ev)] for label, ev in (part.split("=") for part in value.split(","))]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --{key}: {exc}") from exc
    if not isinstance(value, list) or len(value) < 2 or not all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) for pair in value
    ):
        raise ConfigError(f"{key} must be at least two (label, eV) pairs, got {value!r}")
    pairs = [[label, _number(key, ev)] for label, ev in value]
    for label, ev in pairs:
        if ev <= 0.0:
            raise ConfigError(f"{key} must be > 0 eV, got {ev!r} for {label!r}")
    return pairs


# A reader is (check, flag): check(key, value) returns the checked value or
# raises ConfigError naming the key; flag holds the argparse keywords of --key.
NUMBER = (_number, {"type": float})
INTEGER = (_integer, {"type": int})
VECTOR = (_vector, {"type": float, "nargs": 3})
NUMBERS = (_numbers, {"help": "comma-separated numbers"})
BOOL = (_bool, {"action": argparse.BooleanOptionalAction, "default": None})
SIGN = (_sign, {"choices": tuple(SIGNS), "help": "walk chirality branch"})
ENERGIES = (_energies, {"help": "comma-separated label=eV pairs, e.g. GeV=1e9,MeV=1e6"})

POSITIVE = Bounds(0, strict=True)

# command -> (default output path, {key: (default, reader) or (default, reader, bounds)}).
# _effective_config checks each value's bounds right after its reader, in key
# order; checks that span keys or depend on the work stay in the handlers.
SCHEMA = {
    "dispersion": (
        "dispersion.csv",
        {"points": (5, INTEGER, Bounds(1)), "kmax": (1.0, NUMBER, Bounds(0, MAX_KMAX, strict=True)),
         "diagonal": (False, BOOL)},
    ),
    "maxwell-convergence": (
        "maxwell_convergence.csv",
        {
            "sign": ("minus", SIGN),
            "k": ([0.4, 0.3, 0.2], VECTOR),
            "t": (100, INTEGER, Bounds(1, MAX_STEPS)),  # at t = 0 every residual is 0: no log-log slope
            "base_radius": (4e-4, NUMBER, POSITIVE),
            "levels": (5, INTEGER, Bounds(2)),
            "spacing_factor": (0.5, NUMBER, Bounds(0, 1, strict=True)),
        },
    ),
    "fock-suite": (
        "fock_suite.json",
        {
            "sign": ("minus", SIGN),
            "momenta": (2, INTEGER, Bounds(1, 16)),
            "n_max": (3, INTEGER, Bounds(1)),
            "conjecture_samples": (50, INTEGER, Bounds(1)),
        },
    ),
    "flight": (
        "flight.csv",
        {
            "sign": ("minus", SIGN),
            "distance_m": (3.0857e25, NUMBER, POSITIVE),
            "energies": ([["GeV", 1e9], ["MeV", 1e6]], ENERGIES),
        },
    ),
    "tilt": (
        "tilt.csv",
        {"sign": ("minus", SIGN), "k_values": ([0.05, 0.1], NUMBERS, Bounds(0, MAX_KMAX)),
         "directions": (128, INTEGER, Bounds(1, MAX_WAVEVECTORS))},
    ),
}


def _base_header(command: str, cfg: dict, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "config": cfg,
        "seed": seed,
    }


def cmd_dispersion(cfg: dict, out: str, seed: int) -> int:
    from .dispersion import branches, grid
    points = cfg["points"]
    count = points if cfg["diagonal"] else points**3
    if count > MAX_WAVEVECTORS:
        raise ConfigError(f"points = {points} asks for {count} wavevectors, over MAX_WAVEVECTORS = {MAX_WAVEVECTORS}")
    nan_rows = 0

    def rows():  # streamed: no table is held
        nonlocal nan_rows
        for row in map(branches, grid(cfg["kmax"], points, cfg["diagonal"])):
            nan_rows += row[5] != row[5] or row[6] != row[6]
            yield row

    columns = ["kx", "ky", "kz", "omega_plus", "omega_minus", "vg_plus", "vg_minus"]
    write_table(out, _base_header("dispersion", cfg, seed), columns, rows())
    print(f"note: {nan_rows} of {count} rows have a NaN group speed, where sin lam(k/2) < 1e-12", file=sys.stderr)
    return EXIT_OK


def _slope(xs, ys) -> float:
    """Least-squares slope of the line through the points (xs[i], ys[i])."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def cmd_maxwell_convergence(cfg: dict, out: str, seed: int) -> int:
    from .bilinear import make_uniform_profile, maxwell_emergence_report, single_point_profile
    t, levels, base, factor = cfg["t"], cfg["levels"], cfg["base_radius"], cfg["spacing_factor"]
    # checked before any level is built: a residual is about its qbar, and step powers round to
    # 1e-15 (1 + t) for t up to MAX_STEPS, so the last radius stays ten times above that
    floor = 1e-14 * (1 + t)
    if math.ldexp(base, 1 - levels) < floor:
        raise ConfigError(f"levels = {levels} halves base_radius below the residual rounding floor {floor:.3g}")
    sign = SIGNS[cfg["sign"]]

    def level(radius):  # one profile at a time: a level's profile is freed before the next is built
        try:
            profile = make_uniform_profile(radius, radius * factor)
        except ValueError as exc:
            raise ConfigError(f"spacing_factor {factor!r} is too small: {exc}") from exc
        return maxwell_emergence_report(profile, cfg["k"], sign, t)

    reports = [maxwell_emergence_report(single_point_profile(), cfg["k"], sign, t)]
    reports += [level(base * 0.5**i) for i in range(levels)]
    slope = _slope([math.log(r.qbar) for r in reports[1:]], [math.log(r.residual_transverse) for r in reports[1:]])
    if t * reports[1].qbar >= 1.0:
        print(
            f"note: t * qbar = {t * reports[1].qbar:.3g} at the largest radius; the fitted slope measures the"
            " O(qbar/|n|) law only while this is well below 1",
            file=sys.stderr,
        )
    header = _base_header("maxwell-convergence", cfg, seed)
    header["fitted_residual_slope"] = slope
    write_table(
        out,
        header,
        ["qbar", "residual", "tilt_angle", "axis_angle_to_k"],
        [
            [r.qbar, r.residual_transverse, r.tilt_angle, r.axis_angle_to_k]
            for r in reports
        ],
    )
    return EXIT_OK


def cmd_fock_suite(cfg: dict, out: str, seed: int) -> int:
    from .onebody import fock_suite
    report = _base_header("fock-suite", cfg, seed)
    report.update(fock_suite(cfg["momenta"], cfg["n_max"], cfg["conjecture_samples"], seed))
    write_json(out, report)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_flight(cfg: dict, out: str, seed: int) -> int:
    from .dispersion import time_of_flight_delta
    rows = time_of_flight_delta(cfg["distance_m"], cfg["energies"], SIGNS[cfg["sign"]])
    write_table(
        out,
        _base_header("flight", cfg, seed),
        ["label_1", "label_2", "energy_1_ev", "energy_2_ev", "k_1", "k_2", "delta_seconds"],
        rows,
    )
    return EXIT_OK


def cmd_tilt(cfg: dict, out: str, seed: int) -> int:
    from array import array

    from .bilinear import tilt_angle
    from .dispersion import tilt_angle_estimate
    from .normal import standard_normal
    sign = SIGNS[cfg["sign"]]
    draws = standard_normal(seed, 3 * cfg["directions"])  # numpy's default_rng(seed).standard_normal((n, 3))

    def directions():  # each row over its norm, summed in np.linalg.norm's order
        for x, y, z in zip(*[iter(draws)] * 3):
            norm = math.sqrt(x * x + y * y + z * z)
            yield x / norm, y / norm, z / norm

    rows = []
    for kmag in cfg["k_values"]:
        tilts = array("d", (tilt_angle((kmag * x, kmag * y, kmag * z), sign) for x, y, z in directions()))
        rows.append([kmag, max(tilts), math.fsum(tilts) / len(tilts), tilt_angle_estimate(kmag)])
    write_table(
        out,
        _base_header("tilt", cfg, seed),
        ["k", "tilt_exact_max", "tilt_exact_mean", "estimate_2k"],
        rows,
    )
    return EXIT_OK


COMMANDS = {
    "dispersion": cmd_dispersion,
    "maxwell-convergence": cmd_maxwell_convergence,
    "fock-suite": cmd_fock_suite,
    "flight": cmd_flight,
    "tilt": cmd_tilt,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticelight",
        description="Sweeps and oracle suites for the BCC Weyl-walk theory of light",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (out, keys) in SCHEMA.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help=f"output path (default {out})")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        for key, (_, (_, flag), *_) in keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
    return parser


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    return loaded


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    """Each key's flag, else its config-file value, else its default, through the key's reader and bounds."""
    keys = SCHEMA[command][1]
    from_file = _load_config(args.config)
    unknown = set(from_file) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {}
    for key, (default, (check, _), *bounds) in keys.items():
        flag = getattr(args, key)
        cfg[key] = check(key, flag if flag is not None else from_file.get(key, default))
        if bounds:
            bounds[0].check(key, cfg[key])
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args.command, args)
        seed = Bounds(0).check("seed", args.seed if args.seed is not None else 0)
        out = args.out if args.out is not None else SCHEMA[args.command][0]
        return COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegeneratePointError as exc:
        print(f"error: degenerate wavevector: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
