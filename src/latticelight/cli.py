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

import numpy as np

from . import __version__
from .bilinear import (
    make_uniform_profile,
    maxwell_emergence_report,
    single_point_profile,
    tilt_angle,
)
from .dispersion import (
    DIAGONAL,
    FlightScenario,
    group_velocity_analytic,
    omega,
    tilt_angle_estimate,
    time_of_flight_delta,
)
from .output import write_json, write_table
from .walk import MINUS, PLUS, DegeneratePointError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

SIGNS = {"plus": PLUS, "minus": MINUS}

# Most wavevectors one batched evaluation may take: the dispersion grid
# (points^3, or points along the diagonal) and the tilt directions.  Peak
# traced memory is about 0.6 kB per dispersion wavevector and 0.25 kB per
# tilt direction, so at the cap about 0.6 GB and 0.26 GB.
MAX_WAVEVECTORS = 2**20


class ConfigError(Exception):
    pass


DEFAULTS = {
    "dispersion": {"kmax": 1.0, "points": 5, "diagonal": False, "sign": "minus"},
    "maxwell-convergence": {
        "k": [0.4, 0.3, 0.2],
        "t": 100,
        "base_radius": 4e-4,
        "levels": 5,
        "spacing_factor": 0.5,
        "sign": "minus",
    },
    "fock-suite": {"momenta": 2, "n_max": 3, "conjecture_samples": 50, "sign": "minus"},
    "flight": {
        "distance_m": 3.0857e25,
        "energies": [["GeV", 1e9], ["MeV", 1e6]],
        "sign": "minus",
    },
    "tilt": {"k_values": [0.05, 0.1], "directions": 128, "sign": "minus"},
}

OUT_DEFAULTS = {
    "dispersion": "dispersion.csv",
    "maxwell-convergence": "maxwell_convergence.csv",
    "fock-suite": "fock_suite.json",
    "flight": "flight.csv",
    "tilt": "tilt.csv",
}


def _sign_value(cfg) -> int:
    name = cfg["sign"]
    if name not in SIGNS:
        raise ConfigError(f"sign must be 'plus' or 'minus', got {name!r}")
    return SIGNS[name]


def _finite(key: str, value, ndim: int = 0) -> np.ndarray:
    """The config value as a float array of ``ndim`` dimensions (0: one number, 1: a list).

    Non-numbers, the wrong nesting, NaN and infinity are rejected by key.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be numeric, got {value!r}") from exc
    if array.ndim != ndim:
        raise ConfigError(f"{key} must be {('a number', 'a list of numbers')[ndim]}, got {value!r}")
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return array


def _integer(cfg: dict, key: str) -> int:
    """cfg[key] as an int: bools, non-integral numbers and non-numbers are rejected by key."""
    value = cfg[key]
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _base_header(command: str, cfg: dict, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "config": cfg,
        "seed": seed,
    }


def cmd_dispersion(cfg: dict, out: str, seed: int) -> int:
    kmax = float(_finite("kmax", cfg["kmax"]))
    points = _integer(cfg, "points")
    if points < 1 or kmax <= 0:
        raise ConfigError("dispersion needs points >= 1 and kmax > 0")
    count = points if cfg["diagonal"] else points**3
    if count > MAX_WAVEVECTORS:
        raise ConfigError(
            f"points = {points} asks for {count} wavevectors, over MAX_WAVEVECTORS = {MAX_WAVEVECTORS}"
        )
    if cfg["diagonal"]:
        grid = np.linspace(0.0, kmax, points)[:, None] * DIAGONAL
    else:
        axis = np.linspace(-kmax, kmax, points)
        # x outer, z inner: the row order of the artifact
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    # |v_g| is NaN where the gradient is undefined: sin lam(k/2) < 1e-12
    speeds = [np.linalg.norm(group_velocity_analytic(grid, s), axis=-1) for s in (PLUS, MINUS)]
    rows = np.column_stack([grid, omega(grid, PLUS), omega(grid, MINUS), *speeds])
    write_table(
        out,
        _base_header("dispersion", cfg, seed),
        ["kx", "ky", "kz", "omega_plus", "omega_minus", "vg_plus", "vg_minus"],
        rows,
    )
    return EXIT_OK


def cmd_maxwell_convergence(cfg: dict, out: str, seed: int) -> int:
    k = _finite("k", cfg["k"], ndim=1)
    if k.shape != (3,):
        raise ConfigError("k must be a 3-vector")
    t = _integer(cfg, "t")
    levels = _integer(cfg, "levels")
    base = float(_finite("base_radius", cfg["base_radius"]))
    factor = float(_finite("spacing_factor", cfg["spacing_factor"]))
    if levels < 2 or base <= 0 or not 0 < factor <= 1:
        raise ConfigError("need levels >= 2, base_radius > 0, 0 < spacing_factor <= 1")
    sign = _sign_value(cfg)
    radii = [base * 0.5**i for i in range(levels)]
    try:
        profiles = [single_point_profile()] + [make_uniform_profile(r, r * factor) for r in radii]
    except ValueError as exc:
        raise ConfigError(f"spacing_factor {factor!r} is too small: {exc}") from exc
    reports = [maxwell_emergence_report(profile, k, sign, t) for profile in profiles]
    slope = float(
        np.polyfit(
            np.log([r.qbar for r in reports[1:]]),
            np.log([r.residual_transverse for r in reports[1:]]),
            1,
        )[0]
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
    from . import fock  # here, so that the other subcommands never load the Fock oracle

    n = _integer(cfg, "momenta")
    if not 1 <= n <= 3:
        raise ConfigError("fock-suite supports 1..3 momenta (exhaustive checks)")
    n_max = _integer(cfg, "n_max")
    samples = _integer(cfg, "conjecture_samples")
    for key, value in (("n_max", n_max), ("conjecture_samples", samples)):
        if value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    if n % 2 == 1:
        momenta = list(range(-(n // 2), n - n // 2))
    else:
        momenta = [2 * j + 1 - n for j in range(n)]
    space = fock.build_fock(momenta)
    profiles = fock.available_profiles(momenta)
    rng = np.random.default_rng(seed)
    checks = []

    checks.append(
        {
            "name": "anticommutators",
            "passed": True,
            "detail": f"verified exactly at build for {space.mode_count} modes",
        }
    )

    specs = [(alpha, beta, prof) for alpha in fock.SPINS for beta in fock.SPINS for prof in profiles.values()]
    pair_sweep = fock.pair_commutator_sweep(space, specs)
    checks.append(
        {
            "name": "pair_commutators",
            "passed": bool(pair_sweep.max_assembly_deviation <= 1e-12 and pair_sweep.max_gamma_gamma == 0.0),
            "max_assembly_deviation": pair_sweep.max_assembly_deviation,
            "max_gamma_gamma": pair_sweep.max_gamma_gamma,
            "label_pairs": pair_sweep.label_pairs,
        }
    )

    sweep = fock.schwartz_exhaustive(space, profiles.values())
    checks.append(
        {
            "name": "schwartz_bound",
            "passed": bool(sweep.holds),
            "cases": sweep.cases,
            "states": sweep.states,
            "worst_margin": sweep.worst_margin,
        }
    )

    pol = fock.polarization_boson_check(space, profiles.values())
    checks.append(
        {
            "name": "polarization_modes",
            "passed": bool(pol.vacuum_deviation <= 1e-12),
            "vacuum_deviation": pol.vacuum_deviation,
            "deviation_by_particles": {str(k): v for k, v in pol.deviation_by_particles.items()},
        }
    )

    pairs = fock.default_pairs(space)
    uniform = np.full(len(pairs), 1.0 / math.sqrt(len(pairs)))
    n_max = min(n_max, len(pairs))
    second = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    second -= uniform * np.sum(second * np.conj(uniform))
    second /= np.linalg.norm(second)
    suite = fock.composite_boson_suite(space, pairs, uniform, n_max, second_weights=second)
    stack = fock.pair_stack(space, pairs)
    # random orthonormal pairs: |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2) for N = 1, 2
    sample_n = np.arange(1, min(2, n_max) + 1)
    worst_slack = math.inf
    for _ in range(samples):
        w1 = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        w1 /= np.linalg.norm(w1)
        w2 = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        w2 -= w1 * np.sum(w2 * np.conj(w1))
        w2 /= np.linalg.norm(w2)
        bounds = 2.0 * sample_n * max(fock.purity(w1), fock.purity(w2))
        values = fock.cross_commutator_values(stack, w1, w2, len(sample_n))
        worst_slack = min(worst_slack, float(np.min(bounds - values)))
    checks.append(
        {
            "name": "composite_bosons",
            "passed": bool(
                suite.commutator_identity_deviation <= 1e-12
                and all(r[4] for r in suite.sandwich_rows)
                and suite.cross_identity_deviation <= 1e-12
                and all(r[3] for r in suite.cross_rows)
                and worst_slack >= -1e-12
            ),
            "purity": suite.purity,
            "commutator_identity_deviation": suite.commutator_identity_deviation,
            "sandwich": [list(r) for r in suite.sandwich_rows],
            "saturation_order": suite.saturation_order,
            "conjecture_samples": samples,
            "conjecture_worst_slack": worst_slack,
        }
    )

    passed = all(c["passed"] for c in checks)
    report = {
        "artifact_version": __version__,
        "command": "fock-suite",
        "config": cfg,
        "seed": seed,
        "space": {"momenta": momenta, "modes": space.mode_count, "dimension": space.dim},
        "checks": checks,
        "passed": passed,
    }
    write_json(out, report)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_flight(cfg: dict, out: str, seed: int) -> int:
    energies = cfg["energies"]
    try:
        pairs = tuple((str(label), float(ev)) for label, ev in energies)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"energies must be (label, eV) pairs: {exc}") from exc
    _finite("energies", [ev for _, ev in pairs], ndim=1)
    scenario = FlightScenario(
        distance_m=float(_finite("distance_m", cfg["distance_m"])),
        photon_energies=pairs,
        sign=_sign_value(cfg),
    )
    energy_by_label = dict(pairs)
    rows = [
        [l1, l2, energy_by_label[l1], energy_by_label[l2], k1, k2, delta]
        for l1, l2, k1, k2, delta in time_of_flight_delta(scenario)
    ]
    write_table(
        out,
        _base_header("flight", cfg, seed),
        ["label_1", "label_2", "energy_1_ev", "energy_2_ev", "k_1", "k_2", "delta_seconds"],
        rows,
    )
    return EXIT_OK


def cmd_tilt(cfg: dict, out: str, seed: int) -> int:
    k_values = _finite("k_values", cfg["k_values"], ndim=1)
    n_dirs = _integer(cfg, "directions")
    if n_dirs < 1:
        raise ConfigError("directions must be >= 1")
    if n_dirs > MAX_WAVEVECTORS:
        raise ConfigError(f"directions = {n_dirs} is over MAX_WAVEVECTORS = {MAX_WAVEVECTORS}")
    sign = _sign_value(cfg)
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_dirs, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    rows = []
    for kmag in k_values:
        tilts = tilt_angle(kmag * directions, sign)
        rows.append([kmag, tilts.max(), float(np.mean(tilts)), tilt_angle_estimate(kmag)])
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help=f"output path (default {OUT_DEFAULTS[name]})")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--sign", choices=("plus", "minus"), help="walk chirality branch")
        if name == "dispersion":
            p.add_argument("--kmax", type=float)
            p.add_argument("--points", type=int)
            p.add_argument("--diagonal", action="store_true", default=None)
        elif name == "maxwell-convergence":
            p.add_argument("--k", type=float, nargs=3)
            p.add_argument("--t", type=int)
            p.add_argument("--base-radius", dest="base_radius", type=float)
            p.add_argument("--levels", type=int)
            p.add_argument("--spacing-factor", dest="spacing_factor", type=float)
        elif name == "fock-suite":
            p.add_argument("--momenta", type=int)
            p.add_argument("--n-max", dest="n_max", type=int)
            p.add_argument("--conjecture-samples", dest="conjecture_samples", type=int)
        elif name == "flight":
            p.add_argument("--distance-m", dest="distance_m", type=float)
            p.add_argument(
                "--energies",
                help="comma-separated label=eV pairs, e.g. GeV=1e9,MeV=1e6",
            )
        elif name == "tilt":
            p.add_argument("--k-values", dest="k_values", help="comma-separated magnitudes")
            p.add_argument("--directions", type=int)
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
    cfg = dict(DEFAULTS[command])
    from_file = _load_config(args.config)
    unknown = set(from_file) - set(cfg)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg.update(from_file)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if command == "flight" and isinstance(cfg["energies"], str):
        try:
            cfg["energies"] = [
                [part.split("=")[0], float(part.split("=")[1])]
                for part in cfg["energies"].split(",")
            ]
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"cannot parse --energies: {exc}") from exc
    if command == "tilt" and isinstance(cfg["k_values"], str):
        try:
            cfg["k_values"] = [float(v) for v in cfg["k_values"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --k-values: {exc}") from exc
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args.command, args)
        seed = args.seed if args.seed is not None else 0
        out = args.out if args.out is not None else OUT_DEFAULTS[args.command]
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
