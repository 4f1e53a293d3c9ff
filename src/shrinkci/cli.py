"""Command-line front end: CSV in, CSV out.

Subcommands: ``fit`` (per-unit intervals for a CSV of estimates), ``cva``
(robust critical values), ``curves`` (critical-value curves over a moment
grid), ``simulate`` (Monte Carlo coverage study), ``power`` (average-power
grid).  Exit codes: 0 success, 2 input/schema problem, 3 numeric failure,
4 bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from shrinkci import _csvio
from shrinkci import moments as mom
from shrinkci import pipeline as pl
from shrinkci import simulation as sim
from shrinkci import worstcase as wc

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

WORKERS_ENV = "SHRINKCI_WORKERS"


class SchemaError(Exception):
    """Malformed input file; message names the column and line."""


class ConfigError(Exception):
    """Inconsistent or unparseable configuration."""


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _option_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The subcommand's options by destination name."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions if a.option_strings}


def _apply_config_defaults(args: argparse.Namespace, argv: list[str], actions: dict):
    """Config-file values fill in anything the flags left at default.

    Each value is converted and checked as its flag's value would be, by
    the option's ``type`` and ``choices``.
    """
    if not getattr(args, "config", None):
        return
    values = _read_config_file(args.config)
    given = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"unknown config key {key!r}")
        if key in given:
            continue  # explicit flags win
        try:
            converted = value if action.type is None else action.type(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: invalid value {value!r}") from exc
        if action.choices is not None and converted not in action.choices:
            raise ConfigError(
                f"config key {key!r}: {value!r} is not one of {', '.join(map(str, action.choices))}"
            )
        setattr(args, key, converted)


def _unit_covariates(header: list[str]) -> list[str]:
    """The optional columns of a units CSV: x1..xk by number, then weight."""
    xcols = sorted((c for c in header if c.startswith("x") and c[1:].isdigit()), key=lambda c: int(c[1:]))
    return [*xcols, *(["weight"] if "weight" in header else [])]


def _read_units_csv(path: str) -> mom.Units:
    """Units from a CSV with columns y, se and optionally x1..xk and weight;
    a bad unit's message names its physical line."""
    try:
        names, columns, linenos = _csvio.read_columns(path, ("y", "se"), _unit_covariates, (), SchemaError)
    except OSError as exc:
        raise SchemaError(f"cannot open input file {path}: {exc}") from exc
    y, se, *rest = columns
    if not len(y):
        raise SchemaError(f"{path}: no data rows")
    omega = rest.pop() if names[-1] == "weight" else None
    try:
        return mom.Units(y=y, sigma=se, X=np.column_stack([np.ones(len(y)), *rest]), omega=omega)
    except mom.UnitError as exc:
        raise SchemaError(f"{path}: line {linenos[exc.index]}: {exc}") from exc


def _fmt_array(arr) -> str:
    return ";".join(repr(float(v)) for v in arr)


def cmd_fit(args) -> int:
    if args.nn_j is not None and args.moments != "nn":
        raise ConfigError("--nn-j applies only with --moments nn")
    data = _read_units_csv(args.input)
    if args.nn_j is not None and not 2 <= args.nn_j <= len(data):
        raise ConfigError(f"--nn-j must be in [2, {len(data)}] (the unit count), got {args.nn_j}")
    weights = "record" if np.any(data.omega != 1.0) else args.weights
    res = pl.fit(
        data,
        alpha=args.alpha,
        method=args.method,
        moment_variant=args.moments,
        weights=weights,
        neighbors=args.nn_j,
    )
    est = res.moments
    header = [
        f"alpha={args.alpha}",
        f"method={args.method}",
        f"moments={args.moments}",
        f"mu2={est.mu2!r}",
        f"kappa={est.kappa!r}",
        f"delta={_fmt_array(est.delta)}",
    ]
    if est.neighbors is not None:
        header.append(f"nn_j={est.neighbors}")
    columns = {f.name: getattr(res, f.name) for f in dataclasses.fields(pl.EbciOutput)}
    columns["method"] = np.full(len(data), res.method)
    columns["rule_of_thumb_ok"] = columns["rule_of_thumb_ok"].astype(int)
    _csvio.write_csv(args.output, header, columns)
    return EXIT_OK


def _float(flag: str, text: str) -> float:
    """``float(text)``, or a ConfigError naming ``flag``."""
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a number, got {text!r}") from exc


def _floats(flag: str, text: str) -> list[float]:
    """The comma-separated numbers of ``flag``."""
    return [_float(flag, v) for v in text.split(",") if v]


def cmd_cva(args) -> int:
    m2 = np.array(_floats("--m2", args.m2))
    if not m2.size:
        raise ConfigError("--m2 must list at least one value")
    if not np.all(np.isfinite(m2) & (m2 >= 0)):
        raise ConfigError(f"--m2 values must be finite and >= 0, got {args.m2!r}")
    if not (args.kappa is None or args.kappa >= 1):
        raise ConfigError(f"--kappa must be >= 1, got {args.kappa}")
    kappa = np.full(m2.size, math.inf if args.kappa is None else args.kappa)
    chi = wc.critical_values(m2, kappa, args.alpha)
    columns = {
        "m2": m2,
        "kappa": kappa,
        "cva": chi,
        # the worst case that certified each chi, so at most alpha
        "noncoverage": wc._worst_noncoverage(m2, kappa, chi),
    }
    _csvio.write_csv(args.output, [f"alpha={args.alpha}"], columns)
    return EXIT_OK


def cmd_curves(args) -> int:
    curves = [*_floats("--kappas", args.kappas), math.inf]
    if not all(k >= 1 for k in curves):
        raise ConfigError(f"--kappas values must be >= 1, got {args.kappas!r}")
    for flag, bound in (("--m2-min", args.m2_min), ("--m2-max", args.m2_max)):
        if not 0 < bound < math.inf:
            raise ConfigError(f"{flag} must be finite and > 0, got {bound}")
    m2_grid = np.geomspace(args.m2_min, args.m2_max, args.points)
    m2_grid = np.concatenate([[0.0], m2_grid])
    m2 = np.tile(m2_grid, len(curves))
    kappa = np.repeat(curves, len(m2_grid))
    columns = {
        "m2": m2,
        "kappa": kappa,
        "cva": wc.critical_values(m2, kappa, args.alpha),
        "cva_parametric": wc._z(args.alpha) * np.sqrt(1.0 + m2),
    }
    _csvio.write_csv(args.output, [f"alpha={args.alpha}"], columns)
    return EXIT_OK


def _build_designs(args) -> list:
    snrs = _floats("--snr", args.snr)
    if not all(snr > 0 for snr in snrs):
        raise ConfigError(f"--snr values must be > 0, got {args.snr!r}")
    if args.n < 2:
        raise ConfigError(f"--n must be >= 2, got {args.n}")
    if args.het_input:
        try:
            th, se = sim.load_calibration_csv(args.het_input)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        try:
            return [sim.HeteroskedasticDesign(th, se, snr, n=args.n) for snr in snrs]
        except ValueError as exc:  # too few rows
            raise SchemaError(f"{args.het_input}: {exc}") from exc
    kinds = [k for k in args.theta_kinds.split(",") if k]
    t = math.inf if args.t in ("inf", "oo") else _float("--t", args.t)
    if not (t == math.inf or (t.is_integer() and t >= 2)):
        raise ConfigError(f"--t must be an integer >= 2 or inf, got {args.t!r}")
    return [
        sim.PanelDesign(n=args.n, t=t, err=args.errors, snr=snr, theta=sim.ThetaDistribution(kind, snr, args.alpha))
        for kind in kinds
        for snr in snrs
    ]


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    designs = _build_designs(args)
    methods = [m for m in args.methods.split(",") if m]
    report = sim.run_study(
        designs,
        methods=methods,
        reps=args.reps,
        workers=args.workers,
        master_seed=args.seed,
        alpha=args.alpha,
    )
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    return EXIT_OK


def cmd_power(args) -> int:
    ds = np.linspace(0.0, args.d_max, args.d_steps)
    ws = np.linspace(args.w_min, args.w_max, args.w_steps)
    results = [pl.average_power(ds, float(w), args.alpha) for w in ws]
    robust = np.array([r for r, _ in results]).ravel()
    ztest = np.array([zt for _, zt in results]).ravel()
    columns = {
        "d": np.tile(ds, len(ws)),
        "w_eb": np.repeat(ws, len(ds)),
        "power_robust": robust,
        "power_ztest": ztest,
        "power_difference": robust - ztest,
    }
    _csvio.write_csv(
        args.output,
        [f"alpha={args.alpha}", "power of robust-interval test vs z-test"],
        columns,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkci",
        description="Robust empirical Bayes confidence intervals for normal-means data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input):
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--config", default=None, help="key=value file; flags win")
        p.add_argument("--output", required=True)
        if needs_input:
            p.add_argument("--input", required=True)

    p_fit = sub.add_parser("fit", help="shrink a CSV of estimates and attach intervals")
    common(p_fit, needs_input=True)
    p_fit.add_argument("--method", default="robust_mu2_kappa", choices=pl.METHODS)
    p_fit.add_argument("--weights", default="uniform", choices=["uniform", "inverse_variance"])
    p_fit.add_argument("--moments", default="pmt", choices=["uc", "pmt", "fplib", "nn"])
    p_fit.add_argument("--nn-j", type=int, default=None, help="neighbor count for --moments nn")
    p_fit.set_defaults(func=cmd_fit)

    p_cva = sub.add_parser("cva", help="robust critical values for given moments")
    common(p_cva, needs_input=False)
    p_cva.add_argument("--m2", required=True, help="comma-separated second moments")
    p_cva.add_argument("--kappa", type=float, default=None)
    p_cva.set_defaults(func=cmd_cva)

    p_curves = sub.add_parser("curves", help="critical-value curves over a moment grid")
    common(p_curves, needs_input=False)
    p_curves.add_argument("--m2-min", type=float, default=0.01)
    p_curves.add_argument("--m2-max", type=float, default=100.0)
    p_curves.add_argument("--points", type=int, default=60)
    p_curves.add_argument("--kappas", default="3,10", help="comma-separated kurtosis values, inf for none")
    p_curves.set_defaults(func=cmd_curves)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    common(p_sim, needs_input=False)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--n", type=int, default=100)
    p_sim.add_argument("--t", default="inf", help="panel length or 'inf'")
    p_sim.add_argument("--errors", default="normal", choices=["normal", "chi2"])
    p_sim.add_argument("--snr", default="0.1,0.5,1,2")
    p_sim.add_argument("--theta-kinds", default=",".join(sim.THETA_KINDS))
    p_sim.add_argument("--methods", default=",".join(sim.SIM_METHODS))
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--het-input", default=None, help="CSV of theta_hat,se for the heteroskedastic design")
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="average power grid for interval-based tests")
    common(p_pow, needs_input=False)
    p_pow.add_argument("--d-max", type=float, default=4.0)
    p_pow.add_argument("--d-steps", type=int, default=41)
    p_pow.add_argument("--w-min", type=float, default=0.05)
    p_pow.add_argument("--w-max", type=float, default=0.95)
    p_pow.add_argument("--w-steps", type=int, default=19)
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        _apply_config_defaults(args, argv, _option_actions(parser, args.command))
        if not 0.0 < args.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {args.alpha}")
        if getattr(args, "workers", None) is None and hasattr(args, "workers"):
            args.workers = int(os.environ.get(WORKERS_ENV, "1"))
        return args.func(args)
    except (SchemaError, mom.RankDeficientError, OSError) as exc:
        print(f"shrinkci: input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConfigError as exc:
        print(f"shrinkci: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"shrinkci: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
