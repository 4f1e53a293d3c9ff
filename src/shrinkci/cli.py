"""Command-line front end: CSV in, CSV out.

Subcommands: ``fit`` (per-unit intervals for a CSV of estimates), ``cva``
(robust critical values), ``curves`` (critical-value curves over a moment
grid), ``simulate`` (Monte Carlo coverage study), ``power`` (average-power
grid).  Exit codes: 0 success, 2 input/schema problem, 3 numeric failure,
4 bad configuration (a usage error or a rejected option value, from any source).
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


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's ``key=value`` lines as ``--key=value`` flags.

    A key must name one of the command's options in full (``nn_j`` or
    ``nn-j``), so argparse's prefix matching never reaches it.
    """
    flags = []
    try:
        with open(args.config, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                dest = key.replace("-", "_")
                if dest not in vars(args) or dest in ("command", "func", "config"):
                    raise ConfigError(f"unknown config key {key!r}")
                flags.append(f"--{dest.replace('_', '-')}={value}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return flags


class _Parser(argparse.ArgumentParser):
    """A usage error, or a value its option's ``type`` or ``choices``
    rejects, raises ConfigError (exit 4) where argparse would exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _checked(convert, rule: str, ok, listed: bool = False, empty: bool = False):
    """An argparse ``type``: ``convert(text)``, rejected unless ``ok`` holds.

    With ``listed``, the list of its comma-separated values, each checked
    so (none at all only if ``empty``); a rejected one is shown as given.
    """

    def one(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {repr(text) if listed else value}")
        return value

    def many(text: str) -> list:
        values = [one(v) for v in text.split(",") if v]
        if not (values or empty):
            raise argparse.ArgumentTypeError("must list at least one value")
        return values

    return many if listed else one


def _ints(low: int):
    return _checked(int, f"an integer >= {low}", lambda v: v >= low)


def _panel_length(text: str) -> float:
    """``--t``: an integer >= 2, or inf (also ``oo``)."""
    try:
        t = math.inf if text == "oo" else float(text)
    except ValueError:
        t = math.nan
    if not (t == math.inf or (t.is_integer() and t >= 2)):
        raise argparse.ArgumentTypeError(f"must be an integer >= 2 or inf, got {text!r}")
    return t


_PROBABILITY = ("in (0, 1)", lambda v: 0.0 < v < 1.0)
_POSITIVE = ("finite and > 0", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = ("finite and >= 0", lambda v: 0.0 <= v < math.inf)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1.0)


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


def cmd_cva(args) -> int:
    m2 = np.array(args.m2)
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
    curves = [*args.kappas, math.inf]
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
    if args.het_input:
        try:
            th, se = sim.load_calibration_csv(args.het_input)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        try:
            return [sim.HeteroskedasticDesign(th, se, snr, n=args.n) for snr in args.snr]
        except ValueError as exc:  # too few rows
            raise SchemaError(f"{args.het_input}: {exc}") from exc
    return [
        sim.PanelDesign(n=args.n, t=args.t, err=args.errors, snr=snr, theta=sim.ThetaDistribution(kind, snr, args.alpha))
        for kind in args.theta_kinds
        for snr in args.snr
    ]


def cmd_simulate(args) -> int:
    report = sim.run_study(
        _build_designs(args),
        methods=args.methods,
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
    """The command-line parser.  Each option's ``type`` and ``choices`` check a flag,
    a ``--config`` key and the ``SHRINKCI_WORKERS`` default alike."""
    parser = _Parser(
        prog="shrinkci",
        description="Robust empirical Bayes confidence intervals for normal-means data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    probability = _checked(float, *_PROBABILITY)

    def common(p, needs_input):
        p.add_argument("--alpha", type=probability, default=0.05)
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
    m2 = _checked(float, *_NONNEGATIVE, listed=True)
    p_cva.add_argument("--m2", required=True, type=m2, help="comma-separated second moments")
    p_cva.add_argument("--kappa", type=_checked(float, *_AT_LEAST_1), default=None)
    p_cva.set_defaults(func=cmd_cva)

    p_curves = sub.add_parser("curves", help="critical-value curves over a moment grid")
    common(p_curves, needs_input=False)
    p_curves.add_argument("--m2-min", type=_checked(float, *_POSITIVE), default=0.01)
    p_curves.add_argument("--m2-max", type=_checked(float, *_POSITIVE), default=100.0)
    p_curves.add_argument("--points", type=_ints(1), default=60)
    kappas = _checked(float, *_AT_LEAST_1, listed=True, empty=True)
    p_curves.add_argument("--kappas", type=kappas, default="3,10", help="comma-separated kurtosis values, inf for none")
    p_curves.set_defaults(func=cmd_curves)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    common(p_sim, needs_input=False)
    p_sim.add_argument("--reps", type=_ints(1), default=1000)
    p_sim.add_argument("--n", type=_ints(2), default=100)
    p_sim.add_argument("--t", type=_panel_length, default="inf", help="panel length or 'inf'")
    p_sim.add_argument("--errors", default="normal", choices=["normal", "chi2"])
    p_sim.add_argument("--snr", type=_checked(float, *_POSITIVE, listed=True), default="0.1,0.5,1,2")
    for flag, names in (("--theta-kinds", sim.THETA_KINDS), ("--methods", sim.SIM_METHODS)):
        one_of = _checked(str, f"one of {', '.join(names)}", names.__contains__, listed=True)
        p_sim.add_argument(flag, type=one_of, default=",".join(names))
    p_sim.add_argument("--seed", type=_ints(0), default=0)
    workers = _checked(int, f"an integer >= 1 (default ${WORKERS_ENV}, else 1)", lambda v: v >= 1)
    p_sim.add_argument("--workers", type=workers, default=os.environ.get(WORKERS_ENV, "1"))
    p_sim.add_argument("--het-input", default=None, help="CSV of theta_hat,se for the heteroskedastic design")
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="average power grid for interval-based tests")
    common(p_pow, needs_input=False)
    p_pow.add_argument("--d-max", type=_checked(float, *_NONNEGATIVE), default=4.0)
    p_pow.add_argument("--d-steps", type=_ints(1), default=41)
    p_pow.add_argument("--w-min", type=probability, default=0.05)
    p_pow.add_argument("--w-max", type=probability, default=0.95)
    p_pow.add_argument("--w-steps", type=_ints(1), default=19)
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's keys go first: a flag given on the command line wins
            try:
                args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
            except ConfigError as exc:  # the command line itself parsed above
                raise ConfigError(f"{args.config}: {exc}") from None
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
