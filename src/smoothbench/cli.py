"""Command-line interface.

Subcommands: ingest, normalize, smooth, calibrate, benchmark, regress,
report.  Exit codes: 0 success, 1 input/usage error (including an input file
that cannot be read), 2 any other failure.

Option resolution order is explicit flag > config file (--config, JSON with
keys equal to long flag names) > environment (SMOOTHBENCH_SEED for the seed)
> built-in default.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import __version__
from .calibration import DESK_BUDGET, PAPER_BUDGET, GaConfig, calibrate
from .csvio import (
    UnitConfig,
    fmt,
    open_input,
    read_biomarker_table,
    read_series_csv,
    read_surveillance_csv,
    write_surveillance_csv,
    write_table,
)
from .errors import InputError, NonParametricMethod
from .normalization import REFERENCE_NH4_LOADS, normalize_series
from .pipeline import PipelineConfig, run_benchmark
from .regression import fit_linear, join_load_incidence
from .reportio import read_reports, write_reports
from .smoothers import (
    PARAM_SPECS,
    PARAMETRIC_METHODS,
    MethodId,
    apply_smoother,
    make_spec,
)
from .timeseries import Sample, TimeSeries, build_series, impute_linear

DEFAULT_SEED = 42
_FIELD_MAP = {
    "virus": "c_virus",
    "nh4": "c_nh4",
    "flow": "q_flow",
    "cases": "active_cases",
    "incidence": "incidence_7d",
}


def _method_help() -> str:
    lines = ["method codes and parameters:"]
    for m in MethodId:
        specs = PARAM_SPECS[m]
        if not specs:
            desc = "(parameter-less)"
        else:
            parts = []
            for b in specs:
                kind = "odd" if b.odd else ("int" if b.integer else "real")
                parts.append(f"{b.name} {kind}[{b.lo:g},{b.hi:g}]")
            desc = ", ".join(parts)
        lines.append(f"  {m.value:4s} {desc}")
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file (keys = flag names)")
    parser.add_argument("--virus-unit", choices=("copies_per_ml", "copies_per_l"), default=None)
    parser.add_argument("--flow-unit", choices=("m3_per_d", "l_per_d"), default=None)
    parser.add_argument("--nh4-unit", choices=("mg_per_l", "g_per_l"), default=None)


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument(
        "--ga-pop", type=int, default=None, help=f"GA population size (default {DESK_BUDGET[0]})"
    )
    parser.add_argument(
        "--ga-iters", type=int, default=None, help=f"GA generations (default {DESK_BUDGET[1]})"
    )
    parser.add_argument(
        "--objective", choices=("aic", "mae", "combined"), default=None, help="GA objective"
    )
    parser.add_argument("--patience", type=int, default=None, help="stop after N stagnant generations")
    parser.add_argument(
        "--paper-fidelity",
        action="store_true",
        help="use the full-fidelity GA budget "
        f"(population {PAPER_BUDGET[0]}, {PAPER_BUDGET[1]} iterations)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothbench",
        description="Benchmark smoothing methods for wastewater surveillance time series.",
        epilog=_method_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"smoothbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a surveillance CSV and echo it canonically")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser("normalize", help="emit the NH4-normalized per-capita load series")
    p.add_argument("--input", required=True)
    p.add_argument("--site", default=None)
    p.add_argument("--f-nh4", type=float, default=None, help="specific NH4 load in g/person/day")
    p.add_argument("--load-table", default=None, help="biomarker load table CSV")
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser(
        "smooth",
        help="apply one method with explicit parameters",
        epilog=_method_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--method", required=True, help="method code (see below)")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="method parameter (repeatable)",
    )
    p.add_argument("--input", required=True, help="series CSV (date,value) or surveillance CSV")
    p.add_argument("--field", choices=sorted(_FIELD_MAP), default="virus")
    p.add_argument("--site", default=None)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser(
        "calibrate",
        help="GA-calibrate one method's parameters",
        epilog=_method_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--method", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--field", choices=sorted(_FIELD_MAP), default="virus")
    p.add_argument("--site", default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--ga-seed", type=int, default=None, help="override the GA seed")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("benchmark", help="run the full raw/normalized benchmark workflow")
    p.add_argument("--input", required=True)
    p.add_argument("--signal", choices=("raw", "normalized", "both"), default=None)
    p.add_argument("--site", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--f-nh4", type=float, default=None)
    p.add_argument("--load-table", default=None)
    p.add_argument("--methods", default=None, help="comma-separated method filter")
    p.add_argument("--band-level", type=float, default=None)
    p.add_argument("--no-standardize", action="store_true", help="cluster on raw features")
    p.add_argument(
        "--aic-sign",
        choices=("paper", "standard"),
        default=None,
        help="information-criterion penalty convention: 'paper' subtracts 2k, "
        "'standard' adds it",
    )
    p.add_argument("--include-loocv", action="store_true")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("regress", help="linear fits of smoothed load against 7-day incidence")
    p.add_argument("--input", required=True)
    p.add_argument("--site", default=None)
    p.add_argument("--f-nh4", type=float, default=None)
    p.add_argument("--load-table", default=None)
    p.add_argument("--report", default=None, help="reuse the smoothed series of a stored report")
    p.add_argument("--signal", choices=("raw", "normalized"), default=None)
    p.add_argument(
        "--raw-loads", action="store_true", help="regress on unsmoothed normalized loads"
    )
    p.add_argument("--methods", default=None, help="method filter for the internal benchmark")
    p.add_argument("--out", default="-")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("report", help="re-render a stored report to its CSV payloads")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)

    return parser


class _Settings:
    """Flag > config-file > environment > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        if getattr(args, "config", None):
            try:
                with open(args.config) as handle:
                    self.file = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise InputError(f"cannot read config file: {exc}") from exc
            if not isinstance(self.file, dict):
                raise InputError("config file must hold a JSON object")

    def get(self, flag: str, default=None, cast=None):
        dest = flag.replace("-", "_")
        value = getattr(self.args, dest, None)
        if value is None or value is False:
            if flag in self.file:
                value = self.file[flag]
            elif dest in self.file:
                value = self.file[dest]
            elif value is None:
                value = default
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise InputError(f"{flag}: {value!r} is not a valid {cast.__name__}") from exc
        return value

    def seed(self) -> int:
        explicit = self.get("seed")
        if explicit is not None:
            return int(explicit)
        env = os.environ.get("SMOOTHBENCH_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise InputError(f"SMOOTHBENCH_SEED is not an integer: {env!r}") from exc
        return DEFAULT_SEED

    def units(self) -> UnitConfig:
        return UnitConfig(
            virus=self.get("virus-unit", "copies_per_ml"),
            flow=self.get("flow-unit", "m3_per_d"),
            nh4=self.get("nh4-unit", "mg_per_l"),
        )


def _sink(path: str):
    """Where a table goes: stdout for "-", else the path."""
    return sys.stdout if path == "-" else path


def _load_records(settings: _Settings, path: str, site: str | None):
    records = read_surveillance_csv(path, settings.units())
    sites = sorted({r.site for r in records})
    if site is not None:
        records = [r for r in records if r.site == site]
        if not records:
            raise InputError(f"no rows for site {site!r}; file has {sites}")
    elif len(sites) > 1:
        raise InputError(f"file contains several sites {sites}; pick one with --site")
    return records


def _resolve_f_nh4(settings: _Settings, site: str) -> float:
    explicit = settings.get("f-nh4", cast=float)
    if explicit is not None:
        if explicit <= 0:
            raise InputError(f"f_nh4 must be positive, got {explicit}")
        return explicit
    table_path = settings.get("load-table")
    if table_path:
        table = read_biomarker_table(table_path)
        if site not in table:
            raise InputError(f"site {site!r} not found in load table {table_path}")
        return table[site].f_bm
    ref = REFERENCE_NH4_LOADS.get(site)
    if ref is not None:
        return ref.f_bm
    raise InputError(
        f"no NH4 load for site {site!r}: pass --f-nh4 or --load-table "
        f"(reference data covers sites {sorted(REFERENCE_NH4_LOADS)})"
    )


def _input_series(settings: _Settings, path: str, field: str, site: str | None):
    """Accept either a bare date,value series or the surveillance schema."""
    with open_input(path) as handle:
        header = ""
        for line in handle:
            if not line.startswith("#"):
                header = line
                break
    columns = [c.strip() for c in header.strip().split(",")]
    if "value" in columns:
        return read_series_csv(path)
    records = _load_records(settings, path, site)
    return build_series(records, _FIELD_MAP[field])


def _parse_params(raw: list[str]) -> dict[str, float]:
    out = {}
    for item in raw:
        if "=" not in item:
            raise InputError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise InputError(f"parameter {name!r} has non-numeric value {value!r}") from exc
    return out


def _method_id(code: str) -> MethodId:
    try:
        return MethodId(code.lower())
    except ValueError as exc:
        codes = ", ".join(m.value for m in MethodId)
        raise InputError(f"unknown method {code!r}; expected one of: {codes}") from exc


def _method_filter(settings: _Settings) -> tuple[MethodId, ...]:
    methods = settings.get("methods")
    if not methods:
        return tuple(MethodId)
    if isinstance(methods, str):
        methods = [m.strip() for m in methods.split(",") if m.strip()]
    return tuple(_method_id(m) for m in methods)


def _ga_budget(settings: _Settings) -> tuple[int, int]:
    """(population size, generations): the flags over the selected budget."""
    pop, iters = PAPER_BUDGET if settings.get("paper-fidelity", False) else DESK_BUDGET
    return settings.get("ga-pop", pop, int), settings.get("ga-iters", iters, int)


# -- subcommand bodies -------------------------------------------------------


def cmd_ingest(args) -> int:
    settings = _Settings(args)
    records = read_surveillance_csv(args.input, settings.units())
    write_surveillance_csv(records, _sink(args.out), settings.units())
    print(f"ingested {len(records)} rows from {args.input}", file=sys.stderr)
    return 0


def cmd_normalize(args) -> int:
    settings = _Settings(args)
    records = _load_records(settings, args.input, args.site)
    site = records[0].site
    f_nh4 = _resolve_f_nh4(settings, site)
    virus = build_series(records, "c_virus")
    nh4 = build_series(records, "c_nh4")
    normalized = normalize_series(virus, nh4, f_nh4)
    rows = [[s.timestamp.isoformat(), fmt(s.value)] for s in normalized]
    write_table(
        _sink(args.out),
        ["date", "value"],
        rows,
        comment=f"normalized load (copies/person/day) site={site} f_nh4={f_nh4:g}",
    )
    return 0


def cmd_smooth(args) -> int:
    settings = _Settings(args)
    method = _method_id(args.method)
    spec = make_spec(method, _parse_params(args.param))
    series = _input_series(settings, args.input, args.field, args.site)
    gap_free = impute_linear(series)
    smoothed = apply_smoother(spec, gap_free)
    params_text = ",".join(f"{k}={v:g}" for k, v in spec.named_params().items()) or "none"
    rows = [
        [s.timestamp.isoformat(), fmt(orig.value), fmt(s.value)]
        for orig, s in zip(series, smoothed)
    ]
    write_table(
        _sink(args.out),
        ["date", "original", "smoothed"],
        rows,
        comment=f"method={method.value} params={params_text} input={args.input}",
    )
    return 0


def cmd_calibrate(args) -> int:
    settings = _Settings(args)
    method = _method_id(args.method)
    if method not in PARAMETRIC_METHODS:
        raise NonParametricMethod(f"{method.value} has no parameters to calibrate")
    series = _input_series(settings, args.input, args.field, args.site)
    gap_free = impute_linear(series)
    population, iterations = _ga_budget(settings)
    try:
        config = GaConfig(
            population_size=population,
            iterations=iterations,
            seed=settings.get("ga-seed", settings.seed(), int),
            patience=settings.get("patience", None, int),
        )
    except ValueError as exc:
        raise InputError(f"invalid GA budget: {exc}") from exc
    objective = settings.get("objective", "aic")
    result = calibrate(method, gap_free, config, objective=objective)
    payload = {
        "method": method.value,
        "params": result.spec.named_params(),
        "objective": objective,
        "fitness": result.fitness,
        "evaluations": result.evaluations,
        "generations": len(result.history) - 1,
        "ga_seed": config.seed,
        "population_size": config.population_size,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0


def cmd_benchmark(args) -> int:
    settings = _Settings(args)
    records = _load_records(settings, args.input, args.site)
    site = records[0].site
    seed = settings.seed()
    signal = settings.get("signal", "both")
    method_ids = _method_filter(settings)

    f_nh4 = None
    if signal in ("normalized", "both"):
        f_nh4 = _resolve_f_nh4(settings, site)

    population, iterations = _ga_budget(settings)
    config = PipelineConfig(
        master_seed=seed,
        ga_population=population,
        ga_iterations=iterations,
        objective=settings.get("objective", "aic"),
        patience=settings.get("patience", None, int),
        standardize=not settings.get("no-standardize", False),
        standard_aic_sign=settings.get("aic-sign", "paper") == "standard",
        band_level=settings.get("band-level", 0.95, float),
        methods=method_ids,
        f_nh4=f_nh4,
        include_loocv=settings.get("include-loocv", False),
    )

    kinds = ("raw", "normalized") if signal == "both" else (signal,)
    reports = []
    for kind in kinds:
        report = run_benchmark(records, kind, config)
        reports.append(report)
        print(
            f"{kind}: optimal={report.optimal_method.value} "
            f"params={report.optimal_params} seed={seed}",
            file=sys.stderr,
        )
    paths = write_reports(reports, args.out)
    for path in paths:
        print(path, file=sys.stderr)
    return 0


def cmd_regress(args) -> int:
    settings = _Settings(args)
    records = _load_records(settings, args.input, args.site)
    site = records[0].site
    incidence = build_series(records, "incidence_7d")
    signal = settings.get("signal", "normalized")

    if args.report:
        reports = read_reports(args.report)
        matching = [r for r in reports if r.site == site and r.signal_kind == signal]
        if not matching:
            raise InputError(
                f"report {args.report} has no {signal} run for site {site!r}"
            )
        rep = matching[0]
        loads = TimeSeries(
            tuple(Sample(t, v) for t, v in zip(rep.timestamps, rep.smoothed))
        )
        source = f"report:{args.report}"
    elif args.raw_loads:
        f_nh4 = _resolve_f_nh4(settings, site)
        loads = normalize_series(
            build_series(records, "c_virus"), build_series(records, "c_nh4"), f_nh4
        )
        source = "raw normalized loads"
    else:
        f_nh4 = _resolve_f_nh4(settings, site)
        population, iterations = _ga_budget(settings)
        config = PipelineConfig(
            master_seed=settings.seed(),
            ga_population=population,
            ga_iterations=iterations,
            objective=settings.get("objective", "aic"),
            patience=settings.get("patience", None, int),
            methods=_method_filter(settings),
            f_nh4=f_nh4,
        )
        report = run_benchmark(records, signal, config)
        loads = TimeSeries(
            tuple(Sample(t, v) for t, v in zip(report.timestamps, report.smoothed))
        )
        source = f"benchmark optimal={report.optimal_method.value}"

    pairs = join_load_incidence(loads, incidence, site=site)
    fit = fit_linear(pairs)
    rows = [[site, fmt(fit.slope), fmt(fit.intercept), fmt(fit.r_squared), str(fit.n)]]
    write_table(
        _sink(args.out),
        ["site", "slope", "intercept", "r2", "n"],
        rows,
        comment=f"loads from {source} seed={settings.seed()}",
    )
    return 0


def cmd_report(args) -> int:
    reports = read_reports(args.report)
    paths = write_reports(reports, args.out)
    for path in paths:
        print(path, file=sys.stderr)
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "normalize": cmd_normalize,
    "smooth": cmd_smooth,
    "calibrate": cmd_calibrate,
    "benchmark": cmd_benchmark,
    "regress": cmd_regress,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage problems; those are input errors here
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
