"""Command-line interface.

Subcommands: ingest, normalize, smooth, calibrate, benchmark, regress,
report.  Exit codes: 0 success, 1 input/usage error (including an input file
that cannot be read), 2 any other failure: "error:" and its type for one the
data or an unwritable output causes, "internal error:" for an unexpected exception.

Every option gets its value, type and default from argparse.  The keys of a
--config JSON file (long flag names) become flag tokens parsed before the
explicit ones, so the order is explicit flag > config file > environment
(SMOOTHBENCH_SEED is --seed's default) > built-in default, and a config value
is checked exactly like the flag it names.  The NH4 load resolves as --f-nh4 >
--load-table > the reference table.  ``benchmark`` and ``regress`` run the
methods in one worker process per CPU this process may use.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import warnings

from . import __version__
from .calibration import OBJECTIVES, PAPER_BUDGET, GaConfig, calibrate
from .csvio import (
    NUMERIC_COLUMNS,
    OPTIONAL_COLUMNS,
    UNIT_COLUMNS,
    UnitConfig,
    check_output,
    fmt,
    open_input,
    open_output,
    read_biomarker_table,
    read_series_csv,
    read_surveillance_csv,
    write_surveillance_csv,
    write_table,
)
from .errors import EmptyInput, InputError, SmoothbenchError
from .normalization import reference_nh4_load
from .pipeline import (
    SIGNAL_KINDS,
    PipelineConfig,
    check_magnitude,
    fit_loads,
    normalized_loads,
    run_benchmark,
    worker_count,
)
from .reportio import (
    REGRESSION_HEADER,
    make_output_dir,
    read_reports,
    regression_row,
    write_reports,
)
from .smoothers import PARAM_SPECS, MethodId, apply_smoother, make_spec
from .timeseries import TimeSeries, build_series, impute_linear

# --field: the short name of each numeric column, and its record field
_FIELDS = {c.short: c.field for c in NUMERIC_COLUMNS}


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


def _method_id(code: str) -> MethodId:
    try:
        return MethodId(code.strip().lower())
    except ValueError:
        codes = ", ".join(m.value for m in MethodId)
        raise argparse.ArgumentTypeError(
            f"unknown method {code!r}; expected one of: {codes}"
        ) from None


def _method_list(text: str) -> tuple[MethodId, ...]:
    return tuple(_method_id(code) for code in text.split(",") if code.strip())


def _param(item: str) -> tuple[str, float]:
    name, _, value = item.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {item!r}") from None


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r} (from the flag or $SMOOTHBENCH_SEED)"
        ) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (keys = flag names)")
    for c in UNIT_COLUMNS:
        parser.add_argument(f"--{c.short}-unit", choices=tuple(c.units),
                            default=getattr(UnitConfig, c.short), help="(default: %(default)s)")


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_seed,
        default=os.environ.get("SMOOTHBENCH_SEED", GaConfig.seed),
        help=f"master random seed (default: $SMOOTHBENCH_SEED, else {GaConfig.seed})",
    )
    parser.add_argument(
        "--ga-pop", type=int, help=f"GA population size (default {GaConfig.population_size})"
    )
    parser.add_argument(
        "--ga-iters", type=int, help=f"GA generations (default {GaConfig.iterations})"
    )
    parser.add_argument("--objective", choices=OBJECTIVES, default=PipelineConfig.objective,
                        help="GA objective (default: %(default)s)")
    parser.add_argument("--patience", type=int, help="stop after N stagnant generations")
    parser.add_argument(
        "--paper-fidelity",
        action="store_true",
        help="use the full-fidelity GA budget "
        f"(population {PAPER_BUDGET[0]}, {PAPER_BUDGET[1]} iterations)",
    )


def _add_nh4_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f-nh4", type=float, help="specific NH4 load in g/person/day")
    parser.add_argument("--load-table", help="biomarker load table CSV")


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
    p.add_argument("--site")
    _add_nh4_flags(p)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser(
        "smooth",
        help="apply one method with explicit parameters",
        epilog=_method_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--method", type=_method_id, required=True, help="method code (see below)")
    p.add_argument(
        "--param",
        type=_param,
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="method parameter (repeatable)",
    )
    p.add_argument("--input", required=True, help="series CSV (date,value) or surveillance CSV")
    p.add_argument("--field", choices=sorted(_FIELDS), default="virus")
    p.add_argument("--site")
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser(
        "calibrate",
        help="GA-calibrate one method's parameters",
        epilog=_method_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--method", type=_method_id, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--field", choices=sorted(_FIELDS), default="virus")
    p.add_argument("--site")
    p.add_argument("--out", default="-")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("benchmark", help="run the full raw/normalized benchmark workflow")
    p.add_argument("--input", required=True)
    p.add_argument("--signal", choices=SIGNAL_KINDS + ("both",), default="both",
                   help="(default: %(default)s)")
    p.add_argument("--site")
    p.add_argument("--out", required=True, help="output directory")
    _add_nh4_flags(p)
    p.add_argument("--methods", type=_method_list, default=PipelineConfig.methods,
                   help="comma-separated method filter (default: all)")
    p.add_argument("--band-level", type=float, default=PipelineConfig.band_level,
                   help="(default: %(default)s)")
    p.add_argument("--no-standardize", action="store_true", help="cluster on raw features")
    p.add_argument(
        "--aic-sign",
        choices=("paper", "standard"),
        default="paper",
        help="information-criterion penalty convention: 'paper' subtracts 2k, "
        "'standard' adds it (default: %(default)s)",
    )
    p.add_argument("--include-loocv", action="store_true")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("regress", help="linear fits of smoothed load against 7-day incidence")
    p.add_argument("--input", required=True)
    p.add_argument("--site")
    _add_nh4_flags(p)
    p.add_argument("--report", help="reuse the smoothed series of a stored report")
    p.add_argument("--signal", choices=SIGNAL_KINDS, default=SIGNAL_KINDS[-1],
                   help="(default: %(default)s)")
    p.add_argument(
        "--raw-loads", action="store_true", help="regress on unsmoothed normalized loads"
    )
    p.add_argument("--methods", type=_method_list, default=PipelineConfig.methods,
                   help="method filter for the internal benchmark (default: all)")
    p.add_argument("--out", default="-")
    _add_ga_flags(p)
    _add_common(p)

    p = sub.add_parser("report", help="re-render a stored report to its CSV payloads")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)

    return parser


def _config_argv(path: str, repeatable: set[str]) -> list[str]:
    """The keys of a JSON config file as the flag tokens they stand for.

    A list becomes one token per element for a ``repeatable`` flag and one
    comma-joined token for any other.
    """
    with open_input(path) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("config file must hold a JSON object")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list) and flag in repeatable:
            tokens.extend(f"{flag}={v}" for v in value)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(str(v) for v in value)}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def _parse_args(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """Parse once; with --config, parse again with the file's tokens first.

    The config tokens go right after the subcommand name, so an explicit flag,
    parsed later, wins over them; the flags' defaults (SMOOTHBENCH_SEED for
    --seed) fill in the rest.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        argv = sys.argv[1:] if argv is None else list(argv)
        at = argv.index(args.command) + 1
        tokens = _config_argv(args.config, _append_flags(parser, args.command))
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _append_flags(parser: argparse.ArgumentParser, command: str) -> set[str]:
    """The option strings of the subcommand's repeatable (append) flags."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for action in commands.choices[command]._actions
        if isinstance(action, argparse._AppendAction)
        for flag in action.option_strings
    }


def _units(args) -> UnitConfig:
    return UnitConfig(**{c.short: getattr(args, f"{c.short}_unit") for c in UNIT_COLUMNS})


def _load_records(args):
    records = read_surveillance_csv(args.input, _units(args))
    sites = sorted({r.site for r in records})
    if args.site is not None:
        records = [r for r in records if r.site == args.site]
        if not records:
            raise InputError(f"no rows for site {args.site!r}; file has {sites}")
    elif len(sites) > 1:
        raise InputError(f"file contains several sites {sites}; pick one with --site")
    return records


def _f_nh4(args, site: str) -> float:
    """--f-nh4, else the site's row of --load-table, else the reference table."""
    if args.f_nh4 is not None:
        return args.f_nh4
    if args.load_table:
        table = read_biomarker_table(args.load_table)
        if site not in table:
            raise InputError(f"site {site!r} not found in load table {args.load_table}")
        return table[site].f_bm
    return reference_nh4_load(site)


def _input_series(args):
    """Accept either a bare date,value series or the surveillance schema."""
    with open_input(args.input) as handle:
        header = ""
        for line in handle:
            if not line.startswith("#"):
                header = line
                break
    columns = [c.strip() for c in header.strip().split(",")]
    if "value" in columns:
        return read_series_csv(args.input)
    return build_series(_load_records(args), _FIELDS[args.field])


def _ga_config(args) -> GaConfig:
    """The GA flags; an unset budget flag takes the selected budget's value."""
    pop, iters = PAPER_BUDGET if args.paper_fidelity else (
        GaConfig.population_size, GaConfig.iterations)
    return GaConfig(
        population_size=pop if args.ga_pop is None else args.ga_pop,
        iterations=iters if args.ga_iters is None else args.ga_iters,
        seed=args.seed,
        patience=args.patience,
    )


def _pipeline_config(args, **settings) -> PipelineConfig:
    return PipelineConfig(
        ga=_ga_config(args), objective=args.objective, methods=args.methods, **settings
    )


# -- subcommand bodies -------------------------------------------------------


def cmd_ingest(args) -> int:
    records = read_surveillance_csv(args.input, _units(args))
    write_surveillance_csv(records, args.out, _units(args))
    print(f"ingested {len(records)} rows from {args.input}", file=sys.stderr)
    return 0


def cmd_normalize(args) -> int:
    records = _load_records(args)
    site = records[0].site
    f_nh4 = _f_nh4(args, site)
    rows = [[s.timestamp.isoformat(), fmt(s.value)] for s in normalized_loads(records, f_nh4)]
    write_table(
        args.out,
        ["date", "value"],
        rows,
        comment=f"normalized load (copies/person/day) site={site} f_nh4={f_nh4:g}",
    )
    return 0


def cmd_smooth(args) -> int:
    spec = make_spec(args.method, dict(args.param))
    series = _input_series(args)
    gap_free = impute_linear(series)
    check_magnitude(args.method, gap_free, "smoothed")
    smoothed = apply_smoother(spec, gap_free)
    params_text = ",".join(f"{k}={v:g}" for k, v in spec.named_params().items()) or "none"
    rows = [
        [s.timestamp.isoformat(), fmt(orig.value), fmt(s.value)]
        for orig, s in zip(series, smoothed)
    ]
    write_table(
        args.out,
        ["date", "original", "smoothed"],
        rows,
        comment=f"method={args.method.value} params={params_text} input={args.input}",
    )
    return 0


def cmd_calibrate(args) -> int:
    check_output(args.out)  # before the GA, which an unwritable --out would waste
    method = args.method
    config = _ga_config(args)
    gap_free = impute_linear(_input_series(args))
    check_magnitude(method, gap_free, "calibrated")
    result = calibrate(method, gap_free, config, objective=args.objective)
    payload = {
        "method": method.value,
        "params": result.spec.named_params(),
        "objective": args.objective,
        "fitness": result.fitness,
        "evaluations": result.evaluations,
        "generations": len(result.history) - 1,
        "ga_seed": config.seed,
        "population_size": config.population_size,
    }
    with open_output(args.out) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_benchmark(args) -> int:
    records = _load_records(args)
    kinds = SIGNAL_KINDS if args.signal == "both" else (args.signal,)
    config = _pipeline_config(
        args,
        standardize=not args.no_standardize,
        standard_aic_sign=args.aic_sign == "standard",
        band_level=args.band_level,
        f_nh4=_f_nh4(args, records[0].site) if SIGNAL_KINDS[-1] in kinds else None,
        include_loocv=args.include_loocv,
    )

    make_output_dir(args.out)  # before the run, which an unwritable --out would waste
    reports = []
    for kind in kinds:
        report = run_benchmark(records, kind, config, jobs=worker_count())
        reports.append(report)
        print(
            f"{kind}: optimal={report.optimal_method.value} "
            f"params={report.optimal_params} seed={args.seed}",
            file=sys.stderr,
        )
    paths = write_reports(reports, args.out)
    for path in paths:
        print(path, file=sys.stderr)
    return 0


def cmd_regress(args) -> int:
    check_output(args.out)  # before the run, which an unwritable --out would waste
    records = _load_records(args)
    site = records[0].site
    try:
        incidence = build_series(records, "incidence_7d")
    except EmptyInput:
        raise InputError(
            f"column {OPTIONAL_COLUMNS[1]} of {args.input} has no values; regress needs them"
        ) from None

    if args.report:
        reports = read_reports(args.report)
        matching = [r for r in reports if r.site == site and r.signal_kind == args.signal]
        if not matching:
            raise InputError(
                f"report {args.report} has no {args.signal} run for site {site!r}"
            )
        rep = matching[0]
        loads = TimeSeries.from_pairs(zip(rep.timestamps, rep.smoothed))
        source = f"report:{args.report}"
    elif args.raw_loads:
        loads = normalized_loads(records, _f_nh4(args, site))
        source = "raw normalized loads"
    else:
        config = _pipeline_config(args, f_nh4=_f_nh4(args, site))
        report = run_benchmark(records, args.signal, config, jobs=worker_count())
        loads = TimeSeries.from_pairs(zip(report.timestamps, report.smoothed))
        source = f"benchmark optimal={report.optimal_method.value}"

    fit = fit_loads(loads, incidence)
    write_table(
        args.out,
        REGRESSION_HEADER,
        [regression_row(site, fit)],
        comment=f"loads from {source} seed={args.seed}",
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


# glibc's mallopt parameters, and the largest mmap threshold of a 64-bit build
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEPT_BYTES = 32 << 20


def keep_freed_pages() -> None:
    """Keep freed blocks of up to 32 MiB in the heap, and the heap's free pages
    mapped, for this process and the workers it forks.

    A GA genome at T=365 frees arrays of about 1 MiB that the next genome
    allocates again; glibc would hand them back to the kernel and fault them in
    anew.  Both thresholds are set, since setting either freezes glibc's sliding
    thresholds at whatever the imports left.  Where libc has no ``mallopt``,
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _KEPT_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEPT_BYTES)


def main(argv: list[str] | None = None) -> int:
    keep_freed_pages()
    try:
        args = _parse_args(build_parser(), argv)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return _HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse uses status 2 for usage problems; those are input errors here
        return 1 if exc.code == 2 else int(exc.code or 0)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SmoothbenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
