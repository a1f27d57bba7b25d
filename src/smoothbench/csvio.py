"""CSV schemas: surveillance input, biomarker load tables, plain series.

A surveillance file holds ``date``, ``site`` and the columns of
``NUMERIC_COLUMNS``, one row per numeric column in file order: its short name
(the CLI's ``--field``), header, ``SurveillanceRecord`` field and unit factors.
A column with unit factors is required, read in the unit ``UnitConfig`` names
(by default the first: virus copies/ml, flow m3/d, NH4 mg/L) and converted to
the internal convention (copies/L, L/d, g/L), where it must stay finite; the
others are optional.  The reader, the writer and the CLI's flags derive from
this table, so a new column is one row.  Empty cells mean missing.  All
numbers are emitted with 17 significant digits so a read-back is bit-exact.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import sys
from dataclasses import dataclass, make_dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

from .errors import InputError, IoError, ParseError, SchemaError
from .normalization import BiomarkerLoad
from .timeseries import SurveillanceRecord, TimeSeries


@dataclass(frozen=True)
class Column:
    """One numeric column of the surveillance file."""

    short: str
    header: str
    field: str
    # unit name -> factor to the record's unit, the default unit first; None: optional, unitless
    units: Mapping[str, float] | None = None


NUMERIC_COLUMNS = (
    Column("virus", "virus_copies_per_ml", "c_virus",
           {"copies_per_ml": 1000.0, "copies_per_l": 1.0}),
    Column("flow", "flow_m3_per_d", "q_flow", {"m3_per_d": 1000.0, "l_per_d": 1.0}),
    Column("nh4", "nh4_mg_per_l", "c_nh4", {"mg_per_l": 0.001, "g_per_l": 1.0}),
    Column("cases", "active_cases", "active_cases"),
    Column("incidence", "incidence_7d_per_100k", "incidence_7d"),
)
UNIT_COLUMNS = tuple(c for c in NUMERIC_COLUMNS if c.units)
SURVEILLANCE_COLUMNS = ("date", "site") + tuple(c.header for c in UNIT_COLUMNS)
OPTIONAL_COLUMNS = tuple(c.header for c in NUMERIC_COLUMNS if not c.units)


def _check_units(config) -> None:
    for column in UNIT_COLUMNS:
        unit = getattr(config, column.short)
        if unit not in column.units:
            raise SchemaError(
                f"unknown {column.short} unit {unit!r}; expected {sorted(column.units)}")


def _factor(config, column: Column) -> float:
    """The factor from ``column``'s file unit to its record unit."""
    return column.units[getattr(config, column.short)] if column.units else 1.0


UnitConfig = make_dataclass(
    "UnitConfig",
    [(c.short, str, next(iter(c.units))) for c in UNIT_COLUMNS],
    namespace={"__doc__": "Interpretation of the numeric input columns.",
               "__module__": __name__, "__post_init__": _check_units, "factor": _factor},
    frozen=True,
)


def fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _parse_float(cell: str, column: str, line: int, factor: float = 1.0) -> float | None:
    """The cell's number times the unit ``factor``; None for an empty cell."""
    cell = cell.strip()
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {line}: cannot parse {column}={cell!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}: {column}={cell!r} is not a finite number")
    if not math.isfinite(value * factor):
        raise ParseError(f"line {line}: {column}={cell!r} overflows on its unit factor {factor:g}")
    return value * factor


def _parse_date(cell: str, line: int) -> date:
    cell = cell.strip()
    try:
        return date.fromisoformat(cell)
    except ValueError:
        raise ParseError(f"line {line}: date {cell!r} is not ISO-8601 (YYYY-MM-DD)") from None


def open_input(path: str):
    """Open a user-named file for reading; failing that is an input error."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def open_output(path: str):
    """A user-named file opened for writing, stdout (left open) for "-"; failing
    to open or write it is an IoError."""
    stdout = contextlib.nullcontext(sys.stdout)
    try:
        with stdout if path == "-" else open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_output(path: str) -> None:
    """Before a long run: a ``path`` that :func:`open_output` could not open
    because it is a directory or its folder is missing is an IoError."""
    folder = os.path.dirname(path) or os.curdir
    if path != "-" and (os.path.isdir(path) or not os.path.isdir(folder)):
        raise IoError(f"cannot write {path}: it is a directory or {folder} is not one")


def read_surveillance_csv(
    path: str, units: UnitConfig | None = None
) -> list[SurveillanceRecord]:
    """Read the surveillance schema; rows come back in file order."""
    units = units or UnitConfig()
    with open_input(path) as handle:
        reader = csv.DictReader(_skip_comments(handle))
        if reader.fieldnames is None:
            raise SchemaError("empty file: header row required")
        missing = [c for c in SURVEILLANCE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        present = [(c, units.factor(c)) for c in NUMERIC_COLUMNS if c.header in reader.fieldnames]
        records = []
        for line, row in enumerate(reader, start=2):
            when = _parse_date(row["date"] or "", line)
            site = (row["site"] or "").strip()
            if not site:
                raise ParseError(f"line {line}: empty site identifier")
            values = {
                column.field: _parse_float(row[column.header] or "", column.header, line, factor)
                for column, factor in present
            }
            try:
                records.append(SurveillanceRecord(site=site, timestamp=when, **values))
            except ValueError as exc:
                raise ParseError(f"line {line}: {exc}") from None
        if not records:
            raise SchemaError("no data rows found")
        return records


def write_surveillance_csv(
    records: Sequence[SurveillanceRecord],
    path: str,
    units: UnitConfig | None = None,
) -> None:
    """Echo records in the canonical schema (converting back to file units)."""
    units = units or UnitConfig()
    factors = [(c.field, units.factor(c)) for c in NUMERIC_COLUMNS]
    rows = [
        [r.timestamp.isoformat(), r.site]
        + [fmt(None if getattr(r, f) is None else getattr(r, f) / factor) for f, factor in factors]
        for r in records
    ]
    write_table(path, ["date", "site"] + [c.header for c in NUMERIC_COLUMNS], rows)


def read_biomarker_table(path: str) -> dict[str, BiomarkerLoad]:
    """Load-table schema: site,f_bm_g_per_cap_d,p025,p975 (f_bm is the median)."""
    with open_input(path) as handle:
        reader = csv.DictReader(_skip_comments(handle))
        required = ("site", "f_bm_g_per_cap_d", "p025", "p975")
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise SchemaError(f"load table needs columns {', '.join(required)}")
        table = {}
        for line, row in enumerate(reader, start=2):
            site = (row["site"] or "").strip()
            f_bm = _parse_float(row["f_bm_g_per_cap_d"] or "", "f_bm_g_per_cap_d", line)
            p025 = _parse_float(row["p025"] or "", "p025", line)
            p975 = _parse_float(row["p975"] or "", "p975", line)
            if site == "" or None in (f_bm, p025, p975):
                raise ParseError(f"line {line}: load table rows cannot have empty cells")
            try:
                table[site] = BiomarkerLoad(f_bm=f_bm, p_low=p025, p_med=f_bm, p_high=p975)
            except ValueError as exc:
                raise ParseError(f"line {line}: {exc}") from None
        if not table:
            raise SchemaError("load table has no rows")
        return table


def write_biomarker_table(table: dict[str, BiomarkerLoad], path: str) -> None:
    rows = [
        [site, fmt(load.f_bm), fmt(load.p_low), fmt(load.p_high)]
        for site, load in table.items()
    ]
    write_table(path, ["site", "f_bm_g_per_cap_d", "p025", "p975"], rows)


def read_series_csv(path: str) -> TimeSeries:
    """Two-column `date,value` series; empty value cells are missing."""
    with open_input(path) as handle:
        reader = csv.DictReader(_skip_comments(handle))
        if reader.fieldnames is None or not {"date", "value"} <= set(reader.fieldnames):
            raise SchemaError("series file needs columns: date,value")
        pairs = []
        for line, row in enumerate(reader, start=2):
            when = _parse_date(row["date"] or "", line)
            pairs.append((when, _parse_float(row["value"] or "", "value", line)))
        if not pairs:
            raise SchemaError("series file has no rows")
        return TimeSeries.from_pairs(pairs)


def _skip_comments(handle: Iterable[str]) -> Iterable[str]:
    return (line for line in handle if not line.startswith("#"))


def write_table(path: str, header: list[str], rows, comment: str | None = None) -> None:
    """Write a header and rows to ``path`` (stdout for "-")."""
    with open_output(path) as handle:
        if comment:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
