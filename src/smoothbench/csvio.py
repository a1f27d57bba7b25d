"""CSV schemas: surveillance input, biomarker load tables, plain series.

Input columns default to the common reporting units (virus copies/ml, flow
m3/d, NH4 mg/L) and are converted to the internal convention (copies/L, L/d,
g/L) at ingestion; unit declarations can override the interpretation.  Empty
cells mean missing.  All numbers are emitted with 17 significant digits so a
read-back is bit-exact.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

from .errors import InputError, ParseError, SchemaError
from .normalization import BiomarkerLoad
from .timeseries import SurveillanceRecord, TimeSeries

SURVEILLANCE_COLUMNS = (
    "date",
    "site",
    "virus_copies_per_ml",
    "flow_m3_per_d",
    "nh4_mg_per_l",
)
OPTIONAL_COLUMNS = ("active_cases", "incidence_7d_per_100k")

VIRUS_UNIT_FACTORS = {"copies_per_ml": 1000.0, "copies_per_l": 1.0}
FLOW_UNIT_FACTORS = {"m3_per_d": 1000.0, "l_per_d": 1.0}
NH4_UNIT_FACTORS = {"mg_per_l": 0.001, "g_per_l": 1.0}


@dataclass(frozen=True)
class UnitConfig:
    """Interpretation of the numeric input columns."""

    virus: str = "copies_per_ml"
    flow: str = "m3_per_d"
    nh4: str = "mg_per_l"

    def __post_init__(self):
        for value, table, name in (
            (self.virus, VIRUS_UNIT_FACTORS, "virus"),
            (self.flow, FLOW_UNIT_FACTORS, "flow"),
            (self.nh4, NH4_UNIT_FACTORS, "nh4"),
        ):
            if value not in table:
                raise SchemaError(f"unknown {name} unit {value!r}; expected {sorted(table)}")

    @property
    def factors(self) -> tuple[float, float, float]:
        return (
            VIRUS_UNIT_FACTORS[self.virus],
            FLOW_UNIT_FACTORS[self.flow],
            NH4_UNIT_FACTORS[self.nh4],
        )


def fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _parse_float(cell: str, column: str, line: int) -> float | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {line}: cannot parse {column}={cell!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}: {column}={cell!r} is not a finite number")
    return value


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


def read_surveillance_csv(
    path: str, units: UnitConfig | None = None
) -> list[SurveillanceRecord]:
    """Read the surveillance schema; rows come back in file order."""
    units = units or UnitConfig()
    f_virus, f_flow, f_nh4 = units.factors
    with open_input(path) as handle:
        reader = csv.DictReader(_skip_comments(handle))
        if reader.fieldnames is None:
            raise SchemaError("empty file: header row required")
        missing = [c for c in SURVEILLANCE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        has_cases = OPTIONAL_COLUMNS[0] in reader.fieldnames
        has_incidence = OPTIONAL_COLUMNS[1] in reader.fieldnames
        records = []
        for line, row in enumerate(reader, start=2):
            when = _parse_date(row["date"] or "", line)
            site = (row["site"] or "").strip()
            if not site:
                raise ParseError(f"line {line}: empty site identifier")
            virus = _parse_float(row["virus_copies_per_ml"] or "", "virus_copies_per_ml", line)
            flow = _parse_float(row["flow_m3_per_d"] or "", "flow_m3_per_d", line)
            nh4 = _parse_float(row["nh4_mg_per_l"] or "", "nh4_mg_per_l", line)
            cases = (
                _parse_float(row[OPTIONAL_COLUMNS[0]] or "", OPTIONAL_COLUMNS[0], line)
                if has_cases
                else None
            )
            incidence = (
                _parse_float(row[OPTIONAL_COLUMNS[1]] or "", OPTIONAL_COLUMNS[1], line)
                if has_incidence
                else None
            )
            try:
                records.append(
                    SurveillanceRecord(
                        site=site,
                        timestamp=when,
                        c_virus=None if virus is None else virus * f_virus,
                        q_flow=None if flow is None else flow * f_flow,
                        c_nh4=None if nh4 is None else nh4 * f_nh4,
                        active_cases=cases,
                        incidence_7d=incidence,
                    )
                )
            except ValueError as exc:
                raise ParseError(f"line {line}: {exc}") from None
        if not records:
            raise SchemaError("no data rows found")
        return records


def write_surveillance_csv(
    records: Sequence[SurveillanceRecord],
    sink: "str | io.TextIOBase",
    units: UnitConfig | None = None,
) -> None:
    """Echo records in the canonical schema (converting back to file units)."""
    units = units or UnitConfig()
    f_virus, f_flow, f_nh4 = units.factors
    rows = []
    for r in records:
        rows.append(
            [
                r.timestamp.isoformat(),
                r.site,
                fmt(None if r.c_virus is None else r.c_virus / f_virus),
                fmt(None if r.q_flow is None else r.q_flow / f_flow),
                fmt(None if r.c_nh4 is None else r.c_nh4 / f_nh4),
                fmt(r.active_cases),
                fmt(r.incidence_7d),
            ]
        )
    write_table(sink, list(SURVEILLANCE_COLUMNS) + list(OPTIONAL_COLUMNS), rows)


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


def write_biomarker_table(
    table: dict[str, BiomarkerLoad], sink: "str | io.TextIOBase"
) -> None:
    rows = [
        [site, fmt(load.f_bm), fmt(load.p_low), fmt(load.p_high)]
        for site, load in table.items()
    ]
    write_table(sink, ["site", "f_bm_g_per_cap_d", "p025", "p975"], rows)


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


def write_table(
    sink: "str | io.TextIOBase", header: list[str], rows, comment: str | None = None
) -> None:
    """Write a header and rows to a path, or to an open handle left open."""
    if isinstance(sink, (str, bytes)):
        with open(sink, "w", newline="") as handle:
            write_table(handle, header, rows, comment)
        return
    if comment:
        sink.write(f"# {comment}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
