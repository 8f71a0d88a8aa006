"""Loading and reshaping carbon-intensity time series.

The on-disk format is a small CSV with header ``period,ci_g_per_kwh``.
A period is either an integer month index 1..12 or a ``YYYY-MM`` label;
lines starting with ``#`` are comments.  Periods are mapped onto equal
length steps so that the duration-weighted profile mean coincides with
the plain arithmetic mean of the listed values (months are weighted
equally, not by day count).
"""

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .carbon import CiProfile
from .errors import DomainError, ParseError, ValidationError

HEADER = ("period", "ci_g_per_kwh")

# Nominal month used for the step grid: 30 days.
MONTH_SECONDS = 30.0 * 86400.0

_YEAR_MONTH = re.compile(r"^(\d{4})-(\d{2})$")

BUILTIN_NAME = "ci_si2024.csv"


@dataclass(frozen=True)
class CiRecord:
    period: str
    month_index: int          # 1-based position in the series
    ci_g_per_kwh: float


def _parse_period(raw: str, line_no: int) -> str:
    raw = raw.strip()
    if _YEAR_MONTH.match(raw):
        return raw
    try:
        month = int(raw)
    except ValueError:
        raise ParseError(
            f"line {line_no}: period {raw!r} is neither YYYY-MM nor a month index"
        ) from None
    if not 1 <= month <= 12:
        raise ValidationError(f"line {line_no}: month index {month} outside 1..12")
    return str(month)


def parse_ci_records(source) -> list:
    """Parse CSV content into CiRecord rows.

    source may be a path, a text or byte string, or an open file object.
    """
    text = _read_text(source)
    rows = []
    reader = csv.reader(io.StringIO(text))
    header_seen = False
    for line_no, row in enumerate(reader, start=1):
        if not row or (row[0].lstrip().startswith("#")):
            continue
        cells = [c.strip() for c in row]
        if not header_seen:
            if tuple(c.lower() for c in cells) != HEADER:
                raise ParseError(
                    f"line {line_no}: expected header {','.join(HEADER)!r}, got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) != 2:
            raise ParseError(f"line {line_no}: expected 2 fields, got {len(cells)}")
        period = _parse_period(cells[0], line_no)
        try:
            ci = float(cells[1])
        except ValueError:
            raise ParseError(f"line {line_no}: bad intensity {cells[1]!r}") from None
        if not ci > 0:
            raise ValidationError(f"line {line_no}: period {period}: intensity must be positive")
        rows.append(CiRecord(period, len(rows) + 1, ci))
    if not header_seen:
        raise ParseError("line 1: missing header row")
    if not rows:
        raise ParseError("no data rows found")
    seen = set()
    for rec in rows:
        if rec.period in seen:
            raise ValidationError(f"period {rec.period} listed twice")
        seen.add(rec.period)
    return rows


def records_to_profile(records, period_seconds: float = MONTH_SECONDS) -> CiProfile:
    steps = tuple(((i * period_seconds), rec.ci_g_per_kwh)
                  for i, rec in enumerate(records))
    return CiProfile(steps, period_seconds * len(records))


def parse_ci_csv(source, period_seconds: float = MONTH_SECONDS,
                 full_year: bool = False) -> CiProfile:
    """Parse a profile CSV, optionally insisting on exactly 12 periods."""
    records = parse_ci_records(source)
    if full_year and len(records) != 12:
        raise ValidationError(
            f"a full-year profile needs 12 periods, found {len(records)}"
        )
    return records_to_profile(records, period_seconds)


def serialize_ci_csv(profile: CiProfile) -> str:
    """Render a profile back to CSV with 1-based period indices.

    Month indices stop at 12, so a longer profile cannot be written in a
    form parse_ci_csv reads back.
    """
    if len(profile.samples) > 12:
        raise ValidationError(
            f"only profiles of 1..12 periods can be written, got {len(profile.samples)}"
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for i, (_, value) in enumerate(profile.samples, start=1):
        writer.writerow([str(i), format(value, ".17g")])
    return out.getvalue()


def builtin_profile_si2024() -> CiProfile:
    """The bundled synthetic 12-month profile (mean 198 g/kWh)."""
    data = resources.files("caoi").joinpath(f"data/{BUILTIN_NAME}").read_text()
    return parse_ci_csv(data, full_year=True)


def resample(profile: CiProfile, slot_length: float) -> CiProfile:
    """Re-express a profile on a uniform slot grid.

    Each slot carries the value in force at its start, so a slot spanning
    a step boundary takes the earlier step's value.  The grid must tile
    the horizon exactly.
    """
    if not slot_length > 0:
        raise DomainError(f"slot length must be positive, got {slot_length}")
    n_float = profile.horizon / slot_length
    n = round(n_float)
    if n < 1 or abs(n_float - n) > 1e-9 * max(1.0, abs(n_float)):
        raise DomainError(
            f"slot length {slot_length} does not tile horizon {profile.horizon}"
        )
    starts = np.arange(n) * slot_length
    return CiProfile(np.column_stack((starts, profile.values_at(starts))), profile.horizon)


def _read_text(source) -> str:
    if isinstance(source, Path):
        return source.read_text()
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        # A path-looking string without newlines is treated as a file.
        if "\n" not in source and Path(source).exists():
            return Path(source).read_text()
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data
