"""Reading and reshaping carbon-intensity time series.

parse_ci_csv reads a profile from CSV text with the header
``period,ci_g_per_kwh``; lines starting with ``#`` are comments.  A
period is an integer month index 1..12 or a ``YYYY-MM`` label whose
month is 01..12, and a file uses one kind.  Period i labels the i-th
data row, and each ``YYYY-MM`` label is the month after the row
before's (December is followed by January of the next year); a row
out of that order is refused at its line.  So month m, as in
``--month m`` or a sweep's ``month`` column, is the m-th data row.
The i-th data row becomes the i-th step of 30 days
(MONTH_SECONDS), so the duration-weighted profile mean coincides with
the plain arithmetic mean of the listed values (months are weighted
equally, not by day count).  Reading and decoding a file is the
caller's: the CLI parses the UTF-8 text of the bytes it hashed, past
a leading byte-order mark.
"""

import csv
import io
import math
import re
from importlib import resources

import numpy as np

from .carbon import CiProfile, slot_grid
from .errors import DomainError, ParseError, ValidationError

HEADER = ("period", "ci_g_per_kwh")

# Nominal month used for the step grid: 30 days.
MONTH_SECONDS = 30.0 * 86400.0

_YEAR_MONTH = re.compile(r"^\d{4}-(\d{2})$")

BUILTIN_NAME = "ci_si2024.csv"


def _parse_period(raw: str, line_no: int) -> str:
    raw = raw.strip()
    year_month = _YEAR_MONTH.match(raw)
    if year_month:
        if not 1 <= int(year_month[1]) <= 12:
            raise ValidationError(f"line {line_no}: period {raw}: month outside 01..12")
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


def _successor(period: str) -> str:
    """The period the data row after period's must carry."""
    if "-" not in period:
        return str(int(period) + 1)
    year, month = divmod(int(period[:4]) * 12 + int(period[5:]), 12)
    return f"{year:04d}-{month + 1:02d}"


def parse_ci_csv(text: str) -> CiProfile:
    """One 30-day step per data row of CSV text; a line ends in \\n, \\r\\n or \\r."""
    values, period = [], "0"
    header_seen = False
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline=None)), start=1):
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
        previous, period = period, _parse_period(cells[0], line_no)
        # Row 1 is month 1 or any YYYY-MM; each later row follows the one before.
        expected = period if not values and "-" in period else _successor(previous)
        if period != expected:
            raise ValidationError(f"line {line_no}: period {period} on data row "
                                  f"{len(values) + 1}, expected {expected}")
        try:
            ci = float(cells[1])
        except ValueError:
            raise ParseError(f"line {line_no}: bad intensity {cells[1]!r}") from None
        if not 0 < ci < math.inf:
            raise ValidationError(
                f"line {line_no}: period {period}: intensity must be positive and finite")
        values.append(ci)
    if not header_seen:
        raise ParseError("line 1: missing header row")
    if not values:
        raise ParseError("no data rows found")
    return CiProfile(tuple((i * MONTH_SECONDS, ci) for i, ci in enumerate(values)),
                     MONTH_SECONDS * len(values))


def serialize_ci_csv(profile: CiProfile) -> str:
    """Render a profile back to CSV with 1-based period indices.

    Only a form parse_ci_csv reads back is written: month indices stop at
    12, and the CSV holds only the values, which read back as 30-day
    steps, so a profile of more periods, or with a step that is not a
    30-day month, is refused.
    """
    n = len(profile.values)
    if n > 12:
        raise ValidationError(f"only profiles of 1..12 periods can be written, got {n}")
    if profile.horizon != n * MONTH_SECONDS:
        raise ValidationError(f"only 30-day months can be written: {n} periods need horizon "
                              f"{n * MONTH_SECONDS} s, got {profile.horizon}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for i, (start, value) in enumerate(zip(profile.starts, profile.values), start=1):
        if start != (i - 1) * MONTH_SECONDS:
            raise ValidationError(f"only 30-day months can be written: period {i} needs start "
                                  f"{(i - 1) * MONTH_SECONDS} s, got {start}")
        writer.writerow([str(i), format(value, ".17g")])
    return out.getvalue()


def builtin_profile_si2024() -> CiProfile:
    """The bundled synthetic 12-month profile (mean 198 g/kWh)."""
    return parse_ci_csv(resources.files("caoi").joinpath(f"data/{BUILTIN_NAME}")
                        .read_text(encoding="utf-8"))


def resample(profile: CiProfile, slot_length: float) -> CiProfile:
    """Re-express a profile on a uniform slot grid.

    Each slot carries the value in force at its start, so a slot spanning
    a step boundary takes the earlier step's value.  The grid must tile
    the horizon in at most carbon.MAX_SLOTS slots, by carbon.slot_grid's
    rule.
    """
    if not slot_length > 0:
        raise DomainError(f"slot length must be positive, got {slot_length}")
    n = slot_grid(profile.horizon, slot_length, DomainError)
    starts = np.arange(n) * slot_length
    return CiProfile(np.column_stack((starts, profile.values_at(starts))), profile.horizon)
