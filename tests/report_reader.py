"""Reads :meth:`ExperimentReport.to_csv` text back into a report, for round-trip tests.

The package only writes reports; this inverse lives with the tests that check
the written text holds every parameter, column and cell exactly.
"""

from iqpverify.errors import ParseError
from iqpverify.experiments import ExperimentReport


def _sniff_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str) -> ExperimentReport:
    """Inverse of :meth:`ExperimentReport.to_csv` (round-trips exactly)."""
    experiment: str | None = None
    wall_clock: float | None = None
    params: dict = {}
    columns: tuple[str, ...] | None = None
    rows: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if not sep:
                raise ParseError(f"malformed parameter line {body!r}", line=lineno)
            key = key.strip()
            if key == "experiment":
                experiment = value
            elif key == "wall_clock":
                wall_clock = float(value)
            else:
                params[key] = _sniff_cell(value)
            continue
        cells = line.split(",")
        if columns is None:
            columns = tuple(cells)
            continue
        if len(cells) != len(columns):
            raise ParseError(
                f"expected {len(columns)} cells, found {len(cells)}", line=lineno
            )
        rows.append(tuple(_sniff_cell(c) for c in cells))
    if experiment is None:
        raise ParseError("missing '# experiment=' line")
    if wall_clock is None:
        raise ParseError("missing '# wall_clock=' line")
    if columns is None:
        raise ParseError("missing header row")
    return ExperimentReport(experiment, params, columns, tuple(rows), wall_clock)
