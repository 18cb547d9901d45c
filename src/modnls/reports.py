"""Tabular experiment reports with CSV and summary emission.

Every numeric cell is written with 17 significant digits so the CSV round
trips doubles exactly; identical runs therefore produce byte-identical
files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["ExperimentReport", "format_number", "write_report"]


def format_number(value) -> str:
    """Render a value as every output file and symbol spec writes it: a string
    as it is, a number with full double precision (17 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, str) and any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return format_number(value)


@dataclass
class ExperimentReport:
    """One driver's tabular output: rows, fitted exponents, and a verdict."""

    kind: str
    rows: list
    fitted: dict = field(default_factory=dict)
    verdict: bool = False
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a report needs at least one row")
        cols = list(self.rows[0])
        for row in self.rows:
            if list(row) != cols:
                raise ValueError("all report rows must share the same columns")

    @property
    def columns(self) -> list:
        return list(self.rows[0])

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"kind = {self.kind}",
            f"verdict = {'pass' if self.verdict else 'fail'}",
        ]
        for key in sorted(self.fitted):
            lines.append(f"fitted.{key} = {_csv_cell(self.fitted[key])}")
        for key in sorted(self.tolerances):
            lines.append(f"tolerance.{key} = {_csv_cell(self.tolerances[key])}")
        return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "summary.txt").write_text(report.summary_text())
