"""Structured result records for sums and experiments.

Reports are plain data with a stable dictionary form: JSON emission sorts
keys and CSV emission flattens bound_terms under dotted headers, so a
fixed configuration reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

__all__ = ["SumReport", "report_to_json", "reports_to_csv"]


@dataclass
class SumReport:
    """Computed sum vs predicted main term, with bound-chain diagnostics.

    ratio is value/main_term (None when the main term vanishes);
    measured_exponent is the -log(ratio)/log X diagnostic standing in for
    the unspecified decay exponent of the bound chains.
    """

    kind: str
    value: float
    main_term: float
    ratio: Optional[float] = None
    q_used: Optional[int] = None
    q_window: Optional[tuple] = None
    q_in_window: Optional[bool] = None
    measured_exponent: Optional[float] = None
    bound_terms: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if self.ratio is None and self.main_term:
            self.ratio = self.value / self.main_term

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "main_term": self.main_term,
            "ratio": self.ratio,
            "q_used": self.q_used,
            "q_window": list(self.q_window) if self.q_window else None,
            "q_in_window": self.q_in_window,
            "measured_exponent": self.measured_exponent,
            "bound_terms": dict(sorted(self.bound_terms.items())),
            "flags": list(self.flags),
        }


def report_to_json(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, no whitespace drift.

    NaN and infinities are not JSON, so a payload holding one raises
    ValueError instead of emitting them.
    """
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _flatten(row: dict) -> dict:
    """One row's cells under dotted headers, lists and tuples joined by ";".

    Nested dicts are walked breadth first from one work list, so a cell
    costs a loop step, not a Python call.
    """
    flat = {}
    todo = [("", row)]
    for prefix, obj in todo:                # appending to todo walks the nested dicts too
        for key, value in obj.items():
            name = f"{prefix}{key}"
            if isinstance(value, dict):
                todo.append((name + ".", value))
            elif isinstance(value, (list, tuple)):
                flat[name] = ";".join(map(str, value))
            else:
                flat[name] = value
    return flat


def reports_to_csv(rows) -> str:
    """Flatten report dictionaries to CSV with dotted headers.

    The header is the sorted union of flattened keys across rows; missing
    cells stay empty.  bound_terms.* columns carry the chain values.
    """
    flat_rows = [_flatten(row) for row in rows]
    headers = sorted({k for flat in flat_rows for k in flat})
    records = []    # the writer writes each record in one call
    csv.writer(SimpleNamespace(write=records.append)).writerows(
        [headers] + [list(map(flat.get, headers)) for flat in flat_rows])
    # its "\r\n" terminator makes it quote every cell holding "\r" or "\n" (a "\n"
    # terminator would leave "\r" bare); each record then ends in "\n" alone
    return "".join(record[:-2] + "\n" for record in records)
