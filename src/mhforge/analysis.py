"""Static cost model and the variant comparison report.

count_macc gives multiply-accumulate counts, parameter counts, file size and
class coverage; all figures come from the network description alone. The
multiply-accumulate (MACC) convention counts one op per scalar multiply in
conv and fc layers and excludes bias additions; "trained MACC" restricts the
sum to unfrozen layers.

compare_variants sets those costs and the measured metrics of the three
variants side by side; REPORT_FORMATS maps each report format to its file
extension and renderer, and write_report writes one.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import prod

from .errors import MhforgeError
from .fileio import write_atomic
from .modelfile import header_bytes
from .netspec import NetworkSpec, validate_shapes
from .surgery import PROPOSED, VARIANT_KINDS


class AnalysisError(MhforgeError):
    """Cost model applied to an invalid spec or an incomplete variant set."""


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    macc: int
    params: int


@dataclass(frozen=True)
class CostBreakdown:
    """Per-layer and total costs of one variant (for 2M, summed over its models)."""

    layers: tuple[LayerCost, ...]
    macc_total: int
    macc_trained: int
    params_total: int
    size_bytes_estimate: int
    coverage: int


def class_coverage(counts) -> int:
    """Number of label combinations expressible: the product of per-category class counts."""
    total = 1
    for m in counts:
        if int(m) < 1:
            raise AnalysisError(f"class counts must be >= 1, got {m}")
        total *= int(m)
    return total


def count_macc(spec: NetworkSpec) -> CostBreakdown:
    """Full cost breakdown. macc = weight elements * Hout * Wout: K*K*Cin*Cout*Hout*Wout for conv, D*F for fc.

    Coverage is the product of the heads' class counts (0 without heads): for
    a bound spec, validate_shapes has checked that each head's out_features
    is its category's class count.
    """
    shapes = validate_shapes(spec)
    layers = []
    macc_total = macc_trained = params_total = 0
    for lay in spec.layers:
        macc = params = 0
        if lay.has_params:
            weights = lay.weight_shape(shapes[lay.inputs[0]])
            _, h_out, w_out = shapes[lay.name]
            macc = prod(weights) * h_out * w_out
            params = prod(weights) + weights[0]
            macc_total += macc
            params_total += params
            if not lay.frozen:
                macc_trained += macc
        layers.append(LayerCost(lay.name, lay.kind, macc, params))
    heads = spec.heads()
    return CostBreakdown(
        layers=tuple(layers),
        macc_total=macc_total,
        macc_trained=macc_trained,
        params_total=params_total,
        size_bytes_estimate=header_bytes(spec) + 4 * params_total,
        coverage=class_coverage([h.out_features for h in heads]) if heads else 0,
    )


def sum_breakdowns(breakdowns: list[CostBreakdown]) -> CostBreakdown:
    """Aggregate independent models (the 2M variant): costs add, coverage multiplies."""
    if not breakdowns:
        raise AnalysisError("no breakdowns to sum")
    layers = []
    coverage = 1
    for i, b in enumerate(breakdowns):
        layers.extend(LayerCost(f"m{i}/{lc.name}", lc.kind, lc.macc, lc.params) for lc in b.layers)
        coverage *= b.coverage
    return CostBreakdown(
        layers=tuple(layers),
        macc_total=sum(b.macc_total for b in breakdowns),
        macc_trained=sum(b.macc_trained for b in breakdowns),
        params_total=sum(b.params_total for b in breakdowns),
        size_bytes_estimate=sum(b.size_bytes_estimate for b in breakdowns),
        coverage=coverage,
    )


@dataclass(frozen=True)
class VariantMetrics:
    """Measured numbers for one variant; all fields optional."""

    accuracy: dict[str, float] = field(default_factory=dict)
    loss: dict[str, float] = field(default_factory=dict)
    latency_total_s: float | None = None
    latency_per_image_ms: float | None = None


@dataclass(frozen=True)
class ReportRow:
    label: str
    cells: dict[str, float | int | None]
    decimals: int | None  # None = integer row; otherwise fixed decimal places


@dataclass(frozen=True)
class ComparisonReport:
    variants: tuple[str, ...]
    rows: tuple[ReportRow, ...]


# (row label, CostBreakdown attribute, ratio row label or None)
_COST_ROWS = (
    ("Size (bytes)", "size_bytes_estimate", "Size ratio"),
    ("Parameters", "params_total", "Parameter ratio"),
    ("Trained MACC", "macc_trained", "Trained MACC ratio"),
    ("Total MACC", "macc_total", "Total MACC ratio"),
    ("Coverage", "coverage", None),
)


def compare_variants(
    breakdowns: dict[str, CostBreakdown], metrics: dict[str, VariantMetrics] | None = None
) -> ComparisonReport:
    """Side-by-side absolute costs plus proposed-over-others ratio rows.

    In ratio rows the proposed cell is 1.0 and every other cell is
    proposed / that variant, rounded to 3 decimals. A variant without metrics
    reads as VariantMetrics(): its metric cells are empty.
    """
    for kind in VARIANT_KINDS:
        if kind not in breakdowns:
            raise AnalysisError(f"missing variant entry {kind!r}; need all of {VARIANT_KINDS}")
    extra = set(breakdowns) - set(VARIANT_KINDS)
    if extra:
        raise AnalysisError(f"unknown variant entries {sorted(extra)}")
    measured = {v: (metrics or {}).get(v, VariantMetrics()) for v in VARIANT_KINDS}
    rows: list[ReportRow] = []

    def row(label: str, value, decimals: int | None) -> None:
        """One row of value(variant) per variant, rounded to `decimals` unless that is None."""
        cells = {v: value(v) for v in VARIANT_KINDS}
        if decimals is not None:
            cells = {v: None if x is None else round(float(x), decimals) for v, x in cells.items()}
        rows.append(ReportRow(label, cells, decimals))

    def ratio(label: str, value) -> None:
        p = value(PROPOSED)
        row(f"{label} (proposed/col)", lambda v: None if p is None or not value(v) else p / value(v), 3)

    cats = dict.fromkeys(c for m in measured.values() for c in (*m.accuracy, *m.loss))
    for cat in cats:
        row(f"Accuracy/{cat}", lambda v: measured[v].accuracy.get(cat), 4)
    for cat in cats:
        row(f"Loss/{cat}", lambda v: measured[v].loss.get(cat), 4)
    for label, attr, _ in _COST_ROWS:
        row(label, lambda v: getattr(breakdowns[v], attr), None)
    have_latency = any(m.latency_total_s is not None for m in measured.values())
    if have_latency:
        row("Latency total (s)", lambda v: measured[v].latency_total_s, 4)
        row("Latency/image (ms)", lambda v: measured[v].latency_per_image_ms, 3)
    for _, attr, label in _COST_ROWS:
        if label is not None:
            ratio(label, lambda v: getattr(breakdowns[v], attr))
    if have_latency:
        ratio("Latency ratio", lambda v: measured[v].latency_total_s)
    return ComparisonReport(tuple(VARIANT_KINDS), tuple(rows))


def _format_cell(value, decimals: int | None) -> str:
    if value is None:
        return "-"
    if decimals is None:
        return str(int(value))
    return f"{value:.{decimals}f}"


def render_text(report: ComparisonReport) -> str:
    header = ["metric", *report.variants]
    table = [header]
    for row in report.rows:
        table.append([row.label, *(_format_cell(row.cells[v], row.decimals) for v in report.variants)])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    out = []
    for li, line in enumerate(table):
        out.append("  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(line)))
        if li == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def render_json(report: ComparisonReport) -> str:
    payload = {
        "variants": list(report.variants),
        "rows": [
            {"label": row.label, "cells": {v: row.cells[v] for v in report.variants}}
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["metric", *report.variants])
    for row in report.rows:
        writer.writerow([row.label, *("" if row.cells[v] is None else _format_cell(row.cells[v], row.decimals) for v in report.variants)])
    return buf.getvalue()


# format name -> (file extension, renderer)
REPORT_FORMATS = {"text": ("txt", render_text), "json": ("json", render_json), "csv": ("csv", render_csv)}


def write_report(report: ComparisonReport, fmt: str, path: str) -> int:
    """Renders the comparison in one of REPORT_FORMATS to `path`; returns bytes written."""
    if fmt not in REPORT_FORMATS:
        raise AnalysisError(f"format must be one of {sorted(REPORT_FORMATS)}, got {fmt!r}")
    return write_atomic(path, [REPORT_FORMATS[fmt][1](report).encode("utf-8")])
