"""Static cost model: multiply-accumulate counts, parameter counts, file size, class coverage.

All figures come from the network description alone. The multiply-accumulate
(MACC) convention counts one op per scalar multiply in conv and fc layers and
excludes bias additions; "trained MACC" restricts the sum to unfrozen layers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import prod

from .dataset import LabelCategories
from .errors import MhforgeError
from .modelfile import header_bytes
from .netspec import NetworkSpec, validate_shapes
from .surgery import VARIANT_KINDS


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


def class_coverage(categories) -> int:
    """Number of label combinations expressible: the product of per-category class counts."""
    counts = categories.class_counts if isinstance(categories, LabelCategories) else tuple(categories)
    total = 1
    for m in counts:
        if int(m) < 1:
            raise AnalysisError(f"class counts must be >= 1, got {m}")
        total *= int(m)
    return total


def _spec_coverage(spec: NetworkSpec) -> int:
    if spec.categories is not None:
        return class_coverage(spec.categories)
    heads = spec.heads()
    if not heads:
        return 0
    return class_coverage([h.out_features for h in heads])


def count_macc(spec: NetworkSpec, shapes: dict[str, tuple[int, int, int]] | None = None) -> CostBreakdown:
    """Full cost breakdown. macc = weight elements * Hout * Wout: K*K*Cin*Cout*Hout*Wout for conv, D*F for fc."""
    if shapes is None:
        shapes = validate_shapes(spec)
    layers = []
    macc_total = macc_trained = params_total = 0
    for lay in spec.layers:
        macc = params = 0
        if lay.has_params:
            try:
                weights = lay.weight_shape(shapes[lay.inputs[0]])
                _, h_out, w_out = shapes[lay.name]
            except KeyError:
                raise AnalysisError(f"no shape for input of layer {lay.name}; spec not validated") from None
            macc = prod(weights) * h_out * w_out
            params = prod(weights) + weights[0]
            macc_total += macc
            params_total += params
            if not lay.frozen:
                macc_trained += macc
        layers.append(LayerCost(lay.name, lay.kind, macc, params))
    return CostBreakdown(
        layers=tuple(layers),
        macc_total=macc_total,
        macc_trained=macc_trained,
        params_total=params_total,
        size_bytes_estimate=header_bytes(spec) + 4 * params_total,
        coverage=_spec_coverage(spec),
    )


def estimate_size(spec: NetworkSpec) -> int:
    """Exact byte length a saved model of this spec will have."""
    return count_macc(spec).size_bytes_estimate


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


def _ordered_union(dicts) -> list[str]:
    seen = []
    for d in dicts:
        for key in d:
            if key not in seen:
                seen.append(key)
    return seen


def compare_variants(
    breakdowns: dict[str, CostBreakdown], metrics: dict[str, VariantMetrics] | None = None
) -> ComparisonReport:
    """Side-by-side absolute costs plus proposed-over-others ratio rows.

    In ratio rows the proposed cell is 1.0 and every other cell is
    proposed / that variant, rounded to 3 decimals.
    """
    for kind in VARIANT_KINDS:
        if kind not in breakdowns:
            raise AnalysisError(f"missing variant entry {kind!r}; need all of {VARIANT_KINDS}")
    extra = set(breakdowns) - set(VARIANT_KINDS)
    if extra:
        raise AnalysisError(f"unknown variant entries {sorted(extra)}")
    metrics = metrics or {}

    rows: list[ReportRow] = []

    def metric_cells(attr: str, cat: str) -> dict[str, float | None]:
        out = {}
        for v in VARIANT_KINDS:
            value = getattr(metrics[v], attr).get(cat) if v in metrics else None
            out[v] = None if value is None else round(float(value), 4)
        return out

    cats = _ordered_union([getattr(metrics[v], a) for v in VARIANT_KINDS if v in metrics for a in ("accuracy", "loss")])
    for cat in cats:
        rows.append(ReportRow(f"Accuracy/{cat}", metric_cells("accuracy", cat), 4))
    for cat in cats:
        rows.append(ReportRow(f"Loss/{cat}", metric_cells("loss", cat), 4))

    def cost_row(label: str, attr: str) -> ReportRow:
        return ReportRow(label, {v: getattr(breakdowns[v], attr) for v in VARIANT_KINDS}, None)

    rows.append(cost_row("Size (bytes)", "size_bytes_estimate"))
    rows.append(cost_row("Parameters", "params_total"))
    rows.append(cost_row("Trained MACC", "macc_trained"))
    rows.append(cost_row("Total MACC", "macc_total"))
    rows.append(cost_row("Coverage", "coverage"))

    have_latency = any(v in metrics and metrics[v].latency_total_s is not None for v in VARIANT_KINDS)
    if have_latency:
        for label, attr, dec in (("Latency total (s)", "latency_total_s", 4), ("Latency/image (ms)", "latency_per_image_ms", 3)):
            cells = {}
            for v in VARIANT_KINDS:
                value = getattr(metrics[v], attr) if v in metrics else None
                cells[v] = None if value is None else round(float(value), dec)
            rows.append(ReportRow(label, cells, dec))

    def ratio_row(label: str, values: dict[str, float | int | None]) -> ReportRow:
        p = values["proposed"]
        cells: dict[str, float | int | None] = {}
        for v in VARIANT_KINDS:
            d = values[v]
            cells[v] = None if (p is None or d is None or d == 0) else round(p / d, 3)
        return ReportRow(label, cells, 3)

    for label, attr in (
        ("Size ratio (proposed/col)", "size_bytes_estimate"),
        ("Parameter ratio (proposed/col)", "params_total"),
        ("Trained MACC ratio (proposed/col)", "macc_trained"),
        ("Total MACC ratio (proposed/col)", "macc_total"),
    ):
        rows.append(ratio_row(label, {v: getattr(breakdowns[v], attr) for v in VARIANT_KINDS}))
    if have_latency:
        rows.append(
            ratio_row(
                "Latency ratio (proposed/col)",
                {v: (metrics[v].latency_total_s if v in metrics else None) for v in VARIANT_KINDS},
            )
        )
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
