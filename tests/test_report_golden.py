"""The comparison report's exact bytes in every format, against files kept in tests/golden/.

The inputs cover a variant without metrics (its cells read "-"), a category
that only one variant reports, integer metric values, a zero denominator in a
ratio row, and the latency rows.
"""

from pathlib import Path

import pytest

from mhforge.analysis import CostBreakdown, VariantMetrics, compare_variants, render_csv, render_json, render_text

GOLDEN = Path(__file__).parent / "golden"


def golden_report():
    def costs(size, params, trained, total, coverage):
        return CostBreakdown(
            layers=(),
            macc_total=total,
            macc_trained=trained,
            params_total=params,
            size_bytes_estimate=size,
            coverage=coverage,
        )

    breakdowns = {
        "proposed": costs(12345, 3000, 136, 98765, 16),
        "two_model": costs(24607, 5916, 136, 197394, 16),
        "hard_coded": costs(12389, 3010, 0, 98775, 16),  # no trained MACC: its ratio cell has no value
    }
    metrics = {
        "proposed": VariantMetrics(  # integer metrics are written as floats
            {"shape": 0.97514, "position": 1}, {"shape": 0.0812345, "position": 0}, 1.234567, 0.6172835
        ),
        "two_model": VariantMetrics({"shape": 0.96}, {"shape": 0.10009}, 2.5, 1.25),  # no "position"
        # hard_coded reports nothing
    }
    return compare_variants(breakdowns, metrics)


@pytest.mark.parametrize(
    "render,name",
    [(render_text, "report.txt"), (render_json, "report.json"), (render_csv, "report.csv")],
    ids=["text", "json", "csv"],
)
def test_rendered_report_matches_golden_bytes(render, name):
    assert render(golden_report()).encode("utf-8") == (GOLDEN / name).read_bytes()
