"""The hardness-evaluation report (``eval/hardness.py``).

Covers the ISSUE acceptance bar directly: the b04 report shows TMR
converting >= 90% of the plain circuit's failing SEUs to non-failing
(here: all of them, to silent), area overhead per scheme, and bit-exact
rates across all three grading engines.
"""

import pytest

from repro.errors import CampaignError
from repro.eval.hardness import (
    DEFAULT_FAULT_MODELS,
    DEFAULT_SCHEMES,
    run_hardness_experiment,
)
from repro.faults.classify import FaultClass


@pytest.fixture(scope="module")
def b04_report():
    return run_hardness_experiment(
        "b04", schemes=("tmr", "dwc"), fault_models=("seu",)
    )


class TestB04Acceptance:
    def test_tmr_converts_failing_seus_to_silent(self, b04_report):
        reduction = b04_report.failure_reduction_pct("tmr", "seu")
        assert reduction >= 90.0
        tmr = b04_report.row("tmr")
        assert tmr.rates["seu"][FaultClass.SILENT] >= 90.0

    def test_plain_row_has_real_failures(self, b04_report):
        plain = b04_report.row(None)
        assert plain.rates["seu"][FaultClass.FAILURE] > 10.0
        assert plain.num_flops == 66

    def test_area_overhead_reported(self, b04_report):
        tmr = b04_report.row("tmr")
        assert tmr.overhead.ff_overhead_pct == pytest.approx(200.0)
        assert tmr.overhead.lut_overhead_pct > 0
        dwc = b04_report.row("dwc")
        assert dwc.overhead.ff_overhead_pct == pytest.approx(100.0)

    def test_render_contains_table_and_summary(self, b04_report):
        text = b04_report.render()
        assert "Hardness evaluation — b04" in text
        assert "hardened:tmr" in text
        assert "removes 100.0% of the plain seu failure rate" in text
        assert "detection coverage" in text

    def test_rates_sum_to_hundred(self, b04_report):
        for row in b04_report.rows:
            for rates in row.rates.values():
                assert sum(rates.values()) == pytest.approx(100.0)


class TestEngineAgreement:
    @pytest.mark.parametrize("engine", ("bigint",))
    def test_rates_bit_exact_across_engines(self, engine):
        """The fused report is the reference; every engine must agree."""
        kwargs = dict(
            schemes=("tmr", "parity"), fault_models=("seu",), num_cycles=24
        )
        fused = run_hardness_experiment("b02", engine="fused", **kwargs)
        other = run_hardness_experiment("b02", engine=engine, **kwargs)
        for fused_row, other_row in zip(fused.rows, other.rows):
            assert fused_row.rates == other_row.rates
            assert fused_row.populations == other_row.populations


class TestReportShape:
    def test_defaults_are_sane(self):
        assert "tmr" in DEFAULT_SCHEMES
        assert "seu" in DEFAULT_FAULT_MODELS

    def test_sampled_report(self):
        report = run_hardness_experiment(
            "b02",
            schemes=("tmr",),
            fault_models=("seu", "stuck_at_1"),
            num_cycles=24,
            sample=50,
        )
        for row in report.rows:
            # samples is what was graded; populations the complete fault
            # set the sample was drawn from (the pre-fix code conflated
            # the two under --sample)
            assert row.samples["seu"] == 50
            assert row.populations["seu"] == row.num_flops * 24
            assert row.populations["seu"] > row.samples["seu"]
            for model in ("seu", "stuck_at_1"):
                estimates = row.estimates[model]
                for estimate in estimates.values():
                    assert estimate.trials == 50
                    assert estimate.half_width > 0
        rendered = report.render()
        assert "sample=50" in rendered
        assert "±" in rendered
        assert "Wilson 95% half-widths" in rendered

    def test_exhaustive_report_has_no_estimates(self):
        report = run_hardness_experiment(
            "b02", schemes=("tmr",), fault_models=("seu",), num_cycles=24
        )
        for row in report.rows:
            assert row.samples["seu"] == row.populations["seu"]
            assert not row.estimates
        assert "±" not in report.render()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(CampaignError, match="nope"):
            run_hardness_experiment("b02", schemes=("nope",))

    def test_empty_fault_models_rejected(self):
        with pytest.raises(CampaignError, match="at least one fault model"):
            run_hardness_experiment("b02", fault_models=())

    def test_failure_reduction_handles_zero_plain_rate(self):
        report = run_hardness_experiment(
            "b02", schemes=("tmr",), fault_models=("seu",), num_cycles=24
        )
        # b02 has real plain failures; synthesise the zero case directly
        plain = report.row(None)
        plain.rates["seu"][FaultClass.FAILURE] = 0.0
        tmr = report.row("tmr")
        tmr.rates["seu"][FaultClass.FAILURE] = 0.0
        assert report.failure_reduction_pct("tmr", "seu") == 0.0
        tmr.rates["seu"][FaultClass.FAILURE] = 5.0
        # no baseline to reduce: the metric is undefined, not +/-inf...
        assert report.failure_reduction_pct("tmr", "seu") is None
        # ...and render says so instead of printing '-inf%'
        assert "n/a for seu" in report.render()
        assert "-inf" not in report.render()

    def test_hardened_baseline_rejected(self):
        """The baseline must be plain: a hardened: name would silently
        grade the protected circuit as its own reference."""
        with pytest.raises(CampaignError, match="plain circuit name"):
            run_hardness_experiment("hardened:tmr:b02", schemes=("tmr",))
