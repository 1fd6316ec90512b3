"""Cost model arithmetic, rounding, and budget findings."""

from fractions import Fraction

import pytest

from kimap.bits import HashSpec, ParameterError, Prng
from kimap.costs import CostParams, check_budget, compute_cost
from kimap.protocol import keygen
from kimap.channel import run_session


def r2(report, value):
    return str(report.rounded(value))


class TestDefaults:
    def test_reference_figures_at_64_bits(self):
        report = compute_cost(CostParams())
        assert r2(report, report.hash_time_ms) == "0.33"
        assert r2(report, report.tag_compute_ms) == "1.32"
        assert r2(report, report.t2r_ms) == "0.20"
        assert r2(report, report.r2t_ms) == "1.52"
        assert r2(report, report.total_ms) == "3.04"
        assert str(report.rounded(report.total_ms, 1)) == "3.0"

    def test_serial_backhaul_figures(self):
        report = compute_cost(CostParams(batch_tags=200))
        assert r2(report, report.single_serial_ms) == "6.40"
        assert r2(report, report.batch_serial_s) == "1.28"
        assert report.params.uplink_bits * 200 == 25_600

    def test_default_bit_counts(self):
        p = CostParams()
        assert p.uplink_bits == 128   # nonce + tag authenticator
        assert p.downlink_bits == 192  # challenge + one sigma/delta pair

    def test_internal_arithmetic_is_exact(self):
        report = compute_cost(CostParams())
        assert report.r2t_ms == Fraction(192 * 1000, 126_000)
        assert report.total_ms == report.tag_compute_ms + report.t2r_ms + report.r2t_ms


class TestScaling:
    def test_times_scale_linearly(self):
        base = compute_cost(CostParams())
        doubled = compute_cost(CostParams(t2r_rate_bps=320_000))
        assert doubled.t2r_ms == 2 * base.t2r_ms

    def test_hash_ops_scale_linearly(self):
        base = compute_cost(CostParams())
        more = compute_cost(CostParams(candidates=5))
        assert more.params.tag_hash_ops == 8
        assert more.tag_compute_ms == 2 * base.tag_compute_ms

    def test_multi_candidate_downlink(self):
        p = CostParams(candidates=3)
        assert p.downlink_bits == 64 + 2 * 64 * 3

    def test_wider_keys_recompute(self):
        report = compute_cost(CostParams(lambda_bits=128))
        assert r2(report, report.t2r_ms) == "0.40"
        assert r2(report, report.r2t_ms) == "3.05"
        findings = check_budget(report)
        # the verdict is recomputed, not assumed: check it both ways
        assert all(f.passed for f in findings) == (report.total_ms <= Fraction(5))


class TestBudget:
    def test_defaults_pass(self):
        findings = check_budget(compute_cost(CostParams()))
        assert all(f.passed for f in findings)

    def test_inflated_hash_ops_fail(self):
        report = compute_cost(CostParams(hash_cycles_per_block=330))
        assert report.total_ms > Fraction(13)
        findings = check_budget(report)
        assert not all(f.passed for f in findings)

    def test_reading_rate_budget_tracks_window(self):
        findings = {f.name: f for f in check_budget(compute_cost(CostParams()))}
        assert findings["reading_rate"].passed
        assert findings["within_max_window"].passed

    def test_params_must_be_positive(self):
        refused("tag_clock_hz-0")

    @pytest.mark.parametrize("batch", [0, -5])
    def test_batch_must_be_positive(self, batch):
        refused(f"batch_tags-{batch}")

    @pytest.mark.parametrize("case", ["lambda_bits-63", "hash_cycles_per_block-0",
                                      "t2r_rate_bps-0", "r2t_rate_bps-0", "serial_rate_bps-0",
                                      "candidates-0"])
    def test_every_param_is_checked(self, case):
        refused(case)


class TestAgreementWithInstrumentation:
    def test_model_and_metered_tag_agree_on_hash_ops(self):
        # the model prices 4 hash-equivalent tag operations per session; an
        # instrumented single-candidate honest run must observe exactly that
        params = CostParams()
        server, tags = keygen(64, 1, Prng(42, 0))
        tag = tags[0]
        h0, p0, _ = tag.meter.snapshot()
        t = run_session(server, tag, [], HashSpec.production(64), label="t001")
        assert t.accepted
        h1, p1, _ = tag.meter.snapshot()
        assert (h1 - h0) + (p1 - p0) == params.tag_hash_ops == 4

    def test_model_prices_the_metered_c_candidate_session(self):
        # c records with no previous keys broadcast c candidates; the model
        # must price exactly the tag work a metered session does
        for c in range(1, 5):
            server, tags = keygen(64, c, Prng(70 + c, 0))
            tag = tags[0]
            h0, p0, _ = tag.meter.snapshot()
            t = run_session(server, tag, [], HashSpec.production(64), label="t001")
            h1, p1, _ = tag.meter.snapshot()
            assert t.accepted and len(t.broadcast.sigmas) == c
            report = compute_cost(CostParams(candidates=c))
            metered = (h1 - h0) + (p1 - p0)
            assert report.params.tag_hash_ops == metered, c
            assert report.tag_compute_ms == metered * report.hash_time_ms


class TestPresentation:
    def test_rounding_is_half_up(self):
        report = compute_cost(CostParams())
        assert str(report.rounded(Fraction(1, 8))) == "0.13"   # 0.125 rounds up
        assert str(report.rounded(Fraction(3, 200))) == "0.02"  # 0.015 rounds up

    def test_structured_line_stable(self):
        line = compute_cost(CostParams()).to_line()
        assert "total_ms=3.04" in line and "approx_total_ms=3.0" in line
        assert "single_serial_ms=6.40" in line and "batch_serial_s=1.28" in line

    def test_table_mentions_session_total(self):
        table = compute_cost(CostParams()).to_table()
        assert "session total" in table and "3.04 ms" in table


# Every call the costs module refuses: (its CostParams fields; the message of
# the ParameterError it raises). A CostParams is frozen, so nothing is left
# to change. The one test that names a row builds it, through :func:`refused`.
REFUSED_CALLS = {
    "lambda_bits-63": ({"lambda_bits": 63}, "key width must be even and >= 8, got 63"),
    **{f"{name}-0": ({name: 0}, f"{name} must be positive")
       for name in ("hash_cycles_per_block", "tag_clock_hz", "t2r_rate_bps", "r2t_rate_bps",
                    "serial_rate_bps", "candidates", "batch_tags")},
    "batch_tags--5": ({"batch_tags": -5}, "batch_tags must be positive"),
}


def refused(case):
    fields, message = REFUSED_CALLS[case]
    with pytest.raises(ParameterError) as err:
        CostParams(**fields)
    assert (type(err.value), str(err.value)) == (ParameterError, message)
