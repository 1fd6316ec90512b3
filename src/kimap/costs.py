"""Parametric session-cost model: tag compute time, per-direction air time,
and serial backhaul time, with pass/fail checks against one deployment
envelope. :class:`CostParams` holds every settable value.

Arithmetic is exact (:class:`fractions.Fraction`) end to end; rounding
happens only at presentation, to two decimal places, half-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .bits import ParameterError
from .protocol import check_key_width


@dataclass(frozen=True)
class CostParams:
    """Deployment parameters. Defaults model a 64-bit deployment: a
    lightweight hash running one block in 33 cycles on a 100 kHz tag,
    640 kbps tag-to-reader and 126 kbps reader-to-tag air rates, and a
    20 kbps serial reader-to-server link. A session moves 2*lambda bits up
    (nonce + tag authenticator) and, with ``candidates`` c = 1, 3*lambda bits
    down (challenge + one sigma/delta candidate) while the tag computes 4
    hash-equivalents: the c = 1 case of :attr:`downlink_bits` and
    :attr:`tag_hash_ops`. The serial backhaul is also priced for a batch of
    ``batch_tags`` tags."""

    lambda_bits: int = 64
    hash_cycles_per_block: int = 33
    tag_clock_hz: int = 100_000
    t2r_rate_bps: int = 640_000
    r2t_rate_bps: int = 126_000
    serial_rate_bps: int = 20_000
    candidates: int = 1
    batch_tags: int = 200

    def __post_init__(self) -> None:
        check_key_width(self.lambda_bits)
        for name in ("hash_cycles_per_block", "tag_clock_hz", "t2r_rate_bps",
                     "r2t_rate_bps", "serial_rate_bps", "candidates", "batch_tags"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")

    @property
    def tag_hash_ops(self) -> int:
        """The nonce draw, one hash per candidate scanned, then the tag
        authenticator and the key update: 3 + c hash-equivalents."""
        return 3 + self.candidates

    @property
    def uplink_bits(self) -> int:
        return 2 * self.lambda_bits

    @property
    def downlink_bits(self) -> int:
        """Challenge plus (sigma, delta) per candidate: lambda + 2*lambda*c."""
        return self.lambda_bits + 2 * self.lambda_bits * self.candidates


@dataclass(frozen=True)
class CostReport:
    params: CostParams
    hash_time_ms: Fraction
    tag_compute_ms: Fraction
    t2r_ms: Fraction
    r2t_ms: Fraction
    total_ms: Fraction
    single_serial_ms: Fraction
    batch_serial_s: Fraction

    def rounded(self, value: Fraction, places: int = 2) -> Decimal:
        q = Decimal(1).scaleb(-places)
        return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(q, ROUND_HALF_UP)

    def to_line(self) -> str:
        r = self.rounded
        return (f"costreport lambda={self.params.lambda_bits} "
                f"hash_ms={r(self.hash_time_ms)} tag_compute_ms={r(self.tag_compute_ms)} "
                f"t2r_ms={r(self.t2r_ms)} r2t_ms={r(self.r2t_ms)} total_ms={r(self.total_ms)} "
                f"approx_total_ms={r(self.total_ms, 1)} "
                f"single_serial_ms={r(self.single_serial_ms)} "
                f"batch_tags={self.params.batch_tags} batch_serial_s={r(self.batch_serial_s)}")

    def to_table(self) -> str:
        r = self.rounded
        rows = [
            ("hash (1 op)", f"{r(self.hash_time_ms)} ms"),
            (f"tag compute ({self.params.tag_hash_ops} ops)", f"{r(self.tag_compute_ms)} ms"),
            (f"tag->reader ({self.params.uplink_bits} bits)", f"{r(self.t2r_ms)} ms"),
            (f"reader->tag ({self.params.downlink_bits} bits)", f"{r(self.r2t_ms)} ms"),
            ("session total", f"{r(self.total_ms)} ms (~{r(self.total_ms, 1)} ms)"),
            ("serial backhaul, 1 tag", f"{r(self.single_serial_ms)} ms"),
            (f"serial backhaul, {self.params.batch_tags} tags", f"{r(self.batch_serial_s)} s"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def compute_cost(params: CostParams) -> CostReport:
    """Evaluate the cost model exactly."""
    hash_ms = Fraction(params.hash_cycles_per_block * 1000, params.tag_clock_hz)
    tag_compute = params.tag_hash_ops * hash_ms
    t2r = Fraction(params.uplink_bits * 1000, params.t2r_rate_bps)
    r2t = Fraction(params.downlink_bits * 1000, params.r2t_rate_bps)
    single_serial = Fraction(params.uplink_bits * 1000, params.serial_rate_bps)
    batch_serial = Fraction(params.batch_tags * params.uplink_bits, params.serial_rate_bps)
    return CostReport(
        params=params,
        hash_time_ms=hash_ms,
        tag_compute_ms=tag_compute,
        t2r_ms=t2r,
        r2t_ms=r2t,
        total_ms=tag_compute + t2r + r2t,
        single_serial_ms=single_serial,
        batch_serial_s=batch_serial,
    )


# The deployment envelope: a session must fit the low end of the available
# read window, and the reader must sustain the required tags per second.
_WINDOW_MIN_MS = Fraction(5)
_WINDOW_MAX_MS = Fraction(10)
_TAGS_PER_SECOND = 200


@dataclass(frozen=True)
class BudgetFinding:
    name: str
    passed: bool
    detail: str


def check_budget(report: CostReport) -> list[BudgetFinding]:
    """Compare a report against the deployment envelope."""
    total = report.total_ms
    session = f"session {report.rounded(total)} ms vs"
    per_tag = Fraction(1000, _TAGS_PER_SECOND)
    return [
        BudgetFinding("within_min_window", total <= _WINDOW_MIN_MS,
                      f"{session} {_WINDOW_MIN_MS} ms available"),
        BudgetFinding("within_max_window", total <= _WINDOW_MAX_MS,
                      f"{session} {_WINDOW_MAX_MS} ms available"),
        BudgetFinding("reading_rate", total <= per_tag,
                      f"{session} {report.rounded(per_tag)} ms for {_TAGS_PER_SECOND} tags/s"),
    ]
