"""Figure test: the serving experiment's headline claim.

Under a 4x load spike, SLO-driven vertical scaling on adaptive views
achieves lower p99 latency than a static quota with the *same average*
reservation — and the whole run is bit-identical across repeated
invocations with the same seed.
"""

from repro.harness.experiments.exp_serve import run_one
from repro.harness.run_all import quick_params


def test_serve_adaptive_beats_static_equal(pinned):
    result = pinned("exp_serve")
    rows = {r["mode"]: r for r in result.tables["latency"].rows}
    adaptive, equal, peak = (rows["adaptive"], rows["static-equal"],
                             rows["static-peak"])

    # All three policies saw identical traffic and finished it.
    assert adaptive["generated"] == equal["generated"] == peak["generated"]
    assert adaptive["completed"] == adaptive["generated"] - adaptive["shed"]

    # The headline: adaptive beats the equal-average static quota on
    # p99 — overall and within the spike window — at (by construction)
    # the same average reservation.
    assert adaptive["p99"] < equal["p99"]
    assert adaptive["spike_p99"] < equal["spike_p99"]
    assert abs(adaptive["reserved_avg_cores"] - equal["reserved_avg_cores"]) < 1e-9

    # Peak provisioning buys its latency with a much larger standing
    # reservation than the adaptive average.
    assert peak["reserved_avg_cores"] > 1.5 * adaptive["reserved_avg_cores"]

    # The autoscaler actually moved: the quota trace is not flat.
    trace = [r["cores_per_replica"] for r in
             result.tables["autoscaler_trace"].rows]
    assert max(trace) > min(trace)


def test_serve_bit_identical_across_runs():
    params = quick_params("exp_serve")
    first = run_one(params, static_cores=None)
    second = run_one(params, static_cores=None)
    # Bit-identical: the full latency distribution (bucket counts, exact
    # sum, min/max), the quota trace, and the reservation integral — not
    # just summary statistics.
    assert first.hist == second.hist
    assert first.cores_trace == second.cores_trace
    assert first.reserved_avg == second.reserved_avg
    assert first.generated == second.generated
    assert (first.p50, first.p95, first.p99) == (second.p50, second.p95,
                                                 second.p99)
