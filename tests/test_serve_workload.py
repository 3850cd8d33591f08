"""Workload generators: arrival processes and request generation."""

import pytest

from repro.datasets import load
from repro.serve import (
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
    TraceReplay,
    generate_requests,
    make_arrival_process,
)


def _times(process, duration_ms=2000.0):
    return list(process.arrival_times_ms(duration_ms))


def test_poisson_is_reproducible_from_seed():
    a = _times(PoissonProcess(200.0, seed=11))
    b = _times(PoissonProcess(200.0, seed=11))
    c = _times(PoissonProcess(200.0, seed=12))
    assert a == b
    assert a != c
    assert all(0.0 <= t < 2000.0 for t in a)
    assert a == sorted(a)


def test_poisson_mean_rate_is_close_to_target():
    times = list(PoissonProcess(500.0, seed=0).arrival_times_ms(20000.0))
    observed_rate = len(times) / 20.0
    assert observed_rate == pytest.approx(500.0, rel=0.1)


def test_bursty_preserves_long_run_mean_rate():
    times = list(BurstyProcess(500.0, seed=1).arrival_times_ms(60000.0))
    observed_rate = len(times) / 60.0
    assert observed_rate == pytest.approx(500.0, rel=0.15)


def test_bursty_is_actually_bursty():
    """Inter-arrival gaps should be far more variable than Poisson's."""
    import statistics

    def squared_cv(process):
        times = _times(process, duration_ms=30000.0)
        gaps = [b - a for a, b in zip(times[:-1], times[1:])]
        mean = statistics.mean(gaps)
        return statistics.pvariance(gaps) / (mean * mean)

    # Poisson gaps have CV^2 ~= 1; on/off modulation pushes it well above.
    assert squared_cv(BurstyProcess(300.0, seed=2)) > 1.5 * squared_cv(
        PoissonProcess(300.0, seed=2)
    )


def test_trace_replay_is_deterministic_and_rescaled():
    trace = [0.0, 1.0, 3.0, 6.0, 10.0]
    a = _times(TraceReplay(100.0, trace, seed=0), duration_ms=500.0)
    b = _times(TraceReplay(100.0, trace, seed=99), duration_ms=500.0)
    assert a == b  # no randomness consumed
    gaps = [y - x for x, y in zip(([0.0] + a)[:-1], a)]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(10.0, rel=0.2)  # 100 req/s -> 10 ms gaps


def test_diurnal_is_reproducible_from_seed():
    a = _times(DiurnalProcess(200.0, seed=7))
    b = _times(DiurnalProcess(200.0, seed=7))
    c = _times(DiurnalProcess(200.0, seed=8))
    assert a == b
    assert a != c
    assert a == sorted(a)


def test_diurnal_swings_between_trough_and_peak():
    """Arrivals concentrate around the rate curve's peak quarter-period and
    thin out around the trough, while the long-run mean stays on target."""
    process = DiurnalProcess(400.0, seed=0, period_ms=4000.0, trough_fraction=0.25)
    times = _times(process, duration_ms=40000.0)
    observed_rate = len(times) / 40.0
    assert observed_rate == pytest.approx(400.0, rel=0.1)

    def count_in_phase(center_fraction):
        lo = center_fraction - 0.125
        hi = center_fraction + 0.125
        return sum(1 for t in times if lo <= (t % 4000.0) / 4000.0 < hi)

    peak = count_in_phase(0.25)  # sin maximum
    trough = count_in_phase(0.75)  # sin minimum
    assert peak > 3 * trough


def test_diurnal_rate_curve_matches_the_formula():
    process = DiurnalProcess(100.0, seed=0, period_ms=1000.0, trough_fraction=0.25)
    assert process.rate_at(0.0) == pytest.approx(100.0)
    assert process.rate_at(250.0) == pytest.approx(175.0)  # peak: 2 - trough
    assert process.rate_at(750.0) == pytest.approx(25.0)  # trough fraction
    with pytest.raises(ValueError):
        DiurnalProcess(100.0, period_ms=0.0)
    with pytest.raises(ValueError):
        DiurnalProcess(100.0, trough_fraction=1.5)


def test_flash_crowd_is_reproducible_from_seed():
    kwargs = dict(flash_at_ms=500.0, flash_duration_ms=300.0, flash_multiplier=6.0)
    a = _times(FlashCrowdProcess(200.0, seed=5, **kwargs))
    b = _times(FlashCrowdProcess(200.0, seed=5, **kwargs))
    c = _times(FlashCrowdProcess(200.0, seed=6, **kwargs))
    assert a == b
    assert a != c
    assert a == sorted(a)


def test_flash_crowd_rate_jumps_only_inside_the_window():
    process = FlashCrowdProcess(
        300.0, seed=1, flash_at_ms=1000.0, flash_duration_ms=500.0, flash_multiplier=8.0
    )
    assert process.rate_at(999.0) == pytest.approx(300.0)
    assert process.rate_at(1000.0) == pytest.approx(2400.0)
    assert process.rate_at(1499.0) == pytest.approx(2400.0)
    assert process.rate_at(1500.0) == pytest.approx(300.0)
    times = _times(process, duration_ms=2000.0)
    inside = [t for t in times if 1000.0 <= t < 1500.0]
    outside = [t for t in times if t < 1000.0 or t >= 1500.0]
    # The 500 ms window at 8x should out-arrive the 1500 ms baseline remainder.
    assert len(inside) > len(outside)
    inside_rate = len(inside) / 0.5
    assert inside_rate == pytest.approx(2400.0, rel=0.25)


def test_flash_crowd_validates_its_window():
    with pytest.raises(ValueError):
        FlashCrowdProcess(100.0, flash_at_ms=-1.0)
    with pytest.raises(ValueError):
        FlashCrowdProcess(100.0, flash_duration_ms=0.0)
    with pytest.raises(ValueError):
        FlashCrowdProcess(100.0, flash_multiplier=0.5)


def test_make_arrival_process_forwards_process_kwargs():
    process = make_arrival_process(
        "flash-crowd", 100.0, seed=2, flash_at_ms=10.0, flash_multiplier=3.0
    )
    assert isinstance(process, FlashCrowdProcess)
    assert process.flash_multiplier == 3.0
    diurnal = make_arrival_process("diurnal", 100.0, period_ms=2500.0)
    assert isinstance(diurnal, DiurnalProcess)
    assert diurnal.period_ms == 2500.0
    with pytest.raises(TypeError):
        make_arrival_process("poisson", 100.0, flash_at_ms=10.0)


def test_make_arrival_process_registry():
    assert isinstance(make_arrival_process("poisson", 10.0), PoissonProcess)
    assert isinstance(make_arrival_process("bursty", 10.0), BurstyProcess)
    assert isinstance(
        make_arrival_process("trace", 10.0, trace_timestamps=[0.0, 1.0, 2.0]),
        TraceReplay,
    )
    with pytest.raises(KeyError):
        make_arrival_process("uniform", 10.0)
    with pytest.raises(ValueError):
        make_arrival_process("trace", 10.0)  # missing trace


def test_generate_requests_slices_the_stream_in_order():
    stream = load("wikipedia", scale="tiny").stream
    requests = generate_requests(
        stream, PoissonProcess(400.0, seed=3), duration_ms=300.0,
        events_per_request=2, slo_ms=25.0,
    )
    assert requests
    for index, request in enumerate(requests):
        assert request.request_id == index
        assert request.num_events == 2
        assert request.slo_ms == 25.0
        assert request.deadline_ms == pytest.approx(request.arrival_ms + 25.0)
    # Payloads are consecutive slices: concatenating any prefix stays sorted.
    firsts = [float(r.payload.timestamps[0]) for r in requests]
    assert firsts == sorted(firsts)


def test_generate_requests_never_outruns_the_stream():
    stream = load("wikipedia", scale="tiny").stream
    requests = generate_requests(
        stream, PoissonProcess(100000.0, seed=0), duration_ms=100000.0,
        events_per_request=3,
    )
    assert len(requests) == stream.num_events // 3


NON_FINITE_OR_NON_POSITIVE = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("rate", NON_FINITE_OR_NON_POSITIVE)
def test_arrival_process_rejects_bad_rates(rate):
    with pytest.raises(ValueError, match="arrival rate"):
        PoissonProcess(rate)
    with pytest.raises(ValueError, match="arrival rate"):
        make_arrival_process("flash-crowd", rate)


@pytest.mark.parametrize("duration_ms", NON_FINITE_OR_NON_POSITIVE)
def test_arrival_times_reject_bad_durations(duration_ms):
    with pytest.raises(ValueError, match="duration"):
        list(PoissonProcess(100.0).arrival_times_ms(duration_ms))


@pytest.mark.parametrize("slo_ms", NON_FINITE_OR_NON_POSITIVE)
def test_generate_requests_rejects_bad_slo(slo_ms):
    stream = load("wikipedia", scale="tiny").stream
    with pytest.raises(ValueError, match="slo_ms"):
        generate_requests(stream, PoissonProcess(100.0), duration_ms=50.0, slo_ms=slo_ms)
