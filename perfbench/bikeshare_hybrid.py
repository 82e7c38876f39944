"""bikeshare_hybrid: the BikeShare app in process on an ``SStoreEngine``.

The seeded ``BikeShareSimulation`` drives the app tick by tick: checkouts,
returns and discount acceptances (OLTP), one GPS ``ingest`` per tick
(streaming), and the discount workflow fed by the OLTP calls' emits
(hybrid).  Every ``DASHBOARD_EVERY`` ticks an operator dashboard refresh
runs the app's five observation queries; the billing total among them is a
full-table aggregate over a preloaded history, served by the vector lane.

The city has the demo's nine stations but five times its fleet and seven
times its riders, and a trip starts (or fails to, at an empty station)
every tick, so each tick's ingest carries tens of fixes.  Set-up ends with
``warmup_ticks`` of simulation, about one trip's length, so the timed phase
starts with rides in flight rather than on an empty map.
"""

from __future__ import annotations

import gc
import os
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

from harness import (
    RunConfig,
    SpanReport,
    Completions,
    Tally,
    build_timed,
    engine_counter_metrics,
    latencies,
    obs_metrics,
    p50,
    p99,
    peak_rss_mb,
    ratio,
    report_checks,
    trace_report,
)
from model import (
    check_alerts,
    check_billing,
    check_fleet,
    check_ride_distances,
    check_stations,
)
from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.core.engine import SStoreEngine
from repro.obs.config import ObsConfig

TRIP_SPEED_MPH = 50.0  # under the 60 mph stolen-bike threshold
THEFT_AT_TICK = 5  # early, while every station still has bikes to steal
DASHBOARD_EVERY = 5
#: aborts the simulation expects and handles; any other abort is a failure
EXPECTED_ABORTS = {
    "checkout": ("has no bikes available",),
    "return_bike": ("has no free docks",),
    "accept_discount": ("not open",),
}


@dataclass
class Sizes:
    stations: int
    capacity: int
    bikes_per_station: int
    riders: int
    billing_rows: int
    warmup_ticks: int
    setup_repeats: int


FULL = Sizes(stations=9, capacity=40, bikes_per_station=25, riders=300,
             billing_rows=20_000, warmup_ticks=60, setup_repeats=7)
SMALL = Sizes(stations=9, capacity=8, bikes_per_station=5, riders=40,
              billing_rows=500, warmup_ticks=20, setup_repeats=1)


class BenchApp(BikeShareApp):
    """The app as the simulation sees it, with every call timed and recorded.

    Results are recorded from the first tick (fares feed the billing check);
    latencies and operation counts only while ``timing`` is on.
    """

    def __init__(self, engine: SStoreEngine, sizes: Sizes, tally: Tally) -> None:
        super().__init__(
            engine,
            num_stations=sizes.stations,
            capacity=sizes.capacity,
            bikes_per_station=sizes.bikes_per_station,
            num_riders=sizes.riders,
        )
        self.tally = tally
        self.timing = False
        self.traced = engine.tracer.enabled
        self.fares: list[float] = []
        self.thief_bike: int | None = None
        self.ingest_lat = latencies()
        self.oltp_lat = latencies()
        self.fixes = 0
        self.ingests = 0
        self.tasks = 0
        self.oltp_calls = 0
        self.done: Completions | None = None

    def _timed(self, name: str, fn: Any, *args: Any) -> tuple[Any, float]:
        self.tally.attempted += 1
        started = time.perf_counter()
        try:
            if self.traced:
                with self.engine.tracer.span("bench", name):
                    result = fn(*args)
            else:
                result = fn(*args)
        except Exception as exc:
            self.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise
        return result, (time.perf_counter() - started) * 1e6

    def report_gps(self, fixes: list[tuple[int, int, float, float]]) -> int:
        if not self.timing:
            return super().report_gps(fixes)
        before = len(self.engine.schedule_history)
        accepted, us = self._timed("ingest", super().report_gps, fixes)
        self.tasks += len(self.engine.schedule_history) - before
        self.ingest_lat.append(us)
        self.ingests += 1
        self.fixes += len(fixes)
        self.done.add(len(fixes))
        # a GPS fix is one operation; the tally counted the call as one
        self.tally.attempted += len(fixes) - 1
        return accepted

    def _oltp(self, name: str, fn: Any, *args: Any):
        if self.timing:
            result, us = self._timed(name, fn, *args)
            self.oltp_lat.append(us)
            self.oltp_calls += 1
            self.done.add()
        else:
            result = fn(*args)
        if not result.success and not any(
            expected in (result.error or "") for expected in EXPECTED_ABORTS.get(name, ())
        ):
            self.tally.fail(f"{name}{args}: unexpected abort: {result.error}")
        return result

    def checkout(self, rider_id: int, station_id: int, ts: int):
        result = self._oltp("checkout", super().checkout, rider_id, station_id, ts)
        if ts == THEFT_AT_TICK and self.thief_bike is None and result.success:
            # the simulation starts the theft before any trip of its tick
            self.thief_bike = self.engine.execute_sql(
                "SELECT bike_id FROM bikes WHERE rider_id = ?", rider_id
            ).scalar()
        return result

    def return_bike(self, rider_id: int, station_id: int, ts: int):
        result = self._oltp("return_bike", super().return_bike, rider_id, station_id, ts)
        if result.success:
            self.fares.append(result.data)
        return result

    def accept_discount(self, rider_id: int, discount_id: int, ts: int):
        return self._oltp("accept_discount", super().accept_discount, rider_id, discount_id, ts)

    def expire_discounts(self, ts: int):
        return self._oltp("expire_discounts", super().expire_discounts, ts)


@dataclass
class City:
    app: BenchApp
    sim: BikeShareSimulation
    preload: list[float]


def _build(cfg: RunConfig, sizes: Sizes, tally: Tally, obs: ObsConfig | None) -> City:
    app = BenchApp(SStoreEngine(obs=obs), sizes, tally)
    rng = random.Random(cfg.seed * 104729 + 3)
    preload = [round(1.0 + rng.random() * 9.0, 4) for _ in range(sizes.billing_rows)]
    for charge_id, amount in enumerate(preload):
        app.engine.execute_sql(
            "INSERT INTO billing VALUES (?, ?, ?, ?)",
            charge_id, 1 + charge_id % sizes.riders, -1 - charge_id, amount,
        )
    sim = BikeShareSimulation(
        app,
        seed=cfg.seed,
        trip_speed_mph=TRIP_SPEED_MPH,
        trip_start_probability=1.0,
        drain_station=1,
        theft_at_tick=THEFT_AT_TICK,
    )
    sim.run(sizes.warmup_ticks)
    _dashboard(app)  # plans the five queries and builds the billing mirror
    return City(app, sim, preload)


def _dashboard(app: BikeShareApp) -> tuple[list, float, float]:
    stations = app.stations()
    app.open_discounts()
    app.alerts()
    app.city_speed()
    started = time.perf_counter()
    total = app.billing_total()
    return stations, total, (time.perf_counter() - started) * 1e6


@dataclass
class Phase:
    setup_s: float
    rate: float
    ticks: int
    ops: int
    write_lat: array
    read_lat: array
    oltp_lat: array
    history_lat: array
    counters: dict[str, int]
    tasks_per_ingest: float
    rss_mb: float
    ok: bool
    spans: SpanReport | None = None
    extra: dict[str, float] = field(default_factory=dict)


def _phase(cfg: RunConfig, sizes: Sizes, tally: Tally, seconds: float, *, traced: bool) -> Phase:
    obs = ObsConfig(tracing=True, metrics=True, trace_capacity=1 << 18) if traced else None
    city, setup_s = build_timed(
        1 if traced else sizes.setup_repeats,
        lambda: _build(cfg, sizes, Tally(), obs),
        lambda old: old.app.engine.shutdown(),
    )
    app, sim = city.app, city.sim
    # an unexpected abort while warming up is a failure of this run too
    tally.failed += app.tally.failed
    tally.reasons += app.tally.reasons
    app.tally = tally
    fares_at_warmup = len(app.fares)

    read_lat, history_lat = latencies(), latencies()
    snapshots: list[tuple[list, float, int]] = []
    before = app.engine.stats.snapshot()
    ticks = 0
    app.timing = True
    # the span files and the per-layer figures cover the timed phase
    app.engine.tracer.collector.clear()
    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds
    app.done = Completions(started)
    try:
        while time.perf_counter() < deadline:
            sim.run(1)
            ticks += 1
            if ticks % DASHBOARD_EVERY:
                continue
            tally.attempted += 1
            t0 = time.perf_counter()
            if traced:
                with app.engine.tracer.span("bench", "dashboard"):
                    stations, total, history_us = _dashboard(app)
            else:
                stations, total, history_us = _dashboard(app)
            read_lat.append((time.perf_counter() - t0) * 1e6)
            app.done.add()
            history_lat.append(history_us)
            snapshots.append((stations, total, len(app.fares)))
    except Exception as exc:  # noqa: BLE001 - the failing call is in the tally
        print(f"  timed phase stopped: {type(exc).__name__}: {exc}")
    ended = time.perf_counter()
    elapsed = ended - started
    app.timing = False
    rss = peak_rss_mb([os.getpid()])
    after = app.engine.stats.snapshot()
    counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    ops = app.fixes + app.oltp_calls + len(read_lat)

    spans = None
    extra: dict[str, float] = {}
    if traced:
        collector = app.engine.tracer.collector
        spans = trace_report("bikeshare_hybrid", cfg, collector.spans(), collector.dropped,
                             extra)

    engine = app.engine
    stations = app.stations()
    finished = engine.execute_sql(
        "SELECT ride_id, rider_id, distance FROM rides WHERE end_ts IS NOT NULL"
    ).rows
    errors = {
        "ride distance = truth": check_ride_distances(
            sim.report.true_distances, finished, TRIP_SPEED_MPH / 3600.0
        ),
        "bikes + docks = capacity": check_stations(stations, sizes.capacity)
        + [e for snap, _t, _f in snapshots for e in check_stations(snap, sizes.capacity)][:5],
        "fleet conserved": check_fleet(
            engine.execute_sql("SELECT bike_id, status, station_id, rider_id FROM bikes").rows,
            stations,
            sizes.stations * sizes.bikes_per_station,
        ),
        "billing = preload + fares": check_billing(
            app.billing_total(), city.preload, app.fares
        )
        + [e for _s, total, n in snapshots
           for e in check_billing(total, city.preload, app.fares[:n])][:5],
        "one alert, thief's bike": check_alerts(app.alerts(), app.thief_bike),
    }
    print(f"  phase {'traced' if traced else 'untraced'}: {ticks} ticks, {app.ingests} "
          f"ingests, {app.fixes} fixes, {app.oltp_calls} OLTP calls "
          f"({len(app.fares) - fares_at_warmup} returns), {len(read_lat)} dashboards "
          f"in {elapsed:.2f} s")
    ok = report_checks(errors)
    engine.shutdown()
    return Phase(setup_s, app.done.rate(ended), ticks, ops, app.ingest_lat,
                 read_lat, app.oltp_lat, history_lat, counters,
                 ratio(app.tasks, app.ingests), rss, ok, spans, extra)


def run(cfg: RunConfig, sizes: Sizes) -> tuple[bool, Tally, dict[str, float]]:
    tally = Tally()
    if not cfg.trace:
        phase = _phase(cfg, sizes, tally, cfg.seconds, traced=False)
        return phase.ok, tally, {
            "setup_s": phase.setup_s,
            "throughput_ops_s": phase.rate,
            "write_p50_us": p50(phase.write_lat),
            "read_p50_us": p50(phase.read_lat),
            "peak_rss_mb": phase.rss_mb,
        }
    plain = _phase(cfg, sizes, tally, cfg.seconds / 2, traced=False)
    traced = _phase(cfg, sizes, tally, cfg.seconds / 2, traced=True)
    c = plain.counters
    report = traced.spans
    metrics = {
        **engine_counter_metrics(c, plain.ops),
        "write_p99_us": p99(plain.write_lat),
        "read_p99_us": p99(plain.read_lat),
        "vector.history_total_us": p50(plain.history_lat),
        "core.tasks_per_ingest": plain.tasks_per_ingest,
        "core.pe_ee_roundtrips_per_op": ratio(c.get("pe_ee_roundtrips", 0), plain.ops),
        "core.trigger_firings_per_op": ratio(
            c.get("pe_trigger_firings", 0) + c.get("ee_trigger_firings", 0), plain.ops),
        "core.window_slides_per_tick": ratio(c.get("window_slides", 0), plain.ticks),
        "core.oltp_call_us": p50(plain.oltp_lat),
        "core.workflow_self_us": report.per_op("repro.core"),
        "hstore.txn_self_us": report.per_kind(("txn", "call", "sql")),
        **obs_metrics(report, plain.rate, traced.rate),
        **traced.extra,
    }
    return plain.ok and traced.ok, tally, metrics

