"""voter_tcp: Voter ``validate_vote`` through the TCP front door.

One process, one asyncio event loop: the ``NetServer`` and two client
connections share it (the engine still runs on the server's engine
thread).  The writer connection keeps ``WINDOW`` ``validate_vote`` calls
outstanding; the reader connection keeps one point read outstanding, on a
phone whose vote was already acknowledged.  The engine logs with
``fsync_log=True``, so every acknowledgement waits for a real fsync.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

from harness import (
    RunConfig,
    SpanReport,
    Completions,
    Tally,
    VoteStream,
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
    write_vote_file,
)
from model import (
    VoterModel,
    check_reads,
    check_same_rows,
    check_vote_outcomes,
    check_voter_state,
)
from repro.apps.voter import schema
from repro.apps.voter.procedures import ValidateVote
from repro.hstore.engine import HStoreEngine
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.obs.config import ObsConfig
from repro.obs.trace import TraceCollector, Tracer, now_us

#: validate_vote calls the writer keeps outstanding
WINDOW = 16
READ_SQL = "SELECT contestant_number FROM votes WHERE phone_number = ?"
#: writes per second of timed phase the vote stream is sized for, about
#: four times what the program does today; a run that uses the stream up
#: fails rather than generate more while it is timed
WRITE_CAP = 20_000
#: the reader picks among the most recently acked votes
ACK_RING = 4096


@dataclass
class Sizes:
    prior_votes: int
    setup_repeats: int


FULL = Sizes(prior_votes=20_000, setup_repeats=7)
SMALL = Sizes(prior_votes=500, setup_repeats=1)


def build_engine(obs: ObsConfig | None = None, *, seed_rows: bool = True) -> HStoreEngine:
    engine = HStoreEngine(obs=obs)
    schema.install_tables(engine)
    if seed_rows:
        schema.seed_contestants(engine)
    engine.register_procedure(ValidateVote)
    return engine


@dataclass
class Served:
    engine: HStoreEngine
    server: NetServer
    writer: NetClient
    reader: NetClient
    log_dir: str
    prior_accepted: list[bool]


async def _build(cfg: RunConfig, prior: list[tuple], obs: ObsConfig | None,
                 tracer: Tracer | None) -> Served:
    log_dir = tempfile.mkdtemp(prefix="voter_tcp-", dir=cfg.out_dir)
    engine = build_engine(obs)
    prior_accepted = []
    for vote in prior:
        result = engine.call_procedure("validate_vote", *vote)
        prior_accepted.append(bool(result.data))
    engine.enable_durability(log_dir, fsync_log=True)
    server = NetServer(engine, **({"trace_sample": 1} if tracer else {}))
    await server.start()
    writer = await NetClient.connect("127.0.0.1", server.port, tracer=tracer)
    reader = await NetClient.connect("127.0.0.1", server.port, tracer=tracer)
    # plan the read once so the timed phase starts with a warm plan cache
    await reader.execute_sql(READ_SQL, prior[0][0])
    return Served(engine, server, writer, reader, log_dir, prior_accepted)


async def _teardown(served: Served, *, keep_log: bool = False) -> None:
    await served.writer.close()
    await served.reader.close()
    await served.server.stop()
    served.engine.shutdown()
    if not keep_log:
        shutil.rmtree(served.log_dir, ignore_errors=True)


@dataclass
class Timed:
    """What the timed phase recorded, compactly: its memory grows by a few
    bytes per operation, so the benchmark's own share of ``peak_rss_mb``
    hardly moves with the program's speed."""

    rate: float
    elapsed: float
    write_lat: array
    read_lat: array
    #: per write, in send order: 1 accepted, 0 rejected, -1 failed
    outcomes: array
    #: per read: the stream index of the vote read, and what came back
    read_index: array
    read_got: list[Any]
    links: dict[int, int]

    @property
    def ops(self) -> int:
        return len(self.write_lat) + len(self.read_lat)


@dataclass
class Phase:
    setup_s: float
    timed: Timed
    stats: dict[str, Any]
    rss_mb: float
    ok: bool
    extra: dict[str, float] = field(default_factory=dict)
    spans: SpanReport | None = None


def _phase(runner: asyncio.Runner, cfg: RunConfig, sizes: Sizes, tally: Tally,
           votes: VoteStream, seconds: float, *, traced: bool,
           layer_probes: bool) -> Phase:
    prior = votes.take_many(sizes.prior_votes)
    obs = ObsConfig(tracing=True, metrics=True, trace_capacity=1 << 18) if traced else None
    tracer = (Tracer(process="client", origin=97, collector=TraceCollector(1 << 18))
              if traced else None)
    served, setup_s = build_timed(
        1 if traced else sizes.setup_repeats,
        lambda: runner.run(_build(cfg, prior, obs, tracer)),
        lambda old: runner.run(_teardown(old)),
    )
    ring = [(vote[0], vote[1], index) for index, (vote, ok)
            in enumerate(zip(prior, served.prior_accepted)) if ok][-ACK_RING:]
    before = runner.run(served.reader.stats())
    if traced:
        # the span files and the per-layer figures cover the timed phase
        served.engine.tracer.collector.clear()
        tracer.collector.clear()
    timed = runner.run(_timed(served, votes, ring, tracer, tally, seconds,
                              random.Random(cfg.seed * 7919 + 1)))
    rss = peak_rss_mb([os.getpid()])
    after = runner.run(served.reader.stats())
    stats = {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()
               if isinstance(v, (int, float))}
        for part in ("server", "engine")
    }

    prior_n = len(prior)
    rows = votes.rows(prior_n + len(timed.outcomes))
    votes.close()
    extra: dict[str, float] = {}
    if layer_probes:
        extra.update(runner.run(_probes(served, rows[prior_n:prior_n + 2000])))
    spans = None
    if traced:
        spans = _trace_report(cfg, served, tracer, timed.links, extra)

    # every acked write is in the served state; a fresh engine restored
    # from the durability directory must hold exactly the same state
    engine = served.engine
    vote_rows = engine.execute_sql("SELECT * FROM votes").rows
    stat_rows = engine.execute_sql("SELECT * FROM election_stats").rows
    runner.run(_teardown(served, keep_log=True))
    restored = build_engine(seed_rows=False)
    restored.restore_from_disk(served.log_dir)
    model = VoterModel(range(1, schema.NUM_CONTESTANTS + 1))
    ordered = list(zip(prior, served.prior_accepted)) + [
        (vote, bool(ok)) for vote, ok in zip(rows[prior_n:], timed.outcomes) if ok >= 0
    ]
    reads = [(rows[index][0], rows[index][1], got)
             for index, got in zip(timed.read_index, timed.read_got)]
    errors = {
        "vote outcomes = model": check_vote_outcomes(model, ordered),
        "votes table = model": check_voter_state(model, vote_rows, stat_rows[0][2]),
        "reads = acked votes": check_reads(reads),
        "restored = served": check_same_rows(
            "votes", vote_rows, restored.execute_sql("SELECT * FROM votes").rows
        )
        + check_same_rows(
            "election_stats", stat_rows,
            restored.execute_sql("SELECT * FROM election_stats").rows,
        ),
    }
    restored.shutdown()
    shutil.rmtree(served.log_dir, ignore_errors=True)
    print(f"  phase {'traced' if traced else 'untraced'}: {len(timed.write_lat)} writes, "
          f"{len(timed.read_lat)} reads in {timed.elapsed:.2f} s")
    ok = report_checks(errors)
    return Phase(setup_s, timed, stats, rss, ok, extra, spans)


async def _timed(served: Served, votes: VoteStream, ring: list[tuple[str, int, int]],
                 tracer: Tracer | None, tally: Tally, seconds: float,
                 rng: random.Random) -> Timed:
    """``WINDOW`` writers and one reader, closed loop, for ``seconds``."""
    first = votes.taken
    write_lat, read_lat = latencies(), latencies()
    outcomes = array("b")
    read_index = array("q")
    read_got: list[Any] = []
    links: dict[int, int] = {}
    acks = 0
    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds
    done = Completions(started)

    async def write_slot() -> None:
        nonlocal acks
        while time.perf_counter() < deadline:
            index = votes.taken
            vote = votes.take()
            outcomes.append(-1)
            tally.attempted += 1
            t0 = time.perf_counter()
            if tracer is not None:
                bench_id = tracer.alloc_id()
                # the client's own call span takes the next id from the same
                # tracer before the request's first await
                links[bench_id + 1] = bench_id
                b0 = now_us()
            try:
                result = await served.writer.call_procedure("validate_vote", *vote)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                tally.fail(f"validate_vote {vote}: {type(exc).__name__}: {exc}")
                continue
            write_lat.append((time.perf_counter() - t0) * 1e6)
            if tracer is not None:
                tracer.record_span("bench", "validate_vote", trace_id=bench_id,
                                   span_id=bench_id, start_us=b0, end_us=now_us())
            if not result.success:
                tally.fail(f"validate_vote {vote} aborted: {result.error}")
                continue
            done.add()
            outcomes[index - first] = 1 if result.data else 0
            if result.data:
                entry = (vote[0], vote[1], index)
                if len(ring) < ACK_RING:
                    ring.append(entry)
                else:
                    ring[acks % ACK_RING] = entry
                acks += 1

    async def read_loop() -> None:
        while time.perf_counter() < deadline:
            phone, _contestant, index = ring[rng.randrange(len(ring))]
            tally.attempted += 1
            t0 = time.perf_counter()
            if tracer is not None:
                bench_id = tracer.alloc_id()
                links[bench_id + 1] = bench_id
                b0 = now_us()
            try:
                result = await served.reader.execute_sql(READ_SQL, phone)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                tally.fail(f"read {phone}: {type(exc).__name__}: {exc}")
                continue
            read_lat.append((time.perf_counter() - t0) * 1e6)
            if tracer is not None:
                tracer.record_span("bench", "read", trace_id=bench_id,
                                   span_id=bench_id, start_us=b0, end_us=now_us())
            done.add()
            read_index.append(index)
            read_got.append(result.scalar())

    await asyncio.gather(*(write_slot() for _ in range(WINDOW)), read_loop())
    ended = time.perf_counter()
    return Timed(done.rate(ended), ended - started, write_lat, read_lat, outcomes,
                 read_index, read_got, links)


async def _probes(served: Served, writes: list[tuple]) -> dict[str, float]:
    """Layer floors measured next to the workload, outside its timed phase."""
    pings = []
    for _ in range(300):
        t0 = time.perf_counter()
        await served.reader.ping()
        pings.append((time.perf_counter() - t0) * 1e6)

    request = {"id": 1, "proc": "validate_vote", "params": list(writes[0])}
    response = {"id": 1, "success": True, "data": [list(writes[0])], "error": None,
                "txn_id": 1, "partition": 0}
    codec = []
    for _ in range(2000):
        t0 = time.perf_counter()
        for frame_type, payload in ((proto.REQ_CALL, request), (proto.RESP_RESULT, response)):
            proto.FrameDecoder().feed(proto.encode_frame(frame_type, payload))
        codec.append((time.perf_counter() - t0) * 1e6)

    # the engine floor: the same writes on an in-process engine, no socket
    floor_engine = build_engine()
    calls = []
    for vote in writes:
        t0 = time.perf_counter()
        floor_engine.call_procedure("validate_vote", *vote)
        calls.append((time.perf_counter() - t0) * 1e6)
    floor_engine.shutdown()
    return {"net.ping_us": p50(pings), "net.codec_us": p50(codec),
            "hstore.call_us": p50(calls)}


def _trace_report(cfg: RunConfig, served: Served, tracer: Tracer,
                  links: dict[int, int], extra: dict[str, float]) -> SpanReport:
    spans = served.engine.tracer.collector.spans() + tracer.collector.spans()
    by_id = {span.span_id: span for span in spans}
    parent_of = {
        child: bench for child, bench in links.items()
        if child in by_id and by_id[child].kind == "client" and by_id[child].parent_id is None
    }
    batches = {(s.start_us, s.end_us) for s in spans if s.name == "net.commit_batch"}
    extra["net.batch_us"] = p50([end - start for start, end in batches])
    extra["net.admit_to_commit_us"] = served.engine.metrics.histogram("net.request_us").percentile(50)
    dropped = served.engine.tracer.collector.dropped + tracer.collector.dropped
    return trace_report("voter_tcp", cfg, spans, dropped, extra, parent_of=parent_of)


def run(cfg: RunConfig, sizes: Sizes) -> tuple[bool, Tally, dict[str, float]]:
    tally = Tally()
    path = cfg.out_dir / f"votes-voter_tcp-{cfg.seed}-{os.getpid()}.txt"
    write_vote_file(cfg.seed, sizes.prior_votes + int(cfg.seconds * WRITE_CAP), path)
    try:
        with asyncio.Runner() as runner:
            if not cfg.trace:
                phase = _phase(runner, cfg, sizes, tally, VoteStream(path), cfg.seconds,
                               traced=False, layer_probes=False)
                return phase.ok, tally, {
                    "setup_s": phase.setup_s,
                    "throughput_ops_s": phase.timed.rate,
                    "write_p50_us": p50(phase.timed.write_lat),
                    "read_p50_us": p50(phase.timed.read_lat),
                    "peak_rss_mb": phase.rss_mb,
                }
            plain = _phase(runner, cfg, sizes, tally, VoteStream(path), cfg.seconds / 2,
                           traced=False, layer_probes=True)
            traced = _phase(runner, cfg, sizes, tally, VoteStream(path), cfg.seconds / 2,
                            traced=True, layer_probes=False)
    finally:
        path.unlink(missing_ok=True)
    server = plain.stats["server"]
    metrics = {
        **engine_counter_metrics(plain.stats["engine"], plain.timed.ops),
        "write_p99_us": p99(plain.timed.write_lat),
        "read_p99_us": p99(plain.timed.read_lat),
        "net.reqs_per_batch": ratio(server["requests"], server["batches"]),
        "net.read_pauses": server["read_pauses"],
        "log.records_per_flush": ratio(server["flushed_records"], server["log_flushes"]),
        "hstore.txn_self_us": traced.spans.per_kind(("txn", "call", "sql")),
        **obs_metrics(traced.spans, plain.timed.rate, traced.timed.rate),
        **plain.extra,
        **traced.extra,
    }
    return plain.ok and traced.ok, tally, metrics
