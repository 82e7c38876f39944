"""voter_cluster: Voter on a 2-worker ``ParallelHStoreEngine``.

One closed loop on the coordinator thread.  Each round is
``ROUND_VOTES`` routed ``validate_vote`` calls with a run-everywhere
``leaderboard`` read after every ``BOARD_EVERY`` votes, then one
run-everywhere ``eliminate`` of the lowest contestant on that leaderboard.
When ``FINALISTS`` contestants are left, a run-everywhere
``new_election`` brings the eliminated ones back, so eliminations go on
for the whole timed phase.  Every call crosses the coordinator↔worker
pipes; the everywhere procedures pay the prepare/decide fence.
The coordinator and both workers share the one CPU ``run.py`` pins the
benchmark to, so this workload measures the pipe, fence and engine work
of the cluster path, not the parallelism of its workers.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from dataclasses import dataclass, field

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
from model import VoterModel, check_cluster_log, check_voter_state
from procs import Eliminate, Leaderboard, NewElection, Noop, RoutedValidateVote
from repro.apps.voter import schema
from repro.hstore.engine import HStoreEngine
from repro.obs.config import ObsConfig
from repro.parallel import ParallelHStoreEngine

WORKERS = 2
ROUND_VOTES = 100
BOARD_EVERY = 10
FINALISTS = 3
CONTESTANTS = schema.NUM_CONTESTANTS
#: votes per second of timed phase the vote stream is sized for, about
#: four times what the program does today; a run that uses the stream up
#: fails rather than generate more while it is timed
VOTE_CAP = 8_000


@dataclass
class Sizes:
    prior_votes: int
    setup_repeats: int


FULL = Sizes(prior_votes=20_000, setup_repeats=7)
SMALL = Sizes(prior_votes=500, setup_repeats=1)


def _build(prior: list[tuple], obs: ObsConfig | None) -> ParallelHStoreEngine:
    engine = ParallelHStoreEngine(workers=WORKERS, obs=obs)
    schema.install_tables(engine)
    for procedure in (RoutedValidateVote, Leaderboard, Eliminate, NewElection, Noop):
        engine.register_procedure(procedure)
    schema.seed_contestants(engine, CONTESTANTS)
    loaded = engine.call_many("validate_vote", prior)
    if loaded.committed != len(prior):
        raise RuntimeError(f"prior election: {loaded.aborted} of {len(prior)} votes aborted")
    # plan and warm the everywhere read once, off the clock
    engine.call_procedure("leaderboard")
    return engine


class OpLog:
    """The timed phase's operations in issue order, a few bytes each.

    ``entries`` expands it, after the phase, into the log
    ``model.check_cluster_log`` replays.
    """

    VOTE, BOARD, ELIM, RESET = range(4)

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.vote_index = array("q")
        self.vote_ok = bytearray()
        #: CONTESTANTS counts per board, -1 where the board has no row
        self.boards = array("q")
        #: (contestant, votes removed) per elimination
        self.elims = array("q")

    def vote(self, index: int, accepted: bool) -> None:
        self.kinds.append(self.VOTE)
        self.vote_index.append(index)
        self.vote_ok.append(accepted)

    def board(self, board: dict[int, int]) -> None:
        self.kinds.append(self.BOARD)
        self.boards.extend(board.get(c, -1) for c in range(1, CONTESTANTS + 1))

    def elim(self, contestant: int, removed: int) -> None:
        self.kinds.append(self.ELIM)
        self.elims.extend((contestant, removed))

    def reset(self) -> None:
        self.kinds.append(self.RESET)

    def entries(self, rows: list[tuple]) -> list[tuple]:
        votes = iter(zip(self.vote_index, self.vote_ok))
        boards = iter(range(0, len(self.boards), CONTESTANTS))
        elims = iter(range(0, len(self.elims), 2))
        log: list[tuple] = []
        for kind in self.kinds:
            if kind == self.VOTE:
                index, ok = next(votes)
                log.append(("vote", rows[index], bool(ok)))
            elif kind == self.BOARD:
                at = next(boards)
                counts = self.boards[at:at + CONTESTANTS]
                log.append(("board", {c: n for c, n in enumerate(counts, 1) if n >= 0}))
            elif kind == self.ELIM:
                at = next(elims)
                log.append(("elim", self.elims[at], self.elims[at + 1]))
            else:
                log.append(("reset",))
        return log


@dataclass
class Phase:
    setup_s: float
    rate: float
    ops: int
    vote_lat: array
    board_lat: array
    fence_lat: array
    counters: dict[str, int]
    ipc: int
    skew: float
    rss_mb: float
    ok: bool
    spans: SpanReport | None = None
    extra: dict[str, float] = field(default_factory=dict)


def _phase(cfg: RunConfig, sizes: Sizes, tally: Tally, votes: VoteStream, seconds: float, *,
           traced: bool, layer_probes: bool) -> Phase:
    prior = votes.take_many(sizes.prior_votes)
    obs = ObsConfig(tracing=True, metrics=True, trace_capacity=1 << 18) if traced else None
    engine, setup_s = build_timed(
        1 if traced else sizes.setup_repeats,
        lambda: _build(prior, obs),
        lambda old: old.shutdown(),
    )

    tracer = engine.tracer
    log = OpLog()
    vote_lat, board_lat, fence_lat = latencies(), latencies(), latencies()
    resets = 0
    alive = set(range(1, CONTESTANTS + 1))
    board: dict[int, int] = {}

    def call(name: str, *params):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench", name):
                    result = engine.call_procedure(name, *params)
            else:
                result = engine.call_procedure(name, *params)
        except Exception as exc:  # noqa: BLE001 - counted, round goes on
            tally.fail(f"{name}{params}: {type(exc).__name__}: {exc}")
            return None, 0.0
        us = (time.perf_counter() - t0) * 1e6
        if not result.success:
            tally.fail(f"{name}{params}: unexpected abort: {result.error}")
            return None, us
        done.add()
        return result, us

    before_stats = engine.stats.snapshot()
    before_workers = [s.txns_committed for s in engine.worker_stats()]
    ipc_before = engine.stats_local.ipc_roundtrips
    # the span files and the per-layer figures cover the timed phase
    engine.tracer.collector.clear()
    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds
    done = Completions(started)
    while time.perf_counter() < deadline:
        for n in range(1, ROUND_VOTES + 1):
            index = votes.taken
            vote = votes.take()
            result, us = call("validate_vote", *vote)
            if result is not None:
                vote_lat.append(us)
                log.vote(index, bool(result.data))
            if n % BOARD_EVERY:
                continue
            result, us = call("leaderboard")
            if result is not None:
                board_lat.append(us)
                board = {}
                for shard in result.data:
                    for contestant, count in shard:
                        board[contestant] = board.get(contestant, 0) + count
                log.board(board)
        loser = min(alive, key=lambda c: (board.get(c, 0), c))
        result, us = call("eliminate", loser)
        if result is not None:
            fence_lat.append(us)
            alive.discard(loser)
            log.elim(loser, sum(result.data))
        if len(alive) <= FINALISTS:
            result, _us = call("new_election", CONTESTANTS)
            if result is not None:
                alive = set(range(1, CONTESTANTS + 1))
                resets += 1
                log.reset()
    ended = time.perf_counter()
    elapsed = ended - started
    ipc = engine.stats_local.ipc_roundtrips - ipc_before
    after_workers = [s.txns_committed for s in engine.worker_stats()]
    after_stats = engine.stats.snapshot()
    counters = {k: v - before_stats.get(k, 0) for k, v in after_stats.items()}
    per_worker = [a - b for a, b in zip(after_workers, before_workers)]
    skew = ratio(max(per_worker), min(per_worker))
    rss = peak_rss_mb([os.getpid()] + [w.process.pid for w in engine.workers])
    ops = len(vote_lat) + len(board_lat) + len(fence_lat) + resets

    rows = votes.rows(votes.taken)
    votes.close()
    extra: dict[str, float] = {}
    if layer_probes:
        extra.update(_probes(engine, [rows[i] for i in log.vote_index[:2000]]))
    spans = None
    if traced:
        spans = trace_report("voter_cluster", cfg, tracer.collector.spans(),
                             tracer.collector.dropped, extra)

    model = VoterModel(range(1, CONTESTANTS + 1))
    for vote in prior:
        model.vote(*vote)
    errors = {"ops = model": check_cluster_log(model, log.entries(rows))}
    shards = engine.table_rows("votes")
    rejected = sum(row[2] for row in engine.table_rows("election_stats"))
    errors["shards = model votes"] = check_voter_state(model, shards, rejected)
    engine.shutdown()
    print(f"  phase {'traced' if traced else 'untraced'}: {len(vote_lat)} votes, "
          f"{len(board_lat)} leaderboards, {len(fence_lat)} eliminations in {elapsed:.2f} s")
    ok = report_checks(errors)
    return Phase(setup_s, done.rate(ended), ops, vote_lat, board_lat, fence_lat, counters,
                 ipc, skew, rss, ok, spans, extra)


def _probes(engine: ParallelHStoreEngine, writes: list[tuple]) -> dict[str, float]:
    """Layer floors measured next to the workload, outside its timed phase."""
    noop = []
    for vote in writes[:500]:
        t0 = time.perf_counter()
        engine.call_procedure("noop", vote[0])
        noop.append((time.perf_counter() - t0) * 1e6)
    # the engine floor: the same writes on an in-process engine, no pipes
    floor = HStoreEngine()
    schema.install_tables(floor)
    floor.register_procedure(RoutedValidateVote)
    schema.seed_contestants(floor, CONTESTANTS)
    calls = []
    for vote in writes:
        t0 = time.perf_counter()
        floor.call_procedure("validate_vote", *vote)
        calls.append((time.perf_counter() - t0) * 1e6)
    floor.shutdown()
    return {"parallel.noop_call_us": p50(noop), "hstore.call_us": p50(calls)}


def run(cfg: RunConfig, sizes: Sizes) -> tuple[bool, Tally, dict[str, float]]:
    tally = Tally()
    path = cfg.out_dir / f"votes-voter_cluster-{cfg.seed}-{os.getpid()}.txt"
    write_vote_file(cfg.seed, sizes.prior_votes + int(cfg.seconds * VOTE_CAP), path)
    try:
        if not cfg.trace:
            phase = _phase(cfg, sizes, tally, VoteStream(path), cfg.seconds,
                           traced=False, layer_probes=False)
            return phase.ok, tally, {
                "setup_s": phase.setup_s,
                "throughput_ops_s": phase.rate,
                "write_p50_us": p50(phase.vote_lat),
                "read_p50_us": p50(phase.board_lat),
                "peak_rss_mb": phase.rss_mb,
            }
        plain = _phase(cfg, sizes, tally, VoteStream(path), cfg.seconds / 2,
                       traced=False, layer_probes=True)
        traced = _phase(cfg, sizes, tally, VoteStream(path), cfg.seconds / 2,
                        traced=True, layer_probes=False)
    finally:
        path.unlink(missing_ok=True)
    report = traced.spans
    metrics = {
        **engine_counter_metrics(plain.counters, plain.ops),
        "write_p99_us": p99(plain.vote_lat),
        "read_p99_us": p99(plain.board_lat),
        "parallel.ipc_per_txn": ratio(plain.ipc, plain.ops),
        "parallel.fence_us": p50(plain.fence_lat),
        "parallel.worker_ops_skew": plain.skew,
        "parallel.worker_txn_self_us": report.per_op("repro.parallel.worker"),
        "parallel.coord_self_us": report.per_op("repro.parallel.coord"),
        "hstore.txn_self_us": report.per_kind(("txn", "sql")),
        **obs_metrics(report, plain.rate, traced.rate),
        **plain.extra,
        **traced.extra,
    }
    return plain.ok and traced.ok, tally, metrics
