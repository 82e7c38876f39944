"""Shared pieces of the benchmark: metric names, timing, memory, spans.

Imported by every workload module; starts nothing on import.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import heapq
import itertools
import json
import pathlib
import statistics
import subprocess
import sys
import time
from array import array
from typing import Any, Callable, Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "_out"

#: end-to-end metrics every workload reports with ``--trace 0``
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "write_p50_us": "us",
    "read_p50_us": "us",
    "peak_rss_mb": "MB",
}

#: per-layer metrics reported with ``--trace 1``; a layer the workload does
#: not cross reports 0 (no IPC in process, no socket in the cluster, ...)
PER_LAYER: dict[str, str] = {
    "write_p99_us": "us",
    "read_p99_us": "us",
    "host.calib_ms": "ms",
    "net.ping_us": "us",
    "net.codec_us": "us",
    "net.reqs_per_batch": "count",
    "net.read_pauses": "count",
    "net.admit_to_commit_us": "us",
    "net.batch_us": "us",
    "log.records_per_flush": "count",
    "log.flush_us": "us",
    "hstore.call_us": "us",
    "hstore.txn_self_us": "us",
    "hstore.statements_per_op": "count",
    "hstore.rows_written_per_op": "count",
    "hstore.point_lookups_per_op": "count",
    "hstore.plan_cache_hit_ratio": "ratio",
    "vector.scans_per_op": "count",
    "vector.runtime_fallbacks": "count",
    "vector.history_total_us": "us",
    "core.tasks_per_ingest": "count",
    "core.pe_ee_roundtrips_per_op": "count",
    "core.trigger_firings_per_op": "count",
    "core.window_slides_per_tick": "count",
    "core.workflow_self_us": "us",
    "core.oltp_call_us": "us",
    "parallel.ipc_per_txn": "count",
    "parallel.noop_call_us": "us",
    "parallel.fence_us": "us",
    "parallel.worker_txn_self_us": "us",
    "parallel.coord_self_us": "us",
    "parallel.worker_ops_skew": "ratio",
    "obs.trace_overhead_pct": "%",
    "obs.unattributed_pct": "%",
}


@dataclasses.dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    small: bool
    out_dir: pathlib.Path


class BenchFailure(Exception):
    """The run's own accounting does not add up; it prints no result."""


class Tally:
    """Operations attempted and failed, plus the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile (0 with no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Completions:
    """Operations completed per one-second window of a timed phase.

    ``rate`` is the median over the phase's whole windows: a stall (a slow
    fsync, a busy neighbour on the host) moves one window, not the run's
    figure.  A phase shorter than three windows reports its plain mean
    rate.  Memory grows with the phase's length, not with its throughput.
    """

    WINDOW_S = 1.0

    def __init__(self, start: float) -> None:
        self.start = start
        self.windows: list[int] = []

    def add(self, n: int = 1) -> None:
        index = int((time.perf_counter() - self.start) / self.WINDOW_S)
        while len(self.windows) <= index:
            self.windows.append(0)
        self.windows[index] += n

    @property
    def total(self) -> int:
        return sum(self.windows)

    def rate(self, end: float) -> float:
        whole = int((end - self.start) / self.WINDOW_S)
        if whole < 3:
            return ratio(self.total, end - self.start)
        counts = (self.windows + [0] * whole)[:whole]
        return statistics.median(counts) / self.WINDOW_S


def latencies() -> array:
    """A compact latency record: 8 bytes a sample, not a float object."""
    return array("d")


def write_vote_file(seed: int, count: int, path: pathlib.Path) -> None:
    """Write the first ``count`` ``VoterWorkload(seed)`` requests to ``path``.

    Runs in a child process of its own (``python3 harness.py votes ...``),
    so neither the generator's objects nor the stream count toward the
    workload's peak RSS.
    """
    subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "votes",
         str(seed), str(count), str(path)],
        check=True, cwd=ROOT,
    )


class VoteStream:
    """Rows of a file ``write_vote_file`` wrote, read one at a time.

    The file holds several times the rows a run of today's program uses;
    a run that uses them all up fails (``BenchFailure``) instead of
    generating more during its timed phase.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.taken = 0
        self._file = open(path, encoding="ascii")

    @staticmethod
    def parse(line: str) -> tuple[str, int, int]:
        phone, contestant, ts = line.split(",")
        return phone, int(contestant), int(ts)

    def take(self) -> tuple[str, int, int]:
        line = self._file.readline()
        if not line:
            raise BenchFailure(
                f"vote stream {self.path.name} ran out after {self.taken} votes: "
                "the program ran faster than the stream was sized for"
            )
        self.taken += 1
        return self.parse(line)

    def take_many(self, n: int) -> list[tuple[str, int, int]]:
        return [self.take() for _ in range(n)]

    def rows(self, stop: int) -> list[tuple[str, int, int]]:
        """The first ``stop`` rows, read again from the file (for checks)."""
        with open(self.path, encoding="ascii") as f:
            return [self.parse(line) for line in itertools.islice(f, stop)]

    def close(self) -> None:
        self._file.close()


def build_timed(repeats: int, build: Callable[[], Any], teardown: Callable[[Any], None]):
    """Build ``repeats`` times, tearing down all but the last build.

    Returns the last build and the median build time.  Set-up is timed
    several times in one run so that one slow build (a page-cache miss, a
    busy neighbour) does not move ``setup_s``; garbage left by the previous
    build is collected before the clock starts.
    """
    times: list[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        gc.collect()
        started = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - started)
    return state, statistics.median(times)


def calibrate_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python CPU loop, in milliseconds.

    Printed next to the per-layer figures so that host drift (a slower or
    busier machine) can be told apart from a change to the program.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def emit(correct: bool, tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(tally.attempted),
                "failed": int(tally.failed),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )


def report_checks(errors: dict[str, list[str]]) -> bool:
    """Print each check's outcome; True when every check passed."""
    ok = True
    for name, errs in errors.items():
        print(f"  check {name:<24} {'ok' if not errs else 'FAILED'}")
        for err in errs:
            print(f"      {err}")
        ok = ok and not errs
    return ok


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def layer_of(span: Any) -> str:
    """The module a span's self time is charged to."""
    kind = span.kind
    if kind == "bench":
        return "unattributed"
    if kind == "log.flush":
        return "repro.hstore.cmdlog"
    if span.process.startswith("worker-"):
        return "repro.parallel.worker"
    if kind in ("client", "net"):
        return "repro.net"
    if kind in ("workflow", "trigger", "window"):
        return "repro.core"
    if kind == "ipc" or span.process == "coordinator":
        return "repro.parallel.coord"
    return "repro.hstore"


@dataclasses.dataclass
class SpanReport:
    """Self time per layer over every benchmark root span."""

    roots: int
    client_us: int
    layer_us: dict[str, int]
    kind_us: dict[str, int]

    def per_op(self, layer: str) -> float:
        return ratio(self.layer_us.get(layer, 0), self.roots)

    def per_kind(self, kinds: tuple[str, ...]) -> float:
        """Per-call self time of every span whose kind is in ``kinds``."""
        total = sum(us for key, us in self.kind_us.items()
                    if key.split(":", 1)[0] in kinds)
        return ratio(total, self.roots)

    def table(self, title: str) -> str:
        lines = [
            title,
            f"  {self.roots} benchmark calls, {self.client_us / 1e6:.3f} s client-measured",
            f"  {'layer':<26}{'self s':>10}{'us/op':>10}{'share':>9}",
        ]
        for layer, us in sorted(self.layer_us.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {layer:<26}{us / 1e6:>10.3f}{ratio(us, self.roots):>10.1f}"
                f"{100.0 * ratio(us, self.client_us):>8.1f}%"
            )
        total = sum(self.layer_us.values())
        lines.append(
            f"  {'sum of layers':<26}{total / 1e6:>10.3f}{ratio(total, self.roots):>10.1f}"
            f"{100.0 * ratio(total, self.client_us):>8.1f}%"
        )
        return "\n".join(lines)


def analyse_spans(
    spans: list[Any],
    *,
    parent_of: dict[int, int] | None = None,
) -> SpanReport:
    """Split client-measured time into per-layer self time.

    Roots are the benchmark's own ``bench`` spans.  Every span reachable
    from a root through parent ids belongs to its tree; ``parent_of``
    adds links the program does not record itself.  Spans with no parent
    that belong to no tree (the server's group-commit log flushes run
    outside any request span) are charged to every root they overlap,
    because each of those calls was waiting on them.

    Each instant of a root's interval goes to the deepest span covering
    it (an unlinked overlapping span counts as deepest), so the layers'
    self times add up to the root's duration exactly: nothing is counted
    twice and nothing is lost.
    """
    parent_of = parent_of or {}
    children: dict[int, list[Any]] = {}
    roots: list[Any] = []
    for span in spans:
        if span.end_us is None:
            continue
        if span.kind == "bench":
            roots.append(span)
            continue
        parent = parent_of.get(span.span_id, span.parent_id)
        if parent is not None:
            children.setdefault(parent, []).append(span)
    in_tree: set[int] = set()
    for root in roots:
        stack = [root]
        while stack:
            span = stack.pop()
            for child in children.get(span.span_id, ()):
                in_tree.add(child.span_id)
                stack.append(child)
    loose = sorted(
        (
            span
            for span in spans
            if span.end_us is not None
            and span.kind != "bench"
            and span.span_id not in in_tree
            and parent_of.get(span.span_id, span.parent_id) is None
        ),
        key=lambda s: s.start_us,
    )
    loose_starts = [span.start_us for span in loose]
    longest_loose = max((s.end_us - s.start_us for s in loose), default=0)

    layer_us: dict[str, int] = {}
    kind_us: dict[str, int] = {}
    client_us = 0
    deepest = 1 << 30

    for root in roots:
        lo, hi = root.start_us, root.end_us
        client_us += hi - lo
        items: list[tuple[int, int, int, Any]] = []
        stack = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            start, end = max(span.start_us, lo), min(span.end_us, hi)
            if end > start or span is root:
                items.append((start, end, depth, span))
            for child in children.get(span.span_id, ()):
                stack.append((child, depth + 1))
        first = bisect.bisect_left(loose_starts, lo - longest_loose)
        for span in loose[first:]:
            if span.start_us >= hi:
                break
            start, end = max(span.start_us, lo), min(span.end_us, hi)
            if end > start:
                items.append((start, end, deepest, span))
        events = []
        for index, (start, end, _depth, _span) in enumerate(items):
            events.append((start, 1, index))
            events.append((end, 0, index))
        events.sort()
        heap: list[tuple[int, int, int]] = []
        ended: set[int] = set()
        prev = lo
        for t, starting, index in events:
            while heap and heap[0][2] in ended:
                heapq.heappop(heap)
            if heap and t > prev:
                span = items[heap[0][2]][3]
                layer = layer_of(span)
                layer_us[layer] = layer_us.get(layer, 0) + (t - prev)
                key = f"{span.kind}:{span.name}" if span.kind != "bench" else "bench"
                kind_us[key] = kind_us.get(key, 0) + (t - prev)
            prev = t
            if starting:
                start, _end, depth, _span = items[index]
                heapq.heappush(heap, (-depth, -start, index))
            else:
                ended.add(index)
    if sum(layer_us.values()) != client_us:
        raise BenchFailure(
            f"span accounting lost time: layers {sum(layer_us.values())} us, "
            f"client {client_us} us"
        )
    return SpanReport(len(roots), client_us, layer_us, kind_us)


def export_trace(out: pathlib.Path, spans: list[Any], table: str) -> None:
    """Write the span tree (JSONL + Chrome) and the per-layer table."""
    from repro.obs.trace import export_chrome_trace, export_jsonl

    out.mkdir(parents=True, exist_ok=True)
    export_jsonl(spans, out / "spans.jsonl")
    export_chrome_trace(spans, out / "trace_chrome.json")
    (out / "layers.txt").write_text(table + "\n")



def trace_report(
    workload: str,
    cfg: RunConfig,
    spans: list[Any],
    dropped: int,
    extra: dict[str, float],
    *,
    parent_of: dict[int, int] | None = None,
) -> SpanReport:
    """Split the traced phase's spans into layers, print and export them.

    Adds ``log.flush_us`` to ``extra``: the p50 of the command log's
    ``group_commit`` spans, one per flush, fsync included (the nested
    ``disk_append`` span would sample each flush twice).
    """
    report = analyse_spans(spans, parent_of=parent_of)
    extra["log.flush_us"] = p50(
        [s.end_us - s.start_us for s in spans if s.name == "group_commit"]
    )
    table = report.table(f"{workload} seed {cfg.seed}: self time per layer (traced phase)")
    table += f"\n  spans kept {len(spans)}, dropped {dropped}"
    print(table)
    export_trace(cfg.out_dir / f"trace-{workload}-{cfg.seed}", spans, table)
    return report


def engine_counter_metrics(counters: dict[str, int], ops: int) -> dict[str, float]:
    """Per-layer metrics derived from ``EngineStats`` counters over ``ops``."""
    c = counters
    hits, misses = c.get("plan_cache_hits", 0), c.get("plan_cache_misses", 0)
    return {
        "log.records_per_flush": ratio(c.get("log_records", 0), c.get("log_flushes", 0)),
        "hstore.statements_per_op": ratio(c.get("ee_statements", 0), ops),
        "hstore.rows_written_per_op": ratio(
            c.get("rows_inserted", 0) + c.get("rows_updated", 0) + c.get("rows_deleted", 0),
            ops),
        "hstore.point_lookups_per_op": ratio(c.get("point_lookups", 0), ops),
        "hstore.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "vector.scans_per_op": ratio(c.get("vector_scans", 0), ops),
        "vector.runtime_fallbacks": c.get("vector_runtime_fallbacks", 0),
    }


def obs_metrics(report: SpanReport, plain_rate: float, traced_rate: float) -> dict[str, float]:
    """What tracing costs, and how much client time no program span covers."""
    return {
        "obs.trace_overhead_pct": 100.0 * (1 - ratio(traced_rate, plain_rate)),
        "obs.unattributed_pct": 100.0 * ratio(report.layer_us.get("unattributed", 0),
                                              report.client_us),
    }


def _votes_main(argv: list[str]) -> None:
    """``python3 harness.py votes SEED COUNT PATH``: see ``write_vote_file``."""
    if argv[:1] != ["votes"] or len(argv) != 4:
        raise SystemExit("usage: harness.py votes SEED COUNT PATH")
    sys.path.insert(0, str(ROOT / "src"))
    from repro.apps.voter.workload import VoterWorkload

    seed, count, path = int(argv[1]), int(argv[2]), pathlib.Path(argv[3])
    with open(path, "w", encoding="ascii") as out:
        for request in VoterWorkload(seed=seed).generate(count):
            phone, contestant, ts = request.as_row()
            out.write(f"{phone},{contestant},{ts}\n")


if __name__ == "__main__":
    _votes_main(sys.argv[1:])
