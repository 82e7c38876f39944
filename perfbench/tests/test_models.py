"""Every check passes on a correct output and fails on a corrupted one."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from harness import analyse_spans
from model import (
    VoterModel,
    check_alerts,
    check_billing,
    check_cluster_log,
    check_fleet,
    check_reads,
    check_ride_distances,
    check_same_rows,
    check_stations,
    check_vote_outcomes,
    check_voter_state,
)

VOTES = [
    ("a", 1, 1), ("b", 2, 2), ("a", 2, 3),  # duplicate phone
    ("c", 9, 4),                             # unknown contestant
    ("d", 1, 5), ("e", 3, 6),
]


def served_model() -> VoterModel:
    model = VoterModel([1, 2, 3])
    for vote in VOTES:
        model.vote(*vote)
    return model


def test_voter_model_validates_and_eliminates():
    model = served_model()
    assert model.vote_rows() == [("a", 1, 1), ("b", 2, 2), ("d", 1, 5), ("e", 3, 6)]
    assert model.rejected == 2
    assert model.counts() == {1: 2, 2: 1, 3: 1}
    assert model.lowest() == 2  # tie at one vote goes to the lower number
    assert model.eliminate(2) == 1
    assert not model.vote("f", 2, 7)  # eliminated contestant
    assert model.vote("b", 3, 8)  # the eliminated contestant's voter votes again
    model.new_election()
    assert model.vote("g", 2, 9)


def test_voter_state_check():
    rows = [("a", 1, 1), ("b", 2, 2), ("d", 1, 5), ("e", 3, 6)]
    assert check_voter_state(served_model(), rows, 2) == []
    assert check_voter_state(served_model(), rows[:-1], 2)
    assert check_voter_state(served_model(), rows[:-1] + [("e", 2, 6)], 2)
    assert check_voter_state(served_model(), rows, 3)


def test_vote_outcomes_check():
    outcomes = [(v, ok) for v, ok in zip(VOTES, [True, True, False, False, True, True])]
    assert check_vote_outcomes(VoterModel([1, 2, 3]), outcomes) == []
    corrupted = list(outcomes)
    corrupted[2] = (VOTES[2], True)
    assert check_vote_outcomes(VoterModel([1, 2, 3]), corrupted)


def test_reads_and_restore_checks():
    assert check_reads([("a", 1, 1), ("b", 2, 2)]) == []
    assert check_reads([("a", 1, 1), ("b", 2, None)])
    rows = [("a", 1, 1), ("b", 2, 2)]
    assert check_same_rows("votes", rows, list(reversed(rows))) == []
    assert check_same_rows("votes", rows, rows[:1])


def cluster_log(seed: int) -> list[tuple]:
    """A log as the cluster workload writes it, computed by a second model."""
    rng = random.Random(seed)
    truth = VoterModel(range(1, 6))
    log: list[tuple] = []
    for n in range(200):
        vote = (f"p{rng.randrange(120)}", rng.randrange(1, 8), n)
        log.append(("vote", vote, truth.vote(*vote)))
        if n % 10 == 9:
            log.append(("board", truth.counts()))
        if n % 40 == 39:
            loser = truth.lowest()
            log.append(("elim", loser, truth.eliminate(loser)))
        if n == 159:
            truth.new_election()
            log.append(("reset",))
    return log


def test_cluster_log_check():
    log = cluster_log(3)
    assert check_cluster_log(VoterModel(range(1, 6)), log) == []
    board = next(i for i, e in enumerate(log) if e[0] == "board" and e[1])
    elim = next(i for i, e in enumerate(log) if e[0] == "elim")
    vote = next(i for i, e in enumerate(log) if e[0] == "vote")
    c = next(iter(log[board][1]))
    corruptions = {
        board: ("board", {**log[board][1], c: log[board][1][c] + 1}),
        elim: ("elim", log[elim][1] % 5 + 1, log[elim][2]),
        vote: ("vote", log[vote][1], not log[vote][2]),
    }
    for index, entry in corruptions.items():
        bad = list(log)
        bad[index] = entry
        assert check_cluster_log(VoterModel(range(1, 6)), bad), entry
    removed = list(log)
    removed[elim] = ("elim", log[elim][1], log[elim][2] + 1)
    assert check_cluster_log(VoterModel(range(1, 6)), removed)


def test_ride_distance_check():
    truth = {7: [1.0, 2.0], 8: [0.5]}
    rides = [(1, 7, 0.995), (2, 8, 0.5), (3, 7, 1.999)]
    assert check_ride_distances(truth, rides, tick_miles=0.01) == []
    assert check_ride_distances(truth, [(1, 7, 0.9), (2, 8, 0.5), (3, 7, 2.0)], 0.01)
    assert check_ride_distances(truth, rides[:2], 0.01)


STATIONS = [(1, "S1", 3, 5), (2, "S2", 0, 8)]
BIKES = [(1, "docked", 1, None), (2, "docked", 1, None), (3, "docked", 1, None),
         (4, "riding", None, 11), (5, "stolen", None, 12)]


def test_station_and_fleet_checks():
    assert check_stations(STATIONS, 8) == []
    assert check_stations([(1, "S1", 3, 4)], 8)
    assert check_fleet(BIKES, STATIONS, 5) == []
    assert check_fleet(BIKES[:-1], STATIONS, 5)
    assert check_fleet(BIKES[:2] + [(3, "docked", 2, None)] + BIKES[3:], STATIONS, 5)
    assert check_fleet(BIKES[:4] + [(5, "lost", None, 12)], STATIONS, 5)


def test_billing_and_alert_checks():
    assert check_billing(10.75, [1.25, 2.5], [3.0, 4.0]) == []
    assert check_billing(10.76, [1.25, 2.5], [3.0, 4.0])
    alert = (0, 5, "stolen", 9, "speed 70.0 mph >= 60")
    assert check_alerts([alert], 5) == []
    assert check_alerts([alert], 4)
    assert check_alerts([alert, (1, 6, "stolen", 10, "")], 5)
    assert check_alerts([], 5)
    assert check_alerts([alert], None)


def span(span_id, parent_id, kind, start, end, process="engine"):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id, kind=kind, name=kind,
                           process=process, start_us=start, end_us=end)


def test_span_layers_add_up_to_client_time():
    spans = [
        span(1, None, "bench", 0, 100),
        span(2, 1, "call", 5, 90),
        span(3, 2, "txn", 10, 60),
        span(4, 3, "workflow", 20, 30),
        span(5, 2, "log.flush", 70, 80),
        span(6, None, "log.flush", 95, 120),  # unlinked, overlaps the root
        span(7, None, "bench", 200, 210),
    ]
    report = analyse_spans(spans)
    assert report.roots == 2 and report.client_us == 110
    assert report.layer_us == {
        "unattributed": 5 + 5 + 10,
        "repro.hstore": 5 + 10 + 30 + 10 + 10,
        "repro.core": 10,
        "repro.hstore.cmdlog": 10 + 5,
    }
    assert sum(report.layer_us.values()) == report.client_us


@pytest.mark.parametrize("parent", [None, 1])
def test_span_links_added_by_the_benchmark(parent):
    spans = [span(1, None, "bench", 0, 100), span(2, parent, "client", 10, 90, "client")]
    report = analyse_spans(spans, parent_of={2: 1})
    assert report.layer_us == {"unattributed": 20, "repro.net": 80}


def test_vote_stream_is_the_workload_and_runs_out_loudly(tmp_path):
    from harness import BenchFailure, VoteStream, write_vote_file
    from repro.apps.voter.workload import VoterWorkload

    want = [r.as_row() for r in VoterWorkload(seed=5).generate(3000)]
    path = tmp_path / "votes.txt"
    write_vote_file(5, 3000, path)
    stream = VoteStream(path)
    assert stream.take_many(10) + [stream.take() for _ in range(2990)] == want
    with pytest.raises(BenchFailure):
        stream.take()
    assert stream.rows(3000) == want
    stream.close()


def test_cluster_op_log_expands_to_the_same_log():
    from voter_cluster import OpLog

    log = cluster_log(3)
    rows = [entry[1] for entry in log if entry[0] == "vote"]
    compact = OpLog()
    index = 0
    for entry in log:
        if entry[0] == "vote":
            compact.vote(index, entry[2])
            index += 1
        elif entry[0] == "board":
            compact.board(entry[1])
        elif entry[0] == "elim":
            compact.elim(entry[1], entry[2])
        else:
            compact.reset()
    assert compact.entries(rows) == log


def test_completions_rate_is_a_median_over_windows():
    from harness import Completions

    done = Completions(0.0)
    done.windows = [10, 1000, 12, 11, 0]
    assert done.total == 1033
    assert done.rate(4.5) == 11.5  # the last, partial window is left out
    assert done.rate(2.0) == 1033 / 2.0
