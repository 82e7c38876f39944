"""Reference models and output checks, written apart from ``src/``.

Nothing here imports the program under test.  Each check takes plain
Python values read back from the program (rows, counts, results) and
returns a list of human-readable errors; an empty list means the check
passed.  The benchmark's tests feed every check a corrupted output and
expect at least one error.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

MAX_ERRORS = 5


def _clip(errors: list[str]) -> list[str]:
    if len(errors) > MAX_ERRORS:
        return errors[:MAX_ERRORS] + [f"... and {len(errors) - MAX_ERRORS} more"]
    return errors


# ---------------------------------------------------------------------------
# Voter
# ---------------------------------------------------------------------------


class VoterModel:
    """Pure-Python Voter: validation, client-driven elimination, counts.

    A vote is accepted when its contestant is still running and its phone
    holds no vote; otherwise it is rejected and counted.  Eliminating a
    contestant deletes every vote cast for it, so those phones may vote
    again.  ``lowest`` is the running contestant with the fewest votes,
    ties going to the lower contestant number.
    """

    def __init__(self, contestants: Iterable[int]) -> None:
        self.roster = sorted(contestants)
        self.alive = set(self.roster)
        self.votes: dict[str, tuple[int, int]] = {}
        #: contestant -> phones holding a vote for it
        self.voters: dict[int, set[str]] = {}
        self.rejected = 0
        self.eliminated: list[int] = []

    def vote(self, phone: str, contestant: int, ts: int) -> bool:
        if contestant not in self.alive or phone in self.votes:
            self.rejected += 1
            return False
        self.votes[phone] = (contestant, ts)
        self.voters.setdefault(contestant, set()).add(phone)
        return True

    def counts(self) -> dict[int, int]:
        return {c: len(phones) for c, phones in self.voters.items() if phones}

    def lowest(self) -> int:
        return min(self.alive, key=lambda c: (len(self.voters.get(c, ())), c))

    def eliminate(self, contestant: int) -> int:
        """Remove ``contestant`` and its votes; returns the votes removed."""
        self.alive.discard(contestant)
        self.eliminated.append(contestant)
        doomed = self.voters.pop(contestant, set())
        for phone in doomed:
            del self.votes[phone]
        return len(doomed)

    def new_election(self) -> None:
        """Every eliminated contestant runs again; standing votes stay."""
        self.alive = set(self.roster)

    def vote_rows(self) -> list[tuple[str, int, int]]:
        return sorted((p, c, ts) for p, (c, ts) in self.votes.items())


def check_voter_state(
    model: VoterModel, vote_rows: Iterable[Sequence], rejected: int
) -> list[str]:
    """The served votes table and rejection count equal the model's."""
    errors: list[str] = []
    got = sorted(tuple(row) for row in vote_rows)
    want = model.vote_rows()
    if got != want:
        got_set, want_set = set(got), set(want)
        errors.append(
            f"votes table differs from the model: {len(got)} rows vs {len(want)}, "
            f"{len(got_set - want_set)} extra, {len(want_set - got_set)} missing"
        )
    if rejected != model.rejected:
        errors.append(f"rejected votes {rejected} != model {model.rejected}")
    return errors


def check_vote_outcomes(
    model: VoterModel, outcomes: Iterable[tuple[Sequence, bool]]
) -> list[str]:
    """Replay ``(vote, accepted)`` pairs in commit order through the model."""
    errors: list[str] = []
    for index, (vote, accepted) in enumerate(outcomes):
        want = model.vote(*vote)
        if accepted != want:
            errors.append(
                f"vote #{index} {tuple(vote)}: program accepted={accepted}, "
                f"model accepted={want}"
            )
    return _clip(errors)


def check_reads(reads: Iterable[tuple[str, int, object]]) -> list[str]:
    """Every read of an acked phone returns that phone's vote."""
    errors = [
        f"read of phone {phone}: got {got!r}, acked vote was {want}"
        for phone, want, got in reads
        if got != want
    ]
    return _clip(errors)


def check_same_rows(
    label: str, served: Iterable[Sequence], restored: Iterable[Sequence]
) -> list[str]:
    """Two row sets (e.g. served state vs state restored from disk) agree."""
    a = sorted(tuple(row) for row in served)
    b = sorted(tuple(row) for row in restored)
    if a == b:
        return []
    return [
        f"{label}: {len(a)} served rows vs {len(b)} restored, "
        f"{len(set(a) - set(b))} lost, {len(set(b) - set(a))} invented"
    ]


def check_cluster_log(model: VoterModel, log: Iterable[tuple]) -> list[str]:
    """Replay the cluster workload's op log through the model.

    Log entries, in the order the client issued them:
    ``("vote", (phone, contestant, ts), accepted)``,
    ``("board", {contestant: count})``,
    ``("elim", contestant, votes_removed)`` and ``("reset",)``.
    """
    errors: list[str] = []
    for index, entry in enumerate(log):
        kind = entry[0]
        if kind == "vote":
            _, vote, accepted = entry
            want = model.vote(*vote)
            if accepted != want:
                errors.append(
                    f"op #{index} vote {tuple(vote)}: program accepted="
                    f"{accepted}, model accepted={want}"
                )
        elif kind == "board":
            want = model.counts()
            if entry[1] != want:
                diff = sorted(
                    c for c in set(want) | set(entry[1])
                    if want.get(c) != entry[1].get(c)
                )
                errors.append(
                    f"op #{index} leaderboard differs from the model for "
                    f"contestants {diff}"
                )
        elif kind == "elim":
            _, contestant, removed = entry
            want_loser = model.lowest()
            if contestant != want_loser:
                errors.append(
                    f"op #{index} eliminated {contestant}, model's lowest is "
                    f"{want_loser}"
                )
            want_removed = model.eliminate(contestant)
            if removed != want_removed:
                errors.append(
                    f"op #{index} elimination of {contestant} removed "
                    f"{removed} votes, model removed {want_removed}"
                )
        elif kind == "reset":
            model.new_election()
        else:
            errors.append(f"op #{index}: unknown log entry {kind!r}")
    return _clip(errors)


# ---------------------------------------------------------------------------
# BikeShare
# ---------------------------------------------------------------------------


def check_ride_distances(
    true_distances: dict[int, list[float]],
    finished_rides: Iterable[tuple[int, int, float]],
    tick_miles: float,
) -> list[str]:
    """Each finished ride's distance is within one tick of ground truth.

    ``finished_rides`` holds ``(ride_id, rider_id, distance)`` for every
    ride with an end time; per rider, ride order matches return order.
    """
    errors: list[str] = []
    by_rider: dict[int, list[float]] = {}
    for _ride_id, rider_id, distance in sorted(finished_rides):
        by_rider.setdefault(int(rider_id), []).append(float(distance))
    riders = set(by_rider) | {r for r, d in true_distances.items() if d}
    for rider in sorted(riders):
        got = by_rider.get(rider, [])
        want = true_distances.get(rider, [])
        if len(got) != len(want):
            errors.append(
                f"rider {rider}: {len(got)} finished rides in the engine, "
                f"{len(want)} in the simulation"
            )
            continue
        for n, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > tick_miles + 1e-9:
                errors.append(
                    f"rider {rider} ride {n}: engine distance {g:.6f} mi, "
                    f"true {w:.6f} mi (allowed {tick_miles:.6f})"
                )
    return _clip(errors)


def check_stations(
    stations: Iterable[Sequence], capacity: int
) -> list[str]:
    """At every station, bikes plus docks equal capacity (rows from the
    dashboard query: ``station_id, name, bikes_available, docks_available``)."""
    errors = [
        f"station {row[0]}: {row[2]} bikes + {row[3]} docks != {capacity}"
        for row in stations
        if row[2] + row[3] != capacity or row[2] < 0 or row[3] < 0
    ]
    return _clip(errors)


def check_fleet(
    bikes: Iterable[Sequence],
    stations: Iterable[Sequence],
    fleet_size: int,
) -> list[str]:
    """The fleet is conserved.

    ``bikes`` rows are ``bike_id, status, station_id, rider_id``; every bike
    is docked at a station, ridden by a rider, or stolen, and each
    station's docked bikes match its ``bikes_available``.
    """
    errors: list[str] = []
    bikes = list(bikes)
    ids = [row[0] for row in bikes]
    if len(ids) != fleet_size or len(set(ids)) != fleet_size:
        errors.append(f"{len(set(ids))} distinct bikes, fleet is {fleet_size}")
    docked: dict[int, int] = {}
    for bike_id, status, station_id, rider_id in bikes:
        if status == "docked":
            if station_id is None or rider_id is not None:
                errors.append(f"bike {bike_id} docked but at {station_id}/{rider_id}")
            docked[station_id] = docked.get(station_id, 0) + 1
        elif status in ("riding", "stolen"):
            if rider_id is None or station_id is not None:
                errors.append(f"bike {bike_id} {status} but at {station_id}/{rider_id}")
        else:
            errors.append(f"bike {bike_id} has unknown status {status!r}")
    for row in stations:
        if docked.get(row[0], 0) != row[2]:
            errors.append(
                f"station {row[0]} advertises {row[2]} bikes, "
                f"{docked.get(row[0], 0)} are docked there"
            )
    return _clip(errors)


def check_billing(
    total: float, preload: Sequence[float], fares: Sequence[float]
) -> list[str]:
    """The billing total is the preloaded history plus every returned fare."""
    want = math.fsum(preload) + math.fsum(fares)
    if math.isclose(total, want, rel_tol=1e-9, abs_tol=1e-6):
        return []
    return [f"billing total {total!r} != preload + fares {want!r}"]


def check_alerts(alerts: Iterable[Sequence], thief_bike: int | None) -> list[str]:
    """Exactly one stolen alert, for the thief's bike.

    ``alerts`` rows are ``alert_id, bike_id, kind, ts, detail``.
    """
    stolen = [row for row in alerts if row[2] == "stolen"]
    if thief_bike is None:
        return ["no theft happened, so the alert check has nothing to check"]
    if len(stolen) != 1 or stolen[0][1] != thief_bike:
        return [
            f"stolen alerts {[(row[1], row[3]) for row in stolen]}, "
            f"expected exactly one for bike {thief_bike}"
        ]
    return []
