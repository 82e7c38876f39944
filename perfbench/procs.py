"""Stored procedures the cluster workload defines for itself.

Module-level classes, so the cluster's worker processes can import them
by reference when the coordinator registers them.
"""

from __future__ import annotations

from typing import Any

from repro.apps.voter.procedures import ValidateVote
from repro.apps.voter.schema import CONTESTANT_NAMES
from repro.hstore.procedure import StoredProcedure


class RoutedValidateVote(ValidateVote):
    """``validate_vote`` routed by phone: each phone's history stays on one
    shard, so the one-vote-per-phone check is local."""

    partition_param = 0


class Leaderboard(StoredProcedure):
    """Read-only, on every shard: the shard's vote count per contestant.

    A grouped ad-hoc ``SELECT`` is refused on a multi-worker cluster, so
    the client reads the leaderboard through this procedure and adds the
    shards up itself.
    """

    name = "leaderboard"
    run_everywhere = True
    read_only = True
    statements = {
        "counts": (
            "SELECT contestant_number, COUNT(*) FROM votes "
            "GROUP BY contestant_number"
        ),
    }

    def run(self, ctx: Any) -> list[tuple[int, int]]:
        return [tuple(row) for row in ctx.execute("counts").rows]


class Eliminate(StoredProcedure):
    """On every shard: remove a contestant and every vote cast for it.

    The client picks the contestant (the lowest on the leaderboard it just
    read); the phones that voted for it may vote again.  Returns the votes
    this shard removed.
    """

    name = "eliminate"
    run_everywhere = True
    statements = {
        "count_votes": "SELECT COUNT(*) FROM votes WHERE contestant_number = ?",
        "delete_votes": "DELETE FROM votes WHERE contestant_number = ?",
        "delete_contestant": "DELETE FROM contestants WHERE contestant_number = ?",
    }

    def run(self, ctx: Any, contestant: int) -> int:
        removed = ctx.execute("count_votes", contestant).scalar()
        ctx.execute("delete_votes", contestant)
        ctx.execute("delete_contestant", contestant)
        return removed


class NewElection(StoredProcedure):
    """On every shard: every eliminated contestant runs again."""

    name = "new_election"
    run_everywhere = True
    statements = {
        "exists": "SELECT contestant_number FROM contestants WHERE contestant_number = ?",
        "reinstate": "INSERT INTO contestants VALUES (?, ?)",
    }

    def run(self, ctx: Any, contestants: int) -> int:
        reinstated = 0
        for number in range(1, contestants + 1):
            if not ctx.execute("exists", number):
                ctx.execute("reinstate", number, CONTESTANT_NAMES[number - 1])
                reinstated += 1
        return reinstated


class Noop(StoredProcedure):
    """A routed call that does no engine work: the coordinator↔worker floor."""

    name = "noop"
    partition_param = 0
    read_only = True

    def run(self, ctx: Any, key: str) -> None:
        return None
