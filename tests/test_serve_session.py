"""ServeSession: online ingest, queries, replay -- no sockets involved."""

import pytest

from repro.obs.jsonio import canonical_dumps
from repro.serve.session import ServeSession, SessionError, offline_answers
from repro.types import SimulationError


@pytest.fixture
def session():
    return ServeSession("t", 3, "bhmr")


def drive(session, ops):
    """Apply ops given as compact tuples; returns the replies."""
    replies = []
    for op in ops:
        if op[0] == "c":
            replies.append(session.apply({"kind": "checkpoint", "pid": op[1]}))
        elif op[0] == "s":
            replies.append(
                session.apply({"kind": "send", "src": op[1], "dst": op[2]})
            )
        else:
            replies.append(session.apply({"kind": "deliver", "msg_id": op[1]}))
    return replies


class TestConstruction:
    def test_unknown_protocol_names_registry(self):
        with pytest.raises(SimulationError, match="unknown protocol 'nope'"):
            ServeSession("t", 3, "nope")
        with pytest.raises(SimulationError, match="bhmr"):
            ServeSession("t", 3, "nope")  # the known list is in the message

    def test_bad_n(self):
        with pytest.raises(SimulationError, match="n >= 1"):
            ServeSession("t", 0, "bhmr")
        with pytest.raises(SimulationError, match="n >= 1"):
            ServeSession("t", "three", "bhmr")


class TestIngest:
    def test_checkpoint_reply(self, session):
        reply = session.apply({"kind": "checkpoint", "pid": 1})
        assert reply == {"ok": True, "index": 1, "force_checkpoint": False}

    def test_send_then_deliver(self, session):
        sent = session.apply({"kind": "send", "src": 0, "dst": 2})
        assert set(sent) == {"ok", "msg_id", "force_checkpoint", "forced_index"}
        assert sent["ok"] is True
        assert sent["msg_id"] == 0
        got = session.apply({"kind": "deliver", "msg_id": sent["msg_id"]})
        assert set(got) == {"ok", "msg_id", "force_checkpoint", "forced_index"}
        assert got["ok"] is True and got["msg_id"] == 0
        assert isinstance(got["force_checkpoint"], bool)
        assert session.ingest_log == [
            {"kind": "send", "src": 0, "dst": 2},
            {"kind": "deliver", "msg_id": 0},
        ]

    def test_msg_ids_are_dense(self, session):
        ids = [
            session.apply({"kind": "send", "src": 0, "dst": 1})["msg_id"]
            for _ in range(5)
        ]
        assert ids == [0, 1, 2, 3, 4]

    def test_unknown_kind(self, session):
        with pytest.raises(SessionError, match="unknown ingest op"):
            session.apply({"kind": "flush"})

    def test_bad_pid_not_logged(self, session):
        for doc in (
            {"kind": "checkpoint", "pid": 3},
            {"kind": "checkpoint", "pid": -1},
            {"kind": "checkpoint", "pid": "x"},
            {"kind": "send", "src": 0, "dst": 7},
        ):
            with pytest.raises(SessionError):
                session.apply(doc)
        assert session.ingest_log == []

    def test_bool_and_float_ids_are_refused_and_not_logged(self, session):
        """JSON ``true`` is an ``int`` to ``isinstance`` and ``1.0`` /
        ``False`` hash equal to ids 1 / 0: each used to be accepted and
        written to the ingest log (and the WAL) as sent."""
        drive(session, [("s", 0, 1), ("s", 1, 2)])  # messages 0 and 1
        log = list(session.ingest_log)
        for doc in (
            {"kind": "checkpoint", "pid": True},
            {"kind": "checkpoint", "pid": 1.0},
            {"kind": "send", "src": True, "dst": 2},
            {"kind": "send", "src": 0, "dst": True},
            {"kind": "deliver", "msg_id": 1.0},
            {"kind": "deliver", "msg_id": False},
            {"kind": "deliver", "msg_id": True},
        ):
            with pytest.raises(SessionError):
                session.apply(doc)
            assert session.ingest_log == log
        assert session.manager.last_taken(1) == 0
        # The well-typed forms of the same ops still go through.
        assert session.apply({"kind": "deliver", "msg_id": 1})["msg_id"] == 1
        assert session.apply({"kind": "checkpoint", "pid": 1})["index"] == 1

    def test_self_send_refused(self, session):
        with pytest.raises(SessionError, match="src == dst"):
            session.apply({"kind": "send", "src": 1, "dst": 1})

    def test_unknown_msg_id(self, session):
        with pytest.raises(SessionError, match="unknown msg_id"):
            session.apply({"kind": "deliver", "msg_id": 99})

    def test_double_deliver_refused_and_not_logged(self, session):
        mid = session.apply({"kind": "send", "src": 0, "dst": 1})["msg_id"]
        session.apply({"kind": "deliver", "msg_id": mid})
        events = len(session.ingest_log)
        with pytest.raises(SessionError, match="delivered twice"):
            session.apply({"kind": "deliver", "msg_id": mid})
        assert len(session.ingest_log) == events


class TestQueries:
    def test_rdt_status_shape(self, session):
        drive(session, [("c", 0), ("s", 0, 1), ("d", 0), ("c", 1)])
        status = session.query("rdt_status")
        assert status["n"] == 3
        assert status["protocol"] == "bhmr"
        assert status["ensures_rdt"] is True
        assert status["events"] == 4
        assert isinstance(status["z_cycle_free"], bool)
        assert isinstance(status["useless"], list)

    def test_z_cycles_empty_on_fresh_session(self, session):
        assert session.query("z_cycles") == {"count": 0, "cycles": []}

    def test_recovery_line_defaults_to_all_crashed(self, session):
        drive(session, [("c", 0), ("s", 0, 1), ("d", 0)])
        line = session.query("recovery_line")
        assert line["crashed"] == [0, 1, 2]
        assert len(line["cut"]) == 3

    def test_recovery_line_validates_crashed(self, session):
        with pytest.raises(SessionError, match="crashed"):
            session.query("recovery_line", crashed=[7])
        with pytest.raises(SessionError, match="crashed"):
            session.query("recovery_line", crashed="all")
        for crashed in ([True], [0, 1.0], [False, 2]):
            with pytest.raises(SessionError, match="crashed"):
                session.query("recovery_line", crashed=crashed)
        assert session.queries_answered == 0

    def test_metrics_counts(self, session):
        drive(session, [("c", 0), ("s", 0, 1), ("d", 0), ("s", 1, 2)])
        metrics = session.query("metrics")
        assert metrics["events"] == 4
        assert metrics["sends"] == 2
        assert metrics["delivers"] == 1
        assert metrics["queries"] == 0  # itself not yet counted
        assert session.query("metrics")["queries"] == 1

    @pytest.mark.parametrize("protocol", ["bhmr", "cbr", "independent"])
    def test_metrics_match_a_recount_of_the_log(self, protocol):
        """The running counters answer what a scan of the log would."""
        import random

        rng = random.Random(11)
        session = ServeSession("t", 4, protocol)
        in_flight = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.15:
                session.apply({"kind": "checkpoint", "pid": rng.randrange(4)})
            elif roll < 0.6 or not in_flight:
                src, dst = rng.sample(range(4), 2)
                reply = session.apply({"kind": "send", "src": src, "dst": dst})
                in_flight.append(reply["msg_id"])
            else:
                mid = in_flight.pop(rng.randrange(len(in_flight)))
                session.apply({"kind": "deliver", "msg_id": mid})
            with pytest.raises(SessionError):  # refused ops count nowhere
                session.apply({"kind": "send", "src": 0, "dst": 0})
        kinds = [op["kind"] for op in session.ingest_log]
        metrics = session.query("metrics")
        assert metrics["events"] == len(kinds) == 300
        assert metrics["sends"] == kinds.count("send")
        assert metrics["delivers"] == kinds.count("deliver")
        assert metrics["forced"] == session.forced_total
        assert (
            metrics["checkpoints"]
            == kinds.count("checkpoint") + session.forced_total
            == sum(session.manager.last_taken(p) for p in range(4))
        )
        if protocol != "independent":
            assert session.forced_total > 0  # forced checkpoints exercised

    def test_queries_never_log(self, session):
        drive(session, [("c", 0)])
        session.query("rdt_status")
        session.query("z_cycles")
        assert len(session.ingest_log) == 1

    def test_unknown_query(self, session):
        with pytest.raises(SessionError, match="unknown query"):
            session.query("entropy")


class TestReplay:
    def test_replay_log_matches_live(self, session):
        drive(
            session,
            [("c", 0), ("s", 0, 1), ("s", 1, 2), ("d", 0), ("c", 2), ("d", 1)],
        )
        twin = ServeSession.replay_log("t", 3, "bhmr", session.ingest_log)
        assert twin.ingest_log == session.ingest_log
        for what in ("rdt_status", "z_cycles", "metrics"):
            assert canonical_dumps(twin.query(what)) == canonical_dumps(
                session.query(what)
            )

    def test_offline_answers_are_byte_identical(self, session):
        drive(session, [("s", 0, 1), ("d", 0), ("c", 1), ("s", 1, 0), ("d", 1)])
        live = {
            "rdt_status": session.query("rdt_status"),
            "z_cycles": session.query("z_cycles"),
            "recovery_line": session.query("recovery_line", crashed=[0]),
        }
        offline = offline_answers("t", 3, "bhmr", session.ingest_log, crashed=[0])
        assert canonical_dumps(offline) == canonical_dumps(live)
