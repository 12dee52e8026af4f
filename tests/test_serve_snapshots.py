"""Snapshot/restore: digest-checked replay, memory and directory stores."""

import pytest

from repro.obs.jsonio import canonical_dumps
from repro.serve.session import ServeSession
from repro.serve.snapshots import (
    SnapshotStore,
    restore_session,
    snapshot_doc,
    state_digest,
)
from repro.types import SimulationError


def busy_session(protocol="bhmr"):
    session = ServeSession("snap", 3, protocol)
    for _ in range(3):
        mid = session.apply({"kind": "send", "src": 0, "dst": 1})["msg_id"]
        session.apply({"kind": "deliver", "msg_id": mid})
        session.apply({"kind": "checkpoint", "pid": 2})
    return session


class TestSnapshotRoundTrip:
    def test_restore_rebuilds_identical_state(self):
        session = busy_session()
        doc = snapshot_doc(session)
        twin = restore_session(doc)
        assert twin.session_id == session.session_id
        assert twin.ingest_log == session.ingest_log
        assert state_digest(twin) == doc["digest"]
        assert canonical_dumps(twin.query("rdt_status")) == canonical_dumps(
            session.query("rdt_status")
        )

    def test_restored_session_keeps_ingesting(self):
        session = busy_session()
        twin = restore_session(snapshot_doc(session))
        # Message ids continue where the log left off.
        reply = twin.apply({"kind": "send", "src": 1, "dst": 2})
        assert reply["msg_id"] == len(
            [op for op in session.ingest_log if op["kind"] == "send"]
        )

    def test_snapshot_doc_is_json_safe(self):
        doc = snapshot_doc(busy_session())
        assert canonical_dumps(doc)  # no repr fallbacks, no cycles
        assert doc["version"] == 4
        assert doc["events"] == len(doc["log"])
        assert doc["wal_seq"] == -1  # no WAL attached

    def test_snapshot_doc_records_wal_watermark(self):
        doc = snapshot_doc(busy_session(), wal_seq=41)
        assert doc["wal_seq"] == 41

    def test_other_version_refused_by_name(self):
        # A parent-commit doc hashed another preimage; it must not reach
        # (and misleadingly fail) the digest check.
        doc = snapshot_doc(busy_session())
        doc["version"] = 3
        with pytest.raises(SimulationError, match="version 3"):
            restore_session(doc)

    def test_tampered_log_fails_integrity_check(self):
        doc = snapshot_doc(busy_session())
        doc["log"] = doc["log"][:-1]  # drop the last op, keep the digest
        with pytest.raises(SimulationError, match="integrity"):
            restore_session(doc)

    def test_tampered_digest_fails_integrity_check(self):
        doc = snapshot_doc(busy_session())
        doc["digest"] = "0" * 64
        with pytest.raises(SimulationError, match="integrity"):
            restore_session(doc)


class TestSnapshotStore:
    @pytest.fixture(params=["memory", "directory"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return SnapshotStore()
        return SnapshotStore(tmp_path / "snaps")

    def test_save_load_pop(self, store):
        session = busy_session()
        saved = store.save(session)
        assert "snap" in store
        assert store.known() == ["snap"]
        loaded = store.load("snap")
        assert canonical_dumps(loaded) == canonical_dumps(saved)
        popped = store.pop("snap")
        assert canonical_dumps(popped) == canonical_dumps(saved)
        assert "snap" not in store
        assert store.pop("snap") is None

    def test_discard_unknown_is_a_noop(self, store):
        store.discard("ghost")
        assert store.known() == []

    def test_load_then_restore(self, store):
        session = busy_session()
        store.save(session)
        twin = restore_session(store.load("snap"))
        assert state_digest(twin) == state_digest(session)


class TestDirectoryStore:
    def test_snapshots_survive_a_new_store(self, tmp_path):
        directory = tmp_path / "snaps"
        SnapshotStore(directory).save(busy_session())
        fresh = SnapshotStore(directory)  # a restarted server
        assert fresh.known() == ["snap"]
        assert restore_session(fresh.load("snap")).ingest_log

    def test_hostile_session_ids_stay_inside_the_directory(self, tmp_path):
        directory = tmp_path / "snaps"
        store = SnapshotStore(directory)
        session = busy_session()
        session.session_id = "../escape"
        store.save(session)
        files = list(directory.glob("*.json"))
        assert len(files) == 1
        assert files[0].parent == directory


    def test_ids_that_sanitize_alike_keep_their_own_snapshots(self, tmp_path):
        directory = tmp_path / "snaps"
        store = SnapshotStore(directory)
        for sid in ("a/b", "a_b"):
            session = busy_session()
            session.session_id = sid
            store.save(session)
        assert store.load("a/b")["session"] == "a/b"
        assert store.load("a_b")["session"] == "a_b"
        assert SnapshotStore(directory).known() == ["a/b", "a_b"]
        assert (directory / "a_b.json").exists()  # a safe id keeps its name

    def test_a_long_id_saves_and_restores(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        session = busy_session()
        session.session_id = "s" * 300
        store.save(session)
        assert restore_session(store.load("s" * 300)).session_id == "s" * 300
        assert [len(p.name) for p in (tmp_path / "snaps").iterdir()] == [70]

    def test_a_swapped_file_is_refused(self, tmp_path):
        directory = tmp_path / "snaps"
        store = SnapshotStore(directory)
        for sid in ("x", "y"):
            session = busy_session()
            session.session_id = sid
            store.save(session)
        (directory / "x.json").write_bytes((directory / "y.json").read_bytes())
        with pytest.raises(SimulationError, match="holds session 'y'"):
            store.load("x")


class TestAtomicWrites:
    """A crash mid-save leaves the old snapshot or the new -- never a torn one."""

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        directory = tmp_path / "snaps"
        directory.mkdir()
        junk = directory / "snap.json.tmp"
        junk.write_text('{"half a snapsh')  # the crash caught mid-write
        store = SnapshotStore(directory)
        assert not junk.exists()
        assert store.known() == []  # and it never masqueraded as real

    def test_crash_before_rename_keeps_the_old_snapshot(
        self, tmp_path, monkeypatch
    ):
        import os as os_module

        directory = tmp_path / "snaps"
        store = SnapshotStore(directory)
        session = busy_session()
        first = store.save(session, wal_seq=3)

        # Grow the session, then crash the save between fsync and
        # rename: os.replace raising models the power cut exactly
        # (the tmp file is complete, the directory entry is not).
        session.apply({"kind": "checkpoint", "pid": 0})

        def power_cut(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os_module, "replace", power_cut)
        with pytest.raises(OSError, match="simulated"):
            store.save(session, wal_seq=9)
        monkeypatch.undo()

        # Recovery sees the *previous* snapshot, whole and verifiable.
        survivor = SnapshotStore(directory)
        doc = survivor.load("snap")
        assert canonical_dumps(doc) == canonical_dumps(first)
        assert restore_session(doc).ingest_log == session.ingest_log[:-1]

        # And a clean retry supersedes it atomically.
        second = survivor.save(session, wal_seq=9)
        assert survivor.load("snap")["wal_seq"] == 9
        assert second["events"] == first["events"] + 1

    def test_tmp_artifacts_never_shadow_real_snapshots(self, tmp_path):
        directory = tmp_path / "snaps"
        store = SnapshotStore(directory)
        store.save(busy_session())
        (directory / "other.json.tmp").write_text("{}")
        assert store.known() == ["snap"]
        assert store.load("other") is None
