"""The durable ingest WAL: hash-chained segments, group-committed fsync.

The service's promise after this module is simple to state: **an
acknowledged frame survives ``kill -9``**.  Every mutating frame
(session-creating ``hello``, ``checkpoint``, ``send``, ``deliver``) is
appended here and made durable *before* its acknowledgement leaves the
server; on restart the server replays the WAL tail on top of the newest
valid snapshots and recovers exactly the acknowledged prefix -- the
checkpointing analyzer finally eats its own dogfood, surviving the very
failures whose recovery lines it computes.

Three layers, smallest surface first:

* :class:`WalRecord` / :func:`read_wal` -- the on-disk format and its
  verifier.  A record is one line of canonical JSON carrying
  ``(seq, session, idx, op, prev, digest)`` where ``digest`` is the
  SHA-256 of the record body and ``prev`` chains it to the previous
  record, so any truncation, bit flip, deletion or reordering of
  segment files is *detected* on open.  The policy is
  **halt over degrade**: a torn tail (the records a crash caught
  mid-write, which by the commit ordering were never acknowledged) is
  dropped and reported; any damage that is not a pure tail raises
  :class:`WalCorruption` instead of serving silently-wrong state.
* :class:`IngestWal` -- the synchronous writer: buffered appends,
  explicit :meth:`~IngestWal.sync` (write + fsync) batches, a halt
  after any failed sync, segment rotation (each new segment's directory
  entry fsynced before any of its records counts as durable), and
  snapshot-driven segment reclamation
  (:meth:`~IngestWal.truncate_covered`).  Reclamation
  durably records a *reclamation anchor* (``wal-anchor.json``) naming
  where the chain now starts, so a reopen can verify a WAL whose first
  segments were legitimately deleted -- while a chain starting past seq
  0 with no anchor is still detected as leading-segment loss.
* :class:`WalCommitter` -- the asyncio group-commit front end: many
  shard workers ``await commit(seq)`` concurrently; once per loop pass
  the loop hands every waiter of that pass to the WAL's one long-lived
  sync thread, whose fsyncs (each retiring up to ``fsync_batch``
  records) serve them all, so the event loop never blocks on the disk.

:func:`recover_sessions` is the other half of durability: it folds the
verified records over the newest snapshots into per-session ingest
logs, the exact input :meth:`ServeSession.replay_log` needs.  The
server calls it at startup; tests and offline tools call it against a
crashed server's directories to know precisely what an honest recovery
must produce.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.jsonio import canonical_bytes, canonical_dumps
from repro.serve.disk import Disk
from repro.types import ReproError

__all__ = [
    "GENESIS",
    "IngestWal",
    "WalCommitter",
    "WalCorruption",
    "WalError",
    "WalRecord",
    "read_wal",
    "recover_sessions",
]


class WalError(ReproError):
    """A WAL operation was invalid (bad arguments, closed writer...)."""


class WalCorruption(WalError):
    """The WAL on disk is damaged beyond a pure torn tail.

    Raised by :func:`read_wal` / :class:`IngestWal` when the chain
    breaks anywhere that cannot be explained by a crash tearing the
    last unsynced batch: a record with well-formed successors fails its
    digest, a segment is missing or reordered, sequence numbers gap.
    The server treats this as fatal at startup -- it refuses to serve
    rather than degrade to silently-wrong state.
    """


#: The ``prev`` digest of the very first record (nothing before it).
GENESIS = "0" * 64

#: Segment file name pattern: first sequence number, zero padded so
#: lexicographic order is numeric order.
_SEGMENT_FMT = "wal-{:020d}.log"

#: The reclamation anchor: written durably by ``truncate_covered``
#: *before* it unlinks leading segments, recording the header (first
#: seq + chain digest) of the first surviving segment.  It is what lets
#: a later open start the chain mid-stream instead of at GENESIS --
#: without it, a chain that does not start at seq 0 is treated as
#: leading-segment deletion and halts.
_ANCHOR_NAME = "wal-anchor.json"


@dataclass(frozen=True)
class WalRecord:
    """One durable ingest operation.

    ``seq`` is the WAL-global position (0-based, gapless), ``session``
    the session it mutates, ``idx`` the operation's index in that
    session's ingest log (``-1`` for the session-creating ``hello``,
    which precedes the log), ``op`` the canonical operation document,
    ``prev``/``digest`` the hash chain.
    """

    seq: int
    session: str
    idx: int
    op: Dict[str, object]
    prev: str
    digest: str

    def body(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "session": self.session,
            "idx": self.idx,
            "op": self.op,
            "prev": self.prev,
        }

    def as_doc(self) -> Dict[str, object]:
        doc = self.body()
        doc["digest"] = self.digest
        return doc


def _chain_digest(body: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


#: A record body in canonical form: sorted keys, no whitespace.
_BODY = '{"idx":%d,"op":%s,"prev":%s,"seq":%d,"session":%s}'


def _mint(
    seq: int, session: str, idx: int, op: Dict[str, object], prev: str
) -> Tuple[WalRecord, bytes]:
    """One chained record and its line on disk.

    The canonical body is formatted directly, its keys already in sorted
    order (``idx, op, prev, seq, session``) and each value in its
    canonical encoding, so nothing is re-encoded through a dict.
    ``"digest"`` sorts before every body key, so the canonical line is
    the body with the digest spliced in front.  The record is built
    without the frozen dataclass's ``__init__``: its fields are exactly
    the arguments.
    """
    body = (
        _BODY % (idx, canonical_dumps(op), canonical_dumps(prev), seq,
                 canonical_dumps(session))
    ).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    line = b'{"digest":"' + digest.encode("ascii") + b'",' + body[1:] + b"\n"
    record = object.__new__(WalRecord)
    object.__setattr__(record, "__dict__", {
        "seq": seq, "session": session, "idx": idx, "op": op, "prev": prev,
        "digest": digest,
    })
    return record, line


def make_record(
    seq: int, session: str, idx: int, op: Dict[str, object], prev: str
) -> WalRecord:
    """Mint one chained record (digest computed over the body)."""
    return _mint(seq, session, idx, op, prev)[0]


def _record_from_doc(doc: Dict[str, object]) -> Optional[WalRecord]:
    """Parse + verify one record document; None when malformed."""
    try:
        seq = doc["seq"]
        session = doc["session"]
        idx = doc["idx"]
        op = doc["op"]
        prev = doc["prev"]
        digest = doc["digest"]
    except (KeyError, TypeError):
        return None
    if not (
        isinstance(seq, int)
        and isinstance(session, str)
        and isinstance(idx, int)
        and isinstance(op, dict)
        and isinstance(prev, str)
        and isinstance(digest, str)
    ):
        return None
    record = WalRecord(
        seq=seq, session=session, idx=idx, op=op, prev=prev, digest=digest
    )
    if _chain_digest(record.body()) != digest:
        return None
    return record


def _parse_line(line: bytes) -> Optional[Dict[str, object]]:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _looks_like_record(doc: Dict[str, object]) -> bool:
    """A well-formed (though possibly mis-chained) record document."""
    return "seq" in doc and "digest" in doc and "op" in doc


def _segment_paths(directory: Path, disk: Disk) -> List[Path]:
    return [
        directory / name for name in disk.listdir(directory)
        if name.startswith("wal-") and name.endswith(".log")
    ]


def _chain_point(line: bytes, tag: str) -> Optional[Tuple[int, str]]:
    """``(first_seq, prev)`` of a header or anchor line tagged ``tag``."""
    doc = _parse_line(line)
    if (
        doc is None
        or doc.get(tag) != 1
        or not isinstance(doc.get("first_seq"), int)
        or not isinstance(doc.get("prev"), str)
    ):
        return None
    return doc["first_seq"], doc["prev"]  # type: ignore[return-value]


def _peek_header(path: Path, disk: Disk) -> Optional[Tuple[int, str]]:
    """The segment header's chain point, when its first line is intact."""
    line, newline, _ = (disk.read(path) or b"").partition(b"\n")
    return _chain_point(line, "wal") if newline else None


def _read_anchor(directory: Path, disk: Disk) -> Optional[Tuple[int, str]]:
    """``(first_seq, prev)`` of the reclamation anchor, if one exists.

    Raises :class:`WalCorruption` when the anchor file is present but
    unreadable -- callers only ask for it when the chain actually needs
    an anchor, so a broken one is indistinguishable from lost history.
    """
    data = disk.read(directory / _ANCHOR_NAME)
    if data is None:
        return None
    anchor = _chain_point(data.strip(), "wal_anchor")
    if anchor is None:
        raise WalCorruption(f"{_ANCHOR_NAME}: unreadable reclamation anchor")
    return anchor


@dataclass
class _Scan:
    """What scanning the segment directory established."""

    records: List[WalRecord]
    #: ``(path, byte offset)`` of the first torn byte, when the final
    #: segment ends in a torn (unacknowledged) tail; None when clean.
    torn: Optional[Tuple[Path, int]]
    #: Records dropped as the torn tail (diagnostic only).
    dropped: int
    #: Where the chain resumes: the seq the next appended record takes
    #: and the digest it links from.  Derivable from ``records`` only
    #: when the scan started at GENESIS; after snapshot-driven segment
    #: reclamation (or a tail torn down to a bare header) the anchor /
    #: header carries the truth even with zero surviving records.
    next_seq: int = 0
    prev: str = GENESIS


def _scan(directory: Path, disk: Disk) -> _Scan:
    """Verify every segment; recover the longest provable prefix.

    Raises :class:`WalCorruption` for any damage that is not a pure
    tail of the final segment.  When leading segments were reclaimed by
    ``truncate_covered`` (their records all covered by durable
    snapshots), the chain legitimately starts past seq 0: the
    reclamation anchor -- written before the first unlink -- vouches
    for the new starting point, and the scan seeds ``prev``/``seq``
    from it instead of GENESIS.  A chain starting past 0 *without* an
    anchor is leading-segment deletion: halt.
    """
    paths = _segment_paths(directory, disk)
    records: List[WalRecord] = []
    prev = GENESIS
    next_seq = 0
    if not paths:
        if disk.read(directory / _ANCHOR_NAME) is not None:
            raise WalCorruption(
                "reclamation anchor present but no segment files -- the "
                "segments were deleted out from under it"
            )
        return _Scan([], torn=None, dropped=0)
    anchor_check: Optional[Tuple[int, str]] = None
    head = _peek_header(paths[0], disk)
    first_seq = head[0] if head is not None else 0
    if first_seq > 0:
        anchor = _read_anchor(directory, disk)
        if anchor is None:
            raise WalCorruption(
                f"{paths[0].name}: chain starts at seq {first_seq} with no "
                f"reclamation anchor -- leading segments are missing"
            )
        a_seq, a_prev = anchor
        if first_seq > a_seq:
            raise WalCorruption(
                f"{paths[0].name}: chain starts at seq {first_seq} but the "
                f"reclamation anchor only covers up to seq {a_seq} -- "
                f"segments past the anchor are missing"
            )
        if first_seq == a_seq:
            next_seq, prev = a_seq, a_prev
        else:
            # A crash between the anchor write and the unlinks left
            # extra leading segments behind.  Their records are all
            # snapshot-covered (that is why they were reclaimable), so
            # seed the chain from this segment's own header; every
            # following digest verifies it forward, and the anchored
            # segment's header re-checks it against the anchor.
            next_seq, prev = head  # type: ignore[misc]
            anchor_check = anchor
    for p_i, path in enumerate(paths):
        final_segment = p_i == len(paths) - 1
        data = disk.read(path) or b""
        lines = data.split(b"\n")
        # A well-formed segment ends with a newline: final split is b"".
        offset = 0
        expect_header = True
        for l_i, line in enumerate(lines):
            is_last_line = l_i == len(lines) - 1
            if is_last_line and line == b"":
                break  # clean trailing newline
            doc = _parse_line(line)
            bad: Optional[str] = None
            if doc is None:
                bad = "undecodable line"
            elif expect_header:
                # Segment header: names its first seq and the chain
                # digest it continues from; catches file deletion and
                # reordering even before the first record.
                if doc.get("wal") != 1:
                    bad = "missing segment header"
                elif doc.get("first_seq") != next_seq:
                    raise WalCorruption(
                        f"{path.name}: segment header claims first_seq="
                        f"{doc.get('first_seq')!r}, chain is at {next_seq}"
                    )
                elif doc.get("prev") != prev:
                    raise WalCorruption(
                        f"{path.name}: segment header does not continue "
                        f"the chain (prev mismatch)"
                    )
                elif (
                    anchor_check is not None
                    and doc.get("first_seq") == anchor_check[0]
                    and doc.get("prev") != anchor_check[1]
                ):
                    raise WalCorruption(
                        f"{path.name}: segment header disagrees with the "
                        f"reclamation anchor at seq {anchor_check[0]}"
                    )
                else:
                    expect_header = False
            else:
                record = _record_from_doc(doc)
                if record is None:
                    bad = "record fails its digest"
                elif record.seq != next_seq:
                    raise WalCorruption(
                        f"{path.name}: record seq {record.seq} where "
                        f"{next_seq} expected (gap or reorder)"
                    )
                elif record.prev != prev:
                    raise WalCorruption(
                        f"{path.name}: chain break at seq {record.seq} "
                        f"(prev digest mismatch)"
                    )
                else:
                    records.append(record)
                    prev = record.digest
                    next_seq += 1
            if bad is not None:
                # Damage.  It is a *torn tail* -- droppable -- only if
                # it is in the final segment and nothing record-shaped
                # follows it; anything else is corruption.
                if not final_segment:
                    raise WalCorruption(f"{path.name}: {bad} (not the tail)")
                rest = lines[l_i + 1 :]
                for later in rest:
                    later_doc = _parse_line(later)
                    if later_doc is not None and _looks_like_record(later_doc):
                        raise WalCorruption(
                            f"{path.name}: {bad}, but verifiable records "
                            f"follow it -- not a torn tail"
                        )
                dropped = sum(1 for l in (line, *rest) if l.strip())
                return _Scan(
                    records,
                    torn=(path, offset),
                    dropped=dropped,
                    next_seq=next_seq,
                    prev=prev,
                )
            offset += len(line) + 1
        if expect_header and data:
            raise WalCorruption(f"{path.name}: no segment header")
    return _Scan(records, torn=None, dropped=0, next_seq=next_seq, prev=prev)


def read_wal(directory: Union[str, Path], disk: Optional[Disk] = None) -> List[WalRecord]:
    """The verified record prefix of the WAL at ``directory``.

    Read-only: a torn tail is dropped from the result but left on
    disk.  Raises :class:`WalCorruption` on non-tail damage.
    """
    return _scan(Path(directory), disk or Disk()).records


class IngestWal:
    """The append-only writer (synchronous core; see module docstring).

    ``append`` buffers records in memory; ``sync`` writes a batch and
    ``fsync``\\ s it, advancing :attr:`durable_seq`.  Opening an
    existing directory verifies the chain, repairs a torn tail in
    place (truncating the file to the last provable byte) and resumes
    the chain where it left off.  Every file operation goes through ``disk``.

    Under a :class:`WalCommitter` the two halves run on two threads:
    ``append`` (and everything else) on the event loop, ``sync`` on the
    committer's sync thread.  The ``_pending`` deque is the hand-off
    between them -- the loop only appends to its right end, the sync
    thread only pops from its left -- and the chain head
    (``_next_seq``/``_prev``) belongs to the loop, the open segment and
    :attr:`opened` to the sync thread.  :attr:`durable_seq` is written
    by the sync thread only after the fsync that makes it true.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        segment_records: int = 4096,
        disk: Optional[Disk] = None,
    ) -> None:
        if segment_records <= 0:
            raise WalError("segment_records must be positive")
        self.directory = Path(directory)
        self.disk = disk = disk or Disk()
        # Also drops the tmp file a crash mid-anchor-write can leave.
        disk.mkdir(self.directory)
        self.segment_records = segment_records
        scan = _scan(self.directory, disk)
        self.repaired_tail = 0
        if scan.torn is not None:
            disk.truncate(*scan.torn)
            self.repaired_tail = scan.dropped
        self.recovered: List[WalRecord] = scan.records
        # Seed the chain from the scan, not from recovered records: after
        # snapshot-driven reclamation (or a tail torn down to its bare
        # header) the chain resumes past the last surviving record.
        self._prev = scan.prev
        self._next_seq = scan.next_seq
        self.durable_seq = self._next_seq - 1
        #: Appended records with their encoded lines, oldest first.
        self._pending: Deque[Tuple[WalRecord, bytes]] = deque()
        self._file: Optional[BinaryIO] = None
        self._segment_path: Optional[Path] = None
        self._segment_count = 0
        #: The first exception a sync raised; it halts the writer.
        self._failure: Optional[BaseException] = None
        paths = _segment_paths(self.directory, disk)
        if paths and not disk.read(paths[-1]):
            # A torn tail can eat the final segment's very header; the
            # repair above then leaves an empty file.  Resuming it
            # would append records under no header, so drop it and let
            # the next sync recreate the segment cleanly.
            disk.unlink(paths.pop())
        if paths:
            self._segment_path = paths[-1]
            # Count of records already in the final segment: those with
            # seq >= its first_seq (from the file name).
            first = int(paths[-1].name[len("wal-") : -len(".log")])
            self._segment_count = sum(1 for r in scan.records if r.seq >= first)
            if self._segment_count < self.segment_records:
                # Genuinely resume the final segment in place (the torn
                # tail, if any, was truncated above): reopening it for
                # append is what keeps ``_open_segment`` from ever
                # colliding with an existing file -- e.g. a tail torn
                # down to its bare header, whose next record must land
                # *after* that header, not under a second one.
                self._file = disk.open(self._segment_path)
        self.fsyncs = 0
        #: Segment files the latest :meth:`sync` created, oldest first.
        self.opened: List[str] = []
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Highest appended seq (may not be durable yet); -1 if none."""
        return self._next_seq - 1

    def pending(self) -> int:
        """Appended records not yet fsynced."""
        return len(self._pending)

    def _writable(self, verb: str) -> None:
        if self.closed:
            raise WalError(f"{verb} on a closed WAL")
        if self._failure is not None:
            # The failed sync took records off the queue that may or may
            # not be on disk: any later record could chain past a hole.
            raise WalError(
                f"{verb} on a WAL halted by a failed sync: no progress "
                f"past seq {self.durable_seq} is possible"
            ) from self._failure

    def append(self, session: str, idx: int, op: Dict[str, object]) -> WalRecord:
        """Buffer one record; durable only after a later :meth:`sync`."""
        self._writable("append")
        record, line = _mint(self._next_seq, session, idx, dict(op), self._prev)
        self._prev = record.digest
        self._next_seq += 1
        self._pending.append((record, line))
        return record

    # ------------------------------------------------------------------
    def _open_segment(self, first_seq: int, prev: str) -> None:
        path = self.directory / _SEGMENT_FMT.format(first_seq)
        if self.disk.read(path) is not None:
            # Resume (in __init__) owns every existing-file case; an
            # existing segment here means the writer's idea of the
            # chain has diverged from the directory.  Appending would
            # bury a second header mid-file and corrupt the segment, so
            # fail loudly instead (and open with "x" as a backstop).
            raise WalError(
                f"segment {path.name} already exists; refusing to "
                f"overwrite or double-header it"
            )
        self._segment_path = path
        self._segment_count = 0
        self.opened.append(path.name)
        header = {
            "wal": 1,
            "first_seq": first_seq,
            "prev": prev,
            # Wall clock here is operational metadata only: it never
            # enters a digest, a trace or any deterministic artifact.
            "created_unix": time.time(),  # lint: allow-wall-clock
        }
        self._file = self.disk.open(path, "xb")
        self._file.write(canonical_bytes(header) + b"\n")
        # The file's own fsync makes its bytes durable, not its name:
        # until the directory is fsynced a power cut can lose the entry,
        # and the acked records in it would vanish as a clean tail.
        self.disk.fsync_dir(self.directory)

    def sync(self, max_records: Optional[int] = None) -> int:
        """Write up to ``max_records`` pending records, fsync, return
        the new :attr:`durable_seq`.

        ``None`` drains everything pending.  One call is one fsync, plus
        one per segment it closes and one of the directory per segment
        it creates; group commit is the caller batching many logical
        commits onto one call.  :attr:`durable_seq` only advances past
        records an fsync has covered, and any exception halts the WAL.
        """
        self._writable("sync")
        count = len(self._pending) if max_records is None else min(
            max_records, len(self._pending)
        )
        self.opened = []
        if count == 0:
            return self.durable_seq
        try:
            for _ in range(count):
                record, line = self._pending.popleft()
                if self._file is None or self._segment_count >= self.segment_records:
                    if self._file is not None:
                        self._fsync_file()
                        self._file.close()
                        self.durable_seq = record.seq - 1
                    self._open_segment(record.seq, record.prev)
                self._file.write(line)
                self._segment_count += 1
            self._fsync_file()
        except BaseException as exc:
            self._failure = exc
            raise
        self.durable_seq = record.seq
        return self.durable_seq

    def _fsync_file(self) -> None:
        self.disk.fsync(self._file)
        self.fsyncs += 1

    # ------------------------------------------------------------------
    def segment_names(self) -> List[str]:
        return [p.name for p in _segment_paths(self.directory, self.disk)]

    def _segment_covered(self, path: Path, watermarks: Dict[str, int]) -> bool:
        """Every record in the segment is at or below its session's mark."""
        for line in (self.disk.read(path) or b"").split(b"\n"):
            if not line.strip():
                continue
            doc = _parse_line(line)
            if doc is None or doc.get("wal") == 1:
                continue
            session = doc.get("session")
            seq = doc.get("seq")
            if watermarks.get(str(session), -1) < int(seq):  # type: ignore[arg-type]
                return False
        return True

    def truncate_covered(self, watermarks: Dict[str, int]) -> List[str]:
        """Reclaim closed segments fully covered by session snapshots.

        ``watermarks[session]`` is the highest WAL seq a durable
        snapshot of that session covers.  A segment is deleted only
        when *every* record in it belongs to a session whose watermark
        is at or past that record -- and never the active segment nor
        the final one (the chain needs a surviving anchor segment).
        Before the first unlink, the first surviving segment's header
        is durably recorded in the reclamation anchor, so a reopen that
        finds a chain no longer starting at GENESIS always finds the
        anchor vouching for it.  Returns the deleted file names.
        """
        # Runs on the loop while the sync thread may rotate: the thread
        # names a segment active before it creates the file, and closes
        # the previous one first, so a listed path that is not active
        # is closed.
        paths = _segment_paths(self.directory, self.disk)
        deletable: List[Path] = []
        for path in paths[:-1]:
            if path == self._segment_path:
                break  # never the active tail
            if not self._segment_covered(path, watermarks):
                break  # segments are ordered; later ones end even higher
            deletable.append(path)
        if not deletable:
            return []
        survivor = paths[len(deletable)]
        head = _peek_header(survivor, self.disk)
        if head is None:
            raise WalCorruption(
                f"{survivor.name}: unreadable segment header; refusing to "
                f"reclaim the segments before it"
            )
        anchor = {"wal_anchor": 1, "first_seq": head[0], "prev": head[1]}
        self.disk.write_atomic(
            self.directory / _ANCHOR_NAME, canonical_bytes(anchor) + b"\n"
        )
        for path in deletable:
            self.disk.unlink(path)
        return [path.name for path in deletable]

    def close(self) -> None:
        """Sync and release the open segment; a halted writer only
        releases it (nothing more may become durable)."""
        if self.closed:
            return
        if self._failure is None:
            self.sync()
        if self._file is not None:
            with contextlib.suppress(OSError):  # its buffer may not flush
                self._file.close()
            self._file = None
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"<IngestWal {self.directory} last={self.last_seq} "
            f"durable={self.durable_seq} pending={len(self._pending)}>"
        )


#: Seconds an idle sync thread waits between checks of its loop.
_IDLE_CHECK_S = 1.0


class WalCommitter:
    """Asyncio group commit over one :class:`IngestWal`.

    Shard workers append records synchronously (in order, on the loop)
    and then ``await commit(seq)``, which registers a plain future.  Once
    per loop pass (``call_soon``) the loop hands every future registered
    in that pass to the WAL's one long-lived sync thread, so all the
    workers stepping in one pass ride one fsync.  The thread calls
    ``wal.sync(fsync_batch)`` -- one write and one fsync of at most
    ``fsync_batch`` records -- while any record those futures wait for
    is not durable, then resolves every one of them with one
    ``call_soon_threadsafe``.  A waiter cancelled meanwhile (a dying
    connection) neither aborts nor stalls the fsync the others wait on:
    futures are only looked at on the loop, when the batch is resolved.

    ``commit`` returns ``(durable_seq, opened)``: ``opened`` names the
    segment files created since the previous commit result, each
    handed to exactly one waiter, so a caller tracing rotations traces
    every segment once.  :meth:`close` retires the thread.
    """

    def __init__(self, wal: IngestWal, fsync_batch: int = 64) -> None:
        if fsync_batch <= 0:
            raise WalError("fsync_batch must be positive")
        self.wal = wal
        self.fsync_batch = fsync_batch
        self.commits = 0  # completed fsync batches
        self.committed_records = 0
        self._loop = None
        self._thread: Optional[threading.Thread] = None
        #: Loop side: waiters registered in the current loop pass, and
        #: segments opened that no commit result has named yet.
        self._registered: List[Tuple[int, object]] = []
        self._unnamed: List[str] = []
        self._closing = False
        #: Batches of waiters from the loop to the thread; None retires it.
        self._handed: "queue.SimpleQueue" = queue.SimpleQueue()
        self._retired = None  # resolved by the thread's last act

    async def commit(self, seq: int) -> Tuple[int, List[str]]:
        """Return once every record up to ``seq`` is durable.

        The committer serves the loop of its first commit."""
        import asyncio

        if self.wal.durable_seq >= seq:
            return self.wal.durable_seq, []
        if self._closing:
            raise WalError("commit on a closed committer")
        loop = asyncio.get_running_loop()
        if self._thread is None:
            self._loop = loop
            self._thread = threading.Thread(
                target=self._run, name="wal-sync", daemon=True
            )
            self._thread.start()
        if not self._registered:
            loop.call_soon(self._hand_off)
        waiter = loop.create_future()
        self._registered.append((seq, waiter))
        return await waiter

    def _hand_off(self) -> None:
        self._handed.put(self._registered)
        self._registered = []

    def _run(self) -> None:
        """The sync thread: fsync what is handed, resolve it, repeat."""
        loop, wal, handed = self._loop, self.wal, self._handed
        retire = False
        while not retire:
            try:
                batches = [handed.get(timeout=_IDLE_CHECK_S)]
            except queue.Empty:
                if loop.is_closed():  # closed without close(): nothing more comes
                    return
                continue
            # Every batch handed meanwhile rides the same fsyncs.
            while not handed.empty():
                batches.append(handed.get_nowait())
            retire = None in batches
            batch = [waiter for b in batches if b is not None for waiter in b]
            target = max((seq for seq, _ in batch), default=-1)
            opened: List[str] = []
            error: Optional[BaseException] = None
            try:
                while wal.durable_seq < target:
                    before = wal.durable_seq
                    # Looked up per call: a sync swapped onto the
                    # instance (a failing disk, in tests) is the one used.
                    # A sync that fails halts the WAL, so every later
                    # one raises: the loop never spins on lost records.
                    wal.sync(self.fsync_batch)
                    opened += wal.opened
                    self.commits += 1
                    self.committed_records += wal.durable_seq - before
            except Exception as exc:  # noqa: BLE001 - ENOSPC, EIO...
                error = exc
            try:
                loop.call_soon_threadsafe(
                    self._resolve, batch, wal.durable_seq, opened, error, retire
                )
            except RuntimeError:  # the loop closed under a cancelled batch
                return

    def _resolve(
        self,
        batch: List[Tuple[int, object]],
        durable: int,
        opened: List[str],
        error: Optional[BaseException],
        retire: bool,
    ) -> None:
        self._unnamed += opened
        for seq, waiter in batch:
            if waiter.done():  # cancelled
                continue
            if seq <= durable:
                waiter.set_result((durable, self._unnamed))
                self._unnamed = []
            else:
                waiter.set_exception(error)
        if retire:
            self._retired.set_result(None)

    async def close(self) -> None:
        """Retire the sync thread once every batch handed to it is
        resolved; the WAL may then be synced and closed on the loop's
        own thread."""
        thread = self._thread
        self._closing = True
        if thread is None or not thread.is_alive():
            return
        if self._registered:
            self._hand_off()
        self._retired = self._loop.create_future()
        self._handed.put(None)
        await self._retired
        thread.join()

    def __repr__(self) -> str:
        return f"<WalCommitter batch={self.fsync_batch} {self.wal!r}>"


# ----------------------------------------------------------------------
# recovery: records + snapshots -> per-session ingest logs
# ----------------------------------------------------------------------
@dataclass
class RecoveredSession:
    """One session as the WAL + snapshots prove it existed."""

    session_id: str
    n: int
    protocol: str
    log: List[Dict[str, object]]
    #: Highest WAL seq that contributed (or the snapshot watermark when
    #: every record was already covered); -1 for a snapshot-only session
    #: whose snapshot predates the WAL.
    wal_seq: int
    from_snapshot: bool


def recover_sessions(
    records: Iterable[WalRecord],
    snapshots: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, RecoveredSession]:
    """Fold verified WAL records over snapshot documents.

    ``snapshots`` maps session id to its newest snapshot document
    (``repro.serve.snapshots`` schema; ``wal_seq``/``log`` are what
    matters here).  Per session the result is the snapshot's log plus
    every record with ``idx`` at or past the snapshot log's length,
    applied contiguously; a gap -- a record the chain proves existed
    whose predecessors are neither in the WAL nor covered by a
    snapshot -- raises :class:`WalCorruption` (halt over degrade).
    """
    snapshots = snapshots or {}
    out: Dict[str, RecoveredSession] = {}
    for session_id, doc in snapshots.items():
        out[session_id] = RecoveredSession(
            session_id=session_id,
            n=int(doc["n"]),  # type: ignore[arg-type]
            protocol=str(doc["protocol"]),
            log=[dict(op) for op in doc["log"]],  # type: ignore[union-attr]
            wal_seq=int(doc.get("wal_seq", -1)),  # type: ignore[arg-type]
            from_snapshot=True,
        )
    for record in records:
        session = out.get(record.session)
        if record.idx == -1:
            # Session creation.  Idempotent under a covering snapshot.
            op = record.op
            if session is None:
                out[record.session] = RecoveredSession(
                    session_id=record.session,
                    n=int(op.get("n", -1)),  # type: ignore[arg-type]
                    protocol=str(op.get("protocol", "")),
                    log=[],
                    wal_seq=record.seq,
                    from_snapshot=False,
                )
            else:
                session.wal_seq = max(session.wal_seq, record.seq)
            continue
        if session is None:
            raise WalCorruption(
                f"record seq {record.seq} mutates session "
                f"{record.session!r} with no creation record and no "
                f"snapshot -- the WAL prefix covering it is gone"
            )
        if record.idx < len(session.log):
            # Already covered by the snapshot; the record is the
            # snapshot's provenance, not new work.
            session.wal_seq = max(session.wal_seq, record.seq)
            continue
        if record.idx > len(session.log):
            raise WalCorruption(
                f"session {record.session!r}: record seq {record.seq} has "
                f"op index {record.idx} but only {len(session.log)} "
                f"operations are recoverable before it"
            )
        session.log.append(dict(record.op))
        session.wal_seq = max(session.wal_seq, record.seq)
    return out
