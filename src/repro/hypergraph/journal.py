"""Durable mutation journal + snapshots: crash-consistent dynamic graphs.

PR 9 made the hypergraph mutable; this module makes the mutations
*survive*.  A :class:`MutationJournal` owns one directory holding three
kinds of artefact:

``mutations.log``
    An append-only binary log of committed
    :class:`~repro.hypergraph.dynamic.MutationBatch` es.  Each record is
    length-prefixed and CRC32-checksummed::

        u32 length | u32 crc32(body) | body

    (little-endian), where ``body`` is the canonical JSON
    ``{"batch": <MutationBatch.to_json()>, "version": <int>}``.  The
    file starts with the 9-byte magic ``b"HGJRNL 1\\n"``.  On open, a
    *torn* tail — a partial record, the expected residue of a crash
    mid-append — is truncated at the last good record boundary;
    corruption anywhere *before* the tail raises the typed
    :class:`~repro.errors.JournalCorruption` instead, because replaying
    past it would fabricate state.

``snapshot-<version>.snap``
    A periodic full snapshot so recovery is snapshot + replay-suffix
    rather than full replay.  The format reuses
    :func:`~repro.hypergraph.persistence.dump_store` for the dense live
    content and prefixes the tombstone/edge-id state of the
    :class:`~repro.hypergraph.dynamic.DynamicHypergraph` (dead slot ids
    with their signatures, the slot count, the version), which together
    reconstruct a *coordinate-identical* graph — same rows, same next
    edge id, same fingerprint.  Snapshots are written to a temp file,
    fsynced and atomically renamed, so a crash mid-snapshot leaves the
    previous one intact.

``standing.json``
    The registered standing queries, one structural record each
    (vertex ``labels``, ``edges``, ``edge_labels`` and the pinned
    ``order``), rewritten atomically on every register/unregister and
    at drain, so a restarted daemon re-registers them against the
    recovered graph.

The directory, the fsync policy and the snapshot cadence are
constructor arguments (``serve-match --journal-dir``,
``--journal-fsync``, ``--snapshot-interval``), validated there: a bad
value is a typed :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..errors import HypergraphError, JournalCorruption, JournalError, ParseError
from .dynamic import DynamicHypergraph, MutationBatch
from .persistence import _decode_label, _encode_label, dump_store, parse_store
from .storage import PartitionedStore

#: First bytes of ``mutations.log``; anything else is not a journal.
JOURNAL_MAGIC = b"HGJRNL 1\n"

#: First line of a snapshot file.
SNAPSHOT_MAGIC = "HGDSNAP 1"

#: ``u32 length | u32 crc32`` — the per-record header, little-endian.
RECORD_HEADER = struct.Struct("<II")

#: Refuse records longer than this (a MutationBatch is tiny; anything
#: bigger is a corrupt length field, not a real record).
MAX_RECORD_BYTES = 1 << 26

#: Accepted values of the fsync policy.
FSYNC_POLICIES = ("always", "never")

#: Batches between automatic snapshots unless the caller says otherwise.
DEFAULT_SNAPSHOT_INTERVAL = 64

JOURNAL_FILE = "mutations.log"
STANDING_FILE = "standing.json"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.snap$")


# ----------------------------------------------------------------------
# Setting validation (errors are typed)
# ----------------------------------------------------------------------


def _validate_fsync(policy: str) -> str:
    if policy not in FSYNC_POLICIES:
        raise JournalError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {policy!r}"
        )
    return policy


def _validate_interval(interval: int) -> int:
    if not isinstance(interval, int) or interval < 1:
        raise JournalError(
            f"snapshot interval must be a positive integer, "
            f"got {interval!r}"
        )
    return interval


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------


def encode_record(version: int, batch: MutationBatch) -> bytes:
    """One journal record: length + CRC32 header, canonical JSON body."""
    body = json.dumps(
        {"batch": batch.to_json(), "version": version},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def scan_journal(
    data: bytes, source: str = "journal"
) -> Tuple[List[Tuple[int, int, MutationBatch]], int]:
    """Parse raw journal bytes into committed records.

    Returns ``(records, valid_bytes)`` where each record is ``(offset,
    version, batch)`` and ``valid_bytes`` is the length of the longest
    committed prefix — everything after it is a torn tail the opener
    should truncate.  Raises
    :class:`~repro.errors.JournalCorruption` for damage that is *not* a
    torn tail: a bad magic, an implausible length field, a checksum or
    decode failure with valid-looking log after it, or a record whose
    version breaks the committed sequence.
    """
    if not data:
        return [], 0
    if not data.startswith(JOURNAL_MAGIC):
        if len(data) < len(JOURNAL_MAGIC) and JOURNAL_MAGIC.startswith(data):
            return [], 0  # torn during creation: no records were lost
        raise JournalCorruption(
            f"{source} does not start with the journal magic "
            f"{JOURNAL_MAGIC!r}: not a mutation journal"
        )
    offset = len(JOURNAL_MAGIC)
    records: List[Tuple[int, int, MutationBatch]] = []
    previous_version: "int | None" = None
    while offset < len(data):
        start = offset
        if len(data) - offset < RECORD_HEADER.size:
            return records, start  # torn mid-header
        length, crc = RECORD_HEADER.unpack_from(data, offset)
        offset += RECORD_HEADER.size
        if not 0 < length <= MAX_RECORD_BYTES:
            raise JournalCorruption(
                f"{source}: implausible record length {length} at byte "
                f"{start} — a torn write leaves a short record, never a "
                f"garbled header"
            )
        if len(data) - offset < length:
            return records, start  # torn mid-body
        body = bytes(data[offset:offset + length])
        offset += length
        if zlib.crc32(body) != crc:
            if offset == len(data):
                return records, start  # corrupt tail record: drop it
            raise JournalCorruption(
                f"{source}: checksum mismatch at byte {start} with "
                f"{len(data) - offset} bytes of log after it — "
                f"mid-log corruption, refusing to replay past it"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
            version = payload["version"]
            batch = MutationBatch.from_json(payload["batch"])
            if not isinstance(version, int):
                raise TypeError("version must be an integer")
        except Exception as exc:
            raise JournalCorruption(
                f"{source}: record at byte {start} passed its checksum "
                f"but does not decode ({exc}) — mid-log corruption"
            ) from None
        if previous_version is not None and version != previous_version + 1:
            raise JournalCorruption(
                f"{source}: record at byte {start} carries version "
                f"{version} after {previous_version} — the committed "
                f"sequence is broken"
            )
        previous_version = version
        records.append((start, version, batch))
    return records, offset


def read_journal(
    path: str,
) -> Tuple[List[Tuple[int, int, MutationBatch]], int]:
    """:func:`scan_journal` over a file; missing file = empty journal."""
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    return scan_journal(data, source=path)


# ----------------------------------------------------------------------
# Snapshot codec
# ----------------------------------------------------------------------


def dump_snapshot(graph, stream) -> None:
    """Serialise ``graph`` (any Hypergraph/DynamicHypergraph) so that
    :func:`parse_snapshot` reconstructs a coordinate-identical
    :class:`DynamicHypergraph`.

    Layout: the ``HGDSNAP 1`` header with the dynamic extras (version,
    slot count, one ``d`` record per tombstone carrying the signature
    it still occupies in the row layout), followed by an embedded
    ``HGSTORE`` dump (:func:`~repro.hypergraph.persistence.dump_store`)
    of the dense live content.
    """
    dynamic = (
        graph
        if isinstance(graph, DynamicHypergraph)
        else DynamicHypergraph.from_hypergraph(graph)
    )
    stream.write(SNAPSHOT_MAGIC + "\n")
    stream.write(f"version {dynamic.version}\n")
    stream.write(f"slots {dynamic.num_slots}\n")
    for slot in range(dynamic.num_slots):
        if dynamic.slot_vertices(slot) is None:
            tokens = " ".join(
                _encode_label(part)
                for part in dynamic._signatures[slot]
            )
            stream.write(f"d {slot} {tokens}\n")
    # The embedded store is built with the deterministic merge backend:
    # the on-disk posting lists are backend-neutral (parse_store
    # materialises whichever backend the reader asks for).
    dump_store(PartitionedStore(dynamic.to_hypergraph(), "merge"), stream)


def parse_snapshot(stream, source: str = "snapshot") -> DynamicHypergraph:
    """Reconstruct the dynamic graph a snapshot froze.

    Raises :class:`~repro.errors.JournalCorruption` on any structural
    or parse failure — a snapshot is all-or-nothing (it is written to a
    temp file and atomically renamed, so a damaged one is corruption,
    never an expected torn state).
    """
    text = stream.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_MAGIC:
        raise JournalCorruption(
            f"{source} is not a graph snapshot (header "
            f"{lines[0]!r} != {SNAPSHOT_MAGIC!r})"
            if lines
            else f"{source} is empty"
        )
    version: "int | None" = None
    num_slots: "int | None" = None
    dead: Dict[int, Tuple[object, ...]] = {}
    store_start: "int | None" = None
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "version":
                version = int(parts[1])
            elif parts[0] == "slots":
                num_slots = int(parts[1])
            elif parts[0] == "d":
                dead[int(parts[1])] = tuple(
                    _decode_label(token) for token in parts[2:]
                )
            else:
                store_start = line_no - 1
                break
    except (IndexError, ValueError, ParseError) as exc:
        raise JournalCorruption(
            f"{source}: malformed snapshot header record ({exc})"
        ) from None
    if version is None or num_slots is None or store_start is None:
        raise JournalCorruption(
            f"{source}: snapshot header is missing its version/slots "
            f"records or the embedded store"
        )
    try:
        store = parse_store(
            io.StringIO("\n".join(lines[store_start:]) + "\n"),
            index_backend="merge",
        )
        return DynamicHypergraph.from_slot_state(
            store.graph, num_slots=num_slots, dead=dead, version=version
        )
    except (ParseError, HypergraphError) as exc:
        raise JournalCorruption(
            f"{source}: snapshot fails its integrity checks ({exc})"
        ) from None


# ----------------------------------------------------------------------
# Recovery result
# ----------------------------------------------------------------------


class RecoveredState:
    """What :meth:`MutationJournal.recover` reconstructed."""

    __slots__ = ("graph", "version", "snapshot_version", "replayed")

    def __init__(self, graph, version, snapshot_version, replayed) -> None:
        self.graph = graph
        self.version = version
        self.snapshot_version = snapshot_version
        self.replayed = replayed

    def __repr__(self) -> str:
        return (
            f"RecoveredState(v{self.version}, snapshot="
            f"v{self.snapshot_version}, replayed={self.replayed})"
        )


class MutationJournal:
    """One durable journal directory: log + snapshots + standing set.

    Lifecycle: construct with a directory, then either :meth:`recover`
    a previous run's state or :meth:`attach` to a live graph (a fresh
    directory gets a base snapshot so it is self-contained from the
    first record).  :meth:`append` is called inside the service's
    commit barrier — before the batch is broadcast to any pool — so the
    log is always at least as current as any worker.
    """

    def __init__(
        self,
        directory,
        *,
        fsync: str = "always",
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    ) -> None:
        self.directory = os.fspath(directory)
        self.fsync_policy = _validate_fsync(fsync)
        self.snapshot_interval = _validate_interval(snapshot_interval)
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory "
                f"{self.directory!r}: {exc}"
            ) from exc
        self._handle = None
        self._since_snapshot = 0
        #: Version of the last appended (or attached) record.
        self.last_version: "int | None" = None

    # -- paths -----------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILE)

    @property
    def standing_path(self) -> str:
        return os.path.join(self.directory, STANDING_FILE)

    def snapshot_path(self, version: int) -> str:
        return os.path.join(self.directory, f"snapshot-{version:012d}.snap")

    def snapshot_versions(self) -> List[int]:
        """Versions with an on-disk snapshot, ascending."""
        versions = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match is not None:
                versions.append(int(match.group(1)))
        return sorted(versions)

    # -- recovery --------------------------------------------------------

    def recover(self) -> "RecoveredState | None":
        """Reconstruct the graph at the last committed version.

        Snapshot + replay-suffix: load the newest readable snapshot,
        then replay every journal record past its version.  Returns
        None when the directory holds no state at all (a fresh
        directory); raises :class:`~repro.errors.JournalCorruption`
        when the log is damaged beyond its torn tail, the replay
        sequence has a gap, or no snapshot survives to anchor existing
        records.
        """
        records, _valid = read_journal(self.journal_path)
        snapshots = self.snapshot_versions()
        if not snapshots and not records:
            return None
        base: "DynamicHypergraph | None" = None
        base_version = -1
        errors: List[str] = []
        for version in reversed(snapshots):
            path = self.snapshot_path(version)
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    base = parse_snapshot(stream, source=path)
            except (OSError, JournalCorruption) as exc:
                # An older snapshot plus a longer replay still recovers
                # exactly; only give up when none survives.
                errors.append(str(exc))
                continue
            if base.version != version:
                errors.append(
                    f"{path} claims version {version} but decodes to "
                    f"v{base.version}"
                )
                base = None
                continue
            base_version = version
            break
        if base is None:
            detail = "; ".join(errors) if errors else "no snapshot on disk"
            raise JournalCorruption(
                f"journal at {self.directory} has {len(records)} "
                f"record(s) but no usable base snapshot ({detail})"
            )
        replayed = 0
        for _offset, version, batch in records:
            if version <= base_version:
                continue
            if version != base.version + 1:
                raise JournalCorruption(
                    f"journal at {self.directory}: replay needs version "
                    f"{base.version + 1} next but the log holds "
                    f"{version} — the suffix after snapshot "
                    f"v{base_version} has a gap"
                )
            base.apply(batch)
            replayed += 1
        return RecoveredState(base, base.version, base_version, replayed)

    # -- appending -------------------------------------------------------

    def attach(self, graph) -> None:
        """Open the log for appends at ``graph``'s current version.

        A fresh directory gets a base snapshot of ``graph`` first, so
        recovery never needs state from outside the directory.  A
        non-fresh directory must already be *at* the graph's version
        (i.e. the graph came from :meth:`recover`); attaching a stale
        or foreign graph raises :class:`~repro.errors.JournalError`
        rather than silently forking history.  Truncates any torn tail
        left by a previous crash.
        """
        if self._handle is not None:
            raise JournalError("journal is already attached")
        records, valid = read_journal(self.journal_path)
        snapshots = self.snapshot_versions()
        version = graph.version
        if not records and not snapshots:
            self.write_snapshot(graph)
        else:
            last = records[-1][1] if records else 0
            if snapshots:
                last = max(last, snapshots[-1])
            if last != version:
                raise JournalError(
                    f"journal at {self.directory} is at version {last} "
                    f"but the engine graph is at {version}; recover() "
                    f"from the journal (or point it at a fresh "
                    f"directory) instead of attaching"
                )
        try:
            exists = os.path.exists(self.journal_path)
            handle = open(self.journal_path, "ab")
            if not exists:
                handle.write(JOURNAL_MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            elif handle.tell() > max(valid, len(JOURNAL_MAGIC)):
                # Torn tail from a crash mid-append: cut it off.
                handle.truncate(max(valid, len(JOURNAL_MAGIC)))
        except OSError as exc:
            raise JournalError(
                f"cannot open journal {self.journal_path}: {exc}"
            ) from exc
        self._handle = handle
        self.last_version = version
        self._since_snapshot = 0

    @property
    def attached(self) -> bool:
        return self._handle is not None

    def append(self, version: int, batch: MutationBatch) -> None:
        """Log one committed batch; honours the fsync policy."""
        if self._handle is None:
            raise JournalError("journal is not attached")
        if self.last_version is not None and version != self.last_version + 1:
            raise JournalError(
                f"non-contiguous journal append: version {version} "
                f"after {self.last_version}"
            )
        try:
            self._handle.write(encode_record(version, batch))
            self._handle.flush()
            if self.fsync_policy == "always":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"journal append failed at version {version}: {exc}"
            ) from exc
        self.last_version = version
        self._since_snapshot += 1

    def sync(self) -> None:
        """Flush and fsync the log regardless of the fsync policy."""
        if self._handle is None:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError) as exc:
            raise JournalError(f"journal fsync failed: {exc}") from exc

    def close(self) -> None:
        """Sync and release the log handle.  Idempotent."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            handle.flush()
            os.fsync(handle.fileno())
        except (OSError, ValueError):  # pragma: no cover - best effort
            pass
        finally:
            handle.close()

    # -- snapshots -------------------------------------------------------

    def maybe_snapshot(self, graph) -> bool:
        """Write a snapshot when the cadence says so; True if written."""
        if self._since_snapshot < self.snapshot_interval:
            return False
        self.write_snapshot(graph)
        return True

    def write_snapshot(self, graph, keep: int = 2) -> str:
        """Write ``graph`` as a snapshot, atomically; prune old ones.

        Temp-file + fsync + rename, so a crash mid-write can never
        damage an existing snapshot.  The newest ``keep`` snapshots
        are retained (an extra one guards against a just-written
        snapshot being lost with its directory entry on some
        filesystems); older ones are deleted best-effort.
        """
        version = graph.version
        path = self.snapshot_path(version)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as stream:
                dump_snapshot(graph, stream)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, path)
            directory_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(directory_fd)
            finally:
                os.close(directory_fd)
        except OSError as exc:
            raise JournalError(
                f"cannot write snapshot {path}: {exc}"
            ) from exc
        self._since_snapshot = 0
        for old in self.snapshot_versions()[:-keep]:
            try:
                os.remove(self.snapshot_path(old))
            except OSError:  # pragma: no cover - best effort
                pass
        return path

    # -- standing queries ------------------------------------------------

    def save_standing(self, entries: List[dict]) -> None:
        """Persist the standing-query registrations, atomically.

        ``entries`` is a list of structural query records —
        ``{"labels": [...], "edges": [[...], ...], "edge_labels":
        <list | None>, "order": <list | None>}`` — exactly what
        :meth:`load_standing` returns for re-registration on restart.
        """
        tmp = self.standing_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as stream:
                json.dump(entries, stream, sort_keys=True)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, self.standing_path)
        except OSError as exc:
            raise JournalError(
                f"cannot persist standing queries to "
                f"{self.standing_path}: {exc}"
            ) from exc

    def load_standing(self) -> List[dict]:
        """The persisted standing registrations ([] when none)."""
        try:
            with open(self.standing_path, "r", encoding="utf-8") as stream:
                entries = json.load(stream)
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise JournalError(
                f"cannot read standing queries from "
                f"{self.standing_path}: {exc}"
            ) from exc
        except ValueError as exc:
            raise JournalCorruption(
                f"{self.standing_path} is not valid JSON ({exc})"
            ) from None
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict)
            and "labels" in entry
            and "edges" in entry
            for entry in entries
        ):
            raise JournalCorruption(
                f"{self.standing_path} does not hold a standing-query "
                f"list"
            )
        return entries

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "MutationJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MutationJournal({self.directory!r}, "
            f"fsync={self.fsync_policy!r}, "
            f"snapshot_interval={self.snapshot_interval}, "
            f"last_version={self.last_version})"
        )
