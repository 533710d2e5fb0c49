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
    rather than full replay.  It stores the graph, not its index (a
    reader builds whichever index it wants): the tombstone/edge-id state
    of the :class:`~repro.hypergraph.dynamic.DynamicHypergraph` (the
    version, the slot count, dead slot ids with their signatures), then
    the dense live content as ``v``/``l``/``el``/``e`` records with
    typed labels, then a ``crc`` line over every byte before it — which
    together reconstruct a *coordinate-identical* graph: same rows,
    same next edge id, same fingerprint.  Snapshots are written to a
    temp file, fsynced and atomically renamed, so a crash mid-snapshot
    leaves the previous one intact; one cut short or damaged fails its
    crc.

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

import json
import os
import re
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..errors import HypergraphError, JournalCorruption, JournalError, ParseError
from .dynamic import DynamicHypergraph, MutationBatch
from .hypergraph import Hypergraph

#: First bytes of ``mutations.log``; anything else is not a journal.
JOURNAL_MAGIC = b"HGJRNL 1\n"

#: First line of a snapshot file.
SNAPSHOT_MAGIC = "HGDSNAP 2"

#: First line of a snapshot written before the crc line: still read.
SNAPSHOT_MAGIC_V1 = "HGDSNAP 1"

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


def _encode_label(label: object) -> str:
    """A vertex or edge label as one typed token: ``i:<int>`` or
    ``s:<str>``, so both label types come back as they went in."""
    if isinstance(label, int):
        return f"i:{label}"
    if isinstance(label, str):
        if any(ch.isspace() for ch in label):
            raise ParseError(f"labels may not contain whitespace: {label!r}")
        return f"s:{label}"
    raise ParseError(f"only int/str labels can be persisted, got {type(label)}")


def _decode_label(token: str) -> object:
    kind, _, value = token.partition(":")
    if kind == "i":
        return int(value)
    if kind == "s":
        return value
    raise ParseError(f"malformed label token {token!r}")


def _crc_line(body: str) -> str:
    return f"crc {zlib.crc32(body.encode('utf-8')):08x}\n"


def dump_snapshot(graph, stream) -> None:
    """Serialise ``graph`` (any Hypergraph/DynamicHypergraph) so that
    :func:`parse_snapshot` reconstructs a coordinate-identical
    :class:`DynamicHypergraph`.

    Layout: the ``HGDSNAP 2`` header with the dynamic extras (version,
    slot count, one ``d`` record per tombstone carrying the signature
    it still occupies in the row layout), the dense live graph (``v``,
    one ``l`` per vertex, one ``el`` per edge of an edge-labelled
    graph, one ``e`` per live edge in slot order) and a last ``crc``
    line, the CRC32 of every byte before it.
    """
    dead, edges, edge_labels = [], [], []
    labelled = graph.is_edge_labelled
    for slot in range(graph.num_slots):
        vertices = graph.slot_vertices(slot)
        if vertices is None:
            tokens = " ".join(map(_encode_label, graph._signatures[slot]))
            dead.append(f"d {slot} {tokens}\n")
            continue
        if labelled:
            label = _encode_label(graph.edge_label(slot))
            edge_labels.append(f"el {len(edges)} {label}\n")
        edges.append("e " + " ".join(map(str, sorted(vertices))) + "\n")
    labels = [
        f"l {vertex} {_encode_label(label)}\n"
        for vertex, label in enumerate(graph.labels)
    ]
    body = "".join([
        f"{SNAPSHOT_MAGIC}\nversion {graph.version}\nslots {graph.num_slots}\n",
        *dead, f"v {graph.num_vertices}\n", *labels, *edge_labels, *edges,
    ])
    stream.write(body + _crc_line(body))


def parse_snapshot(stream, source: str = "snapshot") -> DynamicHypergraph:
    """Reconstruct the dynamic graph a snapshot froze.

    Raises :class:`~repro.errors.JournalCorruption` on any damage — a
    missing or wrong ``crc``, an unknown or malformed record, a vertex
    with no label, two labels or an id out of range: a snapshot is
    all-or-nothing (it is written to a temp file and atomically
    renamed, so a damaged one is corruption, never an expected torn
    state).  A ``HGDSNAP 1`` snapshot, which carried no crc but an
    ``HGSTORE`` index dump after the same graph records, is read too:
    its index records are skipped, and only counted, so that one cut
    short is still refused.
    """
    try:
        text = stream.read()
    except UnicodeDecodeError as exc:
        raise JournalCorruption(f"{source} is not UTF-8 text ({exc})") from None
    header = text.partition("\n")[0]
    if header == SNAPSHOT_MAGIC:
        cut = text.rfind("\n", 0, len(text) - 1) + 1
        if text[cut:] != _crc_line(text[:cut]):
            raise JournalCorruption(
                f"{source}: snapshot fails its crc (cut short or damaged)"
            )
        text = text[:cut]
    elif header != SNAPSHOT_MAGIC_V1:
        raise JournalCorruption(
            f"{source} is not a graph snapshot (header {header!r} != "
            f"{SNAPSHOT_MAGIC!r})"
        )
    try:  # the last line is what follows the last newline: nothing
        return _parse_records(
            text.split("\n")[1:-1], header == SNAPSHOT_MAGIC_V1
        )
    except (IndexError, KeyError, ValueError, ParseError, HypergraphError) as exc:
        raise JournalCorruption(
            f"{source}: snapshot fails its integrity checks ({exc})"
        ) from None


def _parse_records(lines: List[str], v1: bool) -> DynamicHypergraph:
    """The records after a snapshot's magic line, as a graph."""
    labels: "List[object] | None" = None  # a vertex's is None until read
    counts: Dict[str, int] = {}  # version, slots
    dead: Dict[int, Tuple[object, ...]] = {}
    edge_labels: Dict[int, object] = {}
    edges: List[List[int]] = []
    indexed_edges = postings = 0  # the v1 index records' totals
    for line_no, line in enumerate(lines, start=2):
        parts = line.split()
        kind = parts[0] if parts else ""
        if kind == "e":
            edges.append(list(map(int, parts[1:])))
        elif kind == "l" and len(parts) == 3 and labels is not None:
            vertex = int(parts[1])
            if not 0 <= vertex < len(labels) or labels[vertex] is not None:
                raise ParseError(
                    f"line {line_no}: vertex {vertex} is out of range or "
                    f"labelled twice"
                )
            labels[vertex] = _decode_label(parts[2])
        elif kind == "el" and len(parts) == 3:
            edge_labels[int(parts[1])] = _decode_label(parts[2])
        elif kind == "v" and len(parts) == 2 and labels is None:
            labels = [None] * int(parts[1])
        elif kind == "d":
            dead[int(parts[1])] = tuple(map(_decode_label, parts[2:]))
        elif kind in ("version", "slots") and len(parts) == 2:
            counts[kind] = int(parts[1])
        elif v1 and kind == "p":
            indexed_edges += len(parts) - 1
        elif v1 and kind == "i":
            postings += len(parts) - 2
        elif not (v1 and line == "HGSTORE 1"):
            raise ParseError(f"line {line_no}: unknown record {line[:40]!r}")
    if len(counts) < 2 or labels is None:
        raise ParseError("missing its version, slots or v record")
    if None in labels:
        raise ParseError(f"vertex {labels.index(None)} has no label")
    if v1 and (indexed_edges, postings) != (
        len(edges), sum(map(len, edges))
    ):
        raise ParseError("the index records do not cover the edges")
    ordered = [edge_labels[e] for e in range(len(edges))] if edge_labels else None
    graph = Hypergraph(labels, edges, edge_labels=ordered)
    if graph.num_edges != len(edges) or len(edge_labels) > len(edges):
        raise ParseError("duplicate hyperedges or stray edge labels")
    return DynamicHypergraph.from_slot_state(
        graph, num_slots=counts["slots"], dead=dead, version=counts["version"]
    )


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
                # newline="": the crc covers the bytes as they lie.
                with open(path, encoding="utf-8", newline="") as stream:
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
            with open(tmp, "w", encoding="utf-8", newline="") as stream:
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
