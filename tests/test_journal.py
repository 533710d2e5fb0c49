"""Durable mutation journal: torn tails, corruption, snapshots, knobs.

Pins the crash-consistency contracts:

* the record codec and :func:`scan_journal`'s two-tier damage model —
  a torn tail (the expected residue of a crash mid-append) is silently
  truncated at the last good record boundary, while corruption *before*
  the tail raises the typed :class:`JournalCorruption`;
* snapshot round-trips reconstructing a coordinate-identical
  :class:`DynamicHypergraph` (same fingerprint, same next edge id);
* :meth:`MutationJournal.recover` = newest readable snapshot + replay
  suffix, surviving a damaged newest snapshot by falling back and
  replaying further;
* the constructor's settings (directory, fsync policy, snapshot
  interval) validated with typed errors;
* the seeded crash-point recovery oracle: kill the log at every record
  boundary and mid-record, recover, and land bit-identical on the
  longest committed prefix.
"""

import io
import json
import os
import random
import struct
import zlib

import pytest

from repro import Hypergraph
from repro.errors import JournalCorruption, JournalError
from repro.hypergraph import DynamicHypergraph, MutationBatch
from repro.hypergraph.journal import (
    JOURNAL_MAGIC,
    RECORD_HEADER,
    MutationJournal,
    dump_snapshot,
    encode_record,
    parse_snapshot,
    scan_journal,
)
from repro.service import graph_fingerprint
from repro.testing import (
    make_mutable_instance,
    random_mutation_schedule,
    run_crash_recovery_oracle,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def small_graph():
    return Hypergraph(
        labels=["A", "C", "A", "A", "B", "C", "A"],
        edges=[{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6},
               {0, 1, 4, 6}, {2, 3, 4, 5}],
    )


def sample_batches():
    return [
        MutationBatch(inserts=[(0, 3, 5)], deletes=[1]),
        MutationBatch(deletes=[0], add_vertices=["B"]),
        MutationBatch(inserts=[(2, 7), (4, 5, 6)]),
    ]


def committed_log(batches):
    data = JOURNAL_MAGIC
    for version, batch in enumerate(batches, start=1):
        data += encode_record(version, batch)
    return data


# ---------------------------------------------------------------------------
# Record codec and scan_journal
# ---------------------------------------------------------------------------

class TestScanJournal:
    def test_round_trip(self):
        batches = sample_batches()
        data = committed_log(batches)
        records, valid = scan_journal(data)
        assert valid == len(data)
        assert [(v, b) for _o, v, b in records] == [
            (v, b) for v, b in enumerate(batches, start=1)
        ]

    def test_empty_and_partial_magic_are_fresh(self):
        assert scan_journal(b"") == ([], 0)
        assert scan_journal(JOURNAL_MAGIC[:4]) == ([], 0)
        assert scan_journal(JOURNAL_MAGIC) == ([], len(JOURNAL_MAGIC))

    def test_bad_magic_is_corruption(self):
        with pytest.raises(JournalCorruption, match="magic"):
            scan_journal(b"NOTAJOURNAL" + b"\x00" * 32)

    @pytest.mark.parametrize("keep", ["header", "body"])
    def test_torn_tail_truncates_to_last_boundary(self, keep):
        batches = sample_batches()
        data = committed_log(batches[:2])
        tail = encode_record(3, batches[2])
        cut = 4 if keep == "header" else RECORD_HEADER.size + 3
        records, valid = scan_journal(data + tail[:cut])
        assert valid == len(data)
        assert [v for _o, v, _b in records] == [1, 2]

    def test_corrupt_final_record_is_dropped_like_a_torn_tail(self):
        data = committed_log(sample_batches())
        flipped = data[:-1] + bytes([data[-1] ^ 0xFF])
        records, valid = scan_journal(flipped)
        assert [v for _o, v, _b in records] == [1, 2]
        assert valid < len(data)

    def test_mid_log_bit_flip_is_corruption_not_truncation(self):
        batches = sample_batches()
        prefix = committed_log(batches[:1])
        data = prefix + encode_record(2, batches[1]) + encode_record(
            3, batches[2]
        )
        # Flip a byte inside record 2's body: valid log follows it.
        position = len(prefix) + RECORD_HEADER.size + 2
        damaged = (
            data[:position]
            + bytes([data[position] ^ 0xFF])
            + data[position + 1:]
        )
        with pytest.raises(JournalCorruption, match="mid-log corruption"):
            scan_journal(damaged)

    def test_implausible_length_field_is_corruption(self):
        bad_header = RECORD_HEADER.pack(1 << 30, 0)
        with pytest.raises(JournalCorruption, match="implausible"):
            scan_journal(JOURNAL_MAGIC + bad_header + b"\x00" * 64)

    def test_checksummed_garbage_body_is_corruption(self):
        body = b"not json at all"
        record = RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body
        filler = encode_record(1, sample_batches()[0])
        with pytest.raises(JournalCorruption, match="does not decode"):
            scan_journal(JOURNAL_MAGIC + record + filler)

    def test_version_gap_is_corruption(self):
        batches = sample_batches()
        data = (
            JOURNAL_MAGIC
            + encode_record(1, batches[0])
            + encode_record(3, batches[1])
        )
        with pytest.raises(JournalCorruption, match="sequence is broken"):
            scan_journal(data)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class TestSnapshot:
    def test_round_trip_is_coordinate_identical(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        for batch in sample_batches():
            graph.apply(batch)
        path = tmp_path / "snap"
        with open(path, "w", encoding="utf-8") as stream:
            dump_snapshot(graph, stream)
        with open(path, "r", encoding="utf-8") as stream:
            restored = parse_snapshot(stream)
        assert restored.version == graph.version
        assert restored.num_slots == graph.num_slots
        assert graph_fingerprint(restored) == graph_fingerprint(graph)
        # Same next edge id: a post-recovery insert lands on the same
        # slot either side, so journal replay stays coordinate-stable.
        follow_up = MutationBatch(inserts=[(0, 1)])
        ours = restored.apply(follow_up).inserted
        theirs = graph.apply(follow_up).inserted
        assert [
            (m.edge_id, m.signature, m.vertices, m.row) for m in ours
        ] == [
            (m.edge_id, m.signature, m.vertices, m.row) for m in theirs
        ]

    def test_parse_rejects_wrong_header(self):
        import io

        with pytest.raises(JournalCorruption, match="not a graph snapshot"):
            parse_snapshot(io.StringIO("HGSTORE 1\n"))

    def test_parse_rejects_truncated_snapshot(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        path = tmp_path / "snap"
        with open(path, "w", encoding="utf-8") as stream:
            dump_snapshot(graph, stream)
        text = path.read_text()
        with pytest.raises(JournalCorruption):
            import io

            parse_snapshot(io.StringIO(text[: len(text) // 2]))


    @staticmethod
    def snapshot_bytes(version="v2"):
        name = "fig1_batch.snap" if version == "v2" else "fig1_batch_v1.snap"
        with open(os.path.join(DATA, name), "rb") as stream:
            return stream.read()

    @staticmethod
    def parse_bytes(data):
        """Parse raw bytes the way recovery opens a snapshot file."""
        return parse_snapshot(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        )

    def test_a_cut_at_any_byte_is_corruption(self):
        """The crc line comes last: a v2 snapshot cut anywhere — inside
        its edges too, where the rest would parse as a smaller graph —
        is refused."""
        data = self.snapshot_bytes()
        for cut in range(len(data)):
            with pytest.raises(JournalCorruption):
                self.parse_bytes(data[:cut])

    def test_a_v1_snapshot_cut_anywhere_is_corruption(self):
        """A v1 snapshot has no crc; its index records, counted though
        not read, refuse one cut short."""
        data = self.snapshot_bytes("v1")
        self.parse_bytes(data)
        for cut in range(len(data)):
            with pytest.raises(JournalCorruption):
                self.parse_bytes(data[:cut])

    @pytest.mark.parametrize("flip", [0x01, 0x80])
    def test_a_flipped_byte_is_corruption(self, flip):
        """Any one byte changed is refused: its crc (or its UTF-8) no
        longer holds.  In an ``e`` line such a flip can name another
        vertex of the same label — a graph the v1 format's index
        checks accepted."""
        data = self.snapshot_bytes()
        for position in range(len(data)):
            damaged = bytearray(data)
            damaged[position] ^= flip
            with pytest.raises(JournalCorruption):
                self.parse_bytes(bytes(damaged))
        # The e-line case, spelled out: vertex 2 -> vertex 3 (both A).
        text = data.decode("utf-8")
        assert "\ne 0 1 2\n" in text
        swapped = text.replace("\ne 0 1 2\n", "\ne 0 1 3\n")
        with pytest.raises(JournalCorruption, match="crc"):
            parse_snapshot(io.StringIO(swapped))

    def test_v1_and_v2_goldens_recover_the_same_coordinates(self, tmp_path):
        """A journal directory written before the crc line recovers
        from its v1 snapshot exactly as from the v2 one: same
        fingerprint, slots, version and next edge id."""
        states = []
        for version in ("v1", "v2"):
            directory = tmp_path / version
            directory.mkdir()
            (directory / "snapshot-000000000001.snap").write_bytes(
                self.snapshot_bytes(version)
            )
            state = MutationJournal(str(directory)).recover()
            assert (state.version, state.snapshot_version) == (1, 1)
            follow_up = MutationBatch(inserts=[(1, 3)])
            states.append((
                graph_fingerprint(state.graph),
                state.graph.num_slots,
                [m.edge_id for m in state.graph.apply(follow_up).inserted],
            ))
        assert states[0] == states[1]
        assert states[0][1:] == (8, [8])


# ---------------------------------------------------------------------------
# MutationJournal lifecycle
# ---------------------------------------------------------------------------

class TestMutationJournal:
    def test_append_recover_round_trip(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(
            str(tmp_path / "wal"), fsync="never", snapshot_interval=2
        )
        journal.attach(graph)
        for batch in sample_batches():
            result = graph.apply(batch)
            journal.append(result.version, batch)
            journal.maybe_snapshot(graph)
        journal.close()

        recovered = MutationJournal(str(tmp_path / "wal")).recover()
        assert recovered is not None
        assert recovered.version == graph.version == 3
        assert graph_fingerprint(recovered.graph) == graph_fingerprint(graph)
        # interval=2 → snapshot at v2; recovery replays only the suffix.
        assert recovered.snapshot_version == 2
        assert recovered.replayed == 1

    def test_recover_fresh_directory_is_none(self, tmp_path):
        assert MutationJournal(str(tmp_path / "wal")).recover() is None

    def test_recover_falls_back_past_damaged_newest_snapshot(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(
            str(tmp_path / "wal"), fsync="never", snapshot_interval=1
        )
        journal.attach(graph)
        for batch in sample_batches():
            result = graph.apply(batch)
            journal.append(result.version, batch)
            journal.maybe_snapshot(graph)
        journal.close()
        newest = journal.snapshot_versions()[-1]
        with open(journal.snapshot_path(newest), "w") as stream:
            stream.write("HGDSNAP 1\ngarbage\n")

        recovered = MutationJournal(str(tmp_path / "wal")).recover()
        assert recovered is not None
        assert recovered.version == graph.version
        assert recovered.snapshot_version < newest
        assert graph_fingerprint(recovered.graph) == graph_fingerprint(graph)

    def test_recover_falls_back_past_a_flipped_byte(self, tmp_path):
        """The newest snapshot with one byte changed in an edge fails
        its crc, so recovery takes the one before it and replays
        further — never a wrong graph."""
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(
            str(tmp_path / "wal"), fsync="never", snapshot_interval=1
        )
        journal.attach(graph)
        for batch in sample_batches():
            result = graph.apply(batch)
            journal.append(result.version, batch)
            journal.maybe_snapshot(graph)
        journal.close()
        newest = journal.snapshot_path(journal.snapshot_versions()[-1])
        with open(newest, "rb") as stream:
            data = bytearray(stream.read())
        position = data.rindex(b"\ne ") + 3
        data[position] ^= 0x01
        with open(newest, "wb") as stream:
            stream.write(data)

        recovered = MutationJournal(str(tmp_path / "wal")).recover()
        assert recovered.version == graph.version
        assert recovered.replayed == 1
        assert graph_fingerprint(recovered.graph) == graph_fingerprint(graph)

    def test_attach_truncates_torn_tail_and_resumes(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        batches = sample_batches()
        journal = MutationJournal(str(tmp_path / "wal"), fsync="never")
        journal.attach(graph)
        for batch in batches[:2]:
            result = graph.apply(batch)
            journal.append(result.version, batch)
        journal.close()
        # Simulate a crash mid-append of record 3.
        torn = encode_record(3, batches[2])[:7]
        with open(journal.journal_path, "ab") as stream:
            stream.write(torn)

        resumed = MutationJournal(str(tmp_path / "wal"))
        recovered = resumed.recover()
        assert recovered.version == 2
        resumed.attach(recovered.graph)
        result = recovered.graph.apply(batches[2])
        resumed.append(result.version, batches[2])
        resumed.close()
        final = MutationJournal(str(tmp_path / "wal")).recover()
        assert final.version == 3
        assert graph_fingerprint(final.graph) == graph_fingerprint(
            recovered.graph
        )

    def test_attach_refuses_version_mismatch(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(str(tmp_path / "wal"), fsync="never")
        journal.attach(graph)
        result = graph.apply(sample_batches()[0])
        journal.append(result.version, sample_batches()[0])
        journal.close()

        stale = DynamicHypergraph.from_hypergraph(small_graph())
        with pytest.raises(JournalError, match="recover\\(\\)"):
            MutationJournal(str(tmp_path / "wal")).attach(stale)

    def test_append_refuses_version_gap(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(str(tmp_path / "wal"), fsync="never")
        journal.attach(graph)
        with pytest.raises(JournalError, match="non-contiguous"):
            journal.append(5, sample_batches()[0])
        journal.close()

    def test_snapshot_pruning_keeps_newest_two(self, tmp_path):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        journal = MutationJournal(
            str(tmp_path / "wal"), fsync="never", snapshot_interval=1
        )
        journal.attach(graph)
        rng = random.Random(5)
        for batch in random_mutation_schedule(rng, small_graph(), steps=5):
            result = graph.apply(batch)
            journal.append(result.version, batch)
            journal.maybe_snapshot(graph)
        journal.close()
        versions = journal.snapshot_versions()
        assert len(versions) == 2
        assert versions[-1] == graph.version

    def test_standing_round_trip(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "wal"))
        entries = [
            {
                "labels": ["A", "B"],
                "edges": [[0, 1]],
                "edge_labels": None,
                "order": [1, 0],
            }
        ]
        journal.save_standing(entries)
        assert journal.load_standing() == entries

    def test_load_standing_rejects_wrong_shape(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "wal"))
        with open(journal.standing_path, "w") as stream:
            json.dump([{"query": "legacy"}], stream)
        with pytest.raises(JournalCorruption, match="standing-query"):
            journal.load_standing()


# ---------------------------------------------------------------------------
# Constructor settings: typed validation
# ---------------------------------------------------------------------------

class TestKnobs:
    def test_constructor_refuses_a_non_directory_path(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("x")
        with pytest.raises(JournalError, match="cannot create journal"):
            MutationJournal(str(path))

    def test_constructor_validates_explicit_knobs(self, tmp_path):
        with pytest.raises(JournalError, match="fsync"):
            MutationJournal(str(tmp_path / "wal"), fsync="sometimes")
        with pytest.raises(JournalError, match="snapshot interval"):
            MutationJournal(str(tmp_path / "wal"), snapshot_interval=0)


# ---------------------------------------------------------------------------
# The crash-point recovery oracle
# ---------------------------------------------------------------------------

def test_crash_recovery_oracle_seeded_trials():
    rng = random.Random(20260807)
    trials = 0
    while trials < 3:
        instance = make_mutable_instance(rng)
        if instance is None:
            continue
        data, query, _edges = instance
        schedule = random_mutation_schedule(rng, data, steps=5)
        divergence = run_crash_recovery_oracle(
            data, schedule, snapshot_interval=2, query=query
        )
        assert divergence is None, divergence
        trials += 1
