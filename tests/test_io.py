"""Unit tests for hypergraph text I/O."""

from __future__ import annotations

import io

import pytest

from repro import Hypergraph
from repro.errors import ParseError
from repro.hypergraph.io import (
    dump_native,
    load_native,
    load_simplex_dir,
    parse_native,
    save_native,
    save_simplex_dir,
)


def as_string_labels(graph: Hypergraph) -> Hypergraph:
    return Hypergraph([str(label) for label in graph.labels], graph.edges)


class TestNativeFormat:
    def test_roundtrip_stream(self, fig1_data):
        stream = io.StringIO()
        dump_native(fig1_data, stream)
        stream.seek(0)
        parsed = parse_native(stream)
        assert parsed == as_string_labels(fig1_data)

    def test_roundtrip_file(self, tmp_path, fig1_data):
        path = str(tmp_path / "graph.hg")
        save_native(fig1_data, path)
        assert load_native(path) == as_string_labels(fig1_data)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\nv 2\n\nl 0 A\nl 1 B\ne 0 1\n"
        parsed = parse_native(io.StringIO(text))
        assert parsed.num_vertices == 2
        assert parsed.has_edge({0, 1})

    def test_missing_header_raises(self):
        with pytest.raises(ParseError):
            parse_native(io.StringIO("l 0 A\n"))

    def test_unknown_record_raises(self):
        with pytest.raises(ParseError):
            parse_native(io.StringIO("v 1\nx nonsense\n"))

    def test_malformed_record_raises(self):
        with pytest.raises(ParseError):
            parse_native(io.StringIO("v 1\ne one two\n"))

    @pytest.mark.parametrize("vertex", ["-1", "-2", "2"])
    def test_a_label_record_outside_the_header_is_refused(self, vertex):
        """``l -1 X`` once relabelled the last vertex (Python's negative
        index): ``('A', 'X')`` where the text says A, B."""
        text = f"v 2\nl 0 A\nl 1 B\nl {vertex} X\ne 0 1\n"
        with pytest.raises(ParseError, match=f"vertex {vertex} outside"):
            parse_native(io.StringIO(text))

    def test_a_vertex_without_a_label_record_is_refused(self):
        """Such a vertex once got the label ``''``."""
        with pytest.raises(ParseError, match="vertex 1 has no 'l' record"):
            parse_native(io.StringIO("v 2\nl 0 A\ne 0 1\n"))

    def test_the_stream_is_read_line_by_line(self):
        """The daemon loads the data graph through this parser: it
        iterates the stream, never reading it whole."""

        class LinesOnly(io.StringIO):
            def read(self, *args):
                raise AssertionError("parse_native read the whole stream")

        parsed = parse_native(LinesOnly("v 2\nl 0 A\nl 1 B\ne 0 1\n"))
        assert parsed.labels == ("A", "B")


class TestSimplexFormat:
    def test_roundtrip(self, tmp_path, fig1_data):
        directory = str(tmp_path)
        save_simplex_dir(fig1_data, directory, "fig1")
        parsed = load_simplex_dir(directory, "fig1")
        assert parsed == as_string_labels(fig1_data)

    def test_length_mismatch_raises(self, tmp_path):
        (tmp_path / "bad-labels.txt").write_text("A\nB\n")
        (tmp_path / "bad-nverts.txt").write_text("2\n")
        (tmp_path / "bad-simplices.txt").write_text("1\n")
        with pytest.raises(ParseError):
            load_simplex_dir(str(tmp_path), "bad")

    def test_vertex_out_of_range_raises(self, tmp_path):
        (tmp_path / "bad-labels.txt").write_text("A\n")
        (tmp_path / "bad-nverts.txt").write_text("2\n")
        (tmp_path / "bad-simplices.txt").write_text("1\n5\n")
        with pytest.raises(ParseError):
            load_simplex_dir(str(tmp_path), "bad")

    def test_one_based_ids(self, tmp_path):
        (tmp_path / "tiny-labels.txt").write_text("A\nB\n")
        (tmp_path / "tiny-nverts.txt").write_text("2\n")
        (tmp_path / "tiny-simplices.txt").write_text("1\n2\n")
        parsed = load_simplex_dir(str(tmp_path), "tiny")
        assert parsed.has_edge({0, 1})
