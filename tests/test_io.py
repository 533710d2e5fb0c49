"""Unit tests for hypergraph text I/O."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("text", [
        "v 1\nl 0 a b\n", "v 1 2\nl 0 A\n", "v\n", "v 1\nl 0\n",
        "v -1\n",
    ])
    def test_a_record_with_a_token_too_many_or_too_few_is_refused(self, text):
        """``l 0 a b`` once read as the label ``a``, the ``b`` dropped."""
        with pytest.raises(ParseError, match="malformed record"):
            parse_native(io.StringIO(text))

    @pytest.mark.parametrize("text, refusal", [
        ("v 2\nl 0 A\nv 2\nl 1 B\n", "line 3: a second 'v' header"),
        ("v 1\nl 0 A\nl 0 B\n", "line 3: a second 'l' record for vertex 0"),
    ], ids=["v-header", "l-record"])
    def test_a_repeated_record_is_refused(self, text, refusal):
        """A second ``v`` header once dropped every label read before
        it, and a second ``l`` record for a vertex once replaced the
        first: either text parsed to a graph it does not describe."""
        with pytest.raises(ParseError, match=refusal):
            parse_native(io.StringIO(text))

    @pytest.mark.parametrize("edge", ["e 0 5", "e 0 -1", "e"])
    def test_a_hyperedge_the_graph_refuses_is_a_parse_error(self, edge):
        """Not the constructor's ``HypergraphError``: a parser of
        outside text raises its own typed error."""
        with pytest.raises(ParseError):
            parse_native(io.StringIO(f"v 2\nl 0 A\nl 1 B\n{edge}\n"))

    def test_a_huge_header_allocates_nothing(self):
        """Labels are held per ``l`` record read, not per vertex the
        header claims: a one-line request cannot make the parser
        allocate for 2**62 vertices (a list that size is a
        ``MemoryError`` before any allocation)."""
        with pytest.raises(ParseError, match="vertex 1 has no 'l' record"):
            parse_native(io.StringIO(f"v {2**62}\nl 0 A\n"))


def _dump(graph: Hypergraph) -> str:
    stream = io.StringIO()
    dump_native(graph, stream)
    return stream.getvalue()


#: Labels the native format can carry: one non-empty token of no
#: whitespace (a record is split on whitespace).
_LABELS = st.text(min_size=1, max_size=5).filter(lambda s: s.split() == [s])


@st.composite
def _labelled_graphs(draw):
    num_vertices = draw(st.integers(0, 8))
    labels = draw(st.lists(_LABELS, min_size=num_vertices,
                           max_size=num_vertices))
    edges = draw(st.lists(
        st.lists(st.integers(0, num_vertices - 1), min_size=1, max_size=4),
        max_size=8,
    )) if num_vertices else []
    return Hypergraph(labels, edges)


_SMALL_INTS = st.integers(-2, 9).map(str)
_RECORDS = st.one_of(
    st.tuples(st.just("v"), _SMALL_INTS),
    st.tuples(st.just("l"), _SMALL_INTS, _LABELS),
    st.lists(_SMALL_INTS, max_size=4).map(lambda ids: ("e", *ids)),
    st.lists(st.sampled_from(["v", "l", "e", "#", "x", "1", "A", "1.5"]),
             max_size=4).map(tuple),
    st.text(max_size=8).map(lambda text: (text,)),
)
_NATIVE_LIKE = st.lists(_RECORDS, max_size=12).map(
    lambda records: "".join(" ".join(record) + "\n" for record in records)
)


@settings(max_examples=200, deadline=None)
@given(_labelled_graphs())
def test_every_labelled_graph_dumps_and_reparses_identically(graph):
    text = _dump(graph)
    parsed = parse_native(io.StringIO(text))
    assert parsed == graph
    assert parsed.labels == graph.labels
    assert _dump(parsed) == text


@settings(max_examples=300, deadline=None)
@given(st.one_of(_NATIVE_LIKE, st.text(max_size=60)))
def test_any_text_parses_or_raises_parse_error(text):
    """Outside text either parses — to a graph that then round-trips —
    or is a ``ParseError``; never another exception."""
    try:
        graph = parse_native(io.StringIO(text))
    except ParseError:
        return
    assert parse_native(io.StringIO(_dump(graph))) == graph


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
