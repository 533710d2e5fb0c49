"""Unit tests for the synthetic hypergraph generators."""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from repro.datasets import DATASET_ORDER, build_dataset, dataset_spec
from repro.errors import HypergraphError
from repro.hypergraph.generators import (
    generate_hypergraph,
    generate_planted_hypergraph,
    generate_uniform_hypergraph,
    perturb_labels,
    random_connected_hypergraph,
    sample_arity,
    sample_labels,
    zipf_weights,
)
from repro.hypergraph.io import dump_native
from repro import Hypergraph

#: sha256 of each built-in dataset's native text, as generated before
#: the popularity weights were accumulated once per graph: the
#: generator's draws (and so every dataset, workload and pin derived
#: from them) must stay bit-identical.
DATASET_SHA256 = {
    "HC": "8d5651009ae82d6174ea21681018be93d377ce963d2a079018a00b7d90b64bef",
    "MA": "e609249bb898d8e04213c6423d3a72b4cd81629395f19858877fa679178a4ef3",
    "CH": "2857a4bdc6ec4161bfb54504b258034f036e6ed83b4f64c7779bf37adb5f2279",
    "CP": "e5000c9de4cc75edaab6fee1ef6ed5c2899eababe9a94c8fa0020ca35580fa2d",
    "SB": "f673e27015f3dec3aeecfa03015698fa1427c7b199f813b37cdfa1c2c14fc906",
    "HB": "aed1a30c869e57e92c3b5d0860db0139493c9215d8940ef1f3e5372c222048e8",
    "WT": "2fa96742a0110aeeb5774a70aac7a2dd1832f34b8033a6369a1e5f0e5c45b679",
    "TC": "e2afb2a46b13563cf7faa1e11c25fa46adedba33f557dbecfce4cc4e16f76521",
    "SA": "838469146e84a54b44b2d186e6329eaf8f3d39fc535f20c3e1a5fed3303076e0",
    "AR": "bd01b170313cfd9f18835a9b63d63ccbe8029839ffb1fc782b3049abd0eec49f",
}


class _RecordingRandom(random.Random):
    """A ``random.Random`` that records how ``choices`` is called."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        self.calls.append((weights, cum_weights))
        return super().choices(
            population, weights, cum_weights=cum_weights, k=k
        )


class TestZipfAndLabels:
    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(5, 1.0)
        assert weights == sorted(weights, reverse=True)

    def test_sample_labels_full_alphabet(self):
        rng = random.Random(1)
        labels = sample_labels(100, 7, rng)
        assert set(labels) == set(range(7))

    def test_sample_labels_requires_positive_alphabet(self):
        with pytest.raises(HypergraphError):
            sample_labels(5, 0, random.Random(0))

    def test_labels_skew_towards_frequent(self):
        rng = random.Random(2)
        labels = sample_labels(2000, 5, rng, exponent=1.5)
        counts = [labels.count(i) for i in range(5)]
        assert counts[0] > counts[4]


class TestArity:
    def test_arity_within_bounds(self):
        rng = random.Random(3)
        for _ in range(300):
            arity = sample_arity(4.0, 9, rng, min_arity=2)
            assert 2 <= arity <= 9

    def test_mean_arity_is_roughly_respected(self):
        rng = random.Random(4)
        samples = [sample_arity(5.0, 40, rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 3.5 <= mean <= 6.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(HypergraphError):
            sample_arity(3.0, 1, random.Random(0), min_arity=2)


class TestGenerateHypergraph:
    def test_shape(self):
        rng = random.Random(5)
        graph = generate_hypergraph(200, 150, 6, 3.0, 8, rng)
        assert graph.num_vertices == 200
        assert 0 < graph.num_edges <= 150
        assert graph.max_arity() <= 8
        assert len(graph.label_alphabet()) == 6

    def test_deterministic_in_seed(self):
        first = generate_hypergraph(60, 40, 3, 2.5, 5, random.Random(9))
        second = generate_hypergraph(60, 40, 3, 2.5, 5, random.Random(9))
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_hypergraph(60, 40, 3, 2.5, 5, random.Random(9))
        second = generate_hypergraph(60, 40, 3, 2.5, 5, random.Random(10))
        assert first != second

    def test_invalid_sizes_rejected(self):
        with pytest.raises(HypergraphError):
            generate_hypergraph(0, 5, 2, 2.0, 3, random.Random(0))

    def test_popularity_is_accumulated_once_per_graph(self):
        """Only the label draw passes ``weights=``; every vertex draw
        after it bisects the one ``cum_weights`` list of the graph —
        ``weights=`` would re-accumulate all |V| weights per edge."""
        rng = _RecordingRandom(5)
        graph = generate_hypergraph(200, 150, 6, 3.0, 8, rng)
        (label_weights, _), *vertex_draws = rng.calls
        assert label_weights is not None
        assert len(vertex_draws) >= 150
        assert all(
            weights is None and cum is not None
            for weights, cum in vertex_draws
        )
        assert len({id(cum) for _, cum in vertex_draws}) == 1
        assert graph == generate_hypergraph(
            200, 150, 6, 3.0, 8, random.Random(5)
        )


@pytest.mark.parametrize("name", DATASET_ORDER)
def test_builtin_dataset_is_bit_identical(name):
    buffer = io.StringIO()
    dump_native(build_dataset(dataset_spec(name)), buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == DATASET_SHA256[name]


class TestOtherGenerators:
    def test_uniform_arity(self):
        graph = generate_uniform_hypergraph(30, 20, 3, 2, random.Random(6))
        assert all(len(edge) == 3 for edge in graph.edges)

    def test_uniform_arity_too_large(self):
        with pytest.raises(HypergraphError):
            generate_uniform_hypergraph(2, 5, 3, 2, random.Random(0))

    def test_connected_generator_is_connected(self):
        for seed in range(5):
            graph = random_connected_hypergraph(12, 8, 3, 4, random.Random(seed))
            assert graph.is_connected()

    def test_planted_copies_guarantee_embeddings(self):
        from repro import HGMatch

        rng = random.Random(7)
        base = generate_hypergraph(20, 10, 2, 2.5, 4, rng)
        pattern = Hypergraph(["A", "B", "A"], [{0, 1}, {1, 2}])
        planted = generate_planted_hypergraph(base, pattern, copies=3, rng=rng)
        assert HGMatch(planted).count(pattern) >= 3

    def test_perturb_labels_changes_graph(self):
        rng = random.Random(8)
        graph = generate_hypergraph(30, 20, 4, 2.5, 4, rng)
        perturbed = perturb_labels(graph, flips=10, num_labels=4, rng=rng)
        assert perturbed.num_vertices == graph.num_vertices
        assert perturbed.num_edges == graph.num_edges
