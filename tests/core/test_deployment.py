"""Tests for the deployment features of Section 4.3.1: incremental
embedding updates (through ``EmbeddingStore``) and uint4 quantization."""

import numpy as np
import pytest

from repro.core import (
    embed_dataset,
    pack_uint4,
    quantize_embeddings,
    unpack_uint4,
)
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.runtime import EmbeddingStore


@pytest.fixture(scope="module")
def world():
    dataset = make_churn_dataset(num_clients=12, mean_length=40, min_length=20,
                                 max_length=60, seed=0)
    encoder = build_encoder(dataset.schema, 16, "gru",
                            rng=np.random.default_rng(0))
    encoder.eval()
    return dataset, encoder


class TestEmbedDataset:
    def test_shape_and_batching_invariance(self, world):
        dataset, encoder = world
        full = embed_dataset(encoder, dataset, batch_size=64,
                             precision="float64")
        small = embed_dataset(encoder, dataset, batch_size=3,
                              precision="float64")
        assert full.shape == (len(dataset), 16)
        np.testing.assert_allclose(full, small, rtol=1e-9)


class TestIncrementalEmbedder:
    """The paper's ETL client: ``EmbeddingStore.update`` per entity."""

    def test_rejects_transformer(self, world):
        dataset, _ = world
        transformer = build_encoder(dataset.schema, 8, "transformer")
        with pytest.raises(TypeError):
            EmbeddingStore(transformer).update(0, dataset[0].slice(0, 5),
                                               dataset.schema)

    def test_lstm_incremental_equals_full(self, world):
        """Extension beyond the paper: LSTM state carry-over also works."""
        dataset, _ = world
        encoder = build_encoder(dataset.schema, 12, "lstm",
                                rng=np.random.default_rng(5))
        encoder.eval()
        store = EmbeddingStore(encoder, precision="float64")
        full = embed_dataset(encoder, dataset, precision="float64")
        seq = dataset[0]
        mid = len(seq) // 2
        store.update(seq.seq_id, seq.slice(0, mid), dataset.schema)
        store.update(seq.seq_id, seq.slice(mid, len(seq)), dataset.schema)
        np.testing.assert_allclose(store.embedding(seq.seq_id), full[0],
                                   rtol=1e-8)

    def test_incremental_equals_full_recompute(self, world):
        """The paper's ETL property: c_{t+k} from c_t and the new events."""
        dataset, encoder = world
        store = EmbeddingStore(encoder, precision="float64")
        full = embed_dataset(encoder, dataset, precision="float64")
        for row, seq in enumerate(dataset):
            # Feed the sequence in three chunks.
            cuts = [0, len(seq) // 3, 2 * len(seq) // 3, len(seq)]
            for start, stop in zip(cuts[:-1], cuts[1:]):
                if stop > start:
                    store.update(seq.seq_id, seq.slice(start, stop),
                                    dataset.schema)
            np.testing.assert_allclose(
                store.embedding(seq.seq_id), full[row], rtol=1e-8,
                err_msg="entity %d" % seq.seq_id,
            )

    def test_unknown_entity_raises(self, world):
        _, encoder = world
        with pytest.raises(KeyError):
            EmbeddingStore(encoder).embedding(123)

    def test_empty_update_raises(self, world):
        dataset, encoder = world
        store = EmbeddingStore(encoder)
        empty = dataset[0].slice(0, 0)
        with pytest.raises(ValueError):
            store.update(0, empty, dataset.schema)

    def test_known_entities_tracked(self, world):
        dataset, encoder = world
        store = EmbeddingStore(encoder)
        store.update(5, dataset[0].slice(0, 10), dataset.schema)
        assert store.known_entities() == [5]


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((50, 32))
        quantized = quantize_embeddings(emb, levels=16)
        recovered = quantized.dequantize()
        # Max error is half a step per dimension.
        max_err = np.abs(recovered - emb)
        steps = quantized.scales
        assert (max_err <= steps[None, :] / 2 + 1e-9).all()

    def test_codes_within_levels(self):
        emb = np.random.default_rng(1).standard_normal((20, 8))
        quantized = quantize_embeddings(emb, levels=16)
        assert quantized.codes.max() <= 15
        assert quantized.codes.dtype == np.uint8

    def test_compression_ratio_matches_paper(self):
        """Section 4.3.1: a 256-dim float32 embedding (1KB) -> 128 bytes."""
        emb = np.random.default_rng(2).standard_normal((10, 256))
        quantized = quantize_embeddings(emb, levels=16)
        assert quantized.packed_bytes() == 10 * 128

    def test_levels_validation(self):
        emb = np.zeros((2, 2))
        with pytest.raises(ValueError):
            quantize_embeddings(emb, levels=1)
        with pytest.raises(ValueError):
            quantize_embeddings(emb, levels=1000)

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            quantize_embeddings(np.zeros(5))

    def test_constant_dimension_handled(self):
        emb = np.ones((4, 3))
        quantized = quantize_embeddings(emb)
        np.testing.assert_allclose(quantized.dequantize(), emb, atol=1e-9)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 16, size=(7, 9)).astype(np.uint8)  # odd width
        packed = pack_uint4(codes)
        assert packed.shape == (7, 5)
        recovered = unpack_uint4(packed, width=9)
        np.testing.assert_array_equal(recovered, codes)

    def test_pack_rejects_wide_codes(self):
        with pytest.raises(ValueError):
            pack_uint4(np.full((2, 2), 16, dtype=np.uint8))

    def test_neighbour_preservation(self):
        """Quantized embeddings keep nearest-neighbour structure."""
        rng = np.random.default_rng(4)
        centers = np.eye(8) * 5
        emb = np.vstack([centers[i % 8] + 0.1 * rng.standard_normal(8)
                         for i in range(40)])
        recovered = quantize_embeddings(emb, levels=16).dequantize()
        for i in range(40):
            original_nn = np.argsort(np.linalg.norm(emb - emb[i], axis=1))[1]
            recovered_nn = np.argsort(
                np.linalg.norm(recovered - recovered[i], axis=1))[1]
            assert (i % 8) == (original_nn % 8) == (recovered_nn % 8)
