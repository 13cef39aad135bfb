"""StateBackend + StateCodec: the out-of-core storage layer.

Contracts under test:

- the quantize → pack → unpack → dequantize round trip reconstructs
  every value within the documented ``scales / 2`` per-dimension bound
  (property-tested across levels {4, 16, 256} and float32/float64
  inputs, exercising the precision-policy alignment of
  ``core/quantization.py``);
- the backend behaves the same in RAM (``directory=None``) and on disk:
  reads are copies, identity-codec bundles round-trip exactly between
  the two modes, and bundles in the earlier one-big-shard layout load;
- state bundles round-trip across codecs — identity-codec bundles
  exactly, quantized bundles within the codec's error bound — and the
  disk mode's LRU pages evicted shards back losslessly (identity) or
  within the bound (quantized);
- serving from disk matches a cold recompute: identity codec at 1e-10,
  quantized codecs within an explicit measured drift bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.inference import serve
from repro.core.quantization import (pack_uint4, quantize_embeddings,
                                     unpack_uint4)
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.runtime import (EmbeddingStore, Float16Codec, IdentityCodec,
                           QuantizedCodec, StateBackend, resolve_codec)
from repro.runtime.backends import write_state_manifest, write_state_shard
from tests.oracles import tensor_embed


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=15, mean_length=40, min_length=12,
                              max_length=90, seed=0)


def _encoder(dataset, cell, hidden=14, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


# ----------------------------------------------------------------------
# quantization round trip (satellite: core/quantization.py alignment)
# ----------------------------------------------------------------------
def _embedding_matrices(dtype, width):
    return arrays(
        dtype=dtype,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 9)),
        elements=st.floats(-50, 50, width=width),
    )


@settings(max_examples=25, deadline=None)
@given(matrix=_embedding_matrices(np.float64, 64),
       levels=st.sampled_from([4, 16, 256]))
def test_quantize_dequantize_error_bound_float64(matrix, levels):
    quantized = quantize_embeddings(matrix, levels=levels)
    back = quantized.dequantize()
    assert back.dtype == np.float64
    bound = quantized.quantization_error() + 1e-9
    assert np.all(np.abs(back - matrix) <= bound[None, :])


@settings(max_examples=25, deadline=None)
@given(matrix=_embedding_matrices(np.float32, 32),
       levels=st.sampled_from([4, 16, 256]))
def test_quantize_dequantize_error_bound_float32(matrix, levels):
    """Float32 input quantizes in float32 — no silent up-cast — and the
    scale/2 bound still holds when reconstructing in float32."""
    quantized = quantize_embeddings(matrix, levels=levels)
    assert quantized.minimums.dtype == np.float32
    assert quantized.scales.dtype == np.float32
    back = quantized.dequantize(dtype=np.float32)
    assert back.dtype == np.float32
    # float32 headroom: the bound itself is computed in float32, give it
    # a relative epsilon for the reconstruction arithmetic.
    bound = quantized.quantization_error() * (1 + 1e-5) + 1e-6
    assert np.all(np.abs(back - matrix.astype(np.float32)) <= bound[None, :])


@settings(max_examples=25, deadline=None)
@given(matrix=_embedding_matrices(np.float64, 64),
       levels=st.sampled_from([4, 16]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_pack_unpack_roundtrip_preserves_codes(matrix, levels, dtype):
    """pack_uint4 → unpack_uint4 is lossless on the codes, so the full
    quantize → pack → unpack → dequantize chain keeps the scale/2 bound."""
    quantized = quantize_embeddings(matrix.astype(dtype), levels=levels)
    width = quantized.codes.shape[1]
    unpacked = unpack_uint4(pack_uint4(quantized.codes), width)
    np.testing.assert_array_equal(unpacked, quantized.codes)


def test_quantize_levels_is_keyword_only():
    with pytest.raises(TypeError):
        quantize_embeddings(np.zeros((2, 3)), 16)


def test_dequantize_dtype_parameter():
    quantized = quantize_embeddings(np.random.default_rng(0).normal(
        size=(5, 4)), levels=256)
    assert quantized.dequantize(dtype=np.float32).dtype == np.float32
    assert quantized.dequantize().dtype == np.float64


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
class TestCodecs:
    def test_resolve_codec_registry(self):
        assert isinstance(resolve_codec(None), IdentityCodec)
        assert isinstance(resolve_codec("identity"), IdentityCodec)
        assert isinstance(resolve_codec("float16"), Float16Codec)
        assert resolve_codec("int8").levels == 256
        assert resolve_codec("uint4").levels == 16
        instance = QuantizedCodec(levels=8)
        assert resolve_codec(instance) is instance
        with pytest.raises(ValueError, match="unknown state codec"):
            resolve_codec("zstd")
        with pytest.raises(TypeError):
            resolve_codec(42)

    def test_resolve_codec_from_manifest_spec(self):
        for codec in (IdentityCodec(), Float16Codec(), QuantizedCodec(256),
                      QuantizedCodec(16), QuantizedCodec(7)):
            rebuilt = resolve_codec(codec.spec())
            assert rebuilt.spec() == codec.spec()

    def test_identity_codec_is_exact(self):
        codec = IdentityCodec()
        block = np.random.default_rng(0).normal(size=(6, 5))
        out = codec.decode(codec.encode(block), 5, np.float64)
        np.testing.assert_array_equal(out, block)
        assert out.flags.writeable and out is not block

    def test_quantized_codec_error_bound(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(32, 9))
        for levels in (4, 16, 256):
            codec = QuantizedCodec(levels=levels)
            encoded = codec.encode(block)
            out = codec.decode(encoded, 9, np.float64)
            spans = block.max(axis=0) - block.min(axis=0)
            bound = spans / (levels - 1) / 2 + 1e-9
            assert np.all(np.abs(out - block) <= bound[None, :])

    def test_quantized_codec_packs_small_levels(self):
        packed = QuantizedCodec(levels=16).encode(np.zeros((4, 9)))
        assert packed["codes"].shape == (4, 5)  # two codes per byte
        unpacked = QuantizedCodec(levels=256).encode(np.zeros((4, 9)))
        assert unpacked["codes"].shape == (4, 9)

    def test_quantized_codec_empty_block(self):
        codec = QuantizedCodec(levels=256)
        out = codec.decode(codec.encode(np.zeros((0, 7))), 7, np.float32)
        assert out.shape == (0, 7) and out.dtype == np.float32

    def test_values_nbytes_orders(self):
        """int8 is 8x smaller than float64 per value; uint4 16x."""
        assert IdentityCodec().values_nbytes(1, 48, np.float64) == 384
        assert Float16Codec().values_nbytes(1, 48, np.float64) == 96
        assert QuantizedCodec(256).values_nbytes(1, 48, np.float64) == 48
        assert QuantizedCodec(16).values_nbytes(1, 48, np.float64) == 24


# ----------------------------------------------------------------------
# backend resolution + bytes_per_entity
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_resolve_backend(self, dataset, tmp_path):
        """States live in RAM unless ``backend_dir`` names a directory; an
        injected instance is used as-is and already owns its directory."""
        encoder = _encoder(dataset, "gru")
        assert EmbeddingStore(encoder).backend.directory is None
        flat = EmbeddingStore(encoder, backend_dir=tmp_path / "flat")
        assert flat.backend.directory == str(tmp_path / "flat")
        flat.bulk_load(dataset)
        flat.flush()
        assert (tmp_path / "flat" / "state_manifest.json").exists()

        instance = StateBackend(shard_capacity=4)
        assert EmbeddingStore(encoder, backend=instance).backend is instance
        with pytest.raises(ValueError, match="owns its directory"):
            EmbeddingStore(encoder, backend=StateBackend(),
                           backend_dir=tmp_path / "other")
        with pytest.raises(TypeError, match="StateBackend"):
            EmbeddingStore(encoder, backend="memmap")

        in_ram = serve(encoder, dataset=dataset, num_shards=2)
        assert all(shard.backend.directory is None
                   for shard in in_ram.store.shards)
        on_disk = serve(encoder, dataset=dataset, num_shards=2,
                        backend_dir=tmp_path / "svc")
        directories = [shard.backend.directory
                       for shard in on_disk.store.shards]
        assert directories == [str(tmp_path / "svc" / "state_0000"),
                               str(tmp_path / "svc" / "state_0001")]
        on_disk.store.flush()
        assert (tmp_path / "svc" / "state_0001"
                / "state_manifest.json").exists()
        with pytest.raises(ValueError, match="factory"):
            serve(encoder, schema=dataset.schema, num_shards=2,
                  backend=lambda index: StateBackend(),
                  backend_dir=tmp_path / "both")

    def test_bytes_per_entity_reduction(self, tmp_path):
        """int8 at-rest states are >= 4x smaller than the float64
        identity baseline — the BENCH_serving.json acceptance ratio."""
        dim = 48
        baseline = StateBackend().attach(dim, "gru", np.float64, "identity")
        assert baseline.bytes_per_entity() == dim * 8 + 8
        quantized = StateBackend(tmp_path / "s", shard_capacity=16)
        quantized.attach(dim, "gru", np.float32, "int8")
        ratio = baseline.bytes_per_entity() / quantized.bytes_per_entity()
        assert ratio >= 4.0


# ----------------------------------------------------------------------
# behaviour shared by both modes: RAM (directory=None) and disk
# ----------------------------------------------------------------------
@pytest.fixture(params=["ram", "disk"])
def make_backend(request, tmp_path):
    """Build backends in one mode: in RAM, or under ``tmp_path / name``."""
    def make(name="state", **knobs):
        directory = None if request.param == "ram" else tmp_path / name
        return StateBackend(directory, **knobs)
    return make


class TestBothModes:
    def test_get_returns_copies(self, make_backend):
        backend = make_backend(shard_capacity=8)
        backend.attach(6, "gru", np.float64, "identity")
        hidden = np.arange(6.0)
        backend.put(0, hidden, None, 1.0)
        hidden[:] = -1.0  # the caller keeps ownership of its buffer
        first, _, _ = backend.get(0)
        first[:] = 1e9
        np.testing.assert_array_equal(backend.get(0)[0], np.arange(6.0))

    def test_read_unchanged_by_later_put(self, make_backend):
        backend = make_backend(shard_capacity=4)
        backend.attach(5, "lstm", np.float64, "identity")
        backend.put(7, np.ones(5), np.full(5, 2.0), 1.0)
        hidden, cell, last_time = backend.get(7)
        backend.put(7, np.zeros(5), np.zeros(5), 2.0)
        np.testing.assert_array_equal(hidden, np.ones(5))
        np.testing.assert_array_equal(cell, np.full(5, 2.0))
        assert last_time == 1.0
        assert backend.get(7)[2] == 2.0

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_identity_bytes_per_entity(self, make_backend, dtype):
        """Values at the state dtype plus the 8-byte timestamp; LSTM
        states count both buffers."""
        dim, itemsize = 8, np.dtype(dtype).itemsize
        gru = make_backend("gru").attach(dim, "gru", dtype, None)
        lstm = make_backend("lstm").attach(dim, "lstm", dtype, None)
        assert gru.bytes_per_entity() == dim * itemsize + 8
        assert lstm.bytes_per_entity() == 2 * dim * itemsize + 8

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_snapshot_roundtrip_across_modes(self, make_backend, kind,
                                             tmp_path):
        """Identity-codec bundles move between the modes bit-identically:
        RAM → disk → RAM, and disk → RAM → disk."""
        rng = np.random.default_rng(5)
        states = {entity_id: (rng.normal(size=6),
                              rng.normal(size=6) if kind == "lstm" else None,
                              float(entity_id) / 3)
                  for entity_id in range(30)}
        source = make_backend("source", shard_capacity=8, cache_shards=2)
        source.attach(6, kind, np.float64, "identity")
        for entity_id, (hidden, cell, last_time) in states.items():
            source.put(entity_id, hidden, cell, last_time)
        source.snapshot(tmp_path / "bundle")

        other = StateBackend(tmp_path / "other" if source.directory is None
                             else None, shard_capacity=5, cache_shards=2)
        other.attach(6, kind, np.float64, "identity")
        other.restore(tmp_path / "bundle")
        other.snapshot(tmp_path / "bundle2")
        back = make_backend("back", shard_capacity=8, cache_shards=2)
        back.attach(6, kind, np.float64, "identity")
        back.restore(tmp_path / "bundle2")

        for backend in (other, back):
            assert len(backend) == len(states)
            for entity_id, (hidden, cell, last_time) in states.items():
                got_hidden, got_cell, got_last = backend.get(entity_id)
                np.testing.assert_array_equal(got_hidden, hidden)
                if kind == "lstm":
                    np.testing.assert_array_equal(got_cell, cell)
                assert got_last == last_time

    def test_loads_one_big_shard_bundle(self, make_backend, tmp_path):
        """A bundle in the earlier in-RAM snapshot layout — one 4096-row
        shard with sorted ids and no recorded shard capacity — loads
        exactly into 1024-row shards."""
        rng = np.random.default_rng(3)
        ids = np.sort(rng.choice(100_000, size=4096, replace=False))
        hidden = rng.normal(size=(4096, 3))
        last_times = rng.uniform(0, 100, size=4096)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        write_state_shard(bundle, 0, ids, hidden, None, last_times,
                          IdentityCodec())
        write_state_manifest(bundle, "gru", 3, IdentityCodec(), 1, len(ids))

        backend = make_backend(cache_shards=2)
        backend.attach(3, "gru", np.float64, "identity")
        backend.restore(bundle)
        assert len(backend) == 4096
        assert backend.stats()["shards"] == 4
        for row, entity_id in enumerate(ids.tolist()):
            got_hidden, _, got_last = backend.get(entity_id)
            np.testing.assert_array_equal(got_hidden, hidden[row])
            assert got_last == last_times[row]


# ----------------------------------------------------------------------
# disk mode mechanics: LRU, eviction, reopen
# ----------------------------------------------------------------------
class TestMemmapBackend:
    def _filled(self, tmp_path, codec="identity", entities=40,
                shard_capacity=8, cache_shards=2, dim=6, rng_seed=0):
        backend = StateBackend(tmp_path / "state",
                               shard_capacity=shard_capacity,
                               cache_shards=cache_shards)
        backend.attach(dim, "gru", np.float64, codec)
        rng = np.random.default_rng(rng_seed)
        states = {}
        for entity_id in range(entities):
            hidden = rng.normal(size=dim)
            states[entity_id] = hidden
            backend.put(entity_id, hidden, None, float(entity_id))
        return backend, states

    def test_eviction_then_readback_identity_is_lossless(self, tmp_path):
        backend, states = self._filled(tmp_path)
        assert backend.evictions > 0  # 40 entities / 8 per shard / LRU of 2
        for entity_id, hidden in states.items():
            got_hidden, got_cell, last_time = backend.get(entity_id)
            np.testing.assert_array_equal(got_hidden, hidden)
            assert got_cell is None
            assert last_time == float(entity_id)

    def test_eviction_then_readback_quantized_within_bound(self, tmp_path):
        backend, states = self._filled(tmp_path, codec="int8")
        assert backend.evictions > 0
        block = np.stack(list(states.values()))
        # per-shard minimums can only tighten vs the global span; the
        # global span / 255 / 2 is a safe upper bound for every shard.
        bound = ((block.max(axis=0) - block.min(axis=0)) / 255 / 2) + 1e-9
        for entity_id, hidden in states.items():
            got_hidden, _, _ = backend.get(entity_id)
            assert np.all(np.abs(got_hidden - hidden) <= bound)

    def test_flush_then_reopen_in_place(self, tmp_path):
        backend, states = self._filled(tmp_path)
        backend.flush()
        reopened = StateBackend(tmp_path / "state", shard_capacity=8,
                                cache_shards=2)
        reopened.attach(6, "gru", np.float64, "identity")
        assert len(reopened) == len(states)
        for entity_id, hidden in states.items():
            np.testing.assert_array_equal(reopened.get(entity_id)[0], hidden)

    def test_reopen_rejects_mismatched_geometry(self, tmp_path):
        backend, _ = self._filled(tmp_path)
        backend.flush()
        with pytest.raises(ValueError, match="hidden size"):
            StateBackend(tmp_path / "state").attach(
                9, "gru", np.float64, "identity")
        with pytest.raises(ValueError, match="gru"):
            StateBackend(tmp_path / "state").attach(
                6, "lstm", np.float64, "identity")
        with pytest.raises(ValueError, match="codec"):
            StateBackend(tmp_path / "state").attach(
                6, "gru", np.float64, "int8")

    def test_snapshot_into_live_directory_is_flush(self, tmp_path):
        backend, states = self._filled(tmp_path, entities=4)
        backend.snapshot(tmp_path / "state")
        reopened = StateBackend(tmp_path / "state", shard_capacity=8)
        reopened.attach(6, "gru", np.float64, "identity")
        assert len(reopened) == len(states)

    def test_stats_telemetry(self, tmp_path):
        backend, _ = self._filled(tmp_path)
        stats = backend.stats()
        assert stats["entities"] == 40
        assert stats["shards"] == 5
        assert stats["hot_shards"] <= 2
        assert stats["evictions"] > 0


# ----------------------------------------------------------------------
# store-level: serving from disk through each codec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestStoreOverBackends:
    def test_memmap_identity_matches_cold_recompute(self, dataset, cell,
                                                    tmp_path):
        """The PR 2 contract holds out-of-core: streaming through a
        disk-mode store with the identity codec lands within 1e-10 of
        a cold full recompute, even with an LRU small enough to evict."""
        encoder = _encoder(dataset, cell)
        store = EmbeddingStore(
            encoder, precision="float64",
            backend=StateBackend(tmp_path / "state", shard_capacity=4,
                                 cache_shards=2),
        )
        heads = [seq.slice(0, len(seq) // 2) for seq in dataset]
        tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset]
        store.update_many(heads, dataset.schema, batch_size=5)
        store.update_many(tails, dataset.schema, batch_size=5)
        assert store.backend.evictions > 0
        reference = tensor_embed(encoder, dataset)
        ids = [seq.seq_id for seq in dataset]
        np.testing.assert_allclose(store.embeddings(ids), reference,
                                   atol=1e-10)

    def test_memmap_quantized_drift_is_bounded(self, dataset, cell,
                                               tmp_path):
        """int8 at-rest states drift, but the drift stays within an
        explicit bound derived from the codec's quantization error (the
        state span / 255 per write-back, amplified by the recurrence)."""
        encoder = _encoder(dataset, cell)
        store = EmbeddingStore(
            encoder, precision="float64", codec="int8",
            backend=StateBackend(tmp_path / "state", shard_capacity=4,
                                 cache_shards=2),
        )
        heads = [seq.slice(0, len(seq) // 2) for seq in dataset]
        tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset]
        store.update_many(heads, dataset.schema, batch_size=5)
        store.update_many(tails, dataset.schema, batch_size=5)
        assert store.backend.evictions > 0
        reference = tensor_embed(encoder, dataset)
        ids = [seq.seq_id for seq in dataset]
        # Hidden states live in (-1, 1)-ish ranges; one int8 round trip
        # costs <= span/255/2 per dim and the recurrence contracts old
        # error, so 0.05 on unit-normalised embeddings is generous while
        # still catching a broken codec (identity drift is ~1e-16).
        np.testing.assert_allclose(store.embeddings(ids), reference,
                                   atol=0.05)

    def test_bundle_roundtrip_across_codecs(self, dataset, cell, tmp_path):
        """An identity bundle loads into a quantized store (transcodes on
        write-back) and a quantized bundle loads into an identity store
        within the codec bound."""
        encoder = _encoder(dataset, cell)
        exact = EmbeddingStore(encoder, precision="float64")
        exact.bulk_load(dataset)
        exact.save(tmp_path / "exact")

        quantized = EmbeddingStore(
            encoder, precision="float64", codec="uint4",
            backend=StateBackend(tmp_path / "qstate",
                                 shard_capacity=4, cache_shards=2),
        ).load(tmp_path / "exact")
        assert quantized.known_entities() == exact.known_entities()
        ids = exact.known_entities()
        np.testing.assert_allclose(quantized.embeddings(ids),
                                   exact.embeddings(ids), atol=0.2)

        quantized.save(tmp_path / "quant")
        back = EmbeddingStore(encoder, precision="float64")
        back.load(tmp_path / "quant")
        # identity load of a uint4 bundle reproduces the saved quantized
        # states exactly — the lossy step happened once, at save time —
        # so a second identity load of the same bundle is bit-identical.
        twice = EmbeddingStore(encoder, precision="float64")
        twice.load(tmp_path / "quant")
        np.testing.assert_array_equal(back.embeddings(ids),
                                      twice.embeddings(ids))
        np.testing.assert_allclose(back.embeddings(ids),
                                   exact.embeddings(ids), atol=0.2)

    def test_sharded_memmap_service_roundtrip(self, dataset, cell,
                                              tmp_path):
        """The full stack — serve() with backend_dir + int8 codec —
        ingests, persists, and reloads."""
        encoder = _encoder(dataset, cell)
        service = serve(encoder, dataset=dataset, num_shards=2,
                        codec="int8", backend_dir=tmp_path / "live")
        ids = [seq.seq_id for seq in dataset]
        served = service.query(ids)
        reference = tensor_embed(encoder, dataset)
        np.testing.assert_allclose(served, reference, atol=1e-4)

        service.save(tmp_path / "bundle")
        clone = serve(encoder, schema=dataset.schema, num_shards=2,
                      codec="int8", backend_dir=tmp_path / "live2")
        clone.load(tmp_path / "bundle")
        # the clone's states passed through one int8 encode at save time,
        # so they drift from the live (still hot, unquantized) states by
        # at most the codec bound.
        np.testing.assert_allclose(clone.query(ids), served, atol=0.05)
