"""State storage for the embedding stores: the row-shard backend and codecs.

The out-of-core redesign of the serving state layer: the paper targets a
90M-card population (Section 4.3.1), which does not fit per-entity float
dicts in RAM.  Two orthogonal pieces split the problem:

- :class:`StateBackend` owns **where** per-entity recurrent state lives
  (``get`` / ``put`` / ``snapshot`` / ``restore`` /
  ``bytes_per_entity``): fixed-capacity row shards behind an
  entity→(shard, row) index.  With ``directory=None`` every shard stays
  in RAM; with a directory the shards are ``.npy`` files opened via
  ``np.load(..., mmap_mode="r")``, an LRU of hot shards is promoted
  into RAM and dirty shards are written back on eviction and flush, so
  resident memory is bounded by ``cache_shards * shard_capacity``
  states regardless of entity count;
- a :class:`StateCodec` owns **how** state blocks are encoded at rest.
  :class:`IdentityCodec` stores raw policy-dtype arrays (lossless),
  :class:`Float16Codec` halves them, and :class:`QuantizedCodec` wires
  :mod:`repro.core.quantization` into int8/uint4 linear quantization
  with per-shard minimum/scale metadata (4-bit codes packed
  two-per-byte).

Codecs apply **at rest** (shard files, snapshots); the runtime's
``precision`` policy applies at compute.  The identity codec preserves
the 1e-10 replay-vs-recompute contract in both modes; quantized
codecs carry an explicit per-encode drift bound — ``scales / 2`` per
dimension (:meth:`~repro.core.quantization.QuantizedEmbeddings.quantization_error`)
— property-tested in ``tests/runtime/test_backends.py``.

Both modes persist through one manifest-driven directory layout::

    <dir>/
      state_manifest.json          format, kind, dim, codec, shard count
      shard_0000.hidden.npy        codec data array (codes or raw values)
      shard_0000.cell.npy          LSTM only
      shard_0000.meta.npz          entity ids, last-event times, codec meta

which doubles as the disk mode's live storage — a state directory can
be reopened in place by a fresh backend.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import OrderedDict

import numpy as np

from ..nn.serialization import load_arrays, save_arrays

__all__ = [
    "StateCodec",
    "IdentityCodec",
    "Float16Codec",
    "QuantizedCodec",
    "resolve_codec",
    "StateBackend",
]

#: Format tag written into every state bundle manifest.
STATE_FORMAT = "repro-state-v1"

_MANIFEST_NAME = "state_manifest.json"


def _quantization():
    """Deferred import of :mod:`repro.core.quantization`.

    ``repro.core``'s package init imports :mod:`repro.core.inference`,
    which imports :mod:`repro.runtime` — importing the quantization
    module at this module's import time would close that cycle while
    both packages are half-initialised.  By first use every package is
    fully loaded.
    """
    from ..core import quantization
    return quantization


# ----------------------------------------------------------------------
# codecs: how state blocks are encoded at rest
# ----------------------------------------------------------------------
class StateCodec:
    """At-rest encoding of ``(N, H)`` state blocks.

    A codec turns a float state block into the arrays persisted on disk
    and back.  ``encode`` returns a dict that always contains
    :attr:`data_key` — the per-row data array, stored as a standalone
    ``.npy`` so a disk-mode backend can open it lazily — plus any
    per-block metadata arrays (quantization minimums/scales).
    ``decode`` consumes the same dict.  Codecs are stateless and
    shareable across backends and threads.
    """

    #: Name under which the codec registers (and its manifest spec).
    name = "identity"
    #: Key of the per-row data array within an encoded block.
    data_key = "values"
    #: Whether a decode reproduces the encoded block exactly.
    lossless = True

    def encode(self, block):
        """Encode a ``(N, H)`` float block into persistable arrays."""
        raise NotImplementedError

    def decode(self, arrays, width, dtype):
        """Decode :meth:`encode` output back to a ``(N, width)`` array.

        Always returns a fresh, writable array in ``dtype`` (the
        caller's compute/state dtype), never a view into the inputs —
        the inputs may be read-only memmaps.
        """
        raise NotImplementedError

    def values_nbytes(self, rows, width, dtype):
        """At-rest bytes of the per-row data for ``rows`` states."""
        raise NotImplementedError

    def meta_nbytes(self, width, dtype):
        """At-rest bytes of the per-block metadata (0 when none)."""
        return 0

    def spec(self):
        """JSON-serialisable codec description for state manifests."""
        return {"name": self.name}


class IdentityCodec(StateCodec):
    """Lossless codec: store the policy-dtype arrays as-is."""

    name = "identity"

    def encode(self, block):
        """Pass the ``(rows, width)`` policy-dtype block through unchanged."""
        return {"values": np.ascontiguousarray(block)}

    def decode(self, arrays, width, dtype):
        """Cast back to the requested dtype (fresh array)."""
        # reprolint: disable=RP001 -- the stored dtype is whatever encode
        # persisted; the astype right after is the one policy cast.
        return np.asarray(arrays["values"]).astype(dtype, copy=True)

    def values_nbytes(self, rows, width, dtype):
        """``rows * width`` values at the storage dtype's width."""
        return rows * width * np.dtype(dtype).itemsize


class Float16Codec(StateCodec):
    """Half-precision at rest: 2 bytes per value, ~1e-3 relative error."""

    name = "float16"
    lossless = False

    def encode(self, block):
        """Down-cast the block to float16."""
        return {"values": np.asarray(block, dtype=np.float16)}

    def decode(self, arrays, width, dtype):
        """Up-cast the stored float16 values to the compute dtype."""
        # reprolint: disable=RP001 -- the stored values are float16 by
        # construction; the astype right after is the one policy cast.
        return np.asarray(arrays["values"]).astype(dtype, copy=True)

    def values_nbytes(self, rows, width, dtype):
        """Two bytes per stored value."""
        return rows * width * 2


class QuantizedCodec(StateCodec):
    """Linear quantization at rest via :mod:`repro.core.quantization`.

    ``levels=256`` is the int8 codec (1 byte per value); ``levels<=16``
    packs two 4-bit codes per byte (the paper's uint4 production
    setting).  Minimums and scales are computed **per encoded block** —
    one shard of the owning backend — and stored next to the codes, so
    each shard dequantizes independently.  Reconstruction error is
    bounded by ``scales / 2`` per dimension per encode
    (:meth:`~repro.core.quantization.QuantizedEmbeddings.quantization_error`).
    """

    data_key = "codes"
    lossless = False

    def __init__(self, levels=256):
        if levels < 2 or levels > 256:
            raise ValueError("levels must be in [2, 256]")
        self.levels = int(levels)
        self.packed = self.levels <= 16
        if self.levels == 256:
            self.name = "int8"
        elif self.levels == 16:
            self.name = "uint4"
        else:
            self.name = "quant%d" % self.levels

    def encode(self, block):
        """Quantize a ``(rows, width)`` float block; 4-bit codes pack two-per-byte."""
        quant = _quantization()
        # reprolint: disable=RP001 -- quantization ranges are computed in
        # the block's own (policy) dtype; no cast belongs here.
        block = np.asarray(block)
        if block.shape[0] == 0:
            width = block.shape[1]
            stored = (width + 1) // 2 if self.packed else width
            return {"codes": np.zeros((0, stored), dtype=np.uint8),
                    "minimums": np.zeros(width, dtype=block.dtype),
                    "scales": np.ones(width, dtype=block.dtype)}
        encoded = quant.quantize_embeddings(block, levels=self.levels)
        codes = (quant.pack_uint4(encoded.codes) if self.packed
                 else encoded.codes)
        return {"codes": codes, "minimums": encoded.minimums,
                "scales": encoded.scales}

    def decode(self, arrays, width, dtype):
        """Dequantize stored codes back to the compute dtype."""
        quant = _quantization()
        # reprolint: disable=RP001 -- codes are uint8 and minimums/scales
        # carry the encode-time dtype; dequantize() applies the policy cast.
        codes = np.asarray(arrays["codes"])
        if self.packed:
            codes = quant.unpack_uint4(codes, width)
        block = quant.QuantizedEmbeddings(
            codes=codes,
            minimums=np.asarray(arrays["minimums"]),  # reprolint: disable=RP001 -- stored dtype
            scales=np.asarray(arrays["scales"]),  # reprolint: disable=RP001 -- stored dtype
            levels=self.levels,
        ).dequantize(dtype=dtype)
        return np.ascontiguousarray(block)

    def values_nbytes(self, rows, width, dtype):
        """One byte per code, or one byte per two packed 4-bit codes."""
        return rows * ((width + 1) // 2 if self.packed else width)

    def meta_nbytes(self, width, dtype):
        """Per-block minimums + scales, at the block's float dtype."""
        return 2 * width * np.dtype(dtype).itemsize

    def spec(self):
        """Name plus the level count (needed to rebuild the codec)."""
        return {"name": self.name, "levels": self.levels}


#: Codec registry: spec string -> zero-arg constructor.
CODECS = {
    "identity": IdentityCodec,
    "float16": Float16Codec,
    "int8": lambda: QuantizedCodec(levels=256),
    "uint4": lambda: QuantizedCodec(levels=16),
}


def resolve_codec(codec):
    """Canonicalise a codec knob to a :class:`StateCodec` instance.

    Accepts ``None`` (identity), a registry string (``"identity"``,
    ``"float16"``, ``"int8"``, ``"uint4"``), a manifest spec dict
    (``{"name": ..., "levels": ...}``), or an existing instance.
    """
    if codec is None:
        return IdentityCodec()
    if isinstance(codec, StateCodec):
        return codec
    if isinstance(codec, dict):
        name = codec.get("name")
        if "levels" in codec and name not in ("identity", "float16"):
            return QuantizedCodec(levels=int(codec["levels"]))
        codec = name
    if isinstance(codec, str):
        try:
            return CODECS[codec]()
        except KeyError:
            raise ValueError(
                "unknown state codec %r (use one of %s)"
                % (codec, sorted(CODECS))
            ) from None
    raise TypeError("codec must be a name, spec dict or StateCodec "
                    "(got %s)" % type(codec).__name__)


# ----------------------------------------------------------------------
# the shared on-disk state bundle format
# ----------------------------------------------------------------------
def _shard_files(directory, index):
    """Paths of one shard's hidden / cell / metadata files."""
    base = os.path.join(str(directory), "shard_%04d" % index)
    return base + ".hidden.npy", base + ".cell.npy", base + ".meta.npz"


def write_state_shard(directory, index, entity_ids, hidden, cell,
                      last_times, codec):
    """Persist one encoded state shard (data ``.npy`` + ``meta.npz``).

    ``hidden`` (and ``cell`` for LSTM states) are ``(rows, H)`` blocks in
    the runtime's policy dtype; ``last_times`` is stored as float64.
    """
    hidden_path, cell_path, meta_path = _shard_files(directory, index)
    # reprolint: disable=RP001 -- entity ids keep their input integer dtype.
    meta = {"entity_ids": np.asarray(entity_ids),
            "last_times": np.asarray(last_times, dtype=np.float64)}
    for field, block, path in (("hidden", hidden, hidden_path),
                               ("cell", cell, cell_path)):
        if block is None:
            continue
        encoded = codec.encode(block)
        np.save(path, encoded.pop(codec.data_key))
        for key, value in encoded.items():
            meta["%s__%s" % (field, key)] = value
    save_arrays(meta_path, meta)


def read_state_shard(directory, index, codec, width, dtype, with_cell,
                     mmap=True):
    """Load one shard: ``(entity_ids, hidden, cell, last_times)``.

    ``mmap=True`` opens the data arrays with ``mmap_mode="r"`` so only
    the decoded shard is materialised in RAM; the decode itself always
    returns fresh writable arrays.
    """
    hidden_path, cell_path, meta_path = _shard_files(directory, index)
    meta = load_arrays(meta_path)

    def field(name, path):
        """Decode one field's data array + its prefixed metadata."""
        arrays = {codec.data_key: np.load(path,
                                          mmap_mode="r" if mmap else None)}
        prefix = name + "__"
        arrays.update({key[len(prefix):]: value for key, value in meta.items()
                       if key.startswith(prefix)})
        return codec.decode(arrays, width, dtype)

    hidden = field("hidden", hidden_path)
    cell = field("cell", cell_path) if with_cell else None
    return meta["entity_ids"].tolist(), hidden, cell, meta["last_times"]


def write_state_manifest(directory, kind, dim, codec, shards, entities,
                         **extra):
    """Write ``state_manifest.json`` describing a state bundle."""
    manifest = {"format": STATE_FORMAT, "kind": kind, "dim": int(dim),
                "codec": codec.spec(), "shards": int(shards),
                "entities": int(entities)}
    manifest.update(extra)
    with open(os.path.join(str(directory), _MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def read_state_manifest(directory):
    """Read a bundle manifest; ``FileNotFoundError`` when absent."""
    path = os.path.join(str(directory), _MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError("no state bundle manifest at %r" % path)
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# the backend: where per-entity state lives
# ----------------------------------------------------------------------
class _HotShard:
    """One decoded in-RAM shard: row buffers + dirty flag."""

    __slots__ = ("hidden", "cell", "dirty")

    def __init__(self, hidden, cell, dirty):
        self.hidden = hidden
        self.cell = cell
        self.dirty = dirty


class StateBackend:
    """Per-entity recurrent state in fixed-capacity row shards.

    A backend stores ``(hidden, cell, last_time)`` triples keyed by
    entity id on behalf of an :class:`~repro.runtime.EmbeddingStore`.
    Lifecycle: construct (storage knobs only) → :meth:`attach` (the
    owning store provides the state geometry, compute dtype and at-rest
    codec) → ``get``/``put`` traffic → :meth:`snapshot` /
    :meth:`restore` / :meth:`flush`.

    Entities append to shards of ``shard_capacity`` rows in arrival
    order; the entity→(shard, row) index and the last-event timestamps
    stay in RAM (a few dozen bytes per entity).  ``directory`` says where
    the shards live:

    - ``None`` (the default): every shard stays in RAM, with no LRU and
      no disk access until :meth:`snapshot` encodes the shards through
      the codec.
    - a path: shards live in ``.npy`` files under ``directory``.  A read
      or write promotes the owning shard into an LRU of at most
      ``cache_shards`` decoded shards; evicting a dirty shard encodes it
      through the codec and writes it back.  :meth:`flush` writes back
      every dirty hot shard and the manifest, after which the directory
      is a complete state bundle that a fresh backend reopens in place
      (construct with the same ``directory`` and attach).  Resident
      state memory is bounded by ``cache_shards * shard_capacity`` rows
      regardless of entity count.

    :meth:`get` returns copies in both modes, so a later :meth:`put`
    never changes a state that was already read.
    """

    def __init__(self, directory=None, shard_capacity=1024, cache_shards=4):
        if shard_capacity < 1:
            raise ValueError("shard_capacity must be >= 1")
        if cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
        self.directory = None if directory is None else str(directory)
        self.shard_capacity = int(shard_capacity)
        self.cache_shards = int(cache_shards)
        self.dim = None
        self.kind = None
        self.dtype = None
        self.codec = None
        self.evictions = 0
        self.shard_loads = 0
        self.clear()

    # -- lifecycle ------------------------------------------------------
    def attach(self, dim, kind, dtype, codec):
        """Bind the backend to a store's state geometry and codec.

        ``kind`` names the state family: recurrent ``"gru"``/``"lstm"``
        states (``"lstm"`` adds a cell buffer per entity) or
        ``"transformer"`` pooled-embedding states (hidden buffer only,
        like GRU).  On disk, a directory that already holds a state
        bundle is reopened as the live state.
        """
        if kind not in ("gru", "lstm", "transformer"):
            raise ValueError(
                "kind must be 'gru', 'lstm' or 'transformer' (got %r)"
                % kind)
        self.dim = int(dim)
        self.kind = kind
        self.dtype = np.dtype(dtype)
        self.codec = resolve_codec(codec)
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            if os.path.exists(os.path.join(self.directory, _MANIFEST_NAME)):
                self._reopen()
        return self

    @property
    def is_lstm(self):
        """Whether stored states carry a cell buffer."""
        return self.kind == "lstm"

    def _reopen(self):
        """Adopt an existing state bundle in ``directory`` as live state."""
        manifest = read_state_manifest(self.directory)
        if manifest.get("kind") != self.kind:
            raise ValueError(
                "state directory %r holds %s states but the runtime encoder "
                "is %s" % (self.directory, manifest.get("kind"), self.kind)
            )
        if int(manifest.get("dim", -1)) != self.dim:
            raise ValueError(
                "state directory %r holds width-%s states but the encoder "
                "hidden size is %d"
                % (self.directory, manifest.get("dim"), self.dim)
            )
        if resolve_codec(manifest.get("codec")).spec() != self.codec.spec():
            raise ValueError(
                "state directory %r was written with codec %r but this "
                "backend is configured with %r — pass the matching codec "
                "(or restore() through a snapshot to transcode)"
                % (self.directory, manifest.get("codec"), self.codec.spec())
            )
        self.clear()
        for shard in range(int(manifest.get("shards", 0))):
            meta = load_arrays(_shard_files(self.directory, shard)[2])
            ids = meta["entity_ids"].tolist()
            self._shard_ids.append(ids)
            for row, entity_id in enumerate(ids):
                self._index[entity_id] = (shard, row)
                self._last[entity_id] = float(meta["last_times"][row])

    # -- shard plumbing ---------------------------------------------------
    def _new_hot(self, dirty):
        """A zeroed capacity-sized hot shard buffer pair."""
        hidden = np.zeros((self.shard_capacity, self.dim), dtype=self.dtype)
        cell = (np.zeros((self.shard_capacity, self.dim), dtype=self.dtype)
                if self.is_lstm else None)
        return _HotShard(hidden, cell, dirty)

    def _admit(self, shard, hot):
        """Insert a shard into the disk LRU, evicting (and writing back) LRUs."""
        self._hot[shard] = hot
        self._hot.move_to_end(shard)
        while len(self._hot) > self.cache_shards:
            old_shard, old_hot = self._hot.popitem(last=False)
            if old_hot.dirty:
                self._write_shard(self.directory, old_shard, old_hot)
            self.evictions += 1

    def _load_shard(self, shard):
        """Disk mode: the hot buffer of ``shard``, promoted from disk if cold."""
        hot = self._hot.get(shard)
        if hot is not None:
            self._hot.move_to_end(shard)
            return hot
        hot = self._new_hot(dirty=False)
        meta_path = _shard_files(self.directory, shard)[2]
        if os.path.exists(meta_path):
            _, hidden, cell, _ = read_state_shard(
                self.directory, shard, self.codec, self.dim, self.dtype,
                with_cell=self.is_lstm,
            )
            hot.hidden[:hidden.shape[0]] = hidden
            if self.is_lstm:
                hot.cell[:cell.shape[0]] = cell
            self.shard_loads += 1
        self._admit(shard, hot)
        return hot

    def _write_shard(self, directory, shard, hot):
        """Encode and persist one shard's used rows under ``directory``."""
        ids = self._shard_ids[shard]
        rows = len(ids)
        last_times = np.asarray([self._last[e] for e in ids],
                                dtype=np.float64)
        write_state_shard(
            directory, shard, ids, hot.hidden[:rows],
            hot.cell[:rows] if self.is_lstm else None, last_times,
            self.codec,
        )
        hot.dirty = False

    def _write_manifest(self, directory):
        """The bundle manifest describing every live shard."""
        write_state_manifest(directory, self.kind, self.dim, self.codec,
                             len(self._shard_ids), len(self),
                             shard_capacity=self.shard_capacity)

    def _reserve(self, entity_id):
        """Assign a (shard, row) slot to a new entity (no data write)."""
        shard = len(self._shard_ids) - 1
        if shard < 0 or len(self._shard_ids[shard]) >= self.shard_capacity:
            shard += 1
            self._shard_ids.append([])
            hot = self._new_hot(dirty=True)
            if self.directory is None:
                self._hot[shard] = hot
            else:
                self._admit(shard, hot)
        ids = self._shard_ids[shard]
        location = (shard, len(ids))
        ids.append(entity_id)
        self._index[entity_id] = location
        return location

    # -- per-entity access -------------------------------------------------
    def get(self, entity_id):
        """``(hidden, cell, last_time)`` as fresh copies, or ``None``."""
        location = self._index.get(entity_id)
        if location is None:
            return None
        shard, row = location
        hot = (self._hot[shard] if self.directory is None
               else self._load_shard(shard))
        cell = hot.cell[row].copy() if hot.cell is not None else None
        return hot.hidden[row].copy(), cell, self._last[entity_id]

    def put(self, entity_id, hidden, cell, last_time):
        """Write one entity's state into its (possibly new) shard row.

        ``hidden`` (and ``cell`` for LSTM states; ignored otherwise) are
        ``(H,)`` buffers; the row assignment casts them to the backend's
        dtype and copies them, so the caller keeps ownership of its
        buffers.
        """
        location = self._index.get(entity_id)
        if location is None:
            location = self._reserve(entity_id)
        shard, row = location
        if self.directory is None:
            hot = self._hot[shard]
        else:
            hot = self._load_shard(shard)
            hot.dirty = True
        hot.hidden[row] = hidden
        if hot.cell is not None:
            hot.cell[row] = cell
        self._last[entity_id] = float(last_time)

    def entity_ids(self):
        """All stored entity ids."""
        return list(self._index)

    def last_time(self, entity_id):
        """Last folded-event timestamp (RAM index; no shard touch)."""
        return self._last.get(entity_id)

    def clear(self):
        """Forget all live state (stale disk files are overwritten lazily)."""
        self._index = {}           # entity id -> (shard, row)
        self._last = {}            # entity id -> float timestamp
        self._shard_ids = []       # shard -> [entity ids in row order]
        self._hot = OrderedDict()  # shard -> _HotShard (LRU order on disk)

    def __len__(self):
        return len(self._index)

    def __contains__(self, entity_id):
        return entity_id in self._index

    # -- persistence --------------------------------------------------------
    def flush(self):
        """Write back every dirty hot shard + the bundle manifest.

        A no-op in RAM mode, which touches disk only in :meth:`snapshot`.
        """
        if self.directory is None:
            return
        for shard, hot in self._hot.items():
            if hot.dirty:
                self._write_shard(self.directory, shard, hot)
        self._write_manifest(self.directory)

    def snapshot(self, directory):
        """Write the full state bundle to ``directory``.

        RAM mode encodes every shard through the codec.  Disk mode
        flushes, then copies the encoded shard files verbatim: no
        decode/re-encode cycle, so a quantized snapshot is lossless
        relative to the live files.  Snapshotting into the live
        directory is just a flush.
        """
        target = os.path.abspath(str(directory))
        if self.directory is None:
            os.makedirs(target, exist_ok=True)
            for shard, hot in self._hot.items():
                self._write_shard(target, shard, hot)
        else:
            self.flush()
            if target == os.path.abspath(self.directory):
                return
            os.makedirs(target, exist_ok=True)
            for shard in range(len(self._shard_ids)):
                for source, destination in zip(
                        _shard_files(self.directory, shard),
                        _shard_files(target, shard)):
                    if os.path.exists(source):
                        shutil.copyfile(source, destination)
        self._write_manifest(target)

    def restore(self, directory):
        """Replace all state with a bundle written by :meth:`snapshot`.

        The bundle decodes through **its own** recorded codec, then
        re-encodes at rest through this backend's codec — so bundles
        restore across codecs, shard sizes and modes.  Kind and state
        width must match.
        """
        manifest = read_state_manifest(directory)
        if manifest.get("kind") != self.kind:
            raise ValueError(
                "snapshot holds %s states but the runtime encoder is %s"
                % (manifest.get("kind"), self.kind)
            )
        if int(manifest.get("dim", -1)) != self.dim:
            raise ValueError(
                "snapshot state width (%s,) does not match encoder hidden "
                "size %d" % (manifest.get("dim"), self.dim)
            )
        codec = resolve_codec(manifest.get("codec"))
        self.clear()
        for index in range(int(manifest.get("shards", 0))):
            ids, hidden, cell, last_times = read_state_shard(
                directory, index, codec, self.dim, self.dtype,
                with_cell=self.is_lstm, mmap=False,
            )
            for row, entity_id in enumerate(ids):
                self.put(entity_id, hidden[row],
                         cell[row] if cell is not None else None,
                         last_times[row])
        self.flush()
        return self

    # -- telemetry -----------------------------------------------------------
    def bytes_per_entity(self):
        """At-rest bytes per entity under this backend's codec + layout.

        Counts the encoded state values, the per-shard codec metadata
        amortised over the shard capacity, and the 8-byte last-event
        timestamp.  With the identity codec this is ``dim * itemsize +
        8`` (``2 * dim * itemsize + 8`` for LSTM); it is the number
        recorded as ``bytes_per_entity`` in ``BENCH_serving.json``.
        """
        per_state = (self.codec.values_nbytes(1, self.dim, self.dtype)
                     + self.codec.meta_nbytes(self.dim, self.dtype)
                     / self.shard_capacity)
        if self.is_lstm:
            per_state *= 2
        return float(per_state + 8.0)

    def stats(self):
        """Entity count plus shard and LRU telemetry."""
        return {
            "entities": len(self),
            "shards": len(self._shard_ids),
            "hot_shards": len(self._hot),
            "shard_capacity": self.shard_capacity,
            "cache_shards": self.cache_shards,
            "evictions": self.evictions,
            "shard_loads": self.shard_loads,
        }

