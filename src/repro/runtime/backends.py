"""State storage for the embedding stores: the row-shard backend and codecs.

The out-of-core redesign of the serving state layer: the paper targets a
90M-card population (Section 4.3.1), which does not fit per-entity float
dicts in RAM.  Two orthogonal pieces split the problem:

- :class:`StateBackend` owns **where** per-entity recurrent state lives:
  per-entity ``get`` / ``put``, batch ``gather`` / ``scatter``, and
  ``snapshot`` / ``restore`` / ``bytes_per_entity``.  Each entity owns
  one int slot in arrival order, and slot ``s`` is row
  ``s % shard_capacity`` of shard ``s // shard_capacity``.  With
  ``directory=None`` all rows sit in one contiguous RAM block, so a
  batch access is one fancy index; with a directory the shards are
  ``.npy`` files opened via ``np.load(..., mmap_mode="r")``, an LRU of
  hot shards is promoted into RAM, dirty shards are written back on
  eviction and flush, and a batch call touches each shard once.
  Resident memory on disk is bounded by ``cache_shards *
  shard_capacity`` states regardless of entity count;
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
    """One decoded in-RAM shard of a disk backend: row buffers + dirty flag."""

    __slots__ = ("hidden", "cell", "dirty")

    def __init__(self, hidden, cell, dirty):
        self.hidden = hidden
        self.cell = cell
        self.dirty = dirty


def _grown(block, rows):
    """``block`` copied into a zeroed array with ``rows`` leading rows."""
    out = np.zeros((rows,) + block.shape[1:], dtype=block.dtype)
    out[:len(block)] = block
    return out


class StateBackend:
    """Per-entity recurrent state, one slot per entity.

    A backend stores ``(hidden, cell, last_time)`` triples keyed by
    entity id on behalf of an :class:`~repro.runtime.EmbeddingStore`.
    Lifecycle: construct (storage knobs only) → :meth:`attach` (the
    owning store provides the state geometry, compute dtype and at-rest
    codec) → per-entity ``get``/``put`` and batch ``gather``/``scatter``
    traffic → :meth:`snapshot` / :meth:`restore` / :meth:`flush`.

    Every entity owns one int slot, assigned in arrival order; slot
    ``s`` is row ``s % shard_capacity`` of shard ``s // shard_capacity``.
    The id→slot dict, the slot-ordered id list and a float64 array of
    last-event times stay in RAM (a few dozen bytes per entity).
    ``directory`` says where the state rows live:

    - ``None`` (the default): one contiguous in-RAM block per buffer,
      grown by doubling, so a batch access is one fancy index.  Disk is
      touched only when :meth:`snapshot` encodes the shards through the
      codec.
    - a path: shards live in ``.npy`` files under ``directory``.  A read
      or write promotes the owning shard into an LRU of at most
      ``cache_shards`` decoded shards; evicting a dirty shard encodes it
      through the codec and writes it back.  Batch calls group their
      slots by shard with one stable argsort and touch each shard once.
      :meth:`flush` writes back every dirty hot shard and the manifest,
      after which the directory is a complete state bundle that a fresh
      backend reopens in place (construct with the same ``directory``
      and attach).  Resident state memory is bounded by ``cache_shards *
      shard_capacity`` rows regardless of entity count.

    :meth:`get` and :meth:`gather` return copies in both modes, so a
    later write never changes a state that was already read.
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
        like GRU).  Attaching starts from empty state; on disk, a
        directory that already holds a state bundle is reopened as the
        live state.
        """
        if kind not in ("gru", "lstm", "transformer"):
            raise ValueError(
                "kind must be 'gru', 'lstm' or 'transformer' (got %r)"
                % kind)
        self.dim = int(dim)
        self.kind = kind
        self.dtype = np.dtype(dtype)
        self.codec = resolve_codec(codec)
        self.clear()
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
        """Adopt an existing state bundle in ``directory`` as live state.

        The bundle's shards become the slot layout, so every shard but
        the last must be full at the recorded shard capacity (which this
        backend adopts); any other layout loads through :meth:`restore`.
        """
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
        capacity = int(manifest.get("shard_capacity", self.shard_capacity))
        shards = int(manifest.get("shards", 0))
        ids, last_times = [], [self._last]
        for shard in range(shards):
            meta = load_arrays(_shard_files(self.directory, shard)[2])
            rows = len(meta["entity_ids"])
            if rows > capacity or (rows < capacity and shard < shards - 1):
                raise ValueError(
                    "state directory %r is not a live-backend layout (shard "
                    "%d holds %d rows at shard capacity %d): restore() it "
                    "into a backend instead" % (self.directory, shard, rows,
                                                capacity))
            ids.extend(meta["entity_ids"].tolist())
            last_times.append(meta["last_times"])
        self.shard_capacity = capacity
        self._ids = ids
        self._slot = dict(zip(ids, range(len(ids))))
        self._last = np.concatenate(last_times)

    # -- slots and shards --------------------------------------------------
    def _num_shards(self):
        """Shards spanned by the assigned slots."""
        return -(-len(self._ids) // self.shard_capacity)

    def _grow(self, slots):
        """Make room for ``slots`` slots; the slot arrays double as they fill."""
        capacity = len(self._last)
        if slots <= capacity:
            return
        capacity = max(slots, 2 * capacity)
        self._last = _grown(self._last, capacity)
        if self.directory is None:
            self._hidden = _grown(self._hidden, capacity)
            if self._cell is not None:
                self._cell = _grown(self._cell, capacity)

    def _reserve(self, entity_id):
        """Assign the next slot to a new entity (no data write)."""
        slot = len(self._ids)
        self._grow(slot + 1)
        self._ids.append(entity_id)
        self._slot[entity_id] = slot
        return slot

    def _hot_shard(self, shard, fresh=False):
        """Disk mode: the hot buffers of ``shard``, now the LRU's newest.

        A cold shard decodes from its files; a ``fresh`` one (its first
        slot was just assigned) starts zeroed and dirty.  Nothing is
        evicted here: callers use the shard, then :meth:`_trim`.
        """
        hot = self._hot.get(shard)
        if hot is not None:
            self._hot.move_to_end(shard)
            return hot
        hidden = np.zeros((self.shard_capacity, self.dim), dtype=self.dtype)
        cell = (np.zeros((self.shard_capacity, self.dim), dtype=self.dtype)
                if self.is_lstm else None)
        hot = _HotShard(hidden, cell, dirty=fresh)
        if not fresh:
            _, stored, stored_cell, _ = read_state_shard(
                self.directory, shard, self.codec, self.dim, self.dtype,
                with_cell=self.is_lstm,
            )
            hidden[:len(stored)] = stored
            if cell is not None:
                cell[:len(stored_cell)] = stored_cell
            self.shard_loads += 1
        self._hot[shard] = hot
        return hot

    def _trim(self):
        """Evict LRU shards past ``cache_shards``, writing dirty ones back.

        A victim leaves the LRU only after its write-back succeeded: when
        the write raises, the shard stays hot and dirty and the error
        reaches the caller.
        """
        while len(self._hot) > self.cache_shards:
            shard, hot = next(iter(self._hot.items()))
            if hot.dirty:
                self._write_shard(self.directory, shard, hot.hidden, hot.cell)
                hot.dirty = False
            del self._hot[shard]
            self.evictions += 1

    def _hot_runs(self, ordered, fresh=None):
        """Disk mode: walk an ascending slot array one shard at a time.

        Yields ``(hot, span, rows)`` per shard: its hot buffers, the slice
        of ``ordered`` it holds and those slots' rows in it.  Shards from
        index ``fresh`` on start zeroed.  The LRU is trimmed after the
        caller used each shard; a write-back that fails with ``OSError``
        is raised once every shard was visited, so a failing disk never
        leaves a batch half applied.
        """
        if not len(ordered):
            return
        shards = ordered // self.shard_capacity
        cuts = (shards[1:] != shards[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(ordered)]
        failure = None
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shard = int(shards[start])
            hot = self._hot_shard(shard, fresh is not None and shard >= fresh)
            yield (hot, slice(start, stop),
                   ordered[start:stop] - shard * self.shard_capacity)
            try:
                self._trim()
            except OSError as error:  # the victim stays hot and dirty
                failure = failure or error
        if failure is not None:
            raise failure

    def _write_shard(self, directory, shard, hidden, cell):
        """Encode and persist one shard under ``directory``.

        ``hidden`` / ``cell`` are ``(rows, H)`` blocks whose leading rows
        are the shard's used rows (``cell`` None unless LSTM).
        """
        start = shard * self.shard_capacity
        stop = min(start + self.shard_capacity, len(self._ids))
        rows = stop - start
        write_state_shard(
            directory, shard, self._ids[start:stop], hidden[:rows],
            None if cell is None else cell[:rows], self._last[start:stop],
            self.codec,
        )

    def _write_manifest(self, directory):
        """The bundle manifest describing every live shard."""
        write_state_manifest(directory, self.kind, self.dim, self.codec,
                             self._num_shards(), len(self),
                             shard_capacity=self.shard_capacity)

    # -- per-entity access -------------------------------------------------
    def get(self, entity_id):
        """``(hidden, cell, last_time)`` as fresh copies, or ``None``."""
        slot = self._slot.get(entity_id)
        if slot is None:
            return None
        if self.directory is None:
            row, hidden, cell = slot, self._hidden, self._cell
        else:
            shard, row = divmod(slot, self.shard_capacity)
            hot = self._hot_shard(shard)
            self._trim()
            hidden, cell = hot.hidden, hot.cell
        return (hidden[row].copy(), None if cell is None else cell[row].copy(),
                float(self._last[slot]))

    def put(self, entity_id, hidden, cell, last_time):
        """Write one entity's state into its (possibly new) slot.

        ``hidden`` (and ``cell`` for LSTM states; ignored otherwise) are
        ``(H,)`` buffers; the row assignment casts them to the backend's
        dtype and copies them, so the caller keeps ownership of its
        buffers.
        """
        last_time = float(last_time)
        slot = self._slot.get(entity_id)
        fresh = slot is None
        if fresh:
            slot = self._reserve(entity_id)
        self._last[slot] = last_time
        if self.directory is None:
            self._hidden[slot] = hidden
            if self._cell is not None:
                self._cell[slot] = cell
            return
        shard, row = divmod(slot, self.shard_capacity)
        hot = self._hot_shard(shard, fresh=fresh and row == 0)
        hot.hidden[row] = hidden
        if hot.cell is not None:
            hot.cell[row] = cell
        hot.dirty = True
        self._trim()

    # -- batch access --------------------------------------------------------
    def gather(self, entity_ids):
        """Read many entities' states: ``(hidden, cell, last_times, known)``.

        ``hidden`` (and ``cell`` for LSTM, else None) are fresh ``(N, H)``
        arrays in the backend dtype, ``last_times`` a ``(N,)`` float64
        array and ``known`` a ``(N,)`` bool mask of the ids with stored
        state, all row-aligned with ``entity_ids``.  Rows of unknown ids
        are zero with a NaN time.  Equal to one :meth:`get` per id.
        """
        lookup = self._slot.get
        slots = np.array([lookup(e, -1) for e in entity_ids], dtype=np.int64)
        known = slots >= 0
        if self.directory is None and known.all():
            return (self._hidden[slots],
                    None if self._cell is None else self._cell[slots],
                    self._last[slots], known)
        at = known.nonzero()[0]
        slots = slots[at]
        hidden = np.zeros((len(known), self.dim), dtype=self.dtype)
        cell = np.zeros_like(hidden) if self.is_lstm else None
        last_times = np.full(len(known), np.nan, dtype=np.float64)
        last_times[at] = self._last[slots]
        if self.directory is None:
            hidden[at] = self._hidden[slots]
            if cell is not None:
                cell[at] = self._cell[slots]
            return hidden, cell, last_times, known
        order = np.argsort(slots, kind="stable")
        for hot, span, rows in self._hot_runs(slots[order]):
            target = at[order[span]]
            hidden[target] = hot.hidden[rows]
            if cell is not None:
                cell[target] = hot.cell[rows]
        return hidden, cell, last_times, known

    def scatter(self, entity_ids, hidden, cell, last_times):
        """Write many entities' states, as sequential :meth:`put` calls would.

        ``hidden`` (and ``cell`` for LSTM states; ignored otherwise) are
        ``(N, H)`` arrays and ``last_times`` an ``(N,)`` array of
        timestamps, row-aligned with ``entity_ids``; rows are cast to the
        backend dtype and copied.  New ids take the next slots in input
        order; a repeated id keeps the slot of its first occurrence and
        the values of its last.
        """
        if self.is_lstm and cell is None:
            raise ValueError("LSTM states require a cell buffer")
        count = len(self._ids)
        index = self._slot
        slots = [index.setdefault(e, len(index)) for e in entity_ids]
        if len(index) > count:
            new = [e for e, slot in zip(entity_ids, slots) if slot >= count]
            if len(new) > len(index) - count:  # a new id repeats
                new = list(dict.fromkeys(new))
            self._ids.extend(new)
            self._grow(len(index))
        slots = np.array(slots, dtype=np.int64)
        # Ascending slots, each once: the stable sort puts an id's last
        # occurrence at the end of its run.
        order = np.argsort(slots, kind="stable")
        ordered = slots[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = ordered[1:] != ordered[:-1]
        order, ordered = order[last], ordered[last]
        self._last[ordered] = np.asarray(last_times, dtype=np.float64)[order]
        if self.directory is None:
            self._hidden[ordered] = hidden[order]
            if self._cell is not None:
                self._cell[ordered] = cell[order]
            return
        fresh = -(-count // self.shard_capacity)
        for hot, span, rows in self._hot_runs(ordered, fresh):
            hot.hidden[rows] = hidden[order[span]]
            if hot.cell is not None:
                hot.cell[rows] = cell[order[span]]
            hot.dirty = True

    def entity_ids(self):
        """All stored entity ids, in slot (arrival) order."""
        return list(self._ids)

    def last_time(self, entity_id):
        """Last folded-event timestamp (RAM index; no shard touch)."""
        slot = self._slot.get(entity_id)
        return None if slot is None else float(self._last[slot])

    def clear(self):
        """Forget all live state (stale disk files are overwritten lazily)."""
        self._slot = {}            # entity id -> slot, in arrival order
        self._ids = []             # slot -> entity id
        self._last = np.zeros(0, dtype=np.float64)  # slot -> last time
        self._hot = OrderedDict()  # disk: shard -> _HotShard, LRU order
        self._hidden = self._cell = None  # RAM: slot -> row, grown by doubling
        if self.directory is None and self.dim is not None:
            self._hidden = np.zeros((0, self.dim), dtype=self.dtype)
            if self.is_lstm:
                self._cell = np.zeros((0, self.dim), dtype=self.dtype)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, entity_id):
        return entity_id in self._slot

    # -- persistence --------------------------------------------------------
    def flush(self):
        """Write back every dirty hot shard + the bundle manifest.

        A no-op in RAM mode, which touches disk only in :meth:`snapshot`.
        """
        if self.directory is None:
            return
        for shard, hot in self._hot.items():
            if hot.dirty:
                self._write_shard(self.directory, shard, hot.hidden, hot.cell)
                hot.dirty = False
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
            for shard in range(self._num_shards()):
                start = shard * self.shard_capacity
                self._write_shard(
                    target, shard, self._hidden[start:],
                    None if self._cell is None else self._cell[start:])
        else:
            self.flush()
            if target == os.path.abspath(self.directory):
                return
            os.makedirs(target, exist_ok=True)
            for shard in range(self._num_shards()):
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
            self.scatter(*read_state_shard(
                directory, index, codec, self.dim, self.dtype,
                with_cell=self.is_lstm, mmap=False,
            ))
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
            "shards": self._num_shards(),
            "hot_shards": (self._num_shards() if self.directory is None
                           else len(self._hot)),
            "shard_capacity": self.shard_capacity,
            "cache_shards": self.cache_shards,
            "evictions": self.evictions,
            "shard_loads": self.shard_loads,
        }

