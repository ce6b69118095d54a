"""Zero-copy shared-memory publication of a deploy artifact.

A serving fleet runs N worker *processes* against one model image.  Pickling
the artifact into every worker would cost N copies of the class memory and
encoder parameters and make fleet-wide hot-swap an N-way re-serialization;
instead the supervisor publishes the fitted
:class:`~repro.deploy.quantized.QuantizedHDCModel` once into a
``multiprocessing.shared_memory`` segment and every worker maps it
zero-copy (``np.frombuffer`` views over the segment — for a bit-packed
artifact that is the flat ``uint64`` word image itself).

Segment layout (all offsets 8-aligned)::

    [u64 little-endian header length H]
    [H bytes of JSON header]
    [padding to 8]
    [arrays region: concatenated ndarray bodies]

The JSON header carries the model scalars (bits / packed / dim / encoder
kind + scalar parameters — the same field set
:mod:`repro.persistence` archives, reusing its encoder restore helper), an
array table of ``(name, dtype, shape, offset)`` entries, a monotonically
increasing **epoch** (the fleet hot-swap version), and a CRC32 over the
arrays region.  The CRC turns silent artifact corruption (the failure mode
:meth:`QuantizedHDCModel.inject_faults` models, or a stray writer) into a
detectable worker-side event: workers re-verify periodically and exit with
a distinct status so the supervisor can republish from its pristine copy.
"""

from __future__ import annotations

import json
import sys
import zlib
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.deploy.quantized import QuantizedHDCModel
from repro.noise.quantization import QuantizedTensor

#: Exit status a worker uses when the mapped artifact fails CRC
#: verification (distinct from crash codes so the supervisor can repair
#: the segment before restarting).
EXIT_CORRUPT = 64

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _encoder_meta_and_arrays(
    encoder: Any,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Split the persistence encoder payload into JSON scalars + arrays."""
    from repro.persistence import _encoder_payload

    payload = _encoder_payload(encoder)
    meta: Dict[str, Any] = {"kind": payload.pop("encoder_kind")}
    arrays: Dict[str, np.ndarray] = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif isinstance(value, np.generic):
            meta[key] = value.item()
        else:
            meta[key] = value
    meta["dtype"] = np.dtype(
        getattr(encoder, "dtype", np.float64)
    ).str
    return meta, arrays


class SharedArtifact:
    """One published model image in a shared-memory segment.

    Build with :meth:`publish` (supervisor side, owns the segment and the
    pristine byte copy used for corruption repair) or :meth:`attach`
    (worker side, maps an existing segment read-mostly).  The worker calls
    :meth:`rebuild_model` for a :class:`QuantizedHDCModel` whose class
    memory and encoder parameters are ``np.frombuffer`` views straight
    into the segment — no copy, so N workers share one physical image.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        header: Dict[str, Any],
        *,
        owner: bool,
        pristine: Optional[bytes] = None,
    ) -> None:
        self._shm = shm
        self._header = header
        self._owner = owner
        self._pristine = pristine
        self._unlinked = False

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return str(self._shm.name)

    @property
    def epoch(self) -> int:
        return int(self._header["epoch"])

    @property
    def nbytes(self) -> int:
        return int(self._header["total_bytes"])

    @property
    def header(self) -> Dict[str, Any]:
        return dict(self._header)

    # ------------------------------------------------------------ publishing

    @classmethod
    def publish(
        cls,
        artifact: QuantizedHDCModel,
        *,
        epoch: int,
        name: Optional[str] = None,
    ) -> "SharedArtifact":
        """Serialize ``artifact`` into a new shared-memory segment."""
        if not isinstance(artifact, QuantizedHDCModel):
            raise TypeError(
                f"SharedArtifact.publish needs a QuantizedHDCModel, got "
                f"{type(artifact).__name__}"
            )
        arrays: Dict[str, np.ndarray] = {}
        enc_meta, enc_arrays = _encoder_meta_and_arrays(artifact.encoder)
        arrays.update(enc_arrays)
        arrays["classes"] = np.ascontiguousarray(artifact.classes_)
        model_meta: Dict[str, Any] = {
            "bits": int(artifact.bits),
            "packed": bool(artifact.packed),
            "dim": int(artifact._dim),
            "n_cells": int(artifact._n_cells),
            "n_features": int(artifact.n_features_),
            "base_itemsize": int(artifact._base_itemsize),
            "encoder": enc_meta,
        }
        if artifact.packed:
            words = artifact.packed_words
            assert words is not None
            arrays["words"] = np.ascontiguousarray(words)
            model_meta["packed_scale"] = float(artifact._packed_scale)
        else:
            quantized = artifact._quantized
            assert quantized is not None
            arrays["codes"] = np.ascontiguousarray(quantized.codes)
            model_meta["quant_scale"] = float(quantized.scale)
            model_meta["quant_shape"] = [int(d) for d in quantized.shape]

        table: List[Dict[str, Any]] = []
        offset = 0
        blobs: List[bytes] = []
        for array_name, array in arrays.items():
            body = array.tobytes()
            table.append(
                {
                    "name": array_name,
                    "dtype": array.dtype.str,
                    "shape": [int(d) for d in array.shape],
                    "offset": offset,
                    "nbytes": len(body),
                }
            )
            blobs.append(body)
            offset = _align(offset + len(body))
        region = bytearray(offset)
        for entry, body in zip(table, blobs):
            start = int(entry["offset"])
            region[start:start + len(body)] = body
        region_bytes = bytes(region)

        header: Dict[str, Any] = {
            "format": "repro-fleet-artifact-1",
            "epoch": int(epoch),
            "model": model_meta,
            "arrays": table,
            "crc32": zlib.crc32(region_bytes) & 0xFFFFFFFF,
        }
        # The header length feeds the arrays-region offset, which the
        # header itself records — iterate once to a fixed point (adding
        # the offset fields can only grow the JSON, never shrink it).
        arrays_start = 0
        for _ in range(4):
            header["arrays_start"] = arrays_start
            header["total_bytes"] = arrays_start + len(region_bytes)
            encoded = json.dumps(header, sort_keys=True).encode()
            need = _align(8 + len(encoded))
            if need == arrays_start:
                break
            arrays_start = need
        encoded = json.dumps(header, sort_keys=True).encode()

        total = int(header["total_bytes"])
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        shm.buf[0:8] = len(encoded).to_bytes(8, "little")
        shm.buf[8:8 + len(encoded)] = encoded
        start = int(header["arrays_start"])
        shm.buf[start:start + len(region_bytes)] = region_bytes
        return cls(shm, header, owner=True, pristine=region_bytes)

    @classmethod
    def attach(cls, name: str) -> "SharedArtifact":
        """Map an existing segment (worker side).

        The mapping stays out of multiprocessing's resource tracker: the
        supervisor owns the segment's lifetime, and forked workers share
        the supervisor's tracker.  A worker's register/unregister
        messages would interleave with other processes' (the tracker
        then fails a ``remove`` with a ``KeyError`` traceback), and a
        stale registration left by a SIGKILLed worker would have the
        tracker unlink the live segment.  Below Python 3.13 the
        constructor always registers, so the register call is switched
        off for the duration of the attach; that is safe where no other
        thread creates shared memory meanwhile, as in a forked worker.
        """
        if sys.version_info >= (3, 13):
            shm = shared_memory.SharedMemory(name=name, track=False)
        else:
            register = resource_tracker.register
            resource_tracker.register = lambda *_: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = register
        length = int.from_bytes(bytes(shm.buf[0:8]), "little")
        header = json.loads(bytes(shm.buf[8:8 + length]).decode())
        return cls(shm, header, owner=False)

    # -------------------------------------------------------------- integrity

    def _region(self) -> memoryview:
        start = int(self._header["arrays_start"])
        stop = int(self._header["total_bytes"])
        return self._shm.buf[start:stop]

    def verify(self) -> bool:
        """Recompute the arrays-region CRC32 against the published value."""
        region = self._region()
        try:
            return (zlib.crc32(region) & 0xFFFFFFFF) == int(
                self._header["crc32"]
            )
        finally:
            region.release()

    def restore_pristine(self) -> None:
        """Rewrite the arrays region from the publish-time byte copy.

        Supervisor-side corruption repair: after a worker exits with
        :data:`EXIT_CORRUPT`, the segment is restored in place so every
        worker (the restarted one and the survivors) maps clean data
        again without a new segment or an epoch flip.
        """
        if self._pristine is None:
            raise RuntimeError(
                "restore_pristine is only available on the publishing side"
            )
        region = self._region()
        try:
            region[:] = self._pristine
        finally:
            region.release()

    def array_view(self, name: str) -> np.ndarray:
        """A writable ndarray view of one published array (chaos/test use)."""
        for entry in self._header["arrays"]:
            if entry["name"] == name:
                dtype = np.dtype(str(entry["dtype"]))
                shape = tuple(int(d) for d in entry["shape"])
                start = int(self._header["arrays_start"]) + int(
                    entry["offset"]
                )
                count = int(np.prod(shape)) if shape else 1
                view = np.frombuffer(
                    self._shm.buf, dtype=dtype, count=count, offset=start
                )
                return view.reshape(shape)
        raise KeyError(f"no array {name!r} in segment {self.name}")

    # ------------------------------------------------------------ model build

    def rebuild_model(self) -> QuantizedHDCModel:
        """Reconstruct the artifact over zero-copy views of the segment.

        The returned model's class memory (packed words or quantized
        codes) and encoder parameter arrays alias the shared segment
        directly; only the tiny ``classes_`` label array is copied (it
        must outlive any future segment swap).  The model keeps a
        reference to this :class:`SharedArtifact` so the mapping cannot
        be closed out from under live views.
        """
        from repro.persistence import _restore_encoder

        meta = self._header["model"]
        enc_meta = dict(meta["encoder"])
        kind = str(enc_meta.pop("kind"))
        dtype = np.dtype(str(enc_meta.pop("dtype")))
        data: Dict[str, Any] = dict(enc_meta)
        for entry in self._header["arrays"]:
            entry_name = str(entry["name"])
            if entry_name.startswith("enc_"):
                data[entry_name] = self.array_view(entry_name)
        encoder = _restore_encoder(
            kind, data, int(meta["n_features"]), int(meta["dim"]), dtype
        )

        model = object.__new__(QuantizedHDCModel)
        model.classifier = None
        model.bits = int(meta["bits"])
        model.packed = bool(meta["packed"])
        model.refresh_count = 0
        model.encoder = encoder
        model.classes_ = np.array(self.array_view("classes"))
        model.n_features_ = int(meta["n_features"])
        model._base_itemsize = int(meta["base_itemsize"])
        model._n_cells = int(meta["n_cells"])
        model._dim = int(meta["dim"])
        if model.packed:
            model._quantized = None
            model._packed_scale = float(meta["packed_scale"])
            model._packed_words = self.array_view("words")
        else:
            shape = tuple(int(d) for d in meta["quant_shape"])
            model._quantized = QuantizedTensor(
                self.array_view("codes"),
                int(meta["bits"]),
                float(meta["quant_scale"]),
                shape,
            )
            model._packed_scale = 0.0
            model._packed_words = None
        # Keep the mapping alive for as long as the model's views are.
        model._shared_artifact = self  # type: ignore[attr-defined]
        return model

    # --------------------------------------------------------------- lifetime

    def close(self) -> bool:
        """Unmap the segment in this process; returns whether it is gone.

        A live view (a model rebuilt over the segment, or a chaos harness
        still holding ``array_view``) keeps the mapping and makes this
        return False; close again once the view is dropped, or let the
        mapping fall with the process."""
        try:
            self._shm.close()
        except BufferError:
            return False
        return True

    def unlink(self) -> None:
        """Destroy the segment (publisher side; idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedArtifact({self.name!r}, epoch={self.epoch}, "
            f"{self.nbytes} bytes)"
        )
