"""Versioned artifact files: npz tensors + an embedded JSON manifest.

An *artifact* is the unit of persistence between pipeline stages
(train → impute → estimate → serve): a set of named numpy arrays plus
a JSON-able ``config`` and ``metrics`` dict, written as one
``.npz`` file.  The manifest — stored inside the npz under the
reserved ``__manifest__`` entry — records the schema version, the
artifact ``kind`` (e.g. ``"bisim.trainer"``), per-array dtype/shape
specs, and a SHA-256 content hash over the arrays and config.

:func:`load_artifact` refuses anything suspicious with a typed
:class:`~repro.exceptions.ArtifactError`: unreadable files, unknown
schema versions, kind mismatches, arrays whose dtype/shape drifted
from the manifest, and content-hash mismatches (bit rot or tampering).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ArtifactError

PathLike = Union[str, Path]

#: Bump when the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

#: npz entry holding the JSON manifest; array names must not use it.
_MANIFEST_KEY = "__manifest__"


@dataclass
class Artifact:
    """One versioned bundle of arrays + config + metrics.

    Attributes
    ----------
    kind:
        Dotted type tag (``"bisim.trainer"``, ``"serving.shard"``, …)
        consumers assert on before interpreting the payload.
    arrays:
        Named numpy arrays (the tensors).
    config:
        JSON-able construction parameters needed to rebuild the object.
    metrics:
        JSON-able quality/provenance numbers (losses, timings, …);
        informational only, not hashed.
    """

    kind: str
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)


def _canonical_config(config: Dict[str, Any]) -> str:
    try:
        return json.dumps(config, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(
            f"artifact config is not JSON-serialisable: {exc}"
        ) from exc


def content_hash(
    arrays: Dict[str, np.ndarray], config: Dict[str, Any]
) -> str:
    """SHA-256 over the arrays (name, dtype, shape, bytes) and config."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    h.update(_canonical_config(config).encode())
    return h.hexdigest()


def _validate_arrays(arrays: Dict[str, np.ndarray]) -> None:
    for name, a in arrays.items():
        if not name or name == _MANIFEST_KEY or name.startswith("__"):
            raise ArtifactError(f"illegal artifact array name {name!r}")
        if a.dtype == object:
            # Object arrays need pickle, which load_artifact refuses
            # (a tampered pickle must never execute before validation).
            raise ArtifactError(
                f"artifact array {name!r} has object dtype; only "
                "plain numeric/string tensors are supported"
            )


def save_artifact(
    artifact: Artifact, path: PathLike, *, compress: bool = True
) -> Path:
    """Write an artifact to ``path`` (.npz); returns the path.

    ``compress=False`` stores the arrays raw (``ZIP_STORED``), which
    lets :func:`load_artifact` hand big tensors back as read-only
    memory maps (``mmap_arrays``) instead of resident copies — the
    right trade for serving shards, whose precomputed radio-map tensor
    is large, incompressible noise-like data read straight from the
    page cache.
    """
    path = Path(path)
    if not artifact.kind:
        raise ArtifactError("artifact kind must be non-empty")
    arrays = {
        name: np.asarray(a) for name, a in artifact.arrays.items()
    }
    _validate_arrays(arrays)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": artifact.kind,
        "config": artifact.config,
        "metrics": artifact.metrics,
        "arrays": {
            name: {"dtype": str(a.dtype), "shape": list(a.shape)}
            for name, a in arrays.items()
        },
        "content_hash": content_hash(arrays, artifact.config),
    }
    payload = json.dumps(manifest)  # fails early on bad metrics
    path.parent.mkdir(parents=True, exist_ok=True)
    # The manifest is stored as a plain unicode array so loading never
    # needs allow_pickle — a tampered file must not get to run pickle
    # payloads before validation.  Write-to-temp + rename keeps an
    # interrupted save from leaving a truncated artifact at the final
    # path.
    # The temp name ends in .npz so np.savez cannot append its own
    # extension; the rename then lands on exactly the requested path.
    tmp = path.with_name(path.name + ".tmp.npz")
    writer = np.savez_compressed if compress else np.savez
    try:
        writer(
            tmp,
            **{_MANIFEST_KEY: np.array([payload])},
            **arrays,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


#: Where one mappable npz member's payload lives in the file:
#: ``(dtype string, shape tuple, byte offset of the array data)``.
MemberSpec = Tuple[str, Tuple[int, ...], int]


def _stored_member_spec(
    f, info: zipfile.ZipInfo
) -> Optional[MemberSpec]:
    """Parse one ``ZIP_STORED`` member's npy header → spec, or None.

    Only uncompressed members in C order qualify — the npy payload
    then sits contiguously in the file, so the array data can be
    mapped at ``local header + npy header`` without touching the rest
    of the archive.
    """
    f.seek(info.header_offset)
    local = f.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        return None
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    f.seek(info.header_offset + 30 + name_len + extra_len)
    version = np.lib.format.read_magic(f)
    if version == (1, 0):
        header = np.lib.format.read_array_header_1_0(f)
    elif version == (2, 0):
        header = np.lib.format.read_array_header_2_0(f)
    else:
        return None
    shape, fortran, dtype = header
    if fortran or dtype.hasobject:
        return None
    return (
        str(dtype),
        tuple(int(s) for s in shape),
        int(f.tell()),
    )


def mappable_members(path: PathLike) -> Dict[str, MemberSpec]:
    """Specs of every array member that can be memory-mapped in place.

    The specs are the cheap-reload currency of the shard registry: a
    caller that has already validated an artifact once (content hash
    and all) can stash these and later re-attach the arrays with
    :func:`attach_member` at memmap cost — no zip walk, no JSON, no
    re-hash.  Compressed, Fortran-order or object members are simply
    absent from the result; an unreadable file yields ``{}``.
    """
    path = Path(path)
    specs: Dict[str, MemberSpec] = {}
    try:
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        with open(path, "rb") as f:
            for info in infos:
                name = info.filename
                if (
                    not name.endswith(".npy")
                    or info.compress_type != zipfile.ZIP_STORED
                ):
                    continue
                member = name[: -len(".npy")]
                if member == _MANIFEST_KEY:
                    continue
                spec = _stored_member_spec(f, info)
                if spec is not None:
                    specs[member] = spec
    except (OSError, ValueError, zipfile.BadZipFile):
        return {}
    return specs


def attach_member(path: PathLike, spec: MemberSpec) -> np.ndarray:
    """Read-only memory map of one member from its cached spec.

    The inverse of a :func:`mappable_members` lookup.  No validation
    happens here — the caller owns checking that the file has not
    changed since the spec was taken (mtime/size), which is what makes
    this the fast path.
    """
    dtype, shape, offset = spec
    return np.memmap(
        Path(path),
        dtype=np.dtype(dtype),
        mode="r",
        offset=int(offset),
        shape=tuple(shape),
    )


def attach_members(
    path: PathLike, specs: Dict[str, MemberSpec]
) -> Dict[str, np.ndarray]:
    """Read-only maps of many members through **one** file mapping.

    :func:`attach_member` costs an open + mmap syscall pair per
    array; a shard re-attach touches several arrays per venue at
    registry-miss frequency, so this variant maps the file once and
    carves every member out of the shared buffer with zero-copy
    views.  The views keep the mapping alive; same no-validation
    contract as :func:`attach_member`.
    """
    with open(Path(path), "rb") as f:
        buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    out: Dict[str, np.ndarray] = {}
    for name, (dtype_str, shape, offset) in specs.items():
        dt = np.dtype(dtype_str)
        count = 1
        for s in shape:
            count *= int(s)
        out[name] = np.frombuffer(
            buf, dtype=dt, count=count, offset=int(offset)
        ).reshape(shape)
    return out


def backed_by_memmap(a: np.ndarray) -> bool:
    """Whether an array's storage is file-backed (walks views).

    Recognises both :class:`numpy.memmap` and arrays carved out of a
    raw :class:`mmap.mmap` buffer (:func:`attach_members`).
    """
    node = a
    while isinstance(node, np.ndarray):
        if isinstance(node, np.memmap):
            return True
        # numpy 2 reaches a raw buffer through a memoryview.
        if isinstance(getattr(node.base, "obj", node.base), mmap.mmap):
            return True
        node = node.base
    return False


def _memmap_member(path: Path, name: str) -> Optional[np.ndarray]:
    """Read-only memory map of one uncompressed npz member, or None."""
    try:
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(name + ".npy")
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        with open(path, "rb") as f:
            spec = _stored_member_spec(f, info)
        return None if spec is None else attach_member(path, spec)
    except (OSError, KeyError, ValueError):
        return None


def read_manifest(path: PathLike) -> Dict[str, Any]:
    """Read just the embedded JSON manifest of an artifact file.

    Cheap lineage/inventory probe: only the manifest entry is
    decompressed, so chained deltas can verify parent content hashes
    without loading (or hash-verifying) the tensor payloads.  Full
    validation still happens in :func:`load_artifact`.
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no such artifact: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            if _MANIFEST_KEY not in data.files:
                raise ArtifactError(
                    f"{path} is not an artifact (no manifest)"
                )
            return json.loads(str(data[_MANIFEST_KEY][0]))
    except ArtifactError:
        raise
    except Exception as exc:  # zip/json corruption
        raise ArtifactError(
            f"unreadable artifact {path}: {exc}"
        ) from exc


def load_artifact(
    path: PathLike,
    expected_kind: Optional[str] = None,
    *,
    mmap_arrays: Sequence[str] = (),
) -> Artifact:
    """Load and validate an artifact written by :func:`save_artifact`.

    Arrays named in ``mmap_arrays`` are returned as read-only memory
    maps when the file stores them uncompressed (best effort: a
    compressed or missing member silently falls back to the in-memory
    copy).  The content hash is verified against the file exactly
    once, here — the maps alias the verified bytes.

    Raises
    ------
    ArtifactError
        If the file is missing or unreadable, the schema version or
        ``kind`` does not match, an array's dtype/shape drifted from
        the manifest, or the content hash does not verify.
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no such artifact: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            if _MANIFEST_KEY not in data.files:
                raise ArtifactError(
                    f"{path} is not an artifact (no manifest)"
                )
            manifest = json.loads(str(data[_MANIFEST_KEY][0]))
            arrays = {
                name: data[name]
                for name in data.files
                if name != _MANIFEST_KEY
            }
    except ArtifactError:
        raise
    except Exception as exc:  # zip/json/pickle corruption
        raise ArtifactError(
            f"unreadable artifact {path}: {exc}"
        ) from exc

    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version!r} in {path} "
            f"(this library reads version {SCHEMA_VERSION})"
        )
    kind = manifest.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise ArtifactError(
            f"artifact kind mismatch in {path}: "
            f"expected {expected_kind!r}, found {kind!r}"
        )

    specs = manifest.get("arrays", {})
    if set(specs) != set(arrays):
        missing = sorted(set(specs) - set(arrays))
        extra = sorted(set(arrays) - set(specs))
        raise ArtifactError(
            f"artifact {path} array set drifted from manifest; "
            f"missing={missing}, unexpected={extra}"
        )
    for name, spec in specs.items():
        a = arrays[name]
        if str(a.dtype) != spec["dtype"] or list(a.shape) != spec["shape"]:
            raise ArtifactError(
                f"artifact {path} array {name!r} does not match its "
                f"manifest spec: dtype {a.dtype}/{spec['dtype']}, "
                f"shape {list(a.shape)}/{spec['shape']}"
            )

    config = manifest.get("config", {})
    digest = content_hash(arrays, config)
    if digest != manifest.get("content_hash"):
        raise ArtifactError(
            f"artifact {path} failed content-hash verification "
            "(corrupted or tampered)"
        )
    for name in mmap_arrays:
        if name not in arrays:
            continue
        mapped = _memmap_member(path, name)
        if mapped is not None and (
            mapped.dtype == arrays[name].dtype
            and mapped.shape == arrays[name].shape
        ):
            arrays[name] = mapped
    return Artifact(
        kind=kind,
        arrays=arrays,
        config=config,
        metrics=manifest.get("metrics", {}),
    )


def split_prefixed(
    arrays: Dict[str, np.ndarray], prefix: str
) -> Dict[str, np.ndarray]:
    """Sub-dict of ``arrays`` under ``prefix`` with the prefix stripped.

    Composite artifacts (e.g. a serving shard) namespace their members'
    arrays as ``"<member>.<name>"``; this is the inverse of
    :func:`merge_prefixed`.
    """
    return {
        name[len(prefix) :]: a
        for name, a in arrays.items()
        if name.startswith(prefix)
    }


def merge_prefixed(
    out: Dict[str, np.ndarray],
    prefix: str,
    arrays: Dict[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Merge ``arrays`` into ``out`` under ``prefix`` (returns ``out``)."""
    for name, a in arrays.items():
        key = prefix + name
        if key in out:
            raise ArtifactError(f"duplicate artifact array name {key!r}")
        out[key] = a
    return out


def pack_ragged(
    groups: Sequence[Dict[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Flatten a list of same-keyed array dicts into fixed tensors.

    Every group's arrays are concatenated along axis 0 and the per-
    group first-axis sizes recorded under ``"lengths"`` — the artifact
    representation for variable-length collections (context chunks,
    forest trees).  Inverse of :func:`unpack_ragged`.
    """
    if not groups:
        raise ArtifactError("nothing to pack")
    keys = sorted(groups[0])
    lengths = []
    for g in groups:
        if sorted(g) != keys:
            raise ArtifactError("ragged groups must share key sets")
        sizes = {np.asarray(a).shape[0] for a in g.values()}
        if len(sizes) != 1:
            raise ArtifactError(
                "arrays within a ragged group must share axis-0 size"
            )
        lengths.append(sizes.pop())
    out: Dict[str, np.ndarray] = {
        "lengths": np.asarray(lengths, dtype=np.int64)
    }
    for k in keys:
        if k == "lengths":
            raise ArtifactError('"lengths" is reserved in ragged packs')
        out[k] = np.concatenate([np.asarray(g[k]) for g in groups])
    return out


def unpack_ragged(
    arrays: Dict[str, np.ndarray]
) -> List[Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_ragged`; validates the recorded lengths."""
    if "lengths" not in arrays:
        raise ArtifactError("ragged pack is missing its lengths array")
    lengths = np.asarray(arrays["lengths"], dtype=int)
    total = int(lengths.sum())
    bounds = np.cumsum(lengths)[:-1]
    parts: Dict[str, List[np.ndarray]] = {}
    for name, a in arrays.items():
        if name == "lengths":
            continue
        if np.asarray(a).shape[0] != total:
            raise ArtifactError(
                f"ragged array {name!r} does not sum to the recorded "
                "lengths"
            )
        parts[name] = np.split(a, bounds)
    return [
        {name: parts[name][i] for name in parts}
        for i in range(lengths.shape[0])
    ]
