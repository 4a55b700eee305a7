"""Disk-resident cold store: memory-mapped main partitions (tiered storage).

The paper's hot/cold multi-partitioning (Section 5.4) routes aged tuples
into a cold group that is effectively read-only.  This module gives those
cold mains a second *storage tier*: the code vectors and MVCC stamp vectors
live in flat little-endian ``int64`` files accessed through ``np.memmap``,
and the dictionaries live in JSON files loaded lazily on first data access
and releasable under memory pressure.  Everything the planner and pruner
need — row counts, per-column dictionary min/max, null flags — stays
resident in the partition synopsis, so prune verdicts never touch disk.

Demotion (``demote_partition``) follows the checkpoint machinery's atomic
file protocol: the data files are written and fsynced first, then a
CRC-carrying ``manifest.json`` is published via tmp-file + ``os.replace``.
The manifest is the commit point — a crash before it leaves only ignorable
garbage (the resident main is still authoritative), a crash after it leaves
a complete, attachable cold partition.  Never a torn hybrid.

The in-memory swap preserves object identity: the same
:class:`~repro.storage.partition.Partition` and
:class:`~repro.storage.column.ColumnFragment` objects stay in place, only
their backing vectors and dictionaries are exchanged, and the owning
table's version is *not* bumped — demotion changes the physical layout,
never the data, so cached plans and delta memos (keyed on partition
identity) remain valid across it.

Recovery (``reattach_partition``) re-attaches cold files to a
checkpoint-restored partition only when every file's CRC matches the
restored content; stale files (e.g. from a pre-crash merge that was
re-run) are discarded and the partition stays resident.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..errors import StorageError
from .dictionary import MainDictionary, _build_decode_table

_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"


class MappedIntVector:
    """A read-only ``int64`` vector backed by a memory-mapped file.

    Duck-types the read side of :class:`~repro.storage.vector.IntVector`:
    ``view()`` returns the (lazily opened) memmap array, ``__getitem__``
    serves point reads, and ``release()`` drops the mapping so the OS can
    reclaim the page cache — the length stays known without any I/O.
    Writes raise: cold data is immutable; a partition that must stamp
    ``dts`` on a mapped vector first promotes it to a resident copy.
    """

    __slots__ = ("path", "_length", "_mmap")

    #: Tier marker checked via ``getattr`` so resident vectors (which use
    #: ``__slots__``) need no counterpart attribute.
    is_mapped_store = True

    def __init__(self, path, length: int):
        self.path = Path(path)
        self._length = int(length)
        self._mmap: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._length

    def view(self) -> np.ndarray:
        """The mapped ``int64`` array (opened on first access)."""
        if self._length == 0:
            return np.empty(0, dtype=np.int64)
        if self._mmap is None:
            self._mmap = np.memmap(
                self.path, dtype="<i8", mode="r", shape=(self._length,)
            )
        return self._mmap

    def __getitem__(self, index):
        if isinstance(index, slice):
            return np.asarray(self.view()[index]).copy()
        if index < 0:
            index += self._length
        if index < 0 or index >= self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")
        return int(self.view()[index])

    def __setitem__(self, index, value) -> None:
        raise StorageError(
            f"mapped vector {self.path.name!r} is read-only; promote to a "
            "resident copy before writing"
        )

    def __iter__(self):
        return iter(self.view().tolist())

    def to_numpy(self) -> np.ndarray:
        """A resident copy of the mapped elements."""
        return np.asarray(self.view(), dtype=np.int64).copy()

    @property
    def is_loaded(self) -> bool:
        """True while a memmap handle is open."""
        return self._mmap is not None

    def release(self) -> None:
        """Drop the memmap handle (reopened transparently on next access)."""
        self._mmap = None

    def nbytes(self) -> int:
        """Bytes of the backing file (8 per element)."""
        return self._length * 8

    def __repr__(self) -> str:
        state = "loaded" if self.is_loaded else "released"
        return f"MappedIntVector({self.path.name!r}, size={self._length}, {state})"


class LazyMainDictionary:
    """A :class:`MainDictionary` proxy whose values live in a JSON file.

    The synopsis facts pruning needs — size, min, max — are carried as
    metadata and answered without I/O; any *data* access (decode, lookup,
    values) loads the real sorted dictionary on first use.  ``release()``
    drops the loaded values again, which is what lets the governor shed
    mapped cold columns first under memory pressure.
    """

    __slots__ = ("path", "_size", "_min", "_max", "_loaded")

    is_lazy = True

    def __init__(self, path, size: int, min_value, max_value):
        self.path = Path(path)
        self._size = int(size)
        self._min = min_value
        self._max = max_value
        self._loaded: Optional[MainDictionary] = None

    # -- metadata (no I/O) ---------------------------------------------
    def __len__(self) -> int:
        return self._size

    def min_value(self):
        """Smallest stored value (from metadata, never from disk)."""
        return self._min

    def max_value(self):
        """Largest stored value (from metadata, never from disk)."""
        return self._max

    @property
    def is_loaded(self) -> bool:
        """True while the value payload is materialized in RAM."""
        return self._loaded is not None

    def loaded_nbytes(self) -> int:
        """Resident bytes currently held (0 when released)."""
        return self._loaded.nbytes() if self._loaded is not None else 0

    def release(self) -> int:
        """Drop the materialized values; returns the bytes freed."""
        freed = self.loaded_nbytes()
        self._loaded = None
        return freed

    # -- data access (loads on demand) ---------------------------------
    def _load(self) -> MainDictionary:
        if self._loaded is None:
            values = json.loads(self.path.read_text())
            self._loaded = MainDictionary.from_sorted(values)
        return self._loaded

    def lookup(self, value):
        if value is None:
            return None
        return self._load().lookup(value)

    def lookup_many(self, values, default: int) -> List[int]:
        return self._load().lookup_many(values, default)

    def decode(self, code: int):
        return self._load().decode(code)

    def __contains__(self, value) -> bool:
        return self._load().__contains__(value)

    def values(self) -> List[object]:
        return self._load().values()

    def decode_table(self) -> np.ndarray:
        return self._load().decode_table()

    def nbytes(self) -> int:
        """Approximate bytes of the on-disk dictionary payload."""
        loaded = self._loaded
        if loaded is not None:
            return loaded.nbytes()
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def __repr__(self) -> str:
        state = "loaded" if self.is_loaded else "released"
        return f"LazyMainDictionary({self.path.name!r}, size={self._size}, {state})"


# ----------------------------------------------------------------------
# on-disk layout
# ----------------------------------------------------------------------
def partition_dir(directory, table_name: str, partition_name: str) -> Path:
    """``<cold root>/<table>/<partition>`` — one directory per cold main."""
    return Path(directory) / table_name / partition_name


def _int64_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<i8").tobytes()


def _write_file(path: Path, payload: bytes, faults=None) -> int:
    """Write ``payload`` + fsync; returns its CRC32.

    Data files need no tmp/replace dance of their own: they are invisible
    until the manifest commits, and a re-demotion simply overwrites them.
    """
    if faults is not None:
        faults.fire("coldstore.write")
    with path.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    return zlib.crc32(payload)


def _dict_payload(values: List[object]) -> bytes:
    return json.dumps(values, separators=(",", ":")).encode("utf-8")


def demote_partition(
    table_name: str,
    partition,
    directory,
    faults=None,
) -> Path:
    """Demote one resident main partition to the memory-mapped cold tier.

    Writes the cold files, publishes the manifest atomically, then swaps
    the partition's fragments onto mapped vectors and lazy dictionaries
    **in place** (same objects, no version bump).  Idempotent: demoting an
    already-mapped partition is a no-op.  Returns the partition directory.
    """
    if partition.kind != "main":
        raise StorageError(
            f"only main partitions can be demoted, not {partition.kind!r} "
            f"partition {partition.name!r}"
        )
    if partition.storage_tier == "mapped":
        return partition_dir(directory, table_name, partition.name)
    target = partition_dir(directory, table_name, partition.name)
    target.mkdir(parents=True, exist_ok=True)
    rows = partition.row_count
    manifest: Dict = {
        "format_version": _FORMAT_VERSION,
        "table": table_name,
        "partition": partition.name,
        "row_count": rows,
        "columns": [],
    }
    swaps = []  # staged in-memory swaps, applied only after the commit
    for name in partition.column_names():
        fragment = partition.column(name)
        codes = np.asarray(fragment.codes(), dtype=np.int64)
        values = fragment.dictionary.values()
        codes_file = f"{name}.codes.bin"
        dict_file = f"{name}.dict.json"
        codes_crc = _write_file(target / codes_file, _int64_bytes(codes), faults)
        dict_crc = _write_file(target / dict_file, _dict_payload(values), faults)
        stats = partition.column_stats(name)
        manifest["columns"].append(
            {
                "name": name,
                "codes_file": codes_file,
                "codes_crc": codes_crc,
                "dict_file": dict_file,
                "dict_crc": dict_crc,
                "dict_size": len(values),
                "min": stats.min,
                "max": stats.max,
                "has_nulls": stats.has_nulls,
            }
        )
        swaps.append((fragment, target / codes_file, target / dict_file, stats))
    manifest["cts_crc"] = _write_file(
        target / "cts.bin", _int64_bytes(partition.cts_array()), faults
    )
    manifest["dts_crc"] = _write_file(
        target / "dts.bin", _int64_bytes(partition.dts_array()), faults
    )
    _commit_manifest(target, manifest, faults)
    # The manifest is durable: flip the in-memory backing.  Object identity
    # (partition, fragments) and the table version are deliberately
    # preserved — see the module docstring.
    for fragment, codes_path, dict_path, stats in swaps:
        spec = {"dict_size": len(fragment.dictionary), "min": stats.min,
                "max": stats.max, "has_nulls": stats.has_nulls}
        _map_fragment(fragment, codes_path, dict_path, rows, spec)
    partition.attach_mapped_stamps(
        MappedIntVector(target / "cts.bin", rows),
        MappedIntVector(target / "dts.bin", rows),
    )
    return target


def _commit_manifest(target: Path, manifest: Dict, faults=None) -> None:
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    document = json.dumps(
        {"crc": zlib.crc32(payload.encode("utf-8")), "manifest": manifest},
        sort_keys=True,
        separators=(",", ":"),
    )
    if faults is not None:
        faults.fire("coldstore.commit")
    tmp = target / (_MANIFEST + ".tmp")
    with tmp.open("w") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target / _MANIFEST)


def read_manifest(target: Path) -> Optional[Dict]:
    """The CRC-validated manifest of one cold partition dir, or None."""
    try:
        document = json.loads((Path(target) / _MANIFEST).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or "manifest" not in document:
        return None
    manifest = document["manifest"]
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(payload.encode("utf-8")) != document.get("crc"):
        return None
    if manifest.get("format_version") != _FORMAT_VERSION:
        return None
    return manifest


def _map_fragment(fragment, codes_path: Path, dict_path: Path, rows: int, spec: Dict) -> None:
    """Swap one fragment's backing onto the cold files (identity-preserving)."""
    fragment.dictionary = LazyMainDictionary(
        dict_path, spec["dict_size"], spec["min"], spec["max"]
    )
    fragment.attach_mapped_codes(
        MappedIntVector(codes_path, rows), has_nulls=spec["has_nulls"]
    )


def _file_crc(path: Path) -> Optional[int]:
    try:
        return zlib.crc32(path.read_bytes())
    except OSError:
        return None


def reattach_partition(table_name: str, partition, directory) -> bool:
    """Re-attach cold files to a freshly restored resident partition.

    Every file must CRC-match the restored partition's own content —
    ``build_main`` is deterministic, so equality proves the files describe
    exactly this data.  ``dts`` is allowed to diverge (WAL replay may have
    stamped invalidations after the demotion): a mismatched ``dts`` stays
    resident while everything else maps.  Stale or torn cold directories
    are deleted.  Returns True when the partition ended up mapped.
    """
    target = partition_dir(directory, table_name, partition.name)
    manifest = read_manifest(target)
    if manifest is None:
        discard_cold_files(directory, table_name, partition.name)
        return False
    if (
        manifest.get("row_count") != partition.row_count
        or [c["name"] for c in manifest["columns"]] != partition.column_names()
    ):
        discard_cold_files(directory, table_name, partition.name)
        return False
    rows = partition.row_count
    for spec in manifest["columns"]:
        fragment = partition.column(spec["name"])
        codes = np.asarray(fragment.codes(), dtype=np.int64)
        if zlib.crc32(_int64_bytes(codes)) != spec["codes_crc"]:
            discard_cold_files(directory, table_name, partition.name)
            return False
        if _file_crc(target / spec["codes_file"]) != spec["codes_crc"]:
            discard_cold_files(directory, table_name, partition.name)
            return False
        values = fragment.dictionary.values()
        if zlib.crc32(_dict_payload(values)) != spec["dict_crc"]:
            discard_cold_files(directory, table_name, partition.name)
            return False
        if _file_crc(target / spec["dict_file"]) != spec["dict_crc"]:
            discard_cold_files(directory, table_name, partition.name)
            return False
    if (
        zlib.crc32(_int64_bytes(partition.cts_array())) != manifest["cts_crc"]
        or _file_crc(target / "cts.bin") != manifest["cts_crc"]
    ):
        discard_cold_files(directory, table_name, partition.name)
        return False
    dts_matches = (
        zlib.crc32(_int64_bytes(partition.dts_array())) == manifest["dts_crc"]
        and _file_crc(target / "dts.bin") == manifest["dts_crc"]
    )
    for spec in manifest["columns"]:
        _map_fragment(
            partition.column(spec["name"]),
            target / spec["codes_file"],
            target / spec["dict_file"],
            rows,
            spec,
        )
    partition.attach_mapped_stamps(
        MappedIntVector(target / "cts.bin", rows),
        None if not dts_matches else MappedIntVector(target / "dts.bin", rows),
    )
    return True


def discard_cold_files(directory, table_name: str, partition_name: Optional[str] = None) -> None:
    """Delete the cold files of one partition (or a whole table)."""
    root = Path(directory) / table_name
    target = root if partition_name is None else root / partition_name
    shutil.rmtree(target, ignore_errors=True)


def release_table(table) -> int:
    """Release every loaded cold handle of ``table``; returns bytes freed."""
    freed = 0
    for partition in table.partitions():
        freed += partition.release_cold()
    return freed


def reattach_database(db) -> int:
    """Post-recovery pass: re-attach (or discard) every table's cold files.

    Returns the number of partitions that came back memory-mapped.
    """
    cold_root = db.cold_dir
    if cold_root is None or not Path(cold_root).is_dir():
        return 0
    attached = 0
    for name in db.catalog.table_names():
        table = db.catalog.table(name)
        table_dir = Path(cold_root) / name
        if not table_dir.is_dir():
            continue
        partition_names = {p.name for p in table.partitions()}
        for sub in list(table_dir.iterdir()):
            if sub.name not in partition_names:
                shutil.rmtree(sub, ignore_errors=True)  # orphaned directory
                continue
            partition = table.partition(sub.name)
            if partition.kind != "main":
                shutil.rmtree(sub, ignore_errors=True)
                continue
            if reattach_partition(name, partition, cold_root):
                attached += 1
    return attached


def register_coldstore_fault_points() -> None:
    """Declare the cold store's kill points with the fault injector."""
    from ..reliability.faults import register_fault_point

    register_fault_point(
        "coldstore.write", "before a cold data file (codes/dict/stamps) is written"
    )
    register_fault_point(
        "coldstore.commit", "before the cold manifest is atomically published"
    )


register_coldstore_fault_points()
