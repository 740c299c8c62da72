"""Raw-page SQLite bulk writer: the chunk fabric's fast lane into the store.

``executemany`` pays an irreducible per-value binding cost in the sqlite3
driver (~1.2µs/row for the Agrawal relation on this class of hardware) plus a
per-row tuple-materialisation cost on the Python side — a hard ceiling around
350k tuples/s that no batching strategy clears.  This module removes the
driver from the write path entirely: :class:`RawSqliteWriter` assembles a
complete, valid SQLite database file from chunk columns with vectorised NumPy
byte packing and writes it in one pass (~2M rows/s for the nine-attribute
Agrawal relation).

The produced file is a *normal* SQLite database: ``PRAGMA integrity_check``
passes, every value reads back identical to what the driver path would have
stored, and subsequent DDL/DML through sqlite3 (index creation, further
inserts) works — the file-format invariants this writer maintains are the
documented ones (https://www.sqlite.org/fileformat2.html):

* 64KiB pages (header ``page_size`` field holds the sentinel ``1``);
* table-leaf pages (type 13) whose cells are packed *ascending* from the
  content offset — placement inside the content area is unconstrained, only
  the cell-pointer array must be in rowid order, which makes each page's
  content a single contiguous slice of one flat cell stream;
* table-interior pages (type 5) keyed by the largest rowid in each child
  subtree;
* a single ``sqlite_master`` row on page 1 carrying the table's DDL (the
  exact text :func:`~repro.db.schema.schema_ddl` renders).

Each record is encoded with fixed-width serial types — 6 (big-endian int64)
for integer/boolean columns, 7 (big-endian float64) for reals, ``13+2*len``
for the class label — so every cell's length is a pure function of
``(payload-varint width, rowid-varint width, label byte-length)``.  Rowids
are sequential, so rows sharing that triple form contiguous *runs*, and each
run's cells are a ``(rows, width)`` view of the flat stream whose columns can
be filled in place with no scatter at all (the dominant cost of the naive
encoding).  Stores whose class labels differ in byte length fall back to a
bucketed fancy-index scatter per triple.

Out-of-scope shapes raise :class:`RawLoadUnsupported` so callers
(:meth:`TupleStore.load <repro.db.store.TupleStore.load>`) can fall back to
the driver path: text/object attribute columns, class labels longer than 57
bytes (the serial type must fit a one-byte varint), dot-qualified table
names, and files that would reach the 1GiB lock-byte page.
"""
# repro: hot-path

from __future__ import annotations

import sqlite3
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, storage_dtype
from repro.data.schema import Schema
from repro.db.dialect import SQLITE, SqlDialect
from repro.db.schema import schema_ddl
from repro.exceptions import DatabaseError

__all__ = ["RawLoadUnsupported", "RawSqliteWriter", "schema_supports_raw"]

PAGE = 65536
_LEAF_HEADER = 8
_INTERIOR_HEADER = 12
#: First page number that would overlap the 1GiB lock-byte offset.
_LOCK_BYTE_PAGE = (1 << 30) // PAGE + 1
#: Longest class label whose text serial type (13+2*len) fits a 1-byte varint.
_MAX_LABEL_BYTES = 57
#: Above this many runs the per-run Python loop costs more than one bucketed
#: scatter; triples recur, so bucket count stays tiny even when runs explode.
_MAX_RUNS_FOR_RUN_FILL = 4096


class RawLoadUnsupported(DatabaseError):
    """The schema/data shape is outside the raw writer's fast lane."""


def _varint_bytes(value: int) -> bytes:
    """SQLite varint: big-endian 7-bit groups, high bit = continuation."""
    length = 1
    while value >= (1 << (7 * length)) and length < 9:
        length += 1
    out = bytearray()
    for i in range(length - 1, 0, -1):
        out.append(0x80 | ((value >> (7 * i)) & 0x7F))
    out.append(value & 0x7F)
    return bytes(out)


def schema_supports_raw(schema: Schema) -> bool:
    """Whether every attribute stores as a fixed-width numeric column."""
    for attribute in schema.attributes:
        dtype = np.dtype(storage_dtype(attribute))
        if dtype.kind not in "biuf":
            return False
    return all(
        len(str(label).encode("utf-8")) <= _MAX_LABEL_BYTES
        for label in schema.classes
    )


class RawSqliteWriter:
    """Accumulate chunks, then emit one complete SQLite database file.

    ``append`` only keeps references to the chunk's column arrays (zero
    copies); ``finish`` concatenates, encodes, and writes the file.  The
    writer replaces ``path`` wholesale — it is a *fresh-store* fast lane,
    not an incremental appender.
    """

    def __init__(
        self,
        path: Union[str, Path],
        schema: Schema,
        table: str = "tuples",
        class_column: str = "class",
        dialect: SqlDialect = SQLITE,
    ) -> None:
        if str(path) == ":memory:":
            raise RawLoadUnsupported("raw load needs a file-backed store")
        if "." in table:
            raise RawLoadUnsupported(
                f"raw load cannot target dot-qualified table {table!r}"
            )
        if not schema_supports_raw(schema):
            raise RawLoadUnsupported(
                "raw load requires fixed-width numeric columns and short "
                "class labels; use the driver path for this schema"
            )
        self.path = str(path)
        self.schema = schema
        self.table = table
        self.class_column = class_column
        self.dialect = dialect
        self._classes: Optional[Tuple[str, ...]] = None
        self._parts: List[Tuple[Tuple[np.ndarray, ...], np.ndarray]] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, chunk: Dataset) -> None:
        """Queue one labelled chunk (column references only, no copies)."""
        if chunk.schema.attribute_names != self.schema.attribute_names:
            raise DatabaseError(
                f"chunk schema {chunk.schema.attribute_names} does not match "
                f"the store schema {self.schema.attribute_names}"
            )
        if self._classes is None:
            self._classes = tuple(chunk.classes)
        elif tuple(chunk.classes) != self._classes:
            raise DatabaseError(
                f"chunk classes {list(chunk.classes)} do not match earlier "
                f"chunks ({list(self._classes)})"
            )
        columns = tuple(
            chunk.column(name) for name in self.schema.attribute_names
        )
        for name, column in zip(self.schema.attribute_names, columns):
            if column.dtype.kind not in "biuf":
                raise RawLoadUnsupported(
                    f"column {name!r} has non-numeric dtype {column.dtype}"
                )
        self._parts.append((columns, chunk.label_codes))
        self._n += len(chunk)

    def finish(self) -> int:
        """Encode everything appended so far and write the database file."""
        if not self._parts:
            raise DatabaseError("raw writer has no chunks to write")
        # Detached span (no context stack entry): when assembly aborts with
        # RawLoadUnsupported the span is simply dropped, never mis-parented.
        # It splits the raw load into its two phases: page *assembly* below
        # vs. the file *write* at the bottom.
        assemble_span = obs.trace("fastload.assemble", stacked=False, rows=self._n)
        assemble_span.__enter__()
        names = self.schema.attribute_names
        nattr = len(names)
        columns = [
            np.concatenate([part[0][i] for part in self._parts])
            if len(self._parts) > 1
            else self._parts[0][0][i]
            for i in range(nattr)
        ]
        codes = (
            np.concatenate([part[1] for part in self._parts])
            if len(self._parts) > 1
            else self._parts[0][1]
        ).astype(np.int64, copy=False)
        classes = self._classes or tuple(self.schema.classes)
        n = self._n

        # ---- per-row geometry -------------------------------------------
        class_bytes = [str(label).encode("utf-8") for label in classes]
        lab_len = np.array([len(b) for b in class_bytes], dtype=np.int64)
        header_len = 1 + nattr + 1
        fixed = header_len + 8 * nattr
        payload = fixed + lab_len[codes]
        if int(payload.max(initial=0)) >= (1 << 14):
            raise RawLoadUnsupported("record payload exceeds a 2-byte varint")
        rowid = np.arange(1, n + 1, dtype=np.int64)
        pl_vlen = np.where(payload < 128, 1, 2).astype(np.int64)
        r_vlen = np.ones(n, dtype=np.int64)
        for k in range(1, 5):
            r_vlen[rowid >= (1 << (7 * k))] = k + 1
        cell_len = pl_vlen + r_vlen + payload

        # ---- greedy page assignment -------------------------------------
        need_cum = np.cumsum(cell_len + 2)
        capacity = PAGE - _LEAF_HEADER
        starts: List[int] = [0]
        base = 0
        while True:
            j = int(np.searchsorted(need_cum, base + capacity, side="right"))
            if j >= n:
                break
            if j == starts[-1]:
                raise RawLoadUnsupported("record larger than one page")
            starts.append(j)
            base = int(need_cum[j - 1])
        nleaf = len(starts)
        starts_arr = np.array(starts + [n], dtype=np.int64)

        # ---- flat cell stream -------------------------------------------
        cell_start = np.empty(n, dtype=np.int64)
        cell_start[0] = 0
        np.cumsum(cell_len[:-1], out=cell_start[1:])
        total = int(cell_start[-1] + cell_len[-1])
        flat = np.empty(total, dtype=np.uint8)
        column_bytes = []
        serial_types = []
        for column in columns:
            if column.dtype.kind == "f":
                column_bytes.append(
                    np.ascontiguousarray(column, dtype=">f8")
                    .view(np.uint8)
                    .reshape(n, 8)
                )
                serial_types.append(7)
            else:
                column_bytes.append(
                    np.ascontiguousarray(column, dtype=">i8")
                    .view(np.uint8)
                    .reshape(n, 8)
                )
                serial_types.append(6)
        label_lut: Dict[int, np.ndarray] = {}
        for length in np.unique(lab_len):
            lut = np.zeros((len(classes), int(length)), dtype=np.uint8)
            for index, encoded in enumerate(class_bytes):
                if len(encoded) == int(length):
                    lut[index, :] = np.frombuffer(encoded, dtype=np.uint8)
            label_lut[int(length)] = lut

        def fill_cells(
            out: np.ndarray,
            sel: Union[slice, np.ndarray],
            pv: int,
            rv: int,
            ll: int,
        ) -> None:
            """Fill ``out`` (rows × width) with the cells selected by ``sel``."""
            offset = 0
            pay = payload[sel]
            if pv == 1:
                out[:, 0] = pay
            else:
                out[:, 0] = 0x80 | (pay >> 7)
                out[:, 1] = pay & 0x7F
            offset += pv
            rid = rowid[sel]
            for b in range(rv):
                shift = 7 * (rv - 1 - b)
                piece = (rid >> shift) & 0x7F
                if b < rv - 1:
                    piece = piece | 0x80
                out[:, offset + b] = piece
            offset += rv
            out[:, offset] = header_len
            offset += 1
            for serial in serial_types:
                out[:, offset] = serial
                offset += 1
            out[:, offset] = 13 + 2 * ll
            offset += 1
            for encoded in column_bytes:
                out[:, offset : offset + 8] = encoded[sel]
                offset += 8
            if ll:
                out[:, offset : offset + ll] = label_lut[ll][codes[sel]]

        key = pl_vlen * (64 * _MAX_LABEL_BYTES) + r_vlen * _MAX_LABEL_BYTES
        key = key + lab_len[codes]
        boundaries = np.flatnonzero(np.diff(key)) + 1
        run_starts = np.concatenate(([0], boundaries))
        run_ends = np.concatenate((boundaries, [n]))
        if len(run_starts) <= _MAX_RUNS_FOR_RUN_FILL:
            # Constant-width runs: each is a contiguous (m, W) view of the
            # flat stream — fill columns in place, zero scatter.
            for a, b in zip(run_starts.tolist(), run_ends.tolist()):
                pv = int(pl_vlen[a])
                rv = int(r_vlen[a])
                ll = int(lab_len[codes[a]])
                width = int(cell_len[a])
                view = flat[
                    int(cell_start[a]) : int(cell_start[a]) + (b - a) * width
                ].reshape(b - a, width)
                fill_cells(view, slice(a, b), pv, rv, ll)
        else:
            # Interleaved label lengths: bucket rows by triple and scatter.
            for key_value in np.unique(key):
                sel = np.flatnonzero(key == key_value)
                pv = int(pl_vlen[sel[0]])
                rv = int(r_vlen[sel[0]])
                ll = int(lab_len[codes[sel[0]]])
                width = pv + rv + fixed + ll
                mat = np.empty((len(sel), width), dtype=np.uint8)
                fill_cells(mat, sel, pv, rv, ll)
                span = np.arange(width)
                step = 200_000
                for s in range(0, len(sel), step):
                    e = min(s + step, len(sel))
                    idx = (cell_start[sel[s:e], None] + span[None, :]).ravel()
                    flat[idx] = mat[s:e].ravel()

        # ---- leaf pages, vectorised -------------------------------------
        leaf_buf = np.zeros((nleaf, PAGE), dtype=np.uint8)
        first = starts_arr[:-1]
        last = starts_arr[1:]
        ncell = last - first
        blob_start = cell_start[first]
        blob_end = cell_start[last - 1] + cell_len[last - 1]
        content_off = PAGE - (blob_end - blob_start)
        leaf_buf[:, 0] = 13
        leaf_buf[:, 3:5] = ncell.astype(">u2").view(np.uint8).reshape(-1, 2)
        leaf_buf[:, 5:7] = (
            (content_off % 65536).astype(">u2").view(np.uint8).reshape(-1, 2)
        )
        page_of = np.repeat(np.arange(nleaf), ncell)
        local = np.arange(n) - np.repeat(first, ncell)
        pointer = (
            np.repeat(content_off, ncell)
            + (cell_start - np.repeat(blob_start, ncell))
        ).astype(np.int64)
        flat_pages = leaf_buf.reshape(-1)
        position = page_of * PAGE + _LEAF_HEADER + 2 * local
        flat_pages[position] = pointer >> 8
        flat_pages[position + 1] = pointer & 0xFF
        for leaf in range(nleaf):
            start = leaf * PAGE + int(content_off[leaf])
            flat_pages[start : (leaf + 1) * PAGE] = flat[
                int(blob_start[leaf]) : int(blob_end[leaf])
            ]

        # ---- interior pages (largest-rowid keys) -------------------------
        interior_pages: List[np.ndarray] = []
        level = [
            (leaf + 2, int(rowid[int(starts_arr[leaf + 1]) - 1]))
            for leaf in range(nleaf)
        ]
        next_pgno = nleaf + 2
        while len(level) > 1:
            next_level: List[Tuple[int, int]] = []
            i = 0
            while i < len(level):
                page = np.zeros(PAGE, dtype=np.uint8)
                page[0] = 5
                cells: List[bytes] = []
                free = PAGE - _INTERIOR_HEADER
                j = i
                while j < len(level):
                    child, key_rowid = level[j]
                    cell = struct.pack(">I", child) + _varint_bytes(key_rowid)
                    if free - (len(cell) + 2) < 0:
                        break
                    cells.append(cell)
                    free -= len(cell) + 2
                    j += 1
                rightmost_child, rightmost_key = level[j - 1]
                cells.pop()
                page[3:5] = np.frombuffer(
                    struct.pack(">H", len(cells)), dtype=np.uint8
                )
                page[8:12] = np.frombuffer(
                    struct.pack(">I", rightmost_child), dtype=np.uint8
                )
                offset = PAGE
                pointers: List[int] = []
                for cell in cells:
                    offset -= len(cell)
                    page[offset : offset + len(cell)] = np.frombuffer(
                        cell, dtype=np.uint8
                    )
                    pointers.append(offset)
                page[5:7] = np.frombuffer(
                    struct.pack(">H", offset % 65536), dtype=np.uint8
                )
                for slot, ptr in enumerate(pointers):
                    page[12 + 2 * slot : 14 + 2 * slot] = np.frombuffer(
                        struct.pack(">H", ptr), dtype=np.uint8
                    )
                interior_pages.append(page)
                next_level.append((next_pgno, rightmost_key))
                next_pgno += 1
                i = j
            level = next_level
        root = level[0][0] if nleaf > 1 else 2
        npages = 1 + nleaf + len(interior_pages)
        if npages >= _LOCK_BYTE_PAGE:
            raise RawLoadUnsupported(
                f"database would span {npages} pages, crossing the 1GiB "
                "lock-byte page; use the driver path for loads this large"
            )

        # ---- page 1: db header + sqlite_master ---------------------------
        page1 = self._build_page1(root, npages)
        assemble_span.set(pages=npages)
        assemble_span.close()

        # Unbuffered + memoryview: each write is one os.write straight out
        # of the page buffer — tobytes() would copy the (possibly hundreds
        # of MB) leaf buffer once, and BufferedWriter would copy it again.
        with obs.trace("fastload.write", stacked=False, rows=n, pages=npages):
            with open(self.path, "wb", buffering=0) as handle:
                handle.write(page1.data)
                handle.write(flat_pages.data)
                for page in interior_pages:
                    handle.write(page.data)
        self._parts = []
        return n

    def _build_page1(self, root: int, npages: int) -> np.ndarray:
        page1 = np.zeros(PAGE, dtype=np.uint8)
        header = bytearray(100)
        header[0:16] = b"SQLite format 3\x00"
        struct.pack_into(">H", header, 16, 1 if PAGE == 65536 else PAGE)
        header[18] = 1  # file-format write version: legacy (rollback journal)
        header[19] = 1  # file-format read version
        header[21] = 64  # max embedded payload fraction
        header[22] = 32  # min embedded payload fraction
        header[23] = 32  # leaf payload fraction
        struct.pack_into(">I", header, 24, 1)  # change counter
        struct.pack_into(">I", header, 28, npages)
        struct.pack_into(">I", header, 40, 1)  # schema cookie
        struct.pack_into(">I", header, 44, 4)  # schema format
        struct.pack_into(">I", header, 56, 1)  # text encoding: UTF-8
        struct.pack_into(">I", header, 92, 1)  # version-valid-for
        version = sqlite3.sqlite_version_info
        struct.pack_into(
            ">I",
            header,
            96,
            version[0] * 1000000 + version[1] * 1000 + version[2],
        )
        page1[:100] = np.frombuffer(bytes(header), dtype=np.uint8)

        table_bytes = self.table.encode("utf-8")
        sql = schema_ddl(
            self.schema, self.table, self.class_column, self.dialect
        ).encode("utf-8")
        serials = [
            13 + 2 * len(b"table"),
            13 + 2 * len(table_bytes),
            13 + 2 * len(table_bytes),
            4,  # rootpage as 4-byte int
            13 + 2 * len(sql),
        ]
        record_header = b"".join(_varint_bytes(s) for s in serials)
        record_header = (
            _varint_bytes(1 + len(record_header)) + record_header
        )
        body = (
            b"table"
            + table_bytes
            + table_bytes
            + struct.pack(">i", root)
            + sql
        )
        master_payload = record_header + body
        cell = (
            _varint_bytes(len(master_payload))
            + _varint_bytes(1)
            + master_payload
        )
        cell_off = PAGE - len(cell)
        page1[100] = 13
        page1[103:105] = np.frombuffer(struct.pack(">H", 1), dtype=np.uint8)
        page1[105:107] = np.frombuffer(
            struct.pack(">H", cell_off % 65536), dtype=np.uint8
        )
        page1[108:110] = np.frombuffer(
            struct.pack(">H", cell_off % 65536), dtype=np.uint8
        )
        page1[cell_off : cell_off + len(cell)] = np.frombuffer(
            cell, dtype=np.uint8
        )
        return page1
