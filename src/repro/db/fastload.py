"""Raw-page SQLite bulk writer: the chunk fabric's fast lane into the store.

``executemany`` pays an irreducible per-value binding cost in the sqlite3
driver (~1.2µs/row for the Agrawal relation on this class of hardware) plus a
per-row tuple-materialisation cost on the Python side — a hard ceiling around
350k tuples/s that no batching strategy clears.  This module removes the
driver from the write path entirely: :class:`RawSqliteWriter` assembles a
complete, valid SQLite database file from chunk columns with vectorised NumPy
byte packing, in one streaming pass.

Each :meth:`~RawSqliteWriter.append` packs the chunk's table leaf pages and
writes every complete page to a temporary file beside the target; only the
rows of the last, partly filled page carry over (as a copy) to the next
chunk, so memory is one chunk's working set plus one byte per row — the
label code the index needs.  :meth:`~RawSqliteWriter.finish` writes the last
leaf, the table's interior pages, the label index's b-tree (when the target
table carries the index :meth:`TupleStore.create
<repro.db.store.TupleStore.create>` makes), then page 1; it fsyncs the file,
``os.replace``-s it over the target and fsyncs the directory.

The produced file is a *normal* SQLite database: ``PRAGMA integrity_check``
passes, every value reads back identical to what the driver path would have
stored, and subsequent DDL/DML through sqlite3 (further inserts, which
maintain the index) works — the file-format invariants this writer
maintains are the documented ones (https://www.sqlite.org/fileformat2.html):

* ``PAGE``-byte pages, 64KiB by default (the header's ``page_size`` field
  then holds the sentinel ``1``); every packing step reads the size from
  that one constant;
* leaf pages whose cells are packed *ascending* from the content offset —
  placement inside the content area is unconstrained, only the cell-pointer
  array must be in key order, which makes each page's content a single
  contiguous slice of one flat cell stream;
* table b-tree: leaves of type 13 in rowid order, interior pages of type 5
  keyed by the largest rowid under each child;
* label index b-tree: entries ``(label, rowid)`` ordered by label under
  SQLite's BINARY collation (the UTF-8 byte order, which need not be the
  class-code order), then by rowid; leaves of type 10, interior pages of
  type 2, and between two neighbouring pages one entry moves up as the
  divider.  Each rowid is stored with the integer serial type SQLite itself
  would pick, so the index is no larger than ``CREATE INDEX``'s;
* ``sqlite_master`` rows on page 1 carrying the table's DDL (the exact text
  :func:`~repro.db.schema.schema_ddl` renders) and the index under its own
  name and SQL text.

Table records use fixed-width serial types — 6 (big-endian int64) for
integer/boolean columns, 7 (big-endian float64) for reals, ``13+2*len`` for
the class label — so every cell's length is a pure function of
``(payload-varint width, rowid-varint width, label byte-length)``.  Rowids
are sequential, so rows sharing that triple form contiguous *runs*, and each
run's cells are a ``(rows, width)`` view of the flat stream whose columns can
be filled in place with no scatter at all.  Stores whose class labels differ
in byte length fall back to a bucketed fancy-index scatter per triple.
Index entries for one label are built in bounded slices of the stored codes
and form fixed-width runs the same way (rowid widths only grow).

Out-of-scope shapes raise :class:`RawLoadUnsupported` so callers
(:meth:`TupleStore.load <repro.db.store.TupleStore.load>`) can fall back to
the driver path: text/object attribute columns, class labels longer than 57
bytes (the serial type must fit a one-byte varint), records whose header
does not fit a one-byte varint, dot-qualified table names, target tables
carrying any index but the label index, and chunks that would take the file
to the 1GiB lock-byte page.  A refusal in :meth:`~RawSqliteWriter.append`
happens before any of the chunk's rows is written, so what came before can
still be finished.
"""
# repro: hot-path

from __future__ import annotations

import os
import sqlite3
import stat
import struct
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, storage_dtype
from repro.data.schema import Schema
from repro.db.schema import schema_ddl
from repro.exceptions import DatabaseError

__all__ = [
    "RawLoadUnsupported",
    "RawSqliteWriter",
    "schema_supports_raw",
    "target_label_index",
]

PAGE = 65536
_LEAF_HEADER = 8
_INTERIOR_HEADER = 12
#: Byte offset of SQLite's lock-byte page: no page of the file may reach it.
LOCK_BYTE_OFFSET = 1 << 30
#: Longest class label whose text serial type (13+2*len) fits a 1-byte varint.
_MAX_LABEL_BYTES = 57
#: Above this many runs the per-run Python loop costs more than one bucketed
#: scatter; triples recur, so bucket count stays tiny even when runs explode.
_MAX_RUNS_FOR_RUN_FILL = 4096
#: Rows of a chunk packed per step.
_APPEND_SLICE = 1 << 15
#: Stored label codes scanned per step while building the index.
_INDEX_SLICE = 1 << 18
_TABLE_LEAF, _TABLE_INTERIOR = 13, 5
_INDEX_LEAF, _INDEX_INTERIOR = 10, 2
#: The integer serial types SQLite picks by magnitude (schema format 4):
#: the largest value of each class, its serial type and its byte width.
_INT_LIMITS = np.array(
    [1, 127, 32767, 8388607, 2147483647, (1 << 47) - 1, (1 << 63) - 1],
    dtype=np.int64,
)
_INT_SERIALS = (9, 1, 2, 3, 4, 5, 6)
_INT_WIDTHS = (0, 1, 2, 3, 4, 6, 8)

_INDEX_LIST_SQL = 'SELECT name, "unique", partial FROM pragma_index_list(?)'
_INDEX_KEYS_SQL = "SELECT name, desc, coll FROM pragma_index_xinfo(?) WHERE key"
_INDEX_SQL = "SELECT sql FROM sqlite_master WHERE type = 'index' AND name = ?"


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


def _int_width(value: int) -> int:
    """Byte width of the serial type SQLite stores ``value`` (> 0) with."""
    return _INT_WIDTHS[int(np.searchsorted(_INT_LIMITS, value))]


def schema_supports_raw(schema: Schema) -> bool:
    """Whether every attribute stores as a fixed-width numeric column.

    The record header (its size byte, one serial type per attribute and the
    label's) must also fit a one-byte varint.
    """
    if schema.n_attributes + 2 >= 128:
        return False
    for attribute in schema.attributes:
        dtype = np.dtype(storage_dtype(attribute))
        if dtype.kind not in "biuf":
            return False
    return all(
        len(str(label).encode("utf-8")) <= _MAX_LABEL_BYTES
        for label in schema.classes
    )


def target_label_index(
    connection: sqlite3.Connection, table: str, class_column: str
) -> Optional[Tuple[str, str]]:
    """``(name, sql)`` of ``table``'s label index, or ``None`` without one.

    The label index is the plain one :meth:`TupleStore.create
    <repro.db.store.TupleStore.create>` makes: not unique, not partial, keyed
    on ``class_column`` alone, ascending, BINARY collation — the one index
    the raw writer builds itself.  Any other index on the table raises
    :class:`RawLoadUnsupported`.
    """
    found: Optional[Tuple[str, str]] = None
    for name, unique, partial in connection.execute(
        _INDEX_LIST_SQL, (table,)
    ).fetchall():
        keys = connection.execute(_INDEX_KEYS_SQL, (name,)).fetchall()
        if unique or partial or found or keys != [(class_column, 0, "BINARY")]:
            raise RawLoadUnsupported(
                f"index {name!r} on {table!r} is not the label index; the raw "
                "writer cannot build it"
            )
        row = connection.execute(_INDEX_SQL, (name,)).fetchone()
        found = (name, row[0])
    return found


def _read_label_index(
    path: str, table: str, class_column: str
) -> Optional[Tuple[str, str]]:
    """The label index of ``table`` in the database file at ``path``."""
    if not os.path.exists(path):
        return None
    uri = Path(path).resolve().as_uri() + "?mode=ro"
    try:
        connection = sqlite3.connect(uri, uri=True)
    except sqlite3.Error as exc:
        raise DatabaseError(f"cannot read the catalogue of {path!r}: {exc}") from exc
    try:
        return target_label_index(connection, table, class_column)
    except sqlite3.Error as exc:
        raise DatabaseError(f"cannot read the catalogue of {path!r}: {exc}") from exc
    finally:
        connection.close()


def _leaf_pages(
    flat: np.ndarray,
    cell_start: np.ndarray,
    cell_len: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    page_type: int,
) -> np.ndarray:
    """Leaf pages holding cells ``[first, end)`` of the flat stream, per range."""
    count = len(ranges)
    pages = np.zeros((count, PAGE), dtype=np.uint8)
    if not count:
        return pages
    bounds = np.asarray(ranges, dtype=np.int64).reshape(count, 2)
    first, end = bounds[:, 0], bounds[:, 1]
    ncell = end - first
    blob_start = cell_start[first]
    blob_end = cell_start[end - 1] + cell_len[end - 1]
    content_off = PAGE - (blob_end - blob_start)
    pages[:, 0] = page_type
    pages[:, 3:5] = ncell.astype(">u2").view(np.uint8).reshape(-1, 2)
    pages[:, 5:7] = (
        (content_off % 65536).astype(">u2").view(np.uint8).reshape(-1, 2)
    )
    page_of = np.repeat(np.arange(count), ncell)
    local = np.arange(int(ncell.sum())) - np.repeat(np.cumsum(ncell) - ncell, ncell)
    cell = np.repeat(first, ncell) + local
    pointer = content_off[page_of] + cell_start[cell] - blob_start[page_of]
    flat_pages = pages.reshape(-1)
    position = page_of * PAGE + _LEAF_HEADER + 2 * local
    flat_pages[position] = pointer >> 8
    flat_pages[position + 1] = pointer & 0xFF
    for page in range(count):
        pages[page, int(content_off[page]) :] = flat[
            int(blob_start[page]) : int(blob_end[page])
        ]
    return pages


def _empty_leaf(page_type: int) -> np.ndarray:
    page = np.zeros((1, PAGE), dtype=np.uint8)
    page[0, 0] = page_type
    page[0, 5:7] = np.frombuffer(struct.pack(">H", PAGE % 65536), dtype=np.uint8)
    return page


def _place_cells(page: bytearray, pointers_at: int, cells: Sequence[bytes]) -> int:
    """Put ``cells`` in order at the end of ``page`` and their offsets in the
    pointer array at ``pointers_at``; return where the content starts."""
    start = PAGE - sum(len(cell) for cell in cells)
    offset = start
    for slot, cell in enumerate(cells):
        struct.pack_into(">H", page, pointers_at + 2 * slot, offset)
        page[offset : offset + len(cell)] = cell
        offset += len(cell)
    return start


def _interior_page(page_type: int, cells: Sequence[bytes], rightmost: int) -> bytes:
    page = bytearray(PAGE)
    start = _place_cells(page, _INTERIOR_HEADER, cells)
    struct.pack_into(
        ">BHHHBI", page, 0, page_type, 0, len(cells), start % 65536, 0, rightmost
    )
    return bytes(page)


def _interior_pages(
    children: Sequence[int],
    separators: Sequence[bytes],
    page_type: int,
    first_pgno: int,
) -> Tuple[List[bytes], int]:
    """Pack one b-tree's interior levels bottom-up: ``(pages, root)``.

    ``separators[i]`` sits between ``children[i]`` and ``children[i + 1]``:
    the varint of the largest rowid under ``children[i]`` in a table
    b-tree, the divider entry's cell in an index b-tree.  A page covering
    children ``a..b`` holds the cells ``(children[k], separators[k])`` for
    ``a <= k < b`` and ``children[b]`` as its right-most pointer, and
    ``separators[b]`` moves up a level.  Pages are numbered from
    ``first_pgno`` in the order returned.  A level's last page never gets a
    lone child — it would have no cells — the page before hands it one.
    """
    pages: List[bytes] = []
    children = list(children)
    separators = list(separators)
    pgno = first_pgno
    capacity = PAGE - _INTERIOR_HEADER
    while len(children) > 1:
        last = len(children) - 1
        up_children: List[int] = []
        up_separators: List[bytes] = []
        a = 0
        while a <= last:
            b, free = a, capacity
            while b < last and free >= len(separators[b]) + 6:
                free -= len(separators[b]) + 6
                b += 1
            if b == last - 1:
                b -= 1
            cells = [
                struct.pack(">I", children[k]) + separators[k] for k in range(a, b)
            ]
            pages.append(_interior_page(page_type, cells, children[b]))
            up_children.append(pgno)
            pgno += 1
            if b < last:
                up_separators.append(separators[b])
            a = b + 1
        children, separators = up_children, up_separators
    return pages, children[0]


def _interior_page_bound(children: int, cell_need: int) -> int:
    """Upper bound on the interior pages above ``children`` child pages."""
    per_page = (PAGE - _INTERIOR_HEADER) // cell_need
    pages = 0
    while children > 1:
        children = -(-children // per_page)
        pages += children
    return pages


class _LeafStream:
    """Greedy leaf packing over one b-tree's cell stream, page by page.

    The cells of the last, partly filled page are carried (as a copy) into
    the next batch.  ``total`` marks an index b-tree: the cell after each
    complete leaf moves up as its divider, and the stream's last cell is
    never one — it stays in the last leaf.  A table b-tree's separators are
    the largest rowid of each complete leaf (its cells are rows 1, 2, ...).
    """

    def __init__(self, page_type: int, total: Optional[int] = None) -> None:
        self.page_type = page_type
        self.total = total
        self.carry = np.empty(0, dtype=np.uint8)
        self.carry_len = np.empty(0, dtype=np.int64)
        #: Stream position of the carry's first cell.
        self.base = 0
        #: One per complete leaf, in order.
        self.separators: List[bytes] = []

    def plan(
        self, new_len: np.ndarray
    ) -> Tuple[np.ndarray, List[Tuple[int, int]], int]:
        """Cell lengths of carry + new cells, the complete leaves' ``[first,
        end)`` ranges over them, and where the next carry starts."""
        cell_len = np.concatenate((self.carry_len, new_len))
        need = np.cumsum(cell_len + 2)
        capacity = PAGE - _LEAF_HEADER
        count = len(cell_len)
        ranges: List[Tuple[int, int]] = []
        first, used = 0, 0
        while first < count:
            end = int(np.searchsorted(need, used + capacity, side="right"))
            if end >= count:
                break
            if self.total is None:
                ranges.append((first, end))
                first = end
            else:
                if self.base + end == self.total - 1:
                    end -= 1
                ranges.append((first, end))
                first = end + 1
            used = int(need[first - 1])
        return cell_len, ranges, first

    def buffer(self, new_bytes: int) -> Tuple[np.ndarray, int]:
        """A flat cell buffer starting with the carry; new cells go at the offset."""
        offset = len(self.carry)
        flat = np.empty(offset + new_bytes, dtype=np.uint8)
        flat[:offset] = self.carry
        return flat, offset

    def pack(
        self,
        flat: np.ndarray,
        cell_len: np.ndarray,
        ranges: List[Tuple[int, int]],
        carry_from: int,
    ) -> np.ndarray:
        """The complete leaves of a planned batch; keeps the rest as carry."""
        cell_start = np.zeros(len(cell_len), dtype=np.int64)
        np.cumsum(cell_len[:-1], out=cell_start[1:])
        pages = _leaf_pages(flat, cell_start, cell_len, ranges, self.page_type)
        for _, end in ranges:
            if self.total is None:
                self.separators.append(_varint_bytes(self.base + end))
            else:
                start = int(cell_start[end])
                self.separators.append(
                    flat[start : start + int(cell_len[end])].tobytes()
                )
        if carry_from < len(cell_len):
            self.carry = flat[int(cell_start[carry_from]) :].copy()
        else:
            self.carry = np.empty(0, dtype=np.uint8)
        self.carry_len = cell_len[carry_from:].copy()
        self.base += carry_from
        return pages

    def last_page(self) -> np.ndarray:
        """The final leaf, from the carry (an empty leaf for an empty tree)."""
        if not len(self.carry_len):
            return _empty_leaf(self.page_type)
        cell_start = np.zeros(len(self.carry_len), dtype=np.int64)
        np.cumsum(self.carry_len[:-1], out=cell_start[1:])
        return _leaf_pages(
            self.carry,
            cell_start,
            self.carry_len,
            [(0, len(self.carry_len))],
            self.page_type,
        )


def _index_cells(label: bytes, rowids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cells of the index entries ``(label, rowid)`` for ascending rowids:
    ``(cell lengths, flat cell bytes)``."""
    size = len(label)
    cuts = np.searchsorted(rowids, _INT_LIMITS, side="right")
    counts = np.diff(cuts, prepend=0)
    widths = np.asarray(_INT_WIDTHS, dtype=np.int64)
    cell_len = np.repeat(4 + size + widths, counts)
    flat = np.empty(int(cell_len.sum()), dtype=np.uint8)
    big_endian = rowids.astype(">i8").view(np.uint8).reshape(-1, 8)
    label_bytes = np.frombuffer(label, dtype=np.uint8)
    offset, a = 0, 0
    for k, b in enumerate(cuts.tolist()):
        if b == a:
            continue
        width = _INT_WIDTHS[k]
        cell_width = 4 + size + width
        view = flat[offset : offset + (b - a) * cell_width].reshape(b - a, cell_width)
        view[:, 0] = 3 + size + width  # payload size
        view[:, 1] = 3  # record header size
        view[:, 2] = 13 + 2 * size
        view[:, 3] = _INT_SERIALS[k]
        view[:, 4 : 4 + size] = label_bytes
        view[:, 4 + size :] = big_endian[a:b, 8 - width :]
        offset += (b - a) * cell_width
        a = b
    return cell_len, flat


def _master_cell(rowid: int, kind: str, name: str, table: str, root: int, sql: str) -> bytes:
    """One ``sqlite_master`` row as a table-leaf cell."""
    texts = [value.encode("utf-8") for value in (kind, name, table)]
    sql_bytes = sql.encode("utf-8")
    serials = [13 + 2 * len(text) for text in texts] + [4, 13 + 2 * len(sql_bytes)]
    header = b"".join(_varint_bytes(serial) for serial in serials)
    header = _varint_bytes(1 + len(header)) + header
    payload = header + b"".join(texts) + struct.pack(">i", root) + sql_bytes
    return _varint_bytes(len(payload)) + _varint_bytes(rowid) + payload


def _fsync_directory(path: str) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class RawSqliteWriter:
    """Stream chunks into a complete SQLite database file, page by page.

    ``append`` packs each chunk's table leaves and writes every complete
    page to a temporary file beside ``path``; ``finish`` completes the file
    and atomically replaces ``path`` with it.  The writer replaces ``path``
    wholesale — it is a *fresh-store* fast lane, not an incremental
    appender.  It owns the open temporary file, so use it as a context
    manager: leaving the block without ``finish()`` (or an exception inside
    ``finish()``) removes the temporary file and leaves ``path`` as it was.
    """

    def __init__(
        self,
        path: Union[str, Path],
        schema: Schema,
        table: str = "tuples",
        class_column: str = "class",
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
        self._ddl = schema_ddl(schema, table, class_column)
        #: ``(name, sql)`` of the label index the target table carries.
        self._index = _read_label_index(self.path, table, class_column)
        # The catalogue rows must sit whole on page 1 (no overflow pages).
        cells = self._page1_cells(2, 3)
        if max(map(len, cells)) > PAGE - 35 or sum(map(len, cells)) + 112 > PAGE:
            raise RawLoadUnsupported("the schema's DDL does not fit page 1")
        self._header_len = 1 + schema.n_attributes + 1
        self._fixed = self._header_len + 8 * schema.n_attributes
        self._classes: Optional[Tuple[str, ...]] = None
        self._class_bytes: List[bytes] = []
        self._label_len = np.empty(0, dtype=np.int64)
        self._label_lut: Dict[int, np.ndarray] = {}
        self._code_dtype = np.dtype(np.uint8)
        #: Label codes of every row so far (for the index), one per row.
        self._codes = bytearray()
        self._table = _LeafStream(_TABLE_LEAF)
        self._n = 0
        #: Pages in the file so far, counting page 1 (written last).
        self._pages = 1
        self._tmp: Optional[str] = None
        self._file = None
        self._finished = False

    def __len__(self) -> int:
        return self._n

    def __enter__(self) -> "RawSqliteWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._discard()

    # -- appending ------------------------------------------------------------

    def append(self, chunk: Dataset) -> None:
        """Pack one labelled chunk and write its complete table leaf pages.

        A refusal (:class:`RawLoadUnsupported`) or a mismatched chunk
        (:class:`DatabaseError`) raises before any of its rows is written.
        """
        columns, codes = self._accept(chunk)
        rows = len(codes)
        if not rows:
            return
        pages = self._file_pages(self._n + rows, self._leaf_bound(codes))
        if pages >= self._lock_byte_page():
            raise RawLoadUnsupported(
                f"database would reach {pages} pages, the 1GiB lock-byte "
                "page; load the rest through the driver path"
            )
        self._open()
        # Packed in bounded slices, so the working set does not grow with
        # the chunk size.
        for start in range(0, rows, _APPEND_SLICE):
            part = slice(start, start + _APPEND_SLICE)
            part_codes = codes[part]
            rowid = np.arange(
                self._n + start + 1, self._n + start + 1 + len(part_codes), dtype=np.int64
            )
            payload = self._fixed + self._label_len[part_codes]
            pl_vlen = np.where(payload < 128, 1, 2)
            r_vlen = np.ones(len(rowid), dtype=np.int64)
            for k in range(1, 8):
                r_vlen[rowid >= (1 << (7 * k))] = k + 1
            new_len = pl_vlen + r_vlen + payload
            with obs.trace("fastload.assemble", stacked=False, rows=len(rowid)) as span:
                cell_len, ranges, carry_from = self._table.plan(new_len)
                flat, offset = self._table.buffer(int(new_len.sum()))
                self._fill_rows(
                    flat[offset:],
                    [column[part] for column in columns],
                    part_codes,
                    rowid,
                    payload,
                    pl_vlen,
                    r_vlen,
                    new_len,
                )
                leaves = self._table.pack(flat, cell_len, ranges, carry_from)
                span.set(pages=len(leaves))
            self._emit(leaves, rows=len(rowid))
        if self._index is not None:
            self._codes.extend(codes.astype(self._code_dtype).view(np.uint8))
        self._n += rows

    def _leaf_bound(self, codes: np.ndarray) -> int:
        """Upper bound on the table leaves once ``codes``' rows are packed,
        from per-class byte counts (no per-row arrays)."""
        first = self._n + 1
        last = self._n + len(codes)
        payload = self._fixed + self._label_len
        need = payload + np.where(payload < 128, 1, 2) + 1 + 2  # 1-byte rowid
        total = int(np.bincount(codes, minlength=len(need)) @ need)
        for k in range(1, 8):  # one more rowid byte per row past 2**(7k)
            total += max(0, last - max(first, 1 << (7 * k)) + 1)
        total += int(self._table.carry_len.sum()) + 2 * len(self._table.carry_len)
        largest = int(need.max()) + 8
        closed = total // (PAGE - _LEAF_HEADER - largest)
        return len(self._table.separators) + closed + 1

    def _accept(self, chunk: Dataset) -> Tuple[List[np.ndarray], np.ndarray]:
        """Validate a chunk against the writer; adopt its classes on first use."""
        if self._finished:
            raise DatabaseError("raw writer is already finished")
        if chunk.schema.attribute_names != self.schema.attribute_names:
            raise DatabaseError(
                f"chunk schema {chunk.schema.attribute_names} does not match "
                f"the store schema {self.schema.attribute_names}"
            )
        classes = tuple(chunk.classes)
        if self._classes is not None and classes != self._classes:
            raise DatabaseError(
                f"chunk classes {list(classes)} do not match earlier "
                f"chunks ({list(self._classes)})"
            )
        columns = [chunk.column(name) for name in self.schema.attribute_names]
        for name, column in zip(self.schema.attribute_names, columns):
            if column.dtype.kind not in "biuf":
                raise RawLoadUnsupported(
                    f"column {name!r} has non-numeric dtype {column.dtype}"
                )
        if self._classes is None:
            class_bytes = [str(label).encode("utf-8") for label in classes]
            longest = max((len(encoded) for encoded in class_bytes), default=0)
            if longest > _MAX_LABEL_BYTES or self._fixed + longest > PAGE - 35:
                raise RawLoadUnsupported(
                    "a class label is too long for the raw writer's records"
                )
            self._classes = classes
            self._class_bytes = class_bytes
            self._label_len = np.array([len(b) for b in class_bytes], dtype=np.int64)
            self._code_dtype = np.min_scalar_type(max(len(classes) - 1, 0))
            for length in np.unique(self._label_len).tolist():
                lut = np.zeros((len(classes), length), dtype=np.uint8)
                for index, encoded in enumerate(class_bytes):
                    if len(encoded) == length:
                        lut[index, :] = np.frombuffer(encoded, dtype=np.uint8)
                self._label_lut[length] = lut
        return columns, chunk.label_codes

    def _fill_rows(
        self,
        out: np.ndarray,
        columns: List[np.ndarray],
        codes: np.ndarray,
        rowid: np.ndarray,
        payload: np.ndarray,
        pl_vlen: np.ndarray,
        r_vlen: np.ndarray,
        cell_len: np.ndarray,
    ) -> None:
        """Encode table cells back to back into ``out``."""
        rows = len(codes)
        cell_start = np.zeros(rows, dtype=np.int64)
        np.cumsum(cell_len[:-1], out=cell_start[1:])
        # Reals as big-endian float64 (serial type 7), the rest as int64 (6),
        # converted straight into each cell's 8-byte slot.
        value_types = [">f8" if column.dtype.kind == "f" else ">i8" for column in columns]
        lab_len = self._label_len[codes]

        def fill_cells(
            target: np.ndarray,
            sel: Union[slice, np.ndarray],
            pv: int,
            rv: int,
            ll: int,
        ) -> None:
            """Fill ``target`` (rows × width) with the cells selected by ``sel``."""
            pay = payload[sel]
            if pv == 1:
                target[:, 0] = pay
            else:
                target[:, 0] = 0x80 | (pay >> 7)
                target[:, 1] = pay & 0x7F
            offset = pv
            rid = rowid[sel]
            for b in range(rv):
                piece = (rid >> (7 * (rv - 1 - b))) & 0x7F
                if b < rv - 1:
                    piece = piece | 0x80
                target[:, offset + b] = piece
            offset += rv
            target[:, offset] = self._header_len
            offset += 1
            for value_type in value_types:
                target[:, offset] = 7 if value_type == ">f8" else 6
                offset += 1
            target[:, offset] = 13 + 2 * ll
            offset += 1
            for column, value_type in zip(columns, value_types):
                target[:, offset : offset + 8].view(value_type)[:, 0] = column[sel]
                offset += 8
            if ll:
                target[:, offset : offset + ll] = self._label_lut[ll][codes[sel]]

        key = pl_vlen * (64 * _MAX_LABEL_BYTES) + r_vlen * _MAX_LABEL_BYTES + lab_len
        boundaries = np.flatnonzero(np.diff(key)) + 1
        run_starts = np.concatenate(([0], boundaries))
        run_ends = np.concatenate((boundaries, [rows]))
        if len(run_starts) <= _MAX_RUNS_FOR_RUN_FILL:
            # Constant-width runs: each is a contiguous (m, W) view of the
            # flat stream — fill columns in place, zero scatter.
            for a, b in zip(run_starts.tolist(), run_ends.tolist()):
                width = int(cell_len[a])
                view = out[
                    int(cell_start[a]) : int(cell_start[a]) + (b - a) * width
                ].reshape(b - a, width)
                fill_cells(
                    view, slice(a, b), int(pl_vlen[a]), int(r_vlen[a]), int(lab_len[a])
                )
            return
        # Interleaved label lengths: bucket rows by triple and scatter.
        for key_value in np.unique(key):
            sel = np.flatnonzero(key == key_value)
            pv, rv, ll = int(pl_vlen[sel[0]]), int(r_vlen[sel[0]]), int(lab_len[sel[0]])
            width = pv + rv + self._fixed + ll
            mat = np.empty((len(sel), width), dtype=np.uint8)
            fill_cells(mat, sel, pv, rv, ll)
            idx = (cell_start[sel, None] + np.arange(width)[None, :]).ravel()
            out[idx] = mat.ravel()

    # -- page accounting ------------------------------------------------------

    @staticmethod
    def _lock_byte_page() -> int:
        return LOCK_BYTE_OFFSET // PAGE + 1

    def _file_pages(self, rows: int, table_leaves: int) -> int:
        """Upper bound on the finished file's pages for ``rows`` rows in
        ``table_leaves`` table leaves (the last one included)."""
        pages = 1 + table_leaves
        pages += _interior_page_bound(table_leaves, 6 + len(_varint_bytes(rows)))
        if self._index is not None:
            longest = int(self._label_len.max(initial=0))
            need = 6 + longest + _int_width(max(rows, 1))
            index_leaves = rows * need // (PAGE - _LEAF_HEADER - need) + 1
            pages += index_leaves + _interior_page_bound(index_leaves, need + 4)
        return pages

    # -- the file -------------------------------------------------------------

    def _open(self) -> None:
        if self._file is not None:
            return
        directory, name = os.path.split(os.path.abspath(self.path))
        self._tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.rawload")
        # Created as open(path, "wb") creates a file (0o666 less the umask);
        # it replaces the target, so it takes the target's mode if there is one.
        descriptor = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self._file = open(descriptor, "wb", buffering=0)
        if os.path.exists(self.path):
            os.fchmod(descriptor, stat.S_IMODE(os.stat(self.path).st_mode))
        self._file.seek(PAGE)  # page 1 is written last

    def _emit(self, pages: Union[np.ndarray, bytes], rows: int = 0) -> None:
        """Append whole pages to the file, straight out of their buffer."""
        if not len(pages):
            return
        data = memoryview(pages).cast("B")
        count = len(data) // PAGE
        with obs.trace("fastload.write", stacked=False, rows=rows, pages=count):
            self._write_all(data)
        self._pages += count

    def _write_all(self, data: memoryview) -> None:
        # Unbuffered: each write is one os.write straight out of the page
        # buffer, with no copy; a short write continues where it stopped.
        while data:
            data = data[self._file.write(data) :]

    def _discard(self) -> None:
        """Close and remove the temporary file, if any (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._tmp is not None:
            tmp, self._tmp = self._tmp, None
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

    # -- finishing ------------------------------------------------------------

    def finish(self) -> int:
        """Write the rest of the file, then swap it in for ``path`` durably.

        Returns the number of rows written.  Any exception leaves ``path`` as
        it was and removes the temporary file.
        """
        if self._finished:
            raise DatabaseError("raw writer is already finished")
        if self._classes is None:
            raise DatabaseError("raw writer has no chunks to write")
        try:
            self._open()
            table_root = self._write_tree(self._table, _TABLE_INTERIOR)
            index_root = self._write_index() if self._index is not None else None
            if self._pages >= self._lock_byte_page():
                raise RawLoadUnsupported(
                    f"database spans {self._pages} pages, reaching the 1GiB "
                    "lock-byte page"
                )
            cells = self._page1_cells(table_root, index_root)
            with obs.trace("fastload.write", stacked=False, rows=0, pages=1):
                self._file.seek(0)
                self._write_all(memoryview(self._build_page1(cells)))
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
            os.replace(self._tmp, self.path)
            self._tmp = None
            _fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        except BaseException:
            self._discard()
            raise
        self._finished = True
        self._codes = bytearray()
        return self._n

    def _write_tree(self, stream: _LeafStream, interior_type: int) -> int:
        """Write a leaf stream's last leaf and its interior pages: the root."""
        first_leaf = self._pages + 1 - len(stream.separators)
        with obs.trace("fastload.assemble", stacked=False, rows=0) as span:
            last = stream.last_page()
            leaves = len(stream.separators) + 1
            interior, root = _interior_pages(
                range(first_leaf, first_leaf + leaves),
                stream.separators,
                interior_type,
                first_leaf + leaves,
            )
            span.set(pages=1 + len(interior))
        self._emit(last)
        self._emit(b"".join(interior))
        return root

    def _write_index(self) -> int:
        """Write the label index b-tree in bounded slices; return its root."""
        stream = _LeafStream(_INDEX_LEAF, total=self._n)
        codes = np.frombuffer(self._codes, dtype=self._code_dtype)
        order = sorted(range(len(self._class_bytes)), key=self._class_bytes.__getitem__)
        for code in order:
            label = self._class_bytes[code]
            for start in range(0, self._n, _INDEX_SLICE):
                rowids = np.flatnonzero(codes[start : start + _INDEX_SLICE] == code)
                if not len(rowids):
                    continue
                rowids += start + 1
                with obs.trace(
                    "fastload.assemble", stacked=False, rows=len(rowids)
                ) as span:
                    new_len, cells = _index_cells(label, rowids)
                    cell_len, ranges, carry_from = stream.plan(new_len)
                    flat, offset = stream.buffer(len(cells))
                    flat[offset:] = cells
                    leaves = stream.pack(flat, cell_len, ranges, carry_from)
                    span.set(pages=len(leaves))
                self._emit(leaves, rows=len(rowids))
        return self._write_tree(stream, _INDEX_INTERIOR)

    def _page1_cells(self, table_root: int, index_root: Optional[int]) -> List[bytes]:
        cells = [_master_cell(1, "table", self.table, self.table, table_root, self._ddl)]
        if self._index is not None:
            name, sql = self._index
            cells.append(
                _master_cell(2, "index", name, self.table, index_root or 0, sql)
            )
        return cells

    def _build_page1(self, cells: Sequence[bytes]) -> bytes:
        page1 = bytearray(PAGE)
        page1[0:16] = b"SQLite format 3\x00"
        struct.pack_into(">H", page1, 16, 1 if PAGE == 65536 else PAGE)
        page1[18] = 1  # file-format write version: legacy (rollback journal)
        page1[19] = 1  # file-format read version
        page1[21] = 64  # max embedded payload fraction
        page1[22] = 32  # min embedded payload fraction
        page1[23] = 32  # leaf payload fraction
        struct.pack_into(">I", page1, 24, 1)  # change counter
        struct.pack_into(">I", page1, 28, self._pages)
        struct.pack_into(">I", page1, 40, 1)  # schema cookie
        struct.pack_into(">I", page1, 44, 4)  # schema format
        struct.pack_into(">I", page1, 56, 1)  # text encoding: UTF-8
        struct.pack_into(">I", page1, 92, 1)  # version-valid-for
        version = sqlite3.sqlite_version_info
        struct.pack_into(
            ">I", page1, 96, version[0] * 1000000 + version[1] * 1000 + version[2]
        )
        start = _place_cells(page1, 100 + _LEAF_HEADER, cells)
        struct.pack_into(
            ">BHHHB", page1, 100, _TABLE_LEAF, 0, len(cells), start % 65536, 0
        )
        return bytes(page1)
