"""JSON-lines persistence for run records.

One record per line, canonical encoding (sorted keys, no whitespace), no
timestamps: writing the same records always produces the same bytes, so a
store file doubles as a regression artefact -- diff two files to diff two
experiment runs.

All mutations go through an atomic temp-file-plus-rename, so a store on disk
is always a whole number of complete lines: an interrupted sweep can leave a
*shorter* store than intended, never a torn one.  Every read verifies each
line against its own bytes (:func:`parse_record_line`): the text around the
``"digest"`` member must hash to it, so a line is accepted only as the exact
canonical line a writer produced, and the record keeps that line instead of
encoding itself again.  A digest-less or non-canonical (re-serialised) line
is damage like any other.  Iterating a store (or :meth:`RunStore.load`) is
strict and raises on the first damaged line, naming its byte offset;
:meth:`RunStore.load_valid` instead tolerates stores written by older,
non-atomic writers (or damaged out-of-band) by skipping unparseable or
digest-mismatched lines, which is what ``sweep --resume`` uses to reconcile a
partial store against its grid.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from .request import DIGEST_MEMBER_END, RECORD_FIELD_SET, RunRecord

logger = logging.getLogger(__name__)


def canonical_line(record: RunRecord) -> str:
    """The canonical single-line JSON encoding of one record.

    The line comes out of the same single encoding pass that computed the
    record's digest (:class:`RunRecord` keeps it), or is the verified line a
    record was read from, so the store's bytes and the digests can never
    drift apart -- and writing a record read from a store or cache back out
    costs no encode at all.
    """
    return record.canonical_line()


def atomic_write_text(path: Path, data: str) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temp file lives in the destination directory so the final
    :func:`os.replace` stays on one filesystem and is atomic; a crash at any
    point leaves either the old content or the new content, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def parse_record_line(line: str) -> RunRecord:
    """Parse one store line, verifying it against its own bytes.

    The line must hold exactly the :class:`RunRecord` fields with one
    top-level ``"digest"`` member, and the text around that member -- the
    bytes the writer hashed -- must hash to the digest.  So only the exact
    canonical line a writer produced is accepted: an edited or bit-rotted
    line, a line without a digest and a re-serialised (non-canonical, e.g.
    spaced) line are all damage and raise ``ValueError``, as do torn or
    garbled JSON and payloads outside the record schema.  The record is
    built from the parsed payload and keeps ``line`` as its encoding, so
    neither the check nor a later :func:`canonical_line` encodes it again.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable store line: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("store line is not a JSON object")
    if payload.keys() != RECORD_FIELD_SET:
        odd = sorted(payload.keys() ^ RECORD_FIELD_SET)
        raise ValueError(f"store line does not fit the record schema: {odd}")
    digest = payload["digest"]
    if not isinstance(digest, str):
        raise ValueError(f"record {payload['request_id']} has a non-string digest")
    # A digest that needs JSON escaping cannot equal a hex hash, so plain
    # quoting finds every line the hash check could accept.
    member = ',"digest":"' + digest + '"'
    marker = member + DIGEST_MEMBER_END
    start = line.find(marker)
    if start < 0 or line.find(marker, start + 1) >= 0:
        raise ValueError(
            f"record {payload['request_id']} has no single canonical digest member"
        )
    hashed = (line[:start] + line[start + len(member):]).encode("utf-8")
    if hashlib.sha256(hashed).hexdigest()[:16] != digest:
        raise ValueError(f"record {payload['request_id']} fails its digest check")
    return RunRecord.from_verified_line(payload, line)


@dataclass(frozen=True)
class TornLine:
    """One damaged store line: where it sits and why it was rejected."""

    offset: int  # byte offset of the line's first byte in the store file
    length: int  # bytes the line occupies, including its newline (if any)
    reason: str


@dataclass
class StoreScan:
    """Everything a tolerant read of one store file learned."""

    records: List[RunRecord] = field(default_factory=list)
    torn: List[TornLine] = field(default_factory=list)

    @property
    def torn_records(self) -> int:
        return len(self.torn)


class RunStore:
    """Append-oriented JSON-lines storage for :class:`RunRecord`."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def write(self, records: Iterable[RunRecord]) -> int:
        """Replace the store's contents with ``records``; returns the count."""
        lines = [canonical_line(record) for record in records]
        atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        return len(lines)

    def append(self, records: Iterable[RunRecord]) -> int:
        """Append ``records`` to the store; returns the count appended.

        Implemented as read-existing + atomic rewrite rather than ``open("a")``
        so an interruption mid-append can never leave a torn final line.  A
        pre-existing torn tail (from a non-atomic writer) is sealed with a
        newline so it stays an isolated invalid line instead of merging with
        the first appended record.
        """
        lines = [canonical_line(record) for record in records]
        existing = self.path.read_text() if self.path.exists() else ""
        if existing and not existing.endswith("\n"):
            existing += "\n"
        atomic_write_text(
            self.path, existing + "".join(line + "\n" for line in lines)
        )
        return len(lines)

    def _lines(self) -> Iterator[Tuple[int, bytes]]:
        """``(byte offset, raw line)`` for every non-blank line of the file."""
        if not self.path.exists():
            return
        offset = 0
        with self.path.open("rb") as handle:
            for raw in handle:
                line_offset, offset = offset, offset + len(raw)
                if raw.strip():
                    yield line_offset, raw

    def __iter__(self) -> Iterator[RunRecord]:
        """Every record, digest-verified; strict about damage.

        Raises ``ValueError`` naming the byte offset of the first damaged
        line.  Use :meth:`scan` / :meth:`load_valid` to skip damage instead.
        """
        for offset, raw in self._lines():
            try:
                yield parse_record_line(raw.decode("utf-8").strip())
            except (ValueError, UnicodeDecodeError) as exc:
                raise ValueError(
                    f"store {self.path}: damaged record at byte offset {offset}: {exc}"
                ) from None

    def load(self) -> List[RunRecord]:
        """Every record, digest-verified (see :meth:`__iter__`)."""
        return list(self)

    def scan(self) -> StoreScan:
        """Tolerantly read the store, accounting for every damaged line.

        Each torn or tampered line is logged (with its byte offset, so a
        crashed writer's tear is locatable with ``dd``/``tail -c``) and
        reported in :attr:`StoreScan.torn`.  Fleet reconciliation uses the
        count to distinguish a grid point that *never ran* (missing from a
        clean store) from one whose writer *crashed mid-write* (missing
        alongside torn lines).
        """
        result = StoreScan()
        for offset, raw in self._lines():
            line = raw.decode("utf-8", errors="replace").strip()
            try:
                result.records.append(parse_record_line(line))
            except ValueError as exc:
                result.torn.append(TornLine(offset, len(raw), str(exc)))
                logger.warning(
                    "store %s: damaged record at byte offset %d (%d byte(s)): %s",
                    self.path,
                    offset,
                    len(raw),
                    exc,
                )
        return result

    def load_valid(self) -> Tuple[List[RunRecord], int]:
        """Load every intact record, skipping damaged lines.

        Returns ``(records, skipped)`` where ``skipped`` counts lines that
        failed to parse or whose digest check failed.  This is the tolerant
        reader behind ``sweep --resume``: a partial or damaged store yields
        whatever whole records it still holds.  :meth:`scan` is the richer
        form (byte offsets per damaged line).
        """
        scan = self.scan()
        return scan.records, scan.torn_records

    def __len__(self) -> int:
        """Number of non-blank lines (records are not decoded or verified)."""
        return sum(1 for _ in self._lines())

    def digest(self) -> str:
        """SHA-256 of the store file's bytes (empty-file digest if missing)."""
        data = self.path.read_bytes() if self.path.exists() else b""
        return hashlib.sha256(data).hexdigest()
