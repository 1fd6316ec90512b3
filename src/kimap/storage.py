"""Server key database files.

``kimapdb v1`` is a line-oriented text format::

    kimapdb v1 lambda=<bits>
    v1 <label> <counter> <hex key_current>:<len> [<hex key_previous>:<len>]

The counter is the record's session index, from 1 to 2**32 - 1 (the width
``counter_hash`` binds). A record at 2**32 - 1 loads but is exhausted: the
server offers it no candidate, so its tag is rejected and the record is saved
unchanged.

A file that a save would not write back byte for byte is refused, not
rewritten: the counter and ``<bits>`` are ASCII decimal digits with no
leading zero, and each key is ``ceil(len/4)`` lowercase hex digits and a
length with no leading zero (:meth:`~kimap.bits.BitString.from_text`). Each
line ends in one line feed, the last line included, and the fields of a
record are separated by single spaces: a blank line, a tab, a run of spaces,
a space at either end of a line, a carriage return or a missing final line
feed is refused with its line's number.

The master key lives in a separate file holding exactly one ``hex:len``
line, as wide as the database's keys; it never appears in the tag database.
Both files are replaced atomically: a failed or interrupted save leaves the
previous file intact.
"""

from __future__ import annotations

import os
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Union

from .bits import COUNTER_BITS, BitString, ParameterError
from .protocol import ServerTagRecord, check_key_width

HEADER_PREFIX = "kimapdb v1 lambda="


class DatabaseFormatError(ParameterError):
    def __init__(self, path: Union[str, Path], line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def read_text(path: Union[str, Path], error: Callable[[int, str], ParameterError]) -> str:
    """The UTF-8 text of ``path``, read and decoded once; a byte that is not
    UTF-8 raises ``error(line_no, message)`` for its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeError as exc:
        raise error(data.count(b"\n", 0, exc.start) + 1,
                    f"not UTF-8 text: can't decode byte {data[exc.start]:#04x}") from None


def read_decimal(name: str, text: str) -> int:
    """The int that ``text`` spells in ASCII decimal digits with no leading
    zero. ``int()`` also takes a sign, ``_`` separators, spaces, other
    scripts' digits and leading zeros, which a save would rewrite: such text
    raises ``ValueError`` naming ``name``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} {text!r} is not decimal digits")
    if len(text) > 1 and text[0] == "0":
        raise ValueError(f"{name} {text!r} has a leading zero")
    return int(text)


def dump_database(lam: int, records: dict[str, ServerTagRecord]) -> str:
    lines = [f"{HEADER_PREFIX}{lam}"]
    for label, rec in records.items():
        parts = [f"v1 {label} {rec.counter} {rec.key_current.to_text()}"]
        if rec.key_previous is not None:
            parts.append(rec.key_previous.to_text())
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _write_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, flush it to disk,
    then rename it over ``path``. The temporary file is owner-only (0600),
    so the replaced file is too."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_database(path: Union[str, Path], lam: int, records: dict[str, ServerTagRecord]) -> None:
    _write_atomic(path, dump_database(lam, records))


def _lines(path: Union[str, Path]) -> list[str]:
    """The lines of ``path``'s text, split at each line feed; the text must
    end in one, which ends the last line."""
    lines = read_text(path, partial(DatabaseFormatError, path)).split("\n")
    if lines.pop():
        raise DatabaseFormatError(path, len(lines) + 1, "missing final newline")
    return lines


def load_database(path: Union[str, Path]) -> tuple[int, dict[str, ServerTagRecord]]:
    lines = _lines(path)
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise DatabaseFormatError(path, 1, f"expected header '{HEADER_PREFIX}<bits>'")
    try:
        lam = read_decimal("lambda", lines[0][len(HEADER_PREFIX):])
    except ValueError:
        raise DatabaseFormatError(path, 1, "bad lambda in header") from None
    try:
        check_key_width(lam)
    except ParameterError as exc:
        raise DatabaseFormatError(path, 1, str(exc)) from None

    records: dict[str, ServerTagRecord] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            raise DatabaseFormatError(path, line_no, "blank line")
        if " ".join(fields) != line:
            raise DatabaseFormatError(path, line_no, "fields must be separated by single spaces, "
                                      "with no other whitespace")
        if len(fields) not in (4, 5) or fields[0] != "v1":
            raise DatabaseFormatError(path, line_no, "expected 'v1 <label> <counter> <key> [<prev>]'")
        label = fields[1]
        if label in records:
            raise DatabaseFormatError(path, line_no, f"duplicate label {label!r}")
        try:
            counter = read_decimal("counter", fields[2])
            key_current = BitString.from_text(fields[3])
            key_previous = BitString.from_text(fields[4]) if len(fields) == 5 else None
        except ValueError as exc:
            raise DatabaseFormatError(path, line_no, str(exc)) from None
        if counter < 1:
            raise DatabaseFormatError(path, line_no, f"counter must be >= 1, got {counter}")
        if counter >> COUNTER_BITS:
            raise DatabaseFormatError(path, line_no,
                                      f"counter {counter} does not fit in {COUNTER_BITS} bits")
        if len(key_current) != lam or (key_previous is not None and len(key_previous) != lam):
            raise DatabaseFormatError(path, line_no, f"key width does not match header lambda={lam}")
        records[label] = ServerTagRecord(key_current=key_current, key_previous=key_previous,
                                         counter=counter)
    if not records:
        raise DatabaseFormatError(path, 2, "database has no tag records")
    return lam, records


def save_master(path: Union[str, Path], master: BitString) -> None:
    _write_atomic(path, master.to_text() + "\n")


def load_master(path: Union[str, Path], lam: int) -> BitString:
    """Read the master key of a database of key width ``lam``."""
    lines = _lines(path)
    if len(lines) != 1:
        raise DatabaseFormatError(path, 2 if lines else 1, "expected one line")
    try:
        value = BitString.from_text(lines[0])
    except ValueError as exc:
        raise DatabaseFormatError(path, 1, str(exc)) from None
    if len(value) != lam:
        raise DatabaseFormatError(path, 1, f"master key width {len(value)} != database lambda {lam}")
    return value
