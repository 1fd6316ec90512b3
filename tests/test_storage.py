"""Database file format round-trips and error reporting."""

from types import SimpleNamespace

import pytest

from kimap.bits import BitString, Prng
from kimap.protocol import ServerTagRecord, keygen
from kimap.storage import (
    DatabaseFormatError,
    dump_database,
    load_database,
    load_master,
    save_database,
    save_master,
)


@pytest.fixture
def provisioned(tmp_path):
    server, _ = keygen(64, 3, Prng(7, 0))
    db = tmp_path / "kimap.db"
    mk = tmp_path / "master.key"
    save_database(db, 64, server.records)
    save_master(mk, server.master)
    return server, db, mk


def test_roundtrip(provisioned):
    server, db, mk = provisioned
    lam, records = load_database(db)
    assert lam == 64
    assert list(records) == list(server.records)
    for label, rec in records.items():
        orig = server.records[label]
        assert rec.key_current == orig.key_current
        assert rec.key_previous == orig.key_previous
        assert rec.counter == orig.counter
    assert load_master(mk, 64) == server.master


def test_previous_key_persists(tmp_path):
    server, _ = keygen(16, 1, Prng(8, 0))
    server.records["t001"].key_previous = BitString(0xBEEF, 16)
    server.records["t001"].counter = 9
    path = tmp_path / "kimap.db"
    save_database(path, 16, server.records)
    _, records = load_database(path)
    assert records["t001"].key_previous == BitString(0xBEEF, 16)
    assert records["t001"].counter == 9


def test_header_format(provisioned):
    _, db, _ = provisioned
    assert db.read_text().splitlines()[0] == "kimapdb v1 lambda=64"


def test_widest_counter_loads(provisioned, tmp_path):
    _, db, _ = provisioned
    lines = db.read_text().splitlines()
    lines[1] = lines[1].replace(" 1 ", f" {2 ** 32 - 1} ", 1)
    ok = tmp_path / "ok.db"
    ok.write_text("\n".join(lines) + "\n")
    assert load_database(ok)[1]["t001"].counter == 2 ** 32 - 1


SPACING = "fields must be separated by single spaces, with no other whitespace"

# (database text or bytes, the line at fault, its message)
MALFORMED_DATABASES = {
    "not-a-header": ("not a database\n", 1, "expected header 'kimapdb v1 lambda=<bits>'"),
    "empty": ("kimapdb v1 lambda=8\n", 2, "database has no tag records"),
    "lambda-not-int": ("kimapdb v1 lambda=abc\nv1 t001 1 ab:8\n", 1, "bad lambda in header"),
    "lambda-7": ("kimapdb v1 lambda=7\nv1 t001 1 00:7\n", 1,
                 "key width must be even and >= 8, got 7"),
    "lambda-6": ("kimapdb v1 lambda=6\nv1 t001 1 00:6\n", 1,
                 "key width must be even and >= 8, got 6"),
    "lambda-0": ("kimapdb v1 lambda=0\nv1 t001 1 :0\n", 1,
                 "key width must be even and >= 8, got 0"),
    "key-width-not-lambda": ("kimapdb v1 lambda=64\nv1 t001 1 ab:8\n", 2,
                             "key width does not match header lambda=64"),
    "duplicate-label": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8\nv1 t001 1 ab:8\n", 3,
                        "duplicate label 't001'"),
    "record-not-utf8": (b"kimapdb v1 lambda=8\nv1 t001 1 ab:8\nv1 t\xe9\x02 1 ab:8\n", 3,
                        "not UTF-8 text: can't decode byte 0xe9"),
    "counter-not-int": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8\nv1 t002 not-a-counter ab:8\n", 3,
                        "counter 'not-a-counter' is not decimal digits"),
    "counter-0": ("kimapdb v1 lambda=8\nv1 t001 0 ab:8\n", 2, "counter must be >= 1, got 0"),
    "counter-2^32": ("kimapdb v1 lambda=8\nv1 t001 4294967296 ab:8\n", 2,
                      "counter 4294967296 does not fit in 32 bits"),
    "counter-2^40": ("kimapdb v1 lambda=8\nv1 t001 1099511627776 ab:8\n", 2,
                      "counter 1099511627776 does not fit in 32 bits"),
    # int() takes these; the format does not
    "key-0x-prefix": ("kimapdb v1 lambda=8\nv1 t001 1 0xab:8\n", 2,
                      "bitstring text '0xab:8' is not '<hex digits>:<decimal digits>'"),
    "previous-key-signed": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8 +cd:8\n", 2,
                            "bitstring text '+cd:8' is not '<hex digits>:<decimal digits>'"),
    "key-underscore": ("kimapdb v1 lambda=8\nv1 t000 1 ab:8\nv1 t001 1 a_b:8\n", 3,
                       "bitstring text 'a_b:8' is not '<hex digits>:<decimal digits>'"),
    "counter-underscore": ("kimapdb v1 lambda=8\nv1 t001 1_0 ab:8\n", 2,
                           "counter '1_0' is not decimal digits"),
    "counter-signed": ("kimapdb v1 lambda=8\nv1 t000 1 ab:8\nv1 t001 +2 ab:8\n", 3,
                       "counter '+2' is not decimal digits"),
    "counter-non-ascii-digit": ("kimapdb v1 lambda=8\nv1 t001 ١ ab:8\n", 2,
                                "counter '١' is not decimal digits"),
    "lambda-space": ("kimapdb v1 lambda= 8\nv1 t001 1 ab:8\n", 1, "bad lambda in header"),
    "lambda-underscore": ("kimapdb v1 lambda=1_6\nv1 t001 1 abcd:16\n", 1,
                          "bad lambda in header"),
    "lambda-signed": ("kimapdb v1 lambda=+8\nv1 t001 1 ab:8\n", 1, "bad lambda in header"),
    "lambda-non-ascii-digit": ("kimapdb v1 lambda=８\nv1 t001 1 ab:8\n", 1,
                               "bad lambda in header"),
    # a save would write these back in another spelling
    "lambda-leading-zero": ("kimapdb v1 lambda=016\nv1 t001 1 abcd:16\n", 1,
                            "bad lambda in header"),
    "counter-leading-zero": ("kimapdb v1 lambda=8\nv1 t001 01 ab:8\n", 2,
                             "counter '01' has a leading zero"),
    "key-uppercase": ("kimapdb v1 lambda=16\nv1 t001 1 3ACA:16\n", 2,
                      "bitstring text '3ACA:16' is not in canonical form '3aca:16'"),
    "key-extra-leading-zero": ("kimapdb v1 lambda=16\nv1 t001 1 003aca:16\n", 2,
                               "bitstring text '003aca:16' is not in canonical form '3aca:16'"),
    "key-short": ("kimapdb v1 lambda=16\nv1 t001 1 aca:16\n", 2,
                  "bitstring text 'aca:16' is not in canonical form '0aca:16'"),
    "previous-key-length-leading-zero": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8 cd:08\n", 2,
                                         "bitstring text 'cd:08' is not in canonical form "
                                         "'cd:8'"),
    # a save writes one space between fields and one \n after each line
    "run-of-spaces": ("kimapdb v1 lambda=8\nv1  t001 1 ab:8\n", 2, SPACING),
    "tab": ("kimapdb v1 lambda=8\nv1 t001\t1 ab:8\n", 2, SPACING),
    "leading-space": ("kimapdb v1 lambda=8\n v1 t001 1 ab:8\n", 2, SPACING),
    "trailing-space": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8 \n", 2, SPACING),
    "crlf": ("kimapdb v1 lambda=8\nv1 t000 1 ab:8\r\nv1 t001 1 ab:8\r\n", 2, SPACING),
    "crlf-header": ("kimapdb v1 lambda=8\r\nv1 t001 1 ab:8\r\n", 1, "bad lambda in header"),
    "blank-line": ("kimapdb v1 lambda=8\n\nv1 t001 1 ab:8\n", 2, "blank line"),
    "blank-last-line": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8\n\n", 3, "blank line"),
    "spaces-only-line": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8\n  \n", 3, "blank line"),
    "no-final-newline": ("kimapdb v1 lambda=8\nv1 t001 1 ab:8", 2, "missing final newline"),
}


@pytest.mark.parametrize("case", list(MALFORMED_DATABASES))
def test_malformed_database_names_its_line(tmp_path, case):
    data, line, message = MALFORMED_DATABASES[case]
    path = tmp_path / "bad.db"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    with pytest.raises(DatabaseFormatError) as err:
        load_database(path)
    assert str(err.value) == f"{path}:{line}: {message}"


# (master key file text, the line at fault, its message)
MALFORMED_MASTERS = {
    "no-length": ("zz\n", 1, "missing ':<len>' in bitstring text 'zz'"),
    "space-before-length": ("ab: 8\n", 1,
                            "bitstring text 'ab: 8' is not '<hex digits>:<decimal digits>'"),
    "uppercase": ("AB:8\n", 1, "bitstring text 'AB:8' is not in canonical form 'ab:8'"),
    # a save writes the key and one \n, nothing else
    "no-final-newline": ("ab:8", 1, "missing final newline"),
    "crlf": ("ab:8\r\n", 1, "bitstring text 'ab:8\\r' is not '<hex digits>:<decimal digits>'"),
    "leading-space": (" ab:8\n", 1,
                      "bitstring text ' ab:8' is not '<hex digits>:<decimal digits>'"),
    "trailing-tab": ("ab:8\t\n", 1,
                     "bitstring text 'ab:8\\t' is not '<hex digits>:<decimal digits>'"),
    "blank-line-after": ("ab:8\n\n", 2, "expected one line"),
    "blank-line-before": ("\nab:8\n", 2, "expected one line"),
}


@pytest.mark.parametrize("case", list(MALFORMED_MASTERS))
def test_malformed_master_names_its_line(tmp_path, case):
    text, line, message = MALFORMED_MASTERS[case]
    path = tmp_path / "master.key"
    path.write_bytes(text.encode())
    with pytest.raises(DatabaseFormatError) as err:
        load_master(path, 8)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_dump_is_deterministic(provisioned):
    server, _, _ = provisioned
    assert dump_database(64, server.records) == dump_database(64, server.records)


def test_master_file_roundtrip(tmp_path):
    mk = BitString(0x1234567890ABCDEF, 64)
    path = tmp_path / "master.key"
    save_master(path, mk)
    assert load_master(path, 64) == mk


# Has no UTF-8 encoding, so writing it raises once the file is already open.
UNENCODABLE = "t\udcff"


@pytest.mark.parametrize("which", ["database", "master"])
def test_failed_save_leaves_old_file(provisioned, which):
    server, db, mk = provisioned
    path = db if which == "database" else mk
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        if which == "database":
            rec = server.records["t001"]
            server.records[UNENCODABLE] = ServerTagRecord(
                key_current=rec.key_current, key_previous=None, counter=1)
            save_database(db, 64, server.records)
        else:
            save_master(mk, SimpleNamespace(to_text=lambda: UNENCODABLE))
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == ["kimap.db", "master.key"]
