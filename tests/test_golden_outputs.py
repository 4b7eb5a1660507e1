"""Byte-exact pins of the CLI's output.

Each command runs in-process through ``cli.main`` and the SHA-256 of what
it prints is compared with a stored digest, so a refactor that moves the
last bit of any number is caught.  ``table1``, ``table1 --format json`` and
every figure get a digest of their own; a fixed list of single-point JSON
requests shares one digest over (argv, exit code, stdout, stderr).

The digests were taken with CPython 3.11 on x86-64 Linux (glibc libm).
``math.exp``, ``math.log``, ``**`` and friends come from the platform's
libm, so a different libm may legitimately change the last digit of a
number and with it a digest; recompute them with ``_digest`` on the
reference code before comparing across platforms.
"""

from __future__ import annotations

import hashlib

import pytest

from fogsim.cli import main

DOCUMENT_DIGESTS = {
    ("table1",): "16a9c6389137323eda20d4c112814d0bb3e2368993d4b293efadcc17c386a6fc",
    ("table1", "--format", "json"): "0bf5f014021051c011f9448e9a89d38e9ba4909f132e97ac5d4dd406e3d07bf4",
    ("figure", "--id", "3a"): "1708ef8f4b0006828dc0497417677e039a08fc36ddcd9cdbe5645bd1aaa1ce13",
    ("figure", "--id", "3b"): "53c6c7e69b98b9b2c8e1d9b7e5e9ec6220e909e332e99c19af3822ca97f0bcee",
    ("figure", "--id", "5"): "3beb157b08a27580a2ccec0426f30c749d3307302e4c64ac58ba6af0bd5f77a3",
    ("figure", "--id", "6"): "6e282de767787152394199e87aa31834306580fd6d75c6c06c98df9817a9e2d1",
    ("figure", "--id", "7"): "d5270e7c5cf7683a867a58599eb4e1033f4337cc41df3eb949ec14a889ece9a8",
}

ETA_09 = ("--eta", "0.9")
FIBER_15 = ("--length-km", "15", "--b", "0.5")

#: Single-point requests: every design, design P at M = 4 and 16, both the
#: ``--eta`` and the ``--length-km --b`` transmissivity routes, and a few
#: rejected requests whose error messages are part of the output.
JSON_REQUESTS = (
    ("variance", "--design", "C", "--t", "1", "--n-v", "100", *ETA_09),
    ("variance", "--design", "C", "--length-km", "2", "--b", "2"),
    ("variance", "--design", "S", "--squeeze-db", "10", *ETA_09),
    ("variance", "--design", "S", "--squeeze-db", "20", *FIBER_15),
    ("variance", "--design", "S", "--n-squeezed", "3.5", "--eta", "0.99"),
    ("variance", "--design", "D", "--m", "4", "--eta", "0.8"),
    ("variance", "--design", "D", "--m", "16", "--length-km", "30", "--b", "0.3"),
    ("variance", "--design", "P", "--m", "4", "--squeeze-db", "10", *ETA_09),
    ("variance", "--design", "P", "--m", "16", "--squeeze-db", "15", *FIBER_15),
    ("variance", "--design", "E", "--m", "4", "--squeeze-db", "5", "--eta", "0.7"),
    ("variance", "--design", "E", "--m", "16", "--squeeze-db", "25",
     "--length-km", "40", "--b", "1.2"),
    ("variance", "--design", "C", "--squeeze-db", "10", *ETA_09),
    ("variance", "--design", "S", "--m", "2", "--squeeze-db", "10", *ETA_09),
    ("ratio", "--squeeze-db", "5"),
    ("ratio", "--squeeze-db", "20", "--eta", "0.5"),
    ("ratio", "--squeeze-db", "10", "--eta", "0.8", "--m", "4"),
    ("ratio", "--squeeze-db", "15", "--m", "16", *FIBER_15),
    ("ratio", "--squeeze-db", "inf", "--m", "4", *ETA_09),
    ("ratio", "--n-squeezed", "100", "--m", "8", "--length-km", "30", "--b", "0.2"),
    ("ratio", "--squeeze-db", "10", "--eta", "1.5"),
    ("optimize", "--design", "C"),
    ("optimize", "--design", "S", "--squeeze-db", "10"),
    ("optimize", "--design", "S", "--squeeze-db", "inf"),
    ("optimize", "--design", "D", "--m", "4"),
    ("optimize", "--design", "P", "--m", "4", "--squeeze-db", "10"),
    ("optimize", "--design", "P", "--m", "16", "--squeeze-db", "20", "--b", "1.5"),
    ("optimize", "--design", "E", "--m", "16", "--squeeze-db", "15", "--b", "0.3"),
    ("optimize", "--design", "E", "--m", "4", "--squeeze-db", "inf"),
    ("optimize", "--design", "C", "--m", "3"),
    ("optimize", "--design", "D", "--squeeze-db", "10"),
    ("optimize", "--design", "D", "--fix-length", "15"),
    ("optimize", "--design", "D", "--fix-length", "2", "--b", "0.2"),
    ("optimize", "--design", "E", "--fix-length", "15", "--squeeze-db", "10"),
    ("optimize", "--design", "E", "--fix-length", "5", "--squeeze-db", "0"),
    ("optimize", "--design", "E", "--fix-length", "30", "--squeeze-db", "25", "--b", "2"),
    ("optimize", "--design", "P", "--fix-length", "15", "--squeeze-db", "10"),
    ("optimize", "--design", "P", "--fix-length", "40", "--squeeze-db", "20",
     "--b", "1", "--m-max", "32"),
    ("optimize", "--design", "C", "--fix-length", "15"),
    ("optimize", "--design", "D", "--fix-length", "15", "--squeeze-db", "10"),
)

JSON_REQUESTS_DIGEST = (
    "34c2e1c6aac3871ee5f841abe0d234fe332748d8383420ba0eedb603edc98e16"
)


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digest(capsys, requests) -> str:
    digest = hashlib.sha256()
    for argv in requests:
        code, out, err = _run(capsys, argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("argv", list(DOCUMENT_DIGESTS), ids=" ".join)
def test_document_bytes(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DOCUMENT_DIGESTS[argv]


def test_json_request_bytes(capsys):
    assert _digest(capsys, JSON_REQUESTS) == JSON_REQUESTS_DIGEST
