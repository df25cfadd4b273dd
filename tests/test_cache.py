"""Cache digests against ``hashlib``, and loaded lattices against fresh builds.

The cache takes SHA-256 from the interpreter's built-in module and falls
back to ``hashlib`` where there is none; file names and payload checksums
must be ``hashlib.sha256`` either way.  A loaded lattice makes its order
table on first use, and it must be a fresh build's.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from arrstab import cache
from arrstab.fim import MultiIndex
from test_lattice_oracle import FAMILY_CASES

SRC = Path(cache.__file__).resolve().parent.parent


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_file_name_and_payload_checksum_are_hashlib_sha256(
    tmp_path, get_lattice, spec, level, max_codim
):
    level = MultiIndex(level)
    path = cache.store(tmp_path, spec, get_lattice(spec, level, max_codim))
    key = sha256_hex(f"{spec.serialize()}\n{level.render()}\n{max_codim}")
    assert path.name == f"{key}.lattice.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    payload = "\n".join(lines[6:])
    assert lines[5] == f"payload-sha256={sha256_hex(payload)}"
    assert cache.load(tmp_path, spec, level, max_codim) is not None


# Blocks the built-in modules before ``arrstab.cache`` is imported, so that it
# takes ``hashlib``, and prints the keys of the pickled cases.
FALLBACK_PROBE = """
import json, pickle, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from arrstab import cache
cases = pickle.load(sys.stdin.buffer)
keys = [cache.lattice_key(spec, level, codim) for spec, level, codim in cases]
print(json.dumps({"hashlib": "hashlib" in sys.modules, "keys": keys}))
"""


def test_hashlib_fallback_gives_the_same_keys():
    cases = [(spec, MultiIndex(level), codim) for spec, level, codim in FAMILY_CASES]
    result = subprocess.run(
        [sys.executable, "-c", FALLBACK_PROBE],
        input=pickle.dumps(cases),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
        check=True,
    )
    out = json.loads(result.stdout)
    assert out["hashlib"]
    assert out["keys"] == [
        sha256_hex(f"{spec.serialize()}\n{level.render()}\n{codim}")
        for spec, level, codim in cases
    ]


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_loaded_order_table_equals_a_fresh_builds(tmp_path, spec, level, max_codim):
    # a loaded lattice makes its order table on the first ``containing``
    from arrstab.arrangement import build_lattice

    level = MultiIndex(level)
    fresh = build_lattice(spec, level, max_codim)
    cache.store(tmp_path, spec, fresh)
    loaded = cache.load(tmp_path, spec, level, max_codim)
    assert loaded._containing is None
    assert [loaded.containing(i) for i in range(len(loaded))] == [
        fresh.containing(i) for i in range(len(fresh))
    ]
