"""Cache digests against ``hashlib``.

The cache takes SHA-256 from the interpreter's built-in module and falls
back to ``hashlib`` where there is none; result file names, source digests
and payload checksums must be ``hashlib.sha256`` either way.
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


def betti_task(spec, level, i_max):
    """A level task that wants Betti numbers alone, and a payload of it."""
    payload = {"level": tuple(level), "betti": [1] * (i_max + 1), "characters": None, "generators": None}
    return (spec, level, i_max, True, False, False), payload


@pytest.mark.parametrize("spec, level, max_codim", FAMILY_CASES)
def test_file_name_and_payload_checksum_are_hashlib_sha256(tmp_path, spec, level, max_codim):
    level = MultiIndex(level)
    task, payload = betti_task(spec, level, max_codim)
    path = cache.store(tmp_path, task, payload)
    key = sha256_hex(f"{spec.serialize()}\n{level.render()}\n{max_codim}\n100")
    assert path.name == f"{key}.result.txt"
    magic, source, checksum, body = path.read_text(encoding="utf-8").splitlines()
    assert magic == "arrstab-result v2"
    assert source == f"source-sha256={cache.source_digest()}"
    assert checksum == f"payload-sha256={sha256_hex(body)}"
    assert json.loads(body) == {**payload, "level": list(level)}
    assert cache.load(tmp_path, task) == json.loads(body)


# Blocks the built-in modules before ``arrstab.cache`` is imported, so that it
# takes ``hashlib``, and prints the keys of the pickled cases.
FALLBACK_PROBE = """
import json, pickle, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from arrstab import cache
cases = pickle.load(sys.stdin.buffer)
keys = [cache.result_key((spec, level, codim, True, False, False)) for spec, level, codim in cases]
print(json.dumps({"hashlib": "hashlib" in sys.modules, "keys": keys, "source": cache.source_digest()}))
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
        sha256_hex(f"{spec.serialize()}\n{level.render()}\n{codim}\n100")
        for spec, level, codim in cases
    ]
    assert out["source"] == cache.source_digest()
