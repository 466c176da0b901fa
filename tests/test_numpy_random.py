"""``numpy_random()`` imports ``numpy.random`` without loading OpenSSL.

Each check runs in a fresh interpreter: this test process has long since
imported ``numpy.random`` (and ``secrets``), where the function does a
plain import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (seed, tid) pairs of IBS/PEBS jitter streams.
PAIRS = ((0, 0), (0, 47), (1, 3), (12345, 1), (2**40 + 7, 31))

DRAWS = (
    "import json, sys\n"
    "out = {}\n"
    "for seed, tid in %r:\n"
    "    rng = random.default_rng(random.SeedSequence(seed, spawn_key=(tid,)))\n"
    "    draws = rng.integers(0, 64, 10_000).tolist()\n"
    "    out[f'{seed},{tid}'] = [draws, rng.bit_generator.state]\n"
    "out['openssl'] = '_hashlib' in sys.modules\n"
    "print(json.dumps(out))\n"
) % (PAIRS,)


def _run(code: str):
    """The JSON a fresh interpreter prints on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_streams_and_states_equal_a_plain_import():
    guarded = _run(
        "from repro._hashing import numpy_random\n"
        "random = numpy_random()\n" + DRAWS
    )
    plain = _run("import numpy.random as random\n" + DRAWS)
    assert guarded.pop("openssl") is False
    assert plain.pop("openssl") is True
    assert guarded == plain
    assert len(guarded) == len(PAIRS)


def test_no_stub_is_left_behind():
    out = _run(
        "import json, sys\n"
        "from repro._hashing import numpy_random\n"
        "numpy_random()\n"
        "left = 'secrets' in sys.modules\n"
        "import secrets\n"
        "print(json.dumps([left, secrets.__file__, len(secrets.token_hex(4))]))\n"
    )
    left, path, hex_len = out
    assert left is False
    assert Path(path).name == "secrets.py"
    assert hex_len == 8


def test_os_entropy_still_seeds():
    """Unseeded ``SeedSequence()`` (and the legacy global generator,
    seeded while ``numpy.random`` imports) take entropy from
    ``SystemRandom``, the source ``secrets.randbits`` uses."""
    out = _run(
        "import json, random, sys\n"
        "from repro._hashing import numpy_random\n"
        "np_random = numpy_random()\n"
        "randbits = np_random.bit_generator.randbits\n"
        "a, b = np_random.SeedSequence(), np_random.SeedSequence()\n"
        "print(json.dumps([\n"
        "    isinstance(randbits.__self__, random.SystemRandom),\n"
        "    a.entropy != b.entropy, a.entropy.bit_length() > 64,\n"
        "    0 <= np_random.random() < 1, '_hashlib' in sys.modules]))\n"
    )
    assert out == [True, True, True, True, False]


def test_plain_import_when_secrets_is_loaded_first():
    out = _run(
        "import json, secrets, sys\n"
        "from repro._hashing import numpy_random\n"
        "random = numpy_random()\n"
        "print(json.dumps([random.bit_generator.randbits is secrets.randbits,"
        " sys.modules['secrets'] is secrets]))\n"
    )
    assert out == [True, True]


def test_plain_import_when_numpy_random_is_loaded_first():
    out = _run(
        "import json, secrets\n"
        "import numpy.random\n"
        "from repro._hashing import numpy_random\n"
        "print(json.dumps([numpy_random() is numpy.random,"
        " numpy.random.bit_generator.randbits is secrets.randbits]))\n"
    )
    assert out == [True, True]


def test_failed_guarded_import_falls_back_to_a_plain_one():
    """An import that fails under the stub is retried without it."""
    out = _run(
        "import importlib.abc, json, sys\n"
        "class Fail(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        stub = sys.modules.get('secrets')\n"
        "        if name == 'numpy.random._generator' and stub is not None"
        " and not hasattr(stub, '__file__'):\n"
        "            raise ImportError('refused under the stub')\n"
        "sys.meta_path.insert(0, Fail())\n"
        "from repro._hashing import numpy_random\n"
        "random = numpy_random()\n"
        "stub_left = 'secrets' in sys.modules and not hasattr("
        "sys.modules['secrets'], '__file__')\n"
        "print(json.dumps([int(random.default_rng(5).integers(1 << 30)),"
        " stub_left]))\n"
    )
    import numpy as np

    assert out == [int(np.random.default_rng(5).integers(1 << 30)), False]
