"""Each demo script runs to completion and prints exactly its pinned output.

The demos are deterministic, so the sha256 of stdout pins every value
they print; a demo added without a pin fails the inventory check.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_DEMOS = {
    "01_exact_arithmetic.py": "270ad0ba4fed10a24fa513dbf5a7f748f8a06e3915e9dffbbd4aad5ab2589554",
    "02_q_combinatorics.py": "b92330f1907fa11a61e8f6de2617604205f5a4f30e10d8479bfd9d359b7106ee",
    "03_orthogonal_from_moments.py": "983d7deb7500ebade55c716b0ce0458e6b4f236976dc41894fcdf30a54a73265",
    "04_hankel_determinants.py": "404b0d0e0fb0602a15e5d82b707cd2d182faaecdd8d1be83642514ddef1ba549",
    "05_closed_form_families.py": "ce2aa8fe45fdc2d2702ef7c4acdaa78769ccbf9ba94dc98ef0057f305faa9dcd",
    "06_full_verification.py": "57657883567010a0d1178ca31a3abc5e7ea1b6a08b67188f514d29aaff552af4",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(_DEMOS)


@pytest.mark.parametrize("name, out_sha", sorted(_DEMOS.items()))
def test_demo_output_is_pinned(name, out_sha):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) == (0, out_sha)
