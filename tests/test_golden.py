"""Same-seed outputs stay byte-identical: a small CLI pipeline (see
`tests/golden.py`) run in a fresh interpreter at one BLAS thread must give
the digests pinned in `tests/golden.json`.

Trained bytes depend on numpy, the BLAS and the CPU, so on a machine whose
fingerprint differs from the pinned one the test runs the pipeline twice,
checks that the two runs agree, and skips the comparison with the pins."""

import json

import golden
import pytest


def test_same_seed_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(golden.GOLDEN.read_text())
    got = golden.run_in_subprocess(tmp_path / "first" / "golden")
    differing = sorted(k for k, v in pinned["fingerprint"].items()
                       if got["fingerprint"].get(k) != v)
    if differing:
        again = golden.run_in_subprocess(tmp_path / "second" / "golden")
        assert again["digests"] == got["digests"]
        pytest.skip(f"digests pinned for another {', '.join(differing)}: "
                    f"{', '.join(repr(pinned['fingerprint'][k]) for k in differing)}")
    moved = sorted(k for k in pinned["digests"].keys() | got["digests"].keys()
                   if pinned["digests"].get(k) != got["digests"].get(k))
    assert not moved, f"outputs differ from tests/golden.json: {', '.join(moved)}"
