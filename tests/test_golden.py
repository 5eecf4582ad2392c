"""Every file the pipeline writes matches its recorded digest, bit for bit."""

import json

import pytest

from record_golden import GOLDEN, digests, run_pipelines


def test_pipeline_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    environment = run_pipelines(tmp_path)
    found = digests(tmp_path)
    assert sorted(found) == sorted(golden["digests"])
    if environment != golden["environment"]:
        pytest.skip(f"digests recorded with {golden['environment']}, not {environment}")
    moved = sorted(path for path, digest in found.items() if golden["digests"][path] != digest)
    assert not moved, "outputs moved; re-record with `python tests/record_golden.py` " \
                      "if on purpose"
