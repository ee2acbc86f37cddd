"""The pinned digests of the plane, cold and gaussian benchmark pools.

Each workload's digest is the one that ``python tests/pool_digest.py``
prints for it: every pool call runs through ``cli.main`` in-process and
its exit code and stdout are hashed.  A change that moves any printed
digit changes a digest; such a change updates the pin here and says which
digits moved and why.  The ensemble pool takes about 3 s, so its digest is
left to the opt-in script.
"""
import hashlib

import pytest

import pool_digest
import workloads  # on the path pool_digest sets

PINS = {
    "plane":
        "f2a1af66bc19a04c655f65214e36f61c240d07d6922fbbc539c822abd872e327",
    "cold":
        "3ebd0c23db2fbeb93768a8d9e697161b81a7e62e2112738d59d77104fb624892",
    "gaussian":
        "2dac1fde60760263a596103ddc55694a551d1bf72516699c654bc8ee8f538ff2",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_digest_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(pool_digest.ROOT)
    digest = hashlib.sha256()
    for key, call in pool_digest.calls([name], str(tmp_path)):
        workloads.write_channel(call)
        digest.update(pool_digest.line(key, *pool_digest.run(call)).encode())
    assert digest.hexdigest() == PINS[name]
