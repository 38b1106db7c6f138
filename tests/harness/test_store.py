"""The result store's on-disk layout and concurrent-writer safety.

Entries land in two-hex-digit shard directories, and many threads
writing one fingerprint never publish a torn entry or strand a temp
file.
"""

import os
import threading

from repro.harness.parallel import ResultCache


def _doc(i=0):
    return {"execution_cycles": 1000 + i, "wall_seconds": 0.01,
            "events_processed": 10}


def _key(i):
    """A deterministic 64-hex-digit fingerprint-shaped key."""
    return f"{i:064x}"


# -- layout ----------------------------------------------------------------

def test_put_writes_sharded_layout(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = _key(0xAB << 248)   # key starting with "ab"
    cache.put(key, _doc())
    assert os.path.exists(tmp_path / "ab" / f"{key}.json")
    assert not os.path.exists(tmp_path / f"{key}.json")
    assert cache.get(key) == _doc()


# -- concurrent writers ----------------------------------------------------

def test_same_fingerprint_thread_hammer(tmp_path):
    """Many threads writing ONE fingerprint never publish a torn entry.

    The old pid-derived temp name let two threads in one process share
    a temp file and interleave writes; mkstemp makes the race benign.
    """
    cache = ResultCache(str(tmp_path))
    key = _key(42)
    start = threading.Barrier(8)
    torn = []

    def hammer(seed):
        start.wait()
        for i in range(25):
            cache.put(key, _doc(seed * 1000 + i))
            doc = cache.get(key)
            # Any readable state must be SOME writer's complete doc.
            if doc is not None and "execution_cycles" not in doc:
                torn.append(doc)

    threads = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not torn
    final = cache.get(key)
    assert final is not None and "execution_cycles" in final
    # No stranded temp files from the race.
    shard = tmp_path / key[:2]
    assert [name for name in os.listdir(shard)
            if name.endswith(".tmp")] == []
