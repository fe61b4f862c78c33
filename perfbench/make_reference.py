"""Regenerate ``reference_digests.json``: each suite program's snapshot
``digest.program``, as ``repro index`` computes it.

    python3 perfbench/make_reference.py

Run it from the root of a checkout.  The programs are indexed in one
process, in name order.  Programs that have a committed baseline under
``tests/baselines/snapshots/`` are cross-checked against it, and the file
is not written if one disagrees.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS = os.path.join(ROOT, "benchmarks", "programs")
BASELINES = os.path.join(ROOT, "tests", "baselines", "snapshots")

#: kept out of the suite: its long fixpoint would drown the frontend and
#: store layers the suite is there to measure
EXCLUDED = ("interp",)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    from spans import NullRecorder

    names = sorted(
        f[:-2] for f in os.listdir(PROGRAMS)
        if f.endswith(".c") and f[:-2] not in EXCLUDED
    )
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in names:
            out = layers.index_program(
                os.path.join(PROGRAMS, name + ".c"),
                os.path.join(tmp, name + ".store.json"), NullRecorder(),
            )
            if not out["ok"]:
                print(f"{name}: degraded analysis", file=sys.stderr)
                return 1
            digests[name] = out["digest"]
    status = 0
    for name, digest in digests.items():
        path = os.path.join(BASELINES, name + ".json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)["digest"]["program"]
        verdict = "agrees" if baseline == digest else "DISAGREES"
        print(f"{name}: {verdict} with {os.path.relpath(path, ROOT)}")
        status |= baseline != digest
    if status:
        return 1
    with open(os.path.join(HERE, "reference_digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
