"""The indexing process of the ``index-suite`` workload.

Started by ``run.py``.  It imports the indexing layers, prints ``ready``,
and waits for one line on stdin: ``quit`` ends it, ``go`` makes it index
every input program, in the order given, pass after pass, until
``--seconds`` have gone by (whole passes only).  It prints one JSON line
with every program's time, snapshot digest and degradation flag, and its
peak RSS over the first pass (later passes only add process history, and
``repro index`` runs one program per process).  With ``--trace 1``
untraced and traced passes alternate and the JSON carries each traced
pass's per-layer self times as well.

    python3 perfbench/index_worker.py --src SRC --inputs LIST.json \\
        --out DIR --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    import layers
    from spans import NullRecorder, SpanRecorder, self_times

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    untraced = NullRecorder()
    traced = SpanRecorder()
    passes = []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(passes) % 2 == 1
        rec = traced if trace_this else untraced
        programs = []
        for path in inputs:
            name = os.path.splitext(os.path.basename(path))[0]
            rec.rid = (len(passes), name)
            # `repro index` starts each program in a fresh process: do not
            # bill the previous program's garbage to this one
            gc.collect()
            t0 = time.perf_counter()
            out = layers.index_program(
                path, os.path.join(args.out, name + ".store.json"), rec
            )
            out["seconds"] = time.perf_counter() - t0
            out["name"] = name
            programs.append(out)
        record = {
            "traced": trace_this,
            "seconds": sum(p["seconds"] for p in programs),
            "programs": programs,
        }
        passes.append(record)
        if len(passes) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(passes) >= 2):
            break
    for (n, _name), layer_ns in self_times(traced.spans).items():
        total = passes[n].setdefault("self_ns", {})
        for layer, ns in layer_ns.items():
            total[layer] = total.get(layer, 0) + ns
    if args.trace and args.spans:
        traced.dump(args.spans)
    print(json.dumps({"passes": passes, "rss_kb": rss_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
