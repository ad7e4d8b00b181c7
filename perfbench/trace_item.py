"""Run one item once, traced, and print its time and self time per layer.

    python3 perfbench/trace_item.py pair:N        # EXT_PAIR_CANDIDATES[N]
    python3 perfbench/trace_item.py ci:K          # dense_quadrics(K), seed 0 scaling
    python3 perfbench/trace_item.py corpus:ID     # a bundled corpus entry

This is how the ``ext`` pool in EXT_POOL.md was vetted.  Run it with
``PYTHONHASHSEED=0``, as the benchmark runs its children.
"""

import os
import random
import shutil
import sys
import tempfile
import time

import run
import spans
import workloads


def item_for(spec):
    kind, _, arg = spec.partition(":")
    if kind == "pair":
        return workloads.pair_item(*workloads.EXT_PAIR_CANDIDATES[int(arg)])
    if kind == "ci":
        return workloads.ci_item(int(arg), random.Random("ext:%d" % workloads.DEFAULT_SEED))
    if kind == "corpus":
        from arithdeg.corpus import lookup
        return workloads.Item(arg, lookup(arg).script_text)
    raise SystemExit("unknown item %r" % spec)


def main(spec):
    sys.path.insert(0, run.SRC)
    import arithdeg.cli
    item = item_for(spec)
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK, prefix="item")
    try:
        path = os.path.join(work, "item.ses")
        with open(path, "w") as fh:
            fh.write(item.text)
        tracer = spans.Tracer()
        tracer.install()
        started = time.perf_counter()
        code = arithdeg.cli.main(["run", "-i", path, "--json",
                                  os.path.join(work, "item.json")])
        wall = time.perf_counter() - started
        tracer.dump(os.path.join(work, "spans.bin"))
        totals, _ = spans.span_totals(spans.load(os.path.join(work, "spans.bin")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%s exit %d wall %.2f s" % (item.ident, code, wall))
    for layer in spans.LAYERS:
        self_s = sum(t["self_s"] for name, t in totals.items()
                     if name.startswith(layer + "."))
        print("  %-14s self %8.2f s  %5.1f%%" % (layer, self_s, 100 * self_s / wall))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
