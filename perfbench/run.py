"""Benchmark of arithdeg: end-to-end metrics and traced per-layer metrics.

    python3 perfbench/run.py --workload {corpus,ext,gb} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` beside this directory
and nothing needs building.  Every pass runs in a fresh child interpreter
(``child.py``) with ``PYTHONHASHSEED=0``: one client, one thread, closed
loop, each item starting when the previous one has returned.  Passes repeat
for S seconds and every metric is a median over the run's passes.

Untraced children sample the host's speed (``speed.py``), and every time in
the JSON line is the program's own time at the reference speed.  With
``--trace 0`` that line holds the end-to-end metrics ``wall_norm_s``,
``item_p50_norm_s``, ``setup_s`` and ``peak_rss_mb``.  The raw ``wall_s``
and ``item_p50_s`` and ``failed_frac`` are printed above it; ``failed`` and
``attempted`` carry ``failed_frac`` in the JSON.  With ``--trace 1``
untraced and traced passes alternate, and the traced ones give the
per-layer metrics of ``spans.PER_LAYER``.  Every output is checked against
``reference.json``.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
# A run must end within 180 s; children still running at this point are killed.
HARD_LIMIT_S = 150.0
# Set-up-only children per run, on top of one set-up per pass, so that the
# setup_s median rests on enough samples.
EXTRA_SETUPS = 10

END_TO_END = (("wall_norm_s", "s"), ("item_p50_norm_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class PassResult:
    """Timings of one child, taken from outside it."""

    def __init__(self, items, pass_dir, setup_s, item_s, raw_item_s, codes,
                 exit_code, rss_mb):
        self.items = items            # workloads.Item, in the order they ran
        self.pass_dir = pass_dir
        self.setup_s = setup_s        # at the reference speed
        self.item_s = item_s          # each finished item, at the reference speed
        self.raw_item_s = raw_item_s  # the same, as the host's speed gave them
        self.codes = codes            # item index -> CLI exit code
        self.exit_code = exit_code
        self.rss_mb = rss_mb

    @property
    def wall_s(self):
        return sum(self.item_s)

    @property
    def raw_wall_s(self):
        return sum(self.raw_item_s)


def run_child(workload, seed, order, pass_dir, trace=False, setup_only=False,
              deadline=None):
    """Start one child, timestamp its protocol lines, and reap it.

    An untraced child's lines carry its speed samples: its times leave out
    the samples' own time and are taken to the reference speed.  A traced
    child runs no probe, and its times are raw.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           str(order), pass_dir, "1" if trace else "0", "1" if setup_only else "0"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=pass_dir)
    limit = (deadline or started + HARD_LIMIT_S) - started
    killer = threading.Timer(max(limit, 0.0), proc.kill)
    killer.start()
    setup_s = None
    last = None
    item_s = []
    raw_item_s = []
    codes = {}
    try:
        for line in proc.stdout:
            now = time.perf_counter()
            word, *rest = line.split()
            if word == b"ready":
                _, setup_s = speed.split(now - started, rest)
            elif word == b"done":
                codes[int(rest[0])] = int(rest[1])
                own, at_reference = speed.split(now - last, rest[2:])
                raw_item_s.append(own)
                item_s.append(at_reference)
            last = now
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return PassResult(workloads.build(workload, seed, order), pass_dir, setup_s,
                      item_s, raw_item_s, codes, proc.returncode,
                      usage.ru_maxrss / 1024.0)


class Checker:
    """Checks every item of every pass; counts attempts and failures."""

    def __init__(self, workload, seed):
        self.seed = seed
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)["digests"][workload]
        self.entries = {}
        if workload == "corpus":
            from arithdeg.corpus import build_corpus
            self.entries = {e.identifier: e for e in build_corpus()}
        self.raw = {}                 # item -> raw digest of its first pass
        self.attempted = 0
        self.failed = 0

    def problems(self, result, index, item):
        code = result.codes.get(index)
        if code != 0:
            return ["exit code %r" % code]
        with open(os.path.join(result.pass_dir, "%03d.json" % index), "rb") as fh:
            raw = fh.read()
        raw_digest, canonical_digest = check.digests(raw, item.scales)
        out = []
        expect = self.reference.get(item.ident)
        if expect is None:
            out.append("no reference digest")
        else:
            if canonical_digest != expect["canonical"]:
                out.append("output differs from the reference")
            if self.seed == workloads.DEFAULT_SEED and raw_digest != expect["raw"]:
                out.append("output bytes differ from the reference")
        if self.raw.setdefault(item.ident, raw_digest) != raw_digest:
            out.append("output bytes differ between passes")
        if item.corpus_id:
            out.extend(check.corpus_problems(json.loads(raw),
                                             self.entries[item.corpus_id]))
        return out

    def check(self, result):
        for index, item in enumerate(result.items):
            self.attempted += 1
            problems = self.problems(result, index, item)
            if problems:
                self.failed += 1
                print("FAIL %s: %s" % (item.ident, "; ".join(problems)),
                      file=sys.stderr)


def measure(workload, seed, seconds, trace, work_dir):
    """Run the passes for ``seconds``.

    Returns (checker, untraced passes, set-up times, traced passes).  The
    run goes in steps.  Without tracing, a step is one pass in each of the
    ``workloads.ORDERS`` orders, so every item's median is taken over the
    same orders in every run.  A trace run's step is an untraced and a
    traced pass of one order, so that their difference, the tracing
    overhead, is taken under like conditions.  Each traced pass is (its own
    wall time, per-layer metrics without the overhead).
    """
    checker = Checker(workload, seed)
    deadline = time.perf_counter() + HARD_LIMIT_S
    counter = itertools.count()

    def child(order, **kw):
        pass_dir = os.path.join(work_dir, "child%03d" % next(counter))
        os.mkdir(pass_dir)
        return run_child(workload, seed, order, pass_dir, deadline=deadline, **kw)

    first = workloads.pass_order(seed, 0)
    warm = child(first, setup_only=True)  # compiles bytecode, proves the import
    if warm.setup_s is None or warm.exit_code != 0:
        raise SystemExit("the benchmark child could not set up (exit %s)"
                         % warm.exit_code)
    started = time.perf_counter()
    setups = [child(first, setup_only=True).setup_s for _ in range(EXTRA_SETUPS)]
    passes = []
    traced = []
    while True:
        step_started = time.perf_counter()
        orders = [first] if trace else [workloads.pass_order(seed, k)
                                        for k in range(workloads.ORDERS)]
        for order in orders:
            result = child(order)
            checker.check(result)
            passes.append(result)
            setups.append(result.setup_s)
            shutil.rmtree(result.pass_dir)
        if trace:
            result = child(first, trace=True)
            checker.check(result)
            path = os.path.join(result.pass_dir, "spans.bin")
            if not traced:
                shutil.copyfile(path, os.path.join(
                    WORK, "spans-%s-%d.bin" % (workload, seed)))
            traced.append((result.raw_wall_s,
                           spans.layer_metrics(spans.load(path), 0.0)))
            shutil.rmtree(result.pass_dir)
        # Stop when another step would end further past the budget than
        # stopping now falls short of it.
        now = time.perf_counter()
        step_s = now - step_started
        if now - started + step_s / 2 > seconds or now + step_s > deadline:
            break
    return checker, passes, setups, traced


def median(values):
    return statistics.median(values) if values else 0.0


def item_medians(passes, attr):
    """Each item's median time over the passes, from ``attr`` of each pass.

    The passes run the items in different orders, so this evens out which
    item pays for a cold cache.
    """
    times = {}
    for p in passes:
        for item, seconds in zip(p.items, getattr(p, attr)):
            times.setdefault(item.ident, []).append(seconds)
    return [median(v) for v in times.values()]


def end_to_end(passes, setups):
    """(complete passes, {metric: value}) over a run's untraced passes.

    The end-to-end metrics are times at the reference speed.  ``wall_s`` and
    ``item_p50_s`` are the same figures as the host's speed gave them; they
    are printed, and not gated, because that speed moves by more than half.
    """
    complete = [p for p in passes if len(p.item_s) == len(p.items)]
    items = item_medians(complete, "item_s")
    return complete, {
        "wall_norm_s": sum(items),
        "item_p50_norm_s": median(items),
        "setup_s": median([s for s in setups if s is not None]),
        "peak_rss_mb": median([p.rss_mb for p in complete]),
        "wall_s": median([p.raw_wall_s for p in complete]),
        "item_p50_s": median(item_medians(complete, "raw_item_s")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "arithdeg")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, "run%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        checker, passes, setups, traced = measure(
            args.workload, args.seed, args.seconds, args.trace == 1, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    complete, e2e = end_to_end(passes, setups)
    print("workload %s, seed %d: %d untraced passes of %d items, %d set-ups"
          % (args.workload, args.seed, len(passes), len(passes[0].items),
             len(setups)))
    for ident, digest in sorted(checker.raw.items()):
        print("digest %s %s" % (ident, digest))
    for name, value in e2e.items():
        print("%-15s %12.6f %s" % (name, value, "MB" if name.endswith("_mb") else "s"))
    print("%-15s %12.6f ratio (%d of %d items)" % (
        "failed_frac", checker.failed / checker.attempted, checker.failed,
        checker.attempted))
    repeatable = True
    if not traced:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        overhead = median([w for w, _ in traced]) - e2e["wall_s"]
        metrics = {}
        for name, unit in spans.PER_LAYER:
            values = [layer[name] for _, layer in traced]
            if name == "trace_overhead_s":
                value = overhead
            elif unit == "count":
                # The same seed and order must do exactly the same calls.
                value = values[0]
                if len(set(values)) > 1:
                    repeatable = False
                    print("FAIL %s differs between traced passes: %s"
                          % (name, values), file=sys.stderr)
            else:
                value = median(values)
            metrics[name] = {"value": value, "unit": unit}
            print("%-46s %14.6f %s" % (name, value, unit))
    print(json.dumps({"correct": checker.failed == 0 and bool(complete) and repeatable,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
