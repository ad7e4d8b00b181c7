"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED ORDER PASS_DIR TRACE SETUP_ONLY

The process-global caches of the package (``_GG_CACHE``, ``_COUNT_CACHE``,
``_NUMERATOR_CACHE``) start cold here, as in every real invocation.  Set-up
imports the package, builds the workload's scripts from the seed in the
order numbered ORDER, writes them into PASS_DIR and parses each one; then
the child prints ``ready``.  Each item then runs through the public entry
point ``arithdeg.cli.main(["run", "-i", SCRIPT, "--json", OUT])``, one after
the other, and the child prints ``done INDEX EXIT_CODE`` when it returns.
The parent timestamps these lines, so items are timed from outside.

Untraced, the child samples the host speed (``speed.SpeedProbe``) from the
start of ``main`` on, and ``ready`` and each ``done`` line end with the samples
taken since the line before: ``COUNT PROBE_S SPEED_SUM``.  With TRACE=1
there is no probe, so that it cannot enter any span, and the layer spans
are written to ``PASS_DIR/spans.bin`` at the end.
"""

import os
import sys
import traceback

import speed


def run_pass(workload, seed, order, pass_dir, trace, setup_only, proto,
             probe=None):
    """Set up, print ``ready``, run the items; returns the tracer or None.

    ``probe`` is a running ``speed.SpeedProbe`` whose samples end the
    protocol lines, or None.  It takes a sample of its own at the end of
    set-up and of each item, so that every line has at least one.
    """
    def line(text):
        if probe is not None:
            probe.sample()
            text += " " + probe.report()
        proto.write(text + "\n")

    import arithdeg.cli
    import arithdeg.session
    import workloads

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    paths = []
    for index, item in enumerate(workloads.build(workload, seed, order)):
        path = os.path.join(pass_dir, "%03d.ses" % index)
        with open(path, "w") as fh:
            fh.write(item.text)
        arithdeg.session.parse_session(item.text)
        paths.append(path)
    line("ready")
    if setup_only:
        return tracer

    for index, path in enumerate(paths):
        if tracer is not None:
            tracer.current_item = index
        out = os.path.join(pass_dir, "%03d.json" % index)
        try:
            code = arithdeg.cli.main(["run", "-i", path, "--json", out])
        except Exception:  # counted as a failed item by the parent
            traceback.print_exc()
            code = -1
        line("done %d %d" % (index, code))
    return tracer


def main(argv):
    workload, seed, order, pass_dir, trace, setup_only = argv
    probe = None
    if trace != "1":
        probe = speed.SpeedProbe()
        probe.start()
    # Protocol lines go to the original stdout; anything the program prints
    # goes to stderr so it cannot be mistaken for one.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    tracer = run_pass(workload, int(seed), int(order), pass_dir, trace == "1",
                      setup_only == "1", proto, probe)
    if probe is not None:
        probe.stop()
    if tracer is not None:
        tracer.dump(os.path.join(pass_dir, "spans.bin"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
