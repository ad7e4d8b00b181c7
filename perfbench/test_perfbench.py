"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py

They check that a seed fixes the scripts byte for byte, that two traced
passes of one seed count exactly the same calls, that an untraced pass
leaves every wrapped function as the original object, that the speed probe
samples every stretch it times, and that run.py refuses to report without
the package source.
"""

import hashlib
import io
import os
import signal
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check      # noqa: E402
import child      # noqa: E402
import run        # noqa: E402
import spans      # noqa: E402
import speed      # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


def scripts_digest(workload, seed):
    order = workloads.pass_order(seed, 0)
    texts = [item.text for item in workloads.build(workload, seed, order)]
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=run.WORK, prefix="test")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_scripts(self):
        code = ("import sys; sys.path[:0] = [%r, %r]; import test_perfbench as t; "
                "print(' '.join(t.scripts_digest(w, 7) for w in t.workloads.WORKLOADS))"
                % (HERE, run.SRC))
        env = dict(os.environ, PYTHONHASHSEED="12345")
        other = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.split()
        here = [scripts_digest(w, 7) for w in workloads.WORKLOADS]
        self.assertEqual(here, other)
        self.assertEqual(here, [scripts_digest(w, 7) for w in workloads.WORKLOADS])

    def test_seed_changes_order_and_scaling(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(scripts_digest(workload, 1),
                                scripts_digest(workload, 2), workload)
            idents = sorted(i.ident for i in workloads.build(workload, 1))
            self.assertEqual(idents, sorted(i.ident for i in workloads.build(workload, 2)))
        orders = {workloads.pass_order(5, k) for k in range(workloads.ORDERS)}
        self.assertEqual(orders, set(range(workloads.ORDERS)))

    def test_canonical_form_undoes_scaling(self):
        names = ["a", "b"]
        poly = {(2, 0): 3, (1, 1): -1, (0, 0): workloads.Fraction(1, 2)}
        scaled = workloads.scale_poly(poly, [-2, 3])
        text = workloads.poly_text(scaled, names)
        self.assertEqual(check.parse_poly(text, names), scaled)
        out = {"ring": "Q[a,b]", "results": [{"result": {"basis": [text]}}]}
        plain = {"ring": "Q[a,b]", "results": [{"result": {
            "basis": [workloads.poly_text(poly, names)]}}]}
        self.assertEqual(check.canonical(out, [-2, 3]), check.canonical(plain, [1, 1]))


class TraceTest(WorkDir):
    def traced_calls(self, workload, seed):
        pass_dir = tempfile.mkdtemp(dir=self.work)
        result = run.run_child(workload, seed, 0, pass_dir, trace=True)
        self.assertEqual(result.exit_code, 0)
        self.assertEqual(set(result.codes.values()), {0})
        metrics = spans.layer_metrics(spans.load(os.path.join(pass_dir, "spans.bin")), 0.0)
        return {k: v for k, v in metrics.items() if k.endswith(".calls")}

    def test_traced_calls_repeat_exactly(self):
        first = self.traced_calls("corpus", 3)
        self.assertGreater(first["adeg.verify.calls"], 0)
        self.assertEqual(first, self.traced_calls("corpus", 3))

    def test_untraced_pass_keeps_original_functions(self):
        import arithdeg.cli  # noqa: F401  (loads every layer module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "arithdeg" or n.startswith("arithdeg.")]
        before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
        originals = [(owner, attr, fn) for _, owner, attr, fn in spans.targets()]
        proto = io.StringIO()
        self.assertIsNone(child.run_pass("gb", 0, 0, self.work, False, False, proto))
        self.assertEqual(proto.getvalue().count("done"), len(workloads.build("gb", 0)))
        for owner, attr, fn in originals:
            self.assertIs(getattr(owner, attr), fn)
        after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
        for key, value in before.items():
            self.assertIs(after[key], value)

    def test_uninstall_restores_originals(self):
        originals = [(owner, attr, fn) for _, owner, attr, fn in spans.targets()]
        tracer = spans.Tracer()
        tracer.install()
        try:
            for owner, attr, fn in originals:
                self.assertIsNot(getattr(owner, attr), fn)
        finally:
            tracer.uninstall()
        for owner, attr, fn in originals:
            self.assertIs(getattr(owner, attr), fn)


class SpeedTest(WorkDir):
    def test_split_takes_out_probe_time_and_scales(self):
        own, at_reference = speed.split(1.0, [b"4", b"0.1", b"6.0"])
        self.assertAlmostEqual(own, 0.9)
        self.assertAlmostEqual(at_reference, 0.9 * 6.0 / 4)
        self.assertEqual(speed.split(2.0, []), (2.0, 2.0))

    def test_probe_samples_every_line_and_stops(self):
        probe = speed.SpeedProbe()
        probe.start()
        proto = io.StringIO()
        try:
            child.run_pass("gb", 0, 0, self.work, False, False, proto, probe)
        finally:
            probe.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        lines = [line.split() for line in proto.getvalue().splitlines()]
        self.assertEqual(len(lines), 1 + len(workloads.build("gb", 0)))
        for fields in lines:
            count, probe_s, speed_sum = fields[-3:]
            self.assertGreaterEqual(int(count), 1)
            self.assertGreater(float(probe_s), 0.0)
            self.assertGreater(float(speed_sum), 0.0)


class RunScriptTest(WorkDir):
    def test_refuses_without_package_source(self):
        bare = os.path.join(self.work, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gb", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
