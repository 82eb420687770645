"""Self-tests of the benchmark on tiny versions of its three workloads.

Run from the repository root (takes seconds)::

    python3 perfbench/selftest.py

They check that the traced counts mean what the benchmark says they mean
(one admission per peer, one max-flow call per peer of a feasible
topology), that counts repeat exactly between runs, that tracing changes no
output, and that the correctness gate can fail.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import numpy as np

import run

workloads, tracing = run.import_program()

TINY = (
    workloads.GridSmall(sizes=(10, 30), policies=("GR", "FCS", "FDN", "GDD"), runs=2),
    workloads.CellLarge(n=300),
    workloads.VerifyImport(n=80),
)
COUNTS = [name for name, unit in tracing.LAYER_UNITS.items() if unit == "count"]


def traced_pass(wl, inputs, work):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        p = wl.run(inputs, work, tracer)
    return tracer, p


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        cls.runs = {}
        for wl in TINY:
            inputs = wl.setup(0, cls.work)
            cls.runs[wl.name] = (wl, inputs, [traced_pass(wl, inputs, cls.work) for _ in range(2)])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_one_admission_per_peer_of_each_built_topology(self):
        for name, (_, _, passes) in self.runs.items():
            builds = passes[0][0].builds
            if name != "verify-import":
                self.assertTrue(any(built for _, _, built in builds), name)
            for n, admissions, built in builds:
                if built:
                    self.assertEqual(admissions, n - 1, name)

    def test_one_max_flow_call_per_peer_of_each_feasible_topology(self):
        verifies = self.runs["verify-import"][2][0][0].verifies
        self.assertEqual(len(verifies), 24)
        self.assertTrue(any(feasible for _, _, feasible in verifies))
        for n, flows, feasible in verifies:
            if feasible:
                self.assertEqual(flows, n - 1)

    def test_max_flow_only_on_verify_import(self):
        for name, (_, _, passes) in self.runs.items():
            calls = tracing.layer_values(passes[0][0], 0.0)["metrics.maximum_flow.calls"]
            self.assertEqual(calls > 0, name == "verify-import", name)

    def test_counts_repeat_exactly(self):
        for name, (_, _, passes) in self.runs.items():
            first, second = (tracing.layer_values(t, 0.0) for t, _ in passes)
            self.assertEqual({k: first[k] for k in COUNTS}, {k: second[k] for k in COUNTS}, name)

    def test_outputs_pass_invariants_and_match_untraced(self):
        for name, (wl, inputs, passes) in self.runs.items():
            plain = wl.run(inputs, self.work)
            wl.check(plain, inputs, None)
            self.assertEqual(plain.errors, {}, name)
            self.assertEqual(plain.outputs, passes[0][1].outputs, name)

    def test_corrupted_reference_is_caught(self):
        for name, (wl, inputs, passes) in self.runs.items():
            reference = copy.deepcopy(passes[0][1].outputs)
            p = copy.deepcopy(passes[1][1])
            wl.check(p, inputs, reference)
            self.assertEqual(p.errors, {}, name)

            records = reference["cells"] if name == "grid-small" else reference
            key = sorted(records)[0]
            records[key] = ["corrupted"] + records[key][1:]
            p = copy.deepcopy(passes[1][1])
            wl.check(p, inputs, reference)
            self.assertEqual(list(p.errors), [key], name)
            self.assertGreater(len(p.errors) / p.attempted, 0.0, name)


class Rewire(unittest.TestCase):
    def test_rewire_keeps_requirements_1_and_2(self):
        topo, caps = workloads._build_cell("FDN", "flat", 60, 3)
        rewired = workloads.rewire(topo, np.random.default_rng(0))
        np.testing.assert_array_equal(rewired.in_multiplicity(), topo.in_multiplicity())
        np.testing.assert_array_equal(rewired.upload_capacity(), caps.u)
        self.assertTrue((rewired.residual_u >= 0).all())
        self.assertNotEqual(rewired.edges, topo.edges)


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_src(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=run.WORK)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, os.path.join(bare, "perfbench", "run.py"),
                 "--workload", "grid-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
