"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import copy
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _run_summary(item):
    workloads.clear_caches()
    return oracle.summarize(workloads.run_item(item))


class GeneratorTests(unittest.TestCase):
    def test_pass_order_is_deterministic_per_seed(self):
        for name, wl in workloads.WORKLOADS.items():
            a = workloads.run_rng(name, 7)
            b = workloads.run_rng(name, 7)
            for _ in range(3):
                self.assertEqual(workloads.pass_order(wl.pool, a),
                                 workloads.pass_order(wl.pool, b))

    def test_seed_changes_order_not_pool(self):
        wl = workloads.WORKLOADS["cuspidal-sweep"]
        a = workloads.pass_order(wl.pool, workloads.run_rng(wl.name, 1))
        b = workloads.pass_order(wl.pool, workloads.run_rng(wl.name, 2))
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(a, key=lambda i: i.key),
                         sorted(b, key=lambda i: i.key))

    def test_three_lines_pool_is_fixed_and_keeps_exclusion_only(self):
        pool = workloads.three_lines_pool()
        self.assertEqual(pool, workloads.three_lines_pool())
        self.assertEqual(len(pool), len(set(pool)))
        self.assertNotIn(workloads.Item("three-lines", ((1,), (1,))), pool)
        for item in pool:
            m, n = item.args
            self.assertIn(len(m), (1, 2, 3))
            self.assertEqual(len(m), len(n))
            self.assertTrue(all(1 <= v <= 7 for v in m + n))

    def test_every_pool_item_has_a_reference(self):
        reference = oracle.load_reference()
        for wl in workloads.WORKLOADS.values():
            for item in wl.pool:
                self.assertIn(item.key, reference)


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = oracle.load_reference()
        cls.item = workloads.Item("cuspidal", (8,))
        cls.got = _run_summary(cls.item)

    def test_current_output_matches_reference(self):
        self.assertEqual(oracle.compare(self.reference[self.item.key], self.got),
                         ("match", []))

    def test_tampered_reference_is_rejected(self):
        ref = self.reference[self.item.key]
        tampered = []
        t = copy.deepcopy(ref)
        t["verdicts"][0]["SiegelCertified"] += 1
        tampered.append(t)
        t = copy.deepcopy(ref)
        t["salem"][1] += 1
        tampered.append(t)
        t = copy.deepcopy(ref)
        t["matrix"]["trace"] += 1
        tampered.append(t)
        t = copy.deepcopy(ref)
        t["entropy"] += 1e-6
        tampered.append(t)
        t = copy.deepcopy(ref)
        t["radii"][3] /= 2.0        # a reference radius smaller than today's
        tampered.append(t)
        for ref_bad in tampered:
            verdict, diffs = oracle.compare(ref_bad, self.got)
            self.assertEqual(verdict, "mismatch")
            self.assertTrue(diffs)

    def test_shrinking_radii_and_entropy_noise_pass(self):
        got = copy.deepcopy(self.got)
        got["radii"] = [r / 2.0 for r in got["radii"]]
        got["entropy"] += 1e-12
        self.assertEqual(oracle.compare(self.reference[self.item.key], got)[0],
                         "match")

    def test_error_outcomes(self):
        raised = {"outcome": "error", "error": "BallDomainError"}
        other = {"outcome": "error", "error": "OrbitCollision"}
        self.assertEqual(oracle.compare(raised, raised)[0], "match")
        self.assertEqual(oracle.compare(raised, other)[0], "mismatch")
        self.assertEqual(oracle.compare(raised, self.got)[0], "new")
        self.assertEqual(oracle.compare(self.reference[self.item.key], raised)[0],
                         "mismatch")


class TracerTests(unittest.TestCase):
    def _traced(self, items):
        tr = tracing.Tracer()
        undo = tracing.install(tr)
        try:
            harness.run_pass(items, tracer=tr)
        finally:
            undo()
        return tr

    def test_child_spans_plus_unaccounted_add_up_to_item_wall(self):
        items = [workloads.Item("cuspidal", (8,)),
                 workloads.Item("three-lines", ((1, 2), (1, 1))),
                 workloads.Item("three-lines", ((3, 4, 5), (2, 3, 4)))]
        tr = self._traced(items)
        self_times = tr.self_times()
        roots = [i for i, s in enumerate(tr.spans) if s[3] is None]
        self.assertEqual(len(roots), len(items))
        for root in roots:
            start, end = tr.spans[root][1], tr.spans[root][2]
            children = [i for i, s in enumerate(tr.spans) if s[3] == root]
            self.assertTrue(children)
            covered = sum(tr.spans[i][2] - tr.spans[i][1] for i in children)
            self.assertAlmostEqual(covered + self_times[root], end - start, delta=1e-9)
            subtree = [i for i, s in enumerate(tr.spans) if start <= s[1] and s[2] <= end]
            self.assertAlmostEqual(sum(self_times[i] for i in subtree),
                                   end - start, delta=1e-9)
            self.assertGreaterEqual(self_times[root], 0.0)

    def test_wrappers_reach_from_import_sites_and_are_removed(self):
        from siegelcert import cuspidal, pipeline, salem
        original = salem.is_salem
        tr = self._traced([workloads.Item("cuspidal", (8,))])
        totals = tr.totals()
        for layer in ("salem.is_salem", "cohomology.action_matrix",
                      "cohomology.spectral_data", "certifier.certify_fixed_point",
                      "report.render"):
            self.assertGreater(totals[(layer, "calls")], 0, layer)
        self.assertIs(cuspidal.is_salem, original)
        self.assertIs(salem.is_salem, original)
        self.assertIs(pipeline.certify_fixed_point,
                      sys.modules["siegelcert.certifier"].certify_fixed_point)

    def test_traced_and_untraced_outputs_agree(self):
        item = workloads.Item("three-lines", ((1, 2), (1, 1)))
        plain = _run_summary(item)
        tr = tracing.Tracer()
        undo = tracing.install(tr)
        try:
            traced = _run_summary(item)
        finally:
            undo()
        self.assertEqual(plain, traced)


if __name__ == "__main__":
    unittest.main()
