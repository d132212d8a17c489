"""Tests of the benchmark itself (not of sigmaloc).

Run from the root of a checkout:

    python3 -m unittest discover -s bench/tests
"""

import os
import sys
import tempfile
import unittest
from time import perf_counter

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import Capped  # noqa: E402
from tracing import Tracer  # noqa: E402


def fingerprint(x, workdir):
    """A comparable form of a generated input, with the work directory
    left out of paths."""
    if isinstance(x, str):
        return x.replace(workdir, "<workdir>")
    if isinstance(x, (int, float, bool, type(None))):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(v, workdir) for v in x)
    if isinstance(x, (set, frozenset)):
        return frozenset(fingerprint(v, workdir) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((repr(k), fingerprint(v, workdir))
                            for k, v in x.items()))
    if hasattr(x, "__dict__"):
        return type(x).__name__, fingerprint(vars(x), workdir)
    return repr(x)


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.workdir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def build(self, name, seed, workdir=None):
        k, queries, _took = run.setup(run.WORKLOADS[name], seed,
                                      workdir or self.workdir)
        return k, queries

    def cheapest(self, queries, count):
        """The first queries of the smallest instances, by label size."""
        def size(q):
            digits = "".join(ch for ch in q.label if ch.isdigit())
            return int(digits or 0)
        return sorted(queries, key=size)[:count]

    def test_planted_wrong_verdict_is_counted(self):
        k, queries = self.build("lattice", 3)
        query = self.cheapest(queries, 1)[0]
        elements, pairs, desc = query.inp
        _t, raised, wrong = run.run_query(k, query)
        self.assertEqual((raised, wrong), (False, 0))
        desc.atoms += 1  # the oracle now expects twice the classes
        samples = run.run_pass(k, [query])
        # the class count and the quotient size are both wrong now
        self.assertEqual(run.tally(samples), (0, 2))

    def test_raised_error_is_counted(self):
        k, queries = self.build("lattice", 3)
        good = self.cheapest(queries, 1)[0]
        elements, pairs, desc = good.inp
        x, y = elements[0], elements[1]
        cyclic = workloads.Query("cyclic", good.run, good.verify,
                                 (elements, pairs + [(x, y), (y, x)], desc))
        samples = run.run_pass(k, [good, cyclic])
        errors, wrong = run.tally(samples)
        self.assertEqual((errors, wrong), (1, 0))
        self.assertEqual(errors / len(samples), 0.5)

    def test_traced_self_times_fit_in_the_traced_wall_time(self):
        for name in ("lattice", "countable"):
            k, queries = self.build(name, 5)
            tracer = Tracer().install()
            try:
                t0 = perf_counter()
                run.run_pass(k, self.cheapest(queries, 12))
                wall = perf_counter() - t0
            finally:
                tracer.uninstall()
            calls, own = tracer.self_times()
            self.assertGreater(sum(calls.values()), 12)
            self.assertLessEqual(sum(own.values()), wall)
            self.assertGreaterEqual(min(own.values()), -1e-9)
            # every patch is undone
            self.assertFalse(hasattr(k.booleanization.check_overt,
                                     "__wrapped__"))

    def test_same_seed_gives_identical_inputs(self):
        dirs = [os.path.join(self.workdir, d) for d in ("a", "b", "c")]
        for name in ("lattice", "cover", "countable", "cli"):
            built = [self.build(name, seed, d)[1]
                     for seed, d in zip((7, 7, 8), dirs)]
            first, second, other = [
                [fingerprint(q.inp, d) for q in queries]
                for queries, d in zip(built, dirs)]
            self.assertEqual(first, second, name)
            self.assertNotEqual(first, other, name)
        docs = sorted(os.listdir(os.path.join(dirs[0], "cli")))
        self.assertTrue(docs)
        for doc in docs:
            with open(os.path.join(dirs[0], "cli", doc)) as a, \
                    open(os.path.join(dirs[1], "cli", doc)) as b:
                self.assertEqual(a.read(), b.read(), doc)

    def test_frontier_interpolates_and_reports_caps(self):
        # a host exactly as fast as the reference: no scaling
        reference_s = run.reference_s
        run.reference_s = lambda: run.REF_MS / 1000
        self.addCleanup(setattr, run, "reference_s", reference_s)

        def ladder(times, cap=None):
            def rung(_k, n):
                if cap is not None and n > cap:
                    raise Capped("cap")
                return times(n), []
            return run.Workload(None, rung, 2, None)

        value, capped, _ = run.frontier(
            None, ladder(lambda n: 2.0 ** (n - 10.5)))
        self.assertAlmostEqual(value, 10.5)
        self.assertFalse(capped)
        value, capped, _ = run.frontier(None, ladder(lambda n: 1e-3, cap=15))
        self.assertEqual((value, capped), (15.0, True))
        # a ladder whose first rung is already slow walks down
        slow = run.Workload(None, lambda _k, n: (2.0 ** (n - 6.25), []), 10,
                            None)
        value, capped, _ = run.frontier(None, slow)
        self.assertAlmostEqual(value, 6.25)


if __name__ == "__main__":
    unittest.main()
