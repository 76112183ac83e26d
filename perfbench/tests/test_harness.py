"""Self-tests of the benchmark harness; none of them runs arbordyn.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checker  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CONFIG = {"growth_cap_bits": 16777216, "height_cap_bits": 4096, "orbit_max_steps": 64,
          "rho_budget": 100000000, "seed": 0, "threads": 1, "trial_bound": 1000000}


def _fac(factors, cofactor=1, status="unit", sign=1):
    return {"cofactor": cofactor, "cofactor_status": status, "factors": factors, "sign": sign}


SEQUENCE_DOC = {
    "a": None, "command": "sequence", "config": CONFIG, "n": 4, "schema": "arbordyn/1",
    "status": "complete",
    "rows": [
        {"n": 1, "pn0": 1, "factorization": _fac([])},
        {"n": 2, "pn0": 10, "factorization": _fac([[2, 1], [5, 1]])},
        {"n": 3, "pn0": 884, "factorization": _fac([[2, 2], [13, 1], [17, 1]])},
        {"n": 4, "pn0": 6793760, "factorization": _fac([[2, 5], [5, 1], [42461, 1]])},
    ],
}


def _wit(v, **extra):
    import math
    return {"bits": v.bit_length(), "is_square": False, "isqrt": math.isqrt(abs(v)),
            "negative": v < 0, "value": v, **extra}


CERTIFY_DOC = {
    "command": "certify", "config": CONFIG, "schema": "arbordyn/1", "overall": "all_maximal",
    "certificate": {
        "a": -98, "depth": 3, "digest_bits": 4096, "overall": "all_maximal",
        "maximal_levels": [1, 2, 3],
        "levels": [
            {"n": 1, "theta": None, "verdict": "maximal",
             "irreducibility": {"n": 1, "route": "base_nonsquare", "status": "certified",
                                "witness": _wit(98)}},
            {"n": 2, "verdict": "maximal",
             "theta": _wit(-97, index=3, strict_bracket=True),
             "irreducibility": {"n": 2, "route": "congruence_3_mod_4", "status": "certified",
                                "witness": _wit(-97)}},
            {"n": 3, "verdict": "maximal",
             "theta": _wit(9311, index=4, strict_bracket=True),
             "irreducibility": {"n": 3, "route": "congruence_3_mod_4", "status": "certified",
                                "witness": _wit(9311)}},
        ],
    },
}


def _check(job, rc, doc):
    return checker.check_job(job, rc, json.dumps(doc), "")


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.seq_job = jobs.sequence_map_job([1, 0, 1], [3, 0, 1], 4, factor=True)
        self.cert_job = jobs.certify_a_job(-98, 3)

    def test_accepts_true_sequence(self):
        self.assertEqual(_check(self.seq_job, 0, SEQUENCE_DOC), [])

    def test_rejects_tampered_factor_product(self):
        doc = copy.deepcopy(SEQUENCE_DOC)
        doc["rows"][3]["factorization"]["factors"][1] = [7, 1]
        self.assertTrue(_check(self.seq_job, 0, doc))

    def test_rejects_composite_listed_as_factor(self):
        doc = copy.deepcopy(SEQUENCE_DOC)
        doc["rows"][3]["factorization"]["factors"] = [[2, 5], [5 * 42461, 1]]
        problems = _check(self.seq_job, 0, doc)
        self.assertTrue(any("not prime" in p for p in problems), problems)

    def test_rejects_wrong_term(self):
        doc = copy.deepcopy(SEQUENCE_DOC)
        doc["rows"][2]["pn0"] = 885
        self.assertTrue(_check(self.seq_job, 0, doc))

    def test_accepts_true_certificate(self):
        self.assertEqual(_check(self.cert_job, 0, CERTIFY_DOC), [])

    def test_rejects_tampered_verdict(self):
        doc = copy.deepcopy(CERTIFY_DOC)
        doc["certificate"]["levels"][2]["verdict"] = "unknown"
        self.assertTrue(_check(self.cert_job, 0, doc))

    def test_rejects_tampered_bracket(self):
        doc = copy.deepcopy(CERTIFY_DOC)
        doc["certificate"]["levels"][1]["theta"]["strict_bracket"] = False
        self.assertTrue(_check(self.cert_job, 0, doc))

    def test_rejects_exit_code_that_contradicts_verdict(self):
        self.assertTrue(_check(self.cert_job, 1, CERTIFY_DOC))

    def test_rigid_violation_must_be_confirmed(self):
        job = jobs.rigid_job([1, 0, 1], [3, 0, 1], 4, [2])
        doc = {"bad_reduction_primes": [2], "warnings": [],
               "report": {"checked_primes": [5, 13, 17], "excluded": [2], "violations": [],
                          "status": "pass"}}
        self.assertEqual(_check(job, 0, doc), [])
        doc["report"]["violations"] = [{"prime": 5, "condition": 1, "indices": [2, 4],
                                        "detail": "made up"}]
        doc["report"]["status"] = "fail"
        self.assertTrue(_check(job, 5, doc))

    def test_orbit_points_are_recomputed(self):
        job = jobs.orbit_job([-98, 0, 1], [0, 0, 1], checker.Fraction(0), 3)
        doc = {"orbit": {"points": ["0", "inf", "1", "-97"], "status": "budget_exhausted",
                         "preperiod": None, "period": None}, "config": CONFIG}
        self.assertEqual(_check(job, 0, doc), [])
        doc["orbit"]["points"][3] = "-96"
        self.assertTrue(_check(job, 0, doc))


    def test_quadratic_critical_points_are_wronskian_roots(self):
        job = jobs.critical_job([2, 0, 1], [2, 2, 1])
        loc = lambda y: {"s": 2, "x": "0", "y": y}
        doc = {"critical": {"field": {"kind": "quadratic", "s": 2},
                            "points": [{"index": 2, "location": loc("1")},
                                       {"index": 2, "location": loc("-1")}]},
               "relation": {"kind": "collision", "n": 2, "m": None, "lead": None,
                            "value": {"s": 2, "x": "2/3", "y": "0"}}}
        self.assertEqual(_check(job, 0, doc), [])
        doc["critical"]["points"][1]["location"] = loc("2")
        self.assertTrue(_check(job, 0, doc))

    def test_normal_form_conjugator_is_applied(self):
        job = jobs.critical_job([-98, 0, 1], [0, 0, 1], "normal-form")
        doc = {"normal_form": {"kind": "bicritical", "degree": 2, "a": "-98", "b": "0", "c": None,
                               "mu": {"a": "1", "b": "0", "c": "0", "e": "1"},
                               "field": {"kind": "rational", "s": None}}}
        self.assertEqual(_check(job, 0, doc), [])
        doc["normal_form"]["a"] = "-97"
        self.assertTrue(_check(job, 0, doc))


class DeterminismTests(unittest.TestCase):
    def _rec(self, digest):
        return {"wall": 0.2, "rc": 0, "digest": digest, "bytes": 10, "status": "ok",
                "reason": None, "incorrect": False}

    def test_differing_bytes_fail(self):
        execs = {0: [self._rec("aa"), self._rec("aa"), self._rec("bb")],
                 1: [self._rec("cc"), self._rec("cc")]}
        run.mark_nondeterminism(execs)
        self.assertEqual([r["status"] for r in execs[0]], ["ok", "ok", "fail"])
        self.assertTrue(execs[0][2]["incorrect"])
        self.assertEqual([r["status"] for r in execs[1]], ["ok", "ok"])


class SpawnTests(unittest.TestCase):
    def test_timeout_kills_and_reports(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        rc, out, err, wall, timed_out, _ = run.spawn(
            [sys.executable, "-c", "import time; print('x', flush=True); time.sleep(30)"],
            run.child_env(), 0.5)
        self.assertTrue(timed_out)
        self.assertNotEqual(rc, 0)
        self.assertLess(wall, 10)

    def test_output_and_exit_code(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        rc, out, err, _, timed_out, rss_kb = run.spawn(
            [sys.executable, "-c", "import sys; print('y' * 200000); sys.exit(3)"],
            run.child_env(), 30)
        self.assertEqual((rc, timed_out), (3, False))
        self.assertEqual(out, b"y" * 200000 + b"\n")
        self.assertGreater(rss_kb, 0)


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for wl in jobs.WORKLOADS:
            self.assertEqual(jobs.make_jobs(wl, 7), jobs.make_jobs(wl, 7))
            self.assertNotEqual(jobs.make_jobs(wl, 7), jobs.make_jobs(wl, 8))

    def test_structure_does_not_depend_on_seed(self):
        for wl in jobs.WORKLOADS:
            shape = lambda s: sorted((j["kind"], j["key"][2]) for j in jobs.make_jobs(wl, s))
            self.assertEqual(shape(1), shape(2))

    def test_no_job_chooses_threads(self):
        for wl in jobs.WORKLOADS:
            for job in jobs.make_jobs(wl, 3):
                self.assertNotIn("--threads", job["argv"])

    def test_traced_run_reports_every_per_layer_metric(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        names = set(tracing.layer_metrics(tracing.Aggregate())) | set(run.RUN_LAYER_METRICS)
        self.assertEqual(names, {m["name"] for m in spec["per_layer"]})

    def test_tail_has_ten_jobs_beyond(self):
        pct, value = run.tail([float(i) for i in range(40)])
        self.assertEqual(value, 29.0)
        self.assertEqual(pct, 75.0)


if __name__ == "__main__":
    unittest.main()
