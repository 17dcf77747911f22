"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
    python3 -m unittest discover -s perfbench

Wrong answers are built here and handed to the checkers; the library is
never asked to produce one.
"""

from __future__ import annotations

import ast
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import calib
import stats
from checks import (
    FAILED,
    OK,
    UNDECIDED,
    check_cli,
    check_group,
    check_quotient_report,
    check_report,
    check_same,
    digest,
    h1_closed_form,
    parse_comb_output,
)
from paths import HERE, SRC
from spans import TRACED, Span, Tracer, self_times, totals_by_name


class TailPercentileTest(unittest.TestCase):
    def test_highest_candidate_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(42), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(6400), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(19)

    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
        self.assertEqual(stats.percentile(values, 50.0), 50.0)
        self.assertEqual(stats.percentile(values, 90.0), 90.0)
        self.assertEqual(stats.percentile(values, 99.9), 100.0)
        beyond = sum(1 for v in values if v > stats.percentile(values, stats.tail_percentile(100)))
        self.assertGreaterEqual(beyond, stats.MIN_BEYOND)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span(0, -1, 0, "root", 0.0, 10.0, None),
            Span(1, 0, 0, "a", 1.0, 4.0, None),
            Span(2, 1, 0, "leaf", 2.0, 3.0, None),
            Span(3, 0, 0, "b", 3.0, 6.0, None),  # overlaps a: counted once
            Span(4, 0, 0, "c", 8.0, 12.0, "WordSizeExceededError"),  # clipped at 10
            Span(5, -1, 1, "a", 20.0, 20.5, None),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 4.0)
        self.assertAlmostEqual(own[5], 0.5)
        calls, duration, selft = totals_by_name(spans)["a"]
        self.assertEqual(calls, 2)
        self.assertAlmostEqual(duration, 3.5)
        self.assertAlmostEqual(selft, 2.5)


class CheckerTest(unittest.TestCase):
    def test_h1_closed_form(self):
        self.assertEqual(h1_closed_form(9), (9, ()))
        self.assertEqual(h1_closed_form(9, [0] * 9), (9, ()))
        self.assertEqual(h1_closed_form(9, [1, -1, 0]), (8, ()))
        self.assertEqual(h1_closed_form(9, [2, 0, -4]), (8, (2,)))

    def test_wrong_group_is_flagged(self):
        right = SimpleNamespace(free_rank=9, torsion=())
        wrong_rank = SimpleNamespace(free_rank=8, torsion=())
        wrong_torsion = SimpleNamespace(free_rank=8, torsion=(3,))
        self.assertEqual(check_group(right, h1_closed_form(9)), OK)
        self.assertEqual(check_group(wrong_rank, h1_closed_form(9)), FAILED)
        self.assertEqual(check_group(wrong_torsion, h1_closed_form(9, [2, 4])), FAILED)

    def test_reports(self):
        z2 = SimpleNamespace(torsion=(2,))
        self.assertEqual(check_quotient_report(SimpleNamespace(ok=True, from_cokernel=z2)), OK)
        no_z2 = SimpleNamespace(ok=True, from_cokernel=SimpleNamespace(torsion=()))
        self.assertEqual(check_quotient_report(no_z2), FAILED)
        self.assertEqual(check_quotient_report(SimpleNamespace(ok=False, from_cokernel=z2)), FAILED)
        self.assertEqual(check_report(SimpleNamespace(ok=False)), FAILED)

    def test_wrong_normal_form_is_flagged(self):
        self.assertEqual(check_same(("r(2,1)", ""), ("r(2,1)", "")), OK)
        self.assertEqual(check_same(("r(2,1)^-1", ""), ("r(2,1)", "")), FAILED)

    def test_cli_outputs(self):
        out = "level 2: r(2,1)\nlevel 1: 1\n"
        self.assertEqual(check_cli(0, out, digest(out)), OK)
        self.assertEqual(check_cli(0, out.replace("r(2,1)", "r(2,0)"), digest(out)), FAILED)
        self.assertEqual(check_cli(1, out, digest(out)), FAILED)
        self.assertEqual(check_cli(3, "", digest(out)), UNDECIDED)
        self.assertEqual(parse_comb_output(out), [(2, "r(2,1)"), (1, "1")])
        with self.assertRaises(ValueError):
            parse_comb_output("PASS r(1,0)\n")


class SpeedProbeTest(unittest.TestCase):
    def probe(self, samples):
        probe = calib.SpeedProbe()
        probe.times = [t for t, _ in samples]
        probe.durations = [d for _, d in samples]
        return probe

    def test_scale_uses_samples_near_the_operation(self):
        ref = calib.REFERENCE_KERNEL_S
        slow = [(0.2 * i, 2 * ref) for i in range(40)]  # 0 .. 7.8 s at half speed
        fast = [(20.0 + 0.2 * i, ref) for i in range(40)]  # 20 .. 27.8 s at full speed
        probe = self.probe(slow + fast)
        self.assertAlmostEqual(probe.scale_at(4.0), 0.5)
        self.assertAlmostEqual(probe.scale_at(24.0), 1.0)
        self.assertAlmostEqual(probe.kernel_s_at(4.0), 2 * ref)

    def test_sparse_window_falls_back_to_nearest_samples(self):
        samples = [(float(i), 0.001 * (i + 1)) for i in range(10)]  # one per second
        probe = self.probe(samples)
        # Within 2 s of t = 0 lie only 3 samples; the nearest 7 are t = 0..6.
        self.assertAlmostEqual(probe.kernel_s_at(0.0), 0.004)
        with self.assertRaises(ValueError):
            calib.SpeedProbe().kernel_s_at(0.0)

    def test_kernel_is_deterministic(self):
        self.assertEqual(calib.kernel(), calib.kernel())


FORBIDDEN = {"Tower" + "Spec", "Tower" + "Level"}  # removed by a planned refactor


def private_reaches(source: str) -> list[str]:
    """Every place a module reaches a private or soon-removed name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("braidcomb"):
            parts = node.module.split(".") + [a.name for a in node.names]
            found += [p for p in parts if p.startswith("_") or p in FORBIDDEN]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("braidcomb"):
                    found += [p for p in alias.name.split(".") if p.startswith("_")]
        elif isinstance(node, ast.Attribute):
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            if (node.attr.startswith("_") and not dunder) or node.attr in FORBIDDEN:
                found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            value = node.value
            private = len(value) > 1 and value.startswith("_") and not value.startswith("__")
            if value in FORBIDDEN or (private and value.isidentifier()):
                found.append(value)
    return found


class PublicApiTest(unittest.TestCase):
    def test_benchmark_reaches_no_private_name(self):
        this = Path(__file__).resolve()
        for path in sorted(HERE.glob("*.py")):
            if path == this:
                continue  # this file names the forbidden strings to find them
            with self.subTest(file=path.name):
                self.assertEqual(private_reaches(path.read_text()), [])

    def test_scanner_catches_private_reaches(self):
        src = (
            "from braidcomb.combing import _Comber\n"
            "import braidcomb\n"
            "braidcomb.combing._comber_for(1)\n"
            "getattr(braidcomb, '_make_tower')\n"
            "from braidcomb import " + "Tower" + "Spec\n"
        )
        self.assertEqual(sorted(private_reaches(src)), sorted(["_Comber", "_comber_for", "_make_tower", "Tower" + "Spec"]))

    def test_traced_names_are_public(self):
        for layer, names in TRACED.items():
            self.assertFalse(layer.startswith("_"))
            for name in names:
                self.assertFalse(name.startswith("_"), name)


class TracerTest(unittest.TestCase):
    def setUp(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def test_install_records_nested_spans_and_uninstall_restores(self):
        import braidcomb as bc

        original = bc.words_equal, bc.combing.comb
        tracer = Tracer()
        tracer.install()
        try:
            p = bc.orbit_presentation(2)
            w = bc.parse_word("r(2,1) r(1,0)")
            self.assertTrue(bc.words_equal(p, w, w))
        finally:
            tracer.uninstall()
        self.assertEqual((bc.words_equal, bc.combing.comb), original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names.count("combing.comb"), 2)
        outer = next(s for s in tracer.spans if s.name == "combing.words_equal")
        inner = [s for s in tracer.spans if s.parent_id == outer.span_id]
        self.assertEqual([s.name for s in inner], ["combing.comb", "combing.comb"])
        self.assertTrue(all(outer.start <= s.start <= s.end <= outer.end for s in inner))


if __name__ == "__main__":
    unittest.main()
