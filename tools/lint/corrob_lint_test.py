#!/usr/bin/env python3
"""Self-tests for corrob-lint.

Runs the linter over the checked-in fixture corpus (one known-bad
snippet per rule plus clean snippets) and asserts the exact rule IDs
and lines that fire; also unit-tests the lexer, suppression grammar and
statement analysis helpers directly.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corrob_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# The complete expected output of the fixture corpus: (path, line, rule).
EXPECTED = [
    ("src/common/bad_raw_io.cc", 9, "raw-io"),
    ("src/common/bad_raw_io.cc", 10, "raw-io"),
    ("src/common/bad_raw_io.cc", 11, "raw-io"),
    ("src/common/bad_raw_io.cc", 12, "raw-io"),
    ("src/core/bad_discard.cc", 26, "discarded-status"),
    ("src/core/bad_discard.cc", 27, "discarded-status"),
    ("src/core/bad_discard.cc", 28, "discarded-status"),
    ("src/core/bad_discard.cc", 29, "undocumented-discard"),
    ("src/core/bad_guard_macro.h", 2, "guard-style"),
    ("src/core/bad_guard_pragma.h", 2, "guard-style"),
    ("src/core/bad_include_order.cc", 3, "include-order"),
    ("src/core/bad_naked_new.cc", 11, "naked-new"),
    ("src/core/bad_naked_new.cc", 12, "naked-new"),
    ("src/core/bad_naked_new.cc", 17, "naked-new"),
    ("src/core/bad_naked_new.cc", 18, "naked-new"),
    ("src/core/bad_nolint.cc", 7, "bare-nolint"),
    ("src/core/bad_sleep.cc", 12, "raw-sleep"),
    ("src/core/bad_sleep.cc", 14, "raw-sleep"),
    ("src/core/bad_nondet.cc", 11, "nondeterminism"),
    ("src/core/bad_nondet.cc", 12, "nondeterminism"),
    ("src/core/bad_nondet.cc", 13, "nondeterminism"),
    ("src/core/bad_nondet.cc", 18, "nondeterminism"),
    ("src/core/bad_nondet.cc", 19, "nondeterminism"),
    ("src/core/bad_suppression.cc", 14, "bad-suppression"),
    ("src/core/bad_suppression.cc", 14, "undocumented-discard"),
    ("src/core/bad_suppression.cc", 15, "bad-suppression"),
    ("src/core/bad_suppression.cc", 15, "undocumented-discard"),
    ("src/server/bad_blocking_under_lock.cc", 22, "blocking-under-lock"),
    ("src/server/bad_blocking_under_lock.cc", 27, "blocking-under-lock"),
    ("src/server/bad_cv_wait.cc", 18, "cv-wait-predicate"),
    ("src/server/bad_cv_wait.cc", 23, "cv-wait-predicate"),
    ("src/server/bad_manual_lock.cc", 15, "manual-lock"),
    ("src/server/bad_manual_lock.cc", 17, "manual-lock"),
    ("src/server/bad_manual_lock.cc", 21, "manual-lock"),
    ("src/server/bad_unguarded_mutex.h", 19, "unguarded-mutex"),
    ("src/server/bad_unguarded_mutex.h", 24, "unguarded-mutex"),
    ("tests/bad_temp_dir_test.cc", 8, "tempdir-literal"),
    ("tests/bad_temp_dir_test.cc", 12, "tempdir-literal"),
    ("tests/bad_temp_dir_test.cc", 17, "tempdir-literal"),
]


class FixtureCorpusTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.violations = corrob_lint.run_lint(FIXTURES)

    def test_exact_violation_set(self):
        got = sorted((v.path, v.line, v.rule) for v in self.violations)
        self.assertEqual(got, sorted(EXPECTED))

    def test_clean_fixtures_pass(self):
        clean_hits = [v for v in self.violations
                      if os.path.basename(v.path).startswith("clean")]
        self.assertEqual(clean_hits, [])

    def test_every_rule_has_a_firing_fixture(self):
        fired = {v.rule for v in self.violations}
        self.assertEqual(fired, set(corrob_lint.RULES))

    def test_suppressed_lines_do_not_fire(self):
        # bad_nondet.cc line 25 carries a nondet-ok suppression;
        # bad_discard.cc line 35 carries a discard-ok suppression.
        lines = {(v.path, v.line) for v in self.violations}
        self.assertNotIn(("src/core/bad_nondet.cc", 25), lines)
        self.assertNotIn(("src/core/bad_discard.cc", 35), lines)

    def test_concurrency_suppressions_do_not_fire(self):
        # Each concurrency fixture carries one suppressed occurrence:
        # mutex-ok (bad_unguarded_mutex.h:37), lock-ok
        # (bad_manual_lock.cc:23), cvwait-ok (bad_cv_wait.cc:34),
        # blocking-ok (bad_blocking_under_lock.cc:41).
        lines = {(v.path, v.line) for v in self.violations}
        self.assertNotIn(("src/server/bad_unguarded_mutex.h", 37), lines)
        self.assertNotIn(("src/server/bad_manual_lock.cc", 23), lines)
        self.assertNotIn(("src/server/bad_cv_wait.cc", 34), lines)
        self.assertNotIn(("src/server/bad_blocking_under_lock.cc", 41), lines)

    def test_raii_early_release_is_not_flagged(self):
        # unique_lock::unlock() (bad_manual_lock.cc:30) is sanctioned.
        lines = {(v.path, v.line) for v in self.violations}
        self.assertNotIn(("src/server/bad_manual_lock.cc", 30), lines)


def lex(text, path="src/core/x.cc"):
    return corrob_lint.lex_file(path, path, text)


class LexerTest(unittest.TestCase):
    def test_line_comments_are_separated(self):
        sf = lex("int x = 1;  // std::cout << x;\n")
        self.assertNotIn("cout", sf.code_lines[0])
        self.assertIn("std::cout", sf.comment_lines[0])

    def test_block_comments_span_lines(self):
        sf = lex("/* rand()\n   srand(7) */ int y;\n")
        self.assertNotIn("rand", sf.code_lines[0])
        self.assertNotIn("srand", sf.code_lines[1])
        self.assertIn("int y;", sf.code_lines[1])

    def test_string_literals_are_blanked(self):
        sf = lex('const char* s = "new delete rand()";\n')
        self.assertNotIn("rand", sf.code_lines[0])
        self.assertNotIn("new", sf.code_lines[0])

    def test_raw_strings_are_blanked(self):
        sf = lex('auto s = R"(line1 std::cout\nline2 rand())";\nint z;\n')
        self.assertNotIn("cout", sf.code_lines[0])
        self.assertNotIn("rand", sf.code_lines[1])
        self.assertIn("int z;", sf.code_lines[2])

    def test_escaped_quotes_do_not_end_strings(self):
        sf = lex('const char* s = "a\\"b rand()";\nint w;\n')
        self.assertNotIn("rand", sf.code_lines[0])
        self.assertIn("int w;", sf.code_lines[1])


class SuppressionTest(unittest.TestCase):
    def parse(self, text):
        sf = lex(text)
        errors = []
        sup = corrob_lint.Suppressions(sf, errors)
        return sup, errors

    def test_same_line_suppression(self):
        sup, errors = self.parse("(void)F();  // lint: discard-ok: shutdown path\n")
        self.assertEqual(errors, [])
        self.assertTrue(sup.active("undocumented-discard", 1))

    def test_previous_line_suppression(self):
        sup, errors = self.parse(
            "// lint: nondet-ok: benchmarking only\nint x = foo();\n")
        self.assertEqual(errors, [])
        self.assertTrue(sup.active("nondeterminism", 2))

    def test_missing_reason_is_reported(self):
        _, errors = self.parse("(void)F();  // lint: discard-ok\n")
        self.assertEqual([e.rule for e in errors], ["bad-suppression"])

    def test_unknown_tag_is_reported(self):
        _, errors = self.parse("(void)F();  // lint: sloppy-ok: because\n")
        self.assertEqual([e.rule for e in errors], ["bad-suppression"])

    def test_wrong_tag_does_not_suppress(self):
        sup, _ = self.parse("(void)F();  // lint: io-ok: not the right tag\n")
        self.assertFalse(sup.active("undocumented-discard", 1))


class StatementAnalysisTest(unittest.TestCase):
    def test_control_prefix_stripping(self):
        strip = corrob_lint.strip_control_prefixes
        self.assertEqual(strip("if (a(b) && c) Save(x)"), "Save(x)")
        self.assertEqual(strip("for (int i = 0; i < n; ++i) Save(i)"),
                         "Save(i)")
        self.assertEqual(strip("else if (z) Save(q)"), "Save(q)")
        self.assertEqual(strip("Save(x)"), "Save(x)")

    def test_toplevel_assignment_detection(self):
        has = corrob_lint.has_toplevel_assignment
        self.assertTrue(has("Status s = Save(x)"))
        self.assertTrue(has("auto r = Load(y)"))
        self.assertFalse(has("Save(x == y)"))
        self.assertFalse(has("Check(a <= b, c >= d)"))

    def test_guard_macro_derivation(self):
        self.assertEqual(corrob_lint.expected_guard("src/core/vote_matrix.h"),
                         "CORROB_CORE_VOTE_MATRIX_H_")
        self.assertEqual(
            corrob_lint.expected_guard("tests/testing/property.h"),
            "CORROB_TESTS_TESTING_PROPERTY_H_")


class DeclarationScanTest(unittest.TestCase):
    def test_status_and_result_functions_are_collected(self):
        sf = lex("Status Save(const std::string& p);\n"
                 "Result<int> Load(const std::string& p);\n"
                 "Result<std::vector<double>> Weights();\n"
                 "int NotCollected();\n")
        names = corrob_lint.collect_status_returning([sf])
        self.assertIn("Save", names)
        self.assertIn("Load", names)
        self.assertIn("Weights", names)
        self.assertNotIn("NotCollected", names)

    def test_cv_names_are_collected_tree_wide(self):
        header = lex("std::condition_variable slot_freed_;\n",
                     path="src/server/x.h")
        other = lex("std::condition_variable_any any_cv_;\n"
                    "std::mutex not_a_cv_;\n")
        names = corrob_lint.collect_cv_names([header, other])
        self.assertIn("slot_freed_", names)
        self.assertIn("any_cv_", names)
        self.assertNotIn("not_a_cv_", names)


class ConcurrencyHelperTest(unittest.TestCase):
    def test_top_level_comma_count(self):
        count = corrob_lint._top_level_comma_count
        self.assertEqual(count("(lock)", 0), (0, True))
        self.assertEqual(count("(lock, ms)", 0), (1, True))
        self.assertEqual(count("(lock, ms, [&] { return a, b; })", 0),
                         (2, True))
        self.assertEqual(count("(f(a, b))", 0), (0, True))
        self.assertEqual(count("(unclosed", 0), (0, False))

    def run_concurrency(self, text, path="src/server/x.cc"):
        sf = lex(text, path=path)
        sup = corrob_lint.Suppressions(sf, [])
        cv_names = corrob_lint.collect_cv_names([sf])
        out = []
        corrob_lint.check_concurrency(sf, sup, cv_names, out)
        return out

    def test_member_cv_wait_across_files_uses_global_names(self):
        # The cv is declared in a header; the bare wait in the .cc must
        # still fire because cv names are collected tree-wide.
        header = lex("std::condition_variable slot_freed_;\n",
                     path="src/server/x.h")
        cc = lex("void F() {\n"
                 "  std::unique_lock<std::mutex> lock(mutex_);\n"
                 "  slot_freed_.wait(lock);\n"
                 "}\n", path="src/server/x.cc")
        cv_names = corrob_lint.collect_cv_names([header, cc])
        out = []
        corrob_lint.check_concurrency(
            cc, corrob_lint.Suppressions(cc, []), cv_names, out)
        self.assertEqual([(v.line, v.rule) for v in out],
                         [(3, "cv-wait-predicate")])

    def test_lock_scope_ends_at_closing_brace(self):
        out = self.run_concurrency(
            "void F(const Token& t) {\n"
            "  {\n"
            "    std::lock_guard<std::mutex> lock(annotated_);\n"
            "  }\n"
            "  t.WaitForMs(5);\n"
            "}\n"
            "int x CORROB_GUARDED_BY(annotated_);\n"
            "std::mutex annotated_;\n")
        self.assertEqual(out, [])

    def test_non_src_paths_are_skipped(self):
        out = self.run_concurrency(
            "std::mutex naked_;\n", path="tests/server/x.cc")
        self.assertEqual(out, [])


class SummaryTest(unittest.TestCase):
    def test_render_summary_counts_by_rule(self):
        V = corrob_lint.Violation
        text = corrob_lint.render_summary([
            V("a.cc", 1, "manual-lock", "m"),
            V("a.cc", 2, "manual-lock", "m"),
            V("b.h", 3, "unguarded-mutex", "m"),
        ])
        lines = text.splitlines()
        self.assertIn("corrob_lint summary (violations by rule):", lines)
        # Highest count first, then alphabetical.
        self.assertRegex(lines[-2], r"^  manual-lock\s+2$")
        self.assertRegex(lines[-1], r"^  unguarded-mutex\s+1$")

    def test_summary_flag_prints_table_on_failure(self):
        import contextlib
        import io
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = corrob_lint.main(
                ["--root", FIXTURES, "--summary"])
        self.assertEqual(status, 1)
        self.assertIn("corrob_lint summary (violations by rule):",
                      err.getvalue())


if __name__ == "__main__":
    unittest.main()
