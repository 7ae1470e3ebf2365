#!/usr/bin/env python3
"""corrob-lint: project-specific static analysis for the corrob tree.

Walks src/ and tests/ enforcing invariants the compiler cannot (or that
we want flagged before a compiler ever runs):

  discarded-status      A statement calls a function returning Status or
                        Result<T> and ignores the value. Either propagate
                        the status or cast to (void) with a documented
                        suppression.
  undocumented-discard  A `(void)call(...)` cast without a
                        `// lint: discard-ok: <reason>` comment. Every
                        surviving discard must be a reviewed decision.
  nondeterminism        rand()/srand()/std::random_device/time()/clock()/
                        std::chrono::*_clock::now() inside src/core,
                        src/eval, src/synth, src/ml or src/obs.
                        Deterministic code must go through
                        src/common/random.h (seeded RNG) or
                        src/common/timer.h (StopwatchNs over an injected
                        obs::Clock); obs::MonotonicClock::NowNanos is
                        the one sanctioned wall-clock read.
  raw-io                std::cout/std::cerr/printf/fprintf/puts in library
                        code. src/cli and src/common/logging are the
                        sanctioned output paths; everything else returns
                        strings or takes an ostream.
  naked-new             `new` or `delete` outside std::make_unique/
                        make_shared in src/. Ownership is expressed with
                        smart pointers.
  include-order         A .cc file under src/ must include its own header
                        first, so every header is verified self-contained.
  guard-style           Headers use `#ifndef CORROB_<PATH>_H_` include
                        guards (the project style); `#pragma once` is
                        rejected for consistency.
  bare-nolint           A clang-tidy NOLINT comment without a check list
                        and trailing rationale.
  bad-suppression       A `// lint:` comment that does not parse, names an
                        unknown rule tag, or omits the rationale.
  unguarded-mutex       A std::mutex member declared in src/ with no
                        CORROB_GUARDED_BY / CORROB_REQUIRES (etc.) user
                        naming it anywhere in the file. Every lock must
                        state what it protects (common/thread_annotations.h).
  manual-lock           Raw `.lock()` / `.unlock()` on a mutex instead of
                        RAII lock_guard/unique_lock/scoped_lock. Early
                        release through a unique_lock variable is fine.
  cv-wait-predicate     condition_variable wait/wait_for/wait_until called
                        without a predicate overload — a bare wait is
                        lost-wakeup- and spurious-wakeup-prone. Bounded
                        poll slices that re-check a StopSignal suppress
                        with a rationale.
  blocking-under-lock   A known blocking call (frame/socket I/O, WaitForMs,
                        Retry) made lexically inside a RAII lock scope.
                        Blocking while holding a mutex stalls every other
                        thread that needs it.
  tempdir-literal       A string literal joined to ::testing::TempDir().
                        ctest runs tests as parallel processes, so a fixed
                        name there is shared between them; use
                        tests/testing/temp_dir.h instead.

Suppression grammar (same line as the violation, or alone on the line
directly above it):

    // lint: <tag>-ok: <reason>

where <tag> is one of discard, nondet, io, new, include, guard, mutex,
lock, cvwait, blocking, tempdir and <reason> is non-empty free text. Example:

    (void)Failpoints::Disarm(name);  // lint: discard-ok: best-effort cleanup

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

RULES = {
    "discarded-status": "Status/Result return value ignored",
    "undocumented-discard": "(void) discard without `// lint: discard-ok: <reason>`",
    "nondeterminism": "unsanctioned randomness or wall-clock in deterministic code",
    "raw-sleep": "uninterruptible sleep in library code (use budget/retry waits)",
    "raw-io": "stdout/stderr I/O in library code (use common/logging)",
    "naked-new": "raw new/delete (use std::make_unique / containers)",
    "include-order": "self-header is not the first include",
    "guard-style": "missing/incorrect CORROB_*_H_ include guard or #pragma once",
    "bare-nolint": "NOLINT without a check list and trailing rationale",
    "bad-suppression": "malformed `// lint:` suppression comment",
    "unguarded-mutex": "mutex member with no CORROB_GUARDED_BY/REQUIRES user",
    "manual-lock": "manual .lock()/.unlock() instead of an RAII lock",
    "cv-wait-predicate": "condition_variable wait without a predicate",
    "blocking-under-lock": "blocking call made while a RAII lock is held",
    "tempdir-literal": "fixed file name under the shared gtest TempDir()",
}

# Suppression tag accepted by each suppressible rule.
RULE_TAG = {
    "discarded-status": "discard",
    "undocumented-discard": "discard",
    "nondeterminism": "nondet",
    "raw-sleep": "sleep",
    "raw-io": "io",
    "naked-new": "new",
    "include-order": "include",
    "guard-style": "guard",
    "unguarded-mutex": "mutex",
    "manual-lock": "lock",
    "cv-wait-predicate": "cvwait",
    "blocking-under-lock": "blocking",
    "tempdir-literal": "tempdir",
}
KNOWN_TAGS = set(RULE_TAG.values())

SUPPRESS_RE = re.compile(r"lint:\s*([a-z-]+)-ok\s*(?::\s*(.*\S))?\s*$")
SUPPRESS_HINT_RE = re.compile(r"\blint\s*:")

SOURCE_EXTENSIONS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A lexed translation unit: code with comments/literals blanked out,
    plus the comment text per line for suppression lookups."""

    path: str  # root-relative, '/'-separated
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)
    comment_lines: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# Lexer: split C++ into code and comments, blanking string/char literals
# --------------------------------------------------------------------------


def lex_file(path: str, rel: str, text: str) -> SourceFile:
    raw_lines = text.split("\n")
    n = len(raw_lines)
    code = [[] for _ in range(n)]
    comments = [[] for _ in range(n)]

    i = 0
    line = 0
    length = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw_string
    raw_terminator = ""

    def emit(bucket, ch):
        bucket[line].append(ch)

    while i < length:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < length else ""
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            line += 1
            i += 1
            continue

        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                # Raw string literal?  R"delim( ... )delim"
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i - 1 : i + 20]) if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_terminator = ")" + m.group(1) + '"'
                    state = "raw_string"
                    emit(code, '"')
                    i += 1 + len(m.group(1)) + 1  # skip delim and '('
                    continue
                state = "string"
                emit(code, '"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                emit(code, "'")
                i += 1
                continue
            emit(code, ch)
            i += 1
            continue

        if state == "line_comment":
            emit(comments, ch)
            i += 1
            continue

        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            emit(comments, ch)
            i += 1
            continue

        if state == "string":
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                emit(code, '"')
                state = "code"
            i += 1
            continue

        if state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                emit(code, "'")
                state = "code"
            i += 1
            continue

        if state == "raw_string":
            if text.startswith(raw_terminator, i):
                emit(code, '"')
                state = "code"
                i += len(raw_terminator)
                continue
            i += 1
            continue

        raise AssertionError(f"unknown lexer state {state}")

    return SourceFile(
        path=rel,
        raw_lines=raw_lines,
        code_lines=["".join(parts) for parts in code],
        comment_lines=["".join(parts) for parts in comments],
    )


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


class Suppressions:
    """Parses `// lint: <tag>-ok: reason` comments for one file."""

    def __init__(self, sf: SourceFile, violations: list[Violation]):
        # line number (1-based) -> set of tags suppressing that line
        self.by_line: dict[int, set] = {}
        for idx, comment in enumerate(sf.comment_lines):
            if not SUPPRESS_HINT_RE.search(comment):
                continue
            lineno = idx + 1
            m = SUPPRESS_RE.search(comment)
            if not m:
                violations.append(
                    Violation(sf.path, lineno, "bad-suppression",
                              "cannot parse; expected `// lint: <tag>-ok: <reason>`"))
                continue
            tag, reason = m.group(1), m.group(2)
            if tag not in KNOWN_TAGS:
                violations.append(
                    Violation(sf.path, lineno, "bad-suppression",
                              f"unknown suppression tag '{tag}-ok' "
                              f"(known: {', '.join(sorted(KNOWN_TAGS))})"))
                continue
            if not reason:
                violations.append(
                    Violation(sf.path, lineno, "bad-suppression",
                              f"suppression '{tag}-ok' carries no rationale"))
                continue
            # A comment-only line suppresses the next code line; any
            # suppression also covers its own line.
            self.by_line.setdefault(lineno, set()).add(tag)
            if not sf.code_lines[idx].strip():
                self.by_line.setdefault(lineno + 1, set()).add(tag)

    def active(self, rule: str, lineno: int) -> bool:
        tag = RULE_TAG.get(rule)
        return tag is not None and tag in self.by_line.get(lineno, set())


# --------------------------------------------------------------------------
# Pass 1: collect names of functions returning Status / Result<T>
# --------------------------------------------------------------------------

DECL_RE = re.compile(
    r"\b(?:Status|Result\s*<[^;{}=]{1,120}?>)\s*&?\s+([A-Za-z_]\w*)\s*\(")

# Declarations that return Status/Result but whose *name* collides with
# too-generic identifiers: CorrobdServer::Start() returns Status, but
# TraceRecorder::Start() returns void, so flagging every `Start(` call
# would misfire; likewise WalWriter::Append() returns Status while
# obs::JsonValue::Append() returns void. [[nodiscard]] on the
# Status-returning overloads keeps the compiler enforcing what the
# lint skips here.
DECL_NAME_BLOCKLIST = {"Start", "Append"}


def collect_status_returning(files) -> set:
    names = set()
    for sf in files:
        for code in sf.code_lines:
            for m in DECL_RE.finditer(code):
                name = m.group(1)
                if name in DECL_NAME_BLOCKLIST:
                    continue
                # Skip control-flow false positives such as
                # `Status foo = ...` (no '(' match anyway) and casts.
                names.add(name)
    # Result/Status member helpers that return a *reference to self* or a
    # plain accessor are not collected by the regex (they return
    # `const Status&` with '&' — allowed by the regex on purpose:
    # discarding `r.status()` is still pointless).
    names.update({"status", "ValueOrDie"})
    return names


# --------------------------------------------------------------------------
# Statement iteration
# --------------------------------------------------------------------------


def iter_statements(sf: SourceFile):
    """Yields (start_line, text) for each `;`-terminated statement at
    paren depth zero.  Braces act as statement boundaries, so compound
    bodies decompose into the statements inside them."""
    buf = []
    start_line = None
    depth = 0
    for idx, code in enumerate(sf.code_lines):
        lineno = idx + 1
        stripped = code.strip()
        if stripped.startswith("#"):  # preprocessor line, not a statement
            continue
        for ch in code:
            if ch == "(" or ch == "[":
                depth += 1
            elif ch == ")" or ch == "]":
                depth = max(0, depth - 1)
            if depth == 0 and ch in ";{}":
                text = "".join(buf).strip()
                if text and start_line is not None and ch == ";":
                    yield start_line, text
                buf = []
                start_line = None
                continue
            if ch.strip():
                if start_line is None:
                    start_line = lineno
                buf.append(ch)
            elif buf:
                buf.append(" ")


CONTROL_PREFIX_RE = re.compile(r"^(?:else\b|do\b|if\s*\(|for\s*\(|while\s*\(|switch\s*\()")
SKIP_STMT_RE = re.compile(
    r"^(?:return\b|co_return\b|throw\b|case\b|default\s*:|goto\b|break\b|"
    r"continue\b|using\b|typedef\b|template\b|namespace\b|friend\b|"
    r"static_assert\b|extern\b|public\s*:|private\s*:|protected\s*:)")
VOID_CAST_RE = re.compile(r"^\(\s*void\s*\)\s*(.*)$")
CALL_HEAD_RE = re.compile(
    r"^((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*)([A-Za-z_]\w*)\s*\(")


def strip_control_prefixes(text: str) -> str:
    """Removes leading `if (...)`, `for (...)`, `while (...)`, `else`,
    `do` so the guarded statement itself gets analyzed."""
    changed = True
    while changed:
        changed = False
        text = text.lstrip()
        m = CONTROL_PREFIX_RE.match(text)
        if not m:
            return text
        if m.group(0) in ("else", "do"):
            text = text[m.end():]
            changed = True
            continue
        # Skip the balanced parenthesized condition.
        depth = 0
        for i in range(m.end() - 1, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    text = text[i + 1:]
                    changed = True
                    break
        else:
            return text
    return text


def has_toplevel_assignment(text: str) -> bool:
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif ch == "=" and depth == 0:
            before = text[i - 1] if i > 0 else ""
            after = text[i + 1] if i + 1 < len(text) else ""
            if before not in "=!<>+-*/%&|^" and after != "=":
                return True
    return False


# --------------------------------------------------------------------------
# Individual rules
# --------------------------------------------------------------------------


def in_dirs(path: str, dirs) -> bool:
    return any(path == d or path.startswith(d + "/") for d in dirs)


NONDET_SCOPE = ("src/core", "src/eval", "src/synth", "src/ml", "src/obs",
                "src/server", "tools/corrobctl")
NONDET_PATTERNS = [
    (re.compile(r"\b(?:rand|srand)\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0|&|\))"), "time()"),
    (re.compile(r"(?<![\w.])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\b\w*_clock\s*::\s*now\s*\("), "std::chrono::*_clock::now()"),
]

# The only places allowed to block a thread on wall clock: the budget
# primitives own the one interruptible wait (CancellationToken::
# WaitForMs) and retry's backoff delegates to it / to its test shim.
# Everything else must poll a StopSignal or route the wait through
# those, or a deadline-bound run cannot be cancelled promptly.
RAW_SLEEP_EXEMPT_FILES = {
    "src/common/budget.h", "src/common/budget.cc",
    "src/common/retry.h", "src/common/retry.cc",
}
RAW_SLEEP_RE = re.compile(
    r"\bstd\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\s*\(")

RAW_IO_EXEMPT = ("src/cli",)
RAW_IO_EXEMPT_FILES = {
    "src/common/logging.h", "src/common/logging.cc",
}
RAW_IO_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout"),
    (re.compile(r"\bstd\s*::\s*cerr\b"), "std::cerr"),
    (re.compile(r"(?<![\w:])(?:printf|fprintf|puts|fputs)\s*\("),
     "printf-family stdio"),
]

NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
DELETE_RE = re.compile(r"(?<![\w.])delete\b(?:\s*\[\s*\])?")
DELETED_FN_RE = re.compile(r"=\s*(?:delete\s*(?:\[\s*\]\s*)?|default\s*)(?:;|$)")
MAKE_WRAPPED_RE = re.compile(r"make_(?:unique|shared)")

NOLINT_RE = re.compile(r"\bNOLINT(?:NEXTLINE)?\b(.*)")
NOLINT_OK_RE = re.compile(r"^\(([^)]+)\)\s*:?\s*\S+")

GUARD_EXEMPT_SUFFIXES = ("-inl.h",)

# Literals are blanked to "" by the lexer; `/` covers filesystem::path
# joins, and the match may span lines.
TEMPDIR_LITERAL_RE = re.compile(r'\bTempDir\(\s*\)\s*\)?\s*[+/]\s*"')


def check_text_rules(sf: SourceFile, sup: Suppressions, out: list[Violation]):
    path = sf.path
    is_header = path.endswith((".h", ".hh", ".hpp"))

    nondet_applies = in_dirs(path, NONDET_SCOPE)
    raw_sleep_applies = (
        path.startswith("src/") and path not in RAW_SLEEP_EXEMPT_FILES
    )
    raw_io_applies = (
        path.startswith("src/")
        and not in_dirs(path, RAW_IO_EXEMPT)
        and path not in RAW_IO_EXEMPT_FILES
    )
    naked_new_applies = path.startswith("src/")

    for idx, code in enumerate(sf.code_lines):
        lineno = idx + 1
        if nondet_applies:
            for pattern, label in NONDET_PATTERNS:
                if pattern.search(code) and not sup.active("nondeterminism", lineno):
                    out.append(Violation(
                        path, lineno, "nondeterminism",
                        f"{label}: use common/random.h (seeded) or "
                        "common/timer.h instead"))
        if raw_sleep_applies and RAW_SLEEP_RE.search(code) \
                and not sup.active("raw-sleep", lineno):
            out.append(Violation(
                path, lineno, "raw-sleep",
                "std::this_thread::sleep_* outside common/budget and "
                "common/retry: blocking waits must be interruptible — "
                "use CancellationToken::WaitForMs or poll a StopSignal"))
        if raw_io_applies:
            for pattern, label in RAW_IO_PATTERNS:
                if pattern.search(code) and not sup.active("raw-io", lineno):
                    out.append(Violation(
                        path, lineno, "raw-io",
                        f"{label} in library code: return strings, take an "
                        "ostream&, or use CORROB_LOG_*"))
        if naked_new_applies:
            stripped = DELETED_FN_RE.sub("", code)
            hit = None
            if NEW_RE.search(stripped) and not MAKE_WRAPPED_RE.search(stripped):
                hit = "naked new"
            elif DELETE_RE.search(stripped):
                hit = "naked delete"
            if hit and not sup.active("naked-new", lineno):
                out.append(Violation(
                    path, lineno, "naked-new",
                    f"{hit}: express ownership with std::make_unique/"
                    "containers (suppress with `// lint: new-ok: <reason>` "
                    "for intentional leaks)"))

    # bare-nolint inspects comments, not code.
    for idx, comment in enumerate(sf.comment_lines):
        m = NOLINT_RE.search(comment)
        if m and not NOLINT_OK_RE.match(m.group(1).strip()):
            out.append(Violation(
                path, idx + 1, "bare-nolint",
                "NOLINT must name its checks and reason: "
                "`// NOLINT(check-name): why`"))

    # guard-style for headers.
    if is_header and not path.endswith(GUARD_EXEMPT_SUFFIXES):
        check_guard(sf, sup, out)

    code = "\n".join(sf.code_lines)
    for m in TEMPDIR_LITERAL_RE.finditer(code):
        lineno = code.count("\n", 0, m.start()) + 1
        if not sup.active("tempdir-literal", lineno):
            out.append(Violation(
                path, lineno, "tempdir-literal",
                "fixed name under ::testing::TempDir() is shared by tests "
                "running in parallel; use testutil::TestTempPath "
                "(tests/testing/temp_dir.h)"))


def expected_guard(path: str) -> str:
    return "CORROB_" + re.sub(r"[^A-Za-z0-9]", "_", re.sub(r"^src/", "", path)).upper() + "_"


def check_guard(sf: SourceFile, sup: Suppressions, out: list[Violation]):
    pragma_line = None
    ifndef = None
    ifndef_line = None
    for idx, code in enumerate(sf.code_lines):
        if re.match(r"\s*#\s*pragma\s+once\b", code):
            pragma_line = idx + 1
            break
        m = re.match(r"\s*#\s*ifndef\s+(\w+)", code)
        if m:
            ifndef = m.group(1)
            ifndef_line = idx + 1
            break
    if pragma_line is not None:
        if not sup.active("guard-style", pragma_line):
            out.append(Violation(
                sf.path, pragma_line, "guard-style",
                "#pragma once: this project uses CORROB_*_H_ include guards"))
        return
    if ifndef is None:
        if not sup.active("guard-style", 1):
            out.append(Violation(
                sf.path, 1, "guard-style",
                f"missing include guard (expected #ifndef {expected_guard(sf.path)})"))
        return
    want = expected_guard(sf.path)
    if ifndef != want and not sup.active("guard-style", ifndef_line):
        out.append(Violation(
            sf.path, ifndef_line, "guard-style",
            f"guard macro {ifndef} does not match path (expected {want})"))


INCLUDE_RE = re.compile(r'\s*#\s*include\s+(["<])([^">]+)[">]')


def check_include_order(sf: SourceFile, sup: Suppressions,
                        known_headers, out: list[Violation]):
    """A src/**/*.cc or tools/**/*.cc file must include its own header
    first. src/ headers are included without the src/ prefix; tool
    headers by their full repo-relative path (tool targets add the
    repo root as the include dir)."""
    if not sf.path.endswith((".cc", ".cpp", ".cxx")):
        return
    if sf.path.startswith("src/"):
        own = re.sub(r"\.(cc|cpp|cxx)$", ".h", re.sub(r"^src/", "", sf.path))
        if "src/" + own not in known_headers:
            return  # e.g. main.cc with no header of its own
    elif sf.path.startswith("tools/"):
        own = re.sub(r"\.(cc|cpp|cxx)$", ".h", sf.path)
        if own not in known_headers:
            return
    else:
        return
    for idx, code in enumerate(sf.code_lines):
        if not code.lstrip().startswith("#"):
            continue
        # The lexer blanks string literals, so read the path from the
        # raw line; the code-line gate keeps commented-out includes out.
        m = INCLUDE_RE.match(sf.raw_lines[idx])
        if not m:
            continue
        lineno = idx + 1
        if m.group(1) == '"' and m.group(2) == own:
            return  # self-header is first — good
        if not sup.active("include-order", lineno):
            out.append(Violation(
                sf.path, lineno, "include-order",
                f'first include must be the self-header "{own}" '
                "(verifies the header is self-contained)"))
        return


def check_discards(sf: SourceFile, sup: Suppressions, status_fns,
                   out: list[Violation]):
    for start_line, text in iter_statements(sf):
        text = strip_control_prefixes(text)
        if not text or SKIP_STMT_RE.match(text):
            continue

        void_cast = VOID_CAST_RE.match(text)
        if void_cast:
            # Only discards of *calls* need documentation; `(void)var;`
            # silences unused-variable warnings and stays free-form.
            if "(" in void_cast.group(1):
                if not sup.active("undocumented-discard", start_line):
                    out.append(Violation(
                        sf.path, start_line, "undocumented-discard",
                        "explicit discard needs `// lint: discard-ok: <reason>`"))
            continue

        if has_toplevel_assignment(text):
            continue
        m = CALL_HEAD_RE.match(text)
        if not m:
            continue
        name = m.group(2)
        if name not in status_fns:
            continue
        if not sup.active("discarded-status", start_line):
            out.append(Violation(
                sf.path, start_line, "discarded-status",
                f"result of {name}() [Status/Result] is ignored: propagate "
                "it or discard explicitly with (void) + "
                "`// lint: discard-ok: <reason>`"))


# --------------------------------------------------------------------------
# Concurrency rules (lexical complements to Clang -Wthread-safety)
# --------------------------------------------------------------------------

MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?std\s*::\s*"
    r"(?:shared_|recursive_|timed_|recursive_timed_)?mutex\s+"
    r"([A-Za-z_]\w*)\s*;")

# Any capability annotation whose argument list names the mutex counts
# as a "user": the mutex then states what it protects.
ANNOTATION_USE_RE = re.compile(
    r"\bCORROB_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
    r"ACQUIRE|RELEASE|EXCLUDES|RETURN_CAPABILITY)\s*\(([^)]*)\)")

RAII_LOCK_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*<")

# Adoptable wrappers whose .lock()/.unlock() is deliberate deferred /
# early release, not a raw mutex operation.
ADOPTABLE_LOCK_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:unique_lock|shared_lock)\s*<[^;{}>]*>\s+"
    r"([A-Za-z_]\w*)")

MANUAL_LOCK_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(lock|unlock|try_lock)\s*\(")

CV_DECL_RE = re.compile(
    r"\bstd\s*::\s*condition_variable(?:_any)?\s+([A-Za-z_]\w*)\s*;")

CV_WAIT_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*(wait|wait_for|wait_until)\s*\(")

# Calls that can block the calling thread for macroscopic time: frame
# and socket I/O, the interruptible sleep, and the retry loop. Holding
# a mutex across any of these stalls every thread that needs it.
BLOCKING_CALL_RE = re.compile(
    r"\b(ReadFrameOrEof|ReadFrame|WriteFrame|AcceptWithStop|ReadFull|"
    r"WriteAll|WaitForMs|Retry)\s*\(")


def collect_cv_names(files) -> set:
    """Names of condition_variable members/locals declared anywhere in
    the tree. A member cv is declared in the header but waited on in
    the .cc, so this pass is tree-wide like collect_status_returning."""
    names = set()
    for sf in files:
        for code in sf.code_lines:
            names.update(CV_DECL_RE.findall(code))
    return names


def _top_level_comma_count(text: str, open_pos: int):
    """Counts top-level commas in the balanced parens starting at
    `open_pos` (which must index a '('). Returns (count, found_close);
    lambda braces nest like parens for the purpose of "top level"."""
    depth = 0
    commas = 0
    for i in range(open_pos, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return commas, True
        elif ch == "," and depth == 1:
            commas += 1
    return commas, False


def check_concurrency(sf: SourceFile, sup: Suppressions, cv_names,
                      out: list[Violation]):
    """The four lexical lock-discipline rules. They complement the Clang
    thread-safety analysis (docs/STATIC_ANALYSIS.md): Clang proves the
    annotated guards, these catch what analysis can't see — missing
    annotations, manual lock calls, predicate-less cv waits, and
    blocking work inside a critical section."""
    if not sf.path.startswith("src/"):
        return
    if sf.path == "src/common/thread_annotations.h":
        return  # the macro definitions themselves

    joined = "\n".join(sf.code_lines)
    line_starts = []
    pos = 0
    for code in sf.code_lines:
        line_starts.append(pos)
        pos += len(code) + 1

    def line_of(offset: int) -> int:
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    # unguarded-mutex: every mutex member must be named by at least one
    # capability annotation somewhere in the file.
    annotated = set()
    for m in ANNOTATION_USE_RE.finditer(joined):
        annotated.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    for m in MUTEX_DECL_RE.finditer(joined):
        name = m.group(1)
        lineno = line_of(m.start())
        if name in annotated:
            continue
        if not sup.active("unguarded-mutex", lineno):
            out.append(Violation(
                sf.path, lineno, "unguarded-mutex",
                f"mutex '{name}' has no CORROB_GUARDED_BY/CORROB_REQUIRES "
                "user: annotate what it protects "
                "(common/thread_annotations.h)"))

    # manual-lock: .lock()/.unlock()/.try_lock() on anything that is not
    # a unique_lock/shared_lock variable declared in this file.
    adoptable = set(ADOPTABLE_LOCK_DECL_RE.findall(joined))
    for m in MANUAL_LOCK_RE.finditer(joined):
        receiver, method = m.group(1), m.group(2)
        if receiver in adoptable:
            continue
        lineno = line_of(m.start())
        if not sup.active("manual-lock", lineno):
            out.append(Violation(
                sf.path, lineno, "manual-lock",
                f"manual {receiver}.{method}(): use std::lock_guard/"
                "std::unique_lock/std::scoped_lock so the unlock is "
                "exception- and early-return-safe"))

    # cv-wait-predicate: bare waits on known condition variables.
    # wait(lock) has 1 argument, the predicate overloads have 2 (wait)
    # or 3 (wait_for/wait_until).
    for m in CV_WAIT_RE.finditer(joined):
        receiver, method = m.group(1), m.group(2)
        if receiver not in cv_names:
            continue
        open_pos = joined.index("(", m.end() - 1)
        commas, closed = _top_level_comma_count(joined, open_pos)
        if not closed:
            continue
        want = 1 if method == "wait" else 2
        if commas >= want:
            continue
        lineno = line_of(m.start())
        if not sup.active("cv-wait-predicate", lineno):
            out.append(Violation(
                sf.path, lineno, "cv-wait-predicate",
                f"{receiver}.{method}() without a predicate: spurious "
                "wakeups make a bare wait a latent hang — pass the "
                "condition as a lambda (bounded poll slices that re-check "
                "a stop signal suppress with `// lint: cvwait-ok: <why>`)"))

    # blocking-under-lock: a blocking call lexically inside the brace
    # scope opened at or after an RAII lock declaration.
    lock_depths: list[int] = []
    depth = 0
    for idx, code in enumerate(sf.code_lines):
        lineno = idx + 1
        events = []
        for m in RAII_LOCK_DECL_RE.finditer(code):
            events.append((m.start(), "lock", None))
        for m in BLOCKING_CALL_RE.finditer(code):
            events.append((m.start(), "call", m.group(1)))
        events.sort()
        event_i = 0
        for col, ch in enumerate(code):
            while event_i < len(events) and events[event_i][0] == col:
                _, kind, name = events[event_i]
                event_i += 1
                if kind == "lock":
                    lock_depths.append(depth)
                elif lock_depths and not sup.active(
                        "blocking-under-lock", lineno):
                    out.append(Violation(
                        sf.path, lineno, "blocking-under-lock",
                        f"{name}() can block while a RAII lock is held: "
                        "move the blocking work outside the critical "
                        "section (or `// lint: blocking-ok: <why>`)"))
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while lock_depths and depth < lock_depths[-1]:
                    lock_depths.pop()


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SCAN_ROOTS = ("src", "tests", "tools/corrobctl")


def gather_files(root: str, only_paths=None):
    files = []
    if only_paths:
        targets = [(p, os.path.relpath(p, root)) for p in only_paths]
        for absolute, rel in targets:
            rel = rel.replace(os.sep, "/")
            if not absolute.endswith(SOURCE_EXTENSIONS):
                continue
            with open(absolute, encoding="utf-8", errors="replace") as f:
                files.append(lex_file(absolute, rel, f.read()))
        return files
    for scan_root in SCAN_ROOTS:
        top = os.path.join(root, scan_root)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                absolute = os.path.join(dirpath, name)
                rel = os.path.relpath(absolute, root).replace(os.sep, "/")
                with open(absolute, encoding="utf-8", errors="replace") as f:
                    files.append(lex_file(absolute, rel, f.read()))
    return files


def run_lint(root: str, only_paths=None) -> list[Violation]:
    files = gather_files(root, only_paths)
    # The declaration pass always covers the whole tree so that linting a
    # single file still knows every Status-returning name.
    decl_files = files if only_paths is None else gather_files(root)
    status_fns = collect_status_returning(decl_files)
    cv_names = collect_cv_names(decl_files)

    violations: list[Violation] = []
    for sf in files:
        sup = Suppressions(sf, violations)
        check_text_rules(sf, sup, violations)
        check_discards(sf, sup, status_fns, violations)
        check_concurrency(sf, sup, cv_names, violations)

    known_headers = {sf.path for sf in decl_files}
    for sf in files:
        sup = Suppressions(sf, [])  # suppression errors already reported
        check_include_order(sf, sup, known_headers, violations)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def render_summary(violations: list[Violation]) -> str:
    """Per-rule count table, widest-count-first, for CI failure logs."""
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    width = max(len(rule) for rule in counts)
    lines = ["", "corrob_lint summary (violations by rule):"]
    for rule, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {rule:<{width}}  {count:>4}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrob_lint",
        description="Project-specific static analysis for the corrob tree.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule IDs and exit")
    parser.add_argument("--summary", action="store_true",
                        help="on failure, append a per-rule violation-count "
                             "table after the raw lines (used by CI)")
    parser.add_argument("paths", nargs="*",
                        help="lint only these files (default: src/ and tests/)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule:22} {summary}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"corrob_lint: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2

    violations = run_lint(root, args.paths or None)
    for violation in violations:
        print(violation.render())
    if violations:
        if args.summary:
            print(render_summary(violations), file=sys.stderr)
        print(f"corrob_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
