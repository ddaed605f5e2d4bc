#!/usr/bin/env python3
"""Project-invariant linter: repo-specific static rules that the generic
tools (clang-tidy, -Wthread-safety, check_lint.sh) cannot express.

Rules, each scoped to src/:

  R1  No naked standard locking primitive (std::mutex, std::shared_mutex,
      std::lock_guard, std::unique_lock, std::shared_lock,
      std::scoped_lock, std::condition_variable, ... or their headers)
      outside src/core/sync.h. All locking goes through the annotated
      wrappers so Clang Thread Safety Analysis sees every critical
      section (docs/static_analysis.md).

  R2  In a class that holds a Mutex/SharedMutex member, every mutable
      field must either carry SKYLINE_GUARDED_BY / SKYLINE_PT_GUARDED_BY
      or be exempt: const, a reference, a std::atomic, another sync
      primitive, or explicitly waived with an `unguarded: <reason>`
      comment on its declaration. Guards the guard: a new field added to
      a locked class cannot silently skip the annotation discipline.

  R3  SKYLINE_ASSERT / SKYLINE_DCHECK conditions must be side-effect
      free (no ++/--/assignment/mutating calls): contract macros compile
      out in release builds, so a side effect inside one changes
      behavior between build modes.

  R4  Kernel hot-loop files (src/core/kernels.h, the src/core/simd_*
      backends and src/core/cpu.cc) must never use the bounds-checked
      row() accessor — kernel hot loops read rows via row_unchecked()
      (the checked form re-validates per probe and defeats
      vectorization).

  R5  Kernel-layer files (src/core/kernels.h, src/core/aligned.h, the
      src/core/simd_* backends and src/core/cpu.cc) must be free of
      std::vector reallocation calls (push_back / resize / reserve /
      ...): kernels operate on caller-owned, pre-sized storage; an
      allocation inside a kernel is a hot-loop bug.

  R6  In the mutable-dataset layers (src/query/, src/server/), every
      cache-entry read site — a call through the published_ids()
      accessor — must visibly deal with epochs: the surrounding lines
      must mention `epoch` (comparing the entry's stamp, forwarding an
      epoch_delta, ...), or the read must be waived with an
      `// epoch-ok: <reason>` comment. Serving a cached answer without
      consulting its epoch is exactly how a pre-update answer leaks
      past ApplyUpdate.

  R7  SIMD intrinsics (immintrin.h and friends, __m128/__m256/__m512
      vector types, __mmask*, _mm*_* calls) are confined to the
      src/core/simd_*.cc backend files. Everything else — the
      src/core/simd_*.h headers included, since baseline-ISA files
      include them — goes through the dispatched kernels:: wrappers, so
      a single compile flag boundary (per-file -mavx2 / -mavx512*)
      covers every intrinsic in the tree and no binary built for the
      baseline ISA can fault on an illegal instruction hidden in an
      unrelated layer.

  R8  A file under src/server/ includes project headers only from
      src/core/, src/harness/, src/query/ and src/server/. The server
      admits, batches and maps outcomes onto statuses; every row read
      and every kernel choice stays behind QueryService, so a kernel
      header (src/skycube/, src/subset/, ...) in the server is a second
      copy of a service path in the making.

Usage:
  scripts/check_invariants.py              lint src/ of this repository
  scripts/check_invariants.py --root DIR   lint DIR/src (for testing)
  scripts/check_invariants.py --self-test  prove every rule fires on a
                                           planted violation and stays
                                           quiet on clean code
"""

import argparse
import os
import re
import sys
import tempfile

SYNC_HEADER = os.path.join("src", "core", "sync.h")
# Files under R4 (no bounds-checked row()). The simd_* glob keeps the
# rule attached to backends added later without editing this list.
R4_FILES = (os.path.join("src", "core", "kernels.h"),
            os.path.join("src", "core", "cpu.cc"))
R4_PREFIX = os.path.join("src", "core", "simd_")
KERNEL_FILES = (
    os.path.join("src", "core", "kernels.h"),
    os.path.join("src", "core", "aligned.h"),
    os.path.join("src", "core", "cpu.cc"),
)
# Prefix of the kernel backend files (R5). Of these, only the .cc
# translation units may contain SIMD intrinsics (R7).
SIMD_BACKEND_PREFIX = os.path.join("src", "core", "simd_")

STD_SYNC_TYPES = (
    "mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    "shared_mutex|shared_timed_mutex|condition_variable|"
    "condition_variable_any|lock_guard|unique_lock|shared_lock|"
    "scoped_lock|once_flag"
)
RE_STD_SYNC = re.compile(r"\bstd::(%s)\b" % STD_SYNC_TYPES)
RE_SYNC_INCLUDE = re.compile(
    r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>")

RE_CONTRACT_MACRO = re.compile(r"\b(SKYLINE_ASSERT|SKYLINE_DCHECK)\s*\(")
RE_SIDE_EFFECT = re.compile(
    r"\+\+|--"
    r"|[^=!<>]=[^=]"  # assignment incl. compound, but not == != <= >=
    r"|[.>](push_back|pop_back|emplace_back|emplace|insert|erase|clear"
    r"|resize|reserve|assign|store|exchange|fetch_add|fetch_sub"
    r"|notify_one|notify_all)\s*\(")

RE_CHECKED_ROW = re.compile(r"[.>]row\s*\(")
RE_REALLOC_CALL = re.compile(
    r"[.>](push_back|emplace_back|emplace|resize|reserve|insert|assign)"
    r"\s*\(")

RE_GUARD_MACRO = re.compile(r"SKYLINE_(PT_)?GUARDED_BY\s*\([^)]*\)")
RE_CLASS_HEAD = re.compile(
    r"\b(class|struct)\s+(?:SKYLINE_\w+\s*(?:\([^)]*\))?\s*)*"
    r"([A-Za-z_]\w*)[^;()]*$")
RE_FIELD_DECL = re.compile(
    r"^(?:mutable\s+)?[\w:<>,\s&*]+?[\s&*]"
    r"([A-Za-z_]\w*)\s*(\{[^{}]*\})?$")
RE_WRAPPER_MUTEX = re.compile(r"\b(Mutex|SharedMutex)\s+[A-Za-z_]\w*")
RE_SYNC_MEMBER_TYPE = re.compile(r"\b(Mutex|SharedMutex|CondVar)\b")
FIELD_SKIP_KEYWORDS = re.compile(
    r"\b(using|typedef|friend|static|operator|explicit|virtual|enum"
    r"|return|template)\b|~")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "INV[%s] %s:%d: %s" % (self.rule, self.path, self.line,
                                      self.message)


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving newlines and
    column positions so findings keep exact line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ---- R1 ------------------------------------------------------------------


def check_naked_primitives(relpath, stripped):
    if relpath.replace(os.sep, "/") == SYNC_HEADER.replace(os.sep, "/"):
        return []
    findings = []
    for regex, what in ((RE_STD_SYNC, "std locking primitive"),
                        (RE_SYNC_INCLUDE, "locking header include")):
        for m in regex.finditer(stripped):
            findings.append(Finding(
                "R1", relpath, line_of(stripped, m.start()),
                "naked %s '%s' — use the annotated wrappers of "
                "src/core/sync.h" % (what, m.group(0).strip())))
    return findings


# ---- R2 ------------------------------------------------------------------


def _field_statements(stripped):
    """Yields (class_name, statement, first_line, last_line) for every
    immediate-member statement of every class/struct body. Heuristic
    brace scanner: relies on clang-format'ed input (one declaration per
    statement), not a full C++ parser."""
    scopes = []  # (is_class, class_name)
    head = []  # code since the last ; { or } — classifies the next {
    buf = []  # current statement at class-body depth
    buf_line = None
    results = []
    line = 1
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "\n":
            line += 1
            head.append(" ")
            if buf:
                buf.append(" ")
        elif c == "{":
            head_text = "".join(head).strip()
            m = RE_CLASS_HEAD.search(head_text)
            is_class = bool(m) and "enum" not in head_text.split()
            scopes.append((is_class, m.group(2) if is_class else ""))
            head = []
            buf = []
            buf_line = None
        elif c == "}":
            if scopes:
                scopes.pop()
            head = []
            buf = []
            buf_line = None
        elif c == ";":
            if scopes and scopes[-1][0] and buf:
                stmt = re.sub(r"\s+", " ", "".join(buf)).strip()
                stmt = re.sub(r"^(public|private|protected)\s*:\s*", "",
                              stmt)
                if stmt:
                    results.append((scopes[-1][1], stmt, buf_line or line,
                                    line))
            head = []
            buf = []
            buf_line = None
        else:
            head.append(c)
            if scopes and scopes[-1][0]:
                if buf_line is None and not c.isspace():
                    buf_line = line
                buf.append(c)
        i += 1
    return results


def check_guarded_fields(relpath, stripped, raw_lines):
    statements = _field_statements(stripped)
    lock_holders = {
        cls for cls, stmt, _, _ in statements
        if RE_WRAPPER_MUTEX.search(RE_GUARD_MACRO.sub("", stmt))
        and "std::" not in stmt.split()[0]
    }
    findings = []
    for cls, stmt, first_line, last_line in statements:
        if cls not in lock_holders:
            continue
        if FIELD_SKIP_KEYWORDS.search(stmt):
            continue
        has_guard = bool(RE_GUARD_MACRO.search(stmt))
        body = RE_GUARD_MACRO.sub("", stmt).strip()
        if "(" in body:  # function / constructor / std::function member
            continue
        body = re.sub(r"=.*$", "", body).strip()  # drop `= init`
        m = RE_FIELD_DECL.match(body)
        if m is None:
            continue
        if has_guard:
            continue
        type_part = body[:body.rfind(m.group(1))]
        if ("const " in type_part or type_part.startswith("const")
                or "&" in type_part or "std::atomic" in type_part
                or RE_SYNC_MEMBER_TYPE.search(type_part)):
            continue
        waiver = range(max(0, first_line - 2), min(len(raw_lines),
                                                   last_line + 1))
        if any("unguarded:" in raw_lines[k] for k in waiver):
            continue
        findings.append(Finding(
            "R2", relpath, first_line,
            "field '%s' of lock-holding class '%s' has no "
            "SKYLINE_GUARDED_BY (waive deliberately lock-free state "
            "with an 'unguarded: <reason>' comment)" % (m.group(1), cls)))
    return findings


# ---- R3 ------------------------------------------------------------------


def _first_macro_argument(text, open_paren):
    depth, i = 1, open_paren + 1
    start = i
    while i < len(text) and depth > 0:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 1:
            return text[start:i]
        i += 1
    return text[start:i - 1]


def check_contract_side_effects(relpath, stripped):
    findings = []
    for m in RE_CONTRACT_MACRO.finditer(stripped):
        condition = _first_macro_argument(stripped, m.end() - 1)
        hit = RE_SIDE_EFFECT.search(condition)
        if hit:
            findings.append(Finding(
                "R3", relpath, line_of(stripped, m.start()),
                "%s condition contains a side effect ('%s') — contract "
                "macros compile out in release builds" %
                (m.group(1), hit.group(0).strip())))
    return findings


# ---- R4 / R5 -------------------------------------------------------------


def check_kernel_rules(relpath, stripped):
    findings = []
    norm = relpath.replace(os.sep, "/")
    in_r4 = (norm in (k.replace(os.sep, "/") for k in R4_FILES)
             or norm.startswith(R4_PREFIX.replace(os.sep, "/")))
    in_r5 = (norm in (k.replace(os.sep, "/") for k in KERNEL_FILES)
             or norm.startswith(SIMD_BACKEND_PREFIX.replace(os.sep, "/")))
    if in_r4:
        for m in RE_CHECKED_ROW.finditer(stripped):
            findings.append(Finding(
                "R4", relpath, line_of(stripped, m.start()),
                "bounds-checked row() in a kernel hot loop — use "
                "row_unchecked() (ids are pre-validated at the batch "
                "boundary)"))
    if in_r5:
        for m in RE_REALLOC_CALL.finditer(stripped):
            findings.append(Finding(
                "R5", relpath, line_of(stripped, m.start()),
                "container reallocation call '%s' in the kernel layer — "
                "kernels run on caller-owned, pre-sized storage" %
                m.group(0).lstrip(".>").rstrip("(").strip()))
    return findings


# ---- R7 ------------------------------------------------------------------

RE_INTRINSIC = re.compile(
    r"#\s*include\s*<[a-z0-9]*intrin\.h>"
    r"|\b_mm\d*_\w+\s*\("
    r"|\b__m(128|256|512)[di]?\b"
    r"|\b__mmask(8|16|32|64)\b")


def check_intrinsic_containment(relpath, stripped):
    norm = relpath.replace(os.sep, "/")
    if (norm.startswith(SIMD_BACKEND_PREFIX.replace(os.sep, "/"))
            and norm.endswith(".cc")):
        return []
    findings = []
    for m in RE_INTRINSIC.finditer(stripped):
        findings.append(Finding(
            "R7", relpath, line_of(stripped, m.start()),
            "SIMD intrinsic '%s' outside src/core/simd_*.cc — only the "
            "per-file-compiled backend files may use intrinsics; call "
            "through the dispatched kernels:: wrappers instead" %
            m.group(0).strip()))
    return findings


# ---- R6 ------------------------------------------------------------------

RE_ENTRY_READ = re.compile(r"[.>]\s*published_ids\s*\(")
EPOCH_SCOPES = ("src/query/", "src/server/")
EPOCH_WINDOW = 10  # lines above the read site that must mention epochs


def check_epoch_reads(relpath, stripped, raw_lines):
    norm = relpath.replace(os.sep, "/")
    if not norm.startswith(EPOCH_SCOPES):
        return []
    findings = []
    for m in RE_ENTRY_READ.finditer(stripped):
        line = line_of(stripped, m.start())
        lo = max(0, line - 1 - EPOCH_WINDOW)
        if any("epoch" in raw for raw in raw_lines[lo:line]):
            continue  # an epoch comparison or an `epoch-ok:` waiver
        findings.append(Finding(
            "R6", relpath, line,
            "cache-entry read (published_ids) with no epoch handling in "
            "the surrounding %d lines — compare the entry's epoch stamp, "
            "or waive a deliberately epoch-blind read with an "
            "'// epoch-ok: <reason>' comment" % EPOCH_WINDOW))
    return findings


# ---- R8 ------------------------------------------------------------------

RE_PROJECT_INCLUDE = re.compile(r'^\s*#\s*include\s*"(src/[^"]*)"')
SERVER_SCOPE = "src/server/"
SERVER_INCLUDES = ("src/core/", "src/harness/", "src/query/", "src/server/")


def check_server_includes(relpath, stripped, raw_lines):
    if not relpath.replace(os.sep, "/").startswith(SERVER_SCOPE):
        return []
    findings = []
    code_lines = stripped.splitlines()
    for i, raw in enumerate(raw_lines):
        m = RE_PROJECT_INCLUDE.match(raw)
        # The stripped line keeps `#include` only when it is code.
        if m is None or "include" not in code_lines[i]:
            continue
        if not m.group(1).startswith(SERVER_INCLUDES):
            findings.append(Finding(
                "R8", relpath, i + 1,
                "src/server/ includes '%s' — the server includes project "
                "headers only from %s; rows and kernels stay behind "
                "QueryService" % (m.group(1), ", ".join(SERVER_INCLUDES))))
    return findings


# ---- driver --------------------------------------------------------------


def lint_file(relpath, text):
    stripped = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    findings = []
    findings += check_naked_primitives(relpath, stripped)
    findings += check_guarded_fields(relpath, stripped, raw_lines)
    findings += check_contract_side_effects(relpath, stripped)
    findings += check_kernel_rules(relpath, stripped)
    findings += check_epoch_reads(relpath, stripped, raw_lines)
    findings += check_intrinsic_containment(relpath, stripped)
    findings += check_server_includes(relpath, stripped, raw_lines)
    return findings


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                findings += lint_file(relpath, f.read())
    return findings


# ---- self-test -----------------------------------------------------------

SELF_TEST_CASES = [
    ("R1 planted naked std::mutex", "src/query/bad_cache.h", """
        class BadCache {
         private:
          std::mutex mu_;
          int hits_ = 0;
        };
    """, ["R1"]),
    ("R1 planted locking include", "src/stream/bad_stream.cc", """
        #include <shared_mutex>
        void Run() {}
    """, ["R1"]),
    ("R1 allowed inside sync.h", "src/core/sync.h", """
        #include <mutex>
        class Mutex { std::mutex mu_; };
    """, []),
    ("R2 unguarded field in lock-holding class", "src/query/bad_guard.h",
     """
        class Service {
         private:
          Mutex mu_;
          int value_ SKYLINE_GUARDED_BY(mu_) = 0;
          int naked_counter_ = 0;
        };
    """, ["R2"]),
    ("R2 exemptions: const/atomic/waiver", "src/query/good_guard.h", """
        class Service {
         private:
          mutable SharedMutex mu_;
          std::size_t cached_ SKYLINE_GUARDED_BY(mu_) = 0;
          const bool pinned_ = true;
          std::atomic<int> clock_{0};
          Widget stats_;  // unguarded: internally synchronized
        };
    """, []),
    ("R3 side-effecting DCHECK", "src/subset/bad_check.cc", """
        void F(int next) {
          SKYLINE_DCHECK(counter_++ < limit_, "must stay below limit");
          SKYLINE_ASSERT(cursor_ = next, "oops, assignment not compare");
        }
    """, ["R3", "R3"]),
    ("R3 clean comparisons pass", "src/subset/good_check.cc", """
        void F() {
          SKYLINE_ASSERT(a == b && c <= d, "pure comparison");
          SKYLINE_DCHECK(runs[unit].load(std::memory_order_relaxed) == 1,
                         "reads are fine");
        }
    """, []),
    ("R4 checked row() in kernels.h", "src/core/kernels.h", """
        inline int Probe(const AlignedDataset& rows, PointId id) {
          return rows.row(id)[0];
        }
    """, ["R4"]),
    ("R4 row_unchecked passes", "src/core/kernels.h", """
        inline int Probe(const AlignedDataset& rows, PointId id) {
          return rows.row_unchecked(id)[0];
        }
    """, []),
    ("R4 checked row() in a SIMD backend", "src/core/simd_avx2.cc", """
        int Probe(const AlignedDataset& rows, PointId id) {
          return rows.row(id)[0];
        }
    """, ["R4"]),
    ("R5 reallocation in the kernel layer", "src/core/aligned.h", """
        inline void Grow(std::vector<Value>& v) {
          v.push_back(0);
        }
    """, ["R5"]),
    ("R5 reallocation in a SIMD backend", "src/core/simd_avx512.cc", """
        void Grow(std::vector<Value>& v) {
          v.resize(64);
        }
    """, ["R5"]),
    ("R5 covers cpu.cc", "src/core/cpu.cc", """
        void Grow(std::vector<int>& v) {
          v.reserve(8);
        }
    """, ["R5"]),
    ("R6 epoch-blind cache read", "src/query/bad_read.cc", """
        std::vector<PointId> Serve(const EntryPtr& entry) {
          return entry->published_ids();
        }
    """, ["R6"]),
    ("R6 epoch comparison nearby passes", "src/query/good_read.cc", """
        std::vector<PointId> Serve(const EntryPtr& entry,
                                   std::uint64_t current_epoch) {
          if (entry->epoch != current_epoch) return {};
          return entry->published_ids();
        }
    """, []),
    ("R6 waiver comment passes", "src/server/waived_read.cc", """
        std::size_t Gauge(const EntryPtr& entry) {
          // epoch-ok: counting ids, not serving them.
          return entry->published_ids().size();
        }
    """, []),
    ("R6 scope excludes other layers", "src/stream/other_read.cc", """
        std::vector<PointId> Serve(const EntryPtr& entry) {
          return entry->published_ids();
        }
    """, []),
    ("R7 intrinsic call outside simd_*.cc", "src/subset/bad_simd.cc", """
        double Sum(const double* p) {
          __m256d v = _mm256_loadu_pd(p);
          return v[0];
        }
    """, ["R7", "R7"]),
    ("R7 intrinsics header include outside simd_*.cc", "src/core/kernels.h",
     """
        #include <immintrin.h>
        inline void Nothing() {}
    """, ["R7"]),
    ("R7 mask type leak outside simd_*.cc", "src/query/bad_mask.h", """
        struct Probe { __mmask8 lanes; };
    """, ["R7"]),
    ("R7 intrinsic in a simd_* header", "src/core/simd_batch.h", """
        template <class Isa>
        unsigned Lanes(const double* p) {
          return static_cast<unsigned>(_mm256_movemask_pd(
              _mm256_loadu_pd(p)));
        }
    """, ["R7", "R7"]),
    ("R7 intrinsics allowed inside the backends", "src/core/simd_avx2.cc",
     """
        #include <immintrin.h>
        unsigned Lanes(const double* p) {
          const __m256d v = _mm256_loadu_pd(p);
          return static_cast<unsigned>(_mm256_movemask_pd(v));
        }
    """, []),
    ("R7 dispatched wrappers stay clean", "src/core/kernels.h", """
        inline int Probe(const AlignedDataset& rows, PointId id) {
          return rows.row_unchecked(id)[0];
        }
    """, []),
    ("R8 server reaching past QueryService", "src/server/bad_server.cc",
     """
        #include "src/server/server.h"
        #include "src/skycube/skycube.h"
    """, ["R8"]),
    ("R8 server layers and commented includes pass",
     "src/server/good_server.cc", """
        #include "src/core/contracts.h"
        #include "src/harness/histogram.h"
        #include "src/query/query_service.h"
        #include "src/server/server.h"
        // #include "src/skycube/skycube.h" moved behind QueryService.
    """, []),
    ("R8 scope excludes other layers", "src/query/other_layer.cc", """
        #include "src/skycube/skycube.h"
    """, []),
]


def run_self_test():
    failures = 0
    for name, relpath, code, expected in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(code)
            got = [f.rule for f in lint_tree(tmp)]
        if sorted(got) == sorted(expected):
            print("  ok: %s" % name)
        else:
            print("  FAIL: %s — expected %s, got %s" %
                  (name, expected or "no findings", got or "no findings"))
            failures += 1
    if failures:
        print("check_invariants.py self-test FAILED "
              "(%d case(s))" % failures, file=sys.stderr)
        return 1
    print("check_invariants.py self-test passed "
          "(%d cases)." % len(SELF_TEST_CASES))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Repo-specific static invariant linter over src/")
    parser.add_argument("--root", default=None,
                        help="repository root (default: script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on planted "
                        "violations, then exit")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_tree(root)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print("Invariant lint FAILED (%d finding(s))." % len(findings),
              file=sys.stderr)
        return 1
    print("Invariant lint clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
