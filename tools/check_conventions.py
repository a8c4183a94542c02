#!/usr/bin/env python3
"""Repo-specific convention lints that clang-tidy cannot express.

Five rules, each encoding a contract documented in docs/ (violations have
bitten or would bite silently — none of them is a style preference):

  omp-region-discipline
      Every `#pragma omp parallel` team region in src/exec/*.cpp must
      install a ScopedPin and an obs::StepTracer near the top of the
      region body. A region without the pin silently ignores core-set
      leases (batches overlap cores again); one without the tracer makes
      that region invisible to compute/wait attribution. block.cpp's
      analysis-time `parallel for` loops are exempt (no solve region, no
      per-thread state).

  trace-arg-purity
      No side-effecting expressions (++/--/assignment) inside STS_TRACE_*
      macro arguments. The macros compile away under STS_TRACING=OFF, so a
      side effect in an argument changes program behavior between build
      modes — the classic assert(side_effect()) bug.

  include-hygiene
      src/ headers start with `#pragma once`; no `"../"` relative
      includes anywhere; every quoted include resolves under src/ (the
      single include root CMake exports).

  lock-discipline
      Modules annotated for Clang thread-safety analysis (src/base/,
      src/engine/, src/obs/, src/exec/elastic.hpp) must not use raw
      std::mutex / std::lock_guard / std::unique_lock / std::scoped_lock —
      only the annotated base::Mutex / base::MutexLock wrappers. A raw
      mutex is invisible to the analysis, so a data race behind it would
      pass the `-Werror=thread-safety` CI gate. base/sync.hpp itself is
      exempt (it is the wrapper).

  failpoint-discipline
      Library code (src/, outside src/fault/) must reach fault injection
      ONLY through the STS_FAILPOINT / STS_FAILPOINT_RANK macros or inside
      an explicit `#if STS_FAULTS` region. A direct `fault::` API call
      (FailpointRegistry, Failpoint, InjectedFault, wouldTrigger) at an
      unguarded site compiles into the -DSTS_FAULTS=OFF build too, which
      breaks the docs/ROBUSTNESS.md contract that OFF builds carry zero
      fault-injection code on the solve paths.

Run from anywhere inside the repo:  python3 tools/check_conventions.py
Self-test the rules themselves:    python3 tools/check_conventions.py --self-check
Exit status 0 = clean, 1 = violations (printed one per line).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# How many lines after `#pragma omp parallel` may separate the pragma from
# the pin/tracer setup. The shipped regions install both within a few
# lines; the slack only absorbs comments and the thread-id prologue.
OMP_WINDOW = 15

TRACE_MACROS = ("STS_TRACE_SPAN", "STS_TRACE_SPAN1", "STS_TRACE_SPAN_AT",
                "STS_TRACE_INSTANT")

# ++ / -- / any assignment (plain or compound). `==`, `!=`, `<=`, `>=`,
# `<=>` and `->` must NOT match.
SIDE_EFFECT = re.compile(r"""
    \+\+ | -- |
    (?<![=!<>+\-*/%&|^])=(?![=])      # plain `=`, not ==/!=/<=/>=/compound
    | [+\-*/%&|^]= (?!=)              # compound assignment
    | (?:<<|>>)=
""", re.VERBOSE)

LOCK_DISCIPLINE_MODULES = ("base/", "engine/", "obs/", "fault/")
LOCK_DISCIPLINE_FILES = ("exec/elastic.hpp",)
LOCK_DISCIPLINE_EXEMPT = ("base/sync.hpp", "base/thread_annotations.hpp")
RAW_LOCK = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|shared_mutex)\b")

# Direct fault-injection API tokens; the call-site macros are the only
# sanctioned spelling outside src/fault/ and `#if STS_FAULTS` regions.
FAULT_API = re.compile(
    r"\bfault::|\bFailpointRegistry\b|\bFailpoint\b|\bInjectedFault\b|"
    r"\bwouldTrigger\b")


def strip_comments_and_strings(line: str) -> str:
    """Drops // comments and the contents of string/char literals (keeps
    the quotes so token boundaries survive). Block comments are handled
    line-locally, which is enough for this codebase's style."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            end = line.find("*/", i + 2)
            if end < 0:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def balanced_args(text: str, start: int) -> str | None:
    """The text between the parens opening at text[start] (which must be
    '('), or None if unbalanced within `text`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return None


def check_omp_regions(path: Path, lines: list[str]) -> list[str]:
    errors = []
    for idx, line in enumerate(lines):
        stripped = strip_comments_and_strings(line)
        if "#pragma omp parallel" not in stripped:
            continue
        if re.search(r"#pragma omp parallel\s+for\b", stripped):
            continue  # analysis-time parallel loops carry no solve region
        window = "\n".join(lines[idx:idx + OMP_WINDOW + 1])
        missing = [need for need in ("ScopedPin", "StepTracer")
                   if need not in window]
        if missing:
            errors.append(
                f"{path.relative_to(REPO)}:{idx + 1}: omp-region-discipline: "
                f"parallel region lacks {' and '.join(missing)} within "
                f"{OMP_WINDOW} lines")
    return errors


def check_trace_args(path: Path, lines: list[str]) -> list[str]:
    errors = []
    text = "\n".join(strip_comments_and_strings(l) for l in lines)
    for macro in TRACE_MACROS:
        for m in re.finditer(re.escape(macro) + r"\s*\(", text):
            # Skip the longer macro names when matching a prefix (SPAN vs
            # SPAN1/SPAN_AT) and the #define sites themselves.
            end = m.end() - 1
            tail = text[m.start() + len(macro):m.start() + len(macro) + 1]
            if tail not in ("(", " ", "\t"):
                continue
            line_no = text.count("\n", 0, m.start()) + 1
            if "#define" in text[text.rfind("\n", 0, m.start()) + 1:m.start()]:
                continue
            args = balanced_args(text, end)
            if args is None:
                continue
            hit = SIDE_EFFECT.search(args)
            if hit:
                errors.append(
                    f"{path.relative_to(REPO)}:{line_no}: trace-arg-purity: "
                    f"side effect '{hit.group(0)}' inside {macro} arguments "
                    f"(compiled away under STS_TRACING=OFF)")
    return errors


def check_includes(path: Path, lines: list[str]) -> list[str]:
    errors = []
    rel = path.relative_to(REPO)
    if path.suffix == ".hpp" and path.is_relative_to(SRC):
        first_code = next(
            (l for l in lines
             if l.strip() and not l.strip().startswith(("//", "/*", "*"))),
            "")
        if first_code.strip() != "#pragma once":
            errors.append(f"{rel}:1: include-hygiene: src/ header must open "
                          f"with #pragma once")
    for idx, line in enumerate(lines):
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
        if not m:
            continue
        inc = m.group(1)
        if inc.startswith("../") or "/../" in inc:
            errors.append(f"{rel}:{idx + 1}: include-hygiene: relative "
                          f"'../' include \"{inc}\"")
        elif path.is_relative_to(SRC) and not (SRC / inc).exists():
            errors.append(f"{rel}:{idx + 1}: include-hygiene: \"{inc}\" does "
                          f"not resolve under src/")
    return errors


def check_lock_discipline(path: Path, lines: list[str]) -> list[str]:
    rel = path.relative_to(REPO)
    rel_src = path.relative_to(SRC).as_posix() if path.is_relative_to(SRC) else ""
    if not rel_src or rel_src in LOCK_DISCIPLINE_EXEMPT:
        return []
    if not (rel_src.startswith(LOCK_DISCIPLINE_MODULES)
            or rel_src in LOCK_DISCIPLINE_FILES):
        return []
    errors = []
    for idx, line in enumerate(lines):
        hit = RAW_LOCK.search(strip_comments_and_strings(line))
        if hit:
            errors.append(
                f"{rel}:{idx + 1}: lock-discipline: raw {hit.group(0)} in an "
                f"annotated module; use base::Mutex / base::MutexLock "
                f"(base/sync.hpp)")
    return errors


def check_failpoint_discipline(path: Path, lines: list[str]) -> list[str]:
    rel = path.relative_to(REPO)
    rel_src = path.relative_to(SRC).as_posix() if path.is_relative_to(SRC) else ""
    if not rel_src or rel_src.startswith("fault/"):
        return []
    errors = []
    # Preprocessor-conditional stack: True for frames opened by the
    # `#if STS_FAULTS` gate (direct API use is sanctioned there).
    gate_stack: list[bool] = []
    for idx, line in enumerate(lines):
        directive = line.strip()
        if directive.startswith("#if"):
            gate_stack.append("STS_FAULTS" in directive)
            continue
        if directive.startswith("#endif"):
            if gate_stack:
                gate_stack.pop()
            continue
        if directive.startswith(("#else", "#elif")):
            if gate_stack:
                gate_stack[-1] = "STS_FAULTS" in directive
            continue
        if any(gate_stack):
            continue
        if re.match(r"\s*#\s*include", line):
            continue  # including the macro header is the sanctioned entry
        hit = FAULT_API.search(strip_comments_and_strings(line))
        if hit:
            errors.append(
                f"{rel}:{idx + 1}: failpoint-discipline: direct "
                f"'{hit.group(0)}' outside src/fault/; use STS_FAILPOINT / "
                f"STS_FAILPOINT_RANK or guard with #if STS_FAULTS")
    return errors


def run(paths: list[Path]) -> list[str]:
    errors = []
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        if path.is_relative_to(SRC / "exec") and path.suffix == ".cpp":
            errors += check_omp_regions(path, lines)
        errors += check_trace_args(path, lines)
        errors += check_includes(path, lines)
        errors += check_lock_discipline(path, lines)
        errors += check_failpoint_discipline(path, lines)
    return errors


# --------------------------------------------------------------------------
# Self-check: each fixture is (description, virtual path, source, expected
# rule name or None). Guards the checker against silently rotting — CI runs
# it before trusting a clean report.

FIXTURES = [
    ("omp region with pin+tracer passes", "src/exec/fix.cpp", """
#pragma omp parallel num_threads(team)
  {
    const ScopedPin pin(pin_set, t);
    obs::StepTracer tracer(sink);
  }
""", None),
    ("omp region missing both flags", "src/exec/fix.cpp", """
#pragma omp parallel num_threads(team)
  {
    work();
  }
""", "omp-region-discipline"),
    ("omp parallel for is exempt", "src/exec/fix.cpp", """
#pragma omp parallel for schedule(dynamic, 1)
  for (int i = 0; i < n; ++i) work(i);
""", None),
    ("pure trace args pass", "src/exec/fix.cpp", """
STS_TRACE_SPAN1("engine", "solve", "team", static_cast<std::uint64_t>(team));
""", None),
    ("increment inside trace args", "src/exec/fix.cpp", """
STS_TRACE_INSTANT("engine", "submit", "n", counter++);
""", "trace-arg-purity"),
    ("assignment inside trace args", "src/exec/fix.cpp", """
STS_TRACE_SPAN1("a", "b", "k", total = next);
""", "trace-arg-purity"),
    ("comparisons inside trace args pass", "src/exec/fix.cpp", """
STS_TRACE_SPAN1("a", "b", "k", x <= y && u == v && p->q);
""", None),
    ("header without pragma once", "src/exec/fix.hpp", """
#include <vector>
""", "include-hygiene"),
    ("relative include", "src/exec/fix.cpp", """
#include "../core/schedule.hpp"
""", "include-hygiene"),
    ("unresolvable quoted include", "src/exec/fix.cpp", """
#include "no/such/header.hpp"
""", "include-hygiene"),
    ("raw mutex in annotated module", "src/engine/fix.hpp", """
#pragma once
#include <mutex>
std::mutex mu_;
""", "lock-discipline"),
    ("base::Mutex in annotated module passes", "src/engine/fix.cpp", """
base::MutexLock lock(mu_);
""", None),
    ("raw mutex outside annotated modules passes", "src/harness/fix.cpp", """
std::mutex mu;
""", None),
    ("direct fault API outside src/fault/", "src/engine/fix.cpp", """
sts::fault::FailpointRegistry::global().configure("x=fail");
""", "failpoint-discipline"),
    ("fault API under #if STS_FAULTS passes", "src/engine/fix.cpp", """
#if STS_FAULTS
sts::fault::FailpointRegistry::global().reset();
#endif
""", None),
    ("failpoint macros pass anywhere", "src/exec/fix2.cpp", """
STS_FAILPOINT("exec.tile_build");
STS_FAILPOINT_RANK("exec.superstep", t);
""", None),
    ("fault API inside src/fault/ passes", "src/fault/fix.cpp", """
Failpoint& point = FailpointRegistry::global().failpoint(name);
""", None),
]


def self_check() -> int:
    import tempfile
    failures = 0
    for desc, vpath, source, expect in FIXTURES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            # Re-root the checker onto the fixture tree.
            global REPO, SRC
            old_repo, old_src = REPO, SRC
            REPO, SRC = root, root / "src"
            try:
                target = root / vpath
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(source, encoding="utf-8")
                errors = run([target])
            finally:
                REPO, SRC = old_repo, old_src
        rules = {e.split(": ", 2)[1].rstrip(":") for e in errors}
        ok = (expect in rules) if expect else not errors
        print(f"{'PASS' if ok else 'FAIL'}: {desc}"
              + ("" if ok else f" -> {errors or 'no findings'}"))
        failures += 0 if ok else 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-check", action="store_true",
                        help="run the embedded rule fixtures instead")
    args = parser.parse_args()
    if args.self_check:
        return self_check()

    paths = sorted(p for p in SRC.rglob("*")
                   if p.suffix in (".hpp", ".cpp"))
    errors = run(paths)
    for e in errors:
        print(e)
    if not errors:
        print(f"check_conventions: {len(paths)} files clean")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
