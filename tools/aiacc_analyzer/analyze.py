#!/usr/bin/env python3
"""aiacc-analyzer — the repo's one lint entry point.

Eight checks (see DESIGN.md "Static analysis"). Six work on the frontend
IR and express what regex cannot:
  dropped-status            Status/Result values discarded or overwritten
                            before inspection
  pool-leak                 BufferPool::Acquire without Release/move-out on
                            every path; double release/move
  blocking-under-lock       transport Recv/RecvFor/Send/Barrier (or a local
                            function reaching one) while a common::Mutex
                            guard is live; CondVar waits holding an
                            unrelated guard
  tag-collision             tags.h layout relations + symbolic evaluation
                            of `tag_base + expr` offsets against
                            kTagsPerCollective
  codec-record-validation   decode Status must be checked before decoded
                            payloads are touched (src/compress/)
  priority-ordering         unit dispatch in src/core/ must go through
                            ReadySetScheduler::Push/PopFor — a raw
                            BlockingQueue<AllReduceUnit> (or Push/Pop on
                            one) bypasses priority order, aging, and
                            preemption
Two read the file text with comments and strings blanked, so both
frontends give the same result:
  banned-token              one table of (token, path scope, message):
                            raw std::mutex/condition_variable/notify_*
                            outside src/common/sync.h, the retired
                            HotPathCounters, new/malloc in src/transport
                            and src/compress
  guarded-member            mutable members of a class in src/ that owns
                            a common::Mutex carry GUARDED_BY(...) or a
                            NOLOCK(reason) comment

Frontends:
  clang  libclang (Python clang.cindex) over build/compile_commands.json —
         the full-fidelity frontend CI runs. If libclang is missing the
         tool SKIPs cleanly (exit 0) so dev boxes without clang never
         fail the lint lane.
  lite   dependency-free structural frontend lowering to the same IR —
         always available, used for local runs and the fixture self-test.
  auto   clang when importable, else lite (default).

Usage:
  python3 tools/aiacc_analyzer/analyze.py                 # all of src/
  python3 tools/aiacc_analyzer/analyze.py src/compress    # a subtree
  python3 tools/aiacc_analyzer/analyze.py --json out.json --frontend lite
  python3 tools/aiacc_analyzer/analyze.py --update-baseline

Exit codes: 0 clean (or skipped), 1 findings, 2 usage/internal error.
Suppressions: `// ANALYZER-OK(check: reason)` on the finding's line or the
line above; checked-in waivers live in tools/aiacc_analyzer/baseline.json.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod  # noqa: E402
import findings as findings_mod  # noqa: E402

TOOL = "aiacc-analyzer"
DEFAULT_BASELINE = os.path.join("tools", "aiacc_analyzer", "baseline.json")


def repo_root(start: str) -> str:
    d = os.path.abspath(start)
    while d != os.path.dirname(d):
        if os.path.isdir(os.path.join(d, ".git")) or os.path.isfile(
                os.path.join(d, "ROADMAP.md")):
            return d
        d = os.path.dirname(d)
    return os.path.abspath(start)


def collect_files(repo: str, paths: list[str]) -> list[str]:
    exts = (".h", ".hpp", ".cc", ".cpp")
    rels: list[str] = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(repo, p)
        if os.path.isdir(ap):
            for dirpath, dirnames, names in os.walk(ap):
                # Fixture trees are intentionally full of violations; they
                # are only analyzed when a file is named explicitly.
                dirnames[:] = [d for d in dirnames
                               if d != "analyzer_fixtures"]
                for name in sorted(names):
                    if name.endswith(exts):
                        rels.append(os.path.relpath(
                            os.path.join(dirpath, name), repo))
        elif os.path.isfile(ap):
            rels.append(os.path.relpath(ap, repo))
        else:
            print(f"{TOOL}: error: no such path: {p}", file=sys.stderr)
            raise SystemExit(2)
    return sorted(set(rels))


def clang_available() -> bool:
    if os.environ.get("AIACC_ANALYZER_FORCE_NO_LIBCLANG"):
        return False
    try:
        import frontend_clang  # noqa: F401
        return frontend_clang.available()
    except Exception:
        return False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog=TOOL, description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs to analyze (default: src/)")
    ap.add_argument("--repo", default=None, help="repository root")
    ap.add_argument("--build-dir", default="build",
                    help="build dir holding compile_commands.json "
                         "(clang frontend)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto")
    ap.add_argument("--check", action="append", default=None,
                    metavar="NAME", help="run only this check (repeatable)")
    ap.add_argument("--json", default=None, metavar="OUT",
                    help="write the findings JSON artifact here")
    ap.add_argument("--baseline", default=None,
                    help=f"baseline file (default: {DEFAULT_BASELINE})")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to waive current findings")
    args = ap.parse_args(argv)

    if args.check:
        unknown = set(args.check) - set(checks_mod.ALL_CHECKS)
        if unknown:
            print(f"{TOOL}: error: unknown check(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    repo = repo_root(args.repo or os.getcwd())
    files = collect_files(repo, args.paths or ["src"])
    if not files:
        print(f"{TOOL}: no C++ files to analyze")
        return 0

    # -- frontend selection -------------------------------------------------
    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if clang_available() else "lite"
    if frontend == "clang" and not clang_available():
        print(f"{TOOL}: SKIPPED: libclang (python clang.cindex) is not "
              f"available on this machine; install libclang or rerun with "
              f"--frontend lite")
        return 0

    if frontend == "clang":
        import frontend_clang
        project = frontend_clang.load_project(repo, files, args.build_dir)
    else:
        import frontend_lite
        project = frontend_lite.load_project(repo, files)

    ctx = checks_mod.Context(repo)
    all_findings = checks_mod.run_checks(project, ctx, only=args.check)

    # -- inline suppressions ------------------------------------------------
    supp_cache: dict[str, dict] = {}
    kept: list = []
    suppressed = 0
    for f in all_findings:
        if f.file not in supp_cache:
            try:
                with open(os.path.join(repo, f.file), encoding="utf-8",
                          errors="replace") as fh:
                    supp_cache[f.file] = findings_mod.inline_suppressions(
                        fh.read())
            except OSError:
                supp_cache[f.file] = {}
        if findings_mod.is_suppressed(f, supp_cache[f.file]):
            suppressed += 1
        else:
            kept.append(f)

    # -- baseline -----------------------------------------------------------
    baseline_path = os.path.join(
        repo, args.baseline or DEFAULT_BASELINE)
    if args.update_baseline:
        findings_mod.write_baseline(baseline_path, kept)
        print(f"{TOOL}: baseline updated with {len(kept)} finding(s) at "
              f"{os.path.relpath(baseline_path, repo)}")
        kept = []
    elif not args.no_baseline:
        waived = findings_mod.load_baseline(baseline_path)
        before = len(kept)
        kept = [f for f in kept if f.baseline_key() not in waived]
        suppressed += before - len(kept)

    # -- report -------------------------------------------------------------
    for f in kept:
        print(f.text())
    if args.json:
        out_path = args.json if os.path.isabs(args.json) else os.path.join(
            os.getcwd(), args.json)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(findings_mod.to_json(kept, TOOL, frontend))

    note = f" ({suppressed} suppressed/baselined)" if suppressed else ""
    if kept:
        print(f"{TOOL}: {len(kept)} finding(s) over {len(files)} file(s) "
              f"[frontend={frontend}]{note}", file=sys.stderr)
        return 1
    print(f"{TOOL}: clean over {len(files)} file(s) "
          f"[frontend={frontend}]{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
