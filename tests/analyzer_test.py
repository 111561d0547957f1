#!/usr/bin/env python3
"""Self-tests for tools/aiacc_analyzer.

Four layers:
  1. Fixture goldens: each check, run in isolation over its known-bad /
     known-good fixture pair, must report exactly the findings in
     tests/analyzer_fixtures/expected_findings.json and nothing on the
     good file.
  2. Suppression: inline ANALYZER-OK annotations silence findings (same
     line and line-above placements).
  3. Degraded mode: --frontend clang without libclang must skip cleanly
     (exit 0, "SKIPPED" in the output) rather than fail the build —
     forced here via AIACC_ANALYZER_FORCE_NO_LIBCLANG so the test is
     deterministic on hosts that do have libclang.
  4. Frontend agreement: when libclang IS available, the clang frontend
     must reproduce the lite frontend's golden findings (check,file,line)
     over the same fixtures.
  5. Header-lane audit: the tag-collision check cross-checks the tracing
     stamp magic (src/telemetry/trace_context.h) against the reliable
     layer's frame-kind lanes (src/transport/reliable.cpp). A synthetic
     repo whose magic equals a kind value must be flagged; the repaired
     repo must pass.

Exit 0 on success, 1 with a failure list otherwise.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANALYZE = os.path.join(REPO, "tools", "aiacc_analyzer", "analyze.py")
FIXDIR = os.path.join("tests", "analyzer_fixtures")

CHECK_STEMS = {
    "dropped-status": "dropped_status",
    "pool-leak": "pool_leak",
    "blocking-under-lock": "blocking_under_lock",
    "tag-collision": "tag_collision",
    "codec-record-validation": "codec_validation",
    "priority-ordering": "priority_ordering",
    "banned-token": "banned_token",
    "guarded-member": "guarded_member",
}

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print("FAIL:", msg)


def run(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, ANALYZE] + args,
                          capture_output=True, text=True, env=env, cwd=REPO)


def findings_of(json_path):
    with open(json_path, encoding="utf-8") as f:
        data = json.load(f)
    return sorted(f"{x['file']}:{x['line']}" for x in data["findings"])


def golden_pass(frontend: str) -> None:
    with open(os.path.join(REPO, FIXDIR, "expected_findings.json"),
              encoding="utf-8") as f:
        expected = {k: sorted(v) for k, v in json.load(f).items()
                    if not k.startswith("_")}
    for check, stem in CHECK_STEMS.items():
        bad = os.path.join(FIXDIR, f"{stem}_bad.cc")
        good = os.path.join(FIXDIR, f"{stem}_good.cc")
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
            out_json = tf.name
        try:
            p = run(["--frontend", frontend, "--no-baseline",
                     "--check", check, "--json", out_json, bad, good])
            if p.returncode != 1:
                fail(f"[{frontend}] {check}: expected exit 1 over bad+good "
                     f"fixtures, got {p.returncode}\n{p.stdout}{p.stderr}")
                continue
            got = findings_of(out_json)
            if got != expected[check]:
                fail(f"[{frontend}] {check}: findings mismatch\n"
                     f"  want: {expected[check]}\n  got:  {got}")
            p_good = run(["--frontend", frontend, "--no-baseline",
                          "--check", check, good])
            if p_good.returncode != 0:
                fail(f"[{frontend}] {check}: good fixture not clean "
                     f"(exit {p_good.returncode})\n"
                     f"{p_good.stdout}{p_good.stderr}")
        finally:
            os.unlink(out_json)


# --- 1. fixture goldens (lite frontend: always available) ---------------
golden_pass("lite")

# --- 2. inline suppression ----------------------------------------------
p = run(["--frontend", "lite", "--no-baseline", "--check", "dropped-status",
         os.path.join(FIXDIR, "suppressed.cc")])
if p.returncode != 0 or "suppressed" not in p.stdout + p.stderr:
    fail(f"suppressed.cc: expected clean exit with suppression note, got "
         f"exit {p.returncode}\n{p.stdout}{p.stderr}")

# --- 3. degraded mode ----------------------------------------------------
p = run(["--frontend", "clang", os.path.join(FIXDIR, "dropped_status_bad.cc")],
        env_extra={"AIACC_ANALYZER_FORCE_NO_LIBCLANG": "1"})
if p.returncode != 0 or "SKIPPED" not in p.stdout + p.stderr:
    fail(f"degraded mode: expected exit 0 + SKIPPED, got exit "
         f"{p.returncode}\n{p.stdout}{p.stderr}")


def header_lane_audit_pass(fake_repo: str) -> None:
    """Layer 5: synthetic repo — real tags.h (so the tag relations stay
    green), a minimal reliable.cpp, and a trace_context.h whose stamp
    magic varies per sub-case. The audit keys off repo files, not the
    analyzed translation units, so any clean .cc probe works as input."""
    os.makedirs(os.path.join(fake_repo, "src", "collective"))
    os.makedirs(os.path.join(fake_repo, "src", "transport"))
    os.makedirs(os.path.join(fake_repo, "src", "telemetry"))
    open(os.path.join(fake_repo, "ROADMAP.md"), "w").close()  # pins repo root
    shutil.copy(os.path.join(REPO, "src", "collective", "tags.h"),
                os.path.join(fake_repo, "src", "collective", "tags.h"))
    with open(os.path.join(fake_repo, "src", "transport", "reliable.cpp"),
              "w", encoding="utf-8") as f:
        f.write("constexpr std::size_t kHeaderLanes = 4;\n"
                "constexpr float kKindData = 1.0f;\n"
                "constexpr float kKindAck = 2.0f;\n")
    stamp_h = os.path.join(fake_repo, "src", "telemetry", "trace_context.h")
    probe = os.path.join(fake_repo, "probe.cc")
    with open(probe, "w", encoding="utf-8") as f:
        f.write("int Probe() { return 0; }\n")

    def write_stamp(magic: str) -> None:
        with open(stamp_h, "w", encoding="utf-8") as f:
            f.write("inline constexpr std::size_t kStampLanes = 8;\n"
                    f"inline constexpr std::uint32_t kStampMagic = {magic};\n")

    write_stamp("2")  # collides with kKindAck
    p = run(["--repo", fake_repo, "--frontend", "lite", "--no-baseline",
             "--check", "tag-collision", probe])
    if p.returncode != 1 or "masquerade" not in p.stdout + p.stderr:
        fail(f"header-lane audit: expected exit 1 + masquerade finding for "
             f"colliding stamp magic, got exit {p.returncode}\n"
             f"{p.stdout}{p.stderr}")

    write_stamp("0x2000000")  # disjoint from the kinds but not float-exact
    p = run(["--repo", fake_repo, "--frontend", "lite", "--no-baseline",
             "--check", "tag-collision", probe])
    if p.returncode != 1 or "float-representable" not in p.stdout + p.stderr:
        fail(f"header-lane audit: expected exit 1 + float-representable "
             f"finding for wide stamp magic, got exit {p.returncode}\n"
             f"{p.stdout}{p.stderr}")

    write_stamp("0xA1ACC")  # the real layout: disjoint and exact
    p = run(["--repo", fake_repo, "--frontend", "lite", "--no-baseline",
             "--check", "tag-collision", probe])
    if p.returncode != 0:
        fail(f"header-lane audit: repaired repo not clean "
             f"(exit {p.returncode})\n{p.stdout}{p.stderr}")

# --- 4. frontend agreement when libclang is present ----------------------
sys.path.insert(0, os.path.join(REPO, "tools", "aiacc_analyzer"))
import frontend_clang  # noqa: E402

if frontend_clang.available():
    golden_pass("clang")
else:
    print("note: libclang not available; frontend-agreement layer skipped")

# --- 5. header-lane audit -------------------------------------------------
with tempfile.TemporaryDirectory() as td:
    header_lane_audit_pass(td)

if failures:
    print(f"\n{len(failures)} analyzer self-test failure(s)")
    sys.exit(1)
print("analyzer self-tests passed")
