#!/usr/bin/env python3
"""End-to-end smoke checks that drive the tcsctl binary and validate what it writes.

    tcsctl_smoke.py <check> <path/to/tcsctl> <work-dir>

Checks:
  chaos-report  a 2x2 loss x flap chaos sweep with disk stalls: report shape, every
                point's availability in [0, 1], link ledger sent == delivered + lost,
                and updates > 0
  chaos-jobs    the same sweep's stdout is byte-identical for --jobs=1 and --jobs=4
  wan-report    a dsl,lte WAN sweep (degradation off and on): report shape, availability
                in [0, 1], link ledger sent == delivered + lost, updates > 0, the
                degrade-on arm reaches level >= 1 and the off arm makes no
                transitions, and per profile the on arm's worst p99 is no worse than
                the off arm's
  wan-jobs      the same sweep's stdout is byte-identical for --jobs=1 and --jobs=4
  rewind        postmortem --rewind-ms on a 3-user consolidation that violates its SLO:
                the replay reproduces the violation, its frozen-window trace is
                byte-identical to the monitored run's, and the traced lead-up it writes
                is over 100000 bytes

ctest registers each check as a test labelled `smoke` (tests/CMakeLists.txt), so the
sanitizer build runs them under ASan+UBSan too. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

CHAOS = ["chaos", "--os=tse", "--loss=0,0.01", "--flap-ms=0,50", "--seconds=10",
         "--disk-stall=0.05"]
WAN = ["wan", "--os=tse", "--profile=dsl,lte", "--seconds=10"]
REWIND = ["postmortem", "consolidation", "--users=3", "--ram-mib=48", "--seconds=4",
          "--slo-p99-ms=1", "--rewind-ms=500", "--postmortem-dir=pm"]


def run(tcsctl, args):
    done = subprocess.run([tcsctl] + args, stdout=subprocess.PIPE, check=True)
    return done.stdout


def check_chaos_report(tcsctl):
    run(tcsctl, CHAOS + ["--report-out=chaos.json"])
    report = json.load(open("chaos.json"))
    assert report["experiment"] == "chaos_sweep", report
    points = report["points"]
    assert len(points) == 4, f"expected 4 grid points, got {len(points)}"
    for p in points:
        a = p["faults"]["availability"]
        assert 0.0 <= a <= 1.0, f"availability out of range: {p}"
        assert p["link_frames_sent"] == (
            p["link_frames_delivered"] + p["link_frames_lost"]), p
        assert p["updates"] > 0, p
    print(f"{len(points)} chaos points ok; availabilities "
          f"{[round(p['faults']['availability'], 4) for p in points]}")


def check_wan_report(tcsctl):
    run(tcsctl, WAN + ["--report-out=wan.json"])
    report = json.load(open("wan.json"))
    assert report["experiment"] == "wan_sweep", report
    points = report["points"]
    assert len(points) == 4, f"expected 2 profiles x 2 arms, got {len(points)}"
    for p in points:
        assert p["profile"] in ("dsl", "lte"), p
        a = p["availability"]
        assert 0.0 <= a <= 1.0, f"availability out of range: {p}"
        assert p["link_frames_sent"] == (
            p["link_frames_delivered"] + p["link_frames_lost"]), p
        assert p["updates"] > 0, p
        if p["degrade"]:
            assert p["degradation_peak_level"] >= 1, p
        else:
            assert p["degradation_transitions"] == 0, p
    # Both arms of a profile share a seed; the on arm must not lose on p99.
    by = {(p["profile"], p["degrade"]): p for p in points}
    for prof in ("dsl", "lte"):
        on, off = by[(prof, True)], by[(prof, False)]
        assert on["worst_p99_ms"] <= off["worst_p99_ms"], (prof, on, off)
    print(f"{len(points)} wan points ok; dsl p99 "
          f"{by[('dsl', False)]['worst_p99_ms']:.1f} -> "
          f"{by[('dsl', True)]['worst_p99_ms']:.1f} ms with degradation")


def check_rewind(tcsctl):
    out = run(tcsctl, REWIND).decode()
    assert "replay reproduced the violation" in out, out
    # The replay forked from a checkpoint 500+ ms before the violation sees the exact
    # same virtual history: its frozen-window trace is the monitored run's, byte for byte.
    monitored = open("pm/consolidation.trace.json", "rb").read()
    replay = open("pm/consolidation_replay.trace.json", "rb").read()
    assert monitored == replay, "replay's frozen-window trace differs from the original"
    size = os.path.getsize("pm/consolidation.rewind.trace.json")
    assert size > 100000, f"rewind trace is only {size} bytes"
    print(f"rewind replay reproduced the violation; lead-up trace {size} bytes")


def check_jobs(tcsctl, args):
    one = run(tcsctl, args + ["--jobs=1"])
    four = run(tcsctl, args + ["--jobs=4"])
    assert one == four, f"{args[0]} stdout depends on --jobs"
    print(f"{args[0]} stdout identical for --jobs=1 and --jobs=4 ({len(one)} bytes)")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    check, tcsctl, work_dir = sys.argv[1], os.path.abspath(sys.argv[2]), sys.argv[3]
    os.makedirs(work_dir, exist_ok=True)
    os.chdir(work_dir)
    checks = {
        "chaos-report": lambda: check_chaos_report(tcsctl),
        "chaos-jobs": lambda: check_jobs(tcsctl, CHAOS),
        "wan-report": lambda: check_wan_report(tcsctl),
        "wan-jobs": lambda: check_jobs(tcsctl, WAN),
        "rewind": lambda: check_rewind(tcsctl),
    }
    if check not in checks:
        sys.exit(f"unknown check '{check}' (one of {', '.join(checks)})")
    checks[check]()


if __name__ == "__main__":
    main()
