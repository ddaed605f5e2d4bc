#!/usr/bin/env python3
"""Perf gate: compare BENCH_*.json reports against checked-in baselines.

Records are joined on (bench, scenario, algorithm). Two checks per pair:

  * dt_per_point — the mean dominance-test count. Deterministic given
    the scenario seed, so it is the HARD gate: a regression beyond
    --dt-tolerance (default 30%) fails, as does a record present in the
    baseline but missing from the current report (coverage loss) or a
    record present in the current report but absent from the baseline
    (an ungated measurement — renames and additions must land with a
    regenerated baseline, and failing this prints the full
    expected-vs-found record listing).
    Improvements beyond the tolerance are reported as a reminder to
    refresh the baseline, but do not fail. A few records carry a
    higher-is-better value in dt_per_point instead of a test count
    (HIGHER_IS_BETTER: speedup ratios and hit percentages); they are
    gated in their own direction, so a fall beyond the tolerance fails
    and a rise is the note.
  * rt_ms — wall time. Shared CI runners are noisy, so RT is ADVISORY
    only: regressions beyond --rt-tolerance (default 75%) are printed
    as warnings and never fail the gate.

Pairs are DISCOVERED from the baseline directory: every
bench/baselines/BENCH_<name>.json must have a matching BENCH_<name>.json
in the current directory, produced by the bench suite. A baseline whose
current report is missing is a HARD FAILURE — a silently skipped
benchmark is exactly how a perf regression sneaks past the gate. (An
earlier version only compared a hardcoded pair list, so new baselines
were silently ignored; --self-test covers this case now.)

Usage:
  scripts/check_perf.py                       # discover pairs from
                                              # bench/baselines/
  scripts/check_perf.py CURRENT BASELINE      # explicit pair(s) instead
  scripts/check_perf.py --self-test           # verify the gate's own
                                              # failure detection
"""

import argparse
import glob
import json
import os
import sys

BASELINE_DIR = "bench/baselines"

# Records whose dt_per_point holds a value where higher is better (a
# ratio or a percentage), keyed by the record's algorithm field.
HIGHER_IS_BETTER = {
    "query-speedup",
    "query-hit-pct",
    "query-mixed-hit-pct",
    "server-dt-speedup",
}


def discover_pairs(baseline_dir, current_dir):
    """One (current, baseline) pair per baseline file. Never empty-skips:
    a baseline directory with no BENCH_*.json at all is an error, since
    it means the gate would pass without checking anything."""
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    return [(os.path.join(current_dir, os.path.basename(b)), b)
            for b in baselines]


def load_records(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    out = {}
    for rec in doc["records"]:
        key = (rec["bench"], rec["scenario"], rec["algorithm"])
        if key in out:
            sys.exit(f"{path}: duplicate record {key}")
        out[key] = rec
    return out


def check_pair(current_path, baseline_path, dt_tol, rt_tol):
    """Returns (hard_failures, advisories) for one current/baseline pair."""
    if not os.path.exists(baseline_path):
        print(f"[FAIL] baseline {baseline_path} missing")
        return 1, 0
    if not os.path.exists(current_path):
        print(f"[FAIL] {current_path} missing — bench suite did not produce "
              "a report for this baseline (silently skipping it would let "
              "regressions through)")
        return 1, 0

    current = load_records(current_path)
    baseline = load_records(baseline_path)
    failures = 0
    advisories = 0

    # An empty record set means the gate would "pass" while checking
    # nothing — a truncated report or an empty baseline must be loud,
    # not a silent green.
    if not baseline:
        print(f"[FAIL] {baseline_path}: baseline contains zero records — "
              "the gate has nothing to compare; delete the file or "
              "regenerate it from a real bench run")
        return 1, 0
    if not current:
        print(f"[FAIL] {current_path}: current report contains zero "
              "records — the bench produced no measurements, so every "
              "baseline record would be unchecked")
        return 1, 0

    for key, base in sorted(baseline.items()):
        label = "/".join(key)
        cur = current.get(key)
        if cur is None:
            print(f"[FAIL] {label}: record missing from {current_path} "
                  "(coverage loss)")
            failures += 1
            continue

        # Scenario identity: DT is only comparable on identical inputs.
        for field in ("n", "d", "seed", "runs"):
            if cur[field] != base[field]:
                print(f"[FAIL] {label}: {field} changed "
                      f"({base[field]} -> {cur[field]}); refresh the baseline "
                      "instead of comparing different scenarios")
                failures += 1
                break
        else:
            base_dt, cur_dt = base["dt_per_point"], cur["dt_per_point"]
            rose = base_dt > 0 and cur_dt > base_dt * (1 + dt_tol)
            fell = base_dt > 0 and cur_dt < base_dt * (1 - dt_tol)
            worse, better = ((fell, rose) if key[2] in HIGHER_IS_BETTER
                             else (rose, fell))
            if worse:
                print(f"[FAIL] {label}: dt_per_point {base_dt:.2f} -> "
                      f"{cur_dt:.2f} ({(cur_dt / base_dt - 1) * 100:+.1f}%, "
                      f"beyond {dt_tol * 100:.0f}% in the worse direction)")
                failures += 1
            elif better:
                print(f"[note] {label}: dt_per_point improved {base_dt:.2f} "
                      f"-> {cur_dt:.2f}; consider refreshing the baseline")

            base_rt, cur_rt = base["rt_ms"], cur["rt_ms"]
            if base_rt > 0 and cur_rt > base_rt * (1 + rt_tol):
                print(f"[warn] {label}: rt_ms {base_rt:.3f} -> {cur_rt:.3f} "
                      f"(+{(cur_rt / base_rt - 1) * 100:.1f}%) — advisory "
                      "only (runner noise)")
                advisories += 1

            if cur["skyline_size"] != base["skyline_size"]:
                print(f"[FAIL] {label}: skyline_size changed "
                      f"{base['skyline_size']} -> {cur['skyline_size']} "
                      "(correctness, not perf)")
                failures += 1

    # Symmetric direction: a record the bench now emits that the
    # baseline does not know is a hard failure too. Before this check, a
    # renamed or newly added record was simply never compared — the
    # bench could report anything for it and the gate stayed green
    # until someone remembered to regenerate the baseline. Fail with the
    # full expected-vs-found listing so a rename (old name "missing",
    # new name "unexpected") is obvious at a glance.
    extras = sorted(set(current) - set(baseline))
    if extras:
        for key in extras:
            print(f"[FAIL] {'/'.join(key)}: record not in {baseline_path} "
                  "(ungated measurement)")
        print(f"[FAIL] {current_path}: {len(extras)} record(s) have no "
              f"baseline — regenerate {baseline_path} from a fresh bench "
              "run so they are gated.")
        print(f"  expected (baseline): "
              f"{', '.join('/'.join(k) for k in sorted(baseline))}")
        print(f"  found    (current):  "
              f"{', '.join('/'.join(k) for k in sorted(current))}")
        failures += len(extras)

    print(f"[done] {current_path} vs {baseline_path}: "
          f"{len(baseline)} baseline records, {failures} failures, "
          f"{advisories} RT advisories")
    return failures, advisories


def run_gate(pairs, dt_tol, rt_tol):
    total_failures = 0
    for current, base in pairs:
        failures, _ = check_pair(current, base, dt_tol, rt_tol)
        total_failures += failures
    if total_failures:
        print(f"PERF GATE FAILED: {total_failures} hard failure(s)")
        return 1
    print("perf gate OK")
    return 0


def self_test():
    """Verifies the gate's own failure detection against synthetic
    reports — in particular that a baseline with no current report is a
    hard failure, not a silent pass (the historical bug)."""
    import tempfile

    def write_report(path, records):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"schema_version": 1, "records": records}, f)

    def record(bench="b", scenario="s", algorithm="a", dt=100.0, rt=5.0,
               skyline=10):
        return {"bench": bench, "scenario": scenario, "algorithm": algorithm,
                "n": 1000, "d": 4, "seed": 42, "runs": 1,
                "dt_per_point": dt, "rt_ms": rt, "skyline_size": skyline}

    problems = []

    def expect(name, got_failures, want_nonzero):
        ok = (got_failures > 0) == want_nonzero
        print(f"[self-test] {name}: {'ok' if ok else 'BROKEN'}")
        if not ok:
            problems.append(name)

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baselines")
        cur_dir = os.path.join(tmp, "current")
        os.makedirs(base_dir)
        os.makedirs(cur_dir)

        # Two baselines; only one has a current report. Discovery must
        # surface both and fail the missing one.
        write_report(os.path.join(base_dir, "BENCH_one.json"), [record()])
        write_report(os.path.join(base_dir, "BENCH_two.json"),
                     [record(bench="two")])
        write_report(os.path.join(cur_dir, "BENCH_one.json"), [record()])
        pairs = discover_pairs(base_dir, cur_dir)
        expect("discovery finds every baseline", 0 if len(pairs) == 2 else 1,
               False)
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_two.json"),
                          os.path.join(base_dir, "BENCH_two.json"), 0.3, 0.75)
        expect("missing current report is a hard failure", f, True)

        # Identical reports pass.
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_one.json"),
                          os.path.join(base_dir, "BENCH_one.json"), 0.3, 0.75)
        expect("identical reports pass", f, False)

        # A record dropped from the current report fails.
        write_report(os.path.join(base_dir, "BENCH_three.json"),
                     [record(), record(scenario="s2")])
        write_report(os.path.join(cur_dir, "BENCH_three.json"), [record()])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_three.json"),
                          os.path.join(base_dir, "BENCH_three.json"),
                          0.3, 0.75)
        expect("dropped record is a hard failure", f, True)

        # A DT regression beyond tolerance fails; within tolerance passes.
        write_report(os.path.join(cur_dir, "BENCH_reg.json"),
                     [record(dt=150.0)])
        write_report(os.path.join(base_dir, "BENCH_reg.json"),
                     [record(dt=100.0)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_reg.json"),
                          os.path.join(base_dir, "BENCH_reg.json"), 0.3, 0.75)
        expect("dt regression beyond tolerance fails", f, True)
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_reg.json"),
                          os.path.join(base_dir, "BENCH_reg.json"), 0.6, 0.75)
        expect("dt regression within tolerance passes", f, False)

        # A higher-is-better record is gated the other way round: a fall
        # beyond tolerance fails, a rise beyond it is only a note.
        write_report(os.path.join(base_dir, "BENCH_hib.json"),
                     [record(algorithm="query-hit-pct", dt=80.0)])
        write_report(os.path.join(cur_dir, "BENCH_hib.json"),
                     [record(algorithm="query-hit-pct", dt=50.0)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_hib.json"),
                          os.path.join(base_dir, "BENCH_hib.json"), 0.3, 0.75)
        expect("higher-is-better fall beyond tolerance fails", f, True)
        write_report(os.path.join(cur_dir, "BENCH_hib.json"),
                     [record(algorithm="query-hit-pct", dt=120.0)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_hib.json"),
                          os.path.join(base_dir, "BENCH_hib.json"), 0.3, 0.75)
        expect("higher-is-better rise beyond tolerance passes", f, False)
        write_report(os.path.join(cur_dir, "BENCH_hib.json"),
                     [record(algorithm="query-hit-pct", dt=70.0)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_hib.json"),
                          os.path.join(base_dir, "BENCH_hib.json"), 0.3, 0.75)
        expect("higher-is-better fall within tolerance passes", f, False)

        # A changed skyline size fails (correctness, not perf).
        write_report(os.path.join(cur_dir, "BENCH_sky.json"),
                     [record(skyline=11)])
        write_report(os.path.join(base_dir, "BENCH_sky.json"),
                     [record(skyline=10)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_sky.json"),
                          os.path.join(base_dir, "BENCH_sky.json"), 0.3, 0.75)
        expect("skyline_size change fails", f, True)

        # Zero records on either side is a hard failure, not a vacuous
        # pass (the empty-intersection bug: a baseline or report with an
        # empty records array used to sail through the comparison loop).
        write_report(os.path.join(base_dir, "BENCH_emptybase.json"), [])
        write_report(os.path.join(cur_dir, "BENCH_emptybase.json"),
                     [record()])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_emptybase.json"),
                          os.path.join(base_dir, "BENCH_emptybase.json"),
                          0.3, 0.75)
        expect("empty baseline records is a hard failure", f, True)
        write_report(os.path.join(base_dir, "BENCH_emptycur.json"),
                     [record()])
        write_report(os.path.join(cur_dir, "BENCH_emptycur.json"), [])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_emptycur.json"),
                          os.path.join(base_dir, "BENCH_emptycur.json"),
                          0.3, 0.75)
        expect("empty current records is a hard failure", f, True)

        # A record added (or renamed) in the current report with no
        # baseline counterpart fails loudly instead of going ungated —
        # the historical gap this self-test pins down: only the
        # baseline->current direction was checked, so new bench records
        # were never compared at all.
        write_report(os.path.join(base_dir, "BENCH_extra.json"), [record()])
        write_report(os.path.join(cur_dir, "BENCH_extra.json"),
                     [record(), record(algorithm="kernel/renamed")])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_extra.json"),
                          os.path.join(base_dir, "BENCH_extra.json"),
                          0.3, 0.75)
        expect("record without a baseline is a hard failure", f, True)

        # RT noise alone never fails.
        write_report(os.path.join(cur_dir, "BENCH_rt.json"),
                     [record(rt=50.0)])
        write_report(os.path.join(base_dir, "BENCH_rt.json"),
                     [record(rt=5.0)])
        f, _ = check_pair(os.path.join(cur_dir, "BENCH_rt.json"),
                          os.path.join(base_dir, "BENCH_rt.json"), 0.3, 0.75)
        expect("rt regression is advisory only", f, False)

    if problems:
        print(f"SELF-TEST FAILED: {', '.join(problems)}")
        return 1
    print("self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dt-tolerance", type=float, default=0.30,
                        help="hard-gate tolerance on dt_per_point")
    parser.add_argument("--rt-tolerance", type=float, default=0.75,
                        help="advisory tolerance on rt_ms")
    parser.add_argument("--baseline-dir", default=BASELINE_DIR,
                        help="directory scanned for BENCH_*.json baselines")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding the fresh BENCH_*.json reports")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate's own failure detection and exit")
    parser.add_argument("files", nargs="*",
                        help="explicit CURRENT BASELINE pairs (overrides "
                             "discovery)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.files:
        if len(args.files) % 2 != 0:
            parser.error("files must come in CURRENT BASELINE pairs")
        pairs = list(zip(args.files[::2], args.files[1::2]))
    else:
        pairs = discover_pairs(args.baseline_dir, args.current_dir)
        if not pairs:
            print(f"[FAIL] no BENCH_*.json baselines under "
                  f"{args.baseline_dir} — the gate has nothing to check")
            return 1

    return run_gate(pairs, args.dt_tolerance, args.rt_tolerance)


if __name__ == "__main__":
    sys.exit(main())
