#!/usr/bin/env python3
"""End-to-end benchmark of the AMNESIAC section-5 pipeline.

Builds the library and the perfbench binary from source (optimised,
into .bench_build/ of the checkout), runs one workload, checks every
(item x policy) cell it produced and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_repro --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the traced pass and reports the per-layer metrics. End-to-end times are
rescaled by the host probes timed around every step (see rescaled()).
The amount of work is fixed per workload, so --seconds is only
recorded. See README.md for the workloads, the metrics and how to read
them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CACHE_ROOT = os.path.join(ROOT, ".bench_build", "cache")

# Timed passes per run (wall_norm_s sums, over the items, each item's
# median rescaled pass) and, for a warm workload, whether set-up fills
# the cache.
WORKLOADS = {
    "cold_repro": {"passes": 2, "populate": False, "cache": False},
    "warm_sweep": {"passes": 9, "populate": True, "cache": True},
    "cold_compiler_only": {"passes": 4, "populate": False, "cache": True},
}
SETUP_REPS = 9
# Seconds of one host probe (perfbench.cc's HostProbe) at the reference
# host speed that wall_norm_s and setup_s are expressed in: a fixed
# scale, near the probe's typical time on a 4-core Xeon VM, so that
# the metrics read as seconds.
PROBE_NOMINAL_S = 0.125

END_TO_END = [
    ("wall_norm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# (metric, unit, better, what it should move). The traced run of every
# workload reports all of them; the last field names the end-to-end
# metric and workload each one is expected to move.
PER_LAYER = [
    ("workloads.build_s", "s", "lower", "setup_s on every workload"),
    ("analysis.lint_s", "s", "lower", "wall_norm_s on every workload"),
    ("analysis.prune_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("analysis.pruned_candidates", "count", "higher",
     "wall_norm_s on both cold workloads"),
    ("profile.pass_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("profile.replays", "count", "lower",
     "wall_norm_s on both cold workloads"),
    ("profile.ns_per_instr", "ns", "lower",
     "wall_norm_s on both cold workloads"),
    ("profile.bare_s", "s", "lower", "cold_repro/wall_norm_s"),
    ("profile.observer_s", "s", "lower", "cold_repro/wall_norm_s"),
    ("profile.tracker_s", "s", "lower", "cold_repro/wall_norm_s"),
    ("profile.full_s", "s", "lower", "cold_repro/wall_norm_s"),
    ("profile.productions", "count", "lower", "cold_repro/peak_rss_mb"),
    ("profile.arena_nodes_peak", "count", "lower", "cold_repro/peak_rss_mb"),
    ("profile.arena_bytes_peak", "B", "lower", "cold_repro/peak_rss_mb"),
    ("profile.arena_live_end", "count", "lower", "cold_repro/peak_rss_mb"),
    ("core.compile_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("core.dryrun_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("core.select_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("core.gate_s", "s", "lower", "wall_norm_s on both cold workloads"),
    ("core.selected_slices", "count", "higher",
     "wall_norm_s on both cold workloads"),
    ("core.amnesic_s", "s", "lower", "warm_sweep/wall_norm_s"),
    ("core.amnesic_ns_per_instr", "ns", "lower", "warm_sweep/wall_norm_s"),
    ("core.recomputations", "count", "higher", "warm_sweep/wall_norm_s"),
    ("sim.classic_s", "s", "lower", "warm_sweep/wall_norm_s"),
    ("sim.classic_ns_per_instr", "ns", "lower", "warm_sweep/wall_norm_s"),
    ("sim.classic_instrs", "count", "lower", "warm_sweep/wall_norm_s"),
    ("mem.loads_l1", "count", "higher", "none: guard, must not change"),
    ("mem.loads_dram", "count", "lower", "none: guard, must not change"),
    ("report.prepare_s", "s", "lower", "warm_sweep/wall_norm_s"),
    ("report.simulate_s", "s", "lower", "warm_sweep/wall_norm_s"),
    ("report.cache_probe_s", "s", "lower", "warm_sweep/wall_norm_s"),
    ("report.cache_publish_s", "s", "lower", "cold_compiler_only/wall_norm_s"),
    ("report.cache_hit_ratio", "ratio", "higher", "warm_sweep/wall_norm_s"),
    ("isa.amnb_bytes", "B", "lower", "warm_sweep/wall_norm_s"),
    ("report.cache_entry_bytes", "B", "lower", "warm_sweep/wall_norm_s"),
    ("proc.sys_s", "s", "lower", "cold_repro/wall_norm_s and peak_rss_mb"),
    ("proc.minor_faults", "count", "lower",
     "cold_repro/wall_norm_s and peak_rss_mb"),
    ("obs.trace_overhead_s", "s", "lower", "none: cost of tracing"),
]

# Per-layer metrics that must repeat bit-for-bit for one seed.
EXACT = [name for name, unit, _, _ in PER_LAYER
         if unit in ("count", "B", "ratio")
         and name not in ("proc.minor_faults",)]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def perfbench(*args):
    """Run the perfbench binary; returns its JSON output."""
    proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def check_cells(passes, reference=None):
    """Apply the per-cell checks; returns (attempted, failed, reasons).

    A cell is one (item, policy) pair. It fails if it did not halt
    inside the run limit, if a recomputation mismatched its shadow
    check or went unchecked, if its digest differs between passes, or,
    given a reference (the cold result of a warm workload's set-up), if
    its digest differs from the reference.
    """
    run_limit = 1 << 32
    cells = {}
    for cell_pass in passes:
        for cell in cell_pass:
            cells.setdefault((cell["item"], cell["policy"]), []).append(cell)
    reasons = []
    if any(len(seen) != len(passes) for seen in cells.values()):
        reasons.append("passes ran different cells")
    if reference is not None:
        ref = {(c["item"], c["policy"]): c["digest"] for c in reference}
        if set(ref) != set(cells):
            reasons.append("cells differ from the set-up's reference")
    failed = 0
    for key, seen in sorted(cells.items()):
        why = []
        for cell in seen:
            if cell["dyn_instrs"] >= run_limit:
                why.append("did not halt")
            if cell["recompute_mismatches"] != 0:
                why.append("recomputation mismatch")
            if cell["recompute_checked"] != cell["recomputations"]:
                why.append("unchecked recomputation")
        if len({cell["digest"] for cell in seen}) != 1:
            why.append("digest differs between passes")
        if reference is not None and seen[0]["digest"] != ref.get(key):
            why.append("digest differs from the cold reference")
        if why:
            failed += 1
            reasons.append(f"{key[0]}/{key[1]}: {', '.join(sorted(set(why)))}")
    return len(cells), failed, reasons


def wall_seconds(pass_secs):
    """Sum over the items of each item's median time across passes."""
    return sum(statistics.median(item) for item in zip(*pass_secs))


def rescaled(secs, probes):
    """Each time in secs rescaled to the host speed at which one host
    probe takes PROBE_NOMINAL_S.

    probes holds one probe before the first time and one after each;
    a time is divided by the mean of the two probes around it.
    """
    if len(probes) != len(secs) + 1:
        raise BenchError("some timed step has no probe around it")
    return [PROBE_NOMINAL_S * sec / (0.5 * (before + after))
            for sec, before, after in zip(secs, probes, probes[1:])]


def normalised_wall_seconds(pass_secs, probe_secs):
    """wall_seconds over the rescaled item times."""
    return wall_seconds([rescaled(secs, probes)
                         for secs, probes in zip(pass_secs, probe_secs)])


def normalised_setup_seconds(measured, populated=None):
    """Median rescaled item construction, plus the rescaled populate."""
    setup = statistics.median(rescaled(measured["build_secs"],
                                       measured["build_probe_secs"]))
    if populated is not None:
        setup += rescaled([populated["setup_s"]],
                          populated["probe_secs"])[0]
    return setup


def layer_metrics(layers):
    """Per-layer metric values from perfbench's raw totals."""
    def ratio(num, den, scale=1.0):
        if not layers.get(den):
            return 0.0
        return scale * layers.get(num, 0.0) / layers[den]

    values = dict(layers)
    values["profile.ns_per_instr"] = ratio("profile.pass_s",
                                           "profile.instrs", 1e9)
    values["core.amnesic_ns_per_instr"] = ratio("core.amnesic_s",
                                                "core.amnesic_instrs", 1e9)
    values["sim.classic_ns_per_instr"] = ratio("sim.classic_s",
                                               "sim.classic_instrs", 1e9)
    probes = layers.get("report.cache_hits", 0.0) + \
        layers.get("report.cache_misses", 0.0)
    values["report.cache_hit_ratio"] = \
        layers.get("report.cache_hits", 0.0) / probes if probes else 0.0
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _, _ in PER_LAYER}


def run(workload, seed, trace):
    spec = WORKLOADS[workload]
    build()
    cache_dir = os.path.join(CACHE_ROOT, workload)
    common = ["--workload", workload, "--seed", str(seed)]
    if spec["cache"]:
        common += ["--cache-dir", cache_dir]
    try:
        reference = None
        populated = None
        if spec["populate"]:
            populated = perfbench("populate", *common)
            reference = populated["cells"][0]
        args = ["measure", *common, "--passes", str(spec["passes"]),
                "--setup-reps", str(SETUP_REPS)]
        measured = perfbench(*args, *(["--trace"] if trace else []))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    attempted, failed, reasons = check_cells(measured["cells"], reference)
    if measured["max_threads"] != 1:
        reasons.append(f"{measured['max_threads']} threads in a timed phase")
    print("provenance: " + json.dumps(measured["provenance"]))
    if trace:
        layers = measured["layers"]
        if layers.get("obs.threads_traced") != 1:
            reasons.append("spans recorded on more than one thread")
        metrics = layer_metrics(layers)
        for name, unit, _, moves in PER_LAYER:
            print(f"layer {name:28s} {metrics[name]['value']:>18.6g} "
                  f"{unit:6s} -> {moves}")
    else:
        print(f"raw wall_s {wall_seconds(measured['pass_secs']):.4f}, "
              f"host probe median "
              f"{statistics.median(sum(measured['probe_secs'], [])):.4f} s")
        metrics = {
            "wall_norm_s": normalised_wall_seconds(measured["pass_secs"],
                                                   measured["probe_secs"]),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": normalised_setup_seconds(measured, populated),
        }
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in END_TO_END}
    for reason in reasons:
        log("check failed: " + reason)
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args.workload, args.seed, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError, KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
