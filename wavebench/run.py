#!/usr/bin/env python3
"""The wave-pipeline benchmark: one workload per invocation.

    python3 wavebench/run.py --workload <train_wave|train_hybrid|serve_chat>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the default (Release, portable)
build of the library and the workload binary under .bench_build/, runs
the workload and prints every metric by name with its unit. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. README.md in this directory lists the metrics.

--trace 1 runs the workload twice, once timed and untraced and once
traced, and reports the difference of their headline metrics as
bench.trace_overhead_pct. Results, with their provenance, are also
written to .bench_build/wavebench/results/, and a traced run writes its
spans there as a Chrome trace.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wavebench"
BINARY = BUILD / "wavebench"
RUN_TIMEOUT_S = 170
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import test_metrics  # noqa: E402

# The serving SLO: first token within 50 ms of the request's due time and
# a mean gap between tokens of at most 5 ms.
SERVE_TTFT_LIMIT_S = 0.050
SERVE_TBT_LIMIT_S = 0.005
# The training SLO, per step: the loss back within this budget (about 1.7x
# the step time of a quiet 4-core host).
TRAIN_STEP_LIMIT_S = {"train_wave": 0.400, "train_hybrid": 0.800}

END_TO_END = {
    "train_samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "tbt_p50_ms": "ms",
    "tbt_p98_ms": "ms",
    "slo_attainment": "share",
}

PER_LAYER = {
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.gemv_gflops": "GFLOP/s",
    "tensor.allocs_per_step": "count",
    "tensor.allocs_per_decode_pass": "count",
    "model.stage_fwd_ms": "ms",
    "model.stage_bwd_ms": "ms",
    "model.prefill_ms": "ms",
    "model.decode_ms": "ms",
    "comm.p2p_us": "us",
    "comm.p2p_mb_per_step": "MB",
    "comm.allreduce_ms": "ms",
    "comm.allreduce_mb_per_step": "MB",
    "schedule.build_ms": "ms",
    "schedule.actions": "count",
    "schedule.p2p_sends": "count",
    "schedule.speedup_vs_dapple": "ratio",
    "runtime.compute_busy_share": "share",
    "runtime.idle_share_max": "share",
    "runtime.step_start_ms": "ms",
    "runtime.peak_cache_mb": "MB",
    "runtime.queue_wait_ms_p50": "ms",
    "runtime.queue_wait_ms_p90": "ms",
    "runtime.prefill_pass_ms": "ms",
    "runtime.decode_pass_ms": "ms",
    "runtime.decode_batch_mean": "count",
    "runtime.kv_prefix_hit_rate": "share",
    "runtime.kv_pages_peak": "count",
    "sim.predicted_bubble_ratio": "share",
    "sim.step_residual": "ratio",
    "sim.decode_residual": "ratio",
    "bench.gen_lag_ms_p99": "ms",
    "bench.trace_overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", "wavebench"]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log(f"build failed: {' '.join(cmd)} (see {BUILD / 'build.log'})")
                return False
    return True


def selftest():
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_metrics)
    return unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite).wasSuccessful()


# ---- provenance ----------------------------------------------------------

def cmake_cache():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def first_line(cmd):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
        return p.stdout.splitlines()[0].strip() if p.returncode == 0 and p.stdout else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the library and benchmark sources, so a result names
    the code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "wavebench", "CMakeLists.txt"):
        paths = [ROOT / base] if (ROOT / base).is_file() else sorted((ROOT / base).rglob("*"))
        for p in paths:
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(seed, load_start):
    cache = cmake_cache()
    status = first_line(["git", "status", "--porcelain", "--untracked-files=no"])
    sha = first_line(["git", "rev-parse", "HEAD"])
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else status is not None,
        "source_sha256": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "native_arch": cache.get("HANAYO_NATIVE_ARCH"),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", ""),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": seed,
    }


# ---- the workload binary -------------------------------------------------

def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spans_named(d, name):
    """Per-call seconds of every benchmark span called `name`."""
    out = [(s["end"] - s["start"]) / s["reps"] for s in d["spans"] if s["name"] == name]
    if not out:
        raise KeyError(f"no span named {name}")
    return out


# ---- end-to-end metrics ----------------------------------------------------

def sample_support(ttft, gaps):
    return {"ttft_samples": len(ttft), "ttft_p90_supported": metrics.supported(len(ttft), 0.9),
            "tbt_samples": len(gaps), "tbt_p98_supported": metrics.supported(len(gaps), 0.98)}


def train_outcome(d, workload):
    lat = [r - c for c, r in zip(d["step_call_s"], d["step_return_s"])]
    finite = [x is not None for x in d["step_loss"]]
    timed = len(lat) + d["step_exceptions"]
    attempted = d["prefix_checked"] + timed
    failed = d["prefix_failed"] + d["step_exceptions"] + finite.count(False)
    limit = TRAIN_STEP_LIMIT_S[workload]
    met = sum(ok and x <= limit for ok, x in zip(finite, lat))
    # Each micro-batch is a request, due when its step() is called; its
    # first token is its output leaving the last stage (timeline times run
    # from the origin, wall_s before the return). The token gaps are the
    # gaps between consecutive outputs within a step.
    ttft = [x - w + out for x, w, outs in zip(lat, d["step_wall_s"], d["step_outputs_s"])
            for out in outs]
    gaps = metrics.token_gaps(d["step_outputs_s"])
    m = {
        "train_samples_per_s": d["rows"] / metrics.median(lat),
        "setup_s": metrics.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "ttft_p50_ms": metrics.nearest_rank(ttft, 0.5) * 1e3,
        "ttft_p90_ms": metrics.nearest_rank(ttft, 0.9) * 1e3,
        "tbt_p50_ms": metrics.nearest_rank(gaps, 0.5) * 1e3,
        "tbt_p98_ms": metrics.nearest_rank(gaps, 0.98) * 1e3,
        "slo_attainment": met / timed,
    }
    checks = {"steps": len(lat), "prefix_rule": d["prefix_rule"],
              "prefix_failed": d["prefix_failed"], "prefix_max_ulp": d["prefix_max_ulp"],
              **sample_support(ttft, gaps)}
    return m, attempted, failed, checks


def serve_outcome(d):
    reqs = d["requests"]
    n = len(reqs)
    w = d["window"]
    ok = [r for r in reqs if r["ok"]]
    unaccounted = 0 if d["conserved"] else max(1, abs(w["submitted"] - n))
    failed = n - len(ok) + unaccounted
    ttft = [r["token_times"][0] - r["due"] for r in ok]
    gaps = metrics.token_gaps([r["token_times"] for r in ok])
    m = {
        # Serving's samples are token rows: tokens generated per second
        # the pipeline was busy, a capacity that does not follow the
        # offered rate.
        "train_samples_per_s": w["generated_tokens"] / (w["prefill_s"] + w["decode_s"]),
        "setup_s": metrics.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "ttft_p50_ms": metrics.nearest_rank(ttft, 0.5) * 1e3,
        "ttft_p90_ms": metrics.nearest_rank(ttft, 0.9) * 1e3,
        "tbt_p50_ms": metrics.nearest_rank(gaps, 0.5) * 1e3,
        "tbt_p98_ms": metrics.nearest_rank(gaps, 0.98) * 1e3,
        "slo_attainment": metrics.slo_attainment(reqs, SERVE_TTFT_LIMIT_S, SERVE_TBT_LIMIT_S),
    }
    checks = {
        "requests": n, "served_ok": len(ok), "conserved": d["conserved"],
        "outcomes": {k: w[k] for k in ("submitted", "requests", "completed", "rejected",
                                       "cancelled", "timed_out")},
        "not_served": d["not_served"], "wrong_token_count": d["wrong_token_count"],
        "stream_mismatch": d["stream_mismatch"], "reference_checked": d["reference_checked"],
        "reference_mismatch": d["reference_mismatch"], "drain_failed": d["drain_failed"],
        **sample_support(ttft, gaps),
        "gen_lag_ms_p99": metrics.nearest_rank([r["enqueued"] - r["due"] for r in reqs], 0.99) * 1e3,
    }
    return m, n, failed, checks


def outcome(d, workload):
    return serve_outcome(d) if d["kind"] == "serve" else train_outcome(d, workload)


def headline(m, kind):
    """The metric the tracing overhead is read from, as a cost (higher is
    worse): the step time for training, the median token gap for serving."""
    return m["tbt_p50_ms"] if kind == "serve" else 1.0 / m["train_samples_per_s"]


# ---- per-layer metrics -----------------------------------------------------

def common_layers(d):
    """The layer probes every workload runs, and the schedule counts."""
    return {
        "tensor.gemm_gflops": 2 * 32 * 64 * 256 / metrics.median(spans_named(d, "tensor::matmul[32x64x256]")) / 1e9,
        "tensor.gemv_gflops": 2 * 1 * 64 * 256 / metrics.median(spans_named(d, "tensor::matmul[1x64x256]")) / 1e9,
        "model.stage_fwd_ms": metrics.median(spans_named(d, "model::StageModule::forward")) * 1e3,
        "model.stage_bwd_ms": metrics.median(spans_named(d, "model::StageModule::backward")) * 1e3,
        "model.prefill_ms": metrics.median(spans_named(d, "model::StageModule::decode[prefill 32]")) * 1e3,
        "model.decode_ms": metrics.median(spans_named(d, "model::StageModule::decode[token @48]")) * 1e3,
        "comm.p2p_us": metrics.median(spans_named(d, "comm::Communicator::send+recv[round trip]")) / 2 * 1e6,
        "comm.p2p_mb_per_step": d["p2p_bytes_per_step"] / 1e6,
        "comm.allreduce_ms": metrics.median(spans_named(d, "comm::allreduce_sum[2 ranks]")) * 1e3,
        "comm.allreduce_mb_per_step": d["allreduce_bytes_per_step"] / 1e6,
        "schedule.build_ms": metrics.median(spans_named(d, "schedule::make_schedule")) * 1e3,
        "schedule.actions": d["schedule_actions"],
        "schedule.p2p_sends": d["schedule_p2p_sends"],
        "schedule.speedup_vs_dapple": metrics.median(d["dapple_step_s"]) / metrics.median(d["hanayo_step_s"]),
    }


def train_layers(d):
    busy, idle, start, entry, fwd, bwd = [], [], [], [], [], []
    for step in d["timelines"]:
        wall = step["wall_s"]
        ranks = [[(s[3], s[4]) for s in rank] for rank in step["ranks"]]
        busy.append(metrics.compute_busy_share(ranks, wall))
        idle.append(metrics.idle_share_max(ranks, wall))
        start.append(min(s[3] for rank in step["ranks"] for s in rank))
        for rank in step["ranks"]:
            for mb, pos, backward, t0, t1 in rank:
                (bwd if backward else fwd).append(t1 - t0)
                if pos == 0 and not backward:
                    entry.append(t0)  # micro-batch admitted into the pipeline
    lat = [r - c for c, r in zip(d["step_call_s"], d["step_return_s"])]
    between = [c - r for r, c in zip(d["step_return_s"], d["step_call_s"][1:])]
    return {
        "tensor.allocs_per_step": metrics.median(d["allocs_per_step"]),
        "tensor.allocs_per_decode_pass": 0,
        "runtime.compute_busy_share": metrics.median(busy),
        "runtime.idle_share_max": metrics.median(idle),
        "runtime.step_start_ms": metrics.median(start) * 1e3,
        "runtime.peak_cache_mb": d["peak_cache_bytes"] / 1e6,
        "runtime.queue_wait_ms_p50": metrics.nearest_rank(entry, 0.5) * 1e3,
        "runtime.queue_wait_ms_p90": metrics.nearest_rank(entry, 0.9) * 1e3,
        "runtime.prefill_pass_ms": sum(fwd) / len(fwd) * 1e3,
        "runtime.decode_pass_ms": sum(bwd) / len(bwd) * 1e3,
        "runtime.decode_batch_mean": 0,
        "runtime.kv_prefix_hit_rate": 0,
        "runtime.kv_pages_peak": 0,
        "sim.predicted_bubble_ratio": d["predicted_bubble_ratio"],
        "sim.step_residual": metrics.median(lat) / d["predicted_step_s"],
        "sim.decode_residual": 0,
        "bench.gen_lag_ms_p99": metrics.nearest_rank(between, 0.99) * 1e3,
    }


def serve_layers(d):
    w = d["window"]
    passes = w["prefill_passes"] + w["decode_passes"]
    busy = (w["prefill_s"] + w["decode_s"]) / d["wall_s"]
    waits = [r["queue_wait"] for r in d["requests"] if r["queue_wait"] >= 0]
    decode_pass = w["decode_s"] / w["decode_passes"]
    prefill_pass = w["prefill_s"] / w["prefill_passes"]
    return {
        "tensor.allocs_per_step": d["window_allocs"] / passes,
        "tensor.allocs_per_decode_pass": d["allocs_per_decode_pass"],
        "runtime.compute_busy_share": busy,
        "runtime.idle_share_max": 1.0 - busy,
        "runtime.step_start_ms": min(waits) * 1e3,
        "runtime.peak_cache_mb": w["peak_kv_bytes"] / 1e6,
        "runtime.queue_wait_ms_p50": metrics.nearest_rank(waits, 0.5) * 1e3,
        "runtime.queue_wait_ms_p90": metrics.nearest_rank(waits, 0.9) * 1e3,
        "runtime.prefill_pass_ms": prefill_pass * 1e3,
        "runtime.decode_pass_ms": decode_pass * 1e3,
        "runtime.decode_batch_mean": w["generated_tokens"] / passes,
        "runtime.kv_prefix_hit_rate": w["prefix_hit_tokens"] / w["prompt_tokens"],
        "runtime.kv_pages_peak": w["kv_pages_peak"],
        "sim.predicted_bubble_ratio": 1.0 - d["predicted_utilization"],
        "sim.step_residual": prefill_pass / d["predicted_prefill_pass_s"],
        "sim.decode_residual": decode_pass / d["predicted_decode_pass_s"],
        "bench.gen_lag_ms_p99": metrics.nearest_rank([r["enqueued"] - r["due"] for r in d["requests"]], 0.99) * 1e3,
    }


def chrome_trace(d):
    """The benchmark's spans (pid 0) and, for training, the runtime's
    compute timeline of the last traced step (pid 1, one tid per rank)."""
    events = [{"name": s["name"], "ph": "X", "pid": 0, "tid": 0,
               "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6}
              for s in d["spans"]]
    for tid, rank in enumerate(d.get("timelines", [{}])[-1].get("ranks", [])):
        for mb, pos, backward, t0, t1 in rank:
            events.append({"name": f"{'B' if backward else 'F'} mb{mb} s{pos}", "ph": "X",
                           "pid": 1, "tid": tid, "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6})
    return events


# ---- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["train_wave", "train_hybrid", "serve_chat"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    load_start = os.getloadavg()
    if not build() or not selftest():
        return 1
    try:
        timed = run_binary(args.workload, args.seed, args.seconds, 0)
        m, attempted, failed, checks = outcome(timed, args.workload)
        if args.trace:
            traced = run_binary(args.workload, args.seed, args.seconds, 1)
            tm, t_attempted, t_failed, _ = outcome(traced, args.workload)
            attempted += t_attempted
            failed += t_failed
            kind = traced["kind"]
            layers = common_layers(traced)
            layers.update(serve_layers(traced) if kind == "serve" else train_layers(traced))
            layers["bench.trace_overhead_pct"] = (headline(tm, kind) / headline(m, kind) - 1) * 100
            m = layers
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError, subprocess.TimeoutExpired) as e:
        log(f"wavebench: {e}")
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    missing = set(names) - set(m)
    if missing:
        log(f"wavebench: metrics not measured: {sorted(missing)}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in names.items()},
    }
    prov = provenance(args.seed, load_start)
    if checks.get("gen_lag_ms_p99", 0) > 1.0:
        log(f"wavebench: the generator ran {checks['gen_lag_ms_p99']:.2f} ms late at p99; "
            "the open loop did not hold and this run's latencies are suspect")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "checks": checks, **result}, indent=1))
    if args.trace:
        (results / f"{stem}.trace.json").write_text(json.dumps(chrome_trace(traced)))

    print("provenance " + json.dumps(prov))
    print("checks " + json.dumps(checks))
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
