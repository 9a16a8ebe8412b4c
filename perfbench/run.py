"""qkan benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload feynman-cli --seed 0 --seconds 25 --trace 0

A run sets the workload up several times (setup_s is their median), then
repeats whole rounds of the workload's operations while the next round
still ends within --seconds, at least one (each operation's timing is the
median of its repeats), then runs every
operation but training once more under tracemalloc for peak memory, and
finally checks the outputs against the oracles in perfbench/oracles.py.
With --trace 1 it instead times one plain round, one round under the span
tracer, and one memory pass, and reports the per-layer metrics. The last
line of stdout is the JSON result; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _cap_blas_threads():
    """BLAS pools may use at most the CPUs this process may run on."""
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > int(cpus):
            os.environ[var] = cpus


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


MIB = 2.0 ** 20


def run_round(wl, durations, tracer=None):
    """One round: training, then `wl.cycles` passes over the other
    operations, so that each one's repeats spread over the round. With a
    tracer, each operation runs under an "op.<name>" span. Returns the
    number of operations attempted."""
    train, *rest = wl.ops()
    schedule = [train] + [op for _ in range(wl.cycles) for op in rest
                          for _ in range(wl.repeats.get(op.name, 1))]
    prepared = set()
    for op in schedule:
        if op.prepare is not None and op.name not in prepared:
            op.prepare()
            prepared.add(op.name)
        with tracer.span(f"op.{op.name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            wl.out[op.name] = op.run()
            durations.setdefault(op.name, []).append(time.perf_counter() - t0)
    return len(schedule)


def memory_pass(wl):
    """Each op but training once under tracemalloc (training's allocations
    are those of its fg calls, which the fg op repeats, plus optimizer
    state of O(parameters)). Returns (overall peak, {op: peak over the
    memory held when it started}) in MiB."""
    per_op = {}
    overall = 0
    tracemalloc.start()
    try:
        for op in wl.ops():
            if op.name == "train":
                continue
            if op.prepare is not None:
                op.prepare()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            wl.out[op.name] = op.run()
            peak = tracemalloc.get_traced_memory()[1]
            per_op[op.name] = (peak - start) / MIB
            overall = max(overall, peak)
    finally:
        tracemalloc.stop()
    return overall / MIB, per_op


def end_to_end(wl, setup_times, durations, peak_mib):
    """Operation timings are the median of the op's repeats in the run.
    The repeats are spread over the run, so short bursts of a slower CPU
    move the median little; the fastest repeat is an extreme of many
    samples and spread twice as much from run to run."""
    med = {op: statistics.median(times) for op, times in durations.items()}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (med["train"], "s"),
        "fg_ms": (med["fg"] * 1e3, "ms"),
        "predict_samples_per_s": (wl.n_test / med["predict"], "samples/s"),
        "distill_s": (med["distill"], "s"),
        "spline_predict_samples_per_s": (
            wl.n_test / med["spline_predict"], "samples/s"),
        "spectrum_s": (med["spectrum"], "s"),
        "peak_mem_mib": (peak_mib, "MiB"),
    }


def per_layer(ix, mem, overhead_s, round_s):
    """Per-layer metrics of one traced pass (setup plus one round).

    Times are busy time summed over the pass; the op spans ("op.fg",
    "op.predict", ...) scope the ratios."""
    fg_calls = ix.count("train.fg", under="op.train")
    steps = (ix.count("train.wolfe_search", under="op.train")
             + ix.count("train.adam_step", under="op.train"))
    fgs_in_op = ix.count("train.fg", under="op.fg")
    gates = ix.attr_sum("daruan.circuit_forward", "gates")
    fwd_ns = ix.total_ms("daruan.circuit_forward") * 1e6
    predict_fwd = ix.mean_ms("network.QkanNetwork.forward", under="op.predict")
    m = {
        "daruan.forward_ms": (ix.total_ms("daruan.circuit_expectation"), "ms"),
        "daruan.adjoint_ms": (ix.total_ms("daruan.circuit_gradients"), "ms"),
        "daruan.forwards_per_fg": (
            ix.count("daruan.circuit_forward", under="train.fg")
            / max(1, ix.count("train.fg")), "count"),
        "daruan.gate_applications": (gates, "count"),
        "daruan.ns_per_gate": (fwd_ns / gates if gates else 0.0, "ns"),
        "daruan.saved_state_mib": (
            ix.attr_max("daruan.circuit_forward", "tape_bytes") / MIB, "MiB"),
        "network.forward_ms": (ix.total_ms("network.QkanNetwork.forward"), "ms"),
        "network.backward_ms": (ix.total_ms("network.QkanNetwork.backward"), "ms"),
        "network.reduce_ms": (ix.self_ms("network.QkanLayer.backward"), "ms"),
        "network.linear_ms": (ix.total_ms("network.LinearLayer.forward")
                              + ix.total_ms("network.LinearLayer.backward"), "ms"),
        "network.flatten_ms": (ix.total_ms("network.param_vector")
                               + ix.total_ms("network.set_param_vector")
                               + ix.total_ms("network.grad_vector"), "ms"),
        "network.fg_per_forward": (
            ix.mean_ms("train.fg", under="op.fg") / predict_fwd
            if fgs_in_op and predict_fwd else 0.0, "ratio"),
        "train.fg_calls": (fg_calls, "count"),
        "train.steps": (steps, "count"),
        "train.fg_per_step": (fg_calls / steps if steps else 0.0, "ratio"),
        "train.line_search_failures": (
            ix.attr_sum("train.lbfgs_minimize", "failures"), "count"),
        "train.outside_fg_ms": (ix.total_ms("train.train")
                                - ix.total_ms("train.fg", under="op.train"), "ms"),
        "train.adam_step_ms": (ix.total_ms("train.adam_step"), "ms"),
        "checkpoint.save_ms": (ix.total_ms("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (ix.total_ms("checkpoint.load"), "ms"),
        "checkpoint.bytes": (ix.attr_sum("checkpoint.save", "bytes"), "bytes"),
        "data.gen_ms": (ix.total_ms("data.gen_regression"), "ms"),
        "data.csv_write_ms": (ix.total_ms("data.write_csv"), "ms"),
        "data.csv_read_ms": (ix.total_ms("data.read_csv"), "ms"),
        "distill.calibrate_ms": (ix.total_ms("distill.calibrate_domains"), "ms"),
        "distill.fit_ms": (ix.total_ms("distill.distill_network"), "ms"),
        "distill.clamp_count_ms": (
            ix.total_ms("distill.SplineNetwork.clamp_count"), "ms"),
        "distill.edges": (ix.attr_sum("distill.distill_network", "edges"), "count"),
        "distill.spline_forward_ms": (
            ix.total_ms("distill.SplineNetwork.forward"), "ms"),
        "spectrum.enumerate_ms": (
            ix.total_ms("spectrum.enumerate_frequencies"), "ms"),
        "spectrum.fit_ms": (ix.total_ms("spectrum.empirical_spectrum")
                            - ix.total_ms("spectrum.enumerate_frequencies"), "ms"),
        "spectrum.frequencies": (
            ix.attr_sum("spectrum.enumerate_frequencies", "frequencies"), "count"),
        "spectrum.design_mib": (
            ix.attr_max("spectrum.empirical_spectrum", "design_bytes") / MIB,
            "MiB"),
    }
    for cmd in ("gen_data", "train", "eval", "extend", "spectrum", "distill"):
        m[f"cli.{cmd}_ms"] = (ix.total_ms(f"cli.{cmd}"), "ms")
    for op in ("fg", "predict", "distill", "spectrum"):
        m[f"mem.{op}_peak_mib"] = (mem[op], "MiB")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_pct"] = (100.0 * overhead_s / round_s, "%")
    m["trace.spans"] = (len(ix.spans), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    _cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qkan", "__init__.py")):
        # measure the checkout's own sources, never an installed copy
        print(f"no qkan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads                      # noqa: E402  (needs the paths above)
    from tracer import SpanIndex, Tracer  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](seed=args.seed, workdir=workdir)
    attempted, failed, fails = 0, 0, []
    metrics = {}
    try:
        if args.trace == 0:
            setup_times, durations = [], {}
            for _ in range(wl.setup_repeats):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            t_start = time.perf_counter()
            while True:
                t_round = time.perf_counter()
                attempted += run_round(wl, durations)
                now = time.perf_counter()
                # stop before a round that would end past --seconds
                if (now - t_start) + (now - t_round) > args.seconds:
                    break
            peak_mib, _ = memory_pass(wl)
            metrics = end_to_end(wl, setup_times, durations, peak_mib)
        else:
            # the traced round goes first and so also pays the process's
            # first-call costs: the overhead below is an upper bound
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span("op.setup"):
                    wl.setup()
                attempted += run_round(wl, {}, tracer)
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            t0 = time.perf_counter()
            wl.setup()
            attempted += run_round(wl, {})
            plain_s = time.perf_counter() - t0
            _, mem = memory_pass(wl)
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path)
            metrics = per_layer(SpanIndex(tracer.spans), mem,
                                traced_s - plain_s, plain_s)
        fails = wl.check()
    except Exception:  # an op that raises is a failed operation
        traceback.print_exc()
        failed += 1
        attempted += 1
        fails.append("an operation raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    text = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
