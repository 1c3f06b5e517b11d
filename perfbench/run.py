"""Benchmark of gf2rank: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload mc-core --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  It imports ``gf2rank`` from the checkout's
``src`` directory, generates the workload's inputs from ``--seed``, times ops
back to back until ``--seconds`` of op time and the workload's minimum op
count are both reached, checks every op's output outside the timed region,
and prints a readable summary, a full record as one JSON line, and last the
result line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics, from spans recorded around every call
into the library (written to ``perfbench/out/``).  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # setup_s counts from here; only interpreter start-up precedes it

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from speed import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3        # this process plus two fresh child processes
CALIB_REPS = 5           # calibrations before and after set-up; setup_s uses their median
SETUP_CALIBRATION = "mixed"  # set-up is imports, inputs and a warm-up op: work of both kinds
MAX_TIMED_WALL_S = 120   # stop after the current round past this, to exit within 180 s
PROBE_TIMEOUT_S = 30
LAYERS = ("sampling", "gf2", "peeling", "thresholds", "exact")

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up op, print the setup time and exit")
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def provenance(args) -> dict:
    import mpmath
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    lines = 0
    for f in sorted((SRC / "gf2rank").glob("*.py")):
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def tail(times: list):
    """(value, percentile): the highest percentile with at least ten ops
    above it.  None below 20 ops."""
    n = len(times)
    if n < 20:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def setup_samples(args, own: tuple) -> list:
    """(wall seconds, slowdown) of the set-up in this process and in fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(tuple(float(v) for v in done.stdout.split()[-2:]))
    return samples


@dataclass
class Measurement:
    op_times: list = field(default_factory=list)     # wall seconds per op
    strata: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # seconds, before the first op and after each
    failed: int = 0
    problems: list = field(default_factory=list)      # (op index, stratum, message)
    wrong: bool = False   # an output check failed, or something other than a Gf2RankError was raised

    @property
    def attempted(self) -> int:
        return len(self.op_times)

    def note(self, index, stratum, msg: str, wrong: bool) -> None:
        self.problems.append((index, stratum, msg))
        self.wrong |= wrong


def measure(wl, tr, rounds, seconds: float) -> Measurement:
    """Run whole rounds of ops until both the time and the op minimum are met."""
    from gf2rank.errors import Gf2RankError

    cal = Calibration(wl.calibration)
    m = Measurement(calibrations=[cal.sample()])
    timed = 0.0
    wall_start = time.monotonic()
    for items in rounds:
        for item in items:
            index = m.attempted
            out, err, wrong = None, None, False
            t0 = time.perf_counter()
            try:
                with tr.op(index):
                    out = wl.op(item, tr)
            except Gf2RankError as exc:       # a failure the library declares
                err = f"{type(exc).__name__}: {exc}"
            except Exception as exc:          # anything else is a defect
                err, wrong = f"{type(exc).__name__}: {exc}", True
            dt = time.perf_counter() - t0
            timed += dt
            m.op_times.append(dt)
            m.calibrations.append(cal.sample())
            m.strata.append(item.stratum)
            if err is None:
                try:
                    msgs = wl.check(item, out, index)
                except Exception as exc:
                    msgs = [f"check raised {type(exc).__name__}: {exc}"]
                if msgs:
                    err, wrong = "; ".join(msgs), True
            del out
            if err is not None:
                m.failed += 1
                m.note(index, item.stratum, err, wrong)
        if timed >= seconds and m.attempted >= wl.min_ops:
            break
        if time.monotonic() - wall_start > MAX_TIMED_WALL_S:
            m.note(None, None, f"stopped after {m.attempted} ops at the wall-time cap", False)
            break
    for msg in wl.run_checks():
        m.note(None, "run", msg, True)
    return m


def layer_metrics(wl, tracer, op_times: list, span_cost: float) -> dict:
    """Per-layer metrics from the spans, at wall speed.  A layer call the
    workload never makes reads 0."""
    own = tracer.self_times()
    op_wall = sum(op_times)

    def total(*names):
        return sum(float(own[n].sum()) for n in names if n in own)

    def mean(name, scale=1.0):
        return float(own[name].mean()) * scale if name in own else 0.0

    def per_s(count, *names):
        t = total(*names)
        return count / t if t > 0 else 0.0

    counts = wl.counts
    rows = counts.get("rows", 0) + len(own.get("sampling.sample_row", ()))
    exact_calls = ("exact.en_exact", "exact.en_binomial", "exact.pi_multinomial")
    values = {
        "sampling.sample_matrix_s": mean("sampling.sample_matrix"),
        "sampling.rows_per_s": per_s(rows, "sampling.sample_matrix", "sampling.sample_row"),
        "peeling.from_matrix_s": mean("peeling.from_matrix"),
        "peeling.peel_2core_s": mean("peeling.peel_2core"),
        "gf2.corank_s": mean("gf2.corank"),
        "peeling.core_row_frac": counts["core_rows"] / counts["rows"] if counts.get("rows") else 0.0,
        "gf2.corank_sum": counts.get("corank_sum", 0),
        "sampling.run_Tn_s": mean("sampling.run_Tn"),
        "sampling.sample_row_us": mean("sampling.sample_row", 1e6),
        "gf2.absorb_us": mean("gf2.absorb", 1e6),
        "sampling.rows_drawn": counts.get("rows_drawn", 0),
        "thresholds.threshold_report_s": mean("thresholds.threshold_report"),
        "thresholds.alpha_sharp_s": mean("thresholds.alpha_sharp"),
        "thresholds.alpha_star_s": mean("thresholds.alpha_star"),
        "thresholds.discontinuities_s": mean("thresholds.discontinuities"),
        "thresholds.alpha_bar_s": mean("thresholds.alpha_bar"),
        "thresholds.core_theory_s": mean("thresholds.core_theory"),
        "exact.en_exact_s": mean("exact.en_exact"),
        "exact.en_binomial_s": mean("exact.en_binomial"),
        "exact.pi_multinomial_s": mean("exact.pi_multinomial"),
        "exact.terms_per_s": per_s(counts.get("terms", 0), *exact_calls),
        "trace.op_s_p50": statistics.median(op_times),
        "trace.layer_share": total(*(n for n in own if n != "op")) / op_wall,
        "trace.overhead_frac": (len(tracer) - len(op_times)) * span_cost / op_wall,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = total(*(n for n in own if n.startswith(layer + "."))) / len(op_times)
    return values


def run(args, spec, pre_calibrations: list) -> int:
    """pre_calibrations: set-up calibration samples taken before the set-up began."""
    from tracer import NullTracer, Tracer, span_cost_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    warnings.filterwarnings("ignore", message=r"alpha=.* sits on a discontinuity")

    wl = WORKLOADS[args.workload](args.seed)
    rounds = wl.rounds()
    first_round = next(rounds)
    wl.op(wl.warmup_item(), NullTracer())
    setup_wall = time.monotonic() - T_START - sum(pre_calibrations)
    setup_cal = Calibration(SETUP_CALIBRATION)
    own_setup = (setup_wall, setup_cal.slowdown(pre_calibrations + [setup_cal.sample() for _ in range(CALIB_REPS)]))
    if args.setup_probe:
        print(*own_setup)
        return 0
    setups = [own_setup] if args.trace else setup_samples(args, own_setup)

    tr = Tracer() if args.trace else NullTracer()
    m = measure(wl, tr, itertools.chain([first_round], rounds), args.seconds)

    ref_times = Calibration(wl.calibration).reference_times(m.op_times, m.calibrations)
    speed = sum(m.op_times) / sum(ref_times)   # the run's mean slowdown
    t_wall, t_ref = tail(m.op_times), tail(ref_times)
    summary = {
        "ops_per_s": (m.attempted / sum(ref_times), "op/s"),
        "op_s_p50": (statistics.median(ref_times), "s"),
        "op_s_tail": (t_ref[0] if t_ref else max(ref_times), "s"),
        "setup_s": (statistics.median(w / f for w, f in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (m.failed / m.attempted, "ratio"),
    }
    detail = {
        "ops": m.attempted, "failed": m.failed, "timed_s": sum(m.op_times),
        "op_s_tail_percentile": t_ref[1] if t_ref else None,
        "slowdown": speed,
        "wall": {
            "ops_per_s": m.attempted / sum(m.op_times),
            "op_s_p50": statistics.median(m.op_times),
            "op_s_tail": t_wall[0] if t_wall else max(m.op_times),
            "setup_s": statistics.median(w for w, _ in setups),
        },
        "setup_samples": [{"wall_s": w, "slowdown": f} for w, f in setups],
        "problems": m.problems[:50],
        "op_wall_s": m.op_times, "op_strata": m.strata, "calibrations_s": m.calibrations,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        cost = span_cost_s()
        values = layer_metrics(wl, tr, m.op_times, cost)
        listed = spec["per_layer"]
        for metric in listed:  # to the reference speed, as the end-to-end times
            if metric["unit"] in ("s", "us"):
                values[metric["name"]] /= speed
            elif metric["unit"].endswith("/s"):
                values[metric["name"]] *= speed
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tr.save(trace_file)
        detail.update(spans=len(tr), span_cost_s=cost, trace_file=str(trace_file.relative_to(ROOT)))
    else:
        values = {k: v for k, (v, _) in summary.items()}
        listed = spec["end_to_end"]
    missing = [metric["name"] for metric in listed if metric["name"] not in values]
    if missing:
        return fail(f"metrics not computed: {missing}")
    metrics = {mt["name"]: {"value": float(values[mt["name"]]), "unit": mt["unit"]} for mt in listed}

    notes = {
        "op_s_p50": f"n={m.attempted}",
        "op_s_tail": f"p{t_ref[1]:.1f}, 10 ops beyond" if t_ref else "max; fewer than 20 ops",
        "setup_s": f"median of {len(setups)}",
        "error_rate": f"{m.failed}/{m.attempted}",
    }
    # the traced run's timings include tracing, so it shows only its per-layer metrics
    shown = [(k, *summary[k]) for k in (["error_rate"] if args.trace else summary)]
    if args.trace:
        shown += [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    for name, value, unit in shown:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:>18}  {name:<30}{value:>14.6g} {unit}{note}")
    for index, stratum, msg in m.problems[:10]:
        print(f"{args.workload:>18}  failed op {index} [{stratum}]: {msg}")

    record = {"provenance": provenance(args), "detail": detail, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not m.wrong, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    setup_cal = Calibration(SETUP_CALIBRATION)
    pre_calibrations = [setup_cal.sample() for _ in range(CALIB_REPS)]
    args = parse_args(argv)
    if not (SRC / "gf2rank" / "__init__.py").is_file():
        return fail(f"no gf2rank sources under {SRC}; run from a checkout of the repository")
    spec_file = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_file.read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {spec_file}: {exc}")
    sys.path.insert(0, str(SRC))
    import gf2rank
    if Path(gf2rank.__file__).resolve().parent != SRC / "gf2rank":
        return fail(f"imported gf2rank from {gf2rank.__file__}, not from {SRC}")
    return run(args, spec, pre_calibrations)


if __name__ == "__main__":
    sys.exit(main())
