"""Benchmark runner: timing loop, failure accounting, metrics, comparison.

A run repeats the workload's operation until ``--seconds`` have passed, and
sets the workload up several times spread over the run (``setup_s`` is the
median). A fixed reference loop is timed between operations; ``wall_rel``
divides each operation's time by the loops next to it (see ``reference``). Each
operation is checked; an exception, a non-zero ``cli.main`` code or a failed
check makes it a failed operation, recorded with its type and message, and
a failed operation adds no timing or quality sample.

With ``--trace 1`` operations alternate between untraced and traced; the
traced ones give per-layer numbers from spans, the untraced ones give the
end-to-end numbers and the reference for the tracing overhead. Probes of
single layer functions run after the operations.
"""

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import quantes
from quantes import cli, dynamics, pipeline, portfolio, scoring, simulate

from . import probes, reference, tracing
from .workloads import WORKLOADS

# name -> (unit, better, bound as a share of the base; None: not gated here)
END_TO_END = {
    "setup_s": ("s", "lower", None),
    "wall_s": ("s", "lower", None),
    "wall_rel": ("ref", "lower", None),
    "failed_share": ("failed/attempted", "lower", 0.0),
    "fit_loglik": ("nats", "higher", 0.001),
    "oos_s_mal": ("score", "lower", 0.01),
    "peak_rss_mb": ("MiB", "lower", None),
}

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_MAP = {
    "estimation.fit.cold.s": "wall_s on fit_cold and portfolio_roll; not rescore",
    "estimation.fit.warm.s": "wall_s on portfolio_roll; not rescore",
    "estimation.fit.calls": "wall_s on fit_cold and portfolio_roll; not rescore",
    "estimation.fit.iterations": "wall_s on fit_cold and portfolio_roll; not rescore",
    "estimation.em.iterations": "wall_s on fit_cold and portfolio_roll; not rescore",
    "estimation.e_step.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "estimation.observed_loglik.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "estimation.q_function.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "estimation.sigma_m_step.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "estimation.dynamic_m_step.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "estimation.em_iteration.ms": "wall_s on fit_cold and portfolio_roll (probe)",
    "dynamics.risk_path.calls": "wall_s on portfolio_roll and allocate",
    "dynamics.risk_path.s": "wall_s on portfolio_roll and allocate",
    "dynamics.risk_path.sav_mult.us": "wall_s on fit_cold, portfolio_roll, allocate (probe)",
    "dynamics.risk_path.as_ar.us": "wall_s on fit_cold, portfolio_roll, allocate (probe)",
    "dynamics.risk_path.ig_mult.us": "wall_s on fit_cold, portfolio_roll, allocate (probe)",
    "mal.mal_log_density.ms": "no end-to-end metric: reference density (probe)",
    "portfolio.smv_weights.calls": "wall_s on portfolio_roll and allocate only",
    "portfolio.smv_weights.p50_ms": "wall_s on portfolio_roll and allocate only",
    "portfolio.smv_weights.tail_ms": "wall_s on portfolio_roll and allocate only",
    "portfolio.smv_weights.s": "wall_s on portfolio_roll and allocate only",
    "portfolio.infeasible_periods": "wall_s on portfolio_roll and allocate only",
    "scoring.s_mal.s": "wall_s on portfolio_roll and allocate",
    "scoring.per_asset.s": "wall_s on rescore; a small share on portfolio_roll",
    "backtests.s": "wall_s on rescore; a small share on portfolio_roll",
    "pipeline.load_returns.s": "wall_s on rescore and portfolio_roll",
    "pipeline.emit_reports.s": "wall_s on rescore and portfolio_roll",
    "pipeline.emit_reports.bytes": "wall_s on rescore and portfolio_roll",
    "pipeline.refits": "wall_s on portfolio_roll",
    "pipeline.warnings": "wall_s on portfolio_roll",
    "pipeline.rolling_forecast.self_s": "wall_s on portfolio_roll",
    "cli.main.self_s": "wall_s on rescore (record building in backtest)",
    "simulate.generate.s": "setup_s on every workload",
    "probes.failed": "none: probes that raised",
    "trace.overhead_pct": "none: traced over untraced operation time",
}

# per-layer metric -> span names whose time per operation it sums
SPAN_SECONDS = {
    "estimation.fit.cold.s": ("estimation.fit.cold",),
    "estimation.fit.warm.s": ("estimation.fit.warm",),
    "dynamics.risk_path.s": ("dynamics.risk_path",),
    "portfolio.smv_weights.s": ("portfolio.smv_weights",),
    "scoring.s_mal.s": ("scoring.s_mal",),
    "scoring.per_asset.s": ("scoring.s_fzn", "scoring.s_fz0", "scoring.s_al"),
    "backtests.s": (
        "backtests.lr_uc", "backtests.lr_cc", "backtests.dq_test", "backtests.es_tests",
    ),
    "pipeline.load_returns.s": ("pipeline.load_returns",),
    "pipeline.emit_reports.s": ("pipeline.emit_reports",),
}
SPAN_SELF_SECONDS = {
    "pipeline.rolling_forecast.self_s": "pipeline.rolling_forecast",
    "cli.main.self_s": "cli.main",
}
SPAN_CALLS = {
    "estimation.fit.calls": ("estimation.fit.cold", "estimation.fit.warm"),
    "dynamics.risk_path.calls": ("dynamics.risk_path",),
    "portfolio.smv_weights.calls": ("portfolio.smv_weights",),
}
COUNTERS = ("estimation.fit.iterations", "estimation.em.iterations", "pipeline.emit_reports.bytes")
OUTPUT_COUNTS = ("pipeline.refits", "pipeline.warnings", "portfolio.infeasible_periods")


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name][0]
    for suffix, unit in (("ms", "ms"), ("us", "us"), ("_pct", "%"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


# -- spans ---------------------------------------------------------------------


def _fit_span(args, kwargs):
    init = kwargs.get("init", args[5] if len(args) > 5 else None)
    return "estimation.fit.cold" if init is None else "estimation.fit.warm"


def _count_fit(tracer, args, kwargs):
    if len(args) > 6:  # a positional callback is left alone
        return args, kwargs, None
    outer = kwargs.get("callback")

    def counting(start, iteration, loglik):
        tracer.count("estimation.em.iterations")
        if outer is not None:
            outer(start, iteration, loglik)

    def on_result(tr, result):
        tr.count("estimation.fit.iterations", result.iterations)

    return args, dict(kwargs, callback=counting), on_result


def _count_bytes(tracer, args, kwargs):
    def on_result(tr, paths):
        tr.count("pipeline.emit_reports.bytes", sum(os.path.getsize(p) for p in paths))

    return args, kwargs, on_result


def op_targets():
    """Public functions wrapped at the module attribute each caller looks up."""
    targets = [
        (cli, "main", "cli.main"),
        (cli, "load_returns", "pipeline.load_returns"),
        (pipeline, "load_returns", "pipeline.load_returns"),
        (cli, "emit_reports", "pipeline.emit_reports", _count_bytes),
        (cli, "portfolio_run", "pipeline.portfolio_run"),
        (pipeline, "rolling_forecast", "pipeline.rolling_forecast"),
        (quantes, "fit", _fit_span, _count_fit),
        (pipeline, "fit", _fit_span, _count_fit),
        (dynamics, "risk_path", "dynamics.risk_path"),
        (portfolio, "smv_weights", "portfolio.smv_weights"),
        (pipeline, "smv_weights", "portfolio.smv_weights"),
        (scoring, "s_mal", "scoring.s_mal"),
    ]
    for name in ("s_fzn", "s_fz0", "s_al", "s_al_sum", "s_mal"):
        targets.append((pipeline, name, f"scoring.{name}"))
    for name in ("lr_uc", "lr_cc", "dq_test", "es_tests"):
        targets.append((pipeline, name, f"backtests.{name}"))
    return targets


SETUP_TARGETS = [(simulate, "generate", "simulate.generate")]


# -- one workload ------------------------------------------------------------------


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error_table(ops):
    table = {}
    for op in ops:
        if op["error"] is not None:
            table[op["error"]] = table.get(op["error"], 0) + 1
    return [{"error": e, "count": n} for e, n in table.items()]


def run_workload(workload, seed, seconds, trace, size, workdir):
    """Run one workload and return its result record."""
    workdir = Path(workdir)
    tracer = tracing.Tracer()

    setup_times = []

    def timed_setup():
        setup_dir = workdir / f"{workload.name}_setup{len(setup_times)}"
        setup_dir.mkdir(parents=True)
        tracer.op = "setup"
        try:
            with tracing.instrument(tracer, SETUP_TARGETS) if trace else nullcontext():
                t0 = time.perf_counter()
                inputs = workload.setup(seed, size, setup_dir)
                setup_times.append(time.perf_counter() - t0)
        finally:
            tracer.op = None
        return inputs, setup_dir

    # the operations use the first set-up; the others are timed and dropped,
    # spread over the run so that setup_s is a median over all of it
    inputs, _ = timed_setup()
    setup_every = seconds / workload.setup_repeats

    ops = []
    begin = time.perf_counter()
    ref_before = reference.loop_seconds()
    while True:
        k = len(ops)
        traced = bool(trace) and k % 2 == 1
        op = {"id": f"op{k}", "traced": traced, "error": None}
        opdir = workdir / f"{workload.name}_{op['id']}"
        opdir.mkdir()
        tracer.op = op["id"]
        try:
            with tracing.instrument(tracer, op_targets()) if traced else nullcontext():
                t0 = time.perf_counter()
                out = workload.op(inputs, opdir)
                wall = time.perf_counter() - t0
            workload.check(inputs, out)
            op.update(
                wall_s=wall,
                quality=workload.quality(inputs, out),
                counts=workload.layer_counts(inputs, out),
            )
        except Exception as exc:  # the operation boundary: record and go on
            op["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.op = None
            shutil.rmtree(opdir, ignore_errors=True)
        ref_after = reference.loop_seconds()
        if op["error"] is None:
            op["ref_s"] = 0.5 * (ref_before + ref_after)
            op["wall_rel"] = op["wall_s"] / op["ref_s"]
        ops.append(op)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (not trace or len(ops) >= 2):
            break
        ref_before = ref_after
        if len(setup_times) < workload.setup_repeats and elapsed >= len(setup_times) * setup_every:
            shutil.rmtree(timed_setup()[1], ignore_errors=True)
            ref_before = reference.loop_seconds()
        gc.collect()  # no collection of this operation's garbage lands in the next
    while len(setup_times) < workload.setup_repeats:
        shutil.rmtree(timed_setup()[1], ignore_errors=True)

    ok = [op for op in ops if op["error"] is None]
    failed = len(ops) - len(ok)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "failed_share": failed / len(ops),
        "peak_rss_mb": _peak_rss_mb(),
    }
    missing = {}
    untraced = [op for op in ok if not op["traced"]]
    walls = [op["wall_s"] for op in untraced]
    if untraced:
        metrics["wall_s"] = statistics.median(walls)
        metrics["wall_rel"] = statistics.median(op["wall_rel"] for op in untraced)
    else:
        missing["wall_s"] = missing["wall_rel"] = "no successful untraced operation"
    for name in workload.quality_names:
        if ok:
            metrics[name] = statistics.median(op["quality"][name] for op in ok)
        else:
            missing[name] = "no successful operation"

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": bool(trace),
        "attempted": len(ops),
        "failed": failed,
        "errors": _error_table(ops),
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
        "missing": missing,
        "samples": {
            "setup_s": setup_times,
            "wall_s": walls,
            "ref_s": [op["ref_s"] for op in untraced],
        },
    }
    if untraced:
        tail = tracing.tail_percentile(walls)
        label = f"median of {len(walls)}"
        if tail is not None:
            label += f"; p{tail[0]:g} {tail[1]:.6g} s"
        result["metrics"]["wall_s"]["label"] = label
        ref = statistics.median(op["ref_s"] for op in untraced)
        result["metrics"]["wall_rel"]["label"] = f"reference loop median {ref:.6g} s"
    if trace:
        spans = tracing.layer_summary(
            tracer, {op["id"] for op in ok if op["traced"]}
        )
        result["layers"] = layer_metrics(tracer, spans, ops)
        result["layers"].update(_probe_metrics(seed))
        result["spans"] = {
            name: {k: v for k, v in entry.items() if k != "durations"}
            for name, entry in spans.items()
        }
    return result


def _probe_metrics(seed):
    out = probes.run_probes(seed)
    failed = sum(1 for entry in out.values() if "failed" in entry)
    out["probes.failed"] = {"value": failed, "unit": "count"}
    return out


def layer_metrics(tracer, spans, ops):
    """Per-layer metrics per traced operation; failed when none succeeded.

    ``spans`` is :func:`tracing.layer_summary` over the successful traced
    operations.
    """
    traced_ok = [op for op in ops if op["traced"] and op["error"] is None]
    untraced_ok = [op for op in ops if not op["traced"] and op["error"] is None]
    out = {}
    generate = [
        s.duration for s in tracer.spans if s.op == "setup" and s.name == "simulate.generate"
    ]
    if generate:
        out["simulate.generate.s"] = {"value": statistics.median(generate), "unit": "s"}
    names = [*SPAN_SECONDS, *SPAN_SELF_SECONDS, *SPAN_CALLS, *COUNTERS, *OUTPUT_COUNTS,
             "portfolio.smv_weights.p50_ms", "portfolio.smv_weights.tail_ms",
             "trace.overhead_pct"]
    if not traced_ok:
        types = [op["error"].split(":", 1)[0] for op in ops if op["error"] is not None]
        failures = ", ".join(f"{t} x{types.count(t)}" for t in sorted(set(types)))
        for name in names:
            out[name] = {"unit": unit_of(name), "failed": failures}
        return out

    n = len(traced_ok)
    ids = {op["id"] for op in traced_ok}
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def value(name, v):
        out[name] = {"value": v, "unit": unit_of(name)}

    for name, span_names in SPAN_SECONDS.items():
        value(name, sum(spans.get(s, empty)["total_s"] for s in span_names) / n)
    for name, span_name in SPAN_SELF_SECONDS.items():
        value(name, spans.get(span_name, empty)["self_s"] / n)
    for name, span_names in SPAN_CALLS.items():
        value(name, sum(spans.get(s, empty)["calls"] for s in span_names) / n)
    counters = tracing.counter_totals(tracer, ids)
    for name in COUNTERS:
        value(name, counters.get(name, 0) / n)
    for name in OUTPUT_COUNTS:
        value(name, sum(op["counts"].get(name, 0) for op in traced_ok) / n)

    durations = spans.get("portfolio.smv_weights", empty)["durations"]
    if durations:
        value("portfolio.smv_weights.p50_ms", statistics.median(durations) * 1e3)
    else:
        out["portfolio.smv_weights.p50_ms"] = {"unit": "ms", "missing": "no calls"}
    tail = tracing.tail_percentile(durations)
    if tail is None:
        out["portfolio.smv_weights.tail_ms"] = {
            "unit": "ms", "missing": f"{len(durations)} calls: under 20"
        }
    else:
        out["portfolio.smv_weights.tail_ms"] = {
            "value": tail[1] * 1e3, "unit": "ms",
            "label": f"p{tail[0]:g} of {len(durations)}",
        }
    if untraced_ok:
        ratio = statistics.median(op["wall_s"] for op in traced_ok) / statistics.median(
            op["wall_s"] for op in untraced_ok
        )
        value("trace.overhead_pct", 100.0 * (ratio - 1.0))
    else:
        out["trace.overhead_pct"] = {"unit": "%", "missing": "no untraced operation"}
    return out


# -- environment -------------------------------------------------------------------


def environment(root):
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        backend = "numba"
    except ImportError:
        backend = "python"
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sources = {}
    for path in sorted((Path(root) / "src" / "quantes").glob("*.py")):
        with open(path) as handle:
            sources[path.name] = sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "source_lines": dict(sources, total=sum(sources.values())),
    }


# -- output ------------------------------------------------------------------------


def _fmt(entry):
    if "value" in entry:
        text = f"{entry['value']:.6g} {entry['unit']}"
        return text + (f" ({entry['label']})" if "label" in entry else "")
    if "failed" in entry:
        return f"FAILED ({entry['failed']})"
    return f"n/a ({entry['missing']})"


def print_result(result, emit):
    emit(
        f"# workload {result['workload']}  seed {result['seed']}  size {result['size']}"
        f"  seconds {result['seconds']}  trace {int(result['trace'])}"
    )
    emit(f"#   attempted {result['attempted']}  failed {result['failed']}")
    for err in result["errors"]:
        emit(f"#   error x{err['count']}: {err['error']}")
    for name in END_TO_END:
        entry = result["metrics"].get(name)
        if entry is None:
            why = result["missing"].get(name, "not measured on this workload")
            entry = {"unit": END_TO_END[name][0], "missing": why}
        emit(f"#   {name:<16} {_fmt(entry)}")
    for name, entry in sorted(result.get("layers", {}).items()):
        emit(f"#   layer {name:<36} {_fmt(entry):<40} moves {LAYER_MAP.get(name, '-')}")


def result_line(results, benchmark):
    """The last stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    key = "per_layer" if results[0]["trace"] else "end_to_end"
    wanted = [m["name"] for m in benchmark[key]]
    metrics = {}
    for result in results:
        source = result["layers"] if result["trace"] else result["metrics"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name in wanted:
            entry = source.get(name, {})
            if "value" in entry:
                metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


# -- comparison --------------------------------------------------------------------


def _bounds(benchmark):
    bounds = {name: spec[2] for name, spec in END_TO_END.items()}
    for metric in benchmark.get("end_to_end", []):
        bounds[metric["name"]] = metric["bound"]
    return bounds


def _better(name):
    return END_TO_END[name][1] if name in END_TO_END else "lower"


def compare(base, new, benchmark, emit):
    """Print each metric per workload as a ratio to its base; flag regressions.

    Returns the number of flagged metrics.
    """
    bounds = _bounds(benchmark)
    flagged = 0
    new_by_name = {r["workload"]: r for r in new["workloads"]}
    for b in base["workloads"]:
        n = new_by_name.get(b["workload"])
        if n is None:
            emit(f"{b['workload']}: missing from the new results")
            continue
        emit(f"{b['workload']}: failed {b['failed']}/{b['attempted']} -> "
             f"{n['failed']}/{n['attempted']}")
        sections = [("metrics", END_TO_END)]
        if "layers" in b and "layers" in n:
            sections.append(("layers", sorted(set(b["layers"]) | set(n["layers"]))))
        for section, names in sections:
            for name in names:
                be = b[section].get(name, {})
                ne = n[section].get(name, {})
                if "value" not in be or "value" not in ne:
                    if be or ne:
                        emit(f"  {name:<36} base {_fmt(be) if be else '-'}  "
                             f"new {_fmt(ne) if ne else '-'}")
                    continue
                bv, nv = be["value"], ne["value"]
                ratio = f"{nv / bv:.4f}x" if bv else "n/a"
                bound = bounds.get(name) if section == "metrics" else None
                flag = ""
                if bound is not None:
                    flag = f"  bound {bound:g}"
                    worse = nv - bv if _better(name) == "lower" else bv - nv
                    if (bv and worse / abs(bv) > bound) or (not bv and worse > 0):
                        flag += "  WORSE"
                        flagged += 1
                emit(f"  {name:<36} base {bv:.6g} {be['unit']}  new {nv:.6g}  "
                     f"ratio {ratio}{flag}")
    return flagged


# -- entry point -------------------------------------------------------------------


def load_benchmark(root):
    with open(Path(root) / "BENCHMARK.json") as handle:
        return json.load(handle)


def run(args, root):
    benchmark = load_benchmark(root)
    if args.compare:
        with open(args.compare[0]) as fb, open(args.compare[1]) as fn:
            base, new = json.load(fb), json.load(fn)
        return 1 if compare(base, new, benchmark, print) else 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(root)
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = Path(root) / ".perfbench_work" / str(os.getpid())
    results = []
    try:
        for name in names:
            result = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace, "full", workdir / name,
            )
            print_result(result, print)
            results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"env": env, "workloads": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result_line(results, benchmark)))
    return 0
