#!/usr/bin/env python3
"""whitefact benchmark: one closed-loop client, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload factorize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The benchmark imports ``whitefact`` from ``src/`` next to this directory
and exits with code 2, printing no result, when it is not there.

``--trace 0`` measures the end-to-end metrics.  Set-up (building the
server's systems, generating and encoding inputs, warm-up) is repeated three
times and its median reported, plus the one-off import time.  Requests then
run in whole rounds until ``--seconds`` have passed: a round is one pass over
the automorphism pool (factorize), one block of fresh requests
(tree_queries) or the three balls (explore), so every round has the same
mix.

Shared hosts change speed under the benchmark: in bursts of a few seconds,
and for minutes at a time by a factor of up to 1.7, which no run length or
bound can absorb.  So every time is taken together with probe readings: a
fixed pure-Python kernel, shaped like the library's work (tuples, lists and
a dict, reducing letter sequences to normal form), timed before, during
(at most every ``PROBE_EVERY_S``, between requests) and after it.  Times
are reported as they would read on a host where the probe takes
``PROBE_REF_MS``: measured time times ``PROBE_REF_MS`` / mean probe time.
The probe is benchmark code, so a change to the program moves the scaled
times exactly as it moves the raw ones; the raw round throughputs and probe
times are printed on the report lines.
Bursts only ever slow a round, so the timings come from the faster half of
the rounds, ranked by scaled throughput: ``ops_per_s`` is their median
throughput (correct answers per second of request time), and the latencies
are those of their requests.  ``p50_ms`` and ``tail_ms`` are geometric
means, over the workload's latency groups (its request kinds; for explore,
its balls), of each group's median and tail, so a change in any one group
moves them by the same share whatever its cost.  Each group's own median
and tail, with the tail's percentile and sample counts, are printed on the
report lines above the result, as are nproc, the Python version, the load
average and the probe time before and after the run.

``--trace 1`` alternates an untraced and a traced pass over one fixed set
of requests until ``--seconds`` have passed, and prints the per-layer
metrics per traced pass and the median ratio of untraced to traced
throughput.  The spans are written to ``perfbench/out/``.

Every answer is checked outside the timed region; a wrong or raising request
counts as failed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PROBE_REF_MS = 5.0  # probe time of the reference host that scaled times refer to
PROBE_EVERY_S = 0.5


def _probe_words():
    rng = random.Random(0)
    return [tuple((rng.randint(1, 4), rng.randint(0, 5)) for _ in range(40)) for _ in range(60)]


_PROBE_WORDS = _probe_words()


def _reduce(letters):
    out = []
    for factor, payload in letters:
        if payload == 0:
            continue
        if out and out[-1][0] == factor:
            merged = (out.pop()[1] + payload) % 6
            if merged:
                out.append((factor, merged))
        else:
            out.append((factor, payload))
    return tuple(out)


def probe_ms() -> float:
    """Fastest of three runs of the fixed probe kernel, in ms."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        seen = {}
        for a in _PROBE_WORDS:
            for b in _PROBE_WORDS[:5]:
                word = _reduce(a + b)
                seen[word] = len(word)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def probed(fn, *args):
    """fn's result, its wall time and the scale that refers it to the reference host."""
    before = probe_ms()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return result, elapsed, 2 * PROBE_REF_MS / (before + probe_ms())


def _import_library():
    """Import whitefact from the checkout's sources; returns the import time."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    def load():
        import whitefact
        import workloads  # noqa: F401

        return whitefact.__file__

    path, elapsed, scale = probed(load)
    if not Path(path).resolve().is_relative_to(SRC):
        raise ImportError(f"whitefact imported from {path}, not {SRC}")
    return elapsed, scale


# -- running requests ---------------------------------------------------------


class Recorder:
    """Attempted and failed requests of a run, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {why}")


@dataclass
class Round:
    """Correct answers, their request time and their latencies per group.

    ``scale`` refers the round's times to the reference host (see the
    module docstring); 1 leaves them raw.
    """

    done: int = 0
    busy_ns: int = 0
    latencies: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def raw_rate(self) -> float:
        return self.done / (self.busy_ns / 1e9) if self.busy_ns else 0.0

    @property
    def rate(self) -> float:
        return self.raw_rate / self.scale


def execute(server, request, recorder, tracer=None, corrupt=None) -> tuple[int, bool]:
    """Send one request, check its answer; returns (request ns, correct)."""
    from workloads import KINDS

    kind = KINDS[request.kind]
    recorder.attempted += 1
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            answer = kind.encode(kind.compute(kind.decode(server, request.payload)))
        else:
            answer = _traced(tracer, request, kind, server)
    except Exception as error:  # a raising request is a failed one
        recorder.fail(request.kind, repr(error))
        return time.perf_counter_ns() - start, False
    elapsed = time.perf_counter_ns() - start
    if corrupt is not None:
        answer = corrupt(request.kind, answer)
    try:
        correct = bool(request.check(answer))
    except Exception as error:  # an answer the check cannot read is wrong
        correct = False
        answer = f"{answer[:80]} ({error!r})"
    if not correct:
        recorder.fail(request.kind, f"wrong answer {answer[:80]}")
    return elapsed, correct


def _traced(tracer, request, kind, server) -> str:
    tracer.request += 1
    tracer.active = True
    try:
        with tracer.region(f"request.{request.kind}"):
            with tracer.region("jsonio.decode"):
                args = kind.decode(server, request.payload)
            result = kind.compute(args)
            with tracer.region("jsonio.encode"):
                return kind.encode(result)
    finally:
        tracer.active = False


def run_round(server, requests, recorder, tracer=None, corrupt=None, between=None) -> Round:
    """Run requests in order; latencies are kept for correct answers only.

    ``between`` is called before each request, outside the timed region.
    """
    out = Round()
    for request in requests:
        if between is not None:
            between()
        elapsed, correct = execute(server, request, recorder, tracer, corrupt)
        out.busy_ns += elapsed
        if correct:
            out.done += 1
            out.latencies.setdefault(request.group, []).append(elapsed)
    return out


def setup(name: str, seed: int, smoke: bool):
    """The server's systems and the workload client, warmed up."""
    import workloads

    cls = workloads.WORKLOADS[name]
    systems = workloads.load_systems()
    client = cls(systems, seed, **(cls.SMOKE if smoke else {}))
    warm = Recorder()
    run_round(systems, client.warmup(), warm)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.errors}")
    return systems, client


def _timed_setup(name: str, seed: int, smoke: bool):
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        built, elapsed, scale = probed(setup, name, seed, smoke)
        raw.append(elapsed)
        scaled.append(elapsed * scale)
    return built, statistics.median(raw), statistics.median(scaled)


# -- statistics -------------------------------------------------------------------


def percentile(samples, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _report(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}")


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "probe_ms": probe_ms(),
    }


def _latency_metrics(tail_pcts: dict, rounds) -> tuple[float, float]:
    p50s, tails = [], []
    for kind, pct in tail_pcts.items():
        samples = [ns * r.scale / 1e6 for r in rounds for ns in r.latencies.get(kind, ())]
        if not samples:
            _report("kind", {"kind": kind, "samples": 0})
            continue
        p50, _ = percentile(samples, 50)
        tail, beyond = percentile(samples, pct)
        p50s.append(p50)
        tails.append(tail)
        _report(
            "kind",
            {
                "kind": kind,
                "samples": len(samples),
                f"{kind}_p50_ms": p50,
                f"{kind}_tail_ms": tail,
                "tail_percentile": pct,
                "samples_beyond_tail": beyond,
            },
        )
    if not p50s:
        return 0.0, 0.0
    return _geomean(p50s), _geomean(tails)


# -- the two modes ------------------------------------------------------------------


def measure(systems, client, seconds: float, recorder, corrupt=None) -> list[Round]:
    """Closed loop in whole rounds until seconds have passed, each probed."""
    rounds = []
    readings = [probe_ms()]
    last = time.perf_counter()

    def between():
        nonlocal last
        if time.perf_counter() - last >= PROBE_EVERY_S:
            readings.append(probe_ms())
            last = time.perf_counter()

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = len(readings) - 1
        done = run_round(systems, client.round(), recorder, corrupt=corrupt, between=between)
        readings.append(probe_ms())
        last = time.perf_counter()
        done.scale = PROBE_REF_MS / statistics.fmean(readings[first:])
        rounds.append(done)
    return rounds


def run_untraced(systems, client, seconds: float, setup_s: float, corrupt=None) -> dict:
    recorder = Recorder()
    rounds = measure(systems, client, seconds, recorder, corrupt)
    fast = sorted(rounds, key=lambda r: r.rate, reverse=True)[: (len(rounds) + 1) // 2]
    p50, tail = _latency_metrics(client.tails, fast)
    _report("inputs", client.stats())
    _report(
        "rounds",
        {
            "count": len(rounds),
            "kept": len(fast),
            "raw_ops_per_s": [r.raw_rate for r in rounds],
            "probe_ms": [PROBE_REF_MS / r.scale for r in rounds],
        },
    )
    _report(
        "failed_ratio",
        {"failed_ratio": recorder.failed / recorder.attempted, "errors": recorder.errors},
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(r.rate for r in fast), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "p50_ms": (p50, "ms"),
        "tail_ms": (tail, "ms"),
    }
    return _result(recorder, metrics)


def run_traced(systems, client, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes of the same requests."""
    from tracing import Tracer, layer_metrics

    recorder = Recorder()
    tracer = Tracer()
    ratios = []
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < seconds:
        plain = run_round(systems, client.trace_pass(), recorder)
        with tracer.installed():
            traced = run_round(systems, client.trace_pass(), recorder, tracer)
        ratios.append(plain.rate / traced.rate if traced.rate else 0.0)
    metrics = layer_metrics(tracer, len(ratios))
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    out = HERE / "out" / f"trace-{client.name}.jsonl"
    tracer.write(out, {"workload": client.name, "seed": seed, "passes": len(ratios)})
    _report("inputs", client.stats())
    _report(
        "trace",
        {
            "passes": len(ratios),
            "requests_per_pass": traced.done,
            "spans": tracer.opened,
            "dropped": tracer.dropped,
            "file": str(out.relative_to(ROOT)),
            "errors": recorder.errors,
        },
    )
    return _result(recorder, metrics)


def _result(recorder: Recorder, metrics: dict) -> dict:
    return {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke=False, corrupt=None) -> dict:
    _report("env", _environment())
    import_s, import_scale = _import_library() if "whitefact" not in sys.modules else (0.0, 1.0)
    (systems, client), raw_setup_s, setup_s = _timed_setup(workload, seed, smoke)
    _report(
        "setup",
        {"raw_import_s": import_s, "raw_median_setup_s": raw_setup_s, "repeats": SETUP_REPEATS},
    )
    if trace:
        result = run_traced(systems, client, seed, seconds)
    else:
        setup_s += import_s * import_scale
        result = run_untraced(systems, client, seconds, setup_s, corrupt)
    _report("env_after", {"loadavg": [round(x, 2) for x in os.getloadavg()],
                          "probe_ms": probe_ms()})
    return result


# -- smoke mode -------------------------------------------------------------------


def _corrupt_answer(kind: str, answer: str) -> str:
    """A deliberately wrong answer of the same shape."""
    if kind == "factorize":
        obj = json.loads(answer)
        obj["whitehead"].append({"Y": [2], "x": [1, 1]})
        return json.dumps(obj)
    if kind == "verify":
        return "false" if answer == "true" else "true"
    if kind in ("distance", "volume"):
        return str(int(answer) + 2)
    if kind == "geodesic":
        return json.dumps(json.loads(answer)[:-1])
    obj = json.loads(answer)
    obj["ball"]["alpha_classes"].pop()
    return json.dumps(obj)


def smoke() -> int:
    """Tiny inputs: every metric is printed and one injected wrong answer is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            injected = []

            def corrupt(kind, answer):
                if injected:
                    return answer
                injected.append(kind)
                return _corrupt_answer(kind, answer)

            result = run(workload, 1, 0.2, trace, smoke=True, corrupt=corrupt)
            print(json.dumps(result))
            missing = {m["name"] for m in names} - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}")
            if result["failed"] != len(injected):
                problems.append(
                    f"{workload} trace={trace}: {result['failed']} failed, "
                    f"{len(injected)} wrong answers injected"
                )
            if trace == 0 and len(injected) != 1:
                problems.append(f"{workload}: no wrong answer was injected")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("factorize", "tree_queries", "explore"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of the harness")
    args = parser.parse_args(argv)
    if not (SRC / "whitefact" / "__init__.py").is_file():
        print(f"error: whitefact sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
