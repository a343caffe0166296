"""Workloads, timing loop, correctness checks, digests and metrics.

Imported by run.py after the thread caps are set and src/ is on sys.path.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import scipy

import osd
import osd.cli
import osd.pipeline
from osd import Dataset, Labels, RunConfig, gen_clusters_outliers, gen_imbalance_series
from tracing import Tracer

from run import BENCH_DIR, ROOT

DETECTORS = ("lof", "iforest", "knn")
MIN_UNTRACED = 3  # iterations with tracing off, at least, in a --trace 0 run
MIN_EACH_TRACED = 2  # untraced and traced iterations, at least, in a --trace 1 run
MIN_SETUP_REPEATS = 3
SETUP_TARGET_S = 1.0  # repeat set-up until this much time is spent (median reported)
MAX_SETUP_REPEATS = 25
RIGID_RTOL = 1e-9  # block members must share a displacement to this relative tolerance


@dataclass
class Case:
    """One dataset of a workload, as generated during set-up."""

    ds: Dataset
    labels: Labels
    config: RunConfig


@dataclass
class Outcome:
    """What one operation produced, kept for the checks after timing."""

    before: np.ndarray  # prepared input points
    after: np.ndarray  # relocated points
    partition: Any  # osd.BlockPartition
    labels: Labels
    results: dict[str, dict[str, float]] | None = None  # per detector, eval only
    out_csv: Path | None = None  # transform only


def probe_data(n: int, dim: int, seed: int) -> tuple[Dataset, Labels]:
    """The probe generator: 3 clusters, 5% outliers, separation 30."""
    n_out = n // 20
    per_cluster = (n - n_out) // 3
    return gen_clusters_outliers(3, per_cluster, n - 3 * per_cluster, dim, 30.0, seed)


def sweep_cases(seed: int) -> list[Case]:
    """The acceptance datasets: criterion 8's ten seeds and criterion 11's levels."""
    cases = []
    for s in range(10 * seed, 10 * seed + 10):
        ds, labels = gen_clusters_outliers(3, 158, 26, 3, 28.0, s)
        cases.append(Case(ds, labels, RunConfig(k=10, T=1.0, seed=s)))
    for ds, labels in gen_imbalance_series([1.0, 2.0, 4.0, 8.0, 12.0], seed=seed):
        cases.append(Case(ds, labels, RunConfig(k=10, seed=seed)))
    return cases


class EvalWorkload:
    """Library path: prepare -> run_osd -> evaluate on each case."""

    QUALITY_PASS = False  # the timed operations already score the detectors

    def __init__(self, make_cases):
        self.make_cases = make_cases
        self.cases: list[Case] = []

    def setup(self, seed: int, workdir: Path) -> None:
        self.cases = self.make_cases(seed)

    def iterate(self) -> list[Outcome | BaseException]:
        out: list[Outcome | BaseException] = []
        for c in self.cases:
            try:
                # Looked up on the module each time so that traced runs see the wrappers.
                prepared = osd.pipeline.prepare(c.ds, c.config)
                after, partition, diag = osd.pipeline.run_osd(prepared, c.config)
                report = osd.pipeline.evaluate(prepared, after, c.labels, c.config, diag)
                out.append(Outcome(prepared.points, after.points, partition, c.labels,
                                   report.detector_results))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def quality(self, outcomes: list[Outcome]) -> list[dict[str, dict[str, float]]]:
        return [o.results for o in outcomes]

    def cleanup(self) -> None:
        pass


class TransformWorkload:
    """CLI path: in-process `osd transform` on a CSV written during set-up."""

    QUALITY_PASS = True  # detectors run only in a separate, untimed pass

    def __init__(self, n: int, dim: int):
        self.n, self.dim = n, dim
        self.captured: list[tuple] = []
        self._original_run_osd = None

    def setup(self, seed: int, workdir: Path) -> None:
        ds, self.labels = probe_data(self.n, self.dim, seed)
        self.input_csv = workdir / "input.csv"
        header = ",".join(f"x{i}" for i in range(self.dim))
        np.savetxt(self.input_csv, ds.points, delimiter=",", header=header,
                   comments="", fmt="%.17g")
        self.before = np.array(
            osd.pipeline.min_max_normalize(ds).points)  # what transform relocates
        self.out_csv = workdir / "out.csv"
        self.out_report = workdir / "report.json"
        self.argv = ["transform", "--input", str(self.input_csv),
                     "--out-data", str(self.out_csv), "--out-report", str(self.out_report)]
        if self._original_run_osd is None:
            # The CLI returns only an exit code; keep what run_osd returned
            # so the partition and relocated points can be checked.
            self._original_run_osd = osd.cli.run_osd
            osd.cli.run_osd = self._capture(self._original_run_osd)

    def _capture(self, func):
        @functools.wraps(func)
        def capture(*args, **kwargs):
            result = func(*args, **kwargs)
            self.captured.append(result)
            return result
        return capture

    def iterate(self) -> list[Outcome | BaseException]:
        self.captured.clear()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = osd.cli.main(self.argv)
            if code != 0:
                raise RuntimeError(f"osd transform exited with {code}")
            after, partition, _ = self.captured[-1]
        except Exception as exc:
            return [exc]
        return [Outcome(self.before, after.points, partition, self.labels,
                        out_csv=self.out_csv)]

    def quality(self, outcomes: list[Outcome]) -> list[dict[str, dict[str, float]]]:
        """Detectors before/after on the relocated points; run once, untimed."""
        o = outcomes[0]
        report = osd.pipeline.evaluate(Dataset(o.before), Dataset(o.after), o.labels,
                                       RunConfig(seed=0))
        return [report.detector_results]

    def cleanup(self) -> None:
        if self._original_run_osd is not None:
            osd.cli.run_osd = self._original_run_osd


def make_workload(name: str):
    if name == "eval-16k-d5":
        return EvalWorkload(lambda s: [Case(*probe_data(16000, 5, s), RunConfig(k=10, seed=s))])
    if name == "transform-64k-d5":
        return TransformWorkload(64000, 5)
    if name == "eval-sweep-small":
        return EvalWorkload(sweep_cases)
    raise ValueError(name)


# --- checks and digests -----------------------------------------------------

def check(o: Outcome) -> list[str]:
    """Every violated property of one operation's output (empty when correct)."""
    errs = []
    n = o.before.shape[0]
    if o.after.shape != o.before.shape:
        return [f"shape {o.after.shape} != input {o.before.shape}"]
    if not np.all(np.isfinite(o.after)):
        errs.append("non-finite relocated point")
    p = o.partition
    a = np.asarray(p.assignment)
    masses = np.asarray(p.masses)
    if a.shape != (n,) or a.min() < 0 or a.max() >= p.n_blocks or len(masses) != p.n_blocks:
        return errs + ["assignment does not index the blocks"]
    if int(masses.sum()) != n:
        errs.append(f"block masses sum to {int(masses.sum())}, not {n}")
    if not np.array_equal(np.bincount(a, minlength=p.n_blocks), masses):
        errs.append("block masses do not match the assignment")
    disp = o.after - o.before
    first = np.full(p.n_blocks, n)
    np.minimum.at(first, a, np.arange(n))
    ref = disp[first[a]]
    scale = max(float(np.abs(o.before).max()), float(np.abs(o.after).max()), 1.0)
    if not np.all(np.abs(disp - ref) <= RIGID_RTOL * (np.abs(ref) + scale)):
        errs.append("a block did not move as one rigid translation")
    for det, res in (o.results or {}).items():
        for key, value in res.items():
            if not 0.0 <= value <= 1.0:
                errs.append(f"{det} {key} = {value} outside [0, 1]")
    if o.out_csv is not None:
        written = np.loadtxt(o.out_csv, delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(written, o.after):
            errs.append("written CSV does not read back to the relocated points")
    return errs


def op_digest(o: Outcome) -> tuple[str, str]:
    pts = hashlib.sha256(np.ascontiguousarray(o.after, dtype="<f8").tobytes()).hexdigest()
    blk = hashlib.sha256(np.ascontiguousarray(o.partition.assignment, dtype="<i8").tobytes()).hexdigest()
    return pts, blk


def workload_digest(op_digests: list[tuple[str, str]]) -> dict[str, str]:
    """One digest per workload: the points' (and blocks') per-dataset digests, in order."""
    if len(op_digests) == 1:
        return {"points": op_digests[0][0], "blocks": op_digests[0][1]}
    return {
        "points": hashlib.sha256("".join(d[0] for d in op_digests).encode()).hexdigest(),
        "blocks": hashlib.sha256("".join(d[1] for d in op_digests).encode()).hexdigest(),
    }


# --- per-layer numbers from one traced iteration ---------------------------

def layer_metrics(tr: Tracer, outcomes: list[Outcome]) -> dict[str, float]:
    m: dict[str, float] = {}
    builds = tr.named("knngraph.build")
    build_s = tr.total("knngraph.build")
    rows = sum(s.result.n_objects for s in builds)
    m["knngraph.build.calls"] = len(builds)
    m["knngraph.build.s"] = build_s
    m["knngraph.build.us_per_row"] = 1e6 * build_s / rows if rows else 0.0
    m["knngraph.graph_mb"] = max(
        (sum(x.nbytes for x in (s.result.neighbor_idx, s.result.neighbor_dist,
                                s.result.edges, s.result.edge_weights)) / 2**20
         for s in builds), default=0.0)

    for f in ("weight_histogram", "find_inflection", "divide"):
        m[f"blocks.{f}.s"] = tr.total(f"blocks.{f}")
    m["blocks.n_blocks"] = sum(o.partition.n_blocks for o in outcomes)
    singles = 0
    for o in outcomes:
        members = np.flatnonzero(np.asarray(o.partition.masses)[o.partition.assignment] == 1)
        singles += int(np.sum(o.labels.flags[members] == 0))
    m["blocks.normal_singletons"] = singles
    pruned = edges = 0
    for s in tr.named("blocks.divide"):
        graph, threshold = s.args[0], s.args[1]
        pruned += int(np.sum(graph.edge_weights < threshold))
        edges += graph.n_edges
    m["blocks.edges_pruned_frac"] = pruned / edges if edges else 0.0

    m["explosion.explode.s"] = tr.total("explosion.explode")
    ratios = []
    for s, o in zip(tr.named("explosion.explode"), outcomes):
        shift = np.linalg.norm(s.result[0].points - s.args[0].points, axis=1)
        out = o.labels.flags == 1
        normal_median = float(np.median(shift[~out]))
        if out.any() and normal_median > 0:
            ratios.append(float(np.median(shift[out])) / normal_median)
    m["explosion.outlier_shift_ratio"] = float(np.median(ratios)) if ratios else 0.0

    m["repulsion.find_invalid_neighbors.self_s"] = tr.total(
        "repulsion.find_invalid_neighbors", self_time=True)
    m["repulsion.repel.s"] = tr.total("repulsion.repel")
    m["repulsion.invalid_pairs"] = sum(len(s.result) for s in tr.named("repulsion.find_invalid_neighbors"))

    for det in ("lof_scores", "iforest_scores", "knn_dist_scores"):
        m[f"detectors.{det}.s"] = tr.total(f"detectors.{det}")
        m[f"detectors.{det}.self_s"] = tr.total(f"detectors.{det}", self_time=True)
    m["metrics.evaluate_scores.s"] = tr.total("metrics.evaluate_scores")

    m["dataset.min_max_normalize.s"] = tr.total("dataset.min_max_normalize")
    load_s = tr.total("dataset.load_csv")
    load_mb = sum(os.path.getsize(s.args[0]) for s in tr.named("dataset.load_csv")) / 2**20
    m["dataset.load_csv.s"] = load_s
    m["dataset.load_csv.mb_per_s"] = load_mb / load_s if load_s else 0.0

    m["pipeline.run_osd.self_s"] = tr.total("pipeline.run_osd", self_time=True)
    m["pipeline.evaluate.self_s"] = tr.total("pipeline.evaluate", self_time=True)
    m["pipeline.write_points_csv.s"] = tr.total("pipeline.write_points_csv")
    m["cli.main.s"] = tr.total("cli.main")
    return m


# --- run ------------------------------------------------------------------

def timed_setup(workload, seed: int, workdir: Path) -> list[float]:
    """Seconds per set-up: `import osd` in a fresh interpreter, then the inputs.

    The import is timed in a child process because this one has already
    imported osd; work moved to import time then shows in setup_s.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples: list[float] = []
    while (len(samples) < MIN_SETUP_REPEATS
           or (sum(samples) < SETUP_TARGET_S and len(samples) < MAX_SETUP_REPEATS)):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import osd"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        workload.setup(seed, workdir)
        samples.append(time.perf_counter() - t0)
    return samples


def environment(caps: dict[str, str]) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "osd": osd.__version__,
        "thread_caps": caps,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over src/osd, so records from checkouts without git stay comparable."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "osd").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def baseline_digest(workload: str, seed: int) -> dict[str, str] | None:
    path = BENCH_DIR / "baseline_digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["digests"].get(workload, {}).get(str(seed))


def metric_units() -> dict[str, str]:
    """Unit of every metric, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def mean_quality(per_op: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    q = {}
    for key in ("auc_before", "auc_after", "ap_after"):
        for det in DETECTORS:
            q[f"metrics.{key}.{det}"] = statistics.fmean(r[det][key] for r in per_op)
    return q


def run(args, caps: dict[str, str]) -> int:
    runs_dir = BENCH_DIR / "runs"
    workdir = runs_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record_path = args.record or runs_dir / (
        f"{args.workload}.s{args.seed}.t{args.trace}.{os.getpid()}.json")
    workload = make_workload(args.workload)
    try:
        return _run(args, caps, workload, workdir, record_path)
    finally:
        workload.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, caps, workload, workdir: Path, record_path: Path) -> int:
    t_start = time.perf_counter()
    setup_samples = timed_setup(workload, args.seed, workdir)

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_samples: list[dict[str, float]] = []
    spans: list[list[dict[str, Any]]] = []
    attempted = failed = 0
    failures: list[str] = []
    first_digests: list[tuple[str, str]] | None = None
    first_ok: list[Outcome] | None = None
    iteration = 0
    t_loop = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and iteration % 2 == 1
        if use_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcomes = workload.iterate()
        finally:
            wall = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else untraced).append(wall)

        digests = []
        for i, o in enumerate(outcomes):
            attempted += 1
            if isinstance(o, BaseException):
                errs = ["".join(traceback.format_exception(o)).rstrip()]
            else:
                errs = check(o)
                digests.append(op_digest(o))
                if first_digests is not None and i < len(first_digests) and digests[-1] != first_digests[i]:
                    errs.append("digest differs from the first iteration (nondeterminism)")
            if errs:
                failed += 1
                failures.append(f"iteration {iteration} op {i}: " + "; ".join(errs))
        if first_digests is None and len(digests) == len(outcomes):
            first_digests, first_ok = digests, outcomes
        if use_trace:
            if len(digests) == len(outcomes):
                layer_samples.append(layer_metrics(tracer, outcomes))
            spans.append(tracer.export(t0))
            tracer.clear()

        iteration += 1
        # Stop at the iteration boundary nearest to --seconds, so a run
        # measures about --seconds however long one iteration takes.
        done = time.perf_counter() - t_loop + wall / 2 >= args.seconds
        if args.trace:
            done = done and len(untraced) >= MIN_EACH_TRACED and len(traced) >= MIN_EACH_TRACED
        else:
            done = done and len(untraced) >= MIN_UNTRACED
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured_s = time.perf_counter() - t_loop

    quality: dict[str, float] = {}
    # Quality is deterministic for a seed, so one operation set gives it.
    # Where it needs its own untimed pass, only traced runs pay for it.
    if first_ok is not None and (args.trace or not workload.QUALITY_PASS):
        t_q = time.perf_counter()
        try:
            quality = mean_quality(workload.quality(first_ok))
        except Exception:
            failed += 1
            failures.append("quality pass: " + traceback.format_exc().rstrip())
        quality_s = time.perf_counter() - t_q
    else:
        quality_s = 0.0

    values: dict[str, float] = {}
    if args.trace:
        for name in layer_samples[0] if layer_samples else ():
            values[name] = statistics.median(s[name] for s in layer_samples)
        values.update(quality)
        base = statistics.median(untraced)
        values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    else:
        values["setup_s"] = statistics.median(setup_samples)
        values["wall_s"] = statistics.median(untraced)
        values["peak_rss_mb"] = peak_rss_mb
    units = metric_units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    digest = workload_digest(first_digests) if first_digests else None
    baseline = baseline_digest(args.workload, args.seed)
    digest_changed = None if digest is None or baseline is None else digest != baseline
    correct = failed == 0 and bool(first_digests)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(caps),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": digest,
        "digest_changed": digest_changed,
        "metrics": metrics,
        "quality": quality,
        "samples": {
            "setup_s": setup_samples,
            "wall_s": untraced,
            "traced_wall_s": traced,
            "layers": layer_samples,
        },
        "spans": spans,
        "measured_s": measured_s,
        "quality_pass_s": quality_s,
        "total_s": time.perf_counter() - t_start,
    }
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1))

    for f in failures[:5]:
        print(f"bench: FAILED {f}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced iterations, digest {digest and digest['points'][:16]} "
          f"changed={digest_changed}, record {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

