"""EnsemFDet benchmark: the TNS ensemble beside full-graph FRAUDAR on JD-lite jd3 graphs.

Run from the repository root:

    python3 ensbench/run.py --workload ens-tns-jd3 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer split (README.md maps each layer to the end-to-end metric it
should move). Every detect call's output is checked (checks.py). The
last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

from checks import CheckFailed, check_f1, check_fraudar_blocks, check_sample_size, check_votes, f1_floor
from spans import Tracer, descendants, peak_rss_mb, proc_stat, python_workers, traced_solver, tree_cpu_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

CORES = 4
#: Fixed master: best_f1 reproduces only under it (README, partition invariance).
MASTER = f"local[{CORES}]"
DRIVER_MEMORY = "2g"
#: Generator seed of the JD-lite graph and its planted blacklist.
GRAPH_SEED = 0
#: The paper's Table II S and N with the solver's defaults.
S, N, K_MAX, PHI_STOP_FRAC, C = 0.1, 80, 30, 0.05, 5.0
#: Data set-ups per run; setup_s reports their median. FRAUDAR's set-up
#: takes milliseconds, so it makes more of them.
SETUP_REPS = 3
FRAUDAR_SETUP_REPS = 15

#: An ensemble round is the untimed partition-invariance call, then this
#: many timed calls, so failed/attempted is 1/3 in every run while that
#: call fails. The invariance call also keeps the first timed call of a
#: run from being the second call in the JVM, which still runs 10-30%
#: slower while the JIT compiles.
TIMED_CALLS_PER_ROUND = 2
WORKLOADS = {
    "ens-tns-jd3": dict(method="TNS", scale=0.01, invariance_partitions=16),
    "fraudar-jd3": dict(method=None, scale=0.001, k=30),
}


def _prepare_env() -> None:
    """Keep every file Spark and Python write inside the checkout; pin the master."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    # HotSpot writes its perf-data file to /tmp whatever java.io.tmpdir says.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER} --driver-memory {DRIVER_MEMORY}",
            shlex.quote(f"--driver-java-options=-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs))


class Bench:
    """State of one benchmark run: inputs, tracer, counts and failed checks."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.w, self.seed, self.seconds = WORKLOADS[workload], seed, seconds
        self.tracer = Tracer(workload, f"{workload}-s{seed}-{uuid.uuid4().hex[:8]}")
        self.span = self.tracer.span
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.spark = None

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as e:
            self.problems.append(f"{fn.__name__}: {e}")
            print(f"ensbench: check failed: {fn.__name__}: {e}", file=sys.stderr)

    def generate(self):
        from repro.synth_data import jd_transactions

        with self.span("synth_data.jd_transactions"):
            edges, users, meta = jd_transactions("jd3", scale=self.w["scale"], seed=GRAPH_SEED)
        self.edges, self.meta = edges, meta
        self.u, self.v = edges["pin"].to_numpy(), edges["merchant"].to_numpy()
        self.truth = users.loc[users["is_fraud"], "pin"].to_numpy()
        self.f1_floor = f1_floor(len(self.truth), len(users))

    def setup_layers(self) -> dict:
        """Per-layer set-up figures and the wrapped solver calls' counts and times."""
        tr = self.tracer
        return {
            "spark.session_s": tr.total("spark.session"),
            "synth_data.gen_s": _median(tr.durations("synth_data.jd_transactions")),
            "synth_data.edges": len(self.edges),
            "ingest.s": _median(tr.durations("ingest")),
            "ingest.rows": self.ingest_rows,
            **_solver_layers(tr),
        }

    def rounds(self, one_round) -> None:
        """Whole rounds of the same operations until ``seconds`` have passed."""
        t0 = time.perf_counter()
        while True:
            one_round()
            if time.perf_counter() - t0 >= self.seconds:
                return


# ------------------------------------------------------------------ Spark
def start_spark():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("ensbench")
        .master(MASTER)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait until every process below us has ended."""
    from pyspark import SparkContext

    started = [p for p in descendants() if p != os.getpid()]
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = gateway.proc
        gateway.shutdown()
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        alive = [p for p in started if (st := proc_stat(p)) is not None and st[0] != "Z"]
        if not alive:
            return
        time.sleep(0.1)
    print(f"ensbench: processes still running after stop: {alive}", file=sys.stderr)


@contextmanager
def shuffle_partitions(spark, n: int):
    """The shuffle partition count ``ensemfdet`` uses while it executes."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(max(int(old), 3 * n)))
    try:
        yield
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


def _generate_rows(plan) -> int:
    """Output rows of the Generate (explode) node of an executed plan; -1 if unreadable."""
    todo = [plan]
    while todo:
        node = todo.pop()
        if node.nodeName() == "Generate":
            metric = node.metrics().get("numOutputRows")
            return int(metric.get().value()) if metric.isDefined() else -1
        kids = node.children()
        todo.extend(kids.apply(i) for i in range(kids.size()))
    return -1


def _solve_tasks(sc, group: str) -> int:
    """Tasks of the stage that ran the grouped solver: the one after the sampling stage."""
    st = sc.statusTracker()
    stage_ids = sorted({s for j in st.getJobIdsForGroup(group) if (info := st.getJobInfo(j)) for s in info.stageIds})
    done = [i for s in stage_ids if (i := st.getStageInfo(s)) is not None and i.numCompletedTasks > 0]
    return done[1].numCompletedTasks if len(done) > 1 else -1


# --------------------------------------------------------------- ensembles
def _votes_table(run):
    """The whole vote table, both sides, sorted, as pandas."""
    pdf = run.votes.toPandas().astype({"node": "int64", "votes": "int64"})
    return pdf.sort_values(["side", "node"], ignore_index=True)


def _differing_votes(a, b) -> int:
    m = a.merge(b, on=["side", "node"], how="outer")
    return int((m["votes_x"] != m["votes_y"]).sum())


class EnsembleBench(Bench):
    def setup(self) -> float:
        with self.span("spark.session"):
            self.spark = start_spark()
        per_rep = []
        self.df = None
        for _ in range(SETUP_REPS):
            if self.df is not None:
                # Identical plans share one cache entry: drop it so each rep fills it.
                self.df.unpersist(blocking=True)
            t0 = time.perf_counter()
            self.generate()
            with self.span("ingest"):
                self.df = self.spark.createDataFrame(self.edges).cache()
                self.ingest_rows = self.df.count()
            per_rep.append(time.perf_counter() - t0)
        return self.tracer.total("spark.session") + _median(per_rep)

    def ensemfdet(self, edges_df, seed: int):
        from repro.core.ensemble import ensemfdet

        return ensemfdet(
            self.spark, edges_df, method=self.w["method"], s=S, n=N, seed=seed,
            k_max=K_MAX, phi_stop_frac=PHI_STOP_FRAC, c=C,
        )

    def warm_up(self) -> None:
        """The first call in a fresh JVM, untimed: it runs two to three times slower.

        It runs at sampling seed 0 and the default partitioning, so its votes
        are the reference the invariance call is held to.
        """
        with self.span("ensemble.warm_up"):
            run = self.ensemfdet(self.df, 0)
            self.reference = _votes_table(run)
            run.votes.unpersist()
        self.walls, self.cpus, self.f1s, self.first_votes = [], [], [], None
        self.differing = 0
        self.df_repart = self.df.repartition(self.w["invariance_partitions"]).cache()
        self.df_repart.count()

    def one_round(self, traced: bool = False) -> None:
        """The invariance call + TIMED_CALLS_PER_ROUND timed calls.

        With ``traced`` the round's last timed call runs with the solver
        wrappers on and in its own Spark job group, whose stages give
        solve_tasks.
        """
        self.invariance_call()
        for _ in range(TIMED_CALLS_PER_ROUND - 1):
            self.timed_call()
        if not traced:
            self.timed_call()
            return
        sc = self.spark.sparkContext
        sc.setJobGroup(self.tracer.run_id, "traced ensemfdet call")
        with traced_solver(self.tracer):
            self.timed_call()
        sc.setLocalProperty("spark.jobGroup.id", None)
        self.solve_tasks = _solve_tasks(sc, self.tracer.run_id)

    def timed_call(self) -> None:
        from repro.eval.metrics import threshold_sweep

        self.attempted += 1
        cpu0 = tree_cpu_s()
        t0 = time.perf_counter()
        with self.span("ensemble.detect"):
            run = self.ensemfdet(self.df, self.seed)
            pv = run.pin_votes()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(tree_cpu_s() - cpu0)
        run.votes.unpersist()
        pv = pv.sort_values("node", ignore_index=True)
        self.check(check_votes, pv["node"].to_numpy(), pv["votes"].to_numpy(), N, self.u)
        with self.span("metrics.threshold_sweep"):
            sweep = threshold_sweep(pv, self.truth, range(1, N + 1))
        self.f1s.append(float(sweep["f1"].max()))
        self.check(check_f1, self.f1s[-1], self.f1_floor)
        if self.first_votes is None:
            self.first_votes = pv
        elif not pv.equals(self.first_votes):
            self.problems.append("repeated calls at one partitioning gave different votes")
        self.pin_votes = pv

    def invariance_call(self) -> None:
        """Seed-0 samples of the same edges in other partitions must give the reference votes."""
        self.attempted += 1
        with self.span("ensemble.invariance"):
            run = self.ensemfdet(self.df_repart, 0)
            table = _votes_table(run)
            run.votes.unpersist()
        self.differing = _differing_votes(table, self.reference)
        if self.differing:
            self.failed += 1

    def check_sizes(self, sizes) -> None:
        self.check(check_sample_size, sizes, self.w["method"], S, N, self.u, self.v)

    def end_to_end(self) -> dict:
        from repro.core.sampling import sample_edges_spark

        setup_s = self.setup()
        self.warm_up()
        self.rounds(self.one_round)
        samples = sample_edges_spark(self.df, self.w["method"], S, N, self.seed)
        self.check_sizes(samples.groupBy("sample_id").count().toPandas()["count"].to_numpy())
        return {"setup_s": setup_s, "detect_s": _median(self.walls), "cpu_s": _median(self.cpus),
                "best_f1": _median(self.f1s)}

    def noop_pipeline(self, samples) -> int:
        """ensemfdet()'s pipeline with a solver that does nothing; returns the bytes it was handed.

        The steps are ensemfdet()'s own: group by sample_id through
        applyInPandas, vote, cache, count under the partition setting it
        uses, then pin_votes(). Only the per-sample solve is left out.
        """
        import pandas as pd
        from repro.core.ensemble import DETECTED_SCHEMA, EnsemFDetRun, vote

        handed = self.spark.sparkContext.accumulator(0)
        empty = {"sample_id": "int64", "side": "str", "node": "int64", "block": "int32", "phi": "float64"}

        def solver(pdf):
            handed.add(int(pdf.memory_usage(deep=True).sum()))
            return pd.DataFrame({k: pd.Series(dtype=t) for k, t in empty.items()})

        with self.span("ensemble.noop_pipeline"):
            votes = vote(samples.groupBy("sample_id").applyInPandas(solver, schema=DETECTED_SCHEMA)).cache()
            with shuffle_partitions(self.spark, N):
                votes.count()
            EnsemFDetRun(votes, self.w["method"], S, N, K_MAX).pin_votes()
        votes.unpersist()
        return handed.value

    def per_layer(self) -> dict:
        from repro.core.ensemble import detect_on_samples, vote
        from repro.core.fdet import fdet
        from repro.core.sampling import sample_edges_spark
        from repro.eval.metrics import threshold_sweep
        from repro.graph.bipartite import BipartiteGraph

        tr, span = self.tracer, self.span
        self.setup()
        spark = self.spark
        self.warm_up()
        # The round's last two timed calls: the first untraced, the second traced.
        self.one_round(traced=True)
        untraced, traced = self.walls[-2:]

        samples = sample_edges_spark(self.df, self.w["method"], S, N, self.seed)
        with span("sampling.count"):
            plan = samples._jdf.queryExecution().executedPlan()
            rows_out = int(plan.execute().count())
        rows_generated = _generate_rows(plan)

        udf_input_bytes = self.noop_pipeline(samples)
        # Cached before the partition setting changes and counted under it,
        # as ensemfdet() does, so both are planned the way it plans them.
        detected = detect_on_samples(samples, k_max=K_MAX, phi_stop_frac=PHI_STOP_FRAC, c=C).cache()
        with shuffle_partitions(spark, N), span("ensemble.solve"):
            detected_rows = detected.count()
        votes = vote(detected).cache()
        with shuffle_partitions(spark, N), span("ensemble.vote"):
            voted_nodes = votes.count()
        votes.unpersist()
        detected.unpersist()

        # Driver replay of the per-sample solve, as _solve_group runs it.
        with span("ensemble.collect_samples"):
            pdf = samples.toPandas()
        sizes = pdf.groupby("sample_id").size().to_numpy()
        self.check_sizes(sizes)
        if sizes.sum() != rows_out:
            self.problems.append(f"samples counted {rows_out} rows but collected {sizes.sum()}")
        k_hats, blocks = [], 0
        with traced_solver(tr):
            for _, grp in pdf.groupby("sample_id", sort=True):
                with span("fdet.sample", edges=len(grp)):
                    raw = BipartiteGraph.from_pandas(grp, "pin", "merchant", "w")
                    with span("bipartite.relabel"):
                        g, _, _ = raw.relabeled()
                    res = fdet(g, k_max=K_MAX, truncate=True, phi_stop_frac=PHI_STOP_FRAC, c=C)
                k_hats.append(res.k_hat)
                blocks += len(res.blocks)
        with span("metrics.sweep"):
            threshold_sweep(self.pin_votes, self.truth, range(1, N + 1))

        per_sample = tr.durations("fdet.sample")
        serial = float(sum(per_sample))
        noop_s, vote_s = tr.total("ensemble.noop_pipeline"), tr.total("ensemble.vote")
        out = self.setup_layers()
        out.update({
            "sampling.s": tr.total("sampling.count"),
            "sampling.rows_out": rows_out,
            "sampling.rows_generated": rows_generated,
            "sampling.keep_ratio": rows_out / rows_generated if rows_generated > 0 else -1.0,
            "sampling.max_sample_edges": int(sizes.max()),
            "ensemble.noop_pipeline_s": noop_s,
            "ensemble.udf_input_bytes": udf_input_bytes,
            "ensemble.solve_tasks": self.solve_tasks,
            "ensemble.vote_s": vote_s,
            "ensemble.detected_rows": detected_rows,
            "ensemble.voted_nodes": voted_nodes,
            "ensemble.packing_loss_s": untraced - noop_s - vote_s - serial / CORES,
            "bipartite.relabel_s": tr.total("bipartite.relabel"),
            "fdet.serial_s": serial,
            "fdet.p50_ms": 1e3 * _median(per_sample),
            "fdet.max_ms": 1e3 * max(per_sample),
            "fdet.blocks": blocks,
            "fdet.k_hat_mean": float(sum(k_hats)) / len(k_hats),
            "fdet.k_hat_max": max(k_hats),
            "metrics.sweep_s": tr.total("metrics.sweep"),
            "proc.worker_rss_mb": max([peak_rss_mb(p) for p in python_workers()], default=0.0),
            "trace.overhead_s": traced - untraced,
            "invariance.differing_votes": self.differing,
        })
        return out



def _solver_layers(tr) -> dict:
    peel_s, peel_edges = tr.total("peel.peel_densest"), tr.attr_sum("peel.peel_densest", "edges")
    return {
        "fdet.truncation_s": tr.total("fdet.truncating_point"),
        "peel.calls": len(tr.durations("peel.peel_densest")),
        "peel.s": peel_s,
        "peel.edges": peel_edges,
        "peel.ns_per_edge": 1e9 * peel_s / peel_edges if peel_edges else 0.0,
        "bipartite.remove_block_calls": len(tr.durations("bipartite.remove_block_edges")),
        "bipartite.remove_block_s": tr.total("bipartite.remove_block_edges"),
    }


# ----------------------------------------------------------------- FRAUDAR
class FraudarBench(Bench):
    """Full-graph FRAUDAR in the driver: no Spark session is started."""

    def setup(self) -> float:
        from repro.graph.bipartite import BipartiteGraph

        per_rep = []
        for _ in range(FRAUDAR_SETUP_REPS):
            t0 = time.perf_counter()
            self.generate()
            with self.span("ingest"):
                self.g = BipartiteGraph.from_pandas(self.edges, n_u=self.meta["n_pin"], n_v=self.meta["n_merchant"])
            self.ingest_rows = self.g.n_edges
            per_rep.append(time.perf_counter() - t0)
        return _median(per_rep)

    def call(self) -> None:
        from repro.baselines.fraudar import fraudar, fraudar_points
        from repro.eval.metrics import prf

        self.attempted += 1
        cpu0 = tree_cpu_s()
        t0 = time.perf_counter()
        with self.span("fraudar"):
            res = fraudar(self.g, k=self.w["k"], c=C)
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(tree_cpu_s() - cpu0)
        self.result = res
        blocks = [(b.users, b.merchants, b.phi) for b in res.blocks]
        self.check(check_fraudar_blocks, self.u, self.v, blocks, C)
        with self.span("metrics.sweep"):
            f1 = max(prf(p["pins"], self.truth)[2] for p in fraudar_points(res))
        self.f1s.append(f1)
        self.check(check_f1, f1, self.f1_floor)
        phis = [b[2] for b in blocks]
        if self.first_phis is None:
            self.first_phis = phis
        elif phis != self.first_phis:
            self.problems.append("repeated FRAUDAR calls gave different blocks")

    def start(self) -> float:
        setup_s = self.setup()
        self.walls, self.cpus, self.f1s, self.first_phis = [], [], [], None
        with self.span("fraudar.warm_up"):
            self.call()
        self.walls, self.cpus, self.f1s = [], [], []
        self.attempted = 0
        return setup_s

    def end_to_end(self) -> dict:
        setup_s = self.start()
        self.rounds(self.call)
        return {"setup_s": setup_s, "detect_s": _median(self.walls), "cpu_s": _median(self.cpus),
                "best_f1": _median(self.f1s)}

    def per_layer(self) -> dict:
        tr = self.tracer
        self.start()
        self.call()
        untraced = self.walls[-1]
        sweep_before = tr.total("metrics.sweep")
        with traced_solver(tr):
            self.call()
        traced = self.walls[-1]
        blocks, k_hat = len(self.result.blocks), self.result.k_hat
        return {
            **self.setup_layers(),
            # Spark layers do not run here; they read 0 on this workload.
            **{k: 0 for k in SPARK_ONLY},
            "bipartite.relabel_s": 0.0,
            "fdet.serial_s": traced,
            "fdet.p50_ms": 1e3 * traced,
            "fdet.max_ms": 1e3 * traced,
            "fdet.blocks": blocks,
            "fdet.k_hat_mean": float(k_hat),
            "fdet.k_hat_max": k_hat,
            "metrics.sweep_s": tr.total("metrics.sweep") - sweep_before,
            "proc.worker_rss_mb": 0.0,
            "trace.overhead_s": traced - untraced,
        }


SPARK_ONLY = (
    "sampling.s", "sampling.rows_out", "sampling.rows_generated", "sampling.keep_ratio",
    "sampling.max_sample_edges", "ensemble.noop_pipeline_s", "ensemble.udf_input_bytes",
    "ensemble.solve_tasks", "ensemble.vote_s", "ensemble.detected_rows", "ensemble.voted_nodes",
    "ensemble.packing_loss_s", "invariance.differing_votes",
)


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="sampling seed of the ensembles")
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ensbench: {SRC / 'repro'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    _prepare_env()

    cls = FraudarBench if WORKLOADS[args.workload]["method"] is None else EnsembleBench
    bench = cls(args.workload, args.seed, args.seconds)
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        if bench.spark is not None:
            stop_spark(bench.spark)
    if args.trace:
        units = _units("per_layer")
        bench.tracer.dump(WORK / "spans" / f"{bench.tracer.run_id}.json")
    else:
        values["driver_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = _units("end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
