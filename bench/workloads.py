"""The two benchmark workloads, driven through msetdim's public functions.

Each workload turns the benchmark seed into its inputs, runs one op per call
of `run_op` (the timed part), checks the op's outputs through `checks`, and
in a traced run repeats the sub-steps of its composite calls as separate
public calls so their shares show up as spans of their own.

Counts (`op_counts`) are taken from the first op of a run, which depends
only on the seed, so they repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from msetdim import (
    KIND_METRIC,
    KIND_MULTISET,
    KIND_OUTER,
    CandidateSpec,
    LocalizationIndex,
    RandomGraphSpec,
    construct_resolving,
    cycle_graph,
    default_target_size,
    diameter,
    dimension_report,
    distance_matrix,
    distances_from,
    draw_census_set,
    generate_gnp,
    is_connected,
    observe,
    typicality_census,
    verify_resolving,
)

import checks
from tracing import NullTracer

CHILD_TIMEOUT_S = 120


def op_seed(seed: int, tag: int, index: int) -> int:
    """Input seed for op `index` of the workload tagged `tag`."""
    state = np.random.SeedSequence([seed, tag, index]).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    raise TypeError(f"cannot digest {type(value).__name__}")


def run_child(argv: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


class Workload:
    name = ""
    # Run the op loop under run.rotating_cpus.
    rotate_cpus = True

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env

    def prepare(self) -> None:
        """Input preparation and warm-up; timed as part of setup_s."""

    def reference(self) -> None:
        """One-off oracle outputs for the checks; not part of setup_s."""

    def run_op(self, i: int, tr):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def substeps(self, out, tr) -> None:
        """Traced runs only: sub-steps of the op's composite calls."""

    def op_counts(self, out) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dense-pipeline: n <= DENSE_LIMIT, so n x n matrices are rebuilt per call
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DenseOut:
    seed: int
    g: object
    construction: object
    R: tuple
    census: object
    horizon: int
    located: list
    small: list = dataclasses.field(default_factory=list)
    reports: list = dataclasses.field(default_factory=list)


class DensePipeline(Workload):
    """G(2000, x=0.4): construction, census, localization index and lookups,
    then one exhaustive dimension_report on G(n, p) for each (n, p) in CELLS.

    The exhaustive reports are pure-Python subset enumeration, about 6% of
    an op: enough for the traced run to time the `exact` layer, small
    enough that the host's swings in pure-Python speed do not set the op's
    latency.
    """

    name = "dense-pipeline"
    N, X, CENSUS_SIZE, K, SOURCES = 2000, 0.4, 45, 3, 8
    CELLS = ((12, 0.3), (12, 0.6), (14, 0.3), (14, 0.6))

    def prepare(self) -> None:
        # Lazy imports inside the library (scipy's csgraph) finish here.
        g = generate_gnp(RandomGraphSpec(n=300, x=self.X, seed=0))
        self._pipeline(NullTracer(), g, 0, 2, [0, 1])
        dimension_report(cycle_graph(6))

    def run_op(self, i, tr):
        seed = op_seed(self.seed, 11, i)
        sources = np.random.default_rng(op_seed(self.seed, 21, i)).choice(
            self.N, self.SOURCES, replace=False
        )
        g = tr.call("graphs.generate", generate_gnp, RandomGraphSpec(n=self.N, x=self.X, seed=seed))
        out = self._pipeline(tr, g, seed, self.K, [int(v) for v in sources])
        for c, (n, p) in enumerate(self.CELLS):
            spec = RandomGraphSpec(n=n, p=p, seed=op_seed(self.seed, 13, len(self.CELLS) * i + c))
            # named apart from graphs.generate, whose per-call median is the G(2000) draw
            small = tr.call("graphs.generate_small", generate_gnp, spec)
            report = tr.call("exact.report", dimension_report, small)
            tr.note(subsets=report.subsets_examined)
            out.small.append(small)
            out.reports.append(report)
        return out

    def _pipeline(self, tr, g, seed, k, sources):
        spec = CandidateSpec(r=math.sqrt(g.n), growth=2.0, max_rounds=12, seed=seed)
        result = tr.call("construction.construct", construct_resolving, g, spec)
        R = tr.call("construction.draw_census_set", draw_census_set, g, self.CENSUS_SIZE, seed)
        census = tr.call("construction.census", typicality_census, g, R, k)
        index = tr.call("localization.index", LocalizationIndex, g, R)
        located = []
        for v0 in sources:
            obs = tr.call("localization.observe", observe, g, R, v0, horizon=index.horizon)
            located.append((v0, obs.counts, tr.call("localization.candidates", index.candidates, obs)))
        return DenseOut(seed, g, result, R, census, index.horizon, located)

    def check(self, out):
        problems = []
        g = out.g
        adj = checks.adjacency(g.edge_array, g.n)
        for rec in out.construction.rounds:
            members = checks.candidate_members(g.n, rec.target, out.seed, rec.round)
            if members.size != rec.sample_size:
                problems.append(f"round {rec.round}: sample size {rec.sample_size} != {members.size}")
                continue
            if rec.witness is not None:
                u, v = rec.witness
                rows = checks.rows_from(adj, [u, v])[:, members]
                if u == v or not checks.same_histogram(rows[0], rows[1]):
                    problems.append(f"round {rec.round}: witness {rec.witness} does not collide")
            elif rec.sample_size and not rec.resolving:
                problems.append(f"round {rec.round}: collision verdict without witness")
        if out.construction.success:
            rows = checks.rows_from(adj, out.construction.resolving_set)
            if not checks.resolves(checks.histograms(rows)):
                problems.append("reported resolving set does not resolve")
        for lvl in out.census.levels:
            if lvl.pairs_by_atypical != lvl.pairs_by_sensor:
                problems.append(f"census level {lvl.level}: incidence counts disagree")
        rows = checks.rows_from(adj, [v0 for v0, _, _ in out.located])[:, list(out.R)]
        for (v0, counts, cands), row in zip(out.located, rows):
            if v0 not in cands:
                problems.append(f"source {v0} not among candidates {cands}")
            if tuple(np.bincount(row, minlength=len(counts)).tolist()) != counts:
                problems.append(f"observation of source {v0} differs from its distances")
        for small, rep in zip(out.small, out.reports):
            problems.extend(_check_report(small, rep))
        return problems

    def digest(self, out):
        return digest({
            "m": out.g.num_edges,
            "construction": out.construction.to_json_dict(),
            "R": list(out.R),
            "census": dataclasses.asdict(out.census),
            "horizon": out.horizon,
            "located": [[v0, list(c), list(f)] for v0, c, f in out.located],
            "exact": [{"m": small.num_edges, "report": rep.to_json_dict()}
                      for small, rep in zip(out.small, out.reports)],
        })

    def substeps(self, out, tr):
        g = out.g
        tr.substep("graphs.is_connected", is_connected, g)
        dm = tr.substep("graphs.distance_matrix", distance_matrix, g)
        tr.substep("graphs.diameter", diameter, g)
        R = list(out.R)
        tr.substep("graphs.bfs_block", distances_from, g, R,
                   attrs={"rows": len(R), "m": g.num_edges})
        for rec in out.construction.rounds:
            if rec.sample_size:
                members = checks.candidate_members(g.n, rec.target, out.seed, rec.round)
                tr.substep("signatures.verify_rows", verify_resolving, g, members,
                           KIND_MULTISET, rows=dm[members], attrs={"n": g.n})
        tr.substep("signatures.verify_cold", verify_resolving, g, R, KIND_MULTISET)

    def op_counts(self, out):
        rounds = out.construction.rounds
        n = out.g.n
        collisions = sum(1 for r in rounds if r.witness is not None)
        found = len(out.construction.resolving_set or ())
        # construct: connectivity + matrix + two recheck rows per collision
        # (+ re-verification); census: connectivity + matrix; index:
        # connectivity + diameter (first row + matrix) + sensor rows;
        # observe: one spread per source; exact: one row per vertex for
        # each of the three searches.
        rows = (1 + n + 2 * collisions + found) + (1 + n) + (2 + n + len(out.R)) + len(out.located)
        rows += sum(3 * small.n for small in out.small)
        return {
            "graphs.edges": out.g.num_edges,
            "graphs.bfs_rows_implied": rows,
            "construction.rounds": len(rounds),
            "construction.verified_vertices": sum(r.sample_size for r in rounds),
            "construction.resolving_rounds": sum(1 for r in rounds if r.resolving),
            "exact.subsets": sum(rep.subsets_examined for rep in out.reports),
            "exact.inf_verdicts": sum(int(math.isinf(rep.multiset_dim)) for rep in out.reports),
        }


def _witnesses(rep):
    pairs = [(KIND_METRIC, rep.metric_dim, rep.metric_witness),
             (KIND_OUTER, rep.outer_multiset_dim, rep.outer_multiset_witness)]
    if not math.isinf(rep.multiset_dim):
        pairs.append((KIND_MULTISET, rep.multiset_dim, rep.multiset_witness))
    return pairs


def _check_report(g, rep) -> list[str]:
    """The dimension chain holds and every finite witness resolves."""
    problems = []
    where = f"G(n={g.n}, m={g.num_edges})"
    if not rep.multiset_dim >= rep.outer_multiset_dim >= rep.metric_dim:
        problems.append(f"{where}: dimension chain violated")
    if math.isinf(rep.multiset_dim) and rep.multiset_witness is not None:
        problems.append(f"{where}: infinite multiset dimension with a witness")
    adj = checks.adjacency(g.edge_array, g.n)
    for kind, dim, witness in _witnesses(rep):
        rows = checks.rows_from(adj, witness)
        keys = rows.T if kind == KIND_METRIC else checks.histograms(rows)
        skip = witness if kind == KIND_OUTER else ()
        if len(witness) != dim:
            problems.append(f"{where}: {kind} witness size {len(witness)} != {dim}")
        elif not (verify_resolving(g, witness, kind).resolving
                  and checks.resolves(keys, skip)):
            problems.append(f"{where}: {kind} witness {witness} does not resolve")
    return problems


# ---------------------------------------------------------------------------
# cli-campaign: interpreter start, import, config merge, pool and CSV writer
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CliOut:
    returncode: int
    stderr: str
    table: bytes
    counts: dict = dataclasses.field(default_factory=dict)


class CliCampaign(Workload):
    """`python -m msetdim campaign plan.json --threads 2` as a subprocess."""

    name = "cli-campaign"
    # The op runs in child processes, which would inherit a one-CPU mask;
    # its two workers already spread it over both CPUs of a 2-vCPU box.
    rotate_cpus = False
    THREADS, TRIALS = 2, 8
    PARAMS = {"n": 1000, "x": 0.4, "max_rounds": 6}

    def prepare(self) -> None:
        self.plan = self.workdir / f"{self.name}-plan.json"
        plan = {"command": "randomized", "trials": self.TRIALS,
                "seed": op_seed(self.seed, 14, 0), "params": self.PARAMS}
        self.plan.write_text(json.dumps(plan, sort_keys=True))

    def _argv(self, threads: int, out: Path, timings: bool) -> list[str]:
        argv = [sys.executable, "-m", "msetdim", "campaign", str(self.plan),
                "--threads", str(threads), "--out", str(out)]
        return argv + ["--timings"] if timings else argv

    def reference(self) -> None:
        out = self.workdir / f"{self.name}-reference.csv"
        proc = run_child(self._argv(1, out, False), self.workdir, self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"reference campaign failed: {proc.stderr.decode()}")
        self.expected = out.read_bytes()

    def run_op(self, i, tr):
        out = self.workdir / f"{self.name}-op.csv"
        out.unlink(missing_ok=True)
        proc = tr.call("cli.campaign", run_child,
                       self._argv(self.THREADS, out, tr.enabled), self.workdir, self.env)
        table = out.read_bytes() if out.exists() else b""
        if tr.enabled:
            table, trial_ms = _split_timings(table)
            tr.note(workers=self.THREADS, trial_ms=trial_ms)
        return CliOut(proc.returncode, proc.stderr.decode(errors="replace"), table)

    def check(self, out):
        if out.returncode != 0:
            return [f"campaign exited {out.returncode}: {out.stderr.strip()}"]
        if out.table != self.expected:
            return ["campaign output differs from the --threads 1 reference"]
        return []

    def digest(self, out):
        return hashlib.sha256(out.table).hexdigest()[:16]

    def substeps(self, out, tr):
        tr.substep("cli.startup", run_child, [sys.executable, "-c", "import msetdim"],
                   self.workdir, self.env)
        # Trial 0 again in this process: its seed is the first row's seed column.
        first = [ln for ln in out.table.decode().splitlines() if ln and not ln.startswith("#")][1]
        trial_seed = int(first.split(",")[1])
        n, x = self.PARAMS["n"], self.PARAMS["x"]
        g = tr.substep("graphs.generate", generate_gnp, RandomGraphSpec(n=n, x=x, seed=trial_seed))
        spec = CandidateSpec(r=float(default_target_size(n, x)),
                             max_rounds=self.PARAMS["max_rounds"], seed=trial_seed)
        result = tr.substep("construction.construct", construct_resolving, g, spec)
        dm = tr.substep("graphs.distance_matrix", distance_matrix, g)
        last = result.rounds[-1]
        members = checks.candidate_members(g.n, last.target, trial_seed, last.round)
        tr.substep("signatures.verify_rows", verify_resolving, g, members, KIND_MULTISET,
                   rows=dm[members], attrs={"n": g.n})
        rounds = result.rounds
        out.counts = {
            "graphs.edges": g.num_edges,
            "construction.rounds": len(rounds),
            "construction.verified_vertices": sum(r.sample_size for r in rounds),
            "construction.resolving_rounds": sum(1 for r in rounds if r.resolving),
        }

    def op_counts(self, out):
        # per trial: connectivity + matrix + two recheck rows per failed
        # round (+ re-verification of a found set)
        rows = 0
        for line in out.table.decode().splitlines()[2:]:
            success, rounds_used, set_size = (int(v) for v in line.split(",")[5:8])
            rows += 1 + self.PARAMS["n"] + 2 * (rounds_used - success) + success * set_size
        return {"graphs.bfs_rows_implied": rows, **out.counts}


def _split_timings(table: bytes) -> tuple[bytes, float]:
    """Drop the trailing wall_ms column; return the rest and the summed wall_ms."""
    lines = table.decode().split("\n")
    kept, total = [], 0.0
    for line in lines:
        if not line or line.startswith("#"):
            kept.append(line)
            continue
        head, _, last = line.rpartition(",")
        kept.append(head)
        if last != "wall_ms":
            total += float(last)
    return "\n".join(kept).encode(), total


WORKLOADS = {cls.name: cls for cls in (DensePipeline, CliCampaign)}
