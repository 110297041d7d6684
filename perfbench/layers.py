"""In-process side of the benchmark: negative controls, the traced run and
the per-layer microbenchmarks.

Spans are recorded from here, by wrapping the public functions of each
``torsioncalc`` module for the length of one traced run; the package itself
carries no tracing code.  A span's inclusive time is summed per name, and its
self time (inclusive minus the spans it encloses) is summed per layer, where
a layer is a module of the package.
"""

from __future__ import annotations

import os
import random
import statistics
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

import torsioncalc.cli as cli
import torsioncalc.cosmology as cosmology
import torsioncalc.ricci as ricci
import torsioncalc.sampling as sampling
from torsioncalc.algebra import LinearSystem
from torsioncalc.ratfunc import Poly, RationalFunction
from torsioncalc.ricci import IdentityCoefficients, IdentityWorkspace, MixWeights
from torsioncalc.sampling import derive_rng, random_scalar_field

from workloads import WORKLOADS, cosmology_block, judge

LAYERS = (
    "algebra", "connection", "curvature", "ricci", "ratfunc", "cosmology",
    "sampling", "report", "cli",
)

# Per-layer metrics and their units; the smoke mode checks them against
# BENCHMARK.json.
UNITS = {
    "sampling.instance_s": "s",
    "connection.covariant_derivative_s": "s",
    "connection.calls": "count",
    "curvature.curvature_R_s": "s",
    "ricci.dd_s": "s",
    "ricci.basis_s": "s",
    "ricci.rcomm_s": "s",
    "ricci.check_s": "s",
    "ricci.mixed_rhs_s": "s",
    "ricci.solve_feed_s": "s",
    "ricci.solve_verify_s": "s",
    "ricci.dd_terms": "count",
    "ricci.basis_terms": "count",
    "algebra.mul_ns_per_pair": "ns",
    "algebra.add_ns_per_term": "ns",
    "algebra.scale_frac_ns_per_term": "ns",
    "algebra.linear_system_rows": "count",
    "algebra.linear_system_add_row_s": "s",
    "algebra.linear_system_solve_s": "s",
    "algebra.matrix_rank_s": "s",
    "ratfunc.mul_us": "us",
    "ratfunc.add_us": "us",
    "ratfunc.gcd_calls": "count",
    "cosmology.scalar_curvature_s": "s",
    "cosmology.scalar_curvature_family_s": "s",
    "cosmology.energy_momentum_s": "s",
    "cosmology.matter_lagrangian_paths_s": "s",
    "cosmology.christoffel_tables_s": "s",
    "cosmology.recover_n_s": "s",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "cli.in_process_s": "s",
    "cli.fanout_speedup": "ratio",
    "trace.overhead_share": "share",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# Work counts that depend only on the inputs; two traced runs of one seed
# must give the same values.
COUNTS = (
    "connection.calls", "ricci.dd_terms", "ricci.basis_terms",
    "algebra.linear_system_rows", "ratfunc.gcd_calls",
)

# v -> a different value in {-1, 0, 1}
_FLIP = {1: 0, 0: -1, -1: 1}
NEGATIVE_CONTROLS = 3


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def negative_controls(ws: IdentityWorkspace, cli_seed: int):
    """(attempted, failed): flip one coefficient of a few catalogue members,
    chosen from the seed; each flipped identity must leave a nonzero
    residual, so a check that could not fail shows up as a failure here."""
    rng = derive_rng(cli_seed, "negative-control-members")
    members = rng.sample(ricci.identity_catalogue(), NEGATIVE_CONTROLS)
    failed = 0
    for ic in members:
        k = rng.randrange(17)
        c = list(ic.c)
        c[k] = _FLIP[c[k]]
        if ws.residual(IdentityCoefficients(tuple(c), ic.pqrs)).is_zero():
            failed += 1
    return NEGATIVE_CONTROLS, failed


def control_workspace(w, cli_seed: int) -> IdentityWorkspace:
    """One instance at the workload's size, for the negative controls."""
    return _sample(cli_seed, "negative-control", w.dimension, w.degree)[1]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as per-name and per-layer sums.

    The clock excludes time spent in result hooks (term counting), so hooks
    add nothing to any span or to the traced run's total."""

    def __init__(self):
        self.hidden = 0.0
        self.stack = []
        self.inclusive = defaultdict(float)
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.first_start = {}
        self.last_end = {}
        self.counts = Counter()
        self._patches = []

    def now(self) -> float:
        return time.perf_counter() - self.hidden

    def _open(self):
        frame = [self.now(), 0.0]  # start, time covered by child spans
        self.stack.append(frame)
        return frame

    def _close(self, frame, name, layer):
        end = self.now()
        self.stack.pop()
        duration = end - frame[0]
        self.inclusive[name] += duration
        self.calls[name] += 1
        self.self_time[layer] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        self.first_start.setdefault(name, frame[0])
        self.last_end[name] = end

    @contextmanager
    def span(self, name, layer):
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, name, layer)

    def wrap(self, fn, name, layer, hook=None):
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, layer)
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, result)
                self.hidden += time.perf_counter() - t0
            return result

        return traced

    def patch(self, owner, attr, name, layer, hook=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, hook))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count_terms_once(self, counter):
        """Hook adding a cached tensor's term count the first time a
        workspace returns it."""
        seen = weakref.WeakKeyDictionary()

        def hook(args, result):
            keys = seen.setdefault(args[0], set())
            if args[1:] not in keys:
                keys.add(args[1:])
                self.counts[counter] += sum(len(e.terms()) for e in result.entries)

        return hook

    def install(self):
        """Wrap the public calls the four CLI paths make, module by module."""
        p = self.patch
        p(ricci, "covariant_derivative", "connection.covariant_derivative", "connection")
        p(ricci, "curvature_R", "curvature.curvature_R", "curvature")
        for module in (sampling, ricci):
            p(module, "random_even_connection", "sampling.connection", "sampling")
            p(module, "random_tensor_field", "sampling.tensor_field", "sampling")
        p(ricci, "matrix_rank", "algebra.matrix_rank", "algebra")
        p(LinearSystem, "add_row", "algebra.linear_system_add_row", "algebra")
        p(LinearSystem, "solve", "algebra.linear_system_solve", "algebra")
        p(IdentityWorkspace, "dd", "ricci.dd", "ricci",
          self.count_terms_once("ricci.dd_terms"))
        p(IdentityWorkspace, "basis", "ricci.basis", "ricci",
          self.count_terms_once("ricci.basis_terms"))
        p(IdentityWorkspace, "r_commutator", "ricci.rcomm", "ricci")
        p(IdentityWorkspace, "rhs_mixed", "ricci.mixed_rhs", "ricci")
        p(IdentityWorkspace, "lhs", "ricci.lhs", "ricci")
        p(IdentityWorkspace, "rhs", "ricci.rhs", "ricci")
        p(cli, "solve_all_identities", "ricci.solve_all", "ricci")
        p(Poly, "gcd", "ratfunc.gcd", "ratfunc")
        p(cli, "antisym_christoffel_table", "cosmology.christoffel_tables", "cosmology")
        p(cli, "antisym_christoffel_generic", "cosmology.christoffel_tables", "cosmology")
        p(cli, "matter_lagrangian_paths", "cosmology.matter_lagrangian_paths", "cosmology")
        p(cli, "scalar_curvature_family", "cosmology.scalar_curvature_family", "cosmology")
        # scalar_curvature runs twice: on its own and inside the family
        p(cli, "scalar_curvature", "cosmology.scalar_curvature", "cosmology")
        p(cosmology, "scalar_curvature", "cosmology.scalar_curvature", "cosmology")
        p(cli, "energy_momentum", "cosmology.energy_momentum", "cosmology")
        p(cli, "recover_n", "cosmology.recover_n", "cosmology")


# ---------------------------------------------------------------------------
# traced replays of the CLI tasks
# ---------------------------------------------------------------------------


def _sample(cli_seed, label, dim, degree):
    rng = derive_rng(cli_seed, label)
    L = sampling.random_even_connection(rng, dim, degree)
    a = sampling.random_tensor_field(rng, dim, (1, 1), degree)
    return rng, IdentityWorkspace(a, L)


def _build(ws):
    """The workspace's public calls in the order the CLI task needs them."""
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            ws.dd(p, q)
    ws.r_commutator()
    for k in range(1, 18):
        ws.basis(k)


def replay_catalogue(tracer, w, cli_seed):
    """Traced ``verify-ricci --scope catalogue``; returns (verdicts, first
    workspace)."""
    verdicts, first = [], None
    for idx in range(w.instances):
        _, ws = _sample(cli_seed, f"ricci:{w.dimension}:{idx}", w.dimension, w.degree)
        first = first or ws
        _build(ws)
        for ic in ricci.identity_catalogue():
            with tracer.span("ricci.check", "ricci"):
                verdicts.append(ws.residual(ic).is_zero())
    return verdicts, first


def replay_mixed(tracer, w, cli_seed):
    """Traced ``verify-ricci --scope mixed``: 5 random weightings per member
    and task, as the CLI task draws them."""
    verdicts, first = [], None
    for idx in range(max(1, w.instances // 4)):
        rng, ws = _sample(cli_seed, f"mixed:{w.dimension}:{idx}", w.dimension, w.degree)
        first = first or ws
        _build(ws)
        for ic in ricci.identity_catalogue():
            ok = True
            for _ in range(5):
                weights = MixWeights.random(rng)
                with tracer.span("ricci.check", "ricci"):
                    ok = (ws.lhs(ic.pqrs) - ws.rhs_mixed(ic, weights)).is_zero() and ok
            verdicts.append(ok)
    return verdicts, first


REPLAYS = {"catalogue": replay_catalogue, "mixed": replay_mixed}


def run_command(w, config):
    if w.cosmology:
        return cli.cmd_cosmology(config)
    return cli.cmd_verify_ricci(config, w.command[-1])


def _in_process(w, config, workers):
    """(seconds, report) of the workload's cmd_* call at a worker count."""
    saved = os.environ.get(cli.WORKERS_ENV)
    os.environ[cli.WORKERS_ENV] = str(workers)
    try:
        t0 = time.perf_counter()
        report = run_command(w, config)
        return time.perf_counter() - t0, report
    finally:
        if saved is None:
            del os.environ[cli.WORKERS_ENV]
        else:
            os.environ[cli.WORKERS_ENV] = saved


def _median_time(fn, rounds=5, min_seconds=0.05):
    """Median over rounds of the mean time of one ``fn()`` call."""
    per_call = []
    for _ in range(rounds):
        n, t0 = 0, time.perf_counter()
        while True:
            fn()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        per_call.append(elapsed / n)
    return statistics.median(per_call)


def microbenchmarks(seed: int) -> dict:
    """Kernel costs at the workloads' operand sizes, from seeded operands."""
    rng = random.Random(f"microbench:{seed}")
    # catalogue sizes: dim 3, degree-2 factors times degree-3 factors
    f2 = [random_scalar_field(rng, 3, 2) for _ in range(6)]
    f3 = [random_scalar_field(rng, 3, 3) for _ in range(6)]
    f4 = [random_scalar_field(rng, 3, 4) for _ in range(6)]
    pairs = sum(len(a.terms()) * len(b.terms()) for a in f2 for b in f3)
    added = sum(len(a.terms()) + len(b.terms()) for a in f4 for b in f4)
    weights = [Fraction(rng.choice((-6, -5, -3, -1, 1, 2, 5)), rng.randint(2, 4)) for _ in f3]
    scaled = sum(len(f.terms()) for f in f3)

    def mul():
        for a in f2:
            for b in f3:
                a * b

    def add():
        for a in f4:
            for b in f4:
                a + b

    def scale():
        for f, c in zip(f3, weights):
            f.scale(c)

    # cosmology sizes: quotients of the workload's scale factors
    block = cosmology_block(seed, WORKLOADS["cosmology"].degree)
    polys = [Poly([Fraction(c) for c in block[k]]) for k in ("s1", "s2", "s3", "s4", "n")]
    rfs = [RationalFunction(p.derivative(), q) for p, q in zip(polys, polys[1:] + polys[:1])]

    def rf_mul():
        for x in rfs:
            for y in rfs:
                x * y

    def rf_add():
        for x in rfs:
            for y in rfs:
                x + y

    n_rf = len(rfs) ** 2
    return {
        "algebra.mul_ns_per_pair": _median_time(mul) / pairs * 1e9,
        "algebra.add_ns_per_term": _median_time(add) / added * 1e9,
        "algebra.scale_frac_ns_per_term": _median_time(scale) / scaled * 1e9,
        "ratfunc.mul_us": _median_time(rf_mul) / n_rf * 1e6,
        "ratfunc.add_us": _median_time(rf_add) / n_rf * 1e6,
    }


def traced_run(w, cli_seed: int):
    """One traced run of a workload.  Returns (attempted, failed, metrics).

    Order: the cmd_* call in-process and untraced at 2 workers and at 1
    (fan-out speed-up, identical report bytes); for catalogue and mixed an
    untraced replay; the traced replay (or, for solve and cosmology, the
    traced cmd_* call); the negative controls on the replay's workspace; the
    microbenchmarks.  The tracing overhead compares the traced replay with
    the untraced one, or the traced cmd_* call with the serial one."""
    config = cli.RunConfig.from_dict(w.config(cli_seed))
    attempted = failed = 0

    t_parallel, report_parallel = _in_process(w, config, 2)
    t_serial, report_serial = _in_process(w, config, 1)
    report = report_serial if w.workers == 1 else report_parallel
    rendered = report.render().encode()
    for r in (report_serial.render().encode(), report_parallel.render().encode()):
        a, f = judge(w.name, r)
        attempted, failed = attempted + a + 1, failed + f + (r != rendered)
    render_s = _median_time(report.render)

    replay = REPLAYS.get(w.command[-1])
    if replay is None:
        untraced_s = t_serial
    else:
        # the same replay with no function wrapped: the base of the overhead
        t0 = time.perf_counter()
        replay(Tracer(), w, cli_seed)
        untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.task", "cli"):
            t0 = tracer.now()
            if replay is not None:
                verdicts, ws = replay(tracer, w, cli_seed)
                traced_report = report
            else:
                ws, traced_report = None, run_command(w, config)
            with tracer.span("report.render", "report"):
                traced_bytes = traced_report.render().encode()
            traced_s = tracer.now() - t0
    finally:
        tracer.restore()
    if replay is not None:
        a, f = len(verdicts), verdicts.count(False)
    else:
        a, f = judge(w.name, traced_bytes)
    attempted, failed = attempted + a, failed + f
    if ws is not None:
        a, f = negative_controls(ws, cli_seed)
        attempted, failed = attempted + a, failed + f

    inc = tracer.inclusive
    sampled = tracer.calls["sampling.connection"]
    solve_all = "ricci.solve_all" in tracer.first_start
    first_solve = tracer.first_start.get("algebra.linear_system_solve")
    metrics = {
        "sampling.instance_s": tracer.self_time["sampling"] / sampled if sampled else 0.0,
        "connection.covariant_derivative_s": inc["connection.covariant_derivative"],
        "connection.calls": tracer.calls["connection.covariant_derivative"],
        "curvature.curvature_R_s": inc["curvature.curvature_R"],
        "ricci.dd_s": inc["ricci.dd"],
        "ricci.basis_s": inc["ricci.basis"],
        "ricci.rcomm_s": inc["ricci.rcomm"],
        "ricci.check_s": inc["ricci.check"],
        "ricci.mixed_rhs_s": inc["ricci.mixed_rhs"],
        "ricci.solve_feed_s": (
            first_solve - tracer.first_start["ricci.solve_all"]
            if solve_all and first_solve is not None else 0.0
        ),
        "ricci.solve_verify_s": (
            tracer.last_end["ricci.solve_all"] - tracer.last_end["algebra.linear_system_solve"]
            if solve_all and first_solve is not None else 0.0
        ),
        "ricci.dd_terms": tracer.counts["ricci.dd_terms"],
        "ricci.basis_terms": tracer.counts["ricci.basis_terms"],
        "algebra.linear_system_rows": tracer.calls["algebra.linear_system_add_row"],
        "algebra.linear_system_add_row_s": inc["algebra.linear_system_add_row"],
        "algebra.linear_system_solve_s": inc["algebra.linear_system_solve"],
        "algebra.matrix_rank_s": inc["algebra.matrix_rank"],
        "ratfunc.gcd_calls": tracer.calls["ratfunc.gcd"],
        "cosmology.scalar_curvature_s": inc["cosmology.scalar_curvature"],
        "cosmology.scalar_curvature_family_s": inc["cosmology.scalar_curvature_family"],
        "cosmology.energy_momentum_s": inc["cosmology.energy_momentum"],
        "cosmology.matter_lagrangian_paths_s": inc["cosmology.matter_lagrangian_paths"],
        "cosmology.christoffel_tables_s": inc["cosmology.christoffel_tables"],
        "cosmology.recover_n_s": inc["cosmology.recover_n"],
        "report.render_s": render_s,
        "report.bytes": len(rendered),
        "cli.in_process_s": t_serial if w.workers == 1 else t_parallel,
        "cli.fanout_speedup": t_serial / t_parallel,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        **{f"{layer}.self_s": tracer.self_time[layer] for layer in LAYERS},
    }
    metrics.update(microbenchmarks(cli_seed))
    return attempted, failed, metrics
