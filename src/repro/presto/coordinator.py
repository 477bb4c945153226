"""The coordinator: query planning, split distribution, result accounting.

"A central coordinator node takes charge of parsing queries, formulating
query plans, and distributing tasks to worker nodes" (Section 2.1.1).  The
simulator's unit of work is a :class:`~repro.workload.tpcds.QueryProfile`
(which tables/partitions are scanned, how selectively, and how much compute
follows the scan); the coordinator plans it into splits, schedules them
through a pluggable scheduler, and reports per-query runtime stats.

Execution runs on the cluster's event kernel (:meth:`Coordinator.
run_concurrent_kernel`): each query is a process, each worker a pool of
split executors fed by a FIFO channel, and device and remote I/O queue for
real.  Running one query at a time with one executor per worker (Figure 9's
protocol, :meth:`Coordinator.run_query`) makes a query's scan wall the
largest per-worker busy time; downstream compute (joins, aggregations) is
charged on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.admission.base import AdmissionPolicy
from repro.core.metrics import MetricsRegistry
from repro.errors import SchedulerError
from repro.obs.tracer import current_tracer
from repro.presto.catalog import Catalog
from repro.presto.hashring import ConsistentHashRing
from repro.presto.operators import ScanProfile
from repro.presto.runtime_stats import QueryRuntimeStats, RuntimeStatsAggregator
from repro.presto.scheduler import RandomScheduler, SoftAffinityScheduler
from repro.presto.split import Split, splits_for_file
from repro.presto.worker import Worker
from repro.resilience.health import NodeHealthTracker
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, Timeout, all_of
from repro.ports.rng import RngStream
from repro.presto.query import QueryProfile
from repro.storage.remote import DataSource

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.cluster.membership import ClusterMembership


@dataclass(slots=True)
class QueryResult:
    """Outcome of one query execution.

    ``shed`` marks a query the admission controller rejected outright
    (no execution, no latency recorded); ``degraded`` marks one that ran
    with cluster-wide cache bypass under overload.
    """

    query_id: str
    wall_seconds: float
    stats: QueryRuntimeStats
    shed: bool = False
    degraded: bool = False


@dataclass(slots=True)
class PrestoCluster:
    """A coordinator plus its workers, membership record, and scheduler.

    Build with :meth:`create`, then run queries through
    :attr:`coordinator`.  ``ring`` is the membership's hash ring (kept as
    a field for read-path consumers; mutate membership, never the ring --
    replint CHN001).  ``kernel`` is the event kernel the cluster's devices
    are attached to and its queries run on.
    """

    coordinator: "Coordinator"
    workers: dict[str, Worker]
    ring: ConsistentHashRing
    membership: "ClusterMembership | None" = None
    worker_factory: "Callable[[str], Worker] | None" = None

    @property
    def kernel(self) -> Kernel | None:
        return self.coordinator.kernel

    @classmethod
    def create(
        cls,
        catalog: Catalog,
        source: DataSource,
        *,
        n_workers: int = 4,
        cache_capacity_bytes: int = 512 * 1024 * 1024,
        page_size: int = 1024 * 1024,
        scheduler: str = "soft_affinity",
        max_replicas: int = 2,
        max_splits_per_node: int = 10_000,
        probe_latency: float = 0.0,
        cache_enabled: bool = True,
        metadata_cache_enabled: bool = True,
        admission_factory=None,
        target_split_size: int = 64 * 1024 * 1024,
        clock: SimClock | None = None,
        seed: int = 0,
        health: NodeHealthTracker | None = None,
        virtual_nodes: int = 64,
        offline_timeout: float = 600.0,
    ) -> "PrestoCluster":
        # Runtime import: cluster.membership imports the hash ring from this
        # package, so a module-level import here would be circular.
        from repro.cluster.membership import ClusterMembership

        clock = clock if clock is not None else SimClock()
        membership = ClusterMembership(
            virtual_nodes=virtual_nodes,
            offline_timeout=offline_timeout,
            clock=clock,
        )
        ring = membership.ring

        def worker_factory(name: str) -> Worker:
            admission: AdmissionPolicy | None = (
                admission_factory() if admission_factory is not None else None
            )
            return Worker(
                name,
                source,
                cache_capacity_bytes=cache_capacity_bytes,
                page_size=page_size,
                clock=clock,
                admission=admission,
                cache_enabled=cache_enabled,
                metadata_cache_enabled=metadata_cache_enabled,
            )

        workers: dict[str, Worker] = {}
        for index in range(n_workers):
            name = f"worker-{index}"
            workers[name] = worker_factory(name)
            membership.join(name)
        if scheduler == "soft_affinity":
            sched = SoftAffinityScheduler(
                ring,
                max_replicas=max_replicas,
                max_splits_per_node=max_splits_per_node,
                probe_latency=probe_latency,
                health=health,
            )
        elif scheduler == "random":
            sched = RandomScheduler(RngStream(seed, "scheduler/random"))
        else:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; choose soft_affinity or random"
            )
        coordinator = Coordinator(
            catalog, workers, sched, target_split_size=target_split_size,
            health=health,
        )
        return cls(
            coordinator=coordinator, workers=workers, ring=ring,
            membership=membership, worker_factory=worker_factory,
        ).attach_kernel(Kernel(clock))

    def attach_kernel(self, kernel: Kernel) -> "PrestoCluster":
        """Attach every worker's devices (and the shared source, when it
        supports it) to ``kernel`` and make it the one the coordinator
        runs queries on."""
        self.coordinator.kernel = kernel
        for worker in self.workers.values():
            worker.attach_kernel(kernel)
            # unwrap resilience/data-source layers down to something with
            # its own kernel attachment (e.g. an ObjectStore); sources that
            # model pure link latency need none
            source, seen = worker.source, set()
            while source is not None and id(source) not in seen:
                seen.add(id(source))
                attach = getattr(source, "attach_kernel", None)
                if attach is not None:
                    attach(kernel)
                    break
                source = getattr(source, "inner", None) or getattr(
                    source, "_store", None
                )
        return self


class _ExecutorPool:
    """The live executor fleet of one ``run_concurrent_kernel`` run.

    Owns per-worker split channels, executor processes, and the in-flight
    split accounting the scheduler and admission controller read.
    Membership changes mid-run route through :meth:`ensure` /
    :meth:`retire` (via ``Coordinator.add_worker`` / ``remove_worker``) so
    a joining worker starts consuming splits and a leaving worker's queued
    splits fail over instead of hanging their queries.
    """

    def __init__(self, kernel, concurrency: int, executor_factory) -> None:
        self.kernel = kernel
        self.concurrency = concurrency
        self._factory = executor_factory
        self.channels: dict[str, object] = {}
        self.in_flight: dict[str, int] = {}
        self.executors: list = []
        self._retired: set[str] = set()

    def ensure(self, name: str) -> None:
        """Give ``name`` a channel and executors (idempotent; re-arms a
        previously retired name on rejoin)."""
        if name in self.channels and name not in self._retired:
            return
        if name not in self.channels:
            self.channels[name] = self.kernel.channel(name=f"splits/{name}")
            self.in_flight[name] = 0
        else:
            # rejoining a retired name: clear leftover poison pills
            self.channels[name].drain()
        self._retired.discard(name)
        self.executors.extend(
            self.kernel.spawn(self._factory(name), name=f"executor/{name}/{i}")
            for i in range(self.concurrency)
        )

    def retire(self, name: str) -> None:
        """Fail queued splits over and poison the executors (permanent
        leave).  Queries holding the drained splits resubmit elsewhere."""
        chan = self.channels.get(name)
        if chan is None or name in self._retired:
            return
        self._retired.add(name)
        for task in chan.drain():
            done = task[4]
            self.in_flight[name] -= 1
            done.trigger(
                (name, None,
                 ConnectionError(f"presto worker {name} decommissioned"))
            )
        for __ in range(self.concurrency):
            chan.put(None)

    def occupancy(self) -> int:
        """Queued + executing splits fleet-wide: the backpressure signal."""
        return sum(self.in_flight.values())

    def shutdown(self) -> None:
        """Poison every live executor at end of run."""
        for name, chan in self.channels.items():
            if name in self._retired:
                continue
            for __ in range(self.concurrency):
                chan.put(None)

    def cancel(self) -> None:
        """Cancel every executor still parked or mid-split (a run that
        raised never reaches :meth:`shutdown`)."""
        for proc in self.executors:
            proc.cancel("executor pool cancelled")


class Coordinator:
    """Plans queries into splits and drives worker execution."""

    def __init__(
        self,
        catalog: Catalog,
        workers: dict[str, Worker],
        scheduler,
        *,
        target_split_size: int = 64 * 1024 * 1024,
        health: NodeHealthTracker | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        self.catalog = catalog
        self.workers = dict(workers)
        self.scheduler = scheduler
        self.target_split_size = target_split_size
        self.health = health
        self.metrics = metrics if metrics is not None else MetricsRegistry("coordinator")
        self.aggregator = RuntimeStatsAggregator()
        self.split_failovers = 0
        # set by PrestoCluster.attach_kernel; run_concurrent_kernel's default
        self.kernel: Kernel | None = None
        self._pool: _ExecutorPool | None = None

    # -- membership hooks (called by repro.cluster.lifecycle) ----------------

    def add_worker(self, worker: Worker) -> None:
        """Register a worker; an active kernel run gains its executors."""
        self.workers[worker.name] = worker
        if self._pool is not None:
            self._pool.ensure(worker.name)

    def remove_worker(self, name: str) -> None:
        """Deregister a worker (decommission / offline-timeout expiry);
        queued splits on it fail over to healthy nodes."""
        self.workers.pop(name, None)
        if self._pool is not None:
            self._pool.retire(name)

    def live_occupancy(self) -> int:
        """Fleet-wide in-flight split count of the active kernel run --
        the admission controller's backpressure signal (0 when idle)."""
        return self._pool.occupancy() if self._pool is not None else 0

    # -- planning ------------------------------------------------------------

    def plan(self, query: QueryProfile) -> list[tuple[Split, ScanProfile]]:
        """Expand each table scan into per-file splits."""
        planned: list[tuple[Split, ScanProfile]] = []
        for scan in query.scans:
            table = self.catalog.table(scan.table)
            partitions = scan.resolve_partitions(table)
            for partition_name in partitions:
                partition = table.partitions[partition_name]
                for data_file in partition.files:
                    for split in splits_for_file(
                        data_file,
                        schema=table.schema,
                        table=table.name,
                        partition=partition_name,
                        target_split_size=self.target_split_size,
                    ):
                        planned.append((split, scan.profile))
        return planned

    # -- execution ---------------------------------------------------------------

    def _schedulable_workers(self) -> list[str]:
        """Workers worth sending splits to: online, breaker not open."""
        names = [
            name
            for name, worker in self.workers.items()
            if getattr(worker, "online", True)
        ]
        if self.health is not None:
            healthy = [n for n in names if self.health.is_available(n)]
            if healthy:
                names = healthy
        return names

    def run_query(self, query: QueryProfile) -> QueryResult:
        """One query on an otherwise idle cluster (the Figure 9 protocol):
        the kernel loop with one arrival now and serial workers."""
        return self.run_concurrent_kernel(
            [(self.kernel.clock.now(), query)], worker_concurrency=1
        )[0]

    def run_concurrent_kernel(
        self,
        arrivals: list[tuple[float, QueryProfile]],
        *,
        kernel: Kernel | None = None,
        worker_concurrency: int = 4,
        admission=None,
    ) -> list[QueryResult]:
        """Concurrent execution on an event kernel: queueing is *lived*.

        Each worker runs ``worker_concurrency`` split-executor processes
        fed by a FIFO channel; each query is a process spawned at its
        arrival time that schedules splits against the *live* in-flight
        backlog, submits them, and waits for their completions.  A split
        whose worker crashes mid-flight is rescheduled on the survivors.
        Queue waits, device contention, and hedging all come out of the
        kernel.

        Membership may change mid-run: :meth:`add_worker` /
        :meth:`remove_worker` (driven by
        :class:`~repro.cluster.lifecycle.ClusterLifecycle`) extend or
        retire the executor fleet live, and a retired worker's queued
        splits fail over like a crash.

        ``admission`` (an
        :class:`~repro.cluster.admission.AdmissionController`) gates each
        query at arrival: shed queries return immediately with
        ``shed=True`` (no latency recorded), queued queries charge the
        wait to their ``queueing`` bucket, and degraded queries run with
        cluster-wide cache bypass.

        ``kernel`` defaults to the one :meth:`PrestoCluster.attach_kernel`
        bound (``PrestoCluster.create`` binds one on the cluster's clock).
        Drives ``kernel.run()`` to completion and returns per-query results
        in arrival order.  A run that raises cancels every process it
        spawned, leaving the kernel empty for the next run.
        """
        kernel = kernel if kernel is not None else self.kernel
        if kernel is None:
            raise ValueError("no kernel: attach one with PrestoCluster.attach_kernel")
        if worker_concurrency < 1:
            raise ValueError(
                f"worker_concurrency must be >= 1, got {worker_concurrency}"
            )
        if self._pool is not None:
            raise RuntimeError("a run_concurrent_kernel run is already active")
        tracer = current_tracer()
        probe_latency = getattr(self.scheduler, "probe_latency", 0.0)

        def executor(name: str):
            chan = pool.channels[name]
            while True:
                task = yield chan.get()
                if task is None:
                    return
                split, profile, stats, bypass, done, ctx = task
                # adopt the submitting query's span context so the split's
                # spans land in that query's trace
                tracer.restore_context(ctx)
                # fresh lookup each task: a rejoined name is a new object
                worker = self.workers.get(name)
                try:
                    if worker is None:
                        raise ConnectionError(
                            f"presto worker {name} was removed"
                        )
                    result = yield from worker.execute_split_proc(
                        split, profile, stats, bypass_cache=bypass
                    )
                except ConnectionError as exc:
                    pool.in_flight[name] -= 1
                    done.trigger((name, None, exc))
                else:
                    pool.in_flight[name] -= 1
                    done.trigger((name, result, None))
                finally:
                    tracer.restore_context([])

        pool = _ExecutorPool(kernel, worker_concurrency, executor)

        def query_proc(arrival: float, query: QueryProfile):
            ticket = None
            if admission is not None:
                # the admission verdict is taken at the arrival instant
                ticket = admission.admit()
                if ticket is None:
                    stats = QueryRuntimeStats(query_id=query.query_id)
                    stats.tables = [scan.table for scan in query.scans]
                    return QueryResult(
                        query_id=query.query_id, wall_seconds=0.0,
                        stats=stats, shed=True,
                    )
            try:
                with tracer.span(
                    "query", actor="coordinator",
                    query_id=query.query_id, arrival=arrival,
                ) as qspan:
                    stats = QueryRuntimeStats(query_id=query.query_id)
                    stats.tables = [scan.table for scan in query.scans]
                    scheduling_wall = 0.0
                    if ticket is not None and ticket.queued:
                        admitted_from = kernel.clock.now()
                        yield ticket.request
                        queue_wait = kernel.clock.now() - admitted_from
                        if queue_wait > 0:
                            qspan.charge("queueing", queue_wait)
                            scheduling_wall += queue_wait
                    degraded = ticket.degraded if ticket is not None else False
                    planned = self.plan(query)
                    stats.splits = len(planned)
                    partitions_touched: set[str] = set()
                    ctx = tracer.capture_context()
                    dead: set[str] = set()
                    pending = list(planned)
                    while pending:
                        submitted = []
                        for split, profile in pending:
                            while True:
                                live = {
                                    name: pool.in_flight[name]
                                    for name in self._schedulable_workers()
                                    if name not in dead
                                }
                                if not live:
                                    raise SchedulerError(
                                        "no workers left to run split of "
                                        f"{split.qualified_table}"
                                    )
                                decision = self.scheduler.assign(split, live)
                                probe_cost = (
                                    max(decision.probes - 1, 0) * probe_latency
                                )
                                if probe_cost > 0:
                                    yield Timeout(probe_cost)
                                    qspan.charge("queueing", probe_cost)
                                    scheduling_wall += probe_cost
                                    if decision.worker not in self.workers:
                                        # membership changed while probing:
                                        # place the split again
                                        continue
                                break
                            bypass = decision.bypass_cache or degraded
                            if decision.affinity:
                                stats.affinity_hits += 1
                            if bypass:
                                stats.cache_bypassed_splits += 1
                            done = kernel.event()
                            pool.in_flight[decision.worker] += 1
                            pool.channels[decision.worker].put(
                                (split, profile, stats, bypass, done, ctx)
                            )
                            submitted.append((split, profile, done))
                            partitions_touched.add(
                                f"{split.qualified_table}/{split.partition}"
                            )
                        if submitted:
                            yield all_of(*(done for _, _, done in submitted))
                        pending = []
                        for split, profile, done in submitted:
                            name, result, exc = done.value
                            if exc is not None:
                                self.split_failovers += 1
                                self.metrics.counter("failovers").inc()
                                self.metrics.record_error("execute_split", exc)
                                qspan.event("split_failover", worker=name)
                                if self.health is not None:
                                    self.health.record_failure(name)
                                dead.add(name)
                                pending.append((split, profile))
                            elif self.health is not None:
                                self.health.record_success(name)
                    if query.compute_seconds > 0:
                        yield Timeout(query.compute_seconds)
                    qspan.charge("compute", query.compute_seconds)
                    stats.partitions = sorted(partitions_touched)
                    wall = kernel.clock.now() - arrival
                    stats.input_wall += scheduling_wall
                    stats.total_wall = wall
                    qspan.annotate(
                        "wall",
                        stats.input_wall + stats.compute_wall
                        + query.compute_seconds,
                    )
                    qspan.annotate("makespan", wall)
                    qspan.annotate("splits", stats.splits)
                    self.metrics.histogram("query_wall_seconds").observe(
                        wall, exemplar=qspan.span_id or None
                    )
                    self.aggregator.record(stats)
                    return QueryResult(
                        query_id=query.query_id, wall_seconds=wall,
                        stats=stats, degraded=degraded,
                    )
            finally:
                if ticket is not None:
                    admission.release(ticket)

        def supervisor():
            yield all_of(*query_procs)
            pool.shutdown()

        query_procs: list = []
        supervising = None
        self._pool = pool
        try:
            for name in self.workers:
                pool.ensure(name)
            ordered = sorted(arrivals, key=lambda pair: pair[0])
            query_procs = [
                kernel.spawn_at(
                    arrival, query_proc(arrival, query),
                    name=f"query/{query.query_id}",
                )
                for arrival, query in ordered
            ]
            supervising = kernel.spawn(supervisor())
            kernel.run()
        finally:
            self._pool = None
            # after a raise, the supervisor, queries and executors may still
            # be queued or parked: cancel them so the kernel is reusable
            # (on success every one has finished and cancel is a no-op)
            if supervising is not None:
                supervising.cancel("run_concurrent_kernel aborted")
            for proc in query_procs:
                proc.cancel("run_concurrent_kernel aborted")
            pool.cancel()
        for proc in query_procs:
            if proc.exception is not None:
                raise proc.exception
        return [proc.value for proc in query_procs]

    # -- fleet reporting -----------------------------------------------------------

    def cluster_hit_ratio(self) -> float:
        hits = sum(w.metrics.counter("get_hits").value for w in self.workers.values())
        misses = sum(
            w.metrics.counter("get_misses").value for w in self.workers.values()
        )
        total = hits + misses
        return hits / total if total else 0.0
