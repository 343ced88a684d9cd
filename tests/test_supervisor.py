"""Supervised pool and journaled sweep: crash, chaos and resume semantics."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.core.config import baseline_config, bitslice_config
from repro.experiments import runner, supervisor
from repro.experiments.journal import DONE, PENDING, SweepJournal
from repro.experiments.supervisor import (
    PoolTask,
    SupervisedPool,
    SupervisorPolicy,
    run_sweep,
)
from repro.harness.faults import ProcessFaultPlan
from repro.obs import guestprof
from repro.timing.sampling import SamplingPlan
from repro.timing.simulator import simulate

N = 1_200
WARMUP = 200

#: Pool tests use trivial executors; the runner state tuple is not
#: needed, but building it is harmless and exercises the snapshot.
FAST = SupervisorPolicy(max_cell_retries=0, backoff=0.0)


def _tasks(fn, payloads, max_retries=0):
    return [
        PoolTask(id=str(i), fn=f"tests._supervisor_tasks:{fn}", payload=p,
                 max_retries=max_retries)
        for i, p in enumerate(payloads)
    ]


def _no_children(timeout=10.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not multiprocessing.active_children()


# ----------------------------------------------------------------- basics

def test_pool_runs_tasks_and_returns_values():
    tasks = _tasks("echo", [("a", 1), ("b", 2), ("c", 3)])
    with SupervisedPool(2, policy=FAST) as pool:
        outcomes = pool.run(tasks)
    assert set(outcomes) == {"0", "1", "2"}
    assert all(o.ok and o.attempts == 1 for o in outcomes.values())
    assert outcomes["1"].value == ("b", 2)
    assert _no_children()


def test_executor_exception_becomes_failed_outcome():
    with SupervisedPool(1, policy=FAST) as pool:
        outcomes = pool.run(_tasks("boom", [("x",), ("y",)]))
    for key, payload in (("0", "x"), ("1", "y")):
        assert not outcomes[key].ok
        assert outcomes[key].error == "ValueError"
        assert outcomes[key].message == f"boom:{payload}"
        assert not outcomes[key].quarantined  # no retries were allowed


# ---------------------------------------------------- death and respawning

def test_sigkilled_worker_is_detected_and_cell_fails_cleanly():
    """A SIGKILL mid-cell must surface as WorkerCrash, not a hang."""
    events = []
    tasks = _tasks("die", [(1,)]) + _tasks("echo", [("alive",)])
    tasks[1].id = "survivor"
    with SupervisedPool(2, policy=FAST) as pool:
        outcomes = pool.run(tasks, on_event=lambda k, t, i: events.append(k))
    assert outcomes["0"].error == "WorkerCrash"
    assert outcomes["survivor"].ok and outcomes["survivor"].value == ("alive",)
    assert "respawn" in events
    assert _no_children()


def test_poison_cell_retries_consume_budget_then_quarantine(tmp_path):
    """A cell that kills every worker quarantines after its retries."""
    tasks = _tasks("flaky", [(str(tmp_path), "p", 99)], max_retries=2)
    with SupervisedPool(1, policy=SupervisorPolicy(max_cell_retries=2, backoff=0.0)) as pool:
        outcomes = pool.run(tasks)
    out = outcomes["0"]
    assert not out.ok and out.error == "WorkerCrash"
    assert out.attempts == 3  # first try + 2 retries
    assert out.quarantined
    assert len(list(tmp_path.glob("p.attempt.*"))) == 3


def test_flaky_cell_recovers_within_retry_budget(tmp_path):
    """Retries re-dispatch on a respawned worker and can succeed."""
    tasks = _tasks("flaky", [(str(tmp_path), "f", 2)], max_retries=3)
    events = []
    with SupervisedPool(1, policy=SupervisorPolicy(max_cell_retries=3, backoff=0.0)) as pool:
        outcomes = pool.run(tasks, on_event=lambda k, t, i: events.append(k))
    out = outcomes["0"]
    assert out.ok and out.value == ("ok", "f", 3)
    assert out.attempts == 3
    assert events.count("retry") == 2 and events.count("respawn") >= 2


def test_frozen_worker_is_killed_when_its_heartbeat_goes_silent(tmp_path, monkeypatch):
    """A worker SIGSTOPped mid-task never closes its pipe; its silent
    heartbeat is what gets it killed, respawned and its task retried."""
    monkeypatch.setattr(supervisor, "HEARTBEAT_TIMEOUT", 1.0)
    events = []
    with SupervisedPool(1, policy=SupervisorPolicy(max_cell_retries=1, backoff=0.0)) as pool:
        outcomes = pool.run(
            _tasks("freeze", [(str(tmp_path),)], max_retries=1),
            on_event=lambda k, t, i: events.append((k, i)),
        )
    out = outcomes["0"]
    assert out.ok and out.value == "thawed" and out.attempts == 2
    reasons = [info for kind, info in events if kind == "respawn"]
    assert len(reasons) == 1 and "heartbeat" in reasons[0]
    assert _no_children()

# ------------------------------------------------------ corrupt transport

def test_corrupted_result_is_rejected_by_checksum():
    plan = ProcessFaultPlan(seed=1, corrupt_rate=1.0)
    events = []
    with SupervisedPool(1, policy=FAST, fault_plan=plan) as pool:
        outcomes = pool.run(
            _tasks("echo", [("payload",)]),
            on_event=lambda k, t, i: events.append(k),
        )
    out = outcomes["0"]
    assert not out.ok and out.error == "ResultCorruption"
    assert "corrupt" in events


# -------------------------------------------------- interruption handling

def test_drain_raises_keyboard_interrupt_and_reaps_workers():
    events = []
    pool = SupervisedPool(1, policy=FAST)
    pool._signal_drain(None, None)  # what the SIGINT/SIGTERM handler does
    with pool:
        with pytest.raises(KeyboardInterrupt):
            pool.run(_tasks("echo", [("x",)]), on_event=lambda k, t, i: events.append(k))
    assert "drain" in events
    assert _no_children()


def test_no_orphan_workers_when_caller_raises_mid_run():
    """Regression: an exception mid-sweep must never leak live workers."""

    class CallerBug(Exception):
        pass

    def on_event(kind, task, info):
        if kind == "done":
            raise CallerBug()

    with pytest.raises(CallerBug):
        with SupervisedPool(2, policy=FAST) as pool:
            pool.run(_tasks("echo", [(i,) for i in range(4)]), on_event=on_event)
    assert _no_children()


# ------------------------------------------------------------- backoff

def test_retry_delay_is_seeded_and_exponential():
    policy = SupervisorPolicy(backoff=0.25)
    d1, d2, d3 = (policy.retry_delay("cell", a) for a in (1, 2, 3))
    assert policy.retry_delay("cell", 1) == d1  # deterministic
    assert 0.25 <= d1 <= 0.25 * 1.25
    assert 0.50 <= d2 <= 0.50 * 1.25
    assert 1.00 <= d3 <= 1.00 * 1.25
    assert policy.retry_delay("other-cell", 1) != d1  # decorrelated
    assert SupervisorPolicy(backoff=0.0).retry_delay("cell", 1) == 0.0


# -------------------------------------------------------- fault plan

def test_fault_plan_is_deterministic_and_rerolls_per_attempt():
    plan = ProcessFaultPlan(seed=3, kill_rate=0.5)
    decisions = [plan.decide("cell", a) for a in range(1, 30)]
    assert decisions == [plan.decide("cell", a) for a in range(1, 30)]
    assert "kill" in decisions and None in decisions  # retries re-roll
    assert ProcessFaultPlan(seed=3).decide("cell", 1) is None  # rates 0
    off, mask = plan.corrupt_byte("cell", 1, 100)
    assert 0 <= off < 100 and mask in {1 << b for b in range(8)}
    assert ProcessFaultPlan.from_spec(plan.to_spec()) == plan


# ---------------------------------------------------- the sweep orchestrator

def test_run_sweep_chaos_is_bit_identical_to_clean_run(tmp_path):
    """The headline invariant: seeded worker kills and corruptions must
    not change a single counter of the merged results."""
    names, configs = ["li"], [baseline_config(), bitslice_config(2)]
    grid, failures, degraded, report = run_sweep(
        names, configs, N, WARMUP, jobs=2,
        journal_path=tmp_path / "sweep.journal.json",
        policy=SupervisorPolicy(max_cell_retries=10, backoff=0.01),
        fault_plan=ProcessFaultPlan(seed=11, kill_rate=0.4, corrupt_rate=0.3),
    )
    assert not failures and not degraded
    assert report.respawns + report.corrupt_results > 0  # chaos actually hit
    trace = runner.collect_trace("li", N + WARMUP)
    for config in configs:
        expected = simulate(config, trace, warmup=WARMUP)
        assert grid["li"][config.name].to_dict() == expected.to_dict()


def test_run_sweep_resume_replays_without_reexecution(tmp_path):
    names, configs = ["li"], [baseline_config(), bitslice_config(2)]
    journal_path = tmp_path / "sweep.journal.json"
    args = dict(jobs=1, journal_path=journal_path, fault_plan=ProcessFaultPlan())
    grid1, _, _, report1 = run_sweep(names, configs, N, WARMUP, **args)
    assert report1.cells_executed == 2 and report1.resume_hits == 0

    grid2, _, _, report2 = run_sweep(names, configs, N, WARMUP, resume=True, **args)
    assert report2.cells_executed == 0 and report2.resume_hits == 2
    assert report2.resume_hit_rate == 1.0
    for config in configs:
        assert grid2["li"][config.name].to_dict() == grid1["li"][config.name].to_dict()


def test_run_sweep_resume_reexecutes_only_missing_cells(tmp_path):
    """Partial journals (as a killed orchestrator leaves them) resume
    with exactly the unfinished cells re-dispatched."""
    names, configs = ["li"], [baseline_config(), bitslice_config(2)]
    journal_path = tmp_path / "sweep.journal.json"
    args = dict(jobs=1, journal_path=journal_path, fault_plan=ProcessFaultPlan())
    grid1, _, _, _ = run_sweep(names, configs, N, WARMUP, **args)

    # Surgically "unfinish" one cell, as a crash between result store
    # and completion would: demote it and remove its stored result.
    journal = SweepJournal.load(journal_path)
    victim = journal.cells[1]
    journal.mark_retry(victim.key, "simulated crash")
    journal.result_path(victim.key).unlink()

    grid2, _, _, report = run_sweep(names, configs, N, WARMUP, resume=True, **args)
    assert report.resume_hits == 1 and report.cells_executed == 1
    assert SweepJournal.load(journal_path).cell(victim.key).state == DONE
    for config in configs:
        assert grid2["li"][config.name].to_dict() == grid1["li"][config.name].to_dict()


def test_run_sweep_rejects_mismatched_journal(tmp_path):
    from repro.harness.errors import JournalCorruption

    journal_path = tmp_path / "sweep.journal.json"
    run_sweep(["li"], [baseline_config()], N, WARMUP, jobs=1,
              journal_path=journal_path, fault_plan=ProcessFaultPlan())
    with pytest.raises(JournalCorruption, match="does not match"):
        run_sweep(["li"], [bitslice_config(2)], N, WARMUP, jobs=1,
                  journal_path=journal_path, resume=True,
                  fault_plan=ProcessFaultPlan())


def test_run_sweep_quarantines_poison_benchmark(tmp_path):
    """An always-failing cell ends up quarantined, not looping forever."""
    grid, failures, degraded, report = run_sweep(
        ["nosuchbench"], [baseline_config()], N, WARMUP, jobs=1,
        journal_path=tmp_path / "j.json",
        policy=SupervisorPolicy(max_cell_retries=1, backoff=0.0),
        fault_plan=ProcessFaultPlan(),
        keep_going=True,
    )
    assert grid == {}
    (record,) = failures
    assert record.benchmark == "nosuchbench" and record.stage == "build"


def test_run_sweep_without_journal_matches_simulation():
    names, configs = ["li"], [baseline_config()]
    grid, failures, degraded, report = run_sweep(
        names, configs, N, WARMUP, jobs=1, fault_plan=ProcessFaultPlan()
    )
    assert not failures
    expected = simulate(configs[0], runner.collect_trace("li", N + WARMUP), warmup=WARMUP)
    assert grid["li"]["ideal"].to_dict() == expected.to_dict()
    assert supervisor.last_report() is report and report.cells_executed == 1


# ------------------------------------------------------- grouped cells

#: A cheap sampled plan for bzip (two windows at 4,000 instructions).
SAMPLED = dict(sampling=SamplingPlan(window=300, warmup=100, interval=2000))
SAMPLED_N = 4_000


@pytest.fixture
def pool_tasks(monkeypatch):
    """Records the cell count of every task handed to a pool."""
    runs = []
    real = SupervisedPool.run

    def run(self, tasks, on_event=None):
        tasks = list(tasks)
        runs.append([len(task.payload[1]) for task in tasks])
        return real(self, tasks, on_event=on_event)

    monkeypatch.setattr(SupervisedPool, "run", run)
    return runs


def _cells(journal_path):
    journal = SweepJournal.load(journal_path)
    return {
        cell.key: (cell.benchmark, cell.config, cell.state,
                   journal.load_result(cell.key).to_dict())
        for cell in journal.cells
    }


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_grouped_sweep_matches_one_task_per_cell(tmp_path, pool_tasks, sampled):
    """One task runs a benchmark's configs, with one worker or two; its
    cells have the keys, states and results of one-config sweeps."""
    extra = SAMPLED if sampled else {}
    n = SAMPLED_N if sampled else N
    configs = [baseline_config(), bitslice_config(2)]
    grouped = []
    for jobs in (1, 2):
        journal_path = tmp_path / f"jobs{jobs}.journal.json"
        grid, failures, _, report = run_sweep(
            ["bzip"], configs, n, WARMUP, jobs=jobs, journal_path=journal_path,
            fault_plan=ProcessFaultPlan(), **extra,
        )
        assert not failures and report.cells_executed == 2
        grouped.append(_cells(journal_path))
    alone = {}
    for config in configs:
        journal_path = tmp_path / f"{config.name}.journal.json"
        run_sweep(["bzip"], [config], n, WARMUP, jobs=1, journal_path=journal_path,
                  fault_plan=ProcessFaultPlan(), **extra)
        alone.update(_cells(journal_path))
    assert pool_tasks == [[2], [2], [1], [1]]
    assert grouped[0] == grouped[1] == alone
    if not sampled:
        trace = runner.collect_trace("bzip", N + WARMUP)
        for config in configs:
            assert grid["bzip"][config.name].to_dict() == simulate(
                config, trace, warmup=WARMUP
            ).to_dict()


def test_grouped_resume_reexecutes_only_the_missing_member(tmp_path, pool_tasks):
    configs = [baseline_config(), bitslice_config(4)]
    journal_path = tmp_path / "sweep.journal.json"
    args = dict(jobs=1, journal_path=journal_path, fault_plan=ProcessFaultPlan(), **SAMPLED)
    grid1, _, _, _ = run_sweep(["bzip"], configs, SAMPLED_N, 0, **args)
    journal = SweepJournal.load(journal_path)
    victim = journal.cells[1]
    journal.mark_retry(victim.key, "simulated crash")
    journal.result_path(victim.key).unlink()

    grid2, _, _, report = run_sweep(["bzip"], configs, SAMPLED_N, 0, resume=True, **args)
    assert pool_tasks == [[2], [1]]
    assert report.resume_hits == 1 and report.cells_executed == 1
    assert SweepJournal.load(journal_path).cell(victim.key).state == DONE
    for config in configs:
        assert grid2["bzip"][config.name].to_dict() == grid1["bzip"][config.name].to_dict()


def test_killed_group_fails_each_cell_and_resumes_to_identical_output(tmp_path):
    """Every attempt of the group's task is SIGKILLed: each of its cells
    fails on its own record; a resume runs the group again and matches
    a clean sweep cell for cell."""
    configs = [baseline_config(), bitslice_config(4)]
    clean, _, _, _ = run_sweep(["bzip"], configs, SAMPLED_N, 0, jobs=1,
                               fault_plan=ProcessFaultPlan(), **SAMPLED)
    journal_path = tmp_path / "sweep.journal.json"
    grid, failures, _, report = run_sweep(
        ["bzip"], configs, SAMPLED_N, 0, jobs=1, journal_path=journal_path,
        policy=SupervisorPolicy(max_cell_retries=1, backoff=0.0),
        fault_plan=ProcessFaultPlan(seed=3, kill_rate=1.0), keep_going=True, **SAMPLED,
    )
    assert grid == {} and report.respawns == 2 and report.quarantined == 2
    assert [(f.stage, f.error) for f in failures] == [
        ("simulate[ideal]", "WorkerCrash"), ("simulate[bitslice-4]", "WorkerCrash"),
    ]
    resumed, failures, _, report = run_sweep(
        ["bzip"], configs, SAMPLED_N, 0, jobs=1, journal_path=journal_path, resume=True,
        fault_plan=ProcessFaultPlan(), **SAMPLED,
    )
    assert not failures and report.cells_executed == 2
    for config in configs:
        assert resumed["bzip"][config.name].to_dict() == clean["bzip"][config.name].to_dict()


def test_grouped_sampled_sweep_guest_profile_matches_per_cell_tasks(pool_tasks):
    """Guest profiles merge to the same profile whether a
    benchmark's cells run as one task or one sweep each."""
    configs = [baseline_config(), bitslice_config(4)]
    profiles = []
    for sweeps in ([configs], [[config] for config in configs]):
        collector = guestprof.GuestProfileCollector()
        with guestprof.redirected_guest_profile(collector):
            for sweep in sweeps:
                _, failures, _, _ = run_sweep(["bzip"], sweep, SAMPLED_N, 0, jobs=1,
                                              fault_plan=ProcessFaultPlan(), **SAMPLED)
                assert not failures
        profiles.append(collector.to_dict())
    assert pool_tasks == [[2], [1], [1]]
    assert profiles[0] == profiles[1]
    assert sum(b["retired"] for b in profiles[0]["benchmarks"].values()) == 2 * 2 * 400


def test_sweep_worker_imports_what_a_sampled_cell_runs():
    """A worker that ran a sampled cell has imported neither numpy nor
    any module of the experiment layer."""
    cell = ("gzip", [baseline_config()], SAMPLED_N, 0, "ref", SAMPLED["sampling"])
    tasks = [PoolTask(id="cell", fn="repro.harness.worker:execute_cells", payload=cell),
             PoolTask(id="probe", fn="tests._supervisor_tasks:imports", payload=())]
    with SupervisedPool(1, policy=FAST) as pool:
        outcomes = pool.run(tasks)
    assert outcomes["cell"].ok, outcomes["cell"].message
    assert outcomes["probe"].value == (False, [])


# ----------------------------------------------- parallel layer regression

def test_parallel_worker_crash_is_isolated():
    """A sweep on the supervised pool: a worker SIGKILLed mid-cell fails
    that cell as a FailureRecord while the other cell completes (the
    bare Pool would hang or propagate uncatchably)."""
    from repro.experiments.journal import cell_key
    from repro.isa.assembler import program_digest
    from repro.workloads import get_workload

    config = baseline_config()
    # One task per benchmark; a one-config task's id is its cell key.
    li, mcf = (
        cell_key(name, config, N, WARMUP, None, None, "ref",
                 program_digest(get_workload(name).build(iters=None, profile="ref")))
        for name in ("li", "mcf")
    )
    plan = next(
        plan for plan in (ProcessFaultPlan(seed=s, kill_rate=0.5) for s in range(100))
        if plan.decide(li, 1) == "kill" and plan.decide(mcf, 1) is None
    )
    grid, failures, _, _ = run_sweep(
        ["li", "mcf"], [config], N, WARMUP, jobs=2, keep_going=True,
        policy=SupervisorPolicy(max_cell_retries=0, backoff=0.0), fault_plan=plan,
    )
    (failure,) = failures
    assert (failure.benchmark, failure.stage, failure.error) == (
        "li", "simulate[ideal]", "WorkerCrash"
    )
    assert list(grid) == ["mcf"] and grid["mcf"]["ideal"].instructions == N
    assert _no_children()
