"""Tests for the training engine: loop, callbacks, executors."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.history import IterationRecord, TrainingHistory
from repro.engine import (
    Callback,
    CheckpointCallback,
    ConvergenceCallback,
    EngineState,
    HistoryCallback,
    ProcessExecutor,
    SerialExecutor,
    TimingCallback,
    TrainingEngine,
    get_executor,
    resolve_n_jobs,
)
from repro.engine import executor as executor_module
from repro.engine.executor import executor_map, is_picklable, pin_blas_threads
from repro.utils.validation import check_n_jobs


def _record(ctx, acc=1.0):
    return IterationRecord(iteration=ctx.iteration, train_accuracy=acc)


class TestTrainingEngine:
    def test_runs_budget(self):
        seen = []
        engine = TrainingEngine(4)
        state = engine.run(lambda ctx: (seen.append(ctx.iteration), _record(ctx))[1])
        assert seen == [0, 1, 2, 3]
        assert state.n_iterations == 4
        assert state.max_iterations == 4

    def test_is_last_flag(self):
        flags = []
        TrainingEngine(3).run(lambda ctx: (flags.append(ctx.is_last), _record(ctx))[1])
        assert flags == [False, False, True]

    def test_stop_via_callback(self):
        class StopAfterTwo(Callback):
            def on_iteration_end(self, state, record):
                if state.n_iterations == 2:
                    state.stop = True

        state = TrainingEngine(10, callbacks=[StopAfterTwo()]).run(_record)
        assert state.n_iterations == 2

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            TrainingEngine(0)

    def test_rejects_non_callback(self):
        with pytest.raises(TypeError, match="Callback"):
            TrainingEngine(2, callbacks=[object()])

    def test_rejects_non_record_step(self):
        with pytest.raises(TypeError, match="IterationRecord"):
            TrainingEngine(2).run(lambda ctx: 0.5)

    def test_reused_state_resets_run_flags(self):
        # Continued training may hand the previous run's state back in;
        # stale stop/converged/failed flags must not truncate the new
        # run or mislabel it as crashed.
        stale = EngineState(stop=True, converged=True, failed=True, n_iterations=7)
        seen_converged = []

        def step(ctx):
            seen_converged.append(ctx.converged)
            return _record(ctx)

        state = TrainingEngine(3).run(step, state=stale)
        assert state.n_iterations == 3
        assert seen_converged == [False, False, False]
        assert not state.stop and not state.failed

    def test_on_fit_end_runs_when_step_raises(self):
        # Teardown callbacks must fire even when the step function blows
        # up mid-run, and they must see state.failed so they can release
        # resources without treating the run as complete.
        class Recorder(Callback):
            def __init__(self):
                self.fit_ended = False
                self.saw_failed = None

            def on_fit_end(self, state):
                self.fit_ended = True
                self.saw_failed = state.failed

        recorder = Recorder()

        def exploding_step(ctx):
            if ctx.iteration == 1:
                raise RuntimeError("step failure")
            return _record(ctx)

        engine = TrainingEngine(4, callbacks=[recorder])
        with pytest.raises(RuntimeError, match="step failure"):
            engine.run(exploding_step)
        assert recorder.fit_ended
        assert recorder.saw_failed is True

    def test_no_final_checkpoint_on_step_exception(self):
        # A raising step leaves the model half-mutated; the checkpoint
        # callback must not snapshot that state as the last iteration.
        checkpoints = CheckpointCallback(lambda: "snap", every=5)

        def exploding_step(ctx):
            if ctx.iteration == 2:
                raise RuntimeError("boom")
            return _record(ctx)

        engine = TrainingEngine(4, callbacks=[checkpoints])
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(exploding_step)
        assert checkpoints.checkpoints == []

    def test_on_fit_end_runs_when_on_fit_begin_raises(self):
        # A callback whose setup completed gets its teardown even when a
        # later callback's on_fit_begin raises.
        class Resource(Callback):
            def __init__(self):
                self.open = False

            def on_fit_begin(self, state):
                self.open = True

            def on_fit_end(self, state):
                self.open = False

        class Broken(Callback):
            def on_fit_begin(self, state):
                raise RuntimeError("setup failure")

        resource = Resource()
        engine = TrainingEngine(3, callbacks=[resource, Broken()])
        with pytest.raises(RuntimeError, match="setup failure"):
            engine.run(_record)
        assert not resource.open

    def test_callback_order(self):
        calls = []

        class Tracer(Callback):
            def on_fit_begin(self, state):
                calls.append("begin")

            def on_iteration_begin(self, state):
                calls.append(f"it{state.iteration}")

            def on_iteration_end(self, state, record):
                calls.append(f"end{state.iteration}")

            def on_fit_end(self, state):
                calls.append("done")

        TrainingEngine(2, callbacks=[Tracer()]).run(_record)
        assert calls == ["begin", "it0", "end0", "it1", "end1", "done"]


class TestHistoryCallback:
    def test_appends_and_publishes(self):
        cb = HistoryCallback()
        state = TrainingEngine(3, callbacks=[cb]).run(_record)
        assert state.history is cb.history
        assert len(cb.history) == 3
        assert cb.history.accuracies == [1.0, 1.0, 1.0]

    def test_existing_history_reused(self):
        history = TrainingHistory()
        TrainingEngine(2, callbacks=[HistoryCallback(history)]).run(_record)
        assert len(history) == 2


class TestConvergenceCallback:
    def test_stops_on_plateau(self):
        accs = iter([0.5, 0.6, 0.605, 0.606, 0.9, 0.9])
        state = TrainingEngine(
            6, callbacks=[ConvergenceCallback(patience=2, tol=0.01)]
        ).run(lambda ctx: _record(ctx, next(accs)))
        assert state.converged and state.stop
        assert state.n_iterations == 4  # matches ConvergenceTracker doctest

    def test_patience_none_never_stops(self):
        state = TrainingEngine(
            5, callbacks=[ConvergenceCallback(patience=None)]
        ).run(lambda ctx: _record(ctx, 0.5))
        assert not state.converged
        assert state.n_iterations == 5


class TestTimingCallback:
    def test_records_per_iteration(self):
        state = TrainingEngine(3, callbacks=[TimingCallback()]).run(_record)
        assert len(state.iteration_seconds) == 3
        assert all(s >= 0 for s in state.iteration_seconds)


class TestCheckpointCallback:
    def test_snapshots_every_k_and_final(self):
        counter = iter(range(100))
        cb = CheckpointCallback(lambda: next(counter), every=2)
        TrainingEngine(5, callbacks=[cb]).run(_record)
        iterations = [it for it, _ in cb.checkpoints]
        assert iterations == [1, 3, 4]  # every 2nd, plus the final state

    def test_rejects_bad_every(self):
        with pytest.raises(ValueError, match="every"):
            CheckpointCallback(lambda: None, every=0)


class TestNJobsResolution:
    def test_serial_specs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_n_jobs(3) == 3

    def test_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    @pytest.mark.parametrize("bad", [0, -2, 1.5])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(bad)

    def test_check_n_jobs_passthrough(self):
        assert check_n_jobs(None) is None
        assert check_n_jobs(-1) == -1
        assert check_n_jobs(4) == 4


#: Runs in a fresh interpreter: pins BLAS, then asks every loaded
#: OpenBLAS for its thread count through its own getter.  A forked child
#: pins too and reports how many threads it is left with.
_BLAS_PROBE = textwrap.dedent("""
    import ctypes, json, os
    import numpy
    from repro.engine.executor import pin_blas_threads

    GETTERS = (
        "openblas_get_num_threads", "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
    )

    def thread_counts():
        counts = {}
        for line in open("/proc/self/maps"):
            fields = line.split(None, 5)
            if len(fields) == 6 and "openblas" in fields[5].lower():
                path = fields[5].strip()
                library = ctypes.CDLL(path)
                for name in GETTERS:
                    getter = getattr(library, name, None)
                    if getter is not None:
                        getter.argtypes = []
                        getter.restype = ctypes.c_int
                        counts[path] = getter()
                        break
        return counts

    before = thread_counts()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        pin_blas_threads()
        os.write(write_end, str(len(os.listdir("/proc/self/task"))).encode())
        os._exit(0)
    os.close(write_end)
    child_threads = int(os.read(read_end, 64))
    os.waitpid(pid, 0)
    pinned = pin_blas_threads()
    print(json.dumps({"before": before, "pinned": pinned,
                      "after": thread_counts(),
                      "child_threads": child_threads}))
""")


class TestPinBlasThreads:
    def test_openblas_reports_one_thread_in_subprocess(self):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps")
        env = {
            key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(executor_module.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if not report["before"]:
            pytest.skip("numpy is not linked against OpenBLAS here")
        assert report["pinned"] is True
        assert set(report["after"].values()) == {1}, report
        # Pinning leaves a forked child no BLAS pool thread spinning.
        assert report["child_threads"] == 1, report

    def test_no_op_without_proc(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(executor_module, "open", no_proc, raising=False)
        assert pin_blas_threads() is False


def _square(x):
    return x * x


def _type_name(x):
    return type(x).__name__


def _raise_type_error(x):
    raise TypeError("task-level failure")


def _apply_factory(factory, _item):
    return factory()


class TestExecutors:
    def test_serial_map_order(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_process_map_order(self):
        with ProcessExecutor(2) as pool:
            assert pool.map(_square, list(range(6))) == [0, 1, 4, 9, 16, 25]

    def test_process_requires_two_workers(self):
        with pytest.raises(ValueError, match="at least 2"):
            ProcessExecutor(1)

    def test_get_executor_types(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        pool = get_executor(2)
        assert isinstance(pool, ProcessExecutor)
        pool.close()

    def test_get_executor_explicit_wins(self):
        serial = SerialExecutor()
        assert get_executor(4, executor=serial) is serial

    def test_empty_map(self):
        with ProcessExecutor(2) as pool:
            assert pool.map(_square, []) == []

    def test_executor_map_serial(self):
        assert executor_map(_square, [2, 3], n_jobs=1) == [4, 9]

    def test_executor_map_parallel(self):
        assert executor_map(_square, [2, 3], n_jobs=2) == [4, 9]

    def test_executor_map_unpicklable_falls_back(self):
        # Local closures cannot cross a process boundary; the map must
        # silently run serial instead of crashing.
        offset = 10
        fn = lambda x: x + offset  # noqa: E731
        assert not is_picklable(fn)
        assert executor_map(fn, [1, 2], n_jobs=2) == [11, 12]

    def test_executor_map_heterogeneous_unpicklable_falls_back(self):
        # The cheap probe only checks the first item; a later unpicklable
        # item raises mid-run from the pool and must still fall back to
        # serial execution rather than surface a transport error.
        import threading

        items = [1, threading.Lock()]
        assert is_picklable(items[0]) and not is_picklable(items[1])
        assert executor_map(_type_name, items, n_jobs=2) == ["int", "lock"]

    def test_partial_probe_skips_arrays_but_catches_lambdas(self):
        # The fn probe must not serialize data arrays bound into a
        # partial (grid/crossval bind whole datasets), yet still detect
        # an unpicklable callable anywhere in the partial.
        from functools import partial

        from repro.engine.executor import _fn_probably_picklable

        data = np.zeros((4, 3))
        assert _fn_probably_picklable(partial(_square, data))
        assert not _fn_probably_picklable(partial(lambda x: x, data))
        assert not _fn_probably_picklable(
            partial(_type_name, lambda: None)  # lambda bound as an arg
        )

    def test_executor_map_partial_bound_lambda_falls_back(self):
        # A partial binding an unpicklable factory (the cross_validate
        # lambda case) must run serially instead of crashing.
        from functools import partial

        fn = partial(_apply_factory, lambda: 7)
        assert executor_map(fn, [0, 1], n_jobs=2) == [7, 7]

    def test_executor_map_task_errors_propagate(self):
        # A TypeError raised by the task itself (picklable inputs) is a
        # real failure, not a transport problem — no serial retry.
        with pytest.raises(TypeError, match="task-level failure"):
            executor_map(_raise_type_error, [1, 2], n_jobs=2)
