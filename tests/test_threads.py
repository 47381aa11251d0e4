"""``split`` runs odd positions on a helper thread and even ones on the
calling thread, and reading its futures in order gives what running the
thunks in turn would.  ``ahead`` gives the results of thunks in order,
running at most ``2 * workers - 1`` past the one the caller holds.  No
other module of the package starts a thread."""
import ast
import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from voxedit import _threads
from voxedit._threads import ahead, helper, split

# long enough for a thread to start on a loaded machine; reached only when a test fails
PATIENCE_S = 30


def fail(k):
    raise ValueError(k)


def results(done) -> list:
    return [d.result() for d in done]


@pytest.mark.parametrize("n", range(6))
def test_results_come_back_in_argument_order(n):
    done = split(*(lambda k=k: k for k in range(n)))
    assert len(done) == n and all(d.done() for d in done)
    assert results(done) == list(range(n))


def test_the_first_failure_in_argument_order_is_raised():
    for failing in itertools.chain.from_iterable(itertools.combinations(range(5), n) for n in range(1, 6)):
        done = split(*(functools.partial(fail, k) if k in failing else (lambda k=k: k) for k in range(5)))
        with pytest.raises(ValueError) as exc:
            results(done)
        assert exc.value.args == (failing[0],), failing


def test_odd_positions_run_on_the_helper():
    def where():
        return threading.get_ident()

    idents = results(split(*[where] * 5))
    assert idents[0] == idents[2] == idents[4] == threading.get_ident()
    assert idents[1] == idents[3] != threading.get_ident()


@pytest.mark.parametrize("first_failure", range(5))
def test_a_side_stops_at_its_first_failure(first_failure):
    ran = []

    def thunk(k):
        ran.append(k)
        if k == first_failure:
            raise ValueError(k)
        return k

    done = split(*(functools.partial(thunk, k) for k in range(5)))
    # the failing thunk's side runs nothing after it; the other side runs all of its thunks
    skipped = set(range(first_failure + 2, 5, 2))
    assert sorted(ran) == [k for k in range(5) if k not in skipped]
    assert [d is None for d in done] == [k in skipped for k in range(5)]
    with pytest.raises(ValueError):
        results(done)


@pytest.mark.parametrize("position", range(4))
def test_an_interrupt_on_either_side_leaves_no_thread(position):
    def interrupt():
        raise KeyboardInterrupt

    baseline = threading.active_count()
    thunks = [lambda: 0] * 4
    thunks[position] = interrupt
    with pytest.raises(KeyboardInterrupt):
        results(split(*thunks))
    assert threading.active_count() == baseline


def test_one_helper_runs_every_call_on_one_thread():
    baseline = threading.active_count()
    with helper() as run:
        idents = {ident for _ in range(4) for ident in results(run(*[threading.get_ident] * 4))[1::2]}
        # a failure in one call leaves the thread for the next
        with pytest.raises(ValueError):
            results(run(lambda: 0, functools.partial(fail, 1)))
        idents |= set(results(run(lambda: 0, threading.get_ident))[1::2])
    assert len(idents) == 1 and threading.get_ident() not in idents
    assert threading.active_count() == baseline


# --- ahead --------------------------------------------------------------------


class Thunks:
    """An iterable of ``n`` thunks (``None`` for no end) that records how
    many were taken and sets ``started[k]`` when thunk ``k`` starts; thunk
    ``k`` returns ``k``, or runs ``bodies[k]`` when there is one."""

    def __init__(self, n, bodies=None):
        self.n, self.bodies, self.taken = n, bodies or {}, 0
        self.started = [threading.Event() for _ in range(n or 64)]

    def run(self, k):
        self.started[k].set()
        return self.bodies[k]() if k in self.bodies else k

    def __iter__(self):
        for k in itertools.count() if self.n is None else range(self.n):
            self.taken += 1
            yield functools.partial(self.run, k)


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("n", range(6))
def test_ahead_gives_results_in_order(n, workers):
    baseline = threading.active_count()
    with ahead(Thunks(n), workers) as results:
        assert list(results) == list(range(n))
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2])
def test_ahead_runs_at_most_two_per_worker_past_the_held_result(workers):
    n, depth = 9, 2 * workers - 1
    thunks = Thunks(n)
    with ahead(thunks, workers) as results:
        for j, result in enumerate(results):
            assert result == j
            last = min(j + depth, n - 1)
            # every thunk up to the bound runs while the caller holds result j ...
            assert thunks.started[last].wait(PATIENCE_S), (workers, j)
            # ... and the next is not even taken until result j + 1 is asked for
            assert thunks.taken == last + 1, (workers, j)
            assert not any(started.is_set() for started in thunks.started[last + 1:]), (workers, j)


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_ahead_takes_its_thunks_lazily(workers):
    thunks = Thunks(None)
    with ahead(thunks, workers) as results:
        assert next(results) == 0
        assert thunks.taken == max(1, 2 * workers)
        assert [next(results) for _ in range(3)] == [1, 2, 3]
        assert thunks.taken == max(4, 3 + 2 * workers)


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("position", range(5))
def test_ahead_raises_a_failure_at_its_position(position, workers):
    got = []
    with pytest.raises(ValueError) as exc:
        with ahead(Thunks(5, {position: functools.partial(fail, position)}), workers) as results:
            for result in results:
                got.append(result)
    assert exc.value.args == (position,)
    assert got == list(range(position))


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("where", ["thunk", "body"])
def test_an_interrupt_in_a_thunk_or_the_body_leaves_no_thread(where, workers):
    def interrupt():
        raise KeyboardInterrupt

    baseline = threading.active_count()
    for position in range(4):
        with pytest.raises(KeyboardInterrupt):
            with ahead(Thunks(6, {position: interrupt} if where == "thunk" else {}), workers) as results:
                for result in results:
                    if where == "body" and result == position:
                        raise KeyboardInterrupt
        assert threading.active_count() == baseline, (where, workers, position)


def test_leaving_ahead_early_cancels_the_thunks_not_started(monkeypatch):
    # thunks 1 and 2 hold both workers until the block's exit has cancelled
    # the queue, so thunk 3 is submitted but never started
    gate = threading.Event()

    class GateOpensOnShutdown(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            gate.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", GateOpensOnShutdown)
    thunks = Thunks(8, {1: gate.wait, 2: gate.wait})
    baseline = threading.active_count()
    with ahead(thunks, workers=2) as results:
        assert next(results) == 0
        assert thunks.started[1].wait(PATIENCE_S) and thunks.started[2].wait(PATIENCE_S)
    assert thunks.taken == 4
    assert [started.is_set() for started in thunks.started] == [True] * 3 + [False] * 5
    assert threading.active_count() == baseline


# --- the one module that starts threads ---------------------------------------------


def test_only_the_threads_module_imports_threading_or_concurrent_futures():
    package = Path(_threads.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name in ("threading", "_thread") or name.startswith("concurrent.futures") for name in names):
                importers.add(path.name)
    assert importers == {"_threads.py"}
