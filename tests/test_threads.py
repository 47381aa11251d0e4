"""``split`` runs odd positions on a helper thread and even ones on the
calling thread, and reading its futures in order gives what running the
thunks in turn would."""
import functools
import itertools
import threading

import pytest

from voxedit._threads import helper, split


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
